import json
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dtrtrs
from scipy.spatial.distance import cdist

from curebo.gp import (
    KERNEL_BLOCK_ROWS,
    NumericalError,
    _chol_with_jitter,
    _matern52_from_d2,
    fit_gp,
    matern52_matrix,
    predict_batch,
)

SQRT5 = np.sqrt(5.0)


def _random_dataset(rng, n, d):
    x = rng.random((n, d))
    y = np.sin(3.0 * x[:, 0]) + 0.5 * (x ** 2).sum(axis=1) + 0.1 * rng.standard_normal(n)
    return x, y


def correlation(a, b, length_scales):
    """Correlation between two points, as the one-entry kernel matrix."""
    return float(matern52_matrix(np.array([a], float), np.array([b], float), length_scales)[0, 0])


def predict_one(model, query):
    """Mean and variance at one point, as a one-row batch."""
    means, variances = predict_batch(model, np.array([query], float))
    return float(means[0]), float(variances[0])


def test_matern52_unit_at_zero_distance():
    a = np.array([0.2, 0.9])
    assert correlation(a, a, np.array([0.3, 0.7])) == pytest.approx(1.0, abs=0.0)


def test_matern52_decays_to_zero():
    assert correlation([0.0], [1.0], np.array([1e-3])) < 1e-300


def test_matern52_unit_separation_value():
    # direct formula at r = 1: (1 + sqrt5 + 5/3) exp(-sqrt5)
    expected = (1.0 + SQRT5 + 5.0 / 3.0) * np.exp(-SQRT5)
    got = correlation([0.0], [1.0], np.array([1.0]))
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.5240, abs=5e-5)


def test_matern52_dimension_mismatch():
    with pytest.raises(ValueError):
        correlation([0.0], [0.0, 1.0], np.array([1.0]))


@pytest.mark.parametrize("bad", [0.0, -0.3, np.nan, np.inf])
def test_fit_rejects_bad_pinned_length_scales(bad):
    x = np.array([[0.1], [0.5], [0.9]])
    with pytest.raises(ValueError, match="finite and positive"):
        fit_gp(x, np.array([1.0, 2.0, 0.5]), length_scales=np.array([bad]))


def test_fit_constant_outputs():
    x = np.linspace(0.0, 1.0, 7)[:, None]
    model = fit_gp(x, np.full(7, 3.25))
    assert model.mu_hat == pytest.approx(3.25, rel=1e-12)
    assert model.sigma2_hat == pytest.approx(0.0, abs=1e-12)
    mean, variance = predict_one(model, [0.33])
    assert mean == pytest.approx(3.25, rel=1e-9)
    assert variance == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_outputs(bad):
    x = np.array([[0.1], [0.4], [0.7]])
    with pytest.raises(ValueError, match="training outputs must be finite"):
        fit_gp(x, np.array([1.0, bad, 2.0]))


def test_fit_rejects_tiny_or_duplicated_data():
    with pytest.raises(ValueError):
        fit_gp(np.array([[0.5]]), np.array([1.0]))
    x = np.array([[0.1], [0.1], [0.7]])
    with pytest.raises(ValueError):
        fit_gp(x, np.array([1.0, 1.0, 2.0]))


def test_interpolation_at_training_points():
    rng = np.random.default_rng(0)
    x, y = _random_dataset(rng, 15, 2)
    model = fit_gp(x, y)
    means, variances = predict_batch(model, x)
    scale = y.max() - y.min()
    assert np.max(np.abs(means - y)) <= 1e-6 * scale
    assert np.all(variances <= 1e-6 * model.sigma2_hat + 1e-300)


def test_leave_one_out_on_sine_within_three_sd():
    x = np.linspace(0.0, 1.0, 5)[:, None]
    y = np.sin(2.0 * np.pi * x[:, 0])
    for i in range(5):
        keep = np.arange(5) != i
        model = fit_gp(x[keep], y[keep])
        mean, variance = predict_one(model, x[i])
        assert abs(mean - y[i]) <= 3.0 * np.sqrt(variance) + 1e-9


def test_predict_symmetric_pair_averages():
    x = np.array([[0.25], [0.75]])
    y = np.array([1.0, 3.0])
    model = fit_gp(x, y)
    mean, _ = predict_one(model, [0.5])
    assert mean == pytest.approx(2.0, rel=1e-10)


def test_predict_far_field_limits():
    # pin a short length scale so a far query decorrelates completely
    x = np.array([[0.40], [0.42], [0.44]])
    y = np.array([1.0, 1.5, 0.5])
    model = fit_gp(x, y, length_scales=np.array([0.01]))
    mean, variance = predict_one(model, [0.99])
    assert mean == pytest.approx(model.mu_hat, abs=1e-8)
    expected_var = model.sigma2_hat * (1.0 + 1.0 / model.one_r_one)
    assert variance == pytest.approx(expected_var, rel=1e-6)


def test_predict_dimension_mismatch():
    rng = np.random.default_rng(1)
    x, y = _random_dataset(rng, 8, 2)
    model = fit_gp(x, y)
    with pytest.raises(ValueError):
        predict_one(model, [0.5])


def test_permutation_invariance():
    rng = np.random.default_rng(2)
    x, y = _random_dataset(rng, 20, 2)
    q = rng.random((30, 2))
    base_means, base_vars = predict_batch(fit_gp(x, y), q)
    perm = rng.permutation(20)
    perm_means, perm_vars = predict_batch(fit_gp(x[perm], y[perm]), q)
    assert np.max(np.abs(base_means - perm_means)) < 1e-9
    assert np.max(np.abs(base_vars - perm_vars)) < 1e-9


def test_profile_estimates_consistent_with_factor():
    rng = np.random.default_rng(3)
    x, y = _random_dataset(rng, 12, 1)
    model = fit_gp(x, y)
    # recompute mu and sigma2 from the cached factorization
    n = len(model.train_y)
    ones = np.ones(n)
    from scipy.linalg import cho_solve

    rinv_y = cho_solve((model.factor, True), model.train_y)
    rinv_1 = cho_solve((model.factor, True), ones)
    mu = float(ones @ rinv_y) / float(ones @ rinv_1)
    resid = model.train_y - mu
    sigma2 = float(resid @ cho_solve((model.factor, True), resid)) / n
    assert mu == pytest.approx(model.mu_hat, rel=1e-10)
    assert sigma2 == pytest.approx(model.sigma2_hat, rel=1e-10)


def test_factorization_identity_within_tolerance():
    rng = np.random.default_rng(8)
    x, y = _random_dataset(rng, 10, 2)
    model = fit_gp(x, y)
    r = matern52_matrix(model.train_x, model.train_x, model.length_scales)
    rebuilt = model.factor @ model.factor.T
    target = r + model.jitter * np.eye(len(r))
    assert np.max(np.abs(rebuilt - target)) <= 1e-8 * np.max(np.abs(target))


def test_likelihood_ascent_over_default_initialization():
    rng = np.random.default_rng(4)
    for n, d in [(8, 1), (15, 2), (25, 3)]:
        x, y = _random_dataset(rng, n, d)
        model = fit_gp(x, y)
        init = np.clip(np.std(x, axis=0), 1e-3, 1e3)
        assert model.log_likelihood >= fit_gp(x, y, length_scales=init).log_likelihood - 1e-9


def test_fit_survives_nearly_coincident_points():
    x = np.array([[0.5], [0.5 + 1e-12], [0.9]])
    y = np.array([1.0, 1.0, 2.0])
    model = fit_gp(x, y, length_scales=np.array([0.3]))
    means, variances = predict_batch(model, np.array([[0.7]]))
    assert np.isfinite(means).all() and np.isfinite(variances).all()


def test_jitter_escalates_and_eventually_raises():
    # indefinite beyond the starting jitter: escalation required
    r = np.ones((3, 3)) - 1e-8 * np.eye(3)
    _, jitter = _chol_with_jitter(r)
    assert 1e-10 < jitter <= 1e-4
    # indefinite beyond the maximum jitter: diagnostic failure
    with pytest.raises(NumericalError, match="jitter"):
        _chol_with_jitter(np.ones((3, 3)) - 1e-3 * np.eye(3))


def one_shot_matern52_matrix(x, z, length_scales):
    """The kernel matrix in one cdist call, without row blocks."""
    d2 = cdist(x / length_scales, z / length_scales, metric="sqeuclidean")
    return _matern52_from_d2(d2)[0]


def one_shot_predict(model, queries):
    """predict_batch on the one-shot kernel matrix, each product on the whole of it."""
    r = one_shot_matern52_matrix(queries, model.train_x, model.length_scales)
    means = model.mu_hat + r @ model.resid_solve
    one_rinv_r = r @ model.ones_solve
    v = dtrtrs(model.factor, r.T, lower=1)[0]
    r_rinv_r = np.einsum("ij,ij->j", v, v)
    variances = model.sigma2_hat * (1.0 - r_rinv_r + (1.0 - one_rinv_r) ** 2 / model.one_r_one)
    return means, np.maximum(variances, 0.0)


B = KERNEL_BLOCK_ROWS


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("m", [0, 1, 2, B - 1, B, B + 1, 2 * B + 1, 10_000])
def test_row_blocks_keep_every_bit_of_the_one_shot_kernel(m, d):
    # the golden's 20 queries fit in one block; these cross block boundaries
    rng = np.random.default_rng(m + d)
    x, y = _random_dataset(rng, 30, d)
    model = fit_gp(x, y)
    queries = rng.random((m, d))
    blocked = matern52_matrix(queries, model.train_x, model.length_scales)
    assert blocked.shape == (m, 30)
    assert blocked.tobytes() == one_shot_matern52_matrix(queries, model.train_x, model.length_scales).tobytes()
    means, variances = predict_batch(model, queries)
    ref_means, ref_variances = one_shot_predict(model, queries)
    assert means.tobytes() == ref_means.tobytes()
    assert variances.tobytes() == ref_variances.tobytes()


def test_variance_clamped_nonnegative():
    rng = np.random.default_rng(5)
    x, y = _random_dataset(rng, 30, 2)
    model = fit_gp(x, y)
    _, variances = predict_batch(model, rng.random((200, 2)))
    assert np.all(variances >= 0.0)


def _golden_dataset():
    """40 points in 4-d with a smooth objective, a saturating cure-like g and a
    constant output; the constant one ends L-BFGS-B runs with ABNORMAL
    line-search exits, where res.fun is not the objective at res.x."""
    rng = np.random.default_rng(20240601)
    x = rng.random((40, 4))
    queries = rng.random((20, 4))
    f = np.sin(3.0 * x[:, 0]) + 0.5 * (x ** 2).sum(axis=1) + np.cos(2.0 * x[:, 2] * x[:, 3])
    g = 1.0 - 0.2 * np.exp(-3.0 * (x[:, 0] + x[:, 1] + 0.5 * x[:, 2] * x[:, 3]))
    return x, queries, {"f": f, "g": g, "flat": np.full(40, 2.5)}


def test_fit_and_predict_are_bit_identical_to_recorded_values():
    # Recorded with numpy 2.4.6 / scipy 1.17.1 (bundled OpenBLAS). A speedup
    # to fit_gp or predict_batch that keeps the numerics must keep every bit
    # of these numbers; another BLAS/LAPACK build may round differently.
    golden = json.loads((Path(__file__).parent / "gp_golden.json").read_text())
    x, queries, outputs = _golden_dataset()
    for name, y in outputs.items():
        model = fit_gp(x, y)
        means, variances = predict_batch(model, queries)
        got = {
            "length_scales": [float(v).hex() for v in model.length_scales],
            "log_likelihood": float(model.log_likelihood).hex(),
            "means": [float(v).hex() for v in means],
            "variances": [float(v).hex() for v in variances],
        }
        assert got == golden[name], name
