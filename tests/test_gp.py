import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrs, dtrtrs
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from curebo import gp
from curebo.gp import (
    KERNEL_BLOCK_ROWS,
    NumericalError,
    _chol_with_jitter,
    _matern52_from_d2,
    _nll_and_grad,
    fit_gp,
    matern52_matrix,
    predict_batch,
)
from golden_levels import record_this_level, recorded_at_this_level

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


# References for the likelihood and the predictor, computed the long way:
# one solve per right-hand side, the gradient from the (n, n, d) tensor of
# dR/dlog l_h with two einsums, and each prediction by a triangular solve.


def reference_profile_estimates(L, y):
    """mu_hat, sigma2_hat, log likelihood, R^-1 (y - mu 1), R^-1 1, 1' R^-1 1."""
    n = len(y)
    ones = np.ones(n)
    rinv_y = dpotrs(L, y, lower=1)[0]
    rinv_1 = dpotrs(L, ones, lower=1)[0]
    one_r_one = float(ones @ rinv_1)
    mu = float(ones @ rinv_y) / one_r_one
    resid_solve = rinv_y - mu * rinv_1
    sigma2 = max(float((y - mu) @ resid_solve) / n, 0.0)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    ll = -0.5 * (n * np.log(2.0 * np.pi * max(sigma2, 1e-300)) + logdet + n)
    return mu, sigma2, ll, resid_solve, rinv_1, one_r_one


def reference_nll_and_grad(delta, y, log_ls):
    """NLL and gradient from the (n, n, d) raw differences, plane by plane."""
    n, _, d = delta.shape
    s = np.square(delta / np.exp(log_ls))  # squared scaled separations
    R, lin, decay = _matern52_from_d2(s.sum(axis=2))
    try:
        L, _ = _chol_with_jitter(R)
    except NumericalError:
        return 1e12, np.zeros(d)
    _, sigma2, ll, resid_solve, _, _ = reference_profile_estimates(L, y)
    rinv = dpotrs(L, np.eye(n), lower=1)[0]
    ds = s * ((5.0 / 3.0) * lin * decay)[:, :, None]  # dR/dlog l_h
    quad = np.einsum("i,ijh,j->h", resid_solve, ds, resid_solve)
    trace = np.einsum("ij,ijh->h", rinv, ds)
    return -ll, -(0.5 * quad / max(sigma2, 1e-300) - 0.5 * trace)


def reference_predict(model, queries):
    """Means and variances by a triangular solve with the (n, m) matrix r'."""
    estimates = reference_profile_estimates(model.factor, model.train_y)
    resid_solve, rinv_1, one_r_one = estimates[3:]
    r = matern52_matrix(queries, model.train_x, model.length_scales)
    means = model.mu_hat + r @ resid_solve
    v = dtrtrs(model.factor, r.T, lower=1)[0]
    r_rinv_r = np.einsum("ij,ij->j", v, v)
    variances = model.sigma2_hat * (1.0 - r_rinv_r + (1.0 - r @ rinv_1) ** 2 / one_r_one)
    return means, np.maximum(variances, 0.0)


def _likelihood_cases(n, d):
    """(x, y, log length scales): a smooth y and a flat one at two scales each.

    The length scales are a half and one typical nearest-neighbour spacing,
    n^(-1/d), each dimension jittered. That keeps the condition number of R
    below 1e6. The likelihood carries round-off of about cond(R) * eps
    relative, from the rounding of d2 on: at n = 49, d = 1 and twice the
    spacing, cond(R) is 5e6, the two paths differ by 2e-11 in the NLL, and
    the reference itself moves by as much when its log length scales move by
    one ulp.

    The flat y is a power of two, so R^-1 y is exactly 4 R^-1 1 and sigma2_hat
    is exactly 0 on both paths. A flat y of other value leaves a sigma2_hat
    of round-off size, whose logarithm neither path computes reproducibly.
    """
    rng = np.random.default_rng(100 * n + d)
    x, y = _random_dataset(rng, n, d)
    for spacings in (0.5, 1.0):
        log_ls = np.log(spacings * n ** (-1.0 / d)) + rng.normal(0.0, 0.3, size=d)
        yield x, y, log_ls
        yield x, np.full(n, 4.0), log_ls


def _differences(x):
    delta = x[:, None, :] - x[None, :, :]
    return delta, np.square(delta).reshape(-1, x.shape[1])


def _five_point_differences(delta2, y, log_ls, step=1e-3):
    """Gradient of the NLL by the fourth-order central difference."""
    def nll(v):
        return _nll_and_grad(delta2, y, v)[0]

    grad = np.empty(len(log_ls))
    for h, e in enumerate(np.eye(len(log_ls)) * step):
        outer = nll(log_ls - 2 * e) - nll(log_ls + 2 * e)
        inner = nll(log_ls + e) - nll(log_ls - e)
        grad[h] = (outer + 8 * inner) / (12 * step)
    return grad


def _correlation(delta2, log_ls):
    n = int(np.sqrt(len(delta2)))
    return _matern52_from_d2(delta2 @ np.exp(-2.0 * log_ls))[0].reshape(n, n)


def _assert_likelihood_matches(delta, delta2, y, log_ls):
    n = len(y)
    nll, grad = _nll_and_grad(delta2, y, log_ls)
    ref_nll, ref_grad = reference_nll_and_grad(delta, y, log_ls)
    # the NLL sums terms of size n / 2, and the sum can be near 0
    assert abs(nll - ref_nll) <= 1e-12 * max(abs(ref_nll), n)
    scale = max(1.0, np.max(np.abs(ref_grad)))
    assert np.max(np.abs(grad - ref_grad)) <= 1e-8 * scale
    assert np.max(np.abs(grad - _five_point_differences(delta2, y, log_ls))) <= 1e-8 * scale


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 15, 49])
def test_likelihood_and_gradient_match_the_reference_and_central_differences(n, d):
    for x, y, log_ls in _likelihood_cases(n, d):
        delta, delta2 = _differences(x)
        assert np.linalg.cond(_correlation(delta2, log_ls)) < 1e6
        _assert_likelihood_matches(delta, delta2, y, log_ls)


def test_likelihood_matches_the_reference_where_the_jitter_escalates(monkeypatch):
    # A jitter of 1e-10 factorizes every Matern matrix of n <= 49, even a
    # singular one, so the start is lowered to make the escalation run. Two
    # equal rows make R singular along e_0 - e_1 whatever the length scales,
    # the same direction on both paths, so the tolerances still hold.
    monkeypatch.setattr(gp, "JITTER_START", 1e-20)
    rng = np.random.default_rng(11)
    x, y = _random_dataset(rng, 15, 2)
    x[1] = x[0]
    delta, delta2 = _differences(x)
    log_ls = np.log(np.array([0.3, 0.5]))
    assert _chol_with_jitter(_correlation(delta2, log_ls))[1] > 1e-20
    _assert_likelihood_matches(delta, delta2, y, log_ls)


def _assert_prediction_matches(model, queries):
    means, variances = predict_batch(model, queries)
    ref_means, ref_variances = reference_predict(model, queries)
    # A mean is mu + sum_j r_j a_j for a = R^-1 (y - mu 1), and two summation
    # orders differ relative to the size of its terms, not of the sum. The
    # fit at n = 49, d = 1 has length scale 95 and cond(R) 3e18; its terms
    # are up to 3e12 times the mean, and the means differ by 2e-4 relative.
    a = reference_profile_estimates(model.factor, model.train_y)[3]
    r = matern52_matrix(queries, model.train_x, model.length_scales)
    terms = abs(model.mu_hat) + np.abs(r) @ np.abs(a)
    assert np.all(np.abs(means - ref_means) <= 1e-12 * terms)
    assert np.max(np.abs(variances - ref_variances)) <= 1e-10 * model.sigma2_hat


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 15, 49])
def test_predictions_match_the_triangular_solve_reference(n, d):
    rng = np.random.default_rng(200 * n + d)
    x, y = _random_dataset(rng, n, d)
    queries = np.vstack([rng.random((300, d)), x])
    _assert_prediction_matches(fit_gp(x, y), queries)
    flat = fit_gp(x, np.full(n, 4.0))
    assert flat.sigma2_hat == 0.0
    _assert_prediction_matches(flat, queries)


def test_predictions_match_the_reference_on_nearly_coincident_points():
    x = np.array([[0.5], [0.5 + 1e-12], [0.9]])
    model = fit_gp(x, np.array([1.0, 1.0, 2.0]), length_scales=np.array([0.3]))
    _assert_prediction_matches(model, np.linspace(0.0, 1.0, 101)[:, None])


def one_shot_matern52_matrix(x, z, length_scales):
    """The kernel matrix in one cdist call, without row blocks."""
    d2 = cdist(x / length_scales, z / length_scales, metric="sqeuclidean")
    return _matern52_from_d2(d2)[0]


def one_shot_predict(model, queries):
    """predict_batch on the one-shot kernel matrix: one product with the projector."""
    n = len(model.train_y)
    rp = one_shot_matern52_matrix(queries, model.train_x, model.length_scales) @ model.projector
    r_rinv_r = np.einsum("ij,ij->i", rp[:, :n], rp[:, :n])
    variances = model.sigma2_hat * (1.0 - r_rinv_r + (1.0 - rp[:, n + 1]) ** 2 / model.one_r_one)
    return model.mu_hat + rp[:, n], np.maximum(variances, 0.0)


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


# Properties over generated data. The inputs sit on a lattice of step 1/16,
# so that rows differ by at least 1/16 in some coordinate and every lattice
# value and its shift by a multiple of 1/16 are exact in binary.


@st.composite
def training_sets(draw, max_n=12):
    d = draw(st.integers(1, 3))
    cells = st.tuples(*[st.integers(0, 16)] * d)
    rows = draw(st.lists(cells, min_size=2, max_size=max_n, unique=True))
    x = np.array(rows, dtype=float) / 16.0
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=len(x), max_size=len(x))))
    return x, y


@settings(max_examples=40, deadline=None)
@given(data=training_sets(), seed=st.integers(0, 2**32 - 1))
def test_fit_is_bit_identical_under_a_row_permutation(data, seed):
    x, y = data
    perm = np.random.default_rng(seed).permutation(len(y))
    queries = np.linspace(0.0, 1.0, 7)[:, None].repeat(x.shape[1], axis=1)
    base, permuted = fit_gp(x, y), fit_gp(x[perm], y[perm])
    assert base.length_scales.tobytes() == permuted.length_scales.tobytes()
    assert base.log_likelihood == permuted.log_likelihood
    for a, b in zip(predict_batch(base, queries), predict_batch(permuted, queries)):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(data=training_sets())
def test_mean_interpolates_and_variance_vanishes_at_training_points(data):
    # The factor is of R + jitter I, so at training point i the mean is
    # y_i - jitter * a_i for a = (R + jitter I)^-1 (y - mu 1), and the variance
    # is at most 2 jitter sigma2_hat. With long length scales a can be large:
    # 6 points in 3-d fit at length scales 37 leave y_i - mean_i = 2.3e-5.
    x, y = data
    model = fit_gp(x, y)
    means, variances = predict_batch(model, model.train_x)
    nugget_fit = model.train_y - model.jitter * model.projector[:, len(y)]
    assert np.max(np.abs(means - nugget_fit)) <= 1e-9 * max(np.ptp(y), 1.0)
    assert np.all(variances <= 2.0 * model.jitter * model.sigma2_hat)


@settings(max_examples=40, deadline=None)
@given(data=training_sets(), unit=st.floats(0.0, 1.0), log_ls=st.floats(-3.0, 3.0))
def test_variance_is_finite_and_nonnegative_everywhere(data, unit, log_ls):
    x, y = data
    d = x.shape[1]
    model = fit_gp(x, y, length_scales=np.full(d, np.exp(log_ls)))
    queries = np.vstack([np.full(d, unit), np.random.default_rng(0).random((50, d))])
    means, variances = predict_batch(model, queries)
    assert np.all(np.isfinite(means)) and np.all(np.isfinite(variances))
    assert np.all(variances >= 0.0)


@settings(max_examples=40, deadline=None)
@given(data=training_sets(), steps=st.lists(st.integers(-32, 32), min_size=3, max_size=3))
def test_predictions_are_invariant_to_a_common_shift_of_the_inputs(data, steps):
    # the length scales are pinned to the unshifted fit's, so that the check
    # is on the model and not on the path the optimizer takes
    x, y = data
    shift = np.array(steps[: x.shape[1]]) / 16.0
    model = fit_gp(x, y)
    shifted = fit_gp(x + shift, y, length_scales=model.length_scales)
    queries = np.random.default_rng(1).random((30, x.shape[1]))
    means, variances = predict_batch(model, queries)
    shifted_means, shifted_variances = predict_batch(shifted, queries + shift)
    assert np.max(np.abs(shifted_means - means)) <= 1e-6 * max(np.ptp(y), 1.0)
    assert np.max(np.abs(shifted_variances - variances)) <= 1e-6 * max(model.sigma2_hat, 1e-12)


def _golden_dataset():
    """40 points in 4-d with a smooth objective, a saturating cure-like g and a
    constant output. L-BFGS-B runs on the constant one can end with ABNORMAL
    line-search exits, where res.fun is not the objective at res.x: from the
    driver test's perturbed start at both recorded levels, and from fit_gp's
    default start with numpy's AVX512 kernels disabled."""
    rng = np.random.default_rng(20240601)
    x = rng.random((40, 4))
    queries = rng.random((20, 4))
    f = np.sin(3.0 * x[:, 0]) + 0.5 * (x ** 2).sum(axis=1) + np.cos(2.0 * x[:, 2] * x[:, 3])
    g = 1.0 - 0.2 * np.exp(-3.0 * (x[:, 0] + x[:, 1] + 0.5 * x[:, 2] * x[:, 3]))
    return x, queries, {"f": f, "g": g, "flat": np.full(40, 2.5)}


def _lbfgsb_matches_minimize(fun, x0, lo, hi):
    """Run gp._lbfgsb and scipy's minimize from x0 and require the same
    sequence of objective calls, the same bits of x, and an objective at x no
    greater than at x0; minimize's result."""
    ours, theirs = [], []

    def recording(calls):
        def objective(v):
            calls.append(v.tobytes())
            return fun(v)
        return objective

    x = gp._lbfgsb(recording(ours), x0, lo, hi)
    res = minimize(recording(theirs), x0, method="L-BFGS-B", jac=True,
                   bounds=[(lo, hi)] * len(x0), options={"maxiter": gp.MAXITER})
    assert ours == theirs
    assert x.tobytes() == res.x.tobytes()
    assert fun(x)[0] <= fun(x0)[0]
    return res


def _fit_gp_runs(y):
    """(objective, start, lo, hi) of each L-BFGS-B run that fit_gp makes on
    the golden inputs with outputs y."""
    x, _, _ = _golden_dataset()
    runs = []
    real = gp._lbfgsb

    def capture(objective, x0, lo, hi):
        runs.append((objective, x0, lo, hi))
        return real(objective, x0, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gp, "_lbfgsb", capture)
        fit_gp(x, y)
    return runs


@pytest.mark.parametrize("name", ["f", "g", "flat"])
def test_driver_matches_scipy_minimize_on_the_golden_likelihoods(name):
    _, _, outputs = _golden_dataset()
    runs = _fit_gp_runs(outputs[name])
    assert len(runs) == 1
    _lbfgsb_matches_minimize(*runs[0])
    objective, x0, lo, hi = runs[0]
    if name == "flat":
        # a perturbed start that ends with an ABNORMAL line-search exit
        start = np.clip(x0 + np.random.default_rng(0).normal(0.0, 0.7, 4), lo, hi)
        assert _lbfgsb_matches_minimize(objective, start, lo, hi).message.startswith("ABNORMAL")
    # From starts on the bounds, setulb asks again for the point it was just
    # given, which minimize answers without a call. On the AVX512 host the
    # goldens were recorded on, the first start does so on f and g, the
    # second on g and flat.
    for start in ([x0[0], lo, hi, x0[3]], [x0[0], lo, x0[2], hi]):
        _lbfgsb_matches_minimize(objective, np.array(start), lo, hi)


def test_driver_matches_scipy_minimize_up_to_the_iteration_limit():
    def rosenbrock(v, b=1000.0):
        bend = v[1:] - v[:-1] ** 2
        grad = np.zeros_like(v)
        grad[:-1] = -4.0 * b * v[:-1] * bend - 2.0 * (1.0 - v[:-1])
        grad[1:] += 2.0 * b * bend
        return float(np.sum(b * bend ** 2 + (1.0 - v[:-1]) ** 2)), grad

    res = _lbfgsb_matches_minimize(rosenbrock, np.array([-1.2, 1.0, -1.2, 1.0]), -10.0, 10.0)
    assert res.nit == gp.MAXITER
    assert res.message.startswith("STOP: TOTAL NO. OF ITERATIONS")


GOLDEN_PATH = Path(__file__).parent / "gp_golden.json"


def golden_snapshot():
    x, queries, outputs = _golden_dataset()
    snapshot = {}
    for name, y in outputs.items():
        model = fit_gp(x, y)
        means, variances = predict_batch(model, queries)
        snapshot[name] = {
            "length_scales": [float(v).hex() for v in model.length_scales],
            "log_likelihood": float(model.log_likelihood).hex(),
            "means": [float(v).hex() for v in means],
            "variances": [float(v).hex() for v in variances],
        }
    return snapshot


def test_fit_and_predict_are_bit_identical_to_recorded_values():
    # Recorded with numpy 2.4.6 / scipy 1.17.1 (bundled OpenBLAS) on an
    # AVX512 x86-64 host, at its default level and again with
    # NPY_DISABLE_CPU_FEATURES=X86_V4. A speedup to fit_gp or predict_batch
    # that keeps the numerics must keep every bit of these numbers at every
    # recorded level; another BLAS/LAPACK build may round differently.
    recorded = recorded_at_this_level(GOLDEN_PATH, "tests/test_gp.py")
    got = golden_snapshot()
    for name in recorded:
        assert got[name] == recorded[name], name


if __name__ == "__main__":
    # python tests/test_gp.py records the golden of the running level and
    # keeps the other levels' entries: one field a line
    def fields_text(name, fields):
        lines = ",\n".join(f"   {json.dumps(k)}: {json.dumps(v)}" for k, v in fields.items())
        return f"  {json.dumps(name)}: {{\n{lines}\n  }}"

    record_this_level(GOLDEN_PATH, golden_snapshot(), fields_text)
