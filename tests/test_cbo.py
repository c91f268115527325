import math
from dataclasses import replace

import numpy as np
import pytest

from curebo import cbo
from curebo.blas import openblas_threads
from curebo.cbo import CboConfig, run_cbo
from curebo.gp import NumericalError
from curebo.problems import Problem, analytical_problem, four_point_problem
from curebo.acquisition import ei_values, pf_values
from curebo.records import Evaluation
from curebo.space import DesignSpace
from curebo.study import RunConfig, summarize
from logs import logged

UNIT_SQUARE = DesignSpace(lower=[0.0, 0.0], upper=[1.0, 1.0])


def bowl(x):
    return float((x[0] - 0.3) ** 2 + (x[1] - 0.7) ** 2), 1.0


def _eval(f, g):
    return Evaluation(x=np.array([0.0, 0.0]), f=f, g=g, step_index=0, acq=None)


def _incumbent(evaluations, threshold):
    return logged(evaluations, threshold).incumbent


def _learn_steps(report, config):
    """The length of a study's step axis for this one cBO run."""
    study = RunConfig(problem="analytical", optimizer="cbo", replications=1, seed=0,
                      output_dir="-", cbo=config)
    return len(summarize(study, "cbo", [report.best_feasible]).step_index)


def test_best_feasible_rules():
    assert _incumbent([], 0.5) is None
    assert _incumbent([_eval(1.0, 0.1), _eval(0.5, 0.2)], 0.5) is None
    # global minimum infeasible: the feasible runner-up wins
    mixed = [_eval(0.1, 0.2), _eval(0.7, 0.9), _eval(0.4, 0.6)]
    inc = _incumbent(mixed, 0.5)
    assert inc is mixed[2] and inc.f == 0.4
    # boundary equality counts as feasible
    assert _incumbent([_eval(1.0, 0.5)], 0.5) is not None


def test_budget_exactness_forty_evaluations():
    problem = analytical_problem()
    config = CboConfig(n_init=10, n_steps=30, pool_size=500)
    report = run_cbo(problem, config, 1)
    assert len(report.evaluations) == 40
    assert sum(e.phase == "init" for e in report.evaluations) == 10
    assert sum(e.phase == "learn" for e in report.evaluations) == 30
    assert len(report.best_feasible) == 40
    assert _learn_steps(report, config) == 30
    assert report.complete


def test_unconstrained_bowl_converges_and_trace_monotone():
    config = CboConfig(n_init=6, n_steps=10, pool_size=2000)
    report = run_cbo(Problem(UNIT_SQUARE, 0.5, bowl), config, 3)
    values = [v for v in report.best_feasible if v is not None]
    assert len(values) == 16  # g == 1 everywhere: feasible from the start
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    # within pool resolution of the bowl minimum
    assert report.incumbent.f < 1e-3
    assert np.linalg.norm(report.incumbent.x - np.array([0.3, 0.7])) < 0.05


def test_reproducible_given_seed():
    problem = analytical_problem()
    config = CboConfig(n_init=5, n_steps=6, pool_size=300)
    a = run_cbo(problem, config, 11)
    b = run_cbo(problem, config, 11)
    assert len(a.evaluations) == len(b.evaluations)
    for ea, eb in zip(a.evaluations, b.evaluations):
        assert np.array_equal(ea.x, eb.x)
        assert ea.f == eb.f and ea.g == eb.g
    c = run_cbo(problem, config, 12)
    assert any(not np.array_equal(ea.x, ec.x) for ea, ec in zip(a.evaluations, c.evaluations))


def test_incumbent_is_feasible_or_absent():
    problem = analytical_problem()
    report = run_cbo(problem, CboConfig(n_init=6, n_steps=4, pool_size=300), 5)
    if report.incumbent is not None:
        f, g = problem(report.incumbent.x)
        assert g >= report.threshold
        assert f == report.incumbent.f


def test_run_reads_threshold_and_sieve_from_the_problem():
    problem = four_point_problem()
    report = run_cbo(problem, CboConfig(n_init=8, n_steps=3, pool_size=500), 7)
    assert report.threshold == 0.96
    for e in report.evaluations[8:]:
        assert problem.sieve_raw(problem.space.denormalize(e.x))


def test_emptied_sieve_ends_the_run():
    problem = replace(analytical_problem(), sieve_raw=lambda raw: False)
    report = run_cbo(problem, CboConfig(n_init=5, n_steps=3, pool_size=200), 2)
    assert len(report.evaluations) == 5  # no learn point is taken from outside the sieve
    assert not report.complete
    assert report.events == ["step 1: sieve emptied the pool, stopping early"]


def test_sieve_predicate_filters_candidates():
    problem = replace(analytical_problem(), sieve_raw=lambda raw: raw[0] < 0.5)
    report = run_cbo(problem, CboConfig(n_init=5, n_steps=6, pool_size=400), 2)
    for e in report.evaluations:
        if e.phase == "learn":
            assert e.x[0] < 0.5


def test_exhausted_fixed_pool_returns_partial_report(monkeypatch):
    # every pool is the same 6 candidates; they run out after 6 learn steps,
    # and the duplicate guard then empties the pool
    rng = np.random.default_rng(1)
    init, pool = rng.random((2, 2)), rng.random((6, 2))

    def fixed_lhs(space, m, seed=None):
        return (init if m == len(init) else pool).copy()

    monkeypatch.setattr(cbo, "lhs_sample", fixed_lhs)
    problem = analytical_problem()
    config = CboConfig(n_init=2, n_steps=8, pool_size=len(pool))
    report = run_cbo(problem, config, 1)
    assert not report.complete
    assert len(report.evaluations) == 8
    assert _learn_steps(report, config) == 6
    assert any("duplicate guard emptied the pool" in e for e in report.events)
    xs = {tuple(e.x) for e in report.evaluations}
    assert len(xs) == len(report.evaluations)


def test_near_duplicate_winner_gives_way_to_the_next_best(monkeypatch):
    init = np.array([[0.2, 0.2], [0.8, 0.8]])
    pool = np.array(
        [[0.5, 0.5], [0.2, 0.2 + 1e-12], [0.3, 0.3], [0.8, 0.8], [0.25, 0.2], [0.2, 0.25]]
    )

    def fixed_lhs(space, m, seed=None):
        return (init if m == len(init) else pool).copy()

    def peak_at_first_init_point(model, points):
        return -np.abs(points - init[0]).max(axis=1), np.ones(len(points))

    monkeypatch.setattr(cbo, "lhs_sample", fixed_lhs)
    monkeypatch.setattr(cbo, "predict_batch", peak_at_first_init_point)
    problem = Problem(UNIT_SQUARE, 0.5, lambda x: (0.0, 0.0))
    report = run_cbo(problem, CboConfig(n_init=2, n_steps=1, pool_size=len(pool)), 0)
    # row 1 scores highest but lies 1e-12 from an evaluated point; rows 4 and 5
    # tie next, and the tie goes to the first
    assert report.complete
    assert np.array_equal(report.evaluations[-1].x, pool[4])
    assert report.events == []


def _best_distinct_by_full_sort(pool, scores, train_x):
    """The duplicate guard over the whole pool in descending score, as a
    reference for cbo._best_distinct."""
    for i in np.argsort(-scores, kind="stable").tolist():
        if np.abs(train_x - pool[i]).max(axis=1).min() > cbo.DUPLICATE_TOL:
            return i
    return None


@pytest.mark.parametrize(
    "scores, expected",
    [
        ([0.1, 0.7, 0.3, 0.7, 0.2], 1),  # a tie goes to the first index
        ([0.1, np.nan, 0.3, 0.7, 0.7], 3),  # NaN ranks last, not first as in np.argmax
        ([0.1, 0.2, 0.9, 0.5, 0.5], 3),  # row 2 is a duplicate; the tie behind it
        ([np.nan, 0.2, 0.9, np.nan, 0.1], 1),
        ([np.nan, np.nan, 0.9, np.nan, np.nan], 0),  # NaN candidates still count
        ([0.1, 0.2, 0.9, 0.3, 0.4], 4),
    ],
)
def test_best_distinct_ranks_ties_nan_and_duplicates(scores, expected):
    pool = np.array([[0.1, 0.1], [0.4, 0.4], [0.2, 0.2 + 1e-12], [0.6, 0.6], [0.9, 0.9]])
    train_x = np.array([[0.2, 0.2], [0.8, 0.8]])
    scores = np.array(scores)
    assert cbo._best_distinct(pool, scores, train_x) == expected
    assert _best_distinct_by_full_sort(pool, scores, train_x) == expected


def test_best_distinct_is_none_when_every_candidate_is_a_duplicate():
    train_x = np.array([[0.2, 0.2], [0.8, 0.8]])
    assert cbo._best_distinct(train_x + 1e-12, np.array([0.5, np.nan]), train_x) is None


def test_acquisition_value_is_ei_times_pf_or_pf_alone(monkeypatch):
    real_predict = cbo.predict_batch
    calls = []

    def wide_predict(model, points):
        # widened posteriors keep PF strictly between 0 and 1
        means, variances = real_predict(model, points)
        variances = variances + 0.05
        calls.append((sorted(model.train_y), points, means, variances))
        return means, variances

    monkeypatch.setattr(cbo, "predict_batch", wide_predict)
    config = CboConfig(n_init=4, n_steps=1, pool_size=50)
    # g = x1 leaves some initial points feasible; g = 0.4 x1 leaves none
    for g_scale, feasible in ((1.0, True), (0.4, False)):
        calls.clear()
        problem = Problem(UNIT_SQUARE, 0.5, lambda x: (float(x[0]), g_scale * float(x[1])))
        report = run_cbo(problem, config, 0)
        init = report.evaluations[:4]
        y_f = sorted(e.f for e in init)
        posterior = {"f" if ys == y_f else "g": rest for ys, *rest in calls}
        points, mean_g, var_g = posterior["g"]
        pf = pf_values(mean_g, var_g, 0.5)
        if feasible:
            _, mean_f, var_f = posterior["f"]
            best_f = min(e.f for e in init if e.g >= 0.5)
            scores = ei_values(mean_f, var_f, best_f) * pf
        else:
            assert "f" not in posterior  # PF alone needs no f prediction
            scores = pf
        pick = np.flatnonzero((points == report.evaluations[-1].x).all(axis=1))[0]
        assert 0.0 < pf[pick] < 1.0
        assert [e.acq for e in report.evaluations] == [None] * 4 + [scores[pick]]
        assert scores[pick] == scores.max()


def test_a_certainly_feasible_ei_leader_is_the_pick_of_whole_pool_scoring(monkeypatch):
    real_predict = cbo.predict_batch
    calls = []

    def recording(model, points):
        calls.append((model, points))
        return real_predict(model, points)

    monkeypatch.setattr(cbo, "predict_batch", recording)
    # g == 1 everywhere: the constraint surrogate is certain, so every PF is 1
    problem = Problem(UNIT_SQUARE, 0.5, bowl)
    config = CboConfig(n_init=5, n_steps=3, pool_size=300)
    report = run_cbo(problem, config, 4)
    assert report.complete
    # each step predicts f on the pool, then g on the leader's row alone
    assert [len(points) for _, points in calls] == [config.pool_size, 1] * config.n_steps
    for step in range(config.n_steps):
        (model_f, pool), (model_g, _) = calls[2 * step : 2 * step + 2]
        train = report.evaluations[: config.n_init + step]
        best_f = min(e.f for e in train)
        scores = ei_values(*real_predict(model_f, pool), best_f) * pf_values(
            *real_predict(model_g, pool), 0.5
        )
        pick = cbo._best_distinct(pool, scores, np.array([e.x for e in train]))
        chosen = report.evaluations[config.n_init + step]
        assert np.array_equal(chosen.x, pool[pick])
        assert chosen.acq == scores[pick]


@pytest.mark.parametrize(
    "ei, g_var, expected, g_sizes",
    [
        ([0.1, 0.7, 0.3, 0.7, 0.2], [0.0] * 5, 1, [5]),  # a tie at the top of EI
        ([0.1, 0.2, 0.3, 0.7, np.nan], [0.0] * 5, 3, [5]),  # a NaN EI, though not the leader
        ([0.1, 0.2, 0.9, 0.5, 0.4], [0.0] * 5, 3, [5]),  # the leader is a near-duplicate
        ([0.1, 0.7, 0.3, 0.6, 0.2], [0.0, 0.01, 0.0, 0.0, 0.0], 3, [1, 5]),  # leader's PF < 1
    ],
)
def test_a_step_without_a_certain_leader_scores_the_whole_pool(
    monkeypatch, ei, g_var, expected, g_sizes
):
    init = np.array([[0.2, 0.2], [0.8, 0.8]])
    pool = np.array([[0.1, 0.1], [0.4, 0.4], [0.2, 0.2 + 1e-12], [0.6, 0.6], [0.9, 0.9]])
    ei, g_var = np.array(ei), np.array(g_var)
    g_mean = np.full(len(pool), 0.6)
    sizes = []

    def fixed_lhs(space, m, seed=None):
        return (init if m == len(init) else pool).copy()

    def scripted(model, points):
        rows = [np.flatnonzero((pool == p).all(axis=1))[0] for p in points]
        if model.train_y[0] == 0.0:  # f: EI over the incumbent f = 0 is -mean at zero variance
            return -ei[rows], np.zeros(len(rows))
        sizes.append(len(points))
        return g_mean[rows], g_var[rows]

    monkeypatch.setattr(cbo, "lhs_sample", fixed_lhs)
    monkeypatch.setattr(cbo, "predict_batch", scripted)
    problem = Problem(UNIT_SQUARE, 0.5, lambda x: (0.0, 1.0))
    report = run_cbo(problem, CboConfig(n_init=2, n_steps=1, pool_size=len(pool)), 0)
    assert report.complete
    assert sizes == g_sizes
    scores = ei_values(-ei, np.zeros(len(pool)), 0.0) * pf_values(g_mean, g_var, 0.5)
    assert cbo._best_distinct(pool, scores, init) == expected
    assert np.array_equal(report.evaluations[-1].x, pool[expected])
    assert report.evaluations[-1].acq == scores[expected]


def test_surrogate_fit_failure_returns_partial_report(monkeypatch):
    real_fit = cbo.fit_gp
    calls = {"n": 0}

    def fit_failing_at_step_2(x, y):
        calls["n"] += 1
        if calls["n"] > 2:  # both fits of step 1 succeed
            raise NumericalError("not positive definite")
        return real_fit(x, y)

    monkeypatch.setattr(cbo, "fit_gp", fit_failing_at_step_2)
    problem = Problem(UNIT_SQUARE, 0.995, bowl)
    config = CboConfig(n_init=4, n_steps=5, pool_size=100)
    report = run_cbo(problem, config, 0)
    assert not report.complete
    assert len(report.evaluations) == 5
    assert _learn_steps(report, config) == 1
    assert report.events == ["step 2: surrogate fit failed: not positive definite"]


def nan_beyond_08(x):
    # f has no value where x0 > 0.8; feasible (g >= 0.5) where x1 <= 0.5
    f = math.nan if x[0] > 0.8 else float((x[0] - 0.4) ** 2 + (x[1] - 0.3) ** 2)
    return f, 1.0 - float(x[1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_non_finite_objective_trains_no_model_and_is_never_incumbent(seed):
    config = CboConfig(n_init=6, n_steps=8, pool_size=200)
    report = run_cbo(Problem(UNIT_SQUARE, 0.5, nan_beyond_08), config, seed)
    assert report.complete
    # no fit failed; each NaN evaluation has its event (test_non_finite_results_are_events)
    assert all(event.startswith("non-finite result at step") for event in report.events)
    assert report.incumbent is not None and math.isfinite(report.incumbent.f)
    assert all(v is None or math.isfinite(v) for v in report.best_feasible)
    # a NaN in the f surrogate's data would make every posterior, so every acq, NaN
    assert all(math.isfinite(e.acq) for e in report.evaluations[config.n_init :])


def test_non_finite_results_are_events():
    calls = {"n": 0}

    def non_finite_on_calls_3_and_8(x):
        calls["n"] += 1
        if calls["n"] == 3:
            return math.nan, 1.0
        if calls["n"] == 8:  # kept and logged; no surrogate trains on it
            return 0.25, -math.inf
        return float(x[0]), 1.0

    problem = Problem(UNIT_SQUARE, 0.995, non_finite_on_calls_3_and_8)
    report = run_cbo(problem, CboConfig(n_init=5, n_steps=3, pool_size=100), 0)
    assert report.complete and len(report.evaluations) == 8
    assert report.events == [
        "non-finite result at step 0: f=nan, g=1.0",
        "non-finite result at step 3: f=0.25, g=-inf",
    ]


def nan_g_beyond_08(x):
    # g has no value where x0 > 0.8; feasible (g >= 0.5) where x1 <= 0.5
    g = math.nan if x[0] > 0.8 else 1.0 - float(x[1])
    return float((x[0] - 0.4) ** 2 + (x[1] - 0.3) ** 2), g


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_non_finite_constraint_trains_no_model(seed):
    config = CboConfig(n_init=6, n_steps=8, pool_size=200)
    report = run_cbo(Problem(UNIT_SQUARE, 0.5, nan_g_beyond_08), config, seed)
    # one of the six Latin hypercube strata lies beyond x0 = 5/6, so a NaN g is
    # in the first fit's data; with it the g surrogate's fit would fail
    assert any(math.isnan(e.g) for e in report.evaluations[: config.n_init])
    assert report.complete and len(report.evaluations) == 14
    assert all(event.startswith("non-finite result at step") for event in report.events)
    assert all(math.isfinite(e.acq) for e in report.evaluations[config.n_init :])


def test_failing_problem_returns_partial_report():
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] > 7:
            raise RuntimeError("simulator crashed")
        return float(x[0]), 1.0

    problem = Problem(UNIT_SQUARE, 0.995, flaky)
    config = CboConfig(n_init=5, n_steps=10, pool_size=100)
    report = run_cbo(problem, config, 0)
    assert not report.complete
    assert len(report.evaluations) == 7
    assert report.events == ["evaluation failed at step 3: simulator crashed"]
    # a failure among the initial points is step 0
    calls["n"] = 4
    report = run_cbo(problem, config, 0)
    assert len(report.evaluations) == 3
    assert report.events == ["evaluation failed at step 0: simulator crashed"]


def test_result_that_is_not_a_number_returns_partial_report():
    calls = {"n": 0}

    def none_on_call_7(x):
        calls["n"] += 1
        return (None if calls["n"] == 7 else float(x[0])), 1.0

    problem = Problem(UNIT_SQUARE, 0.995, none_on_call_7)
    report = run_cbo(problem, CboConfig(n_init=5, n_steps=10, pool_size=100), 0)
    assert not report.complete
    assert len(report.evaluations) == 6
    assert len(report.events) == 1
    assert report.events[0].startswith("evaluation failed at step 2: float() argument must be")


def test_config_validation_lists_problems():
    with pytest.raises(ValueError, match="n_init"):
        CboConfig(n_init=1)
    with pytest.raises(ValueError, match="pool_size"):
        CboConfig(pool_size=0)


@pytest.mark.skipif(
    not openblas_threads(), reason="no loaded OpenBLAS exposes openblas_get_num_threads"
)
def test_direct_run_fits_at_one_blas_thread_and_gives_the_callers_count_back(monkeypatch):
    import scipy.linalg  # noqa: F401 - scipy's OpenBLAS, as after any earlier fit

    caller = openblas_threads()
    seen = []
    real_fit = cbo.fit_gp

    def recording(train_x, train_y):
        seen.append(openblas_threads())
        return real_fit(train_x, train_y)

    monkeypatch.setattr(cbo, "fit_gp", recording)
    problem = Problem(UNIT_SQUARE, 0.995, bowl)
    report = run_cbo(problem, CboConfig(n_init=4, n_steps=2, pool_size=50), 0)
    assert report.complete
    assert seen == [{path: 1 for path in caller}] * 4
    assert openblas_threads() == caller
