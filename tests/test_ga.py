import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from curebo.ga import (
    GaConfig,
    _rank_key,
    _tournament,
    polynomial_mutation,
    run_ga,
    sbx_pair,
)
from curebo.problems import Problem, analytical_problem
from curebo.records import Evaluation
from curebo.space import DesignSpace
from curebo.study import RunConfig, summarize
from logs import logged

THRESHOLD = 1.0
UNIT_SQUARE = DesignSpace(lower=[0.0, 0.0], upper=[1.0, 1.0])


def _ev(f, g):
    return Evaluation(x=np.zeros(2), f=f, g=g, step_index=0, acq=None)


def _before(a, b, threshold=THRESHOLD):
    return _rank_key(a, threshold) < _rank_key(b, threshold)


def test_constraint_domination_rules():
    assert _before(_ev(5.0, 1.0), _ev(1.0, 0.7))  # feasible beats infeasible
    assert _before(_ev(9.0, 0.99), _ev(1.0, 0.98))  # smaller violation
    assert _before(_ev(2.0, 1.0), _ev(3.0, 1.0))  # smaller f
    assert not _before(_ev(3.0, 1.0), _ev(2.0, 1.0))
    same = _ev(2.0, 1.0)
    assert not _before(same, same)  # no strict domination


def test_nan_constraint_value_is_infinitely_violating():
    far, unknown = _ev(1.0, 0.1), _ev(0.0, float("nan"))
    assert _rank_key(_ev(3.0, 0.95), 0.9) == (0, 3.0)
    assert _rank_key(_ev(3.0, 0.5), 0.9) == (1, pytest.approx(0.4))
    assert _rank_key(unknown, 0.9) == (1, math.inf)
    assert _before(far, unknown, 0.9)
    assert not _before(unknown, far, 0.9)
    ranked = sorted([unknown, far, _ev(5.0, 0.95)], key=lambda e: _rank_key(e, 0.9))
    assert [e.f for e in ranked] == [5.0, 1.0, 0.0]


@st.composite
def ranked_logs(draw):
    """A finite threshold and (f, g) pairs whose g is often the threshold
    itself, NaN or infinite, and whose f and violations often tie."""
    t = draw(st.sampled_from([0.0, 0.5, 0.995, -1.0]) | st.floats(-2.0, 2.0))
    g = st.sampled_from([t, t - 0.25, t + 0.25, math.nan, math.inf, -math.inf]) | st.floats(-3.0, 3.0)
    f = st.sampled_from([0.0, 0.25, 1.0, -3.0, math.nan, math.inf, -math.inf])
    return t, draw(st.lists(st.tuples(f, g), max_size=10))


@settings(max_examples=300, deadline=None)
@given(ranked_logs())
def test_rank_key_uses_the_running_best_feasibility_rule(log):
    t, pairs = log
    evaluations = [_ev(f, g) for f, g in pairs]
    feasible = [i for i, e in enumerate(evaluations) if logged([e], t).incumbent is e]
    assert feasible == [i for i, e in enumerate(evaluations) if _rank_key(e, t)[0] == 0]
    assert feasible == [i for i, (f, g) in enumerate(pairs) if g >= t and math.isfinite(f)]

    # feasible by f, then infeasible by t - g, each stable on ties; a NaN g
    # and a non-finite f with g >= t count as infinitely violating
    infeasible = [i for i in range(len(pairs)) if i not in feasible]
    violation = [math.inf if math.isnan(g) or g >= t else t - g for _, g in pairs]
    expected = sorted(feasible, key=lambda i: pairs[i][0])
    expected += sorted(infeasible, key=lambda i: violation[i])
    order = sorted(range(len(pairs)), key=lambda i: _rank_key(evaluations[i], t))
    assert order == expected
    incumbent = logged(evaluations, t).incumbent
    assert incumbent is (evaluations[order[0]] if feasible else None)


def test_ga_stops_breeding_from_points_without_a_constraint_value():
    def half_nan(x):
        # the cheap half of the box has no defined constraint value
        return float(x[0]), math.nan if x[0] < 0.5 else 1.0

    problem = Problem(UNIT_SQUARE, 0.5, half_nan)
    report = run_ga(problem, GaConfig(pop_size=10, generations=5), 0)
    last = [e for e in report.evaluations if e.step_index == 5]
    # NaN-g points rank below every finite g, so the population leaves the cheap half
    assert sum(math.isnan(e.g) for e in last) < len(last) // 2


def test_non_finite_objective_ranks_below_every_finite_violation():
    nan_f, inf_f, far = _ev(math.nan, 0.95), _ev(-math.inf, 0.95), _ev(1.0, 0.1)
    assert _rank_key(nan_f, 0.9) == _rank_key(inf_f, 0.9) == (1, math.inf)
    ranked = sorted([nan_f, far, _ev(5.0, 0.95)], key=lambda e: _rank_key(e, 0.9))
    assert ranked[0].f == 5.0 and ranked[1] is far


@pytest.mark.parametrize("seed", [0, 1])
def test_ga_incumbent_and_population_avoid_a_nan_objective(seed):
    def nan_where_cheap(x):
        # the cheap part of the box has no defined objective value
        return (math.nan if x[0] < 0.7 else float(x[0])), 1.0

    problem = Problem(UNIT_SQUARE, 0.5, nan_where_cheap)
    report = run_ga(problem, GaConfig(pop_size=10, generations=5), seed)
    assert report.incumbent is not None and 0.7 <= report.incumbent.f <= 1.0
    assert all(v is None or math.isfinite(v) for v in report.best_feasible)
    last = [e for e in report.evaluations if e.step_index == 5]
    assert sum(math.isnan(e.f) for e in last) < len(last) // 2


def test_non_finite_results_are_events():
    def nan_where_cheap(x):
        return (math.nan if x[0] < 0.3 else float(x[0])), 1.0

    problem = Problem(UNIT_SQUARE, 0.5, nan_where_cheap)
    report = run_ga(problem, GaConfig(pop_size=10, generations=3), 0)
    expected = [
        f"non-finite result at step {e.step_index}: f=nan, g=1.0"
        for e in report.evaluations
        if math.isnan(e.f)
    ]
    assert expected and report.events == expected


class _FixedPicks:
    """rng stub whose integer draws are scripted."""

    def __init__(self, picks):
        self.picks = list(picks)

    def integers(self, lo, hi, size):
        return np.array(self.picks[:size])


def test_tournament_feasible_beats_infeasible_whenever_drawn():
    feasible, infeasible = _ev(5.0, 1.0), _ev(1.0, 0.6)
    pop = [infeasible, feasible]
    # feasible (f=5) beats infeasible (f=1) regardless of draw order
    assert _tournament(pop, _FixedPicks([0, 1]), THRESHOLD) is feasible
    assert _tournament(pop, _FixedPicks([1, 0]), THRESHOLD) is feasible
    assert _tournament(pop, _FixedPicks([0, 0]), THRESHOLD) is infeasible  # never drawn
    better = _ev(2.0, 1.0)
    assert _tournament([feasible, better], _FixedPicks([0, 1]), THRESHOLD) is better
    closer = _ev(9.0, 0.9)
    assert _tournament([infeasible, closer], _FixedPicks([0, 1]), THRESHOLD) is closer


def test_operators_respect_unit_box():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x1, x2 = rng.random(3), rng.random(3)
        c1, c2 = sbx_pair(x1, x2, rng.random(3), 15.0)
        m = polynomial_mutation(c1, rng.random(3), rng.random(3) < 0.5, 20.0)
        for v in (c1, c2, m):
            assert np.all(v >= 0.0) and np.all(v <= 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda d: st.tuples(*[arrays(np.float64, d, elements=st.floats(0.0, 1.0))] * 2)
    )
)
@example((np.array([0.0, 1.0, 5e-324, 2.2250738585072009e-308]),
          np.array([1.0, 0.0, 1.0, 5e-324])))
def test_sbx_at_u_one_half_returns_both_parents_bit_for_bit(pair):
    # _breed runs SBX on every pair and leaves u = 0.5 (beta 1) for a pair
    # that does not cross, so its children are its parents
    x1, x2 = pair
    c1, c2 = sbx_pair(x1, x2, np.full(x1.shape, 0.5), 15.0)
    assert c1.tobytes() == x1.tobytes() and c2.tobytes() == x2.tobytes()


def _ridge4(x):
    a, b, c, d = (float(v) for v in x)
    return (a - 0.3) ** 2 + (b - 0.6) ** 2 + c * d, a + b - c * d


def _golden_runs():
    """An analytical run and a 4-d run. In the 4-d run one of the 12 pairs
    does not cross and 31 genes mutate, so both the pass-through and the
    mutation path reach the recorded genes."""
    problem = analytical_problem()
    yield "analytical pop10 gen3 seed0", run_ga(problem, GaConfig(pop_size=10, generations=3), 0)
    ridge4 = Problem(DesignSpace(lower=[0.0] * 4, upper=[1.0] * 4), 0.8, _ridge4)
    yield "ridge4 pop6 gen4 seed0", run_ga(ridge4, GaConfig(pop_size=6, generations=4), 0)


def _golden_snapshot(report):
    return [
        {"x": [float(v).hex() for v in e.x], "f": e.f.hex(), "g": e.g.hex()}
        for e in report.evaluations
    ]


def test_runs_are_bit_identical_to_recorded_values():
    # Recorded with Python 3.11 / numpy 2.4.6 on an AVX512 x86-64 host; the
    # same bits come out with NPY_DISABLE_CPU_FEATURES=X86_V4, since the SBX
    # and mutation powers go through libm's pow, not numpy's SIMD **. A
    # speedup of the breeding loop must keep every bit of these genes; taking
    # the powers with numpy's array ** changes them on such a host, and so
    # does any reordering of a pair's random draws.
    golden = json.loads((Path(__file__).parent / "ga_golden.json").read_text())
    got = {name: _golden_snapshot(report) for name, report in _golden_runs()}
    assert list(got) == list(golden)
    assert [name for name in got if got[name] != golden[name]] == []


def test_evaluation_count_pop100_gen10():
    problem = analytical_problem()
    report = run_ga(problem, GaConfig(pop_size=100, generations=10), 0)
    assert len(report.evaluations) == 1100  # 100 init + 10 x 100 offspring
    assert 1000 <= len(report.evaluations) <= 1100
    assert len(report.best_feasible) == 1100
    # the GA's step axis counts every evaluation, initialization included
    study = RunConfig(problem="analytical", optimizer="ga", replications=1, seed=0, output_dir="-")
    assert summarize(study, "ga", [report.best_feasible]).step_index == list(range(1, 1101))


def test_run_is_deterministic_and_genes_bounded():
    problem = analytical_problem()
    config = GaConfig(pop_size=12, generations=4)
    a = run_ga(problem, config, 21)
    b = run_ga(problem, config, 21)
    for ea, eb in zip(a.evaluations, b.evaluations):
        assert np.array_equal(ea.x, eb.x) and ea.f == eb.f
    for e in a.evaluations:
        assert np.all(e.x >= 0.0) and np.all(e.x <= 1.0)


def test_best_feasible_monotone_and_incumbent_feasible():
    problem = analytical_problem()
    report = run_ga(problem, GaConfig(pop_size=20, generations=5), 3)
    values = [v for v in report.best_feasible if v is not None]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert report.incumbent is not None
    f, g = problem(report.incumbent.x)
    assert g >= report.threshold and f == report.incumbent.f


def test_elitism_generation_best_never_regresses():
    problem = analytical_problem()
    report = run_ga(problem, GaConfig(pop_size=16, generations=6), 5)
    # best feasible seen through the end of each generation is non-increasing
    per_generation = []
    best = None
    current_gen = 0
    for e in report.evaluations:
        if e.step_index != current_gen:
            per_generation.append(best)
            current_gen = e.step_index
        if e.g >= report.threshold and (best is None or e.f < best):
            best = e.f
    per_generation.append(best)
    seen = [v for v in per_generation if v is not None]
    assert all(b <= a for a, b in zip(seen, seen[1:]))


def test_failing_problem_returns_partial_report():
    # 15 calls end in generation 1, 4 in the initial population (step 0)
    for good_calls, step in ((15, 1), (4, 0)):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] > good_calls:
                raise RuntimeError("boom")
            return float(x[0]), 1.0

        problem = Problem(UNIT_SQUARE, 0.995, flaky)
        report = run_ga(problem, GaConfig(pop_size=10, generations=3), 0)
        assert not report.complete
        assert len(report.evaluations) == good_calls
        assert report.events == [f"evaluation failed at step {step}: boom"]


def test_result_that_is_not_a_number_returns_partial_report():
    calls = {"n": 0}

    def none_on_call_15(x):
        calls["n"] += 1
        return (None if calls["n"] == 15 else float(x[0])), 1.0

    problem = Problem(UNIT_SQUARE, 0.995, none_on_call_15)
    report = run_ga(problem, GaConfig(pop_size=10, generations=3), 0)
    assert not report.complete
    assert len(report.evaluations) == 14
    assert len(report.events) == 1
    assert report.events[0].startswith("evaluation failed at step 1: float() argument must be")


def test_config_validation():
    with pytest.raises(ValueError, match="even"):
        GaConfig(pop_size=7)
    with pytest.raises(ValueError, match="generations"):
        GaConfig(generations=0)
