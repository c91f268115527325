import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curebo.ga import GaConfig, run_ga
from curebo.problems import Problem
from curebo.records import Evaluation, RunReport, RunStopped
from curebo.space import DesignSpace
from logs import logged

THRESHOLD = 0.5

# few distinct values, so that ties in f and g == threshold come up often
f_values = st.sampled_from([0.0, 0.25, 1.0, 2.0, -3.0, math.nan, math.inf, -math.inf])
g_values = st.sampled_from([0.0, THRESHOLD, 0.75, math.nan])
logs = st.lists(st.tuples(f_values, g_values), max_size=12)


def _log(pairs):
    return [
        Evaluation(x=np.array([float(i)]), f=f, g=g, step_index=i, acq=None)
        for i, (f, g) in enumerate(pairs)
    ]


def _best(pairs):
    """The index of the incumbent after each pair is logged."""
    report, best = RunReport(THRESHOLD), []
    for e in _log(pairs):
        report.log(e)
        best.append(None if report.incumbent is None else report.incumbent.step_index)
    return best


def reference_running_best(pairs, threshold):
    """Plain loop: after each evaluation, the earliest of the feasible
    evaluations so far (g >= threshold and a finite f) with the smallest f."""
    out = []
    for n in range(1, len(pairs) + 1):
        feasible = [i for i in range(n) if pairs[i][1] >= threshold and math.isfinite(pairs[i][0])]
        if not feasible:
            out.append(None)
            continue
        smallest = min(pairs[i][0] for i in feasible)
        out.append(next(i for i in feasible if pairs[i][0] == smallest))
    return out


@settings(max_examples=300, deadline=None)
@given(logs)
def test_log_matches_plain_loop(pairs):
    evaluations = _log(pairs)
    expected = reference_running_best(pairs, THRESHOLD)
    report = RunReport(THRESHOLD)
    for n, e in enumerate(evaluations, start=1):
        report.log(e)
        last = expected[n - 1]
        assert report.incumbent is (None if last is None else evaluations[last])
        assert report.best_feasible == [None if i is None else pairs[i][0] for i in expected[:n]]
    assert report.evaluations == evaluations


def test_phase_follows_step_index():
    assert [e.phase for e in _log([(1.0, 1.0)] * 3)] == ["init", "learn", "learn"]


def test_evaluation_is_immutable_and_built_by_position_or_keyword():
    x = np.array([0.25, 0.5])
    by_position = Evaluation(x, 1.5, 0.75, 3, 0.125)
    by_keyword = Evaluation(x=x, f=1.5, g=0.75, step_index=3, acq=0.125)
    for e in (by_position, by_keyword):
        assert e.x is x and (e.f, e.g, e.step_index, e.acq) == (1.5, 0.75, 3, 0.125)
    for name in Evaluation._fields + ("phase", "extra"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)


def test_rule_examples():
    # ties go to the earliest; g == threshold is feasible; NaN g never is
    pairs = [(1.0, 0.0), (1.0, math.nan), (2.0, THRESHOLD), (1.0, 0.75), (1.0, 1.0), (0.5, math.nan)]
    assert _best(pairs) == [None, None, 2, 3, 3, 3]
    assert _best([(1.0, 0.0), (0.0, math.nan)]) == [None, None]
    empty = RunReport(THRESHOLD)
    assert empty.evaluations == empty.best_feasible == empty.events == []
    assert empty.incumbent is None and not empty.complete


def test_non_finite_objective_is_never_feasible():
    # a feasible NaN f must not become the incumbent that no later f can beat
    assert _best([(math.nan, 1.0), (0.5, 1.0)]) == [None, 1]
    infinite = [(-math.inf, 1.0), (math.inf, 1.0), (2.0, 1.0)]
    assert _best(infinite) == [None, None, 2]
    after = [(1.0, 1.0), (math.nan, 1.0), (-math.inf, 0.75)]
    assert _best(after) == [0, 0, 0]


@pytest.mark.parametrize("f, g", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, math.nan)])
def test_a_non_finite_result_adds_exactly_one_event(f, g):
    report = logged(_log([(1.0, 1.0), (f, g), (2.0, 0.0)]), THRESHOLD)
    assert report.events == [f"non-finite result at step 1: f={f!r}, g={g!r}"]
    assert len(report.evaluations) == len(report.best_feasible) == 3


def test_ga_trace_ends_at_its_incumbent_when_constraint_is_nan():
    def half_nan(x):
        # the cheap half of the box has no defined constraint value
        return float(x[0]), math.nan if x[0] < 0.5 else 1.0

    problem = Problem(DesignSpace(lower=[0.0, 0.0], upper=[1.0, 1.0]), 0.5, half_nan)
    report = run_ga(problem, GaConfig(pop_size=10, generations=3), 4)
    assert report.incumbent is not None and report.incumbent.f >= 0.5
    assert report.best_feasible[-1] == report.incumbent.f
    assert all(v is None or v >= 0.5 for v in report.best_feasible)


def square(x):
    return float(x[0]) ** 2, 1.0


def test_a_run_body_that_returns_completes_the_report():
    with RunReport(THRESHOLD) as report:
        report.evaluate(square, np.array([0.5]), 0)
    assert report.complete and report.events == []
    assert report.best_feasible == [0.25]


def test_a_stopped_run_keeps_its_log_and_ends_its_events_with_the_stop():
    with RunReport(THRESHOLD) as report:
        report.evaluate(square, np.array([0.5]), 0)
        report.evaluate(square, np.array([math.nan]), 1)
        raise RunStopped("step 2: sieve emptied the pool, stopping early")
    assert not report.complete
    assert [e.step_index for e in report.evaluations] == [0, 1]
    assert report.events == [
        "non-finite result at step 1: f=nan, g=1.0",
        "step 2: sieve emptied the pool, stopping early",
    ]


def test_any_other_exception_leaves_the_run():
    report = RunReport(THRESHOLD)
    with pytest.raises(KeyError):
        with report:
            report.evaluate(square, np.array([0.5]), 0)
            raise KeyError("not a stop")
    assert not report.complete and report.events == []
    assert len(report.evaluations) == 1


def test_evaluate_returns_the_evaluation_it_logged():
    report = RunReport(THRESHOLD)
    x = np.array([0.5])
    e = report.evaluate(square, x, 3, 0.125)
    assert e is report.evaluations[-1] and report.incumbent is e
    assert e.x is x and (e.f, e.g, e.step_index, e.acq) == (0.25, 1.0, 3, 0.125)
    assert report.evaluate(square, x, 4).acq is None


def raises(x):
    raise ValueError("cycle cannot be assembled")


def _float_error(result):
    """What float() says of the first value of result it rejects."""
    with pytest.raises((TypeError, ValueError)) as error:
        [float(v) for v in result]
    return str(error.value)


@pytest.mark.parametrize("problem, cause", [
    (raises, "cycle cannot be assembled"),
    (lambda x: ("not a number", 1.0), _float_error(("not a number", 1.0))),
    (lambda x: (1.0, None), _float_error((1.0, None))),
])
def test_a_failed_evaluation_stops_the_run_and_logs_nothing(problem, cause):
    with RunReport(THRESHOLD) as report:
        report.evaluate(square, np.array([0.5]), 0)
        report.evaluate(problem, np.array([0.5]), 7)
    assert not report.complete and len(report.evaluations) == len(report.best_feasible) == 1
    assert report.events == [f"evaluation failed at step 7: {cause}"]
