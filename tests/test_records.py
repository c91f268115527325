import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curebo.ga import GaConfig, run_ga
from curebo.records import Evaluation, RunReport, running_best
from curebo.space import DesignSpace

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


def _report(evaluations, trace_from=0):
    return RunReport(evaluations, THRESHOLD, trace_from, wall_time=0.0)


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
@given(logs, st.integers(0, 14))
def test_running_best_matches_plain_loop(pairs, trace_from):
    evaluations = _log(pairs)
    expected = reference_running_best(pairs, THRESHOLD)
    assert running_best(evaluations, THRESHOLD) == expected

    report = _report(evaluations, trace_from)
    assert report.best == expected
    last = expected[-1] if expected else None
    assert report.incumbent is (None if last is None else evaluations[last])
    assert report.best_trace == [None if i is None else pairs[i][0] for i in expected[trace_from:]]


def test_phase_follows_step_index():
    assert [e.phase for e in _log([(1.0, 1.0)] * 3)] == ["init", "learn", "learn"]


def test_rule_examples():
    # ties go to the earliest; g == threshold is feasible; NaN g never is
    pairs = [(1.0, 0.0), (1.0, math.nan), (2.0, THRESHOLD), (1.0, 0.75), (1.0, 1.0), (0.5, math.nan)]
    assert running_best(_log(pairs), THRESHOLD) == [None, None, 2, 3, 3, 3]
    assert running_best(_log([(1.0, 0.0), (0.0, math.nan)]), THRESHOLD) == [None, None]
    assert running_best([], THRESHOLD) == []


def test_non_finite_objective_is_never_feasible():
    # a feasible NaN f must not become the incumbent that no later f can beat
    assert running_best(_log([(math.nan, 1.0), (0.5, 1.0)]), THRESHOLD) == [None, 1]
    infinite = [(-math.inf, 1.0), (math.inf, 1.0), (2.0, 1.0)]
    assert running_best(_log(infinite), THRESHOLD) == [None, None, 2]
    after = [(1.0, 1.0), (math.nan, 1.0), (-math.inf, 0.75)]
    assert running_best(_log(after), THRESHOLD) == [0, 0, 0]


def test_ga_trace_ends_at_its_incumbent_when_constraint_is_nan():
    def half_nan(x):
        # the cheap half of the box has no defined constraint value
        return float(x[0]), math.nan if x[0] < 0.5 else 1.0

    space = DesignSpace(lower=[0.0, 0.0], upper=[1.0, 1.0])
    report = run_ga(half_nan, space, GaConfig(pop_size=10, generations=3, threshold=0.5, seed=4))
    assert report.incumbent is not None and report.incumbent.f >= 0.5
    assert report.best_trace[-1] == report.incumbent.f
    assert all(v is None or v >= 0.5 for v in report.best_trace)
