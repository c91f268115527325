from dataclasses import replace

import numpy as np
import pytest

from curebo.problems import blackbox
from curebo.problems import (
    InfeasibleCycleError,
    analytical_problem,
    four_point_problem,
    two_point_problem,
)
from curebo.records import evaluate
from curebo.space import DesignSpace


def test_two_point_spaces():
    r1 = two_point_problem(t1_min=1.0)
    assert list(r1.space.lower) == [1.0, 125.0]
    assert list(r1.space.upper) == [110.0, 180.0]
    assert r1.space.names == ("t1", "T1")
    assert r1.threshold == 0.995


def test_four_point_space_and_sieve():
    problem = four_point_problem()
    assert list(problem.space.lower) == [10.0, 125.0, 120.0, 150.0]
    assert list(problem.space.upper) == [110.0, 180.0, 200.0, 180.0]
    assert problem.threshold == 0.96
    # first ramp 2 C/min, second 0.25 C/min: passes the slope sieve
    assert problem.sieve_raw(np.array([60.0, 140.0, 140.0, 160.0]))
    # second ramp steeper than the first: sieved out
    assert not problem.sieve_raw(np.array([100.0, 130.0, 120.0, 180.0]))
    strict = four_point_problem(require_rising_second_ramp=True)
    # flat-to-falling second segment rejected only in the strict variant
    falling = np.array([30.0, 170.0, 150.0, 150.0])
    assert problem.sieve_raw(falling)
    assert not strict.sieve_raw(falling)


def test_unassemblable_cycle_raises():
    problem = two_point_problem()
    # raw point outside the design box: control point after the dwell anchor
    with pytest.raises(InfeasibleCycleError):
        problem.raw_fn([130.0, 150.0])


def test_four_point_problem_evaluates_a_box_point_just_under_the_dwell_temperature():
    problem = four_point_problem(dt=0.5)
    x = np.array([0.4, 0.5, 0.3, 1.0 - 6e-11])  # T2 = 180 - 1.8e-9 C
    f, g = problem(x)
    assert np.isfinite(f) and 0.9 < g <= 1.0


def test_simulator_problem_end_to_end_matches_direct_simulation():
    from curebo.problems import MechanicalParams, KineticParams, simulate_cure, two_point_cycle

    problem = two_point_problem(dt=0.2)
    x = problem.space.normalize(np.array([45.0, 150.0]))
    f, g = problem(x)
    trace = simulate_cure(two_point_cycle(45.0, 150.0), KineticParams(), MechanicalParams(), dt=0.2)
    assert f == trace.u_proxy
    assert g == trace.final_doc


def test_analytical_problem_is_identity_normalized():
    problem = analytical_problem()
    f0, g0 = problem(np.array([0.0, 0.0]))
    assert (f0, g0) == (pytest.approx(1.8646), pytest.approx(0.9902))


def test_a_cycle_too_cold_to_simulate_is_a_failed_evaluation():
    problem = replace(
        two_point_problem(dt=0.5),
        space=DesignSpace(lower=[60.0, -300.0], upper=[61.0, -260.0], names=("t1", "T1")),
    )
    evaluations, events = [], []
    assert evaluate(problem, np.array([0.0, 1.0]), 0, None, evaluations, events) is None
    assert evaluations == []
    assert events == [
        "evaluation failed at step 0: cycle reaches -260 C; "
        "the viscosity law needs it above -257.451 C"
    ]


def test_simulator_problems_simulate_through_the_module_global(monkeypatch):
    # a tracer that wraps blackbox.simulate_cure sees every evaluation
    calls, simulate_cure = [], blackbox.simulate_cure

    def counting(*args):
        calls.append(args)
        return simulate_cure(*args)

    monkeypatch.setattr(blackbox, "simulate_cure", counting)
    two_point_problem(dt=1.0)(np.array([0.5, 0.5]))
    four_point_problem(dt=1.0)(np.array([0.5, 0.5, 0.5, 0.5]))
    assert len(calls) == 2
