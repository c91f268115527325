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
from curebo.records import RunReport, RunStopped
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
    with pytest.raises(RunStopped) as stop:
        RunReport(problem.threshold).evaluate(problem, np.array([0.0, 1.0]), 0)
    assert str(stop.value) == (
        "evaluation failed at step 0: cycle reaches -260 C; "
        "the viscosity law needs it above -257.451 C"
    )


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


def _rows_as_called(problem, points):
    """f and g of problem(x) at each row x of points, as two columns."""
    return np.array([problem(x) for x in points]).reshape(-1, 2).T


@pytest.mark.parametrize(
    "problem, n",
    [(analytical_problem(), 3000), (two_point_problem(), 4), (four_point_problem(), 4)],
    ids=["analytical", "sim2pt", "sim4pt"],
)
def test_evaluate_rows_gives_the_bits_of_a_call_per_row(problem, n):
    points = np.random.default_rng(5).random((n, problem.space.dims))
    points[:2] = [[0.0] * problem.space.dims, [1.0] * problem.space.dims]  # the box's corners
    f, g = problem.evaluate_rows(problem.space.denormalize(points))
    want_f, want_g = _rows_as_called(problem, points)
    assert f.tobytes() == want_f.tobytes() and g.tobytes() == want_g.tobytes()
    f, g = problem.evaluate_rows(np.empty((0, problem.space.dims)))  # a slab the sieve emptied
    assert f.shape == g.shape == (0,)


def test_evaluate_rows_raises_the_call_error_of_the_first_row_outside_the_unit_square():
    problem = analytical_problem()
    rows = np.array([[0.5, 0.5], [0.2, -1e-300], [1.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError) as first:
        problem(rows[1])
    with pytest.raises(ValueError) as err:
        problem.evaluate_rows(rows)
    assert str(err.value) == str(first.value) == "(t, T) = (0.2, -1e-300) outside the unit square"
