"""Black-box problem suite: each problem maps normalized design points to an
(objective, degree-of-cure) pair over its own raw-unit design space."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from curebo.problems.analytical import DOC_COEFFS, DOC_THRESHOLD, U_COEFFS, quad_surface
from curebo.problems.cycle import _TIME_EPS, START_TEMP_C, four_point_cycle, two_point_cycle
from curebo.problems.simulate import KineticParams, MechanicalParams, simulate_cure
from curebo.space import DesignSpace


@dataclass(frozen=True)
class Problem:
    """Named black box with its design space and feasibility threshold."""

    name: str
    space: DesignSpace
    threshold: float
    raw_fn: Callable[[np.ndarray], tuple]
    sieve_raw: Optional[Callable[[np.ndarray], np.ndarray]] = None  # see space.sieve

    def __call__(self, x) -> tuple:
        """Evaluate at a normalized design point; a cycle that cannot be
        assembled raises InfeasibleCycleError."""
        return self.raw_fn(self.space.denormalize(x))


def analytical_problem(threshold: float = DOC_THRESHOLD) -> Problem:
    """Closed-form validation problem on the normalized unit square."""

    def fn(raw):
        t, T = float(raw[0]), float(raw[1])
        if t < 0.0 or t > 1.0 or T < 0.0 or T > 1.0:
            raise ValueError(f"(t, T) = ({t}, {T}) outside the unit square")
        return quad_surface(U_COEFFS, t, T), quad_surface(DOC_COEFFS, t, T)

    return Problem(
        name="analytical",
        space=DesignSpace(lower=[0.0, 0.0], upper=[1.0, 1.0], names=("t", "T")),
        threshold=threshold,
        raw_fn=fn,
    )


def _simulator_problem(name, build, space, threshold, dt, kinetics, mechanical, sieve_raw=None):
    """Problem whose raw point is the arguments of the cycle builder build, in
    order, scored as simulate_cure's (u_proxy, final_doc)."""
    if dt <= 0:
        raise ValueError("dt must be positive")

    # simulate_cure is read from this module at each call, so that a wrapper
    # set here (the benchmark's tracer) sees every evaluation
    def fn(raw):
        trace = simulate_cure(build(*raw), kinetics, mechanical, dt)
        return trace.u_proxy, trace.final_doc

    return Problem(name=name, space=space, threshold=threshold, raw_fn=fn, sieve_raw=sieve_raw)


def two_point_problem(
    t1_min: float = 1.0,
    threshold: float = 0.995,
    dt: float = 0.1,
    kinetics: KineticParams = KineticParams(),
    mechanical: MechanicalParams = MechanicalParams(),
) -> Problem:
    """Simulator problem over one heating control point A = (t1, T1).

    t1_min selects the case family (1 min or 10 min in the shipped configs).
    """
    if t1_min <= _TIME_EPS:  # A would sit on the start vertex at another temperature
        raise ValueError(f"t1_min must be greater than {_TIME_EPS} min")
    space = DesignSpace(lower=[t1_min, 125.0], upper=[110.0, 180.0], names=("t1", "T1"))
    return _simulator_problem("sim2pt", two_point_cycle, space, threshold, dt, kinetics, mechanical)


def four_point_problem(
    threshold: float = 0.96,
    require_rising_second_ramp: bool = False,
    dt: float = 0.1,
    kinetics: KineticParams = KineticParams(),
    mechanical: MechanicalParams = MechanicalParams(),
) -> Problem:
    """Simulator problem over two control points A = (t1, T1), B = (t2, T2).

    Candidate cycles are sieved so the first heating segment is steeper than
    the second; require_rising_second_ramp additionally demands a positive
    second slope.
    """

    def slopes_ok(raw):
        # raw[h] is coordinate h: a scalar for one point, a column for a pool
        s1 = (raw[1] - START_TEMP_C) / raw[0]
        s2 = (raw[3] - raw[1]) / (raw[2] - raw[0])
        ok = s1 > s2
        if require_rising_second_ramp:
            ok &= s2 > 0.0
        return ok

    space = DesignSpace(
        lower=[10.0, 125.0, 120.0, 150.0],
        upper=[110.0, 180.0, 200.0, 180.0],
        names=("t1", "T1", "t2", "T2"),
    )
    return _simulator_problem(
        "sim4pt", four_point_cycle, space, threshold, dt, kinetics, mechanical, slopes_ok
    )


# Config selector name -> factory. A study's problem_options are the factory's
# keyword arguments, checked against the defaults of its parameters.
FACTORIES = {
    "analytical": analytical_problem,
    "sim2pt": two_point_problem,
    "sim4pt": four_point_problem,
}
