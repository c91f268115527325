"""Piecewise-linear cure cycles built from movable control points.

All cycles start at (0, 20 C), heat to the 180 C dwell, hold, and cool back
down at a fixed rate. The two-point variant is controlled by one point
A = (t1, T1) on the heating path with the dwell anchored at 120 min; the
four-point variant adds B = (t2, T2) and ramps from B to the dwell at the
baseline heating rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

START_TEMP_C = 20.0
DWELL_TEMP_C = 180.0
BASE_RAMP_RATE = 2.6  # deg C / min
COOL_RATE = 4.846  # deg C / min
BASELINE_DWELL_MIN = 112.0
TWO_POINT_DWELL_START_MIN = 120.0
TWO_POINT_DWELL_MIN = 112.0
FOUR_POINT_DWELL_MIN = 60.0

_TIME_EPS = 1e-9  # min
# deg C; a ramp at BASE_RAMP_RATE climbs 2.6e-9 C within _TIME_EPS, so two
# vertices that close in time are one point when this close in temperature
_TEMP_EPS = 1e-6


class InfeasibleCycleError(ValueError):
    """Assembled cycle has non-increasing vertex times."""


@dataclass(frozen=True)
class CureCycle:
    """Ordered (time min, temperature C) vertices, linearly interpolated."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        times = [v[0] for v in self.vertices]
        if len(times) < 2:
            raise InfeasibleCycleError("cycle needs at least two vertices")
        if abs(times[0]) > _TIME_EPS:
            raise InfeasibleCycleError("cycle must start at time zero")
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise InfeasibleCycleError(f"vertex times not strictly increasing at t={b}")

    @property
    def times(self) -> np.ndarray:
        return np.array([v[0] for v in self.vertices])

    @property
    def temps(self) -> np.ndarray:
        return np.array([v[1] for v in self.vertices])

    @property
    def duration(self) -> float:
        return self.vertices[-1][0]

    def temperature(self, t) -> np.ndarray:
        """Temperature at time t (minutes); clamped outside [0, duration]."""
        return np.interp(t, self.times, self.temps)

    def slope(self, segment: int) -> float:
        """Heating/cooling rate of segment index (0-based), deg C per minute."""
        (t0, y0), (t1, y1) = self.vertices[segment], self.vertices[segment + 1]
        return (y1 - y0) / (t1 - t0)


def _assemble(vertices) -> CureCycle:
    cleaned = []
    for t, temp in vertices:
        if cleaned and abs(t - cleaned[-1][0]) <= _TIME_EPS:
            if abs(temp - cleaned[-1][1]) <= _TEMP_EPS:
                continue  # drop zero-length segment
            raise InfeasibleCycleError(f"temperature jump at t={t}")
        cleaned.append((float(t), float(temp)))
    return CureCycle(vertices=tuple(cleaned))


def baseline_cycle() -> CureCycle:
    """Fixed reference cycle: 2.6 C/min ramp, 112 min dwell at 180 C, cool."""
    t_ramp = (DWELL_TEMP_C - START_TEMP_C) / BASE_RAMP_RATE
    t_dwell_end = t_ramp + BASELINE_DWELL_MIN
    t_end = t_dwell_end + (DWELL_TEMP_C - START_TEMP_C) / COOL_RATE
    return _assemble(
        [
            (0.0, START_TEMP_C),
            (t_ramp, DWELL_TEMP_C),
            (t_dwell_end, DWELL_TEMP_C),
            (t_end, START_TEMP_C),
        ]
    )


def two_point_cycle(t1: float, T1: float) -> CureCycle:
    """Cycle through A = (t1, T1) with the dwell anchored at 120 min."""
    t_dwell_end = TWO_POINT_DWELL_START_MIN + TWO_POINT_DWELL_MIN
    t_end = t_dwell_end + (DWELL_TEMP_C - START_TEMP_C) / COOL_RATE
    return _assemble(
        [
            (0.0, START_TEMP_C),
            (t1, T1),
            (TWO_POINT_DWELL_START_MIN, DWELL_TEMP_C),
            (t_dwell_end, DWELL_TEMP_C),
            (t_end, START_TEMP_C),
        ]
    )


def four_point_cycle(t1: float, T1: float, t2: float, T2: float) -> CureCycle:
    """Cycle through A and B, ramping from B to the dwell at the base rate."""
    t_dwell_start = t2 + (DWELL_TEMP_C - T2) / BASE_RAMP_RATE
    t_dwell_end = t_dwell_start + FOUR_POINT_DWELL_MIN
    t_end = t_dwell_end + (DWELL_TEMP_C - START_TEMP_C) / COOL_RATE
    return _assemble(
        [
            (0.0, START_TEMP_C),
            (t1, T1),
            (t2, T2),
            (t_dwell_start, DWELL_TEMP_C),
            (t_dwell_end, DWELL_TEMP_C),
            (t_end, START_TEMP_C),
        ]
    )


def build_cycle(variant: str, params=()) -> CureCycle:
    """Build a cycle by variant name: baseline, two-point, or four-point."""
    params = tuple(float(p) for p in params)
    if variant == "baseline":
        if params:
            raise ValueError("baseline cycle takes no control-point parameters")
        return baseline_cycle()
    if variant == "two-point":
        if len(params) != 2:
            raise ValueError("two-point cycle needs (t1, T1)")
        return two_point_cycle(*params)
    if variant == "four-point":
        if len(params) != 4:
            raise ValueError("four-point cycle needs (t1, T1, t2, T2)")
        return four_point_cycle(*params)
    raise ValueError(f"unknown cycle variant: {variant!r}")
