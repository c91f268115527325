import inspect

import numpy as np
import pytest

from curebo.problems import (
    CureCycle,
    InfeasibleCycleError,
    baseline_cycle,
    build_cycle,
    four_point_cycle,
    two_point_cycle,
)
from curebo.problems.cycle import BUILDERS, cycle_parameters


def test_baseline_ramp_dwell_and_cooldown():
    cycle = baseline_cycle()
    assert cycle.temperature(0.0) == 20.0
    assert cycle.temperature(30.0) == pytest.approx(98.0)  # 20 + 2.6 * 30
    ramp_end = (180.0 - 20.0) / 2.6
    assert cycle.temperature(ramp_end) == pytest.approx(180.0)
    # dwell holds 180 C for 112 min
    assert cycle.temperature(ramp_end + 50.0) == pytest.approx(180.0)
    assert cycle.temperature(ramp_end + 112.0) == pytest.approx(180.0)
    assert cycle.slope(2) == pytest.approx(-4.846)
    assert cycle.temperature(cycle.duration) == pytest.approx(20.0)
    assert cycle.temperature(cycle.duration + 100.0) == pytest.approx(20.0)  # clamped


def test_two_point_cycle_geometry():
    cycle = two_point_cycle(60.0, 140.0)
    assert cycle.slope(0) == pytest.approx(2.0)  # (140 - 20) / 60
    assert cycle.slope(1) == pytest.approx((180.0 - 140.0) / 60.0)
    assert cycle.temperature(120.0) == pytest.approx(180.0)
    assert cycle.temperature(232.0) == pytest.approx(180.0)  # 112 min dwell
    assert cycle.temperature(cycle.duration) == pytest.approx(20.0)
    # any instant during the dwell reads 180
    for t in np.linspace(120.0, 232.0, 13):
        assert cycle.temperature(t) == pytest.approx(180.0)


def test_four_point_cycle_geometry():
    cycle = four_point_cycle(40.0, 150.0, 150.0, 160.0)
    ramp_start = 150.0 + (180.0 - 160.0) / 2.6
    assert cycle.temperature(150.0) == pytest.approx(160.0)
    assert cycle.temperature(ramp_start) == pytest.approx(180.0)
    assert cycle.temperature(ramp_start + 60.0) == pytest.approx(180.0)  # 60 min dwell
    assert cycle.temperature(cycle.duration) == pytest.approx(20.0)


def test_four_point_skips_zero_length_ramp_at_dwell_temperature():
    # just under 180 C (the top of sim4pt's T2 range at x = 1 - 6e-11) the
    # ramp lasts 6.9e-10 min and climbs 1.8e-9 C: one point, not a jump
    for T2 in (180.0, 150.0 + (1.0 - 6e-11) * 30.0):
        cycle = four_point_cycle(40.0, 150.0, 150.0, T2)
        assert np.all(np.diff(cycle.times) > 0)
        assert cycle.temperature(150.0) == pytest.approx(180.0)
        assert cycle.temperature(210.0) == pytest.approx(180.0)


def test_non_increasing_times_rejected():
    with pytest.raises(InfeasibleCycleError):
        two_point_cycle(130.0, 150.0)  # control point after the dwell anchor
    with pytest.raises(InfeasibleCycleError, match="temperature jump at t=0.0"):
        two_point_cycle(0.0, 150.0)  # control point on the start vertex
    with pytest.raises(InfeasibleCycleError):
        CureCycle(vertices=((0.0, 20.0), (10.0, 100.0), (10.0, 150.0)))
    with pytest.raises(InfeasibleCycleError):
        CureCycle(vertices=((5.0, 20.0), (10.0, 100.0)))  # must start at zero


def test_build_cycle_dispatch():
    assert build_cycle("baseline").duration == pytest.approx(baseline_cycle().duration)
    assert build_cycle("two-point", (60.0, 140.0)).slope(0) == pytest.approx(2.0)
    assert build_cycle("four-point", (40.0, 150.0, 150.0, 160.0)).duration > 200.0
    with pytest.raises(ValueError):
        build_cycle("two-point", (60.0,))
    with pytest.raises(ValueError):
        build_cycle("baseline", (1.0,))
    with pytest.raises(ValueError):
        build_cycle("spiral", ())


@pytest.mark.parametrize(
    "variant, params, message",
    [
        ("two-point", (60.0,), r"^two-point cycle needs \(t1, T1\)$"),
        ("four-point", (40.0, 150.0), r"^four-point cycle needs \(t1, T1, t2, T2\)$"),
        ("baseline", (1.0,), r"^baseline cycle takes no control-point parameters$"),
    ],
)
def test_build_cycle_names_the_parameters_of_the_variant_builder(variant, params, message):
    assert cycle_parameters(variant) == tuple(inspect.signature(BUILDERS[variant]).parameters)
    with pytest.raises(ValueError, match=message):
        build_cycle(variant, params)


def test_a_variant_is_its_builder(monkeypatch):
    def late_start_cycle(t_hold, T_hold):
        return two_point_cycle(t_hold, T_hold)

    monkeypatch.setitem(BUILDERS, "late-start", late_start_cycle)
    assert cycle_parameters("late-start") == ("t_hold", "T_hold")
    assert build_cycle("late-start", (60, 140)) == two_point_cycle(60.0, 140.0)
    with pytest.raises(ValueError, match=r"^late-start cycle needs \(t_hold, T_hold\)$"):
        build_cycle("late-start", (60.0, 140.0, 1.0))
