import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from curebo.problems import (
    CureCycle,
    IntegrationError,
    KineticParams,
    MechanicalParams,
    baseline_cycle,
    build_cycle,
    chile_modulus,
    cure_rate,
    four_point_cycle,
    glass_transition_c,
    shrinkage_strain,
    simulate_cure,
    two_point_cycle,
    viscosity,
    volumetric_shrinkage,
)
from curebo.problems import simulate
from curebo.problems.simulate import TRACE_COLUMNS
from golden_levels import record_this_level, recorded_at_this_level

KIN = KineticParams()
MECH = MechanicalParams()


def reference_alpha(cycle, t_eval, kin=KIN):
    """Independent adaptive-step integration of the cure rate law."""
    sol = solve_ivp(
        lambda t, a: max(0.0, cure_rate(min(max(a[0], 0.0), 1.0),
                                        float(cycle.temperature(t)) + 273.15, kin)),
        (0.0, float(t_eval[-1])),
        [0.0],
        method="RK45",
        t_eval=t_eval,
        rtol=1e-10,
        atol=1e-12,
    )
    return sol.y[0]


def test_cure_rate_trivial_values():
    assert cure_rate(1.0, 450.0, KIN) == 0.0  # (1 - alpha) factor in both branches
    b3 = KIN.a3 * np.exp(-KIN.e3 / (8.314 * 430.0))
    assert cure_rate(0.5, 430.0, KIN) == pytest.approx(0.5 * b3, rel=1e-12)
    # branch boundary uses the low-alpha law at exactly the switch point
    b1 = KIN.a1 * np.exp(-KIN.e1 / (8.314 * 430.0))
    b2 = KIN.a2 * np.exp(-KIN.e2 / (8.314 * 430.0))
    expected = (b1 + 0.3 * b2) * 0.7 * (KIN.alpha_crit - 0.3)
    assert cure_rate(0.3, 430.0, KIN) == pytest.approx(expected, rel=1e-12)


def test_isothermal_450k_matches_adaptive_oracle():
    isothermal = CureCycle(vertices=((0.0, 450.0 - 273.15), (60.0, 450.0 - 273.15)))
    trace = simulate_cure(isothermal, KIN, MECH, dt=0.05)
    oracle = reference_alpha(isothermal, trace.time_min)
    assert np.max(np.abs(trace.alpha - oracle)) <= 1e-5


def test_baseline_cycle_against_adaptive_oracle():
    cycle = baseline_cycle()
    trace = simulate_cure(cycle, KIN, MECH, dt=0.1)
    oracle = reference_alpha(cycle, np.array([cycle.duration]))
    assert abs(trace.final_doc - oracle[-1]) <= 1e-5


def test_baseline_full_cure_and_step_halving():
    coarse = simulate_cure(baseline_cycle(), KIN, MECH, dt=0.1)
    fine = simulate_cure(baseline_cycle(), KIN, MECH, dt=0.05)
    assert coarse.final_doc >= 0.99
    assert abs(coarse.final_doc - fine.final_doc) <= 1e-5


def test_alpha_monotone_and_bounded():
    for cycle in (baseline_cycle(), two_point_cycle(30.0, 150.0), two_point_cycle(105.0, 127.0)):
        trace = simulate_cure(cycle, KIN, MECH, dt=0.2)
        assert np.all(np.diff(trace.alpha) >= 0.0)
        assert np.all((trace.alpha >= 0.0) & (trace.alpha <= 1.0))
        assert trace.final_doc == trace.alpha[-1]


def test_cold_cycle_never_gels():
    cold = CureCycle(vertices=((0.0, 20.0), (10.0, 21.0)))
    trace = simulate_cure(cold, KIN, MECH, dt=0.1)
    assert trace.alpha[-1] < MECH.alpha_mod_lo
    assert trace.gel_index is None
    assert np.all(trace.modulus == MECH.modulus_liquid)
    assert np.all(trace.vol_shrinkage == 0.0)
    assert np.all(trace.sigma_bar == 0.0)
    assert trace.u_proxy == 0.0


def test_gel_flag_is_the_upward_viscosity_crossing():
    trace = simulate_cure(baseline_cycle(), KIN, MECH, dt=0.1)
    g = trace.gel_index
    assert g is not None
    assert trace.mu[g] >= MECH.gel_viscosity > trace.mu[g - 1]
    # the resin starts thick at room temperature, so the naive first
    # threshold hit would be index 0
    assert trace.mu[0] >= MECH.gel_viscosity
    assert np.all(trace.sigma_bar[: g + 1] == 0.0)


def test_vitrification_when_tg_reaches_temperature():
    trace = simulate_cure(baseline_cycle(), KIN, MECH, dt=0.1)
    v = trace.vitrification_index
    assert v is not None
    assert trace.tg_c[v] >= trace.temp_c[v]
    assert np.all(trace.tg_c[:v] < trace.temp_c[:v])


def test_chile_continuity_and_bounds_over_gamma():
    eps = 1e-9
    span = MECH.alpha_mod_hi - MECH.alpha_mod_lo
    # the blend slope near the knots bounds the one-sided difference
    slope_bound = 3.0 * (MECH.modulus_cured - MECH.modulus_liquid) / span
    alphas = np.linspace(0.0, 1.0, 201)
    for gamma in np.arange(-1.0, 1.0 + 1e-9, 0.1):
        mech = MechanicalParams(gamma=float(gamma))
        # plateau branches equal the blend exactly at the knots
        assert chile_modulus(mech.alpha_mod_lo, mech) == pytest.approx(
            mech.modulus_liquid, rel=1e-12
        )
        assert chile_modulus(mech.alpha_mod_hi, mech) == pytest.approx(
            mech.modulus_cured, rel=1e-12
        )
        for knot in (mech.alpha_mod_lo, mech.alpha_mod_hi):
            at = chile_modulus(knot, mech)
            assert abs(chile_modulus(knot - eps, mech) - at) <= eps * slope_bound
            assert abs(chile_modulus(knot + eps, mech) - at) <= eps * slope_bound
        values = chile_modulus(alphas, mech)
        assert np.all(values >= mech.modulus_liquid - 1e-9)
        assert np.all(values <= mech.modulus_cured + 1e-9)


def test_shrinkage_continuity_and_endpoint_strain():
    eps = 1e-9
    for a_coeff in (None, -0.02, -0.15):
        mech = MechanicalParams(shrink_profile_a=a_coeff)
        for knot in (mech.alpha_shrink_lo, mech.alpha_shrink_hi):
            below = volumetric_shrinkage(knot - eps, mech)
            above = volumetric_shrinkage(knot + eps, mech)
            assert below == pytest.approx(volumetric_shrinkage(knot, mech), abs=1e-7)
            assert above == pytest.approx(volumetric_shrinkage(knot, mech), abs=1e-7)
        assert volumetric_shrinkage(0.0, mech) == 0.0
        assert volumetric_shrinkage(1.0, mech) == pytest.approx(mech.shrink_total, rel=1e-12)
    assert shrinkage_strain(0.0) == 0.0
    assert shrinkage_strain(-0.0873) == pytest.approx(-0.0300, abs=1e-4)


def test_exotherm_diagnostic_proportional_to_rate():
    trace = simulate_cure(baseline_cycle(), KIN, MECH, dt=0.2)
    assert np.all(trace.heat_rate >= 0.0)
    assert np.array_equal(trace.heat_rate == 0.0, trace.rate == 0.0)
    factor = (1.0 - KIN.fiber_volume_fraction) * KIN.resin_density * KIN.heat_of_reaction
    assert np.allclose(trace.heat_rate, trace.rate * factor, rtol=1e-12)


def test_simulation_is_bitwise_deterministic():
    a = simulate_cure(two_point_cycle(45.0, 155.0), KIN, MECH, dt=0.1)
    b = simulate_cure(two_point_cycle(45.0, 155.0), KIN, MECH, dt=0.1)
    for name in ("time_min", "temp_c", "alpha", "mu", "sigma_bar"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.u_proxy == b.u_proxy and a.final_doc == b.final_doc


def test_blowup_raises_integration_error():
    runaway = KineticParams(a1=1e300)
    with pytest.raises(IntegrationError):
        simulate_cure(baseline_cycle(), runaway, MECH, dt=0.5)


@pytest.mark.parametrize("dt", [1e-9, 5e-324])
def test_a_grid_past_the_node_cap_is_rejected_before_any_array(monkeypatch, dt):
    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} reached before the grid's nodes were counted")

    cycle = baseline_cycle()
    monkeypatch.setattr(simulate, "np", NoArrays())
    with pytest.raises(ValueError, match="more than 1000000 nodes on the time grid"):
        simulate_cure(cycle, KIN, MECH, dt=dt)


def test_unstable_step_past_the_branch_switch_raises_integration_error():
    # the low-alpha branch keeps its default constants, so the cure reaches the
    # switch in the step ending at t=53.5980 and the refined substeps of that
    # step stay stable; the next whole step (h * b3 about 15) overshoots
    stiff = KineticParams(a3=1e8)
    with pytest.raises(IntegrationError, match=r"^degree of cure left \[0, 1\] at t=54\.5906 min$"):
        simulate_cure(baseline_cycle(), stiff, MECH, dt=1.0)


# viscosity's exponent visc_u / (R T) + visc_k alpha passes log(DBL_MAX) below
# about -257 C with the default constants; -273.15 C is absolute zero
@pytest.mark.parametrize("temp1", [-260.0, -273.15, -300.0])
def test_a_cycle_too_cold_for_the_viscosity_law_is_rejected(temp1):
    with pytest.raises(ValueError, match=r"the viscosity law needs it above -257\.451 C$"):
        simulate_cure(two_point_cycle(60.0, temp1), KIN, MECH, dt=0.5)


def test_the_cold_bound_is_where_viscosity_overflows():
    bound_k = simulate.coldest_cycle_temp_c(MECH) + simulate.KELVIN_OFFSET
    assert np.isfinite(viscosity(1.0, bound_k * (1.0 + 1e-9), MECH))
    with np.errstate(over="ignore"):
        assert viscosity(1.0, bound_k * (1.0 - 1e-9), MECH) == math.inf
    # the bound follows the constants: ten times visc_u, ten times the kelvins
    stiff = replace(MECH, visc_u=10.0 * MECH.visc_u)
    assert simulate.coldest_cycle_temp_c(stiff) + simulate.KELVIN_OFFSET == pytest.approx(
        10.0 * bound_k, rel=1e-12)
    with pytest.raises(ValueError, match=r"^cycle reaches -150 C; .* above -116\.163 C$"):
        simulate_cure(two_point_cycle(60.0, -150.0), KIN, stiff, dt=0.5)
    # a law without temperature dependence still needs the cycle above absolute zero
    assert simulate.coldest_cycle_temp_c(replace(MECH, visc_u=0.0)) == -simulate.KELVIN_OFFSET
    assert simulate.coldest_cycle_temp_c(replace(MECH, visc_k=710.0)) == math.inf


def test_viscosity_and_tg_models():
    # viscosity falls with temperature and rises with cure
    assert viscosity(0.0, 453.15, MECH) < viscosity(0.0, 293.15, MECH)
    assert viscosity(0.5, 400.0, MECH) > viscosity(0.1, 400.0, MECH)
    assert glass_transition_c(0.0, MECH) == pytest.approx(MECH.tg0_c)
    assert glass_transition_c(1.0, MECH) == pytest.approx(MECH.tg_inf_c)
    mid = glass_transition_c(0.5, MECH)
    assert MECH.tg0_c < mid < MECH.tg_inf_c


def test_trace_csv_schema(tmp_path):
    trace = simulate_cure(baseline_cycle(), KIN, MECH, dt=1.0)
    out = tmp_path / "trace.csv"
    trace.write_csv(out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TRACE_COLUMNS
    assert len(rows) == len(trace.time_min) + 1
    assert float(rows[1][1]) == pytest.approx(20.0)  # starting temperature
    assert float(rows[-1][2]) == pytest.approx(trace.final_doc, rel=1e-10)
    fields = ("time_min", "temp_c", "alpha", "rate", "heat_rate", "mu", "tg_c", "modulus",
              "vol_shrinkage", "shrink_strain", "sigma_bar")
    assert len(fields) == len(TRACE_COLUMNS)
    for j, name in enumerate(fields):  # every cell of every series, in column order
        assert [row[j] for row in rows[1:]] == [format(v, ".12g") for v in getattr(trace, name)]


def test_param_validation():
    with pytest.raises(ValueError):
        KineticParams(alpha_crit=0.2)  # below the branch switch
    with pytest.raises(ValueError):
        KineticParams(fiber_volume_fraction=1.0)
    with pytest.raises(ValueError):
        KineticParams(a3=-1.0)  # the high-alpha rate would be negative
    with pytest.raises(ValueError):
        MechanicalParams(alpha_mod_lo=0.9, alpha_mod_hi=0.3)
    with pytest.raises(ValueError):
        MechanicalParams(gamma=2.0)
    with pytest.raises(ValueError):
        MechanicalParams(modulus_liquid=1e10)


GOLDEN_CYCLES = {
    "baseline": ("baseline", ()),
    "two-point 45 127": ("two-point", (45.0, 127.0)),
    "two-point 20 165": ("two-point", (20.0, 165.0)),
    "four-point 100 175 190 155": ("four-point", (100.0, 175.0, 190.0, 155.0)),
    "four-point 50 135 130 178": ("four-point", (50.0, 135.0, 130.0, 178.0)),
}
GOLDEN_DTS = (0.1, 0.37)
GOLDEN_PATH = Path(__file__).parent / "sim_golden.json"


def golden_snapshot(trace):
    """Scalar outputs and about 20 alpha/sigma_bar nodes as float.hex().

    Half the nodes span the trace; the other half span the second half of the
    climb to the branch switch, where the low-alpha rate law is most sensitive
    to its order of operations, up to the node after the refined step that
    crosses the switch."""
    n = len(trace.alpha)
    cross = int(np.argmax(trace.alpha > KIN.branch_switch))
    spread = np.linspace(0, n - 1, 10).round().astype(int).tolist()
    climb = np.linspace(cross // 2, cross, 10).round().astype(int).tolist()
    nodes = sorted(set(spread + climb + [cross - 1]))
    return {
        "final_doc": trace.final_doc.hex(),
        "u_proxy": trace.u_proxy.hex(),
        "gel_index": trace.gel_index,
        "vitrification_index": trace.vitrification_index,
        "nodes": nodes,
        "alpha": [float(trace.alpha[k]).hex() for k in nodes],
        "sigma_bar": [float(trace.sigma_bar[k]).hex() for k in nodes],
    }


def golden_traces():
    for name, (variant, params) in GOLDEN_CYCLES.items():
        for dt in GOLDEN_DTS:
            yield f"{name} dt={dt}", simulate_cure(build_cycle(variant, params), KIN, MECH, dt=dt)


def test_simulation_is_bit_identical_to_recorded_values():
    # Recorded with Python 3.11 / numpy 2.4.6 on an AVX512 x86-64 host by
    # running this file as a script, at its default level and again with
    # NPY_DISABLE_CPU_FEATURES=X86_V4. The golden fixes the bits of the array
    # Arrhenius factors (numpy's exp kernel, which differs between those
    # levels), of phase one's scalar loop and of phase two's cumulative
    # product: a speedup that keeps that arithmetic keeps every bit, and a
    # change to it is re-recorded once, at every level, on purpose. The
    # simulator makes no BLAS call, so the level is numpy's targets alone.
    recorded = recorded_at_this_level(GOLDEN_PATH, "tests/test_cure_sim.py", blas=False)
    got = {name: golden_snapshot(trace) for name, trace in golden_traces()}
    assert list(got) == list(recorded)
    assert [name for name in got if got[name] != recorded[name]] == []


def _scalar_arrhenius(temps_k, kin):
    scale = ((1.0 / simulate.R_GAS) / np.asarray(temps_k, dtype=float)).tolist()
    return [
        (kin.a1 * math.exp(-kin.e1 * s), math.exp(-kin.e2 * s), kin.a3 * math.exp(-kin.e3 * s))
        for s in scale
    ]


def scalar_alpha(t, temps_k, mid_k, kin):
    """Reference integrator: the two-phase RK4 loop with a scalar step past
    the branch switch, which the cumulative product replaced."""
    switch, crit, a2 = kin.branch_switch, kin.alpha_crit, kin.a2
    steps = np.diff(t).tolist()
    node_f = _scalar_arrhenius(temps_k, kin)
    mid_f = _scalar_arrhenius(mid_k, kin)

    def rate(a, factors):
        b1, e2, b3 = factors
        if a <= switch:
            r = (b1 + a * a2 * e2) * (1.0 - a) * (crit - a)
        else:
            r = b3 * (1.0 - a)
        return r if r > 0.0 else 0.0

    def rk4_step(a, h, lo, mid, hi):
        k1 = rate(a, lo)
        k2 = rate(a + 0.5 * h * k1, mid)
        k3 = rate(a + 0.5 * h * k2, mid)
        k4 = rate(a + h * k3, hi)
        return a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n = len(t)
    alpha = [0.0]
    a = 0.0
    k = 0
    while k < n - 1 and a <= switch:
        h = steps[k]
        trial = rk4_step(a, h, node_f[k], mid_f[k], node_f[k + 1])
        if a < switch < trial:
            sub = 64
            t_lo = temps_k[k]
            fractions = np.arange(2 * sub + 1) / (2 * sub)
            sub_f = _scalar_arrhenius(t_lo + (temps_k[k + 1] - t_lo) * fractions, kin)
            hs = h / sub
            trial = a
            for j in range(0, 2 * sub, 2):
                trial = rk4_step(trial, hs, sub_f[j], sub_f[j + 1], sub_f[j + 2])
        a = trial
        if not -1e-9 <= a <= 1.0 + 1e-9:
            raise simulate._out_of_range(a, t[k + 1])
        a = min(max(a, 0.0), 1.0)
        alpha.append(a)
        k += 1

    b3_node = [f[2] for f in node_f]
    b3_mid = [f[2] for f in mid_f]
    for k in range(k, n - 1):
        h = steps[k]
        b_mid = b3_mid[k]
        k1 = max(b3_node[k] * (1.0 - a), 0.0)
        k2 = max(b_mid * (1.0 - (a + 0.5 * h * k1)), 0.0)
        k3 = max(b_mid * (1.0 - (a + 0.5 * h * k2)), 0.0)
        k4 = max(b3_node[k + 1] * (1.0 - (a + h * k3)), 0.0)
        a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not -1e-9 <= a <= 1.0 + 1e-9:
            raise simulate._out_of_range(a, t[k + 1])
        a = min(a, 1.0)
        alpha.append(a)
    return np.array(alpha)


def closure_alpha(t, temps_k, mid_k, kin):
    """Reference integrator: phase one as a while loop through the rate and
    rk4_step closures, which the flat loop over memoryview slices replaced.
    Its arithmetic, and so every bit of alpha, is the flat loop's."""
    switch, crit, a2 = kin.branch_switch, kin.alpha_crit, kin.a2
    h = np.diff(t)
    half_k = np.empty(2 * len(t) - 1)
    half_k[0::2], half_k[1::2] = temps_k, mid_k
    half_f = simulate.arrhenius_factors(half_k, kin)

    def rate(a, f, i):
        if a <= switch:
            r = (f[0][i] + a * a2 * f[1][i]) * (1.0 - a) * (crit - a)
        else:
            r = f[2][i] * (1.0 - a)
        return r if r > 0.0 else 0.0

    def rk4_step(a, h, f, j):
        k1 = rate(a, f, j)
        k2 = rate(a + 0.5 * h * k1, f, j + 1)
        k3 = rate(a + 0.5 * h * k2, f, j + 1)
        k4 = rate(a + h * k3, f, j + 2)
        return a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n = len(t)
    steps = memoryview(h)
    half_v = [memoryview(f) for f in half_f]
    alpha = np.empty(n)
    alpha[0] = a = 0.0
    k = 0
    while k < n - 1 and a <= switch:
        trial = rk4_step(a, steps[k], half_v, 2 * k)
        if a < switch < trial:
            sub = 64
            t_lo = temps_k[k]
            fractions = np.arange(2 * sub + 1) / (2 * sub)
            sub_f = simulate.arrhenius_factors(t_lo + (temps_k[k + 1] - t_lo) * fractions, kin)
            sub_v = [memoryview(f) for f in sub_f]
            hs = steps[k] / sub
            trial = a
            for j in range(0, 2 * sub, 2):
                trial = rk4_step(trial, hs, sub_v, j)
        a = trial
        if not -1e-9 <= a <= 1.0 + 1e-9:
            raise simulate._out_of_range(a, t[k + 1])
        alpha[k + 1] = a = min(max(a, 0.0), 1.0)
        k += 1

    b3 = half_f[2][2 * k :]
    h, b0, bm, b1 = h[k:], b3[0:-1:2], b3[1::2], b3[2::2]
    s2 = np.maximum(1.0 - 0.5 * h * b0, 0.0)
    s3 = np.maximum(1.0 - 0.5 * h * bm * s2, 0.0)
    s4 = np.maximum(1.0 - h * bm * s3, 0.0)
    p = 1.0 - (h / 6.0) * (b0 + 2.0 * bm * s2 + 2.0 * bm * s3 + b1 * s4)
    over = np.flatnonzero(~(p >= 0.0))
    end = int(over[0]) + 1 if len(over) else len(p)
    y = np.zeros(len(p))
    y[:end] = (1.0 - a) * np.cumprod(p[:end])
    if len(over) and not y[end - 1] >= -1e-9:
        raise simulate._out_of_range(1.0 - y[end - 1], t[k + end])
    alpha[k + 1 :] = 1.0 - np.maximum(y, 0.0)
    return alpha


def simulate_both(cycle, dt, kin=KIN, reference=scalar_alpha):
    """(trace or IntegrationError message) of simulate_cure and of the same
    simulation with a reference integrator in place of _integrate_alpha."""

    def run():
        try:
            return simulate_cure(cycle, kin, MECH, dt=dt)
        except IntegrationError as exc:
            return str(exc)

    def integrate(t, temps_k, mid_k, kin):
        alpha = reference(t, temps_k, mid_k, kin)
        return alpha, simulate.arrhenius_factors(temps_k, kin)

    got = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_integrate_alpha", integrate)
        return got, run()


def assert_matches_reference(got, ref):
    if isinstance(ref, str) or isinstance(got, str):
        assert got == ref
        return
    assert np.max(np.abs(got.alpha - ref.alpha)) <= 1e-13
    assert got.gel_index == ref.gel_index
    assert got.vitrification_index == ref.vitrification_index


@pytest.mark.parametrize("name", list(GOLDEN_CYCLES))
@pytest.mark.parametrize("dt", GOLDEN_DTS)
def test_golden_cycles_match_the_scalar_reference(name, dt):
    variant, params = GOLDEN_CYCLES[name]
    got, ref = simulate_both(build_cycle(variant, params), dt)
    assert not isinstance(ref, str)
    assert_matches_reference(got, ref)


@settings(max_examples=25, deadline=None)
@given(
    t1=st.floats(1.0, 110.0),
    temp1=st.floats(125.0, 180.0),
    dt=st.sampled_from((0.1, 0.25, 0.37)),
)
def test_two_point_cycles_match_the_scalar_reference(t1, temp1, dt):
    assert_matches_reference(*simulate_both(two_point_cycle(t1, temp1), dt))


@settings(max_examples=25, deadline=None)
@given(
    t1=st.floats(10.0, 110.0),
    temp1=st.floats(125.0, 180.0),
    t2=st.floats(120.0, 200.0),
    temp2=st.floats(150.0, 180.0),
    dt=st.sampled_from((0.1, 0.25, 0.37)),
)
def test_four_point_cycles_match_the_scalar_reference(t1, temp1, t2, temp2, dt):
    assert_matches_reference(*simulate_both(four_point_cycle(t1, temp1, t2, temp2), dt))


# (cycle, dt, a3): a3 raised until h * b3 makes the stage rates of phase two
# clamp at zero and one step overshoots full cure by less than 1e-9, which is
# cut back to alpha = 1. A product that kept multiplying the negative 1 - alpha
# after that step leaves full cure again (by more than 1e-13) or raises.
STIFF_CLAMPED = [
    ("baseline", 0.37, 3.0e7),
    ("baseline", 1.0, 2.4e8),
    ("baseline", 0.37, 7.5e8),
    ("two-point 45 127", 1.0, 4.8e8),
    ("four-point 100 175 190 155", 1.0, 1.2e7),
]
# (cycle, dt, a3, t): the first overshoot exceeds 1e-9 and raises at time t.
STIFF_OVERSHOOT = [
    ("baseline", 1.0, 9.5e6, "58.5608"),
    ("baseline", 0.1, 1.5e8, "52.9471"),
    ("two-point 45 127", 1.0, 2.4e7, "71.0000"),
]


@pytest.mark.parametrize("name, dt, a3", STIFF_CLAMPED)
def test_stiff_phase_two_clamps_like_the_scalar_reference(name, dt, a3):
    variant, params = GOLDEN_CYCLES[name]
    got, ref = simulate_both(build_cycle(variant, params), dt, KineticParams(a3=a3))
    assert not isinstance(ref, str) and ref.final_doc == 1.0
    assert_matches_reference(got, ref)


@pytest.mark.parametrize("name, dt, a3, t_raise", STIFF_OVERSHOOT)
def test_stiff_phase_two_raises_like_the_scalar_reference(name, dt, a3, t_raise):
    variant, params = GOLDEN_CYCLES[name]
    got, ref = simulate_both(build_cycle(variant, params), dt, KineticParams(a3=a3))
    assert ref == f"degree of cure left [0, 1] at t={t_raise} min"
    assert got == ref


def assert_same_bits(got, ref):
    if isinstance(ref, str) or isinstance(got, str):
        assert got == ref
        return
    assert np.array_equal(got.alpha, ref.alpha)
    assert np.array_equal(got.rate, ref.rate)


# Coarse steps in which a stage of phase one passes the switch and the trial
# does not, so the step keeps a rate read from b3 at half-grid index 2k + 2
# (stage four) or 2k + 1 (stage two or three). The last case's first ramp
# stops at 180 C and its second cools at 6.9 C/min, so the midpoint rates of
# the step fall below its start rate; a small a3 keeps the b3 rate small next
# to them, and stage two passes the switch while the trial does not.
B3_STAGES = {
    "two-point 5 175 dt=1": ("two-point", (5.0, 175.0), 1.0, KIN),
    "two-point 10 170 dt=2": ("two-point", (10.0, 170.0), 2.0, KIN),
    "four-point 8 180 160 165 dt=1": ("four-point", (8.0, 180.0, 160.0, 165.0), 1.0, KIN),
    "four-point 2 170 120 150 dt=2": ("four-point", (2.0, 170.0, 120.0, 150.0), 2.0, KIN),
    "four-point 7 180 15 125 dt=1 a3=1e3": (
        "four-point", (7.0, 180.0, 15.0, 125.0), 1.0, KineticParams(a3=1e3)),
}
# A more negative a2 gives the low-alpha rate law a root below the switch:
# the cure stalls there and the stages that overshoot it clamp at zero.
LOW_BRANCH_ROOT = {
    "two-point 45 127 dt=0.1 a2=-5e9": ("two-point", (45.0, 127.0), 0.1, KineticParams(a2=-5e9)),
    "four-point 50 135 130 178 dt=1 a2=-1e10": (
        "four-point", (50.0, 135.0, 130.0, 178.0), 1.0, KineticParams(a2=-1e10)),
}


@pytest.mark.parametrize("name", list(B3_STAGES) + list(LOW_BRANCH_ROOT))
def test_flat_loop_keeps_the_bits_of_the_closure_loop(name):
    variant, params, dt, kin = {**B3_STAGES, **LOW_BRANCH_ROOT}[name]
    got, ref = simulate_both(build_cycle(variant, params), dt, kin, closure_alpha)
    assert not isinstance(ref, str)
    assert_same_bits(got, ref)


# (cycle, dt, a3, t): a3 so large that h/64 * b3 > 2 in the substeps of the
# step that crosses the switch, so their stage rates clamp at zero, and the
# step overshoots full cure and raises at its end, time t.
STIFF_CROSSING = [
    ("baseline", 1.0, 1e9, "53.5980"),
    ("two-point 45 127", 2.0, 1e10, "66.7105"),
]


@pytest.mark.parametrize("name, dt, a3", STIFF_CLAMPED + [case[:3] for case in STIFF_OVERSHOOT])
def test_flat_loop_keeps_the_bits_of_the_closure_loop_when_stiff(name, dt, a3):
    variant, params = GOLDEN_CYCLES[name]
    got, ref = simulate_both(build_cycle(variant, params), dt, KineticParams(a3=a3), closure_alpha)
    assert_same_bits(got, ref)


@pytest.mark.parametrize("name, dt, a3, t_raise", STIFF_CROSSING)
def test_stiff_crossing_step_raises_like_the_closure_loop(name, dt, a3, t_raise):
    variant, params = GOLDEN_CYCLES[name]
    got, ref = simulate_both(build_cycle(variant, params), dt, KineticParams(a3=a3), closure_alpha)
    assert ref == f"degree of cure left [0, 1] at t={t_raise} min"
    assert got == ref


@settings(max_examples=25, deadline=None)
@given(
    t1=st.floats(1.0, 110.0),
    temp1=st.floats(125.0, 180.0),
    dt=st.sampled_from((0.1, 1.0, 2.0)),
    a3=st.sampled_from((KIN.a3, 1e7, 3e8)),
)
def test_two_point_cycles_keep_the_bits_of_the_closure_loop(t1, temp1, dt, a3):
    cycle = two_point_cycle(t1, temp1)
    assert_same_bits(*simulate_both(cycle, dt, KineticParams(a3=a3), closure_alpha))


@settings(max_examples=25, deadline=None)
@given(
    t1=st.floats(1.0, 110.0),
    temp1=st.floats(125.0, 180.0),
    t2=st.floats(120.0, 200.0),
    temp2=st.floats(150.0, 180.0),
    dt=st.sampled_from((0.1, 1.0, 2.0)),
    a3=st.sampled_from((KIN.a3, 1e7, 3e8)),
)
def test_four_point_cycles_keep_the_bits_of_the_closure_loop(t1, temp1, t2, temp2, dt, a3):
    cycle = four_point_cycle(t1, temp1, t2, temp2)
    assert_same_bits(*simulate_both(cycle, dt, KineticParams(a3=a3), closure_alpha))


if __name__ == "__main__":
    # python tests/test_cure_sim.py records the golden of the running level
    # and keeps the other levels' entries: one trace a line
    record_this_level(
        GOLDEN_PATH,
        {name: golden_snapshot(trace) for name, trace in golden_traces()},
        lambda name, snapshot: f"  {json.dumps(name)}: {json.dumps(snapshot)}",
        blas=False,
    )
