"""Lumped-point cure simulator with prescribed temperature history.

The degree of cure follows a two-branch autocatalytic rate law integrated
with fixed-step RK4; the step grid is aligned to the cycle vertices so the
right-hand side is smooth within every integration step.

Temperature is prescribed, so the Arrhenius factors are arrays computed
before integration, at every grid node and step midpoint, by the helper
`cure_rate` uses too; the trace's rate column reuses the node factors. While
alpha <= branch_switch one flat scalar loop walks memoryview slices of the
step lengths and factors, tests the branch at every stage and redoes the
step that crosses the switch in substeps. Past the switch the rate law is
linear in 1 - alpha, so each RK4 step multiplies 1 - alpha by its stability
polynomial (Hairer & Wanner, Solving ODEs II, IV.2), the rate clamps
entering as stage factors, and the phase is one cumulative product.

Alongside the cure state the simulator tracks the exotherm rate diagnostic,
resin viscosity, instantaneous glass transition, the cure-hardening modulus,
volumetric shrinkage and its linear strain, and a scalar residual measure

    sigma_bar[k] = sigma_bar[k-1] + E_r(alpha_k) * (CTE dT_k + CCS d eps_k)

accumulated from the gel point onward (fully constrained increments, i.e.
zero total strain). The dimensionless deformation proxy is
|sigma_bar(end)| / E_cured.

Default material constants are literature values for a 3501-6 class epoxy
and are not ground truth for any particular part; every one of them can be
overridden. The rate law is evaluated with the conventional negative
Arrhenius exponent, exp(-E / (R T)).
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from curebo.problems.cycle import CureCycle

R_GAS = 8.314  # J / (mol K)
KELVIN_OFFSET = 273.15
# Most nodes a simulated time grid may hold; dt 0.1 puts about 2,650 on a
# shipped cycle.
MAX_GRID_NODES = 1_000_000
# np.exp overflows past this exponent
_LOG_DBL_MAX = math.log(sys.float_info.max)

# CureTrace series field -> its trace CSV header, in file order
_TRACE_FIELDS = {
    "time_min": "time_min",
    "temp_c": "T_C",
    "alpha": "alpha",
    "rate": "dalpha_dt",
    "heat_rate": "Q_dot",
    "mu": "mu",
    "tg_c": "Tg_C",
    "modulus": "Er",
    "vol_shrinkage": "Vrs",
    "shrink_strain": "eps_s",
    "sigma_bar": "sigma_bar",
}
TRACE_COLUMNS = tuple(_TRACE_FIELDS.values())


class IntegrationError(RuntimeError):
    """Cure state left its admissible range or went non-finite."""


@dataclass(frozen=True)
class KineticParams:
    """Two-branch autocatalytic rate-law constants (per-minute units)."""

    a1: float = 2.101e9
    a2: float = -2.014e9
    a3: float = 1.960e5
    e1: float = 8.07e4  # J/mol
    e2: float = 7.78e4
    e3: float = 5.66e4
    alpha_crit: float = 0.47
    branch_switch: float = 0.3
    heat_of_reaction: float = 473.6e3  # J/kg resin
    resin_density: float = 1260.0  # kg/m^3
    fiber_volume_fraction: float = 0.58

    def __post_init__(self):
        if min(self.e1, self.e2, self.e3) <= 0:
            raise ValueError("activation energies must be positive")
        if self.a3 < 0:
            raise ValueError("a3 must be non-negative")
        if not self.branch_switch < self.alpha_crit <= 1.0:
            raise ValueError("alpha_crit must lie in (branch_switch, 1]")
        if not 0.0 <= self.fiber_volume_fraction < 1.0:
            raise ValueError("fiber volume fraction must lie in [0, 1)")


@dataclass(frozen=True)
class MechanicalParams:
    """Modulus growth, shrinkage, viscosity and glass-transition constants."""

    modulus_liquid: float = 3.45e6  # Pa
    modulus_cured: float = 3.45e9  # Pa
    gamma: float = 0.0  # early/late modulus growth shape, in [-1, 1]
    alpha_mod_lo: float = 0.30  # cure bounds of the modulus ramp
    alpha_mod_hi: float = 0.90
    shrink_total: float = -0.0873  # final volumetric shrinkage (signed)
    shrink_profile_a: Optional[float] = None  # linear coefficient; None -> shrink_total
    alpha_shrink_lo: float = 0.20  # cure bounds of the shrinkage window
    alpha_shrink_hi: float = 0.90
    cte: float = 57.6e-6  # 1/K
    ccs: float = 1.0  # cure-shrinkage strain coefficient
    visc_inf: float = 7.93e-14  # Pa s
    visc_u: float = 9.08e4  # J/mol
    visc_k: float = 14.1
    gel_viscosity: float = 100.0  # Pa s
    tg0_c: float = 0.0
    tg_inf_c: float = 215.0
    tg_lambda: float = 0.4

    def __post_init__(self):
        if not 0.0 <= self.alpha_mod_lo < self.alpha_mod_hi <= 1.0:
            raise ValueError("modulus cure bounds must satisfy 0 <= lo < hi <= 1")
        if not 0.0 <= self.alpha_shrink_lo < self.alpha_shrink_hi <= 1.0:
            raise ValueError("shrinkage cure bounds must satisfy 0 <= lo < hi <= 1")
        if self.modulus_liquid >= self.modulus_cured:
            raise ValueError("liquid modulus must be below cured modulus")
        if not -1.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [-1, 1]")


def arrhenius_factors(temp_k, kin: KineticParams):
    """(a1 exp(-e1/RT), exp(-e2/RT), a3 exp(-e3/RT)) at temperatures in K; the
    rate law multiplies the middle factor by alpha * a2."""
    s = 1.0 / (R_GAS * np.asarray(temp_k, dtype=float))
    return kin.a1 * np.exp(-kin.e1 * s), np.exp(-kin.e2 * s), kin.a3 * np.exp(-kin.e3 * s)


def _rate_law(alpha: np.ndarray, b1, e2, b3, kin: KineticParams) -> np.ndarray:
    """Cure rate (per minute) at alpha from the factors of arrhenius_factors."""
    low = (b1 + alpha * kin.a2 * e2) * (1.0 - alpha) * (kin.alpha_crit - alpha)
    high = b3 * (1.0 - alpha)
    return np.where(alpha <= kin.branch_switch, low, high)


def cure_rate(alpha, temp_k, kin: KineticParams = KineticParams()):
    """Cure rate (per minute) at degree of cure alpha and temperature in K."""
    out = _rate_law(np.asarray(alpha, dtype=float), *arrhenius_factors(temp_k, kin), kin)
    return out if out.ndim else float(out)


def viscosity(alpha, temp_k, mech: MechanicalParams = MechanicalParams()):
    """Resin viscosity (Pa s): Arrhenius in T with exponential cure buildup."""
    alpha = np.asarray(alpha, dtype=float)
    temp_k = np.asarray(temp_k, dtype=float)
    out = mech.visc_inf * np.exp(mech.visc_u / (R_GAS * temp_k) + mech.visc_k * alpha)
    return out if out.ndim else float(out)


def coldest_cycle_temp_c(mech: MechanicalParams = MechanicalParams()) -> float:
    """Temperature (C) a cycle must stay above: absolute zero, and the one
    below which viscosity's exponent visc_u / (R T) + visc_k alpha passes
    log(DBL_MAX) for some alpha in [0, 1] (about -257 C by default)."""
    headroom = _LOG_DBL_MAX - max(mech.visc_k, 0.0)
    if headroom <= 0.0:  # the cure term alone overflows at alpha = 1
        return math.inf
    return max(mech.visc_u, 0.0) / (R_GAS * headroom) - KELVIN_OFFSET


def glass_transition_c(alpha, mech: MechanicalParams = MechanicalParams()):
    """Instantaneous glass transition (C), DiBenedetto form."""
    alpha = np.asarray(alpha, dtype=float)
    lam = mech.tg_lambda
    out = mech.tg0_c + (mech.tg_inf_c - mech.tg0_c) * lam * alpha / (1.0 - (1.0 - lam) * alpha)
    return out if out.ndim else float(out)


def chile_modulus(alpha, mech: MechanicalParams = MechanicalParams()):
    """Cure-hardening modulus (Pa), continuous at both cure knots."""
    alpha = np.asarray(alpha, dtype=float)
    span = mech.alpha_mod_hi - mech.alpha_mod_lo
    amod = np.clip((alpha - mech.alpha_mod_lo) / span, 0.0, 1.0)
    e0, e1 = mech.modulus_liquid, mech.modulus_cured
    out = (1.0 - amod) * e0 + amod * e1 + mech.gamma * amod * (1.0 - amod) * (e1 - e0)
    return out if out.ndim else float(out)


def volumetric_shrinkage(alpha, mech: MechanicalParams = MechanicalParams()):
    """Volumetric shrinkage (signed), quadratic ramp over the cure window."""
    alpha = np.asarray(alpha, dtype=float)
    a_coeff = mech.shrink_total if mech.shrink_profile_a is None else mech.shrink_profile_a
    span = mech.alpha_shrink_hi - mech.alpha_shrink_lo
    a_s = np.clip((alpha - mech.alpha_shrink_lo) / span, 0.0, 1.0)
    out = a_coeff * a_s + (mech.shrink_total - a_coeff) * a_s * a_s
    return out if out.ndim else float(out)


def shrinkage_strain(vrs):
    """Linear strain from volumetric shrinkage: (1 + V)^(1/3) - 1."""
    vrs = np.asarray(vrs, dtype=float)
    out = np.cbrt(1.0 + vrs) - 1.0
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CureTrace:
    """Time series of the simulated cure plus its scalar outputs."""

    time_min: np.ndarray
    temp_c: np.ndarray
    alpha: np.ndarray
    rate: np.ndarray
    heat_rate: np.ndarray
    mu: np.ndarray
    tg_c: np.ndarray
    modulus: np.ndarray
    vol_shrinkage: np.ndarray
    shrink_strain: np.ndarray
    sigma_bar: np.ndarray
    gel_index: Optional[int]
    vitrification_index: Optional[int]
    final_doc: float
    u_proxy: float

    def write_csv(self, path) -> None:
        """Write the trace with the fixed public column order."""
        columns = [getattr(self, name) for name in _TRACE_FIELDS]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(TRACE_COLUMNS)
            for row in zip(*columns):
                writer.writerow([format(v, ".12g") for v in row])


def _time_grid(cycle: CureCycle, dt: float) -> np.ndarray:
    """Vertex-aligned grid: every cycle segment split into <= dt substeps.
    The nodes are counted before anything is allocated, and a grid of more
    than MAX_GRID_NODES raises ValueError."""
    times = [v[0] for v in cycle.vertices]
    # a span clamped to the cap still counts past it, and stays finite for ceil
    steps = [max(1, math.ceil(min((b - a) / dt - 1e-12, MAX_GRID_NODES)))
             for a, b in zip(times, times[1:])]
    if 1 + sum(steps) > MAX_GRID_NODES:
        raise ValueError(f"dt = {dt} min puts more than {MAX_GRID_NODES} nodes on the time grid")
    pieces = [np.array([0.0])]
    for a, b, n in zip(times, times[1:], steps):
        pieces.append(np.linspace(a, b, n + 1)[1:])
    return np.concatenate(pieces)


def _out_of_range(a: float, t_now: float) -> IntegrationError:
    if not math.isfinite(a):
        return IntegrationError(f"non-finite cure state at t={t_now:.4f} min")
    return IntegrationError(f"degree of cure left [0, 1] at t={t_now:.4f} min")


def _integrate_alpha(t, temps_k, mid_k, kin: KineticParams) -> tuple[np.ndarray, tuple]:
    """Degree of cure at every grid node, and the Arrhenius factors at the
    nodes: fixed-step RK4 in two phases.

    Phase one runs while alpha <= branch_switch as one flat loop over
    memoryview slices of the step lengths and the half-grid factors (the
    midpoint and the next node of each step), reading Python floats only for
    the steps it reaches. Each step carries its end node's factors into the
    next and inlines the four stage rates: alpha <= branch_switch at the
    start of a step, so its first stage takes the low-alpha branch, and a
    later stage past the switch reads b3 at half-grid index 2k + 1 or 2k + 2.
    The step that crosses the switch is redone in 64 substeps, so the jump of
    the rate law is confined to one of them. Phase two solves y' = -b3(T) y for
    y = 1 - alpha: each step multiplies y by P = 1 - h/6 (b0 + 2 bm s2 +
    2 bm s3 + b1 s4). Cure is irreversible: every rate is clamped at zero,
    which is the max(., 0) of the stage factors s2, s3, s4 and the cut of a
    1e-9 overshoot of full cure back to alpha = 1.
    """
    switch, crit, a2 = kin.branch_switch, kin.alpha_crit, kin.a2
    h = np.diff(t)
    # factors on the half-step grid: node k at 2k, the midpoint of step k at 2k + 1
    half_k = np.empty(2 * len(t) - 1)
    half_k[0::2], half_k[1::2] = temps_k, mid_k
    half_f = arrhenius_factors(half_k, kin)
    f1, f2, f3 = (memoryview(f) for f in half_f)  # b1, e2, b3 as Python floats

    alpha = np.empty(len(t))
    alpha[0] = a = 0.0
    cure = memoryview(alpha)
    k = 0
    c1, c2 = f1[0], f2[0]  # b1, e2 at node k
    for hk, m1, m2, d1, d2 in zip(memoryview(h), f1[1::2], f2[1::2], f1[2::2], f2[2::2]):
        r = (c1 + a * a2 * c2) * (1.0 - a) * (crit - a)
        k1 = r if r > 0.0 else 0.0
        s = a + 0.5 * hk * k1
        if s <= switch:
            r = (m1 + s * a2 * m2) * (1.0 - s) * (crit - s)
        else:
            r = f3[2 * k + 1] * (1.0 - s)
        k2 = r if r > 0.0 else 0.0
        s = a + 0.5 * hk * k2
        if s <= switch:
            r = (m1 + s * a2 * m2) * (1.0 - s) * (crit - s)
        else:
            r = f3[2 * k + 1] * (1.0 - s)
        k3 = r if r > 0.0 else 0.0
        s = a + hk * k3
        if s <= switch:
            r = (d1 + s * a2 * d2) * (1.0 - s) * (crit - s)
        else:
            r = f3[2 * k + 2] * (1.0 - s)
        k4 = r if r > 0.0 else 0.0
        trial = a + (hk / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if a < switch < trial:
            # temperature is linear within a step (the grid is vertex aligned);
            # substep j runs from fraction 2j / (2 sub) to (2j + 2) / (2 sub)
            # of it, with its midpoint at (2j + 1) / (2 sub). Its stages do
            # the arithmetic of the four above, in the same order, except
            # that the first one tests the branch too.
            sub = 64
            t_lo = temps_k[k]
            fractions = np.arange(2 * sub + 1) / (2 * sub)
            sub_f = arrhenius_factors(t_lo + (temps_k[k + 1] - t_lo) * fractions, kin)
            g1, g2, g3 = (memoryview(f) for f in sub_f)
            hs = hk / sub
            trial = a
            for j in range(0, 2 * sub, 2):
                s = trial
                if s <= switch:
                    r = (g1[j] + s * a2 * g2[j]) * (1.0 - s) * (crit - s)
                else:
                    r = g3[j] * (1.0 - s)
                k1 = r if r > 0.0 else 0.0
                s = trial + 0.5 * hs * k1
                if s <= switch:
                    r = (g1[j + 1] + s * a2 * g2[j + 1]) * (1.0 - s) * (crit - s)
                else:
                    r = g3[j + 1] * (1.0 - s)
                k2 = r if r > 0.0 else 0.0
                s = trial + 0.5 * hs * k2
                if s <= switch:
                    r = (g1[j + 1] + s * a2 * g2[j + 1]) * (1.0 - s) * (crit - s)
                else:
                    r = g3[j + 1] * (1.0 - s)
                k3 = r if r > 0.0 else 0.0
                s = trial + hs * k3
                if s <= switch:
                    r = (g1[j + 2] + s * a2 * g2[j + 2]) * (1.0 - s) * (crit - s)
                else:
                    r = g3[j + 2] * (1.0 - s)
                k4 = r if r > 0.0 else 0.0
                trial = trial + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a = trial
        k += 1
        if not -1e-9 <= a <= 1.0 + 1e-9:
            raise _out_of_range(a, t[k])
        if a < 0.0:
            a = 0.0
        elif a > 1.0:
            a = 1.0
        cure[k] = a
        if a > switch:
            break
        c1, c2 = d1, d2

    b3 = half_f[2][2 * k :]
    h, b0, bm, b1 = h[k:], b3[0:-1:2], b3[1::2], b3[2::2]
    s2 = np.maximum(1.0 - 0.5 * h * b0, 0.0)
    s3 = np.maximum(1.0 - 0.5 * h * bm * s2, 0.0)
    s4 = np.maximum(1.0 - h * bm * s3, 0.0)
    p = 1.0 - (h / 6.0) * (b0 + 2.0 * bm * s2 + 2.0 * bm * s3 + b1 * s4)
    # b3 >= 0 (a3 is checked), so P <= 1 and y falls up to the first step with
    # P < 0 or NaN, which overshoots full cure; the cure stays full after it
    over = np.flatnonzero(~(p >= 0.0))
    end = int(over[0]) + 1 if len(over) else len(p)
    y = np.zeros(len(p))
    y[:end] = (1.0 - a) * np.cumprod(p[:end])
    if len(over) and not y[end - 1] >= -1e-9:
        raise _out_of_range(1.0 - y[end - 1], t[k + end])
    alpha[k + 1 :] = 1.0 - np.maximum(y, 0.0)
    return alpha, tuple(f[0::2] for f in half_f)


def simulate_cure(
    cycle: CureCycle,
    kin: KineticParams = KineticParams(),
    mech: MechanicalParams = MechanicalParams(),
    dt: float = 0.1,
) -> CureTrace:
    """Integrate the cure state along a cycle and derive the output trace.

    Parameters
    ----------
    cycle : temperature schedule, evaluated exactly (piecewise linear).
    kin, mech : material constants.
    dt : nominal step in minutes; actual steps divide each cycle segment.
        A dt that needs more than MAX_GRID_NODES nodes raises ValueError, and
        so does a cycle that reaches coldest_cycle_temp_c(mech).

    Gelation is flagged at the first upward crossing of the gel viscosity
    (the resin starts cold and thick, so a plain threshold test would fire
    at time zero); vitrification at the first instant Tg reaches the
    current temperature. The residual measure only accumulates after
    gelation, so a cycle that never gels reports a zero deformation proxy.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    lowest = min(temp for _, temp in cycle.vertices)  # a linear segment's minimum is a vertex
    coldest = coldest_cycle_temp_c(mech)
    if lowest <= coldest:
        raise ValueError(
            f"cycle reaches {lowest:g} C; the viscosity law needs it above {coldest:.6g} C"
        )
    t = _time_grid(cycle, dt)
    temps_c = cycle.temperature(t)
    temps_k = temps_c + KELVIN_OFFSET
    mid_k = cycle.temperature(0.5 * (t[:-1] + t[1:])) + KELVIN_OFFSET

    n = len(t)
    alpha, node_f = _integrate_alpha(t, temps_k, mid_k, kin)

    rate = np.maximum(_rate_law(alpha, *node_f, kin), 0.0)
    heat_rate = rate * (1.0 - kin.fiber_volume_fraction) * kin.resin_density * kin.heat_of_reaction
    mu = viscosity(alpha, temps_k, mech)
    tg = glass_transition_c(alpha, mech)
    modulus = chile_modulus(alpha, mech)
    vrs = volumetric_shrinkage(alpha, mech)
    eps = shrinkage_strain(vrs)

    above = mu >= mech.gel_viscosity
    crossings = np.nonzero(above[1:] & ~above[:-1])[0]
    gel_index = int(crossings[0] + 1) if len(crossings) else None
    vit_hits = np.nonzero(tg >= temps_c)[0]
    vitrification_index = int(vit_hits[0]) if len(vit_hits) else None

    sigma = np.zeros(n)
    if gel_index is not None:
        increments = modulus[1:] * (mech.cte * np.diff(temps_c) + mech.ccs * np.diff(eps))
        increments[: gel_index] = 0.0  # increment k covers (t[k], t[k+1])
        sigma[1:] = np.cumsum(increments)

    return CureTrace(
        time_min=t,
        temp_c=temps_c,
        alpha=alpha,
        rate=rate,
        heat_rate=heat_rate,
        mu=mu,
        tg_c=tg,
        modulus=modulus,
        vol_shrinkage=vrs,
        shrink_strain=eps,
        sigma_bar=sigma,
        gel_index=gel_index,
        vitrification_index=vitrification_index,
        final_doc=float(alpha[-1]),
        u_proxy=float(abs(sigma[-1]) / mech.modulus_cured),
    )

