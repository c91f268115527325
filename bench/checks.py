"""Output checks made apart from the program.

Nothing here calls the curebo code under test to decide whether a result is
right, except `baseline_u`, which computes the reference cycle's deformation
as acceptance criterion 9 does. The problem data (quadratic coefficients,
cycle geometry, cure kinetics) are written out again below from the problem
statement, so a change in the program's copy shows up as a failed check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

# Analytical problem: quadratics in (t, T) on the unit square, coefficient
# order (t^2, t*T, t, T^2, T, 1); feasible when the cure surface >= 0.995.
U_COEFFS = (-0.1272, -0.1698, 0.2914, 0.2329, -0.0841, 1.8646)
DOC_COEFFS = (-0.0458, 0.0801, -0.0265, -0.0376, 0.0329, 0.9902)
ANALYTICAL_THRESHOLD = 0.995

# Cure cycle geometry (minutes, deg C).
START_C, DWELL_C = 20.0, 180.0
RAMP_RATE, COOL_RATE = 2.6, 4.846
TWO_POINT_DWELL_START, TWO_POINT_DWELL = 120.0, 112.0
FOUR_POINT_DWELL = 60.0

# Default two-branch autocatalytic kinetics (per minute, J/mol).
A1, A2, A3 = 2.101e9, -2.014e9, 1.960e5
E1, E2, E3 = 8.07e4, 7.78e4, 5.66e4
ALPHA_CRIT, BRANCH_SWITCH = 0.47, 0.3
R_GAS, KELVIN = 8.314, 273.15

F_TOL = 1e-12  # logged f/g of the analytical problem against our own evaluation
DOC_TOL = 1e-5  # logged degree of cure against the solve_ivp re-integration
OPT_TOL = 1e-9  # no feasible point may beat the refined optimum by more


def quad(coeffs, t, T):
    c0, c1, c2, c3, c4, c5 = coeffs
    return c0 * t * t + c1 * t * T + c2 * t + c3 * T * T + c4 * T + c5


def analytical_optimum(grid: int = 1001) -> float:
    """Constrained minimum of the analytical problem: a dense grid, then SLSQP
    on the two quadratics from the best feasible grid point."""
    axis = np.linspace(0.0, 1.0, grid)
    best_f, best_x = math.inf, None
    for t in np.array_split(axis, 10):  # row blocks keep memory small
        tt, TT = np.meshgrid(t, axis, indexing="ij")
        f = np.where(quad(DOC_COEFFS, tt, TT) >= ANALYTICAL_THRESHOLD, quad(U_COEFFS, tt, TT), np.inf)
        k = int(np.argmin(f))
        if f.flat[k] < best_f:
            best_f, best_x = float(f.flat[k]), (float(tt.flat[k]), float(TT.flat[k]))
    res = minimize(
        lambda z: quad(U_COEFFS, z[0], z[1]),
        best_x,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * 2,
        constraints=[{"type": "ineq",
                      "fun": lambda z: quad(DOC_COEFFS, z[0], z[1]) - ANALYTICAL_THRESHOLD}],
        options={"ftol": 1e-15, "maxiter": 500},
    )
    t, T = np.clip(res.x, 0.0, 1.0)
    if quad(DOC_COEFFS, t, T) >= ANALYTICAL_THRESHOLD - 1e-12:
        best_f = min(best_f, float(quad(U_COEFFS, t, T)))
    return best_f


def cycle_vertices(raw) -> list[tuple[float, float]]:
    """Vertices of the two-point (t1, T1) or four-point (t1, T1, t2, T2) cycle."""
    cool = (DWELL_C - START_C) / COOL_RATE
    if len(raw) == 2:
        t1, T1 = raw
        dwell_end = TWO_POINT_DWELL_START + TWO_POINT_DWELL
        return [(0.0, START_C), (t1, T1), (TWO_POINT_DWELL_START, DWELL_C),
                (dwell_end, DWELL_C), (dwell_end + cool, START_C)]
    t1, T1, t2, T2 = raw
    dwell_start = t2 + (DWELL_C - T2) / RAMP_RATE
    dwell_end = dwell_start + FOUR_POINT_DWELL
    return [(0.0, START_C), (t1, T1), (t2, T2), (dwell_start, DWELL_C),
            (dwell_end, DWELL_C), (dwell_end + cool, START_C)]


def cure_rate(alpha: float, temp_c: float) -> float:
    alpha = min(max(alpha, 0.0), 1.0)
    inv_rt = 1.0 / (R_GAS * (temp_c + KELVIN))
    if alpha <= BRANCH_SWITCH:
        rate = (A1 * math.exp(-E1 * inv_rt) + alpha * A2 * math.exp(-E2 * inv_rt)) \
            * (1.0 - alpha) * (ALPHA_CRIT - alpha)
    else:
        rate = A3 * math.exp(-E3 * inv_rt) * (1.0 - alpha)
    return max(rate, 0.0)


def reintegrated_doc(raw) -> float:
    """Final degree of cure of a cycle by RK45 at tight tolerances, segment by
    segment so each right-hand side sees one linear temperature ramp."""
    alpha = 0.0
    verts = cycle_vertices(raw)
    for (ta, Ta), (tb, Tb) in zip(verts, verts[1:]):
        slope = (Tb - Ta) / (tb - ta)
        sol = solve_ivp(
            lambda t, a: [cure_rate(a[0], Ta + slope * (t - ta))],
            (ta, tb), [alpha], method="RK45", rtol=1e-10, atol=1e-12,
        )
        alpha = float(sol.y[0][-1])
    return min(max(alpha, 0.0), 1.0)


@dataclass(frozen=True)
class Incumbent:
    raw: tuple[float, ...]
    f: float
    g: float


def check_replication_csv(
    path: Path, budget: int, threshold: float
) -> tuple[list[str], Optional[Incumbent]]:
    """Budget, running best feasible and monotone trace of one replication.

    The logged best_feasible must equal the running minimum of f over the
    rows with g >= threshold, so the incumbent it reports is feasible.
    """
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, rows = rows[0], rows[1:]
    problems = []
    if len(rows) != budget:
        problems.append(f"{path.name}: {len(rows)} evaluations, budget is {budget}")
    coords = slice(header.index("step") + 1, header.index("f"))
    f_i, g_i, best_i = header.index("f"), header.index("g"), header.index("best_feasible")
    best, incumbent, last_cell = None, None, None
    for n, row in enumerate(rows, start=1):
        f, g = float(row[f_i]), float(row[g_i])
        if g >= threshold and (best is None or f < best):
            best = f
            incumbent = Incumbent(tuple(float(v) for v in row[coords]), f, g)
        cell = float(row[best_i]) if row[best_i] else None
        if cell != best:
            problems.append(f"{path.name} row {n}: best_feasible {cell}, running best is {best}")
        if last_cell is not None and (cell is None or cell > last_cell):
            problems.append(f"{path.name} row {n}: best_feasible rose from {last_cell} to {cell}")
        last_cell = cell
    if incumbent is None:
        problems.append(f"{path.name}: no feasible evaluation")
    return problems, incumbent


def check_analytical_incumbent(inc: Incumbent, optimum: float) -> list[str]:
    t, T = inc.raw
    f, g = quad(U_COEFFS, t, T), quad(DOC_COEFFS, t, T)
    problems = []
    if abs(f - inc.f) > F_TOL or abs(g - inc.g) > F_TOL:
        problems.append(
            f"incumbent at {inc.raw}: logged (f, g) = ({inc.f}, {inc.g}), coefficients give ({f}, {g})"
        )
    if inc.f < optimum - OPT_TOL:
        problems.append(f"incumbent f {inc.f} beats the constrained optimum {optimum}")
    return problems


def check_simulator_incumbent(inc: Incumbent, baseline: Optional[float]) -> list[str]:
    doc = reintegrated_doc(inc.raw)
    problems = []
    if abs(doc - inc.g) > DOC_TOL:
        problems.append(f"incumbent at {inc.raw}: logged g {inc.g}, re-integration gives {doc}")
    if baseline is not None and inc.f > baseline:
        problems.append(f"incumbent u {inc.f} exceeds the baseline cycle's {baseline}")
    return problems


def check_median_band(final_bests: list[float], optimum: float, band: float) -> list[str]:
    mid = median(final_bests)
    if not optimum - OPT_TOL <= mid <= optimum + band:
        return [f"median final best {mid} outside [{optimum}, {optimum} + {band}]"]
    return []


def references(problem: str) -> dict:
    """Reference values the checks of a problem's studies compare against."""
    if problem == "analytical":
        return {"optimum": analytical_optimum()}
    if problem == "sim2pt":
        return {"baseline": baseline_u()}
    return {}


def check_study(workload, out_dir: Path, refs: dict) -> tuple[set, list[str], list[float]]:
    """Check one run_study output directory of a benchmark workload.

    Returns the indices of failed replications, the problems found, and the
    final best feasible objective of each replication that has one. A study
    whose median final best leaves its band fails every replication.
    """
    reps = workload.study["replications"]
    failed, problems, final_bests = set(), [], []
    for i in range(reps):
        path = out_dir / f"{workload.study['optimizer']}_rep{i:03d}.csv"
        if not path.is_file():
            failed.add(i)
            problems.append(f"{path.name} missing")
            continue
        found, inc = check_replication_csv(path, workload.budget, workload.threshold)
        if inc is not None:
            final_bests.append(inc.f)
            if "optimum" in refs:
                found += check_analytical_incumbent(inc, refs["optimum"])
            else:
                found += check_simulator_incumbent(inc, refs.get("baseline"))
        if found:
            failed.add(i)
            problems += found
    if workload.band is not None and final_bests:
        band = check_median_band(final_bests, refs["optimum"], workload.band)
        if band:
            failed = set(range(reps))
            problems += band
    return failed, problems, final_bests


def baseline_u() -> float:
    """Deformation proxy of the fixed reference cycle, by the program itself."""
    from curebo.problems import baseline_cycle, simulate_cure

    return simulate_cure(baseline_cycle()).u_proxy
