"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. The two replication studies execute once (module-scoped fixtures)
and feed the statistical criteria.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.integrate import solve_ivp

from curebo.acquisition import ei_values
from curebo.cbo import CboConfig, run_cbo
from curebo.cli import main as cli_main
from curebo.gp import fit_gp, predict_batch
from curebo.problems import (
    KineticParams,
    MechanicalParams,
    analytical_problem,
    baseline_cycle,
    chile_modulus,
    cure_rate,
    shrinkage_strain,
    simulate_cure,
    two_point_problem,
    volumetric_shrinkage,
)
from curebo.study import RunConfig, grid_oracle, percentile, run_study

CBO_BUDGET_SECONDS = 300.0
ORACLE_SECONDS = 10.0


@pytest.fixture(scope="module")
def oracle_optimum():
    problem = analytical_problem()
    result = grid_oracle(problem, 2001)
    assert result.runtime < ORACLE_SECONDS
    return result


@pytest.fixture(scope="module")
def cbo_study(tmp_path_factory, oracle_optimum):
    out = tmp_path_factory.mktemp("cbo_study")
    config = RunConfig.from_dict(
        {
            "problem": "analytical",
            "optimizer": "cbo",
            "replications": 100,
            "seed": 20240601,
            "output_dir": str(out),
            "workers": 2,
            "cbo": {"n_init": 10, "n_steps": 30, "pool_size": 10000},
            "reference_optimum": oracle_optimum.f_min,
            "convergence_tol": 2e-4,
        }
    )
    start = time.perf_counter()
    summary = run_study(config)["cbo"]
    elapsed = time.perf_counter() - start
    return summary, elapsed, out


@pytest.fixture(scope="module")
def ga_study(tmp_path_factory, oracle_optimum):
    out = tmp_path_factory.mktemp("ga_study")
    config = RunConfig.from_dict(
        {
            "problem": "analytical",
            "optimizer": "ga",
            "replications": 100,
            "seed": 20240601,
            "output_dir": str(out),
            "workers": 2,
            "ga": {"pop_size": 100, "generations": 10},
            "reference_optimum": oracle_optimum.f_min,
            "convergence_tol": 2e-4,
        }
    )
    summary = run_study(config)["ga"]
    return summary, out


def test_criterion_1_grid_oracle(oracle_optimum):
    assert oracle_optimum.f_min == pytest.approx(1.8570, abs=5e-4)
    assert oracle_optimum.g_at_min >= 0.995
    # the CLI verb reports the same optimum within its budget
    start = time.perf_counter()
    result = CliRunner().invoke(cli_main, ["oracle", "analytical", "--grid", "2001"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    assert "feasible minimum f = 1.8570" in result.output
    assert elapsed < ORACLE_SECONDS
    print(f"criterion 1 PASS: grid minimum {oracle_optimum.f_min:.6f} in {elapsed:.2f}s")


def test_criterion_2_cbo_replication_band(cbo_study):
    summary, elapsed, _ = cbo_study
    row = summary.step_row(30)
    assert row["n_feasible"] == 100
    assert 1.8570 <= row["median"] <= 1.8574
    assert row["p95"] <= 1.8578
    assert elapsed < CBO_BUDGET_SECONDS
    print(
        f"criterion 2 PASS: step-30 median {row['median']:.6f}, "
        f"p95 {row['p95']:.6f}, {elapsed:.0f}s for 100 replications"
    )


def test_criterion_3_ga_band_at_450_evaluations(ga_study):
    summary, _ = ga_study
    row = summary.step_row(450)
    assert row["n_feasible"] == 100
    assert 1.8570 <= row["median"] <= 1.8700
    assert row["p5"] >= 1.8569
    print(
        f"criterion 3 PASS: eval-450 median {row['median']:.6f}, p5 {row['p5']:.6f}"
    )


def test_criterion_4_efficiency_ratio(cbo_study, ga_study):
    cbo_summary = cbo_study[0]
    ga_summary = ga_study[0]
    cbo_evals = [math.inf if c is None else c for c in cbo_summary.convergence_evals]
    ga_evals = [math.inf if c is None else c for c in ga_summary.convergence_evals]
    cbo_median = percentile(cbo_evals, 50.0)
    ga_median = percentile(ga_evals, 50.0)
    assert cbo_median <= 50
    assert ga_median >= 250
    ratio = cbo_median / ga_median  # inf-safe: ga_median >= 250
    assert ratio <= 0.2
    print(
        f"criterion 4 PASS: median evaluations cbo {cbo_median:.0f}, "
        f"ga {ga_median:.0f}, ratio {ratio:.3f}"
    )


def test_criterion_5_ei_matches_monte_carlo():
    rng = np.random.default_rng(90210)
    worst = 0.0
    for _ in range(50):
        mean = rng.uniform(-2.0, 2.0)
        sd = rng.uniform(0.05, 2.0)
        y_min = rng.uniform(-2.0, 2.0)
        draws = rng.normal(mean, sd, size=10 ** 6)
        samples = np.maximum(0.0, y_min - draws)
        mc = samples.mean()
        se = samples.std(ddof=1) / 1000.0
        closed = float(ei_values(np.array([mean]), np.array([sd ** 2]), y_min)[0])
        if se == 0.0:
            # improvement so unlikely that a million draws found none: both
            # routes must agree the EI sits below Monte-Carlo resolution
            assert mc == 0.0 and closed <= 1e-5
            continue
        gap = abs(closed - mc)
        assert gap <= 3.0 * se + 1e-12
        worst = max(worst, gap / (3.0 * se))
    print(f"criterion 5 PASS: 50 triples, worst gap {worst:.2f} of the 3-SE budget")


def test_criterion_6_gp_property_suite():
    rng = np.random.default_rng(777)
    checked = 0
    for _ in range(20):
        d = int(rng.choice([1, 2, 4]))
        n = int(rng.integers(5, 41))
        x = rng.random((n, d))
        y = np.sin(3.0 * x[:, 0]) + (x ** 2).sum(axis=1) + 0.2 * rng.standard_normal(n)
        model = fit_gp(x, y)

        means, variances = predict_batch(model, x)
        scale = max(y.max() - y.min(), 1e-12)
        assert np.max(np.abs(means - y)) <= 1e-6 * scale
        assert np.all(variances >= 0.0)
        _, query_vars = predict_batch(model, rng.random((50, d)))
        assert np.all(query_vars >= 0.0)

        perm = rng.permutation(n)
        q = rng.random((25, d))
        base_m, base_v = predict_batch(model, q)
        perm_m, perm_v = predict_batch(fit_gp(x[perm], y[perm]), q)
        assert np.max(np.abs(base_m - perm_m)) <= 1e-9
        assert np.max(np.abs(base_v - perm_v)) <= 1e-9

        init = np.clip(np.std(x, axis=0), 1e-3, 1e3)
        assert model.log_likelihood >= fit_gp(x, y, length_scales=init).log_likelihood - 1e-9
        checked += 1
    assert checked == 20
    print("criterion 6 PASS: 20 datasets, d in {1,2,4}, n in [5,40]")


def test_criterion_7_simulator_property_suite():
    kin, mech = KineticParams(), MechanicalParams()
    cycle = baseline_cycle()
    trace = simulate_cure(cycle, kin, mech, dt=0.1)
    half = simulate_cure(cycle, kin, mech, dt=0.05)

    assert np.all(np.diff(trace.alpha) >= 0.0)
    assert np.all((trace.alpha >= 0.0) & (trace.alpha <= 1.0))
    assert abs(trace.final_doc - half.final_doc) <= 1e-5
    assert trace.final_doc >= 0.99

    sol = solve_ivp(
        lambda t, a: max(0.0, cure_rate(min(max(a[0], 0.0), 1.0),
                                        float(cycle.temperature(t)) + 273.15, kin)),
        (0.0, cycle.duration),
        [0.0],
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
    )
    assert abs(trace.final_doc - sol.y[0][-1]) <= 1e-5

    for gamma in np.arange(-1.0, 1.0 + 1e-9, 0.1):
        m = MechanicalParams(gamma=float(gamma))
        assert chile_modulus(m.alpha_mod_lo, m) == pytest.approx(m.modulus_liquid, rel=1e-12)
        assert chile_modulus(m.alpha_mod_hi, m) == pytest.approx(m.modulus_cured, rel=1e-12)
        grid = chile_modulus(np.linspace(0, 1, 101), m)
        assert np.all(grid >= m.modulus_liquid - 1e-9)
        assert np.all(grid <= m.modulus_cured + 1e-9)

    assert volumetric_shrinkage(mech.alpha_shrink_lo, mech) == 0.0
    assert volumetric_shrinkage(mech.alpha_shrink_hi, mech) == pytest.approx(
        mech.shrink_total, rel=1e-12
    )
    assert shrinkage_strain(mech.shrink_total) == pytest.approx(-0.0300, abs=1e-4)
    print(
        f"criterion 7 PASS: baseline DoC {trace.final_doc:.4f}, "
        f"step-halving gap {abs(trace.final_doc - half.final_doc):.1e}"
    )


def _check_artifact_contract(out_dir: Path, prefix: str, expected_rows: int, threshold: float):
    csvs = sorted(out_dir.glob(f"{prefix}_rep*.csv"))
    assert len(csvs) == 100
    for path in csvs:
        lines = path.read_text().splitlines()
        assert len(lines) - 1 == expected_rows  # budget exactness
        columns = lines[0].split(",")
        f_i, g_i, best_i = columns.index("f"), columns.index("g"), columns.index("best_feasible")
        best = math.inf
        final_best_g = None
        for line in lines[1:]:
            cells = line.split(",")
            f, g = float(cells[f_i]), float(cells[g_i])
            tracked = cells[best_i]
            if g >= threshold and f < best:
                best, final_best_g = f, g
            if tracked:
                # the trace column is exactly the running best (so monotone)
                assert float(tracked) == best
        assert final_best_g is not None
        assert final_best_g >= threshold  # incumbent feasibility is exact


def test_criterion_8_constrained_run_contract(cbo_study, ga_study):
    _, _, cbo_dir = cbo_study
    _, ga_dir = ga_study
    _check_artifact_contract(cbo_dir, "cbo", 40, 0.995)
    _check_artifact_contract(ga_dir, "ga", 1100, 0.995)
    cbo_summary = cbo_study[0]
    ga_summary = ga_study[0]
    assert cbo_summary.evaluations_per_replication == [40] * 100
    assert ga_summary.evaluations_per_replication == [1100] * 100
    for summary in (cbo_summary, ga_summary):
        for i in range(1, len(summary.step_index)):
            a, b = summary.median[i - 1], summary.median[i]
            if a is not None and b is not None:
                assert b <= a + 1e-12  # aggregate trace is monotone too
    print("criterion 8 PASS: 200 replications, budget, feasibility, monotone traces")


def test_criterion_9_simulator_optimization_smoke():
    problem = two_point_problem(t1_min=1.0, threshold=0.995)
    baseline = simulate_cure(baseline_cycle(), KineticParams(), MechanicalParams(), dt=0.1)
    report = run_cbo(problem, CboConfig(n_init=10, n_steps=30, pool_size=10000), 7)
    assert report.complete and len(report.evaluations) == 40
    incumbent = report.incumbent
    assert incumbent is not None
    assert incumbent.g >= 0.995
    assert incumbent.f <= baseline.u_proxy
    raw = problem.space.denormalize(incumbent.x)
    print(
        f"criterion 9 PASS: incumbent u {incumbent.f:.6f} <= baseline "
        f"{baseline.u_proxy:.6f} at (t1={raw[0]:.1f} min, T1={raw[1]:.1f} C)"
    )
