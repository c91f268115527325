"""Self-test of the benchmark: every workload passes every check at quick
sizes, a corrupted output fails them, the traced run accounts for its wall
time, and the host-speed reference stays out of the timed steps.

    python3 -m pytest bench/test_bench.py
"""

import csv
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import checks  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def studies(tmp_path_factory):
    """One quick study per workload: (workload, output directory, references)."""
    out = {}
    for name, workload in run.QUICK.items():
        directory = tmp_path_factory.mktemp(name)
        assert run.run_round(run.study_config(workload, 0, directory)) is not None
        out[name] = (workload, directory, checks.references(workload.study["problem"]))
    return out


def corrupted(studies, name, tmp_path, edit):
    """Check a copy of a study whose first replication CSV went through edit."""
    workload, directory, refs = studies[name]
    copy = tmp_path / name
    shutil.copytree(directory, copy)
    path = copy / f"{workload.study['optimizer']}_rep000.csv"
    with open(path, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    edit(header, rows, workload.threshold)
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows([header, *rows])
    failed, problems, _ = checks.check_study(workload, copy, refs)
    return failed, problems


def incumbent_row(header, rows, threshold):
    f_i, g_i = header.index("f"), header.index("g")
    feasible = [r for r in rows if float(r[g_i]) >= threshold]
    return min(feasible, key=lambda r: float(r[f_i]))


def rewrite_running_best(header, rows, threshold):
    f_i, g_i, best_i = header.index("f"), header.index("g"), header.index("best_feasible")
    best = None
    for r in rows:
        f, g = float(r[f_i]), float(r[g_i])
        if g >= threshold and (best is None or f < best):
            best = f
        r[best_i] = "" if best is None else format(best, ".17g")


def test_quick_studies_pass_every_check(studies):
    for name, (workload, directory, refs) in studies.items():
        failed, problems, bests = checks.check_study(workload, directory, refs)
        assert (failed, problems) == (set(), []), name
        assert len(bests) == workload.study["replications"]


def test_incumbent_f_moved_by_1e3_is_caught(studies, tmp_path):
    def edit(header, rows, threshold):
        row = incumbent_row(header, rows, threshold)
        f_i = header.index("f")
        row[f_i] = format(float(row[f_i]) - 1e-3, ".17g")
        rewrite_running_best(header, rows, threshold)  # only the re-evaluation can tell

    failed, problems = corrupted(studies, "analytical_ga", tmp_path, edit)
    assert 0 in failed
    assert any("coefficients give" in p for p in problems)


def test_rising_best_feasible_cell_is_caught(studies, tmp_path):
    def edit(header, rows, threshold):
        best_i = header.index("best_feasible")
        row = rows[-1]
        row[best_i] = format(float(row[best_i]) + 1e-3, ".17g")

    failed, problems = corrupted(studies, "analytical_ga", tmp_path, edit)
    assert 0 in failed
    assert any("rose" in p for p in problems)


def test_simulator_g_moved_by_1e4_is_caught(studies, tmp_path):
    def edit(header, rows, threshold):
        row = incumbent_row(header, rows, threshold)
        g_i = header.index("g")
        row[g_i] = format(float(row[g_i]) + 1e-4, ".17g")

    failed, problems = corrupted(studies, "sim4pt_cbo", tmp_path, edit)
    assert 0 in failed
    assert any("re-integration gives" in p for p in problems)


def test_short_replication_is_caught(studies, tmp_path):
    failed, problems = corrupted(studies, "sim2pt_ga", tmp_path, lambda h, rows, t: rows.pop())
    assert 0 in failed
    assert any("budget" in p for p in problems)


def test_median_band_and_baseline_are_enforced():
    optimum = checks.analytical_optimum()
    assert checks.check_median_band([optimum + 1e-4] * 3, optimum, 4e-4) == []
    assert checks.check_median_band([optimum + 1e-3] * 3, optimum, 4e-4)
    assert checks.check_median_band([optimum - 1e-6] * 3, optimum, 4e-4)
    inc = checks.Incumbent(raw=(30.0, 150.0), f=0.02, g=checks.reintegrated_doc((30.0, 150.0)))
    assert checks.check_simulator_incumbent(inc, baseline=0.03) == []
    assert checks.check_simulator_incumbent(inc, baseline=0.01)


def test_traced_self_times_add_up_and_absent_names_are_reported(tmp_path, monkeypatch):
    gone = ("x.gone", "curebo.cbo", "no_such_function", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    workload = run.QUICK["sim4pt_cbo"]
    with tracing.Tracer() as tracer:
        assert run.run_round(run.study_config(workload, 0, tmp_path)) is not None
    assert tracer.absent == ["curebo.cbo.no_such_function"]
    root = next(s for s in tracer.spans if s[2] == "study.run_study")
    assert sum(tracing.self_times(tracer.spans).values()) == pytest.approx(root[4] - root[3], rel=1e-9)
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert list(metrics) == list(tracing.LAYER_METRICS)
    assert metrics["gp.fit_gp.calls"] == 2 * workload.study["cbo"]["n_steps"]
    assert metrics["problems.evaluate.calls"] == workload.budget


def test_reference_is_kept_out_of_step_and_round_times(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "REF_EVERY_S", 0.0)  # a reference sample after every evaluation
    workload = run.QUICK["sim2pt_ga"]
    host = run.HostSpeed()
    with run.StepClock(host) as clock:
        t0 = perf_counter()
        wall = run.run_round(run.study_config(workload, 0, tmp_path), host.now)
        real = perf_counter() - t0
    assert len(host.samples) == len(clock.steps_s) == workload.budget
    assert 0 < wall <= real - host.paused
    assert 0 < sum(clock.steps_s) <= wall
    # every GA evaluation is a step, scaled by the sample taken right after it
    speeds = run.REF_S / np.array(host.samples)
    assert np.allclose(clock.scaled_s, np.array(clock.steps_s) * speeds, rtol=1e-5)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim2pt_ga", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
