"""What a fresh interpreter loads: each test runs its script in a new Python
process, since this one has loaded scipy's submodules long before."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curebo

SCIPY_SUBMODULES = ("scipy.linalg", "scipy.optimize", "scipy.spatial", "scipy.special")

START_UP = """\
import json, sys
from pathlib import Path
import curebo
from curebo import cli
from curebo.study import RunConfig, build_problem, run_study

tmp = Path(sys.argv[1])


def base(problem, name, **extra):
    return {"problem": problem, "optimizer": "both", "replications": 1, "seed": 0,
            "output_dir": str(tmp / name), **extra}


def command(*args):
    try:
        cli.main(list(args))
    except SystemExit as exit:
        assert exit.code == 0, (args, exit.code)


for problem in ("analytical", "sim2pt", "sim4pt"):
    build_problem(RunConfig.from_dict(base(problem, problem)))
run_study(RunConfig.from_dict(base("analytical", "ga", optimizer="ga", replications=2,
                                   ga={"pop_size": 4, "generations": 2})))
(tmp / "cycle.json").write_text(json.dumps({"variant": "two-point", "params": [60, 140], "dt": 0.5}))
command("trace", str(tmp / "cycle.json"), "--out", str(tmp / "trace.csv"))
command("oracle", "sim2pt", "--grid", "3")
command("--help")
print(json.dumps(sorted(sys.modules)))
"""

PINNED_FITS = """\
import json
from curebo import CboConfig, analytical_problem, cbo, run_cbo
from curebo.blas import openblas_threads

fits = []
fit_gp = cbo.fit_gp


def recording(train_x, train_y):
    model = fit_gp(train_x, train_y)  # the first fit loads scipy's submodules
    fits.append(openblas_threads())
    return model


cbo.fit_gp = recording
report = run_cbo(analytical_problem(), CboConfig(n_init=4, n_steps=2, pool_size=50), 0)
assert report.complete, report.events
print(json.dumps({"fits": fits, "after": openblas_threads()}))
"""

FORKED_WORKERS = """\
import json, sys
from pathlib import Path
from curebo import study

tmp = Path(sys.argv[1])
replicate = study._replicate


def recording(args):
    # runs in a worker: what it finds loaded before its replication starts
    loaded = [name for name in %r if name in sys.modules]
    (tmp / f"loaded{args[2]}.json").write_text(json.dumps(loaded))
    return replicate(args)


study._replicate = recording
config = study.RunConfig.from_dict({
    "problem": "analytical", "optimizer": "cbo", "replications": 2, "workers": 2, "seed": 0,
    "output_dir": str(tmp / "out"), "cbo": {"n_init": 4, "n_steps": 1, "pool_size": 20}})
study.run_study(config)
print(json.dumps([json.loads((tmp / f"loaded{i}.json").read_text()) for i in range(2)]))
""" % (SCIPY_SUBMODULES,)


def _run(script: str, *args: str) -> str:
    """Last line of what script prints in a new interpreter that finds this
    curebo first, with no BLAS thread variable set."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(curebo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_start_up_and_numpy_only_runs_load_no_scipy_submodule(tmp_path):
    # import, config checks and problem builds, a GA study, trace, oracle and
    # --help: only a surrogate fit needs scipy beyond its package
    loaded = json.loads(_run(START_UP, str(tmp_path)))
    assert [name for name in SCIPY_SUBMODULES if name in loaded] == []


def test_fresh_run_fits_with_every_openblas_at_one_thread():
    # scipy's own OpenBLAS loads with scipy.linalg; run_cbo must load it
    # before it pins the loaded libraries, or the fits run it unpinned
    out = json.loads(_run(PINNED_FITS))
    fits, after = out["fits"], out["after"]
    if not after:
        pytest.skip("no loaded OpenBLAS exposes openblas_get_num_threads")
    if max(after.values()) == 1:
        pytest.skip("every OpenBLAS here starts at one thread, as a pinned one runs")
    assert len(fits) == 4
    assert fits == [{path: 1 for path in after}] * 4


def test_cbo_study_workers_start_with_the_scipy_submodules_loaded(tmp_path):
    # the parent loads them once before it forks the pool, so no worker
    # pays for the import again
    loaded = json.loads(_run(FORKED_WORKERS, str(tmp_path)))
    assert loaded == [list(SCIPY_SUBMODULES)] * 2
