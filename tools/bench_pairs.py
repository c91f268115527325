"""Alternating pairs of benchmark runs on two checkouts of this repository.

    python3 tools/bench_pairs.py --base DIR --change DIR --workload NAME \\
        --pairs 10 --tag NAME [--seed 0]

Each checkout (a `git worktree add`, a clone or an exported tree) runs its own
unchanged bench/run.py, from its own root, one run at a time, for the
run_seconds of the base's BENCHMARK.json. Pair i runs the base first when i is
even and the change first when i is odd, so that a drift of the host's speed
does not favour one side. Give it fresh checkouts: where
PYTHONDONTWRITEBYTECODE is set, a __pycache__ older than its sources is
recompiled at every start, which slows that side's set-up starts alone (7 ms
a start for three edited modules on a 2-core host). After every pair it writes
BENCH_<tag>.json at the root of this repository, so an interrupted session
keeps the pairs it finished. One file holds any number of workloads and
seeds: a run replaces the entry of its own workload and seed, keyed
"<workload> seed <seed>", and keeps the others.

For each end-to-end metric of the base's BENCHMARK.json the file holds each
side's median and quartiles and the pairs the change won (ties count for
neither). It also holds each side's failed and attempted replications,
under "runs" every run's result, and under "host" the core count, the BLAS
thread variables of this environment (bench/run.py sets each to 1 for its own
runs) and the Python, numpy and scipy versions of this interpreter, which runs
both sides.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIDES = ("base", "change")


def _git(checkout: Path, *args: str):
    """Output of git in checkout, or None where it is not a git checkout."""
    done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def describe(checkout: Path) -> dict:
    """The commit of a checkout and the tree id of its src/, which stays the
    same when only documents change; both None outside git."""
    return {"commit": _git(checkout, "rev-parse", "HEAD"),
            "src_tree": _git(checkout, "rev-parse", "HEAD:src")}


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON of one bench/run.py run in checkout."""
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{checkout}: bench/run.py exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(q2), "q1": float(q1), "q3": float(q3)}


def compare(metrics: list[dict], runs: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles and the pairs
    the change won."""
    out = {}
    pairs = max((r["pair"] for r in runs), default=-1) + 1
    for metric in metrics:
        name, lower_better = metric["name"], metric["better"] == "lower"
        values = {side: [None] * pairs for side in SIDES}
        for r in runs:
            values[r["side"]][r["pair"]] = r["metrics"][name]["value"]
        complete = [(b, c) for b, c in zip(values["base"], values["change"])
                    if b is not None and c is not None]
        if not complete:
            continue
        out[name] = {
            "unit": metric["unit"],
            **{side: quartiles(v) for side, v in zip(SIDES, zip(*complete))},
            "change_won": sum((c < b) if lower_better else (c > b) for b, c in complete),
            "pairs": len(complete),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"--{side} {checkout} has no bench/run.py")
    benchmark = json.loads((checkouts["base"] / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    out = ROOT / f"BENCH_{args.tag}.json"
    record = json.loads(out.read_text()) if out.is_file() else {"workloads": {}}
    host = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARIABLES},
    }
    entry = {**{side: describe(c) for side, c in checkouts.items()},
             "workload": args.workload, "seed": args.seed, "seconds": seconds, "host": host,
             "metrics": {}, "runs": []}
    record["workloads"][f"{args.workload} seed {args.seed}"] = entry
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            result = bench_run(checkouts[side], args.workload, args.seed, seconds)
            entry["runs"].append({"pair": pair, "side": side, **result})
            shown = {k: m["value"] for k, m in result["metrics"].items()}
            print(f"pair {pair} {side}: {shown}", file=sys.stderr, flush=True)
        entry["metrics"] = compare(metrics, entry["runs"])
        entry["failed_of_attempted"] = {
            side: [sum(r[k] for r in entry["runs"] if r["side"] == side) for k in ("failed", "attempted")]
            for side in SIDES
        }
        out.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in entry["metrics"].items():
        print(f"{name}: base {m['base']['median']:.6g} change {m['change']['median']:.6g} "
              f"{m['unit']}, change won {m['change_won']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
