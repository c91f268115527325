"""Benchmark of three curebo studies, run through `curebo.study.run_study`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --quick [--workload NAME]

Every study runs in this one process with workers=1 and every BLAS pinned to
one thread before numpy loads, so a run repeats closely on a small shared
machine. A run repeats the same study (same seed, same inputs) in rounds until
the next round would end more than half a round after --seconds, then checks
every replication's artifacts against computations made apart from the
program (see checks.py).

With --trace 0 the last line reports the end-to-end metrics, the wall and
step times scaled to a reference speed of the host (see HostSpeed); with
--trace 1 the public functions of each layer are wrapped (see tracing.py) and
it reports the per-layer metrics instead, unscaled. --quick runs the workloads at tiny sizes,
once, with every check. See README.md for the workloads and their metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, here and in the set-up children

import argparse
import array
import hashlib
import json
import math
import resource
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median, median_low
from time import perf_counter
from typing import Optional

import numpy as np

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
SEED_BASE = 20240601  # the shipped configs' root seed
SETUP_STARTS = 5
# The host-speed reference (HostSpeed): its length, how often it runs, and its
# median time on the machine README.md describes, which the scaled times use.
REF_LOOP = 6000
REF_EVERY_S = 0.05
REF_S = 0.00096


@dataclass(frozen=True)
class Workload:
    study: dict  # RunConfig fields other than seed, output_dir and workers
    band: Optional[float] = None  # analytical: median final best may lie this far above the optimum

    @property
    def threshold(self) -> float:
        return self.study.get("problem_options", {}).get("threshold", 0.995)

    @property
    def budget(self) -> int:
        if self.study["optimizer"] == "cbo":
            return self.study["cbo"]["n_init"] + self.study["cbo"]["n_steps"]
        return self.study["ga"]["pop_size"] * (self.study["ga"]["generations"] + 1)


_SIM2PT = {"t1_min": 1.0, "threshold": 0.995}
_SIM4PT = {"threshold": 0.96}
# Bands are criterion 3's (GA) width, 1.3e-2, and at quick sizes 0.05.
WORKLOADS = {
    "analytical_ga": Workload(
        {"problem": "analytical", "optimizer": "ga", "replications": 50,
         "ga": {"pop_size": 100, "generations": 10}}, band=1.3e-2),
    "sim2pt_ga": Workload(
        {"problem": "sim2pt", "optimizer": "ga", "replications": 1,
         "ga": {"pop_size": 30, "generations": 10}, "problem_options": _SIM2PT}),
    "sim4pt_cbo": Workload(
        {"problem": "sim4pt", "optimizer": "cbo", "replications": 3,
         "cbo": {"n_init": 15, "n_steps": 35, "pool_size": 10000}, "problem_options": _SIM4PT}),
}
# Tiny sizes: the same code paths and checks, with bands wide enough for them.
QUICK = {
    "analytical_ga": Workload(
        {"problem": "analytical", "optimizer": "ga", "replications": 3,
         "ga": {"pop_size": 10, "generations": 3}}, band=0.05),
    "sim2pt_ga": Workload(
        {"problem": "sim2pt", "optimizer": "ga", "replications": 1,
         "ga": {"pop_size": 8, "generations": 3}, "problem_options": _SIM2PT}),
    "sim4pt_cbo": Workload(
        {"problem": "sim4pt", "optimizer": "cbo", "replications": 1,
         "cbo": {"n_init": 8, "n_steps": 3, "pool_size": 500}, "problem_options": _SIM4PT}),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "best_f_p50": "objective",
}

SETUP_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from curebo.study import RunConfig, build_problem
build_problem(RunConfig.from_dict(json.loads(sys.argv[2])))
print("ready", flush=True)
"""


def study_config(workload: Workload, seed: int, out_dir: Path) -> dict:
    return {**workload.study, "seed": SEED_BASE + 1000 * seed, "output_dir": str(out_dir), "workers": 1}


def setup_start(config: dict) -> float:
    """Time from launching a fresh interpreter to its problem being built:
    import curebo, RunConfig.from_dict, build_problem."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(config)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as child:
        ready = child.stdout.readline().strip() == "ready"
        elapsed = perf_counter() - t0
    if not ready or child.returncode != 0:
        raise RuntimeError(f"set-up child exited with code {child.returncode}")
    return elapsed


class HostSpeed:
    """The host's speed, from a fixed reference computation timed between
    evaluations. This shared host speeds up and slows down by 20% and more
    over minutes, with bursts of half as fast again that last under a
    second, and the program's code with it (see README.md). A time scaled by
    REF_S / (the reference time measured at that moment) is the time at the
    reference speed, and it repeats where raw times do not. A clock that
    stops while the reference runs keeps it out of every step and round."""

    def __init__(self):
        self.samples = array.array("d")  # reference times
        self.at = array.array("d")  # when each was taken, on the clock `now`
        self.paused = 0.0
        self._last = perf_counter()

    def now(self) -> float:
        """perf_counter without the time spent in the reference."""
        return perf_counter() - self.paused

    @staticmethod
    def reference() -> float:
        """Time of a fixed interpreted loop of scalar float arithmetic and
        math.exp, like the simulator's rate function."""
        t0 = perf_counter()
        acc, x = 0.0, 0.5
        for _ in range(REF_LOOP):
            acc += math.exp(-1.0001 * x) * (1.0 - x) if x < 0.7 else 0.5 * x
            x = (x + 3.7e-5) % 1.0
        return perf_counter() - t0

    def sample(self):
        t0 = perf_counter()
        self.at.append(t0 - self.paused)
        self.samples.append(self.reference())
        self._last = perf_counter()
        self.paused += self._last - t0

    def poll(self):
        """Sample if REF_EVERY_S has passed since the last sample."""
        if perf_counter() - self._last >= REF_EVERY_S:
            self.sample()

    def speed_at(self, times) -> np.ndarray:
        """REF_S / the reference time of the sample nearest each time (on
        the clock `now`)."""
        at, ref = np.frombuffer(self.at), np.frombuffer(self.samples)
        times = np.asarray(times, dtype=float)
        hi = np.clip(np.searchsorted(at, times), 0, len(at) - 1)
        lo = np.clip(hi - 1, 0, len(at) - 1)
        nearest = np.where(np.abs(times - at[lo]) <= np.abs(at[hi] - times), lo, hi)
        return REF_S / ref[nearest]

    def mean_speed(self, first: int) -> float:
        """Mean of REF_S / reference time over the samples from index first:
        samples come evenly in time, so this is the speed averaged over the
        time they span."""
        return float(np.mean(REF_S / np.frombuffer(self.samples)[first:]))


class StepClock:
    """Step times on the study's own step axis, from one clock read after
    each evaluation. A cBO step is an acquisition-driven evaluation, timed
    from the end of the evaluation before it; every GA evaluation is a step,
    the first of a replication timed from the replication's start. The
    clock is `host.now`; the host's speed is sampled after evaluations, and
    each step is also kept scaled by the speed sampled nearest its end."""

    def __init__(self, host: HostSpeed):
        self.host = host
        # compact: their size must not move peak RSS
        self.steps_s = array.array("f")
        self.scaled_s = array.array("f")
        self._saved: list[tuple] = []

    def __enter__(self):
        from curebo import study
        from curebo.problems.blackbox import Problem
        from curebo.records import PHASE_LEARN

        stamps: list[float] = []
        evaluate = Problem.__call__
        now, poll = self.host.now, self.host.poll

        def timed_evaluate(problem, x):
            out = evaluate(problem, x)
            poll()
            stamps.append(now())
            return out

        def timed(run, every_evaluation):
            def replicate(problem, space, config):
                stamps[:] = [now()]
                report = run(problem, space, config)
                ends = np.array(stamps[1:])
                gaps = ends - np.array(stamps[:-1])
                speeds = self.host.speed_at(ends)
                for gap, speed, e in zip(gaps, speeds, report.evaluations):
                    if every_evaluation or e.phase == PHASE_LEARN:
                        self.steps_s.append(gap)
                        self.scaled_s.append(gap * speed)
                return report

            return replicate

        for owner, attr, fn in (
            (Problem, "__call__", timed_evaluate),
            (study, "run_cbo", timed(study.run_cbo, False)),
            (study, "run_ga", timed(study.run_ga, True)),
        ):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, fn)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def run_round(config: dict, clock=perf_counter) -> Optional[float]:
    """Wall time of one run_study call on clock, or None if it raised."""
    from curebo import study

    run_config = study.RunConfig.from_dict(config)
    t0 = clock()
    try:
        study.run_study(run_config)
    except Exception:  # noqa: BLE001 - a failed study counts its replications as failed
        traceback.print_exc()
        return None
    return clock() - t0


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workload = (QUICK if quick else WORKLOADS)[name]
    run_dir = OUT / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if not quick:  # fill lazy imports and caches before timing
        run_round(study_config(QUICK[name], seed, run_dir / "warmup"))
    setup_config = study_config(workload, seed, run_dir / "setup")
    setup_starts = 0 if trace else 1 if quick else SETUP_STARTS
    setup_times: list[float] = []

    rounds: list[Path] = []
    walls: list[Optional[float]] = []
    # of each round that completed: (raw steps, scaled steps, scaled wall)
    timed_rounds: list[tuple[array.array, array.array, float]] = []
    layer_rounds: list[dict] = []
    unaccounted = 0  # traced rounds whose self times do not add up to their wall time
    host = HostSpeed()  # untraced runs only
    clock = StepClock(host)
    tracer = tracing.Tracer()
    start = perf_counter()
    with tracer if trace else clock:
        while True:
            out_dir = run_dir / f"round{len(rounds)}"
            config = study_config(workload, seed, out_dir)
            first_span = len(tracer.spans)
            tracer.start_round(len(rounds))
            first_step, first_sample = len(clock.steps_s), len(host.samples)
            if not trace:
                host.sample()  # at least one sample per round
            walls.append(run_round(config, perf_counter if trace else host.now))
            rounds.append(out_dir)
            if not trace and walls[-1] is not None:
                timed_rounds.append((clock.steps_s[first_step:], clock.scaled_s[first_step:],
                                     walls[-1] * host.mean_speed(first_sample)))
            if trace and walls[-1] is not None:
                spans = tracer.spans[first_span:]
                root = next(s for s in spans if s[2] == "study.run_study")
                wall = root[4] - root[3]
                own = sum(tracing.self_times(spans).values())
                print(f"round {len(rounds) - 1}: traced wall_s {wall:.6f}, self times sum to {own:.6f}")
                unaccounted += abs(own - wall) > 1e-6 * wall
                size = sum(p.stat().st_size for p in out_dir.iterdir())
                layer_rounds.append(tracing.layer_metrics(spans, size))
            elapsed = perf_counter() - start
            if len(setup_times) < setup_starts:
                # one start-up between rounds, so that they sample the whole
                # window; the window does not count them
                t0 = perf_counter()
                setup_times.append(setup_start(setup_config))
                start += perf_counter() - t0
            # stop when the next round would end more than half a round late
            if quick or walls[-1] is None or elapsed + walls[-1] / 2 > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_times) < setup_starts:
        setup_times.append(setup_start(setup_config))

    reps = workload.study["replications"]
    refs = checks.references(workload.study["problem"])
    failed_reps, problems, final_bests = checks.check_study(workload, rounds[0], refs)
    base = digest(rounds[0])
    failed = 0
    for out_dir, wall in zip(rounds, walls):
        if wall is None:
            failed += reps
        elif out_dir != rounds[0] and digest(out_dir) != base:
            problems.append(f"{out_dir.name}: artifacts differ from round0's")
            failed += reps
        else:
            failed += len(failed_reps)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if unaccounted:
        print(f"{unaccounted} traced rounds: self times do not add up to the wall time", file=sys.stderr)

    ok_walls = [w for w in walls if w is not None]
    print(f"{name} seed {seed}: {reps} replications x {len(rounds)} rounds, "
          f"attempted {reps * len(rounds)}, failed {failed}")
    print("round walls (s): " + " ".join("failed" if w is None else f"{w:.4f}" for w in walls))
    if trace:
        tracer.write(run_dir / "spans.jsonl")
        if tracer.absent:
            print("absent: " + ", ".join(tracer.absent))
        if ok_walls:
            print(f"traced wall_s = {median(ok_walls)} s")
        values = {k: median_low(r[k] for r in layer_rounds) if layer_rounds else 0.0
                  for k in tracing.LAYER_METRICS}
        units = tracing.LAYER_METRICS
    else:
        # every round runs the same steps: take each step's median over the rounds
        same = [r for r in timed_rounds if len(r[0]) == len(timed_rounds[0][0])] if timed_rounds else []

        def times(steps, walls):
            steps = np.median(np.array(steps), axis=0) * 1e3 if steps else np.array([])
            return {
                "wall_s": median(walls) if walls else None,
                "step_ms_p50": float(np.percentile(steps, 50)) if steps.size else None,
                "step_ms_p90": float(np.percentile(steps, 90)) if steps.size else None,
            }

        raw = times([r[0] for r in same], ok_walls)
        values = {
            **times([r[1] for r in same], [r[2] for r in timed_rounds]),
            "setup_s": median(setup_times) if setup_times else None,  # not scaled
            "peak_rss_mb": peak_rss_mb,
            "best_f_p50": median(final_bests) if final_bests else None,
        }
        units = END_TO_END_UNITS
        print(f"steps timed: {len(same[0][0]) if same else 0} per round, median over {len(same)} rounds; "
              f"set-up starts (s): " + " ".join(f"{t:.4f}" for t in setup_times))
        print(f"host speed: {len(host.samples)} reference samples, median "
              f"{median(host.samples) * 1e3:.4f} ms, mean speed {host.mean_speed(0):.4f}")
        print("raw times: " + ", ".join(f"{k} = {v}" for k, v in raw.items()))
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k, m in metrics.items():
        print(f"  {k} = {m['value']} {m['unit']}")
    return {
        "correct": failed == 0 and not unaccounted,
        "attempted": reps * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one round, every workload unless one is named")
    args = parser.parse_args(argv)
    if not (SRC / "curebo" / "__init__.py").is_file():
        print(f"no curebo sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.quick:
        parser.error("--workload is required without --quick")
    sys.path.insert(0, str(SRC))
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.quick) for n in names]
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
