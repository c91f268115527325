"""Batch orchestration: seeded replication studies, summaries, grid oracles.

A study executes one optimizer (or both) against one problem for a number of
replications, seeding replication i with root_seed + i. Artifacts are a CSV
evaluation log per replication, a CSV of the replications' events, a combined
per-step convergence CSV, and a JSON summary with mean/median/5th/95th
percentile of the best-feasible objective at every step. Outputs depend only
on the config contents, so reruns are byte identical regardless of worker
count.

Step-axis convention: for cBO the step index counts acquisition-driven
evaluations after initialization; for the GA it counts raw evaluations,
initialization included.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from curebo.blas import openblas_pinned_to_one_thread, pin_openblas_to_one_thread
from curebo.cbo import CboConfig, run_cbo
from curebo.ga import GaConfig, run_ga
from curebo.problems import problem_by_name
from curebo.problems.analytical import DOC_COEFFS, U_COEFFS, quad_surface
from curebo.problems.blackbox import FACTORIES, Problem
from curebo.problems.simulate import KineticParams, MechanicalParams
from curebo.records import RunReport

_PROBLEMS = tuple(FACTORIES)
_OPTIMIZERS = ("cbo", "ga", "both")
_TOP_KEYS = {
    "problem",
    "optimizer",
    "replications",
    "seed",
    "output_dir",
    "workers",
    "cbo",
    "ga",
    "problem_options",
    "reference_optimum",
    "convergence_tol",
}
# The only optimizer settings a study config may set; each is a JSON integer.
# Every other CboConfig/GaConfig field comes from the problem or the seed.
_OPTIMIZER_KEYS = {"cbo": ("n_init", "n_steps", "pool_size"), "ga": ("pop_size", "generations")}


def _is_int(value) -> bool:
    """A JSON integer; true and false are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number. Python's json also reads NaN and Infinity, which
    RFC 8259 does not allow and which would come back out in the summary,
    and integers of any length, which float() cannot always convert."""
    if _is_int(value):
        try:
            value = float(value)
        except OverflowError:
            return False
    return isinstance(value, float) and math.isfinite(value)


def _typed_violations(prefix: str, values: dict, defaults: dict) -> list[str]:
    """Values whose JSON type does not match the default of the parameter
    they set: a float default takes a finite number, a bool default true or
    false, a None default (an optional float) null or a finite number, and
    any other default cannot be set from JSON. Names that are not parameters
    are left to the constructor, which rejects them."""
    violations = []
    for name, value in sorted(values.items()):
        if name not in defaults:
            continue
        default = defaults[name]
        if isinstance(default, bool):
            if not isinstance(value, bool):
                violations.append(f"{prefix}{name} must be true or false")
        elif default is None:
            if value is not None and not _is_number(value):
                violations.append(f"{prefix}{name} must be a finite number or null")
        elif isinstance(default, float):
            if not _is_number(value):
                violations.append(f"{prefix}{name} must be a finite number")
        else:
            violations.append(f"{prefix}{name} cannot be set from a config")
    return violations


def _option_violations(prefix: str, options: dict, defaults: dict) -> list[str]:
    """Type violations in options, the problem_options of a study or a cycle
    trace config: every option against defaults, kinetics and mechanical
    against the fields of KineticParams and MechanicalParams."""
    violations = _typed_violations(prefix, options, defaults)
    for key, params in (("kinetics", KineticParams), ("mechanical", MechanicalParams)):
        if key not in options:
            continue
        if not isinstance(options[key], dict):
            violations.append(f"{prefix}{key} must be an object")
        else:
            field_defaults = {f.name: f.default for f in fields(params)}
            violations += _typed_violations(f"{prefix}{key}.", options[key], field_defaults)
    return violations


class ConfigError(ValueError):
    """Invalid run configuration; message lists every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class RunConfig:
    """One study: problem, optimizer(s), replication count, seeding, output."""

    problem: str
    optimizer: str
    replications: int
    seed: int
    output_dir: str
    workers: int = 1
    cbo: dict = field(default_factory=dict)  # subset of _OPTIMIZER_KEYS["cbo"]
    ga: dict = field(default_factory=dict)  # subset of _OPTIMIZER_KEYS["ga"]
    problem_options: dict = field(default_factory=dict)
    reference_optimum: Optional[float] = None
    convergence_tol: float = 2e-4

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        violations = []
        if not isinstance(data, dict):
            raise ConfigError(["config must be a JSON object"])
        unknown = sorted(set(data) - _TOP_KEYS)
        if unknown:
            violations.append(f"unknown keys: {', '.join(unknown)}")
        problem = data.get("problem")
        if problem not in _PROBLEMS:
            violations.append(f"problem must be one of {_PROBLEMS}")
        optimizer = data.get("optimizer")
        if optimizer not in _OPTIMIZERS:
            violations.append(f"optimizer must be one of {_OPTIMIZERS}")
        reps = data.get("replications")
        if not _is_int(reps) or reps < 1:
            violations.append("replications must be an integer >= 1")
        seed = data.get("seed")
        if not _is_int(seed):
            violations.append("seed must be an integer")
        out_dir = data.get("output_dir")
        if not isinstance(out_dir, str) or not out_dir:
            violations.append("output_dir must be a nonempty string")
        workers = data.get("workers", 1)
        if not _is_int(workers) or workers < 1:
            violations.append("workers must be an integer >= 1")
        for key in ("cbo", "ga", "problem_options"):
            if not isinstance(data.get(key, {}), dict):
                violations.append(f"{key} must be an object")
            elif key == "problem_options" and problem in _PROBLEMS:
                parameters = inspect.signature(FACTORIES[problem]).parameters
                defaults = {name: p.default for name, p in parameters.items()}
                violations += _option_violations("problem_options.", data.get(key, {}), defaults)
            elif key in _OPTIMIZER_KEYS:
                for name, value in sorted(data.get(key, {}).items()):
                    if name not in _OPTIMIZER_KEYS[key]:
                        violations.append(f"unknown {key} key: {name}")
                    elif not _is_int(value):
                        violations.append(f"{key}.{name} must be an integer")
        ref = data.get("reference_optimum")
        if ref is not None and not _is_number(ref):
            violations.append("reference_optimum must be a finite number")
        tol = data.get("convergence_tol", 2e-4)
        if not _is_number(tol) or tol <= 0:
            violations.append("convergence_tol must be a finite positive number")
        if violations:
            raise ConfigError(violations)

        config = cls(
            problem=problem,
            optimizer=optimizer,
            replications=reps,
            seed=seed,
            output_dir=out_dir,
            workers=workers,
            cbo=dict(data.get("cbo", {})),
            ga=dict(data.get("ga", {})),
            problem_options=dict(data.get("problem_options", {})),
            reference_optimum=None if ref is None else float(ref),
            convergence_tol=float(tol),
        )
        # dry-run the nested constructions so their complaints surface now
        try:
            problem_obj = build_problem(config)
            if config.optimizer in ("cbo", "both"):
                _cbo_config(config, problem_obj, config.seed)
            if config.optimizer in ("ga", "both"):
                _ga_config(config, problem_obj, config.seed)
        except (TypeError, ValueError) as exc:
            raise ConfigError(violations + [str(exc)]) from None
        return config

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError([f"config is not valid JSON: {exc}"]) from None
        return cls.from_dict(data)


def build_problem(config: RunConfig) -> Problem:
    """Instantiate the configured problem, applying material overrides."""
    options = dict(config.problem_options)
    kinetics = options.pop("kinetics", None)
    mechanical = options.pop("mechanical", None)
    if config.problem in ("sim2pt", "sim4pt"):
        if kinetics:
            options["kin"] = replace(KineticParams(), **kinetics)
        if mechanical:
            options["mech"] = replace(MechanicalParams(), **mechanical)
    elif kinetics or mechanical:
        raise ConfigError(["material overrides only apply to simulator problems"])
    return problem_by_name(config.problem, **options)


def _cbo_config(config: RunConfig, problem: Problem, seed: int) -> CboConfig:
    return CboConfig(
        **config.cbo, threshold=problem.threshold, seed=seed, sieve_predicate=problem.sieve_raw
    )


def _ga_config(config: RunConfig, problem: Problem, seed: int) -> GaConfig:
    return GaConfig(**config.ga, threshold=problem.threshold, seed=seed)


def percentile(values, p: float) -> float:
    """Order statistic with linear interpolation at rank 1 + p/100 (n-1)."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("percentile of an empty list")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile level must lie in [0, 100]")
    rank = 1.0 + (p / 100.0) * (len(vals) - 1)
    low = int(math.floor(rank))
    frac = rank - low
    if frac == 0.0:  # exact order statistic; also avoids inf * 0
        return vals[low - 1]
    high = min(low + 1, len(vals))
    return vals[low - 1] * (1.0 - frac) + vals[high - 1] * frac


def evals_to_reach(report: RunReport, target: float) -> Optional[int]:
    """1-based count of true evaluations until best feasible f <= target."""
    for i, best in enumerate(report.best, start=1):
        if best is not None and report.evaluations[best].f <= target:
            return i
    return None


@dataclass(frozen=True)
class Replication:
    """One replication's summary inputs; evals_to_reach is None without a reference_optimum."""

    best_trace: list[Optional[float]]
    n_evaluations: int
    f_star: Optional[float]
    evals_to_reach: Optional[int]
    events: list[str]


@dataclass
class StudySummary:
    """Per-step aggregates of the best-feasible objective over replications."""

    problem: str
    optimizer: str
    replications: int
    step_index: list[int]
    n_feasible: list[int]
    mean: list[Optional[float]]
    median: list[Optional[float]]
    p5: list[Optional[float]]
    p95: list[Optional[float]]
    evaluations_per_replication: list[int]
    final_best: list[Optional[float]]
    reference_optimum: Optional[float] = None
    convergence_tol: Optional[float] = None
    convergence_evals: Optional[list[Optional[int]]] = None
    convergence_median: Optional[float] = None

    def step_row(self, step: int) -> dict:
        i = self.step_index.index(step)
        return {
            "step": step,
            "n_feasible": self.n_feasible[i],
            "mean": self.mean[i],
            "median": self.median[i],
            "p5": self.p5[i],
            "p95": self.p95[i],
        }

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def summarize(config: RunConfig, optimizer: str, rows: list[Replication]) -> StudySummary:
    """Aggregate best-feasible traces across replications.

    The step axis runs to the longest trace; a replication that stopped early
    counts only at the steps it reached.
    """
    n_steps = max((len(r.best_trace) for r in rows), default=0)
    steps, counts, means, medians, p5s, p95s = [], [], [], [], [], []
    for s in range(n_steps):
        values = [
            r.best_trace[s] for r in rows if s < len(r.best_trace) and r.best_trace[s] is not None
        ]
        steps.append(s + 1)
        counts.append(len(values))
        if values:
            means.append(float(np.mean(values)))
            medians.append(percentile(values, 50.0))
            p5s.append(percentile(values, 5.0))
            p95s.append(percentile(values, 95.0))
        else:
            means.append(None)
            medians.append(None)
            p5s.append(None)
            p95s.append(None)

    summary = StudySummary(
        problem=config.problem,
        optimizer=optimizer,
        replications=len(rows),
        step_index=steps,
        n_feasible=counts,
        mean=means,
        median=medians,
        p5=p5s,
        p95=p95s,
        evaluations_per_replication=[r.n_evaluations for r in rows],
        final_best=[r.f_star for r in rows],
    )
    if config.reference_optimum is not None:
        conv = [r.evals_to_reach for r in rows]
        summary.reference_optimum = config.reference_optimum
        summary.convergence_tol = config.convergence_tol
        summary.convergence_evals = conv
        as_inf = [float("inf") if c is None else float(c) for c in conv]
        med = percentile(as_inf, 50.0)
        summary.convergence_median = None if math.isinf(med) else med
    return summary


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _write_replication_csv(path: Path, problem: Problem, report: RunReport) -> None:
    """One row per evaluation, in the bytes csv.writer would write: no field
    needs quoting, "%.17g" % v is _fmt(v) for a float v, and the optional
    best_feasible and acq columns go through _fmt."""
    dims = problem.space.dims
    header = ["eval", "phase", "step", *problem.space.names, "f", "g", "best_feasible", "acq"]
    row = ",".join(["%d", "%s", "%d", *["%.17g"] * (dims + 2), "%s", "%s"]) + "\r\n"
    evaluations = report.evaluations
    xs = np.array([e.x for e in evaluations]).reshape(-1, dims)
    raws = problem.space.denormalize(xs).tolist()
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        handle.writelines(
            row % (i, e.phase, e.step_index, *raw, e.f, e.g,
                   _fmt(None if b is None else evaluations[b].f), _fmt(e.acq))
            for i, (e, b, raw) in enumerate(zip(evaluations, report.best, raws), start=1)
        )


def _write_convergence_csv(path: Path, summary: StudySummary) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "n_feasible", "mean", "median", "p5", "p95"])
        for i, step in enumerate(summary.step_index):
            writer.writerow(
                [
                    step,
                    summary.n_feasible[i],
                    _fmt(summary.mean[i]),
                    _fmt(summary.median[i]),
                    _fmt(summary.p5[i]),
                    _fmt(summary.p95[i]),
                ]
            )


def _replicate(args) -> Replication:
    """Run one replication, write its CSV and return its summary inputs."""
    config, optimizer, index = args
    problem = build_problem(config)
    run, make = (run_cbo, _cbo_config) if optimizer == "cbo" else (run_ga, _ga_config)
    report = run(problem, problem.space, make(config, problem, config.seed + index))
    out = Path(config.output_dir) / f"{optimizer}_rep{index:03d}.csv"
    _write_replication_csv(out, problem, report)
    ref = config.reference_optimum
    reach = None if ref is None else evals_to_reach(report, ref + config.convergence_tol)
    f_star = None if report.incumbent is None else report.incumbent.f
    return Replication(report.best_trace, report.n_evaluations, f_star, reach, report.events)


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """The process pool of run_study; each worker runs its BLAS single-threaded."""
    return ProcessPoolExecutor(max_workers=workers, initializer=pin_openblas_to_one_thread)


def _replications(config: RunConfig, optimizer: str):
    """Run the replications of optimizer and yield each one's summary inputs,
    in replication order whatever the worker count."""
    jobs = [(config, optimizer, i) for i in range(config.replications)]
    if config.workers > 1 and config.replications > 1:
        with worker_pool(min(config.workers, config.replications)) as pool:
            yield from pool.map(_replicate, jobs)
    else:
        yield from map(_replicate, jobs)


def run_study(config: RunConfig) -> dict[str, StudySummary]:
    """Execute all replications, write artifacts, and return the summaries.

    Replication i runs with seed root_seed + i. Its CSV and events are
    written as it finishes, so a study that raises keeps those of the
    replications before the failing one.

    With workers > 1 the replications run in a pool of
    min(workers, replications) processes. Every loaded OpenBLAS runs one
    thread for the whole study, in each worker and in the calling process,
    which gets its own counts back on return: one BLAS thread per core in
    every worker would oversubscribe the cores, and one rule for every
    worker count keeps results independent of the caller's setting.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    optimizers = ["cbo", "ga"] if config.optimizer == "both" else [config.optimizer]

    summaries: dict[str, StudySummary] = {}
    with openblas_pinned_to_one_thread():
        for optimizer in optimizers:
            # opened before any replication runs, so an unwritable directory fails first
            with open(out_dir / f"{optimizer}_events.csv", "w", newline="") as handle:
                events = csv.writer(handle)
                events.writerow(["replication", "event"])
                rows = []
                for index, row in enumerate(_replications(config, optimizer)):
                    events.writerows([index, event] for event in row.events)
                    rows.append(row)
            summary = summarize(config, optimizer, rows)
            _write_convergence_csv(out_dir / f"{optimizer}_convergence.csv", summary)
            (out_dir / f"{optimizer}_summary.json").write_text(summary.to_json())
            summaries[optimizer] = summary
    return summaries


@dataclass(frozen=True)
class OracleResult:
    f_min: Optional[float]
    x_raw: Optional[np.ndarray]
    g_at_min: Optional[float]
    n_feasible: int
    grid: int
    runtime: float


def grid_oracle(problem: Problem, grid: int) -> OracleResult:
    """Brute-force feasible minimum over a full-factorial normalized grid."""
    if grid < 2:
        raise ValueError("grid needs at least 2 points per dimension")
    t0 = time.perf_counter()
    axis = np.linspace(0.0, 1.0, grid)
    cols = [m.ravel() for m in np.meshgrid(*([axis] * problem.space.dims), indexing="ij")]
    if problem.name == "analytical":
        f, g = quad_surface(U_COEFFS, *cols), quad_surface(DOC_COEFFS, *cols)
    else:
        f, g = np.array([problem(x) for x in np.stack(cols, axis=1)]).T
    # records.feasible's rule: g >= threshold and a finite f
    feasible = np.flatnonzero((g >= problem.threshold) & np.isfinite(f))
    n_feasible = len(feasible)
    if n_feasible == 0:
        return OracleResult(None, None, None, 0, grid, time.perf_counter() - t0)
    k = int(feasible[np.argmin(f[feasible])])  # ties go to the first in grid order
    return OracleResult(
        f_min=float(f[k]),
        x_raw=problem.space.denormalize(np.array([c[k] for c in cols])),
        g_at_min=float(g[k]),
        n_feasible=n_feasible,
        grid=grid,
        runtime=time.perf_counter() - t0,
    )
