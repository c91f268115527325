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

Every JSON input, a study config and a cycle trace config alike, is checked
by json_violations against the defaults of the parameters its keys set, and
json_arguments turns it into keyword arguments.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from curebo.cbo import CboConfig, run_cbo
from curebo.ga import GaConfig, run_ga
from curebo.problems.analytical import DOC_COEFFS, U_COEFFS, quad_surface
from curebo.problems.blackbox import FACTORIES, Problem
from curebo.records import RunReport

_PROBLEMS = tuple(FACTORIES)
_OPTIMIZERS = ("cbo", "ga", "both")


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


def _defaults(fn) -> dict:
    """Parameter name -> default of a function or dataclass (or inspect.Parameter.empty)."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


# What a JSON value must be, by the type of the default of the parameter it
# sets; bool comes before int, its base class.
_RULES = (
    (bool, lambda value: isinstance(value, bool), "true or false"),
    (int, _is_int, "an integer"),
    (float, _is_number, "a finite number"),
    (type(None), lambda value: value is None or _is_number(value), "a finite number or null"),
    (str, lambda value: isinstance(value, str), "a string"),
    (tuple, lambda value: isinstance(value, list) and all(map(_is_number, value)),
     "a list of finite numbers"),
)


def json_violations(values: dict, defaults: dict, prefix: str = "") -> list[str]:
    """Violations of a JSON object against the defaults of the parameters its
    keys set, each named by its path, prefix + key: a key that sets no
    parameter, a value that breaks the _RULES entry of its default, and in
    an object that sets a dataclass (or a dict of defaults) the same against
    its fields. A parameter without a default is the caller's to check."""
    unknown = [prefix + name for name in sorted(set(values) - set(defaults))]
    violations = [f"unknown keys: {', '.join(unknown)}"] if unknown else []
    for name in sorted(set(values) & set(defaults)):
        value, default, path = values[name], defaults[name], prefix + name
        if default is inspect.Parameter.empty:
            continue
        if is_dataclass(default):
            default = _defaults(type(default))
        if isinstance(default, dict):
            if isinstance(value, dict):
                violations += json_violations(value, default, f"{path}.")
            else:
                violations.append(f"{path} must be an object")
            continue
        rule = next((rule for rule in _RULES if isinstance(default, rule[0])), None)
        if rule is None:
            violations.append(f"{path} cannot be set from a config")
        elif not rule[1](value):
            violations.append(f"{path} must be {rule[2]}")
    return violations


def json_arguments(values: dict, defaults: dict) -> dict:
    """The keyword arguments values set, once json_violations finds none: an
    object that sets a dataclass parameter replaces fields of its default."""
    return {
        name: replace(defaults[name], **value) if is_dataclass(defaults[name]) else value
        for name, value in values.items()
    }


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
    cbo: CboConfig = CboConfig()
    ga: GaConfig = GaConfig()
    problem_options: dict = field(default_factory=dict)
    reference_optimum: Optional[float] = None
    convergence_tol: float = 2e-4

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The study of a parsed config, or ConfigError naming every violation:
        json_violations checks each key against the default it sets, this
        method the required fields and ranges, and a dry run that builds the
        optimizer budgets and the problem, each on its own, their
        constructors' checks."""
        if not isinstance(data, dict):
            raise ConfigError(["config must be a JSON object"])
        problem = data.get("problem")
        defaults = _defaults(cls)
        # with an unknown problem there are no parameters to check options against
        defaults["problem_options"] = (
            _defaults(FACTORIES[problem]) if problem in _PROBLEMS else inspect.Parameter.empty
        )
        violations = json_violations(data, defaults)
        if problem not in _PROBLEMS:
            violations.append(f"problem must be one of {_PROBLEMS}")
        if data.get("optimizer") not in _OPTIMIZERS:
            violations.append(f"optimizer must be one of {_OPTIMIZERS}")
        reps = data.get("replications")
        if not _is_int(reps) or reps < 1:
            violations.append("replications must be an integer >= 1")
        seed = data.get("seed")
        if not _is_int(seed) or seed < 0:  # numpy seeds only non-negative integers
            violations.append("seed must be a non-negative integer")
        out_dir = data.get("output_dir")
        if not isinstance(out_dir, str) or not out_dir:
            violations.append("output_dir must be a nonempty string")
        workers = data.get("workers")
        if _is_int(workers) and workers < 1:
            violations.append("workers must be an integer >= 1")
        tol = data.get("convergence_tol")
        if _is_number(tol) and tol <= 0:
            violations.append("convergence_tol must be a finite positive number")
        if violations:
            raise ConfigError(violations)

        # construct the optimizer budgets and the problem now, each on its
        # own, so that every constructor's complaint surfaces as a violation
        arguments = {}
        for name, value in data.items():
            try:
                arguments.update(json_arguments({name: value}, defaults))
            except (TypeError, ValueError) as exc:
                violations.append(str(exc))
        try:
            problem_from_options(problem, data.get("problem_options", {}))
        except (TypeError, ValueError) as exc:
            violations.append(str(exc))
        if violations:
            raise ConfigError(violations)
        config = cls(**arguments)
        ref = config.reference_optimum  # a JSON integer that sets a float is read as one
        return replace(config, reference_optimum=None if ref is None else float(ref),
                       convergence_tol=float(config.convergence_tol))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError([f"config is not valid JSON: {exc}"]) from None
        return cls.from_dict(data)


def problem_from_options(name: str, options: dict) -> Problem:
    """Call the named problem's factory with JSON options, or raise
    ConfigError naming every option that breaks its rule."""
    factory = FACTORIES[name]
    defaults = _defaults(factory)
    violations = json_violations(options, defaults)
    if violations:
        raise ConfigError(violations)
    return factory(**json_arguments(options, defaults))


def build_problem(config: RunConfig) -> Problem:
    """Call the configured problem's factory with problem_options."""
    return problem_from_options(config.problem, config.problem_options)


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
    run = run_cbo if optimizer == "cbo" else run_ga
    report = run(problem, getattr(config, optimizer), config.seed + index)
    out = Path(config.output_dir) / f"{optimizer}_rep{index:03d}.csv"
    _write_replication_csv(out, problem, report)
    ref = config.reference_optimum
    reach = None if ref is None else evals_to_reach(report, ref + config.convergence_tol)
    f_star = None if report.incumbent is None else report.incumbent.f
    return Replication(report.best_trace, report.n_evaluations, f_star, reach, report.events)


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """The process pool of run_study."""
    return ProcessPoolExecutor(max_workers=workers)


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
    min(workers, replications) processes. Only run_cbo calls BLAS, and it
    pins every loaded OpenBLAS to one thread for its loop, in a worker too.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    optimizers = ["cbo", "ga"] if config.optimizer == "both" else [config.optimizer]

    summaries: dict[str, StudySummary] = {}
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


# grid_oracle holds every grid point at once, about 40 bytes a point for the
# analytical problem (peak RSS 185 MB at 2001^2, 413 MB at 3162^2), so this
# cap keeps it near 0.4 GB while admitting criterion 1's 2001^2 grid
MAX_ORACLE_POINTS = 10_000_000


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
    if grid ** problem.space.dims > MAX_ORACLE_POINTS:
        raise ValueError(
            f"a {grid}^{problem.space.dims} grid has more than {MAX_ORACLE_POINTS} points"
        )
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
