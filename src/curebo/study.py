"""Batch orchestration: seeded replication studies, summaries, grid oracles.

A study executes one optimizer (or both) against one problem for a number of
replications, seeding replication i with root_seed + i. Artifacts are a CSV
evaluation log per replication, a CSV of the replications' events, a combined
per-step convergence CSV, and a JSON summary with mean/median/5th/95th
percentile of the best-feasible objective at every step. Outputs depend only
on the config contents, so reruns are byte identical regardless of worker
count. The summary and the convergence CSV are computed from each
replication's best_feasible column alone (see summarize).

Every JSON input, a study config and a cycle trace config alike, is checked
by json_violations against the defaults of the parameters its keys set, and
json_arguments turns it into keyword arguments.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from curebo.cbo import CboConfig, import_surrogate_scipy, run_cbo
from curebo.ga import GaConfig, run_ga
from curebo.problems.blackbox import FACTORIES, Problem
from curebo.records import RunReport
from curebo.space import sieve

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


# What a JSON value must be, by the type of the default of the parameter it sets
_RULES = (
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


# Statistic of a step's best-feasible values over replications -> its value;
# each is a StudySummary field and, after n_feasible, a convergence CSV column.
_STATISTICS = {
    "mean": lambda values: float(np.mean(values)),
    "median": lambda values: percentile(values, 50.0),
    "p5": lambda values: percentile(values, 5.0),
    "p95": lambda values: percentile(values, 95.0),
}
_STEP_COLUMNS = ("n_feasible", *_STATISTICS)


@dataclass(frozen=True)
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
        return {"step": step, **{name: getattr(self, name)[i] for name in _STEP_COLUMNS}}

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def summarize(
    config: RunConfig, optimizer: str, columns: list[list[Optional[float]]]
) -> StudySummary:
    """Aggregate the replications' best_feasible columns, one entry per
    evaluation each, in replication order.

    The step axis counts the cBO's learn steps (each cBO column loses its
    first config.cbo.n_init entries) and every evaluation of the GA. It runs
    to the longest trace; a replication that stopped early counts only at
    the steps it reached. convergence_evals counts every evaluation up to the
    first best feasible f within convergence_tol of the reference_optimum.
    """
    start = config.cbo.n_init if optimizer == "cbo" else 0
    traces = [column[start:] for column in columns]
    n_steps = max(map(len, traces), default=0)
    stats = {name: [] for name in _STEP_COLUMNS}
    for s in range(n_steps):  # one step's values at a time
        values = [trace[s] for trace in traces if s < len(trace) and trace[s] is not None]
        stats["n_feasible"].append(len(values))
        for name, statistic in _STATISTICS.items():
            stats[name].append(statistic(values) if values else None)
    convergence = {}
    if config.reference_optimum is not None:
        target = config.reference_optimum + config.convergence_tol
        conv = [
            next((i for i, v in enumerate(column, start=1) if v is not None and v <= target), None)
            for column in columns
        ]
        med = percentile([float("inf") if c is None else float(c) for c in conv], 50.0)
        convergence = {
            "reference_optimum": config.reference_optimum,
            "convergence_tol": config.convergence_tol,
            "convergence_evals": conv,
            "convergence_median": None if math.isinf(med) else med,
        }
    return StudySummary(
        problem=config.problem,
        optimizer=optimizer,
        replications=len(columns),
        step_index=list(range(1, n_steps + 1)),
        evaluations_per_replication=[len(column) for column in columns],
        final_best=[column[-1] if column else None for column in columns],
        **stats,
        **convergence,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _write_replication_csv(path: Path, problem: Problem, report: RunReport) -> None:
    """One row per evaluation, in the bytes csv.writer would write: no field
    needs quoting, "%.17g" % v is _fmt(v) for a float v, and the optional
    best_feasible and acq columns go through _fmt. The rows go to a temporary
    file that replaces path once complete, so path is never a partial log."""
    dims = problem.space.dims
    header = ["eval", "phase", "step", *problem.space.names, "f", "g", "best_feasible", "acq"]
    row = ",".join(["%d", "%s", "%d", *["%.17g"] * (dims + 2), "%s", "%s"]) + "\r\n"
    xs = np.array([e.x for e in report.evaluations]).reshape(-1, dims)
    raws = problem.space.denormalize(xs).tolist()
    cells = enumerate(zip(report.evaluations, report.best_feasible, raws), start=1)
    part = path.with_name(path.name + ".tmp")
    try:
        with open(part, "w", newline="") as handle:
            csv.writer(handle).writerow(header)
            handle.writelines(
                row % (i, e.phase, e.step_index, *raw, e.f, e.g, _fmt(best), _fmt(e.acq))
                for i, (e, best, raw) in cells
            )
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _write_convergence_csv(path: Path, summary: StudySummary) -> None:
    """One row per step; _fmt writes an n_feasible count as csv.writer would."""
    columns = [getattr(summary, name) for name in _STEP_COLUMNS]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", *_STEP_COLUMNS])
        writer.writerows(
            [step, *map(_fmt, values)] for step, *values in zip(summary.step_index, *columns)
        )


def _replicate(args) -> tuple[list[Optional[float]], list[str]]:
    """Run one replication, write its CSV and return its best_feasible
    column and events."""
    config, optimizer, index = args
    problem = build_problem(config)
    run = run_cbo if optimizer == "cbo" else run_ga
    report = run(problem, getattr(config, optimizer), config.seed + index)
    out = Path(config.output_dir) / f"{optimizer}_rep{index:03d}.csv"
    _write_replication_csv(out, problem, report)
    return report.best_feasible, report.events


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """The process pool of run_study. Its workers fork, so they start with
    the modules the parent has loaded."""
    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"))


def _replications(config: RunConfig, optimizer: str):
    """Run the replications of optimizer and yield each one's best_feasible
    column and events, in replication order whatever the worker count."""
    jobs = [(config, optimizer, i) for i in range(config.replications)]
    if config.workers > 1 and config.replications > 1:
        if optimizer == "cbo":
            import_surrogate_scipy()  # loaded before the fork, one import for every worker
        with worker_pool(min(config.workers, config.replications)) as pool:
            yield from pool.map(_replicate, jobs)
    else:
        yield from map(_replicate, jobs)


def run_study(config: RunConfig) -> dict[str, StudySummary]:
    """Execute all replications, write artifacts, and return the summaries.

    The replication of index i runs with seed root_seed + i. Its CSV and
    events are written as it finishes, so a study that raises keeps those of
    the replications before the failing one.

    With workers > 1 the replications run in a pool of
    min(workers, replications) processes. Only run_cbo calls BLAS, and it
    pins every loaded OpenBLAS to one thread for its loop, in a worker too.
    The pool forks, and before a cBO pool forks, the scipy submodules of the
    surrogates are loaded here, once for all its workers.
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
            columns = []
            for index, (column, logged) in enumerate(_replications(config, optimizer)):
                events.writerows([index, event] for event in logged)
                columns.append(column)
        summary = summarize(config, optimizer, columns)
        _write_convergence_csv(out_dir / f"{optimizer}_convergence.csv", summary)
        (out_dir / f"{optimizer}_summary.json").write_text(summary.to_json())
        summaries[optimizer] = summary
    return summaries


# grid_oracle holds one slab at a time (peak RSS 42 MB at 2001^2 for the
# analytical problem), so this cap bounds its work, not its memory: 10^7
# simulations take hours, while criterion 1's grid fits well inside
MAX_ORACLE_POINTS = 10_000_000
_ORACLE_SLAB = 1 << 16  # points evaluated at once: the analytical temporaries stay in cache


@dataclass(frozen=True)
class OracleResult:
    f_min: Optional[float]
    x_raw: Optional[np.ndarray]
    g_at_min: Optional[float]
    n_feasible: int
    runtime: float


def grid_oracle(problem: Problem, grid: int) -> OracleResult:
    """Brute-force feasible minimum over a full-factorial normalized grid.

    The grid is passed through the problem's sieve_raw, where it has one, as
    run_cbo does its pools, so the oracle searches the set the cBO searches
    and never evaluates a rejected point. Problem.evaluate_rows evaluates
    the rest at their raw coordinates, so each point scores what problem(x)
    returns there.

    The grid is built, sieved, evaluated and reduced one slab at a time: a
    slab is as many values of the first coordinate as keep it near
    _ORACLE_SLAB points, crossed with the full grid of the others. Only the
    best feasible point so far and the feasible count are kept, and a later
    point replaces the best only with a strictly smaller f, so ties go to
    the first in grid order."""
    if grid < 2:
        raise ValueError("grid needs at least 2 points per dimension")
    space = problem.space
    if grid ** space.dims > MAX_ORACLE_POINTS:
        raise ValueError(f"a {grid}^{space.dims} grid has more than {MAX_ORACLE_POINTS} points")
    t0 = time.perf_counter()
    axis = np.linspace(0.0, 1.0, grid)
    rows = max(1, _ORACLE_SLAB // grid ** (space.dims - 1))
    best, n_feasible = None, 0
    for start in range(0, grid, rows):
        mesh = np.meshgrid(axis[start : start + rows], *[axis] * (space.dims - 1), indexing="ij")
        points = np.stack(mesh).reshape(space.dims, -1).T  # a row per point, each column contiguous
        if problem.sieve_raw is not None:
            points = sieve(points, problem.sieve_raw, space)
        raw = space.denormalize(points)
        f, g = problem.evaluate_rows(raw)
        # records.feasible's rule: g >= threshold and a finite f
        feasible = np.flatnonzero((g >= problem.threshold) & np.isfinite(f))
        n_feasible += len(feasible)
        if len(feasible):
            k = int(feasible[np.argmin(f[feasible])])  # ties go to the first in grid order
            if best is None or f[k] < best[0]:
                best = (float(f[k]), space.denormalize(points[k]), float(g[k]))
    if best is None:
        return OracleResult(None, None, None, 0, time.perf_counter() - t0)
    return OracleResult(*best, n_feasible, time.perf_counter() - t0)
