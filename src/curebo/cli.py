"""Command-line entry points: run studies, brute-force oracles, trace cycles.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical error.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from curebo.gp import NumericalError
from curebo.problems import build_cycle, simulate_cure
from curebo.problems.blackbox import FACTORIES
from curebo.problems.cycle import BUILDERS, cycle_parameters
from curebo.problems.simulate import IntegrationError, KineticParams, MechanicalParams
from curebo.study import (
    ConfigError,
    RunConfig,
    grid_oracle,
    json_arguments,
    json_violations,
    problem_from_options,
    run_study,
)

EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

_DEFAULT_ORACLE_GRID = {"analytical": 2001, "sim2pt": 15, "sim4pt": 7}
# the keys of a cycle trace config and their defaults, checked by json_violations
_TRACE_DEFAULTS = {"variant": "baseline", "params": (), "kinetics": KineticParams(),
                   "mechanical": MechanicalParams(), "dt": 0.1}


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, ValueError, TypeError, json.JSONDecodeError) as exc:
            click.echo(f"validation error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)
        except (NumericalError, IntegrationError) as exc:
            click.echo(f"numerical error: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)

    return wrapper


@click.group()
def main():
    """Cure-cycle optimization studies: constrained BO, GA baseline, simulator."""


@main.command()
@click.argument("config_file", type=click.Path())
@_guarded
def run(config_file):
    """Execute the study described by a JSON config file."""
    config = RunConfig.from_file(config_file)
    summaries = run_study(config)
    click.echo(f"artifacts written to {config.output_dir}")
    for name, summary in summaries.items():
        if summary.step_index:
            last = summary.step_index[-1]
            row = summary.step_row(last)
        else:  # every replication stopped before its first step
            last, row = "n/a", {"median": None, "p95": None}
        med = "n/a" if row["median"] is None else f"{row['median']:.6f}"
        p95 = "n/a" if row["p95"] is None else f"{row['p95']:.6f}"
        click.echo(
            f"{name}: {summary.replications} replications, step {last}: "
            f"median best-feasible {med}, 95th percentile {p95}"
        )
        if summary.convergence_median is not None:
            click.echo(
                f"{name}: median evaluations to reach "
                f"{summary.reference_optimum:.6g} + {summary.convergence_tol:.1e}: "
                f"{summary.convergence_median:.0f}"
            )


@main.command()
@click.argument("problem_name", type=click.Choice(sorted(FACTORIES)))
@click.option("--grid", type=int, default=None, help="Grid points per dimension.")
@click.option("--threshold", type=float, default=None, help="Feasibility threshold override.")
@_guarded
def oracle(problem_name, grid, threshold):
    """Brute-force grid search: print the feasible minimum and its argmin."""
    options = {} if threshold is None else {"threshold": threshold}
    problem = problem_from_options(problem_name, options)  # a study's problem_options rules
    if grid is None:
        grid = _DEFAULT_ORACLE_GRID[problem_name]
    result = grid_oracle(problem, grid)
    if result.f_min is None:
        click.echo(f"no feasible point on a {grid}^{problem.space.dims} grid")
        sys.exit(EXIT_VALIDATION)
    coords = ", ".join(f"{n}={v:.6g}" for n, v in zip(problem.space.names, result.x_raw))
    click.echo(f"feasible minimum f = {result.f_min:.6f} at {coords}")
    click.echo(
        f"g = {result.g_at_min:.6f} (threshold {problem.threshold}), "
        f"{result.n_feasible} feasible grid points, "
        f"grid {grid}^{problem.space.dims}, {result.runtime:.2f}s"
    )


@main.command()
@click.argument("cycle_config", type=click.Path())
@click.option("--out", type=click.Path(), default="trace.csv", help="Output CSV path.")
@_guarded
def trace(cycle_config, out):
    """Simulate one cure cycle described by a JSON file and write its trace."""
    with open(cycle_config) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("cycle config must be a JSON object")
    params = data.get("params")
    if isinstance(params, dict):
        variant = data.get("variant", _TRACE_DEFAULTS["variant"])
        keys = cycle_parameters(variant) if variant in BUILDERS else ()
        missing = [k for k in keys if k not in params]
        if missing:
            raise ValueError(f"{variant} params lack {', '.join(missing)}")
        data = {**data, "params": [params[k] for k in keys]}
    violations = json_violations(data, _TRACE_DEFAULTS)
    if violations:
        raise ConfigError(violations)
    options = {**_TRACE_DEFAULTS, **json_arguments(data, _TRACE_DEFAULTS)}
    cycle = build_cycle(options["variant"], options["params"])
    result = simulate_cure(cycle, options["kinetics"], options["mechanical"], float(options["dt"]))
    result.write_csv(out)
    gel = "never" if result.gel_index is None else f"{result.time_min[result.gel_index]:.2f} min"
    click.echo(f"trace written to {out} ({len(result.time_min)} rows)")
    click.echo(
        f"final DoC = {result.final_doc:.6f}, deformation proxy = {result.u_proxy:.6f}, "
        f"gelation: {gel}"
    )


if __name__ == "__main__":
    main()
