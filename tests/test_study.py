import csv
import itertools
import json
import math
from dataclasses import FrozenInstanceError, asdict, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from curebo import cbo, cli, study
from curebo.blas import openblas_threads
from curebo.cbo import CboConfig
from curebo.cli import main
from curebo.problems.blackbox import FACTORIES, Problem, analytical_problem, four_point_problem
from curebo.records import Evaluation, feasible
from curebo.space import DesignSpace
from curebo.study import (
    ConfigError,
    RunConfig,
    build_problem,
    grid_oracle,
    percentile,
    run_study,
    summarize,
)
from logs import logged


def small_config(tmp_path, **overrides):
    data = {
        "problem": "analytical",
        "optimizer": "cbo",
        "replications": 3,
        "seed": 42,
        "output_dir": str(tmp_path / "out"),
        "workers": 1,
        "cbo": {"n_init": 5, "n_steps": 4, "pool_size": 200},
    }
    data.update(overrides)
    return data


def test_percentile_examples():
    assert percentile(range(1, 101), 50.0) == pytest.approx(50.5)
    assert percentile([7.25], 0.0) == 7.25
    assert percentile([7.25], 95.0) == 7.25
    assert percentile([10, 20, 30, 40], 5.0) == pytest.approx(11.5)  # rank 1.15
    assert percentile([3, 1, 2], 50.0) == 2.0  # order independent
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 120.0)


def test_config_lists_every_violation():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"problem": "bad", "optimizer": "bad", "replications": 0})
    message = str(err.value)
    for fragment in ("problem", "optimizer", "replications", "seed", "output_dir"):
        assert fragment in message


def test_config_rejects_unknown_keys_and_nested_errors(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        RunConfig.from_dict(small_config(tmp_path, extra_knob=1))
    with pytest.raises(ConfigError, match="n_init"):
        RunConfig.from_dict(small_config(tmp_path, cbo={"n_init": 1}))
    with pytest.raises(ConfigError, match="t1_min"):
        RunConfig.from_dict(small_config(tmp_path, problem_options={"t1_min": "x"}))


def test_config_checks_the_budget_of_an_optimizer_the_study_does_not_run(tmp_path):
    with pytest.raises(ConfigError, match="n_init must be at least 2"):
        RunConfig.from_dict(small_config(tmp_path, optimizer="ga", cbo={"n_init": 1}))


def test_config_reports_every_constructor_fault_at_once(tmp_path):
    data = small_config(tmp_path, problem="sim2pt", optimizer="both", problem_options={"dt": 0},
                        cbo={"n_init": 1}, ga={"pop_size": 3})
    with pytest.raises(ConfigError) as caught:
        RunConfig.from_dict(data)
    assert sorted(caught.value.violations) == [
        "dt must be positive",
        "n_init must be at least 2",
        "pop_size must be an even count of at least 2",
    ]


# Optimizer settings a study config cannot set: fit and operator settings are
# fixed, threshold and sieve come from the problem, seed from the replication,
# and the budget keys must be JSON integers.
@pytest.mark.parametrize(
    "section, key, value",
    [
        ("cbo", "fit", {"restarts": 0}),
        ("cbo", "sieve_predicate", "x"),
        ("cbo", "duplicate_tol", "x"),
        ("cbo", "threshold", "high"),
        ("cbo", "pool_size", 50.0),
        ("cbo", "seed", 5),
        ("cbo", "use_sieve", "no"),
        ("cbo", "n_steps", True),
        ("ga", "pop_size", 4.0),
        ("ga", "tournament_size", 2.5),
        ("ga", "generations", True),
    ],
)
def test_config_rejects_optimizer_settings_outside_the_schema(tmp_path, section, key, value):
    data = small_config(tmp_path, optimizer=section, ga={"pop_size": 4, "generations": 1})
    data[section][key] = value
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(data)


def test_cli_run_rejects_a_fixed_setting_before_writing(tmp_path):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(small_config(tmp_path, cbo={"n_init": 5, "fit": {"restarts": 0}})))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 2, res.output
    assert "validation error:" in res.output and "fit" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", sorted((Path(__file__).parent.parent / "configs").glob("*.json")))
def test_shipped_configs_load(path):
    config = RunConfig.from_file(path)
    assert config.output_dir


@pytest.mark.parametrize(
    "key", ["replications", "seed", "workers", "reference_optimum", "convergence_tol"]
)
def test_config_rejects_json_booleans_as_numbers(tmp_path, key):
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(small_config(tmp_path, **{key: True}))


@pytest.mark.parametrize(
    "key, value", [("convergence_tol", math.nan), ("reference_optimum", math.inf),
                   ("reference_optimum", -math.inf),
                   pytest.param("convergence_tol", 10**400, id="convergence_tol-1e400"),
                   pytest.param("reference_optimum", -(10**400), id="reference_optimum--1e400")]
)
def test_config_rejects_non_finite_numbers(tmp_path, key, value):
    # json reads NaN and Infinity, which the summary JSON must not write back,
    # and integers too long for float()
    with pytest.raises(ConfigError, match=f"{key} must be a finite"):
        RunConfig.from_dict(small_config(tmp_path, **{key: value}))


# Each value's JSON type differs from the default of the parameter it sets,
# it is an integer too long to convert to a float, it is out of range, or
# its key sets no parameter.
@pytest.mark.parametrize(
    "problem, options, message",
    [
        ("analytical", {"threshold": "high"}, "problem_options.threshold must be a finite number"),
        ("analytical", {"threshold": math.nan}, "problem_options.threshold must be a finite number"),
        ("sim2pt", {"kinetics": {"a1": "x"}}, "problem_options.kinetics.a1 must be a finite number"),
        ("sim2pt", {"kin": {"a1": 1.0}}, "unknown keys: problem_options.kin"),
        ("sim4pt", {"require_rising_second_ramp": True},
         "unknown keys: problem_options.require_rising_second_ramp"),
        ("sim4pt", {"mechanical": {"shrink_profile_a": "x"}}, "finite number or null"),
        ("sim4pt", {"mechanical": [0.1]}, "problem_options.mechanical must be an object"),
        pytest.param("sim2pt", {"kinetics": {"a1": 10**400}},
                     "problem_options.kinetics.a1 must be a finite number", id="sim2pt-a1-1e400"),
        # values under which the design box holds cycles that cannot be assembled
        ("sim2pt", {"t1_min": 0}, "t1_min must be greater than 1e-09 min"),
        ("sim2pt", {"t1_min": 1e-9}, "t1_min must be greater than 1e-09 min"),
        # the start temperature is fixed at 20 C
        ("sim2pt", {"start_temp": 200}, "unknown keys: problem_options.start_temp"),
        ("sim4pt", {"start_temp": 180.5}, "unknown keys: problem_options.start_temp"),
        ("sim2pt", {"start_temp": -300}, "unknown keys: problem_options.start_temp"),
        ("sim4pt", {"start_temp": -273.15}, "unknown keys: problem_options.start_temp"),
    ],
)
def test_cli_run_rejects_mistyped_problem_options_before_writing(tmp_path, problem, options, message):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(small_config(tmp_path, problem=problem, problem_options=options)))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 2, res.output
    assert "validation error:" in res.output and message in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "problem, options, violations",
    [
        ("sim2pt", {"kinetics": {"a9": 1}, "mechanical": {"zz": 1}},
         ["unknown keys: problem_options.kinetics.a9", "unknown keys: problem_options.mechanical.zz"]),
        ("analytical", {"kinetics": {"a1": 1.0}, "dt": 0.1},
         ["unknown keys: problem_options.dt, problem_options.kinetics"]),
    ],
)
def test_config_names_every_unknown_key_by_its_path(tmp_path, problem, options, violations):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(small_config(tmp_path, problem=problem, problem_options=options))
    assert err.value.violations == violations


# Written as JSON, every default passes the rules: a parameter whose default
# has no rule could not be set from a config. No default is a bool: there is
# no rule for one, and the int rule, its base class's, rejects true and false.
@pytest.mark.parametrize(
    "defaults",
    [*(study._defaults(factory) for factory in FACTORIES.values()), cli._TRACE_DEFAULTS],
    ids=[*FACTORIES, "trace"],
)
def test_every_parameter_default_has_a_rule(defaults):
    as_json = json.loads(json.dumps(
        {name: asdict(value) if is_dataclass(value) else value for name, value in defaults.items()}
    ))
    nested = [v for fields in as_json.values() if isinstance(fields, dict) for v in fields.values()]
    assert [v for v in [*as_json.values(), *nested] if isinstance(v, bool)] == []
    assert study.json_violations(as_json, defaults) == []


def test_cli_run_rejects_a_negative_seed_before_writing(tmp_path):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(small_config(tmp_path, seed=-1)))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 2, res.output
    assert "validation error: seed must be a non-negative integer" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("problem", ["sim2pt", "sim4pt"])
@pytest.mark.parametrize("dt", [0, -0.1])
def test_cli_run_rejects_non_positive_dt_before_writing(tmp_path, problem, dt):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(small_config(tmp_path, problem=problem, problem_options={"dt": dt})))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 2, res.output
    assert "validation error:" in res.output and "dt must be positive" in res.output
    assert not (tmp_path / "out").exists()


def test_config_accepts_problem_options_of_the_default_types(tmp_path):
    options = {"dt": 0.5, "threshold": 1,
               "mechanical": {"shrink_profile_a": None, "gamma": 0.25}}
    config = RunConfig.from_dict(small_config(tmp_path, problem="sim4pt", problem_options=options))
    assert build_problem(config).threshold == 1


def test_worker_pool_is_capped_at_the_replication_count(tmp_path, monkeypatch):
    sizes = []

    class InProcessPool:
        def __init__(self, workers):
            sizes.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(study, "worker_pool", InProcessPool)
    run_study(RunConfig.from_dict(small_config(tmp_path, workers=64, replications=2)))
    assert sizes == [2]


def test_single_replication_percentiles_collapse(tmp_path):
    config = RunConfig.from_dict(small_config(tmp_path, replications=1))
    summary = run_study(config)["cbo"]
    for i in range(len(summary.step_index)):
        if summary.n_feasible[i]:
            assert summary.p5[i] == summary.median[i] == summary.p95[i]


def test_summary_percentiles_ordered_and_artifacts_exist(tmp_path):
    config = RunConfig.from_dict(small_config(tmp_path))
    summary = run_study(config)["cbo"]
    out = Path(config.output_dir)
    assert (out / "cbo_summary.json").exists()
    assert (out / "cbo_convergence.csv").exists()
    csvs = sorted(out.glob("cbo_rep*.csv"))
    assert len(csvs) == 3
    header = csvs[0].read_text().splitlines()[0]
    assert header == "eval,phase,step,t,T,f,g,best_feasible,acq"
    # acquisition values recorded for every learn-phase row
    for line in csvs[0].read_text().splitlines()[1:]:
        cells = line.split(",")
        assert (cells[1] == "learn") == (cells[-1] != "")
    for i in range(len(summary.step_index)):
        if summary.n_feasible[i]:
            assert summary.p5[i] <= summary.median[i] <= summary.p95[i]
    assert summary.convergence_evals is summary.convergence_median is None
    assert_convergence_csv_holds(out / "cbo_convergence.csv", summary)


def test_rerun_is_byte_identical(tmp_path):
    config = RunConfig.from_dict(small_config(tmp_path))
    run_study(config)
    out = Path(config.output_dir)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    run_study(config)
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


@pytest.mark.parametrize("optimizer", ["cbo", "ga"])
def test_worker_count_does_not_change_artifacts(tmp_path, optimizer):
    serial = RunConfig.from_dict(
        small_config(tmp_path, optimizer=optimizer, output_dir=str(tmp_path / "serial"))
    )
    parallel = RunConfig.from_dict(
        small_config(tmp_path, optimizer=optimizer, output_dir=str(tmp_path / "parallel"), workers=2)
    )
    run_study(serial)
    run_study(parallel)
    for path in sorted(Path(serial.output_dir).iterdir()):
        twin = Path(parallel.output_dir) / path.name
        assert twin.read_bytes() == path.read_bytes(), path.name


@pytest.mark.skipif(
    not openblas_threads(), reason="no loaded OpenBLAS exposes openblas_get_num_threads"
)
def test_study_workers_run_blas_single_threaded(tmp_path, monkeypatch):
    # run_cbo pins its own loop, in a worker too; a study pins nothing and
    # leaves the caller's counts as they were, also when it raises
    import scipy.linalg  # noqa: F401 - scipy's OpenBLAS, as after any earlier fit

    parent = openblas_threads()
    pinned = {path: 1 for path in parent}
    fit_gp = cbo.fit_gp

    def checked(train_x, train_y):
        if openblas_threads() != pinned:  # raised in a forked worker, it ends the study
            raise RuntimeError(f"surrogate fitted at {openblas_threads()} BLAS threads")
        return fit_gp(train_x, train_y)

    monkeypatch.setattr(cbo, "fit_gp", checked)
    for workers in (2, 1):
        run_study(RunConfig.from_dict(small_config(tmp_path, workers=workers)))
        assert openblas_threads() == parent

    def failing(train_x, train_y):
        raise RuntimeError("replication 0 failed")

    monkeypatch.setattr(cbo, "fit_gp", failing)
    with pytest.raises(RuntimeError, match="replication 0 failed"):
        run_study(RunConfig.from_dict(small_config(tmp_path, output_dir=str(tmp_path / "serial"))))
    assert openblas_threads() == parent


def test_a_failed_replication_keeps_the_csvs_of_those_before_it(tmp_path, monkeypatch):
    config = RunConfig.from_dict(small_config(
        tmp_path, optimizer="ga", replications=4, ga={"pop_size": 4, "generations": 1}
    ))
    run_ga = study.run_ga

    def failing(problem, ga_config, seed):
        if seed == config.seed + 2:
            raise RuntimeError("replication 2 failed")
        return run_ga(problem, ga_config, seed)

    monkeypatch.setattr(study, "run_ga", failing)
    with pytest.raises(RuntimeError, match="replication 2 failed"):
        run_study(config)
    out = Path(config.output_dir)
    assert sorted(p.name for p in out.glob("ga_rep*.csv")) == ["ga_rep000.csv", "ga_rep001.csv"]
    assert (out / "ga_rep001.csv").read_text().count("\n") == 1 + 8  # header and 8 evaluations


def test_both_optimizers_and_convergence_tracking(tmp_path):
    config = RunConfig.from_dict(
        small_config(
            tmp_path,
            optimizer="both",
            ga={"pop_size": 10, "generations": 2},
            reference_optimum=1.8570136,
            convergence_tol=0.05,
        )
    )
    summaries = run_study(config)
    assert set(summaries) == {"cbo", "ga"}
    for summary in summaries.values():
        assert summary.convergence_evals is not None
        assert len(summary.convergence_evals) == 3
    assert summaries["ga"].evaluations_per_replication == [30, 30, 30]
    for name, summary in summaries.items():
        assert_convergence_csv_holds(Path(config.output_dir) / f"{name}_convergence.csv", summary)


def assert_convergence_csv_holds(path, summary):
    """The convergence CSV is the summary's step rows, each statistic through _fmt."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["step", "n_feasible", "mean", "median", "p5", "p95"]
    assert len(rows) == len(summary.step_index)
    for cells, step in zip(rows, summary.step_index):
        row = summary.step_row(step)
        stats = [study._fmt(row[name]) for name in ("mean", "median", "p5", "p95")]
        assert cells == [str(step), str(row["n_feasible"]), *stats]


@pytest.mark.parametrize("reference", [None, 1.5])
def test_convergence_csv_reads_back_as_the_summary(tmp_path, reference):
    config = RunConfig(problem="analytical", optimizer="ga", replications=3, seed=0,
                       output_dir="-", reference_optimum=reference)
    columns = [[None, 3.0, 1.5], [None, 1.0], [None, 4.0, 2.0]]
    summary = summarize(config, "ga", columns)
    assert summary.n_feasible == [0, 3, 2]
    assert summary.mean[0] is summary.median[0] is summary.p5[0] is summary.p95[0] is None
    assert summary.mean[1] == pytest.approx(8.0 / 3.0) and summary.p95[2] == pytest.approx(1.975)
    assert summary.final_best == [1.5, 1.0, 2.0] and summary.evaluations_per_replication == [3, 2, 3]
    if reference is None:
        assert summary.reference_optimum is summary.convergence_tol is None
        assert summary.convergence_evals is summary.convergence_median is None
    else:
        assert summary.reference_optimum == 1.5 and summary.convergence_tol == 2e-4
        assert summary.convergence_evals == [3, 2, None] and summary.convergence_median == 3.0
    path = tmp_path / "ga_convergence.csv"
    study._write_convergence_csv(path, summary)
    assert_convergence_csv_holds(path, summary)
    with open(path, newline="") as fh:
        assert list(csv.reader(fh))[1] == ["1", "0", "", "", "", ""]
    with pytest.raises(FrozenInstanceError):
        summary.median = [2.0]


def test_unwritable_output_fails_before_compute(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    config_data = small_config(tmp_path, output_dir=str(blocker / "out"))
    config = RunConfig.from_dict(config_data)
    with pytest.raises(OSError):
        run_study(config)


def test_an_infeasible_smaller_f_does_not_count_toward_convergence():
    evals = [
        Evaluation(x=np.zeros(1), f=2.0, g=1.0, step_index=0, acq=None),
        Evaluation(x=np.zeros(1), f=3.0, g=1.0, step_index=0, acq=None),
        Evaluation(x=np.zeros(1), f=1.0, g=0.0, step_index=1, acq=0.5),
        Evaluation(x=np.zeros(1), f=1.2, g=1.0, step_index=2, acq=0.25),
    ]
    report = logged(evals, 0.5)
    assert report.best_feasible == [2.0, 2.0, 2.0, 1.2] and report.incumbent is evals[3]

    def summary(reference):
        config = RunConfig(problem="analytical", optimizer="cbo", replications=1, seed=0,
                           output_dir="-", cbo=CboConfig(n_init=2), reference_optimum=reference)
        return summarize(config, "cbo", [report.best_feasible])

    assert summary(None).median == [2.0, 1.2]  # one entry per learn step
    assert summary(2.5).convergence_evals == [1]
    assert summary(1.3).convergence_evals == [4]  # the infeasible f=1.0 does not count
    assert summary(0.5).convergence_evals == [None]


def test_summarize_counts_a_short_replication_only_up_to_its_last_step():
    config = RunConfig(problem="analytical", optimizer="cbo", replications=2, seed=0,
                       output_dir="-", cbo=CboConfig(n_init=2))
    summary = summarize(config, "cbo", [[None, None, None, 3.0, 2.0], [5.0, 1.0, 1.0]])
    assert summary.step_index == [1, 2, 3]
    assert summary.n_feasible == [1, 1, 1]
    assert summary.median == [1.0, 3.0, 2.0]
    assert summary.final_best == [2.0, 1.0]
    assert summary.evaluations_per_replication == [5, 3]


def test_generic_grid_oracle_agrees_with_fast_path():
    problem = build_problem(RunConfig.from_dict(small_config(Path("."))))
    fast = grid_oracle(problem, 41)
    generic = grid_oracle(replace(problem, raw_fn=lambda raw: problem.raw_fn(raw)), 41)
    assert fast.f_min == pytest.approx(generic.f_min, rel=0.0, abs=0.0)
    assert np.allclose(fast.x_raw, generic.x_raw)
    assert fast.n_feasible == generic.n_feasible


# the oracle searches what the problem evaluates: its evaluator, its sieve and its space
def test_grid_oracle_evaluates_the_problems_own_function():
    toy = replace(analytical_problem(), raw_fn=lambda raw: (raw[0] + raw[1], 1.0))
    result = grid_oracle(toy, 11)
    assert result.f_min == 0.0 and result.x_raw.tolist() == [0.0, 0.0]


def test_grid_oracle_applies_the_analytical_problems_sieve():
    problem = replace(analytical_problem(), sieve_raw=lambda raw: raw[1] > 0.5)
    result = grid_oracle(problem, 101)
    assert result.f_min == pytest.approx(1.88228629, abs=1e-12)
    assert result.x_raw.tolist() == [0.0, 0.51]
    assert result.n_feasible == 3143


def test_grid_oracle_searches_the_analytical_problems_own_space():
    problem = replace(analytical_problem(), space=DesignSpace([0.5, 0.5], [1.0, 1.0]))
    result = grid_oracle(problem, 11)
    assert result.f_min == pytest.approx(1.960944, abs=1e-12)
    assert result.f_min == problem(problem.space.normalize(result.x_raw))[0]
    assert result.x_raw.tolist() == [0.5, 0.6]


def test_grid_oracle_scores_each_analytical_grid_point_as_the_problem_does():
    problem = replace(analytical_problem(), space=DesignSpace([0.1, 0.3], [0.7, 0.9]),
                      threshold=-math.inf)
    axis = np.linspace(0.0, 1.0, 7)
    for x in itertools.product(axis, axis):
        t, T = problem.space.denormalize(np.array(x))
        # a sieve that keeps this one point, so the oracle's minimum is its score
        only_x = replace(problem, sieve_raw=lambda raw: (raw[0] == t) & (raw[1] == T))
        result = grid_oracle(only_x, 7)
        assert result.n_feasible == 1
        assert (result.f_min, result.g_at_min) == problem(np.array(x))


def test_grid_oracle_meets_a_point_outside_the_unit_square_as_the_problem_does():
    problem = replace(analytical_problem(), space=DesignSpace([0.5, 0.5], [2.0, 1.0]))
    one_at_a_time = replace(problem, raw_fn=lambda raw: problem.raw_fn(raw))
    messages = []
    for p in (problem, one_at_a_time):
        with pytest.raises(ValueError, match="outside the unit square") as err:
            grid_oracle(p, 11)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_grid_oracle_never_picks_a_non_finite_objective():
    def nan_below_03(raw):
        return (math.nan if raw[0] < 0.3 else float(raw[0])), 1.0

    space = DesignSpace(lower=[0.0], upper=[1.0], names=("t",))
    toy = Problem(space=space, threshold=0.5, raw_fn=nan_below_03)
    result = grid_oracle(toy, 11)
    assert result.f_min == pytest.approx(0.3, abs=1e-15)
    assert result.x_raw.tolist() == pytest.approx([0.3], abs=1e-15)
    assert result.n_feasible == 8


def test_grid_oracle_searches_only_the_points_the_sieve_keeps():
    problem = four_point_problem()
    result = grid_oracle(problem, 2)
    assert bool(problem.sieve_raw(result.x_raw))
    assert result.n_feasible == 14  # of 16 grid points, 2 fail the slope sieve


def test_grid_oracle_simulates_nothing_when_the_sieve_rejects_the_grid():
    def never(raw):
        raise AssertionError("a sieved-out point was evaluated")

    space = DesignSpace(lower=[0.0], upper=[1.0], names=("t",))
    toy = Problem(space=space, threshold=0.5, raw_fn=never, sieve_raw=lambda raw: False)
    result = grid_oracle(toy, 11)
    assert result.f_min is None and result.x_raw is None and result.n_feasible == 0


def test_grid_oracle_slab_boundaries_change_nothing(monkeypatch):
    problems = [
        (analytical_problem(), 101),
        # a constant f ties everywhere, so grid point (0, 0) must win
        (replace(analytical_problem(), raw_fn=lambda raw: (1.0, 1.0)), 11),
        (four_point_problem(), 3),
    ]
    default = [grid_oracle(problem, grid) for problem, grid in problems]
    monkeypatch.setattr(study, "_ORACLE_SLAB", 7)
    for (problem, grid), expected in zip(problems, default):
        result = grid_oracle(problem, grid)
        assert (result.f_min, result.g_at_min) == (expected.f_min, expected.g_at_min)
        assert result.x_raw.tolist() == expected.x_raw.tolist()
        assert result.n_feasible == expected.n_feasible
    assert default[1].x_raw.tolist() == [0.0, 0.0] and default[1].n_feasible == 121
    assert default[2].n_feasible < 3**4  # the slope sieve removed some of the grid


def csv_writer_replication_csv(path, problem, report):
    """The replication CSV as csv.writer writes it, one field at a time."""
    best = None  # the incumbent's f, by records.feasible and a strictly smaller f
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["eval", "phase", "step", *problem.space.names, "f", "g", "best_feasible", "acq"])
        for i, e in enumerate(report.evaluations, start=1):
            if feasible(e, report.threshold) and (best is None or e.f < best):
                best = e.f
            raw = problem.space.denormalize(e.x)
            writer.writerow(
                [i, e.phase, e.step_index, *map(study._fmt, raw), study._fmt(e.f), study._fmt(e.g),
                 study._fmt(best), study._fmt(e.acq)]
            )


def test_replication_csv_has_the_bytes_of_csv_writer(tmp_path):
    problem = build_problem(RunConfig.from_dict(small_config(tmp_path)))
    values = [0.0, -0.0, 1.0 / 3.0, 1e30, -1e-310, 5e-324, math.inf, -math.inf, math.nan, 2.5]
    evaluations = [
        Evaluation(x=np.array([i / 9.0, 1.0 - i / 9.0]), f=f, g=values[-1 - i], step_index=i // 3,
                   acq=None if i % 4 == 0 else values[(i + 3) % len(values)])
        for i, f in enumerate(values)
    ]
    # every f feasible and each one smaller, so the best_feasible column holds them all
    descending = [1e30, 1.0 / 3.0, 5e-324, -0.0, -1e-310]
    falling = [
        Evaluation(x=np.array([i / 9.0, 0.5]), f=f, g=1.0, step_index=0, acq=None)
        for i, f in enumerate(descending)
    ]
    for log in (evaluations, falling):
        report = logged(log, 0.5)
        study._write_replication_csv(tmp_path / "fast.csv", problem, report)
        csv_writer_replication_csv(tmp_path / "reference.csv", problem, report)
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "reference.csv").read_bytes()
        assert fast.count(b"\r\n") == len(log) + 1
        # the best_feasible cells read back as report.best_feasible, bit for bit:
        # repr tells -0.0 from 0.0 and keeps every digit of 5e-324
        with open(tmp_path / "fast.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        cells = [row[header.index("best_feasible")] for row in rows]
        read = [float(cell) if cell else None for cell in cells]
        assert list(map(repr, read)) == list(map(repr, report.best_feasible))
    assert report.best_feasible == descending
    assert [math.copysign(1.0, v) for v in read] == [1.0, 1.0, 1.0, -1.0, -1.0]


def test_a_replication_csv_is_written_whole_or_not_at_all(tmp_path, monkeypatch):
    config = RunConfig.from_dict(small_config(tmp_path, replications=1))
    fmt, calls = study._fmt, []

    def failing_partway(value):
        calls.append(value)
        if len(calls) > 10:  # past the fifth of nine rows
            raise RuntimeError("write failed")
        return fmt(value)

    monkeypatch.setattr(study, "_fmt", failing_partway)
    with pytest.raises(RuntimeError, match="write failed"):
        run_study(config)
    # no cbo_rep000.csv, and no temporary file left behind
    assert sorted(p.name for p in Path(config.output_dir).iterdir()) == ["cbo_events.csv"]


def failing_where_t_and_T_are_high(build):
    """A study's build_problem whose problem raises at t > 0.7 and T > 0.6,
    so that some replications stop early."""

    def build_failing(config):
        problem = build(config)

        def fn(raw):
            if raw[0] > 0.7 and raw[1] > 0.6:
                raise ValueError("no result here")
            return problem.raw_fn(raw)

        return replace(problem, raw_fn=fn)

    return build_failing


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("optimizer", ["cbo", "ga"])
def test_summary_is_a_function_of_the_best_feasible_columns(tmp_path, monkeypatch, optimizer,
                                                            workers):
    # a forked worker builds its problem through the patched build_problem too
    monkeypatch.setattr(study, "build_problem", failing_where_t_and_T_are_high(build_problem))
    config = RunConfig.from_dict(small_config(
        tmp_path, optimizer=optimizer, replications=6, workers=workers,
        ga={"pop_size": 4, "generations": 4}, reference_optimum=1.8570136, convergence_tol=0.05,
    ))
    written = run_study(config)[optimizer]
    assert len(set(written.evaluations_per_replication)) > 1  # some columns are short
    assert None in written.convergence_evals and set(written.convergence_evals) != {None}

    out = Path(config.output_dir)
    columns = []
    for path in sorted(out.glob(f"{optimizer}_rep*.csv")):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        best = header.index("best_feasible")
        columns.append([float(row[best]) if row[best] else None for row in rows])
    summary = summarize(config, optimizer, columns)
    assert summary.to_json().encode() == (out / f"{optimizer}_summary.json").read_bytes()
    study._write_convergence_csv(tmp_path / "rebuilt.csv", summary)
    rebuilt = (tmp_path / "rebuilt.csv").read_bytes()
    assert rebuilt == (out / f"{optimizer}_convergence.csv").read_bytes()


def test_cli_oracle_and_error_codes(tmp_path):
    runner = CliRunner()
    ok = runner.invoke(main, ["oracle", "analytical", "--grid", "101"])
    assert ok.exit_code == 0
    assert "feasible minimum" in ok.output

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": "unknown"}))
    res = runner.invoke(main, ["run", str(bad)])
    assert res.exit_code == 2

    res = runner.invoke(main, ["trace", str(tmp_path / "missing.json")])
    assert res.exit_code == 3

    not_json = tmp_path / "syntax.json"
    not_json.write_text("{")
    res = runner.invoke(main, ["run", str(not_json)])
    assert res.exit_code == 2


def test_registry_dispatch_and_unknown_name():
    runner = CliRunner()
    res = runner.invoke(main, ["oracle", "sim2pt", "--grid", "2", "--threshold", "0"])
    assert res.exit_code == 0, res.output
    assert "at t1=" in res.output and "(threshold 0.0)" in res.output
    res = runner.invoke(main, ["oracle", "mystery"])
    assert res.exit_code == 2
    assert "'mystery' is not one of 'analytical', 'sim2pt', 'sim4pt'" in res.output


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_cli_oracle_threshold_follows_the_problem_options_rule(threshold):
    res = CliRunner().invoke(main, ["oracle", "analytical", "--grid", "11",
                                    f"--threshold={threshold}"])
    assert res.exit_code == 2, res.output
    assert res.output == "validation error: threshold must be a finite number\n"


def test_grid_oracle_refuses_an_oversized_grid_before_building_it(monkeypatch):
    def no_meshgrid(*args, **kwargs):
        raise AssertionError("np.meshgrid reached before the grid was sized")

    monkeypatch.setattr(study.np, "meshgrid", no_meshgrid)
    problem = analytical_problem()
    with pytest.raises(ValueError, match=r"^a 3163\^2 grid has more than 10000000 points$"):
        grid_oracle(problem, 3163)  # 3163^2 = 10,004,569
    res = CliRunner().invoke(main, ["oracle", "analytical", "--grid", "100000"])
    assert res.exit_code == 2, res.output
    assert "validation error: a 100000^2 grid has more than 10000000 points" in res.output
    # the largest square grid under the cap, which holds criterion 1's 2001^2,
    # gets as far as building its points
    with pytest.raises(AssertionError, match="np.meshgrid reached"):
        grid_oracle(problem, 3162)


def test_cli_oracle_has_a_default_grid_for_every_registered_problem():
    assert set(cli._DEFAULT_ORACLE_GRID) == set(FACTORIES)


def test_cli_trace_writes_csv(tmp_path):
    runner = CliRunner()
    cfg = tmp_path / "cycle.json"
    cfg.write_text(json.dumps({"variant": "two-point", "params": {"t1": 60, "T1": 140}, "dt": 0.5}))
    out = tmp_path / "trace.csv"
    res = runner.invoke(main, ["trace", str(cfg), "--out", str(out)])
    assert res.exit_code == 0
    assert out.exists()
    assert out.read_text().startswith("time_min,T_C,alpha")


def test_cli_trace_runs_the_readme_example(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("### Cycle trace configs", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "cycle.json"
    cfg.write_text(example)
    out = tmp_path / "trace.csv"
    res = CliRunner().invoke(main, ["trace", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.read_text().startswith("time_min,T_C,alpha")


def test_cli_trace_rejects_a_dt_past_the_node_cap(tmp_path):
    cfg = tmp_path / "cycle.json"
    cfg.write_text(json.dumps({"variant": "baseline", "dt": 1e-9}))
    res = CliRunner().invoke(main, ["trace", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert res.exit_code == 2, res.output
    assert "validation error: dt = 1e-09 min puts more than 1000000 nodes" in res.output
    assert not (tmp_path / "t.csv").exists()


def test_cli_trace_reads_four_point_params_by_name(tmp_path):
    runner = CliRunner()
    named = {"T2": 165, "t1": 40, "t2": 140, "T1": 150}  # any key order
    for name, params in [("named", named), ("listed", [40, 150, 140, 165])]:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"variant": "four-point", "params": params, "dt": 0.5}))
        res = runner.invoke(main, ["trace", str(cfg), "--out", str(tmp_path / f"{name}.csv")])
        assert res.exit_code == 0, res.output
    assert (tmp_path / "named.csv").read_bytes() == (tmp_path / "listed.csv").read_bytes()

    cfg = tmp_path / "partial.json"
    cfg.write_text(json.dumps({"variant": "four-point", "params": {"t1": 40, "T1": 150}}))
    res = runner.invoke(main, ["trace", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert res.exit_code == 2
    assert "validation error: four-point params lack t2, T2" in res.output


@pytest.mark.parametrize("temp1", [-260, -273.15, -300])
def test_cli_trace_rejects_a_cycle_too_cold_for_the_viscosity_law(tmp_path, temp1):
    cfg = tmp_path / "cycle.json"
    cfg.write_text(json.dumps({"variant": "two-point", "params": [60, temp1], "dt": 0.5}))
    res = CliRunner().invoke(main, ["trace", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert res.exit_code == 2, res.output
    assert "validation error: cycle reaches" in res.output
    assert not (tmp_path / "t.csv").exists()


def test_library_use_runs_the_readme_example(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    namespace = {}
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], namespace)
    report = namespace["report"]
    assert report.complete and len(report.evaluations) == 40
    assert report.incumbent is not None and report.incumbent.g >= report.threshold


def test_cli_trace_names_a_missing_parameter(tmp_path):
    cfg = tmp_path / "cycle.json"
    cfg.write_text(json.dumps({"variant": "two-point", "params": {"t1": 60}}))
    res = CliRunner().invoke(main, ["trace", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert res.exit_code == 2
    assert "validation error:" in res.output and "T1" in res.output
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "variant, params, message",
    [
        ("two-point", {"t1": 60, "T1": 140, "t2": 90}, "unknown keys: params.t2"),
        ("baseline", {"t1": 60}, "unknown keys: params.t1"),
        ("four-point", {"t1": 40, "T1": 150, "x": 1, "T3": 2},
         "four-point params lack t2, T2; unknown keys: params.T3, params.x"),
    ],
)
def test_cli_trace_names_named_params_the_variant_does_not_take(tmp_path, variant, params, message):
    cfg = tmp_path / "cycle.json"
    cfg.write_text(json.dumps({"variant": variant, "params": params, "dt": 0.5}))
    res = CliRunner().invoke(main, ["trace", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert res.exit_code == 2, res.output
    assert f"validation error: {message}" in res.output
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("params", [{"t1": 60, "T1": 140}, [60, 140]], ids=["named", "listed"])
def test_cli_trace_names_a_variant_that_is_not_a_string(tmp_path, params):
    cfg = tmp_path / "cycle.json"
    cfg.write_text(json.dumps({"variant": ["two-point"], "params": params}))
    res = CliRunner().invoke(main, ["trace", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert res.exit_code == 2
    assert res.output == "validation error: variant must be a string\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "params, message",
    [
        ({"t1": "x", "T1": 140}, "validation error: params.t1 must be a finite number\n"),
        ({"t1": 60, "T1": None, "t2": 1}, "validation error: unknown keys: params.t2; "
                                          "params.T1 must be a finite number\n"),
    ],
    ids=["string", "null-and-unknown"],
)
def test_cli_trace_names_the_named_param_that_is_not_a_number(tmp_path, params, message):
    cfg = tmp_path / "cycle.json"
    cfg.write_text(json.dumps({"variant": "two-point", "params": params}))
    res = CliRunner().invoke(main, ["trace", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert res.exit_code == 2
    assert res.output == message
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("extra", [{"kinetic": {"a1": 1e9}}, {"DT": 0.5}])
def test_cli_trace_rejects_unknown_keys(tmp_path, extra):
    cfg = tmp_path / "cycle.json"
    cfg.write_text(json.dumps({"variant": "baseline", **extra}))
    res = CliRunner().invoke(main, ["trace", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert res.exit_code == 2
    assert f"validation error: unknown keys: {next(iter(extra))}" in res.output
    assert not (tmp_path / "t.csv").exists()


# the value rules of a study's problem_options, and params that are numbers
@pytest.mark.parametrize(
    "fields, message",
    [
        ('"kinetics": {"a1": true}', "kinetics.a1 must be a finite number"),
        ('"dt": true', "dt must be a finite number"),
        ('"start_temp": "20"', "unknown keys: start_temp"),
        ('"kinetics": {"a9": 1}', "unknown keys: kinetics.a9"),
        ('"mechanical": {"cte": NaN}', "mechanical.cte must be a finite number"),
        ('"dt": 1e400', "dt must be a finite number"),
        ('"params": [true, 150]', "params must be a list of finite numbers"),
        ('"params": 150', "params must be a list of finite numbers"),
    ],
)
def test_cli_trace_rejects_values_that_a_study_rejects(tmp_path, fields, message):
    cfg = tmp_path / "cycle.json"
    params = "" if fields.startswith('"params"') else '"params": [60, 140], '
    cfg.write_text(f'{{"variant": "two-point", {params}{fields}}}')
    res = CliRunner().invoke(main, ["trace", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert res.exit_code == 2, res.output
    assert "validation error:" in res.output and message in res.output
    assert not (tmp_path / "t.csv").exists()


def test_cli_trace_rejects_a_config_that_is_not_an_object(tmp_path):
    cfg = tmp_path / "cycle.json"
    cfg.write_text("[1, 2]")
    res = CliRunner().invoke(main, ["trace", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert res.exit_code == 2
    assert "validation error: cycle config must be a JSON object" in res.output
    assert not (tmp_path / "t.csv").exists()


def test_failed_evaluations_reach_the_events_csv(tmp_path):
    clean = RunConfig.from_dict(small_config(tmp_path, replications=1))
    run_study(clean)
    assert (Path(clean.output_dir) / "cbo_events.csv").read_bytes() == b"replication,event\r\n"

    # every initial evaluation fails to integrate
    failing = RunConfig.from_dict(small_config(
        tmp_path, problem="sim2pt", replications=2, output_dir=str(tmp_path / "failing"),
        problem_options={"kinetics": {"a1": 1e300}},
    ))
    run_study(failing)
    lines = (Path(failing.output_dir) / "cbo_events.csv").read_text().splitlines()
    assert lines[0] == "replication,event"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
    assert all("evaluation failed at step 0" in line for line in lines[1:])


def test_a_dt_past_the_node_cap_is_a_failed_evaluation(tmp_path):
    config = RunConfig.from_dict(small_config(
        tmp_path, problem="sim2pt", optimizer="ga", replications=1,
        ga={"pop_size": 2, "generations": 1}, problem_options={"dt": 1e-9},
    ))
    run_study(config)
    lines = (Path(config.output_dir) / "ga_events.csv").read_text().splitlines()
    assert lines[1:] == [
        "0,evaluation failed at step 0: dt = 1e-09 min puts more than 1000000 nodes on the time grid"
    ]


def test_cli_run_smoke(tmp_path):
    runner = CliRunner()
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(small_config(tmp_path)))
    res = runner.invoke(main, ["run", str(cfg)])
    assert res.exit_code == 0
    assert "median best-feasible" in res.output


def test_cli_run_reports_a_study_that_reaches_no_step(tmp_path):
    # every initial evaluation fails to integrate, so no replication reaches step 1
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(small_config(
        tmp_path, problem="sim2pt", replications=1,
        problem_options={"kinetics": {"a1": 1e300}},
    )))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 0, res.output
    assert "cbo: 1 replications, step n/a: median best-feasible n/a, 95th percentile n/a" in res.output
    assert (tmp_path / "out" / "cbo_summary.json").exists()
