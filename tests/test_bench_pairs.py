import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(name, base, change):
    """Runs of one metric, pair i holding base[i] and change[i] (None: no value)."""
    return [
        {"pair": pair, "side": side, "metrics": {name: {"value": value}}}
        for pair, values in enumerate(zip(base, change))
        for side, value in zip(("base", "change"), values)
    ]


def test_ties_count_for_neither_side(bench_pairs):
    metric = {"name": "wall_s", "unit": "s", "better": "lower"}
    out = bench_pairs.compare([metric], _runs("wall_s", [2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))
    assert out["wall_s"]["change_won"] == 1 and out["wall_s"]["pairs"] == 3
    assert out["wall_s"]["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert out["wall_s"]["change"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}


def test_a_pair_with_a_missing_value_is_left_out(bench_pairs):
    metric = {"name": "best_f_p50", "unit": "objective", "better": "lower"}
    runs = _runs("best_f_p50", [5.0, None, 5.0, 5.0], [4.0, 1.0, None, 6.0])
    out = bench_pairs.compare([metric], runs)["best_f_p50"]
    assert out["pairs"] == 2 and out["change_won"] == 1
    assert out["base"]["median"] == 5.0 and out["change"]["median"] == 5.0


def test_a_metric_without_a_complete_pair_is_omitted(bench_pairs):
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower"},
               {"name": "best_f_p50", "unit": "objective", "better": "lower"}]
    runs = _runs("wall_s", [1.0, 1.0], [0.5, 0.5])
    for run, value in zip(runs, [None, 1.0, 2.0, None]):
        run["metrics"]["best_f_p50"] = {"value": value}
    assert list(bench_pairs.compare(metrics, runs)) == ["wall_s"]
    assert bench_pairs.compare(metrics, []) == {}


def test_a_higher_is_better_metric_counts_wins_the_other_way(bench_pairs):
    runs = _runs("rate", [1.0, 1.0, 1.0], [2.0, 0.5, 3.0])
    higher = bench_pairs.compare([{"name": "rate", "unit": "1/s", "better": "higher"}], runs)
    lower = bench_pairs.compare([{"name": "rate", "unit": "1/s", "better": "lower"}], runs)
    assert higher["rate"]["change_won"] == 2 and lower["rate"]["change_won"] == 1
    assert higher["rate"]["unit"] == "1/s"
