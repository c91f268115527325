"""Spans around the public functions of each curebo layer, and the per-layer
metrics computed from them.

Each target is wrapped under the name its caller looks it up by (for example
`curebo.cbo.fit_gp`, the name `run_cbo` calls), so the spans sit at the layer
boundaries without any change to the program. Spans are kept in memory and
written out when the benchmark ends. A name the program no longer has is
reported as absent and leaves its metrics at 0.
"""

from __future__ import annotations

import importlib
import json
from statistics import median
from time import perf_counter

# (span name, module, attribute, attributes recorded from (args, result))
TARGETS = (
    ("study.run_study", "curebo.study", "run_study", None),
    ("cbo.run_cbo", "curebo.study", "run_cbo", None),
    ("ga.run_ga", "curebo.study", "run_ga", None),
    ("gp.fit_gp", "curebo.cbo", "fit_gp", lambda a, r: {"n": len(a[1])}),
    ("gp.predict_batch", "curebo.cbo", "predict_batch", lambda a, r: {"points": len(a[1])}),
    ("acquisition.ei_values", "curebo.cbo", "ei_values", None),
    ("acquisition.pf_values", "curebo.cbo", "pf_values", None),
    ("space.lhs_sample", "curebo.cbo", "lhs_sample", None),
    ("space.lhs_sample", "curebo.ga", "lhs_sample", None),
    ("space.sieve", "curebo.cbo", "sieve", lambda a, r: {"offered": len(a[0]), "kept": len(r)}),
    ("space.drop_near_duplicates", "curebo.cbo", "drop_near_duplicates",
     lambda a, r: {"offered": len(a[0]), "kept": len(r)}),
    ("problems.evaluate", "curebo.problems.blackbox.Problem", "__call__", None),
    ("problems.simulate_cure", "curebo.problems.blackbox", "simulate_cure",
     lambda a, r: {"grid_points": len(r.time_min)}),
)
REPLICATIONS = ("cbo.run_cbo", "ga.run_ga")

# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "gp.fit_gp.calls": "count",
    "gp.fit_gp.busy_s": "s",
    "gp.fit_gp.ms_p50": "ms",
    "gp.fit_gp.ms_p50_n_ge25": "ms",
    "gp.predict_batch.calls": "count",
    "gp.predict_batch.busy_s": "s",
    "gp.predict_batch.us_per_point": "us",
    "acquisition.busy_s": "s",
    "space.lhs_sample.busy_s": "s",
    "space.sieve.busy_s": "s",
    "space.sieve.kept_ratio": "ratio",
    "space.drop_near_duplicates.busy_s": "s",
    "space.drop_near_duplicates.kept_ratio": "ratio",
    "problems.evaluate.calls": "count",
    "problems.evaluate.busy_s": "s",
    "problems.evaluate.us_p50": "us",
    "problems.simulate_cure.busy_s": "s",
    "problems.simulate_cure.grid_points": "count",
    "cbo.self_s": "s",
    "ga.self_s": "s",
    "study.self_s": "s",
    "study.artifact_bytes": "bytes",
}


def _resolve(path: str):
    """Module or class object named by a dotted path, or None."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
        return obj
    return None


class Tracer:
    """Wraps the targets while active; one span per wrapped call.

    A span is (id, parent id, name, start, end, request, attributes). The
    request is the replication the span belongs to ("<round>.<rep>"), or the
    round for spans outside any replication.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._round = 0
        self._rep = -1
        self.request = "0"

    def start_round(self, index: int) -> None:
        self._round, self._rep = index, -1
        self.request = str(index)

    def _wrap(self, name, fn, attrs):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the id; filled in on return
            outer_request = self.request
            if name in REPLICATIONS:
                self._rep += 1
                self.request = f"{self._round}.{self._rep}"
            self._stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                self._stack.pop()
                extra = attrs(args, result) if attrs is not None and result is not None else None
                self.spans[sid] = (sid, parent, name, t0, t1, self.request, extra)
                self.request = outer_request

        return traced

    def __enter__(self):
        for name, owner_path, attr, attrs in TARGETS:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, attrs))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for sid, parent, name, t0, t1, request, extra in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": t0,
                                         "end": t1, "request": request, "attrs": extra}) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it its child spans cover."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_metrics(spans, artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one round's spans (one run_study call)."""
    own = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def durations(name):
        return [s[4] - s[3] for s in by_name.get(name, [])]

    def busy(*names):
        return float(sum(sum(durations(n)) for n in names))

    def own_sum(name):
        return float(sum(own[s[0]] for s in by_name.get(name, [])))

    def attr_sum(name, key):
        return sum(s[6][key] for s in by_name.get(name, []) if s[6])

    def ratio(name):
        offered = attr_sum(name, "offered")
        return attr_sum(name, "kept") / offered if offered else 0.0

    fits = by_name.get("gp.fit_gp", [])
    large_fits = [s[4] - s[3] for s in fits if s[6] and s[6]["n"] >= 25]
    points = attr_sum("gp.predict_batch", "points")
    evals = durations("problems.evaluate")
    return {
        "gp.fit_gp.calls": len(fits),
        "gp.fit_gp.busy_s": busy("gp.fit_gp"),
        "gp.fit_gp.ms_p50": 1e3 * median(durations("gp.fit_gp")) if fits else 0.0,
        "gp.fit_gp.ms_p50_n_ge25": 1e3 * median(large_fits) if large_fits else 0.0,
        "gp.predict_batch.calls": len(durations("gp.predict_batch")),
        "gp.predict_batch.busy_s": busy("gp.predict_batch"),
        "gp.predict_batch.us_per_point": 1e6 * busy("gp.predict_batch") / points if points else 0.0,
        "acquisition.busy_s": busy("acquisition.ei_values", "acquisition.pf_values"),
        "space.lhs_sample.busy_s": busy("space.lhs_sample"),
        "space.sieve.busy_s": busy("space.sieve"),
        "space.sieve.kept_ratio": ratio("space.sieve"),
        "space.drop_near_duplicates.busy_s": busy("space.drop_near_duplicates"),
        "space.drop_near_duplicates.kept_ratio": ratio("space.drop_near_duplicates"),
        "problems.evaluate.calls": len(evals),
        "problems.evaluate.busy_s": float(sum(evals)),
        "problems.evaluate.us_p50": 1e6 * median(evals) if evals else 0.0,
        "problems.simulate_cure.busy_s": busy("problems.simulate_cure"),
        "problems.simulate_cure.grid_points": attr_sum("problems.simulate_cure", "grid_points"),
        "cbo.self_s": own_sum("cbo.run_cbo"),
        "ga.self_s": own_sum("ga.run_ga"),
        "study.self_s": own_sum("study.run_study"),
        "study.artifact_bytes": artifact_bytes,
    }
