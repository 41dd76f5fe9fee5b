"""Spans around the library's functions, installed only for traced runs.

The tracer wraps each target function and rebinds every attribute of every
loaded ``intentforge`` module that holds it (``cli.reach`` and
``road_graph.reach`` alike, and aliases such as ``cli.coverage_of``), so
calls made through any of them are recorded. Nothing is installed outside
``Tracer.recording``. A target that no longer exists is reported as absent
and its metrics read 0.

Each span records its name, start, end, parent span and run id; counts are
taken from arguments and return values after the span has ended, so they
add to the tracing overhead but not to any span's time. A layer's self time
is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

import numpy as np


def _parse_counts(args, result):
    return {"map_model.parse_bytes": len(args["data"])}


def _write_counts(args, result):
    return {"map_model.write_bytes": len(result)}


def _assoc_counts(args, result):
    return {"lane_assoc.fallbacks": int(result.fallback)}


def _graph_counts(args, result):
    return {"road_graph.graph_nodes": result.n_nodes}


def _reach_counts(args, result):
    return {"road_graph.reach_nodes": len(result)}


def _kmeans_counts(args, result):
    pts = np.asarray(args["points"], dtype=np.float64)
    cfg = args.get("cfg")
    k = cfg.k if cfg is not None else importlib.import_module(
        "intentforge.intention").KMeansConfig().k
    distinct = np.unique(pts, axis=0).shape[0]
    return {"intention.kmeans_points_in": pts.shape[0],
            "intention.padded": int(distinct < k)}


def _lloyd_counts(args, result):
    iterations = len(result[1])
    return {"intention.lloyd_calls": 1,
            "intention.lloyd_iterations": iterations,
            "intention.lloyd_capped": int(
                iterations >= args["cfg"].max_iterations)}


def _prediction_counts(args, result):
    return {"cli.prediction_rows": sum(int(np.prod(p.trajectories.shape[:2]))
                                       for p in result.values())}


def _csv_counts(args, result):
    # rows actually written, whatever iterable the caller passed
    with open(args["path"], "rb") as fh:
        return {"cli.csv_rows": sum(1 for _ in fh) - 1}


# (span name, module, attribute, counts from (bound arguments, result))
TARGETS = [
    ("map_model.parse", "intentforge.map_model", "parse_scenario",
     _parse_counts),
    ("map_model.vector_map", "intentforge.map_model", "VectorMap.__init__",
     None),
    ("map_model.write", "intentforge.map_model", "write_scenario",
     _write_counts),
    ("scenario_gen.generate", "intentforge.scenario_gen", "generate", None),
    ("lane_assoc.associate", "intentforge.lane_assoc", "associate",
     _assoc_counts),
    ("road_graph.build_graph", "intentforge.road_graph", "build_graph",
     _graph_counts),
    ("road_graph.reach", "intentforge.road_graph", "reach", _reach_counts),
    ("intention.weighted_kmeans", "intentforge.intention", "weighted_kmeans",
     _kmeans_counts),
    ("intention.kmeanspp", "intentforge.intention", "_kmeanspp", None),
    ("intention.lloyd", "intentforge.intention", "_lloyd", _lloyd_counts),
    ("intention.dynamic", "intentforge.intention", "dynamic_intents", None),
    ("intention.mixed", "intentforge.intention", "mixed_intents", None),
    ("experiments.pooled_static", "intentforge.experiments", "pooled_static",
     None),
    ("analysis.filter_dataset", "intentforge.analysis", "filter_dataset",
     None),
    ("analysis.gt_deviation", "intentforge.analysis", "gt_deviation", None),
    ("analysis.min_fde", "intentforge.analysis", "min_fde", None),
    ("analysis.deviation_curve", "intentforge.analysis", "deviation_curve",
     None),
    ("analysis.coverage", "intentforge.analysis", "coverage", None),
    ("cli.load_scenarios", "intentforge.cli", "_load_scenarios", None),
    ("cli.load_predictions", "intentforge.cli", "_load_prediction_csv",
     _prediction_counts),
    ("cli.write_csv", "intentforge.cli", "_write_csv", _csv_counts),
]

# The benchmark opens this span around each ``cli.main`` call itself.
CLI_ROOT = "cli.main"

# Every per-layer metric with its unit, in report order.
PER_LAYER = [
    ("map_model.parse_s", "s"), ("map_model.parse_calls", "count"),
    ("map_model.parse_bytes", "bytes"), ("map_model.vector_map_s", "s"),
    ("map_model.write_s", "s"), ("map_model.write_bytes", "bytes"),
    ("scenario_gen.generate_s", "s"),
    ("lane_assoc.associate_s", "s"), ("lane_assoc.associate_calls", "count"),
    ("lane_assoc.fallback_frac", "fraction"),
    ("road_graph.build_graph_s", "s"),
    ("road_graph.build_graph_calls", "count"),
    ("road_graph.graph_nodes", "count"),
    ("road_graph.reach_s", "s"), ("road_graph.reach_calls", "count"),
    ("road_graph.reach_nodes", "count"),
    ("intention.weighted_kmeans_s", "s"),
    ("intention.weighted_kmeans_calls", "count"),
    ("intention.kmeans_points_in", "count"),
    ("intention.kmeanspp_s", "s"), ("intention.lloyd_s", "s"),
    ("intention.lloyd_iterations", "count"),
    ("intention.lloyd_capped_frac", "fraction"),
    ("intention.padded_frac", "fraction"),
    ("intention.dynamic_s", "s"), ("intention.mixed_s", "s"),
    ("experiments.pooled_static_s", "s"),
    ("analysis.filter_dataset_s", "s"), ("analysis.gt_deviation_s", "s"),
    ("analysis.min_fde_s", "s"), ("analysis.deviation_curve_s", "s"),
    ("analysis.coverage_s", "s"),
    ("cli.load_scenarios_s", "s"), ("cli.load_predictions_s", "s"),
    ("cli.prediction_rows", "count"), ("cli.write_csv_s", "s"),
    ("cli.csv_rows", "count"), ("cli.self_s", "s"),
    ("trace_overhead_frac", "fraction"),
]

# ratio metric -> (numerator count, denominator count)
_RATIOS = {
    "lane_assoc.fallback_frac": ("lane_assoc.fallbacks",
                                 "lane_assoc.associate_calls"),
    "intention.padded_frac": ("intention.padded",
                              "intention.weighted_kmeans_calls"),
    "intention.lloyd_capped_frac": ("intention.lloyd_capped",
                                    "intention.lloyd_calls"),
}


def _number(value):
    return int(value) if float(value).is_integer() else value


def _resolve(module_name, attr):
    """(owner object, attribute name, original) or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name, vars(owner)[name]


class Tracer:
    """Records spans and counts in memory; see the module docstring."""

    def __init__(self):
        self.spans = []      # (id, name, parent id, run id, start, end)
        self.counts = defaultdict(lambda: defaultdict(int))  # run -> key -> n
        self.counter_errors = defaultdict(int)
        self.absent = [span for span, module, attr, _ in TARGETS
                       if _resolve(module, attr) is None]
        self._stack = []
        self._next_id = 0
        self._run = None

    @contextlib.contextmanager
    def recording(self, run_id):
        """Install the wrappers for one run (a set-up or a timed
        repetition) and remove them afterwards."""
        self._run = run_id
        restore = self._install()
        try:
            yield
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)
            self._run = None

    @contextlib.contextmanager
    def span(self, name):
        sid = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start)

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, start):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, parent, self._run, start, end))
        self.counts[self._run][f"{name}_calls"] += 1

    def _wrap(self, span_name, original, counter):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = self._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(sid, span_name, start)
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    for key, n in counter(bound.arguments, result).items():
                        self.counts[self._run][key] += n
                except Exception:  # a changed signature must not stop the run
                    self.counter_errors[span_name] += 1
            return result
        return wrapper

    def _install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "intentforge"
                                         or name.startswith("intentforge."))]
        restore = []
        for span_name, module, attr, counter in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                continue
            owner, name, original = found
            wrapper = self._wrap(span_name, original, counter)
            holders = [(owner, name)]
            if owner in modules:
                holders = [(m, key) for m in modules
                           for key, value in list(vars(m).items())
                           if value is original]
            for holder, key in holders:
                restore.append((holder, key, original))
                setattr(holder, key, wrapper)
        return restore

    def run_metrics(self, run_id, scale=1.0):
        """Self time per span name (times ``scale``) and counts of one run."""
        spans = [s for s in self.spans if s[3] == run_id]
        covered = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for sid, name, _, _, start, end in spans:
            out[f"{name}_s"] += ((end - start) - covered[sid]) * scale
        out.update(self.counts[run_id])
        return out

    def per_layer(self, overhead_frac, scales):
        """Every PER_LAYER metric: one set-up plus one timed repetition,
        each the median over the traced runs of its kind. ``scales`` maps
        run ids to the factor that turns their wall seconds into reference
        seconds."""
        by_kind = defaultdict(list)
        for run_id in dict.fromkeys(s[3] for s in self.spans):
            by_kind[run_id.split("-")[0]].append(
                self.run_metrics(run_id, scales[run_id]))
        total = defaultdict(float)
        for runs in by_kind.values():
            for key in set().union(*runs):
                total[key] += median(r.get(key, 0) for r in runs)
        total["cli.self_s"] = total.pop(f"{CLI_ROOT}_s", 0.0)
        for ratio, (num, den) in _RATIOS.items():
            total[ratio] = total[num] / total[den] if total[den] else 0.0
        total["trace_overhead_frac"] = overhead_frac
        return {name: {"value": _number(total.get(name, 0)), "unit": unit}
                for name, unit in PER_LAYER}

    def dump(self, path: Path):
        path.write_text(json.dumps({
            "absent": self.absent,
            "counter_errors": dict(self.counter_errors),
            "spans": [dict(zip(("id", "name", "parent", "run", "start",
                                "end"), s)) for s in self.spans],
        }))
