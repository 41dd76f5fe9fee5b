"""The per-scene pipeline, the CLI's batch drivers, and the experiments.

``run_scene`` runs lane association and reachability for one scene under
a ``RunConfig``; ``intents_batch``, the driver of ``intents`` and
``dump-roadgraph``, runs it over many scenes. ``filter_dataset`` sorts
its results into the targets that ``analyze`` keeps and the ones it
excludes, ``intent_coverage`` scores kept targets' static, dynamic and
mixed intention points against their ground-truth endpoints, and
``analyze_batch``, the driver of ``analyze``, adds deviation records.
The experiments back the scripts in scripts/ and keep and score agents
exactly as ``analyze`` does: the mixed-ratio coverage table (how
strongly to weight scene-conditioned points against statistical ones
when pooling) and the coverage proxy comparing static, dynamic, and
mixed intention sets.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analysis import (DeviationRecord, coverage, detect_parked,
                       gt_deviation, min_fde)
from .intention import (INTENT_KINDS, IntentionPointSet, KMeansConfig,
                        MixConfig, dynamic_intents_many, dynamic_pool,
                        mixed_intents_many, static_intents, to_agent_frame)
from .lane_assoc import AssocConfig, AssociationResult, associate
from .map_model import AgentTrack, Scenario
from .road_graph import GraphConfig, ReachabilitySet, build_graph, reach
from .scenario_gen import generate_suite


def agent_frame_endpoint(track: AgentTrack):
    """Ground-truth 8 s endpoint in the agent frame, or None if invalid."""
    endpoint = track.gt_endpoint()
    if endpoint is None:
        return None
    return to_agent_frame(endpoint, track)


def pooled_static(scenarios, object_class: str = "vehicle",
                  cfg: KMeansConfig | None = None) -> IntentionPointSet:
    """Statistical intention points from every valid endpoint of the
    given class across a scenario corpus."""
    cfg = cfg or KMeansConfig()
    endpoints = []
    for scenario in scenarios:
        for track in scenario.tracks:
            if track.object_class != object_class:
                continue
            local = agent_frame_endpoint(track)
            if local is not None:
                endpoints.append(local)
    if not endpoints:
        raise ValueError(f"no valid {object_class} endpoints in the corpus")
    return static_intents(np.asarray(endpoints), object_class, cfg)


DEVIATION_MODES = ("node", "polyline")


@dataclass(frozen=True)
class RunConfig:
    """Every setting of the per-scene pipeline and the analysis; the one
    place their defaults live."""

    assoc: AssocConfig = AssocConfig()
    graph: GraphConfig = GraphConfig()
    kmeans: KMeansConfig = KMeansConfig()
    mix: MixConfig = MixConfig()
    window: int = 7500
    deviation_mode: str = "node"
    exclude_parked: bool = False

    def __post_init__(self):
        if isinstance(self.window, bool) or not isinstance(self.window,
                                                           numbers.Integral):
            raise ValueError("window must be an integer")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.deviation_mode not in DEVIATION_MODES:
            raise ValueError(f"deviation_mode must be one of {DEVIATION_MODES}")
        if not isinstance(self.exclude_parked, bool):
            raise ValueError("exclude_parked must be true or false")


class AgentResult(NamedTuple):
    """One prediction target after association and reachability."""

    track: AgentTrack
    assoc: AssociationResult | None     # None for non-vehicles
    reach_set: ReachabilitySet | None   # None when the agent falls back


def run_scene(scenario: Scenario,
              cfg: RunConfig = RunConfig()) -> list[AgentResult]:
    """Association -> reachability for every target of one scene, in
    ``tracks_to_predict`` order. The road graph is built at most once,
    and only when some target has a lane association."""
    graph = None
    out = []
    for agent_id in scenario.tracks_to_predict:
        track = scenario.track(agent_id)
        assoc = reach_set = None
        if track.object_class == "vehicle":
            assoc = associate(scenario.vector_map, track, cfg.assoc)
            if not assoc.fallback:
                if graph is None:
                    graph = build_graph(scenario.vector_map, cfg.graph)
                reach_set = reach(graph, assoc, cfg.graph)
        out.append(AgentResult(track, assoc, reach_set))
    return out


def intents_batch(scenarios, kind: str | None, static_sets,
                  cfg: RunConfig = RunConfig(), dump: bool = False):
    """Intention points of the targets of many scenes, clustered in one
    batch, as three lists in scene order: ``(agent id, kind, points,
    fallback flag)`` rows, where a target without a reach set gets its
    class's ``static_sets`` entry, and none when ``kind`` is None; when
    ``dump``, ``(scenario id, agent id, positions, arrival times)`` of
    every reach set; and the ids of vehicles whose association fell back."""
    agents, pools, reach_sets, fell_back = [], [], [], []
    for scenario in scenarios:
        if kind == "static":
            results = [AgentResult(scenario.track(a), None, None)
                       for a in scenario.tracks_to_predict]
        else:
            results = run_scene(scenario, cfg)
        for track, assoc, reach_set in results:
            agents.append((track, reach_set is not None))
            if assoc is not None and assoc.fallback:
                fell_back.append(track.agent_id)
            if reach_set is not None and kind is not None:
                pools.append(dynamic_pool(reach_set, track))
            if reach_set is not None and dump:
                reach_sets.append((scenario.scenario_id, track.agent_id,
                                   reach_set.positions,
                                   reach_set.arrival_times))
    if kind is None:
        return [], reach_sets, fell_back
    sets = dynamic_intents_many(pools, cfg.kmeans)
    # static_sets holds only the classes of the targets: without a reach
    # set there may be no vehicle target, and nothing to mix
    if kind == "mixed" and sets:
        sets = mixed_intents_many(sets, static_sets["vehicle"], cfg.mix,
                                  cfg.kmeans)
    sets = iter(sets)
    rows = [(track.agent_id, kind, next(sets).points, "0") if reached
            else (track.agent_id, "static",
                  static_sets[track.object_class].points,
                  "0" if kind == "static" else "1")
            for track, reached in agents]
    return rows, reach_sets, fell_back


MAX_PLAUSIBLE_SPEED = 60.0   # m/s between consecutive valid GT samples


def _implausible_gt(track: AgentTrack) -> bool:
    idx = np.nonzero(track.future_valid)[0]
    if idx.size < 2:
        return False
    xy = track.future_xy[idx]
    dt = np.diff(idx) / 10.0
    speed = np.hypot(*(xy[1:] - xy[:-1]).T) / dt
    return bool((speed > MAX_PLAUSIBLE_SPEED).any())


@dataclass
class FilterReport:
    total: int = 0
    excluded_non_vehicle: int = 0
    excluded_no_dynamic: int = 0
    excluded_invalid_gt: int = 0
    remaining: int = 0

    def consistent(self) -> bool:
        return self.total == (self.remaining + self.excluded_non_vehicle
                              + self.excluded_no_dynamic
                              + self.excluded_invalid_gt)


FilteredItem = namedtuple("FilteredItem", ["track", "reach_set", "prediction"])


def filter_dataset(scenarios, predictions=None, cfg: RunConfig = RunConfig()):
    """Keep prediction targets suitable for scene-conditioned intents.

    Runs ``run_scene`` on every scenario and drops, in order:
    non-vehicles, vehicles without a valid lane association, and tracks
    with an invalid 8 s endpoint or implausible GT (inter-step speed
    above 60 m/s). ``predictions`` optionally maps agent_id to a
    per-model dict and is attached to the surviving items.
    """
    predictions = predictions or {}
    report = FilterReport()
    kept: list[FilteredItem] = []
    for scenario in scenarios:
        for track, assoc, reach_set in run_scene(scenario, cfg):
            report.total += 1
            if assoc is None:
                report.excluded_non_vehicle += 1
            elif reach_set is None:
                report.excluded_no_dynamic += 1
            elif track.gt_endpoint() is None or _implausible_gt(track):
                report.excluded_invalid_gt += 1
            else:
                report.remaining += 1
                kept.append(FilteredItem(track, reach_set,
                                         predictions.get(track.agent_id)))
    assert report.consistent()
    return kept, report


def intent_coverage(items, static_set: IntentionPointSet,
                    cfg: RunConfig = RunConfig(), mixes=None
                    ) -> list[list[float]]:
    """Coverage in m of the intention points of kept targets (items with
    ``track`` and ``reach_set``, as ``filter_dataset`` returns them): per
    item, the static set, its dynamic set, then one mixed set per
    ``MixConfig`` in ``mixes`` (default ``(cfg.mix,)``), in that order.
    The dynamic sets, and the mixed sets of each mix, are clustered in one
    batch."""
    dyns = dynamic_intents_many(
        [dynamic_pool(it.reach_set, it.track) for it in items], cfg.kmeans)
    mixed = [mixed_intents_many(dyns, static_set, mix, cfg.kmeans)
             for mix in ((cfg.mix,) if mixes is None else mixes)]
    return [[coverage(points, agent_frame_endpoint(it.track))
             for points in (static_set, *sets)]
            for it, *sets in zip(items, dyns, *mixed)]


def analyze_batch(items, model_names, static_set: IntentionPointSet,
                  cfg: RunConfig = RunConfig()):
    """``(deviation record, intent_coverage row)`` of each kept target; the
    record is None when some model in ``model_names`` has no prediction."""
    out = []
    for (track, reach_set, preds), covs in zip(
            items, intent_coverage(items, static_set, cfg)):
        record = None
        if preds is not None and all(m in preds for m in model_names):
            record = DeviationRecord(
                track.agent_id,
                gt_deviation(track, reach_set, cfg.deviation_mode),
                {m: min_fde(preds[m], track, 8) for m in model_names},
                detect_parked(track))
        out.append((record, covs))
    return out


def mixed_ratio_table(n_scenes: int = 500, seed: int = 0,
                      ratios=(1.0, 3.0, 5.0)):
    """Mean coverage of mixed intention points at several dynamic:static
    weight ratios over the targets ``filter_dataset`` keeps from one
    synthetic suite.

    Returns rows of (ratio label, targets used, mean coverage in m);
    deterministic in (n_scenes, seed, ratios).
    """
    mixes = [MixConfig(r, 1.0) for r in ratios]
    suite = generate_suite(n_scenes, seed)
    static_set = pooled_static(suite)
    items, _ = filter_dataset(suite)
    if not items:
        raise ValueError("no scene produced dynamic intention points")
    cols = zip(*(row[2:] for row in intent_coverage(items, static_set,
                                                    mixes=mixes)))
    n = len(items)
    # sum() adds left to right like a running total; np.mean sums pairwise
    return [(f"{r:g}:1", n, sum(col) / n) for r, col in zip(ratios, cols)]


def coverage_proxy(n_scenes: int = 1000, seed: int = 0):
    """Per-target coverage of static, dynamic, and mixed sets over the
    targets ``filter_dataset`` keeps from a follow-lane suite (every GT
    endpoint on the road graph); ``skipped`` counts the others."""
    suite = generate_suite(n_scenes, seed, behaviors=("follow_lane",))
    static_set = pooled_static(suite)
    items, report = filter_dataset(suite)
    cols = list(zip(*intent_coverage(items, static_set))) \
        or [()] * len(INTENT_KINDS)
    return ({kind: np.asarray(col) for kind, col in zip(INTENT_KINDS, cols)}
            | {"skipped": report.total - report.remaining})
