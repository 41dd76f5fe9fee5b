"""The per-scene pipeline, the CLI's batch drivers, and the experiments.

``run_scene`` runs lane association and reachability for one scene under
a ``RunConfig``. The batch commands take scenes one at a time through
``scan``, keep only small per-scene results and finish in one process:
``intents_batch`` runs ``run_scene`` over many scenes for ``intents`` and
``dump-roadgraph``, and ``intent_rows`` turns its records into rows once
``static_sets`` are fitted from every scene's ``class_endpoints``.
``filter_dataset`` sorts ``run_scene``'s results into the targets that
``analyze`` keeps and the ones it excludes, and reduces each kept one to
its track, dynamic intention points, ground-truth deviation and parked
flag; ``intent_coverage`` scores kept targets' static, dynamic and mixed
intention points against their ground-truth endpoints, and
``analyze_batch`` adds deviation records from per-model minFDEs.
The experiments back the scripts in scripts/, walk one generated suite
once through ``scan``, and keep and score agents exactly as ``analyze``
does: the mixed-ratio coverage table (how strongly to weight
scene-conditioned points against statistical ones when pooling) and the
coverage proxy comparing static, dynamic, and mixed intention sets.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import NamedTuple

import numpy as np

from .analysis import (DEVIATION_MODES, DeviationRecord, coverage,
                       detect_parked, gt_deviation)
from .intention import (INTENT_KINDS, IntentionPointSet, KMeansConfig,
                        MixConfig, dynamic_intents, mixed_intents_many,
                        to_agent_frame, weighted_kmeans)
from .lane_assoc import AssocConfig, AssociationResult, associate
from .map_model import AgentTrack, Scenario, _integer
from .road_graph import GraphConfig, ReachabilitySet, build_graph, reach
from .scenario_gen import iter_suite


class DataError(ValueError):
    """Input data the pipeline cannot use as a whole, such as an agent id
    in two scenes; the CLI maps it to exit code 1."""


def agent_frame_endpoint(track: AgentTrack):
    """Ground-truth 8 s endpoint in the agent frame, or None if invalid."""
    endpoint = track.gt_endpoint()
    if endpoint is None:
        return None
    return to_agent_frame(endpoint, track)


def class_endpoints(scenario: Scenario) -> dict[str, np.ndarray]:
    """The valid ground-truth 8 s endpoints of one scene's tracks in the
    agent frame, as an (n, 2) array per object class, in track order."""
    found: dict[str, list] = {}
    for track in scenario.tracks:
        local = agent_frame_endpoint(track)
        if local is not None:
            found.setdefault(track.object_class, []).append(local)
    return {cls: np.asarray(points) for cls, points in found.items()}


def fit_static(scene_endpoints, object_class: str = "vehicle",
               cfg: KMeansConfig = KMeansConfig()) -> IntentionPointSet:
    """Statistical intention points: K-means over the endpoints of one
    class in an iterable of ``class_endpoints`` results, in that order."""
    pools = [e[object_class] for e in scene_endpoints if object_class in e]
    if not pools:
        raise DataError(f"no valid {object_class} endpoints in the corpus")
    try:
        return IntentionPointSet(
            "static", weighted_kmeans(np.concatenate(pools), None, cfg))
    except ValueError as exc:
        raise DataError(f"cannot cluster the {object_class} endpoints: "
                        f"{exc}") from None


def pooled_static(scenarios, object_class: str = "vehicle",
                  cfg: KMeansConfig = KMeansConfig()) -> IntentionPointSet:
    """Statistical intention points from every valid endpoint of the
    given class across a scenario corpus."""
    return fit_static(map(class_endpoints, scenarios), object_class, cfg)


def static_sets(heads, classes, cfg: KMeansConfig = KMeansConfig(),
                pools=None) -> dict[str, IntentionPointSet]:
    """One statistical point set per object class in ``classes``: from the
    endpoint arrays by class ``pools`` (``analysis.read_endpoints`` of an
    endpoints file) when given, else from ``fit_static`` of the endpoints
    in the ``scan`` heads ``heads``."""
    sets = {}
    for cls in classes:
        if pools is not None and cls not in pools:
            raise DataError(f"endpoints file has no rows for class {cls!r}")
        sets[cls] = fit_static((e for *_, e in heads) if pools is None
                               else [pools], cls, cfg)
    return sets


def scan(sources, load, work):
    """``work`` over the scenes ``load`` returns for ``sources``, each
    loaded when ``work`` reaches it, so that one scene is alive at a time
    (and the one before it, until the next is loaded). Records the head of
    each scene as it passes: ``(scenario id, track ids,
    class_endpoints)``. Returns the heads in scene order and ``work``'s
    result."""
    heads = []

    def recorded():
        for scenario in map(load, sources):
            heads.append((scenario.scenario_id,
                          [t.agent_id for t in scenario.tracks],
                          class_endpoints(scenario)))
            yield scenario
    result = work(recorded())
    return heads, result


def corpus_heads(chunks) -> list:
    """The heads of every ``scan`` in ``chunks`` (``scan`` results) in
    scenario-id order, ties in chunk order. Raises DataError when an agent
    id appears in more than one scene."""
    heads = sorted((h for hs, _ in chunks for h in hs), key=lambda h: h[0])
    seen: set[str] = set()
    for agent_id in (a for _, track_ids, _ in heads for a in track_ids):
        if agent_id in seen:
            raise DataError(f"agent id {agent_id!r} appears in more than "
                            f"one scenario")
        seen.add(agent_id)
    return heads


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
        _integer("window", self.window, 1)
        if self.deviation_mode not in DEVIATION_MODES:
            raise ValueError(f"deviation_mode must be one of {DEVIATION_MODES}")
        if not isinstance(self.exclude_parked, bool):
            raise ValueError("exclude_parked must be true or false")

    @classmethod
    def config_keys(cls) -> dict:
        """Every config key with its default: the fields of the config
        groups, then the own fields, which only the analysis reads."""
        return {g.name: g.default for f in fields(cls)
                if is_dataclass(f.default) for g in fields(f.default)} | {
            f.name: f.default for f in fields(cls)
            if not is_dataclass(f.default)}

    @classmethod
    def from_keys(cls, values) -> RunConfig:
        """The config holding ``values[key]`` for every key of
        ``config_keys``."""
        return cls(**{f.name: replace(f.default, **{
            g.name: values[g.name] for g in fields(f.default)})
            if is_dataclass(f.default) else values[f.name]
            for f in fields(cls)})


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


def intents_batch(scenarios, kind: str | None,
                  cfg: RunConfig = RunConfig(), dump: bool = False):
    """``run_scene`` over many scenes (none when ``kind`` is static), with
    the ``dynamic_intents`` of each reach set as its scene comes. Returns
    one record per target, in scene order: ``(scenario id, agent id,
    object class, reach, dynamic set or None)``. ``reach`` is the
    ``(positions, arrival times)`` of the target's reach set when ``dump``
    is set and it has one, else None; the set is None when ``kind`` is
    None."""
    records = []
    for scenario in scenarios:
        results = run_scene(scenario, cfg) if kind != "static" else (
            AgentResult(scenario.track(a), None, None)
            for a in scenario.tracks_to_predict)
        for track, _, reach_set in results:
            reach = None if reach_set is None or not dump else (
                reach_set.positions, reach_set.arrival_times)
            records.append((scenario.scenario_id, track.agent_id,
                            track.object_class, reach,
                            None if reach_set is None or kind is None
                            else dynamic_intents(reach_set, track,
                                                 cfg.kmeans)))
    return records


def _mixed(dyns, static_set, mix: MixConfig, cfg: KMeansConfig):
    """``mixed_intents_many``, or a DataError naming the mix weights."""
    try:
        return mixed_intents_many(dyns, static_set, mix, cfg)
    except ValueError as exc:
        raise DataError(f"cannot cluster mixed points at dynamic:static "
                        f"weights {mix.dynamic_weight:g}:{mix.static_weight:g}"
                        f": {exc}") from None


def intent_rows(records, kind: str, static_sets,
                cfg: RunConfig = RunConfig()):
    """``(agent id, kind, points, fallback flag)`` rows of ``intents_batch``
    records, sorted by agent id. A target with a dynamic set gets it, or,
    when ``kind`` is mixed, its mix with the vehicle entry of
    ``static_sets`` (one ``mixed_intents_many`` call, batched inside); any
    other target gets its class's ``static_sets`` entry."""
    records = sorted(records, key=lambda r: r[1])
    sets = [dyn for *_, dyn in records if dyn is not None]
    # static_sets holds only the classes of the targets: without a dynamic
    # set there may be no vehicle target, and nothing to mix
    if kind == "mixed" and sets:
        sets = _mixed(sets, static_sets["vehicle"], cfg.mix, cfg.kmeans)
    sets = iter(sets)
    return [(aid, kind, next(sets).points, "0") if dyn is not None
            else (aid, "static", static_sets[cls].points,
                  "0" if kind == "static" else "1")
            for _, aid, cls, _, dyn in records]


MAX_PLAUSIBLE_SPEED = 60.0   # m/s between consecutive valid GT samples


def _implausible_gt(track: AgentTrack) -> bool:
    idx = np.nonzero(track.future_valid)[0]
    if idx.size < 2:
        return False
    xy = track.future_xy[idx]
    dt = np.diff(idx) / 10.0
    # a speed beyond float range is inf, implausible too
    with np.errstate(over="ignore"):
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


class FilteredItem(NamedTuple):
    """One target ``filter_dataset`` keeps, reduced to what analysis
    scores; its reach set is not kept."""

    track: AgentTrack
    dynamic: IntentionPointSet
    deviation: float    # gt_deviation under RunConfig.deviation_mode
    parked: bool        # detect_parked


def filter_dataset(scenarios, cfg: RunConfig = RunConfig()):
    """Keep prediction targets suitable for scene-conditioned intents.

    Runs ``run_scene`` on every scenario and drops, in order:
    non-vehicles, vehicles without a valid lane association, and tracks
    with an invalid 8 s endpoint or implausible GT (inter-step speed
    above 60 m/s). Each kept target becomes a ``FilteredItem`` as it
    comes, with its ``dynamic_intents``. Returns the kept items in scene
    order and the ``FilterReport``.
    """
    report = FilterReport()
    items = []
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
                deviation = gt_deviation(track, reach_set, cfg.deviation_mode)
                items.append(FilteredItem(
                    track, dynamic_intents(reach_set, track, cfg.kmeans),
                    deviation, detect_parked(track)))
    assert report.consistent()
    return items, report


def intent_coverage(items, static_set: IntentionPointSet,
                    cfg: RunConfig = RunConfig(), mixes=None
                    ) -> list[list[float]]:
    """Coverage in m, per ``filter_dataset`` item, of the static set, its
    dynamic set, then its mixed set of each ``MixConfig`` in ``mixes``
    (default ``(cfg.mix,)``; one ``mixed_intents_many`` call per mix)."""
    dyns = [it.dynamic for it in items]
    mixed = [_mixed(dyns, static_set, mix, cfg.kmeans)
             for mix in ((cfg.mix,) if mixes is None else mixes)]
    ends = (agent_frame_endpoint(it.track) for it in items)
    return [[coverage(points.points, end)
             for points in (static_set, it.dynamic, *sets)]
            for end, it, *sets in zip(ends, items, *mixed)]


def analyze_batch(items, fdes, static_set: IntentionPointSet,
                  cfg: RunConfig = RunConfig()):
    """Deviation records and coverage of ``filter_dataset`` items:
    ``(records, rows, skipped)``. ``fdes`` maps each model name to the
    minFDE at 8 s by agent id. A target lacking one of some model counts in
    ``skipped`` and has no record, and so has a parked one when
    ``cfg.exclude_parked``; ``rows`` holds ``(agent id, kind, coverage in
    m)`` for every target and ``intent_coverage`` kind, sorted."""
    records, rows, skipped = [], [], 0
    for it, covs in zip(items, intent_coverage(items, static_set, cfg)):
        aid = it.track.agent_id
        rows += [(aid, kind, cov) for kind, cov in zip(INTENT_KINDS, covs)]
        if any(aid not in fde for fde in fdes.values()):
            skipped += 1
        elif not (cfg.exclude_parked and it.parked):
            records.append(DeviationRecord(
                aid, it.deviation, {m: fdes[m][aid] for m in sorted(fdes)},
                it.parked))
    return records, sorted(rows, key=lambda r: r[:2]), skipped


def _suite_coverage(n: int, seed: int, behaviors=None, mixes=None):
    """``intent_coverage`` rows and the ``FilterReport`` of the targets
    ``filter_dataset`` keeps from one ``iter_suite``, walked once through
    ``scan``; the static vehicle set is fitted from the scan heads in
    suite order."""
    heads, (items, report) = scan(iter_suite(n, seed, behaviors),
                                  lambda s: s, filter_dataset)
    static_set = static_sets(heads, ["vehicle"])["vehicle"]
    return intent_coverage(items, static_set, mixes=mixes), report


def mixed_ratio_table(n_scenes: int, seed: int, ratios):
    """Mean coverage of mixed intention points at several dynamic:static
    weight ratios over the targets ``filter_dataset`` keeps from one
    synthetic suite.

    Returns rows of (ratio label, targets used, mean coverage in m);
    deterministic in (n_scenes, seed, ratios). Raises DataError when no
    target is kept.
    """
    rows, _ = _suite_coverage(n_scenes, seed,
                              mixes=[MixConfig(r, 1.0) for r in ratios])
    if not rows:
        raise DataError("no scene produced dynamic intention points")
    n = len(rows)
    # sum() adds left to right like a running total; np.mean sums pairwise
    return [(f"{r:g}:1", n, sum(col) / n)
            for r, col in zip(ratios, zip(*(row[2:] for row in rows)))]


def coverage_proxy(n_scenes: int, seed: int):
    """Per-target coverage of static, dynamic, and mixed sets over the
    targets ``filter_dataset`` keeps from a follow-lane suite (every GT
    endpoint on the road graph); ``skipped`` counts the others."""
    rows, report = _suite_coverage(n_scenes, seed, ("follow_lane",))
    cols = list(zip(*rows)) or [()] * len(INTENT_KINDS)
    return ({kind: np.asarray(col) for kind, col in zip(INTENT_KINDS, cols)}
            | {"skipped": report.total - report.remaining})
