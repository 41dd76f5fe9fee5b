"""The benchmark's workloads: set-up, timed phase, output capture, checks.

Every workload drives the program from outside, through
``intentforge.cli.main`` or the library's module attributes (so that the
tracer's wrappers see the calls), with one process and ``--jobs 1``. Inputs
come only from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import time
import traceback
from pathlib import Path

import numpy as np

from intentforge import cli, intention, lane_assoc, map_model, road_graph
from intentforge.experiments import pooled_static
from intentforge.intention import KMeansConfig, MixConfig
from intentforge.road_graph import GraphConfig

import checks
import tracing

SUITE_SCENES = 500
ANALYZE_WINDOW = 100
MODELS = ("far", "gt", "near")    # prediction models written for analyze
MODES = 6
MODEL_SPREAD_M = {"far": 4.0, "gt": 2.0, "near": 1.0}
RECOMPUTED_AGENTS = 4             # suite_mixed agents recomputed by library

ONLINE_LANES = 10
ONLINE_LANE_NODES = 1000          # 10 x 1000 = the 10,000-node map
ONLINE_QUERIES = 100              # per pass; two passes put 10 beyond p95
ONLINE_X_MAX = 330.0              # leaves a full 8 s horizon ahead of agents
ONLINE_BLOCK = 10                 # queries between yardstick samples


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def call_cli(argv):
    """Run ``intentforge.cli.main`` quietly; (exit code, captured stderr).

    An exception escaping ``main`` is a program fault and reads as exit 1.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, err.getvalue()


class Suite:
    """``gen --suite`` in set-up; one CLI command over it is timed."""

    setup_reps = 3

    def __init__(self, name, seed, work: Path, ys, n_scenes=SUITE_SCENES,
                 window=ANALYZE_WINDOW):
        self.name, self.seed, self.work, self.ys = name, seed, work, ys
        self.n_scenes, self.window = n_scenes, window
        self.scenes = work / "scenes0"
        self.outputs = []   # output paths of the first repetition

    def setup(self, i, tracer=None):
        out = self.work / f"scenes{i}"
        with _root_span(tracer):
            rc, err = call_cli(["gen", "--suite", str(self.n_scenes),
                                "--seed", str(self.seed), "-o", str(out)])
        if rc != 0:
            raise RuntimeError(f"gen exited {rc}: {err.strip()}")
        digest = digest_files(sorted(out.glob("*.json")))
        if out != self.scenes:
            shutil.rmtree(out)   # only its digest is needed
        return digest

    def _parse(self):
        """The scenes, and the prediction targets as agent -> scenario id."""
        scenarios = [map_model.parse_scenario(f.read_bytes())
                     for f in sorted(self.scenes.glob("*.json"))]
        self.targets = {aid: s.scenario_id for s in scenarios
                        for aid in s.tracks_to_predict}
        self.agents = len(self.targets)
        return scenarios

    def prepare(self):
        """Untimed: write the prediction CSVs that analyze reads. The other
        suite workloads parse the scenes only after timing, so that parsed
        scenes do not add to the phase's peak memory."""
        if self.name != "suite_analyze":
            return
        rng = np.random.default_rng([self.seed, 1])
        writers = {m: open(self.work / f"pred_{m}.csv", "w") for m in MODELS}
        try:
            for fh in writers.values():
                fh.write("agent_id,mode_idx,confidence,step,x,y\n")
            for scenario in self._parse():
                for aid in scenario.tracks_to_predict:
                    _write_predictions(writers, aid, scenario.track(aid), rng)
        finally:
            for fh in writers.values():
                fh.close()

    def argv(self, out: Path):
        scenes = str(self.scenes)
        if self.name == "suite_mixed":
            return ["intents", scenes, "--kind", "mixed", "--jobs", "1",
                    "-o", str(out / "mixed.csv")]
        if self.name == "suite_roadgraph":
            return ["dump-roadgraph", scenes, "--jobs", "1",
                    "-o", str(out / "roadgraph.csv")]
        preds = [a for m in MODELS
                 for a in ("--predictions", f"{m}={self.work}/pred_{m}.csv")]
        return ["analyze", scenes, *preds, "--window", str(self.window),
                "--jobs", "1", "-o", str(out)]

    def run_phase(self, rep, tracer=None):
        """One timed repetition: (wall s, wall in reference s, exit code,
        output digest, stderr)."""
        out = self.work / f"out{rep}"
        out.mkdir()
        argv = self.argv(out)
        before = self.ys.sample()
        start = time.perf_counter()
        with _root_span(tracer):
            rc, err = call_cli(argv)
        wall = time.perf_counter() - start
        scaled = wall * self.ys.scale(before, self.ys.sample())
        files = sorted(out.iterdir())
        if rep == 0:
            self.outputs = files
        return wall, scaled, rc, digest_files(files), err

    def check(self):
        """(attempted, failed agent ids, problems) for the first output."""
        texts = {p.name: p.read_text() for p in self.outputs}
        if self.name == "suite_analyze":
            return checks.check_analyze(texts, len(self.targets), MODELS,
                                        self.window)
        scenarios = self._parse()
        fallback = set()
        for s in scenarios:
            for aid in s.tracks_to_predict:
                track = s.track(aid)
                if (track.object_class != "vehicle" or lane_assoc.associate(
                        s.vector_map, track).fallback):
                    fallback.add(aid)
        if self.name == "suite_roadgraph":
            expected = {a: sid for a, sid in self.targets.items()
                        if a not in fallback}
            return checks.check_roadgraph(texts.get("roadgraph.csv", ""),
                                          self.targets, expected,
                                          GraphConfig().time_budget)
        return checks.check_intents(texts.get("mixed.csv", ""), self.targets,
                                    fallback,
                                    self._recompute(scenarios, fallback))

    def _recompute(self, scenarios, fallback):
        """Library recomputation of a few agents drawn from the seed."""
        static = {}
        by_agent = {aid: s for s in scenarios for aid in s.tracks_to_predict}
        ids = sorted(by_agent)
        rng = np.random.default_rng([self.seed, 2])
        picks = rng.choice(len(ids), size=min(RECOMPUTED_AGENTS, len(ids)),
                           replace=False)
        expected = {}
        for i in sorted(picks):
            aid = ids[i]
            scenario = by_agent[aid]
            track = scenario.track(aid)
            cls = track.object_class
            if cls not in static:
                static[cls] = pooled_static(scenarios, cls, KMeansConfig())
            if aid in fallback:
                expected[aid] = ("static", static[cls].points)
                continue
            assoc = lane_assoc.associate(scenario.vector_map, track)
            graph = road_graph.build_graph(scenario.vector_map)
            dyn = intention.dynamic_intents(road_graph.reach(graph, assoc),
                                            track)
            expected[aid] = ("mixed", intention.mixed_intents(
                dyn, static["vehicle"], MixConfig(), KMeansConfig()).points)
        return expected


def _write_predictions(writers, aid, track, rng):
    """Six modes per model: ground truth plus offsets growing to a
    per-mode endpoint offset drawn from the seed; mode 0 of ``gt`` is the
    ground truth itself, so its minFDE is exactly 0."""
    gt = track.future_xy
    ramp = (np.arange(1, gt.shape[0] + 1) / gt.shape[0])[:, None]
    gt_text = [(f"{x:.6f}", f"{y:.6f}") for x, y in gt.tolist()]
    for model in MODELS:
        offsets = rng.normal(0.0, MODEL_SPREAD_M[model], size=(MODES, 2))
        if model == "gt":
            offsets[0] = 0.0
        conf = np.floor(rng.dirichlet(np.ones(MODES)) * 1e6) / 1e6
        lines = []
        for mode in range(MODES):
            if not offsets[mode].any():
                xy = gt_text
            else:
                xy = [(f"{x:.6f}", f"{y:.6f}")
                      for x, y in (gt + ramp * offsets[mode]).tolist()]
            c = f"{conf[mode]:.6f}"
            lines.extend(f"{aid},{mode},{c},{step},{x},{y}\n"
                         for step, (x, y) in enumerate(xy))
        writers[model].write("".join(lines))


class Online:
    """Closed loop, one caller: associate -> reach -> dynamic_intents per
    agent on the 10-lane, 10,000-node map; the graph is built once."""

    setup_reps = 7

    def __init__(self, name, seed, work: Path, ys, n_queries=ONLINE_QUERIES):
        self.name, self.seed, self.work, self.ys = name, seed, work, ys
        self.agents = n_queries
        # repetition -> per-query reference ms, NaN if the query failed
        self.latencies_ms = {}
        self.results = []

    def setup(self, i, tracer=None):
        segments = []
        for lane in range(ONLINE_LANES):
            nodes = np.column_stack([
                np.linspace(0.0, 0.5 * (ONLINE_LANE_NODES - 1),
                            ONLINE_LANE_NODES),
                np.full(ONLINE_LANE_NODES, 3.5 * lane)])
            left = (map_model.LaneNeighbor(lane + 1, True)
                    if lane < ONLINE_LANES - 1 else None)
            right = map_model.LaneNeighbor(lane - 1, True) if lane else None
            segments.append(map_model.LaneSegment(lane, nodes, 13.4112, (), (),
                                                  left, right))
        self.vmap = map_model.VectorMap(segments)
        self.graph = road_graph.build_graph(self.vmap)
        return None

    def prepare(self):
        """Agents inside the association gates: within 1 m of a lane
        centre line, heading within 0.5 rad of the lane direction."""
        rng = np.random.default_rng([self.seed, 3])
        self.tracks = []
        for q in range(self.agents):
            x = float(rng.uniform(0.0, ONLINE_X_MAX))
            y = 3.5 * int(rng.integers(ONLINE_LANES)) + float(
                rng.uniform(-1.0, 1.0))
            self.tracks.append(_straight_track(
                f"q{q}", x, y, float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(2.0, 20.0))))

    def run_phase(self, rep, tracer=None):
        """One pass over the queries, sampling the yardstick every
        ONLINE_BLOCK queries so that each latency gets its own scale."""
        h = hashlib.sha256()
        problems = []
        latencies = self.latencies_ms[rep] = []
        wall = scaled = 0.0
        before = self.ys.sample()
        for lo in range(0, len(self.tracks), ONLINE_BLOCK):
            block = []
            start = time.perf_counter()
            for track in self.tracks[lo:lo + ONLINE_BLOCK]:
                t0 = time.perf_counter()
                try:
                    assoc = lane_assoc.associate(self.vmap, track)
                    rset = road_graph.reach(self.graph, assoc)
                    dyn = intention.dynamic_intents(rset, track)
                except ValueError as exc:
                    problems.append(f"{track.agent_id}: {exc}")
                    block.append(math.nan)
                    if rep == 0:
                        self.results.append((track.agent_id, None, None))
                    continue
                block.append((time.perf_counter() - t0) * 1e3)
                h.update(dyn.points.tobytes() + rset.arrival_times.tobytes())
                if rep == 0:
                    self.results.append((track.agent_id, dyn.points,
                                         rset.arrival_times))
            block_wall = time.perf_counter() - start
            after = self.ys.sample()
            factor = self.ys.scale(before, after)
            latencies.extend(ms * factor for ms in block)
            wall += block_wall
            scaled += block_wall * factor
            before = after
        return wall, scaled, 0, h.hexdigest(), "\n".join(problems)

    def check(self):
        return checks.check_online(self.results, GraphConfig().time_budget)


def _straight_track(aid, x, y, heading, speed):
    c, s = math.cos(heading), math.sin(heading)
    states = [map_model.AgentState(i, x + (i - 10) * 0.1 * speed * c,
                                   y + (i - 10) * 0.1 * speed * s,
                                   heading, speed, True) for i in range(91)]
    return map_model.AgentTrack(aid, "vehicle", 4.8, 2.1, states[:11],
                                states[11:])


@contextlib.contextmanager
def _root_span(tracer):
    if tracer is None:
        yield
    else:
        with tracer.span(tracing.CLI_ROOT):
            yield


WORKLOADS = {
    "suite_mixed": Suite,
    "suite_roadgraph": Suite,
    "suite_analyze": Suite,
    "bigmap_online": Online,
}
