"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from intentforge.map_model import (FUTURE_LEN, HISTORY_LEN, AgentState,
                                   AgentTrack, InvariantViolation,
                                   LaneNeighbor, LaneSegment,
                                   MalformedScenario, Scenario,
                                   SchemaViolation, VectorMap,
                                   write_scenario)
from intentforge.road_graph import GraphConfig, ReachabilitySet, RoadGraph
from intentforge.scenario_gen import GenSpec, generate

# scripts that tests start as subprocesses import the package from this
# checkout, as the test process does
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
              if p])


def line_nodes(p0, p1, spacing=0.5) -> np.ndarray:
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    n = max(1, round(float(np.hypot(*(p1 - p0))) / spacing))
    t = np.linspace(0.0, 1.0, n + 1)
    return p0 + t[:, None] * (p1 - p0)


def seg(seg_id, nodes, limit=13.4112, exits=(), entries=(), left=None,
        right=None) -> LaneSegment:
    return LaneSegment(seg_id, np.asarray(nodes, dtype=float), limit,
                       tuple(exits), tuple(entries), left, right)


def straight_map(length=100.0, spacing=0.5, limit=13.4112) -> VectorMap:
    return VectorMap([seg(0, line_nodes((0, 0), (length, 0), spacing), limit)])


def parallel_lanes(n_lanes, n_nodes) -> VectorMap:
    """``n_lanes`` straight lanes of ``n_nodes`` nodes 0.5 m apart along x,
    3.5 m apart in y, each free to change into its neighbors both ways:
    the map of criterion 9 and ``bigmap_online`` (10 lanes of 1,000 nodes),
    scaled. Its identical lanes tie many arrival times exactly."""
    length = 0.5 * (n_nodes - 1)
    return VectorMap([
        seg(i, line_nodes((0, 3.5 * i), (length, 3.5 * i)),
            left=LaneNeighbor(i + 1, True) if i + 1 < n_lanes else None,
            right=LaneNeighbor(i - 1, True) if i else None)
        for i in range(n_lanes)])


# (start nodes, time budget) queries on parallel_lanes(6, 400): from lane
# ends and middles, one with two starts; the first three reach at least
# 1,024 nodes, which Lloyd clusters with distance bounds
PARALLEL_LANE_QUERIES = [
    (((0, 0),), 8.0), (((2, 40),), 8.0), (((5, 120), (1, 121)), 6.0),
    (((3, 250),), 8.0), (((2, 200),), 2.5), (((4, 7),), 0.8)]


def state_block(xy, heading, speed, valid) -> np.ndarray:
    """Rows (x, y, heading, speed, valid) laid out like
    ``AgentTrack.states``, one per row of ``xy``."""
    xy = np.asarray(xy, dtype=float)
    block = np.empty((xy.shape[0], 5))
    block[:, :2] = xy
    block[:, 2:4] = heading, speed
    block[:, 4] = valid
    return block


def vehicle_track(pos, heading=0.0, speed=5.0, future_xy=None,
                  future_valid=True, agent_id="a0",
                  object_class="vehicle") -> AgentTrack:
    """Track moving along `heading` at constant speed; history ends at
    `pos`. The default future continues straight."""
    pos = np.asarray(pos, dtype=float)
    d = np.array([math.cos(heading), math.sin(heading)])
    back = (10 - np.arange(11))[:, None] * 0.1 * speed * d
    history = state_block(pos - back, heading, speed, True)
    if future_xy is None:
        steps = np.arange(1, 81)[:, None] * 0.1 * speed
        future_xy = pos + steps * d
    future = state_block(future_xy, heading, speed, future_valid)
    return AgentTrack.from_arrays(agent_id, object_class, 4.8, 2.1,
                                  range(91), history, future)


def stationary_track(pos, heading=0.0, agent_id="a0",
                     object_class="vehicle") -> AgentTrack:
    states = state_block(np.tile(pos, (91, 1)), heading, 0.0, True)
    return AgentTrack.from_arrays(agent_id, object_class, 4.8, 2.1,
                                  range(91), states[:11], states[11:])


def reach_of(positions) -> ReachabilitySet:
    """A reach set of the given positions, all on segment 0 at time 0."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    return ReachabilitySet(np.zeros(n, dtype=np.int64),
                           np.arange(n, dtype=np.int64),
                           positions, np.zeros(n))


def scenario_of(vmap, tracks, predict=None, scenario_id="s0") -> Scenario:
    predict = tuple(predict) if predict is not None else tuple(
        t.agent_id for t in tracks)
    return Scenario(scenario_id, vmap, list(tracks), predict)


# -- independent oracles -----------------------------------------------------

def point_to_polyline_distance(point, nodes) -> float:
    """Minimal distance from ``point`` to the polyline through ``nodes``."""
    p = np.asarray(point, dtype=np.float64)
    pts = np.asarray(nodes, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("polyline needs at least 2 nodes")
    a, b = pts[:-1], pts[1:]
    ab = b - a
    denom = (ab * ab).sum(axis=1)
    t = np.zeros(len(a))
    nz = denom > 0
    t[nz] = ((p - a[nz]) * ab[nz]).sum(axis=1) / denom[nz]
    t = np.clip(t, 0.0, 1.0)
    closest = a + t[:, None] * ab
    return float(np.hypot(*(closest - p).T).min())


def from_agent_frame(point, track: AgentTrack) -> np.ndarray:
    """Agent frame -> global point: the inverse of ``to_agent_frame``."""
    cur = track.current_state
    c, s = math.cos(cur.heading), math.sin(cur.heading)
    x, y = float(point[0]), float(point[1])
    return np.array([cur.x + c * x - s * y, cur.y + s * x + c * y])


def graph_adjacency(graph: RoadGraph) -> list[list[tuple[int, float]]]:
    """Each node's (target, travel time) edges, read from the flat lists of
    ``graph`` in the order of ``road_graph_reference``: the step, the other
    edges (exits), then the left and the right lane change. A missing lane
    change has a NaN time as well as a None target."""
    adjacency = []
    for u in range(graph.n_nodes):
        w = graph.step_time[u]
        edges = [] if math.isnan(w) else [(u + 1, w)]
        edges += graph.other_edges.get(u, [])
        for v, w in ((graph.left_node[u], graph.left_time[u]),
                     (graph.right_node[u], graph.right_time[u])):
            assert (v is None) == math.isnan(w), (u, v, w)
            if v is not None:
                edges.append((v, w))
        adjacency.append(edges)
    return adjacency


def graph_edges(graph: RoadGraph):
    """Every (source, target, travel time) edge of a road graph."""
    for u, nbrs in enumerate(graph_adjacency(graph)):
        for v, w in nbrs:
            yield u, v, w


def n_edges(graph: RoadGraph) -> int:
    return sum(len(a) for a in graph_adjacency(graph))


def other_edges_graph(seg_ids, node_indices, positions,
                      other_edges) -> RoadGraph:
    """A road graph with no steps or lane changes: every edge is in
    ``other_edges``, as on an arbitrary graph."""
    n = len(positions)
    return RoadGraph(seg_ids, node_indices, positions, [math.nan] * n,
                     [None] * n, [math.nan] * n, [None] * n, [math.nan] * n,
                     other_edges)


def road_graph_reference(vmap: VectorMap, cfg: GraphConfig | None = None):
    """The adjacency of ``build_graph`` built one segment at a time, with
    each lane-change target taken as the first argmin of the neighbor's
    whole elementwise block of squared distances: ``build_graph`` must
    return the same edges in the same order with bit-equal weights."""
    cfg = cfg or GraphConfig()
    base, n = {}, 0
    for sid, s in vmap.segments.items():
        base[sid] = n
        n += s.n_nodes
    positions = vmap.node_positions
    adjacency = [[] for _ in range(n)]
    for sid, s in vmap.segments.items():
        b = base[sid]
        denom = s.speed_limit_mps + cfg.speed_offset
        arcs = s.arc_offsets.tolist()
        for i in range(s.n_nodes - 1):
            adjacency[b + i].append((b + i + 1, (arcs[i + 1] - arcs[i]) / denom))
        last = b + s.n_nodes - 1
        for e in s.exit_ids:
            gap = float(np.hypot(*(positions[base[e]] - positions[last])))
            adjacency[last].append((base[e], gap / denom))
        for nb in (s.left, s.right):
            if nb is None or not nb.change_ok:
                continue
            p, o = s.nodes, vmap.segments[nb.segment_id].nodes
            d2 = ((p[:, 0, None] - o[:, 0]) ** 2
                  + (p[:, 1, None] - o[:, 1]) ** 2)
            nearest = d2.argmin(axis=1)
            gaps = np.hypot(*(o[nearest] - p).T) / denom
            for i, (j, w) in enumerate(zip(nearest.tolist(), gaps.tolist())):
                adjacency[b + i].append((base[nb.segment_id] + j, w))
    return adjacency


def reach_oracle(adjacency, starts, budget) -> dict[int, float]:
    """Exhaustive path exploration with budget and improvement pruning;
    no priority queue, so it is independent of the Dijkstra code path."""
    best: dict[int, float] = {}
    stack = [(s, 0.0) for s in starts]
    while stack:
        u, t = stack.pop()
        if t > budget or best.get(u, math.inf) <= t:
            continue
        best[u] = t
        for v, w in adjacency[u]:
            stack.append((v, t + w))
    return best


def random_road_graph(rng, n_nodes, avg_out=1.8,
                      zero_weight_fraction=0.05) -> RoadGraph:
    positions = rng.uniform(-100, 100, size=(n_nodes, 2))
    other = {}
    for u in range(n_nodes):
        deg = rng.poisson(avg_out)
        nbrs = []
        for _ in range(deg):
            v = int(rng.integers(n_nodes))
            w = 0.0 if rng.random() < zero_weight_fraction \
                else float(rng.uniform(0.05, 2.5))
            nbrs.append((v, w))
        if nbrs:
            other[u] = nbrs
    return other_edges_graph(np.zeros(n_nodes, dtype=np.int64),
                             np.arange(n_nodes, dtype=np.int64), positions,
                             other)


def _cross2(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain hull; may return 1 or 2 points for degenerate input."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.shape[0] <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(iterable):
        out = []
        for p in iterable:
            while len(out) >= 2 and _cross2(out[-1] - out[-2],
                                            p - out[-2]) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0, 1))
    return float(np.hypot(*(a + t * ab - p)))


def point_in_hull(p, hull: np.ndarray, eps=1e-7) -> bool:
    p = np.asarray(p, dtype=float)
    if hull.shape[0] == 1:
        return float(np.hypot(*(hull[0] - p))) <= eps
    if hull.shape[0] == 2:
        return _point_segment_distance(p, hull[0], hull[1]) <= eps
    for i in range(hull.shape[0]):
        a, b = hull[i], hull[(i + 1) % hull.shape[0]]
        edge = b - a
        # signed distance to the edge line, hull is counter-clockwise
        if _cross2(edge, p - a) / np.hypot(*edge) < -eps:
            return False
    return True


def kmeanspp_reference(pts, weights, k, rng) -> np.ndarray:
    """Greedy weighted k-means++ scored one candidate at a time: the
    per-candidate loop that ``intention._kmeanspp`` must reproduce bit for
    bit (same draws, same elementwise distances, same potentials, same tie
    rule)."""
    def d2_to(center):
        return (pts[:, 0] - center[0]) ** 2 + (pts[:, 1] - center[1]) ** 2

    def pick(cum, u):
        return min(int(np.searchsorted(cum, u * cum[-1], side="right")),
                   len(cum) - 1)

    n_trials = 2 + int(math.log(k)) if k > 1 else 1
    chosen = [pick(np.cumsum(weights), rng.random())]
    d2 = d2_to(pts[chosen[-1]])
    for _ in range(k - 1):
        cum = np.cumsum(weights * d2)
        candidates = [pick(cum, rng.random()) for _ in range(n_trials)]
        best_idx, best_d2, best_pot = None, None, math.inf
        for c in candidates:
            cand_d2 = np.minimum(d2, d2_to(pts[c]))
            pot = float((weights * cand_d2).sum())
            # the first candidate stands even at an infinite potential
            if best_idx is None or pot < best_pot:
                best_idx, best_d2, best_pot = c, cand_d2, pot
        chosen.append(best_idx)
        d2 = best_d2
    return pts[np.asarray(chosen)].copy()


def coalesce_reference(points, weights):
    """Merge exact duplicate points, summing weights, keeping first-seen
    order: the dict loop that ``intention._coalesce`` must reproduce bit
    for bit (-0.0 and 0.0 are one key)."""
    seen: dict[tuple[float, float], int] = {}
    order: list[int] = []
    w_out: list[float] = []
    for i, (x, y) in enumerate(points):
        key = (float(x), float(y))
        j = seen.get(key)
        if j is None:
            seen[key] = len(order)
            order.append(i)
            w_out.append(float(weights[i]))
        else:
            w_out[j] += float(weights[i])
    return points[np.asarray(order)], np.asarray(w_out)


def fmt_float_reference(x) -> str:
    """A CSV float: 6 decimals, with -0.0 printed as 0.000000."""
    if x == 0.0:
        x = 0.0
    return format(x, ".6f")


def reach_csv_reference(reach_sets) -> str:
    """The reach CSV text of ``(scenario id, agent id, positions, arrival
    times)`` sets in any order, as one list of formatted rows sorted on
    their values read back: the writer that ``cli._write_reach_csv`` must
    reproduce byte for byte."""
    rows = [(sid, aid, *map(fmt_float_reference, (x, y, t)))
            for sid, aid, positions, times in reach_sets
            for (x, y), t in zip(positions.tolist(), times.tolist())]
    rows.sort(key=lambda r: (r[0], r[1], float(r[4]), float(r[2]),
                             float(r[3])))
    return "".join(",".join(r) + "\n" for r in [
        ("scenario_id", "agent_id", "x", "y", "arrival_s"), *rows])


def lloyd_reference(pts, weights, centers, cfg):
    """Weighted Lloyd over the whole elementwise distance block in every
    iteration: ``intention._lloyd`` must return bit-identical centers and as
    many objectives."""
    k = centers.shape[0]
    n = pts.shape[0]
    objectives = []
    for _ in range(cfg.max_iterations):
        d2 = ((pts[:, 0, None] - centers[:, 0]) ** 2
              + (pts[:, 1, None] - centers[:, 1]) ** 2)
        labels = d2.argmin(axis=1)
        objectives.append(float((weights * d2[np.arange(n), labels]).sum()))
        sw = np.bincount(labels, weights=weights, minlength=k)
        sx = np.bincount(labels, weights=weights * pts[:, 0], minlength=k)
        sy = np.bincount(labels, weights=weights * pts[:, 1], minlength=k)
        new_centers = centers.copy()
        occupied = sw > 0
        new_centers[occupied, 0] = sx[occupied] / sw[occupied]
        new_centers[occupied, 1] = sy[occupied] / sw[occupied]
        shift = math.sqrt(float(((new_centers - centers) ** 2)
                                .sum(axis=1).max()))
        centers = new_centers
        if shift < cfg.tolerance:
            break
    return centers, objectives


def lane_order_reference(pool, cfg) -> np.ndarray:
    """Dynamic intention points of one pool of more than k distinct points,
    given in lane order, in plain Python: the pool coalesced; seed j at the
    first point whose running weight sum reaches (j + 0.5) / k of the
    total, then at least one past seed j - 1 and at most n - k + j, so
    that the k seeds are distinct and in order; Lloyd from those seeds;
    sorted by (x, y). ``intention.dynamic_intents`` must return the same
    bits for a reach set listed in that order."""
    pts, weights = coalesce_reference(np.asarray(pool, dtype=float),
                                      np.ones(len(pool)))
    n, k = len(pts), cfg.k
    cum, total = [], 0.0
    for w in weights.tolist():
        total += w
        cum.append(total)
    seeds = []
    for j in range(k):
        target = total * ((j + 0.5) / k)
        first = next(i for i, c in enumerate(cum) if c >= target)
        seeds.append(first if not seeds else max(first, seeds[-1] + 1))
    seeds = [min(i, n - k + j) for j, i in enumerate(seeds)]
    centers, _ = lloyd_reference(pts, weights, pts[seeds], cfg)
    return centers[np.lexsort((centers[:, 1], centers[:, 0]))]


# -- per-state track generator and per-row writer --------------------------------

def _q6_reference(x) -> float:
    return round(float(x), 6)


def _quantize_heading_reference(h: float) -> float:
    if h <= -math.pi:
        h += math.tau
    return math.trunc(h * 1e6) / 1e6


def states_from_path_reference(dense, s0, speed):
    """The 11 history and 80 future AgentStates built one at a time with
    Python's ``round``: ``scenario_gen._states_from_path`` must return
    their (91, 5) block bit for bit."""
    arcs = np.concatenate(([0.0], np.cumsum(np.hypot(*(dense[1:] - dense[:-1]).T))))
    t = np.arange(91)
    s = np.clip(s0 + speed * 0.1 * (t - 10), 0.0, float(arcs[-1]))
    xs = np.interp(s, arcs, dense[:, 0])
    ys = np.interp(s, arcs, dense[:, 1])
    pieces = np.clip(np.searchsorted(arcs, s, side="right") - 1,
                     0, dense.shape[0] - 2)
    states = []
    for i in range(91):
        j = int(pieces[i])
        d = dense[j + 1] - dense[j]
        heading = _quantize_heading_reference(math.atan2(d[1], d[0]))
        states.append(AgentState(int(t[i]), _q6_reference(xs[i]),
                                 _q6_reference(ys[i]), heading,
                                 _q6_reference(speed), True))
    return states[:11], states[11:]


def stationary_states_reference(pos, heading=0.0):
    x, y = _q6_reference(pos[0]), _q6_reference(pos[1])
    h = _quantize_heading_reference(heading)
    states = [AgentState(i, x, y, h, 0.0, True) for i in range(91)]
    return states[:11], states[11:]


def write_scenario_reference(scenario: Scenario) -> bytes:
    """Canonical scenario bytes with one ``%`` format per node and state
    row: ``write_scenario`` must return the same bytes."""
    def rows(fmt, items):
        return "[" + ",".join(fmt % tuple(item) for item in items) + "]"

    def states(track, sl):
        return rows("[%d,%.6f,%.6f,%.6f,%.6f,%d]",
                    ((t, *v) for t, v in zip(track.timestamps[sl],
                                             (track.states[sl] + 0.0).tolist())))

    def neighbor(n):
        return "null" if n is None else '{"change_ok":%d,"id":%d}' % (
            n.change_ok, n.segment_id)

    segments = ",".join(
        '{"entries":%s,"exits":%s,"id":%d,"left":%s,"nodes":%s,"right":%s,'
        '"speed_limit_mps":%.6f}' % (
            rows("%d", [[e] for e in seg.entry_ids]),
            rows("%d", [[e] for e in seg.exit_ids]), seg.id,
            neighbor(seg.left), rows("[%.6f,%.6f]", (seg.nodes + 0.0).tolist()),
            neighbor(seg.right), seg.speed_limit_mps + 0.0)
        for seg in scenario.vector_map.segments.values())
    tracks = ",".join(
        '{"agent_id":%s,"class":%s,"future":%s,"history":%s,"length_m":%.6f,'
        '"width_m":%.6f}' % (
            json.dumps(t.agent_id), json.dumps(t.object_class),
            states(t, slice(HISTORY_LEN, None)), states(t, slice(HISTORY_LEN)),
            t.length_m + 0.0, t.width_m + 0.0)
        for t in scenario.tracks)
    return ('{"map":{"segments":[%s]},"scenario_id":%s,"tracks":[%s],'
            '"tracks_to_predict":%s}\n' % (
                segments, json.dumps(scenario.scenario_id), tracks,
                json.dumps(list(scenario.tracks_to_predict),
                           separators=(",", ":")))).encode("utf-8")


# -- per-field scenario parser -------------------------------------------------
# The parser that checks one field at a time, with the per-state track
# checks: ``parse_scenario`` must return the same scenario or raise the same
# error. It leaves two faults as they were: a JSON integer beyond float
# range ends in OverflowError, and one beyond Python's int-string digit
# limit in ValueError, where ``parse_scenario`` raises a ScenarioError.

def _expect(cond: bool, path: str, reason: str):
    if not cond:
        raise SchemaViolation(f"{path}: {reason}")


def _num(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value), path, "expected finite number")
    return float(value)


def _parse_neighbor(obj, path: str):
    if obj is None:
        return None
    _expect(isinstance(obj, dict), path, "expected object or null")
    _expect("id" in obj and "change_ok" in obj, path,
            "neighbor needs fields id, change_ok")
    _expect(isinstance(obj["id"], int), f"{path}.id", "expected integer")
    _expect(obj["change_ok"] in (0, 1), f"{path}.change_ok", "expected 0 or 1")
    return LaneNeighbor(obj["id"], bool(obj["change_ok"]))


def _parse_segment(obj, path: str) -> LaneSegment:
    _expect(isinstance(obj, dict), path, "expected object")
    for key in ("id", "speed_limit_mps", "nodes", "exits", "entries",
                "left", "right"):
        _expect(key in obj, path, f"missing field {key!r}")
    _expect(isinstance(obj["id"], int), f"{path}.id", "expected integer")
    nodes = obj["nodes"]
    _expect(isinstance(nodes, list) and len(nodes) >= 2, f"{path}.nodes",
            "expected array of at least 2 points")
    parsed = []
    for i, pt in enumerate(nodes):
        _expect(isinstance(pt, list) and len(pt) == 2, f"{path}.nodes[{i}]",
                "expected [x, y]")
        parsed.append([_num(pt[0], f"{path}.nodes[{i}][0]"),
                       _num(pt[1], f"{path}.nodes[{i}][1]")])
    for key in ("exits", "entries"):
        refs = obj[key]
        _expect(isinstance(refs, list) and all(isinstance(r, int) for r in refs),
                f"{path}.{key}", "expected array of segment ids")
    return LaneSegment(
        id=obj["id"],
        nodes=np.array(parsed),
        speed_limit_mps=_num(obj["speed_limit_mps"], f"{path}.speed_limit_mps"),
        exit_ids=tuple(obj["exits"]),
        entry_ids=tuple(obj["entries"]),
        left=_parse_neighbor(obj["left"], f"{path}.left"),
        right=_parse_neighbor(obj["right"], f"{path}.right"),
    )


def _parse_states(rows, path: str, expected_len: int) -> list[AgentState]:
    _expect(isinstance(rows, list) and len(rows) == expected_len, path,
            f"expected array of {expected_len} states")
    out = []
    for i, row in enumerate(rows):
        rpath = f"{path}[{i}]"
        _expect(isinstance(row, list) and len(row) == 6, rpath,
                "expected [t, x, y, heading, speed, valid]")
        t, x, y, h, v, ok = row
        _expect(isinstance(t, int), f"{rpath}[0]", "expected integer timestamp")
        _expect(ok in (0, 1), f"{rpath}[5]", "expected valid flag 0 or 1")
        if ok:
            out.append(AgentState(t, _num(x, rpath), _num(y, rpath),
                                  _num(h, rpath), _num(v, rpath), True))
        else:
            vals = [float(f) if isinstance(f, (int, float))
                    and math.isfinite(f) else 0.0 for f in (x, y, h, v)]
            out.append(AgentState(t, *vals, False))
    return out


def _check_track(agent_id, object_class, history, future):
    if object_class not in ("vehicle", "pedestrian", "cyclist"):
        raise SchemaViolation(
            f"track {agent_id}: class must be one of "
            f"vehicle|pedestrian|cyclist, got {object_class!r}")
    if not history[-1].valid:
        raise InvariantViolation(
            f"track {agent_id}: current state (last history entry) "
            f"must be valid")
    for st in (*history, *future):
        if not st.valid:
            continue
        if not all(math.isfinite(v) for v in (st.x, st.y, st.heading,
                                               st.speed)):
            raise InvariantViolation(
                f"track {agent_id}: non-finite value in valid state "
                f"at t={st.timestamp_index}")
        if not (-math.pi < st.heading <= math.pi):
            raise InvariantViolation(
                f"track {agent_id}: heading out of (-pi, pi] at "
                f"t={st.timestamp_index}")


def _parse_track(obj, path: str) -> AgentTrack:
    _expect(isinstance(obj, dict), path, "expected object")
    for key in ("agent_id", "class", "length_m", "width_m", "history", "future"):
        _expect(key in obj, path, f"missing field {key!r}")
    _expect(isinstance(obj["agent_id"], str), f"{path}.agent_id",
            "expected string")
    _expect(not any(c in obj["agent_id"] for c in ",\r\n"),
            f"{path}.agent_id", "expected no comma or line break")
    fields = dict(
        agent_id=obj["agent_id"],
        object_class=obj["class"],
        length_m=_num(obj["length_m"], f"{path}.length_m"),
        width_m=_num(obj["width_m"], f"{path}.width_m"),
        history=_parse_states(obj["history"], f"{path}.history", HISTORY_LEN),
        future=_parse_states(obj["future"], f"{path}.future", FUTURE_LEN),
    )
    _check_track(fields["agent_id"], fields["object_class"],
                 fields["history"], fields["future"])
    return AgentTrack(**fields)


def parse_scenario_reference(data: bytes) -> Scenario:
    try:
        data = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedScenario(f"not UTF-8: {exc}") from None
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedScenario(f"invalid JSON: {exc}") from None
    _expect(isinstance(obj, dict), "$", "expected top-level object")
    for key in ("scenario_id", "map", "tracks", "tracks_to_predict"):
        _expect(key in obj, "$", f"missing field {key!r}")
    _expect(isinstance(obj["scenario_id"], str), "scenario_id", "expected string")
    _expect(not any(c in obj["scenario_id"] for c in ",\r\n"), "scenario_id",
            "expected no comma or line break")
    _expect(isinstance(obj["map"], dict) and "segments" in obj["map"],
            "map", "expected object with field 'segments'")
    segs_raw = obj["map"]["segments"]
    _expect(isinstance(segs_raw, list), "map.segments", "expected array")
    segments = [_parse_segment(s, f"map.segments[{i}]")
                for i, s in enumerate(segs_raw)]
    tracks_raw = obj["tracks"]
    _expect(isinstance(tracks_raw, list), "tracks", "expected array")
    tracks = [_parse_track(t, f"tracks[{i}]") for i, t in enumerate(tracks_raw)]
    ttp = obj["tracks_to_predict"]
    _expect(isinstance(ttp, list) and all(isinstance(a, str) for a in ttp),
            "tracks_to_predict", "expected array of agent id strings")
    return Scenario(
        scenario_id=obj["scenario_id"],
        vector_map=VectorMap(segments),
        tracks=tracks,
        tracks_to_predict=tuple(ttp),
    )


# -- scenario mutations ---------------------------------------------------------

HUGE = 10 ** 400      # an integer beyond float range
# an integer literal beyond Python's 4,300-digit int-string limit
OVER_DIGIT_LIMIT = "1" + "0" * 4400

# values to put where a scenario file holds a number
JUNK = [True, False, "1", None, float("nan"), float("inf"), float("-inf"),
        HUGE, OVER_DIGIT_LIMIT, 0, 1, 2, 0.0, 1.0, -0.0, 3.5, -1e300, [1.0],
        math.pi, -math.pi]


def _canonical_scene() -> dict:
    return json.loads(write_scenario(
        generate(GenSpec("merge", seed=2, agent_behavior="lane_merge_violation"))))


@st.composite
def mutated_scene(draw):
    """The bytes of a canonical scene with one field or row changed,
    and whether the change used an integer beyond float range or beyond
    the digit limit."""
    obj = _canonical_scene()
    segs, tracks = obj["map"]["segments"], obj["tracks"]
    track = draw(st.sampled_from(tracks))
    block = track[draw(st.sampled_from(["history", "future"]))]
    row = block[draw(st.integers(0, len(block) - 1))]
    segment = draw(st.sampled_from(segs))
    node = segment["nodes"][draw(st.integers(0, len(segment["nodes"]) - 1))]
    kind = draw(st.sampled_from(["node", "segment", "track", "state",
                                 "flag", "timestamp", "invalid_state",
                                 "width"]))
    value = draw(st.sampled_from(JUNK))
    if kind == "node":
        node[draw(st.integers(0, 1))] = value
    elif kind == "segment":
        segment[draw(st.sampled_from(["id", "speed_limit_mps"]))] = value
    elif kind == "track":
        track[draw(st.sampled_from(["length_m", "width_m"]))] = value
    elif kind == "state":
        row[draw(st.integers(1, 4))] = value
    elif kind == "flag":
        row[5] = draw(st.sampled_from([0, 1, 0.0, 1.0, -0.0, 2, True, False,
                                       0.5, None, "1"]))
    elif kind == "timestamp":
        row[0] = draw(st.sampled_from([True, False, 3.0, -7, 2 ** 70, HUGE,
                                       OVER_DIGIT_LIMIT, None]))
    elif kind == "invalid_state":
        row[5] = draw(st.sampled_from([0, 0.0, False]))
        for col in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
            row[col] = draw(st.sampled_from(JUNK))
    else:
        target = draw(st.sampled_from([row, node]))
        if draw(st.booleans()):
            target.append(0.0)
        else:
            target.pop()
    text = json.dumps(obj).replace(f'"{OVER_DIGIT_LIMIT}"', OVER_DIGIT_LIMIT)
    return text.encode(), str(HUGE) in text
