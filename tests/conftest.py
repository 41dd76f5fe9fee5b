"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

from intentforge.map_model import (AgentState, AgentTrack, LaneSegment,
                                   Scenario, VectorMap)
from intentforge.road_graph import RoadGraph


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


def vehicle_track(pos, heading=0.0, speed=5.0, future_xy=None,
                  future_valid=None, agent_id="a0",
                  object_class="vehicle") -> AgentTrack:
    """Track moving along `heading` at constant speed; history ends at
    `pos`. The default future continues straight."""
    pos = np.asarray(pos, dtype=float)
    d = np.array([math.cos(heading), math.sin(heading)])
    history = []
    for i in range(11):
        p = pos - (10 - i) * 0.1 * speed * d
        history.append(AgentState(i, float(p[0]), float(p[1]), heading,
                                  speed, True))
    if future_xy is None:
        steps = np.arange(1, 81)[:, None] * 0.1 * speed
        future_xy = pos + steps * d
    future_xy = np.asarray(future_xy, dtype=float)
    if future_valid is None:
        future_valid = np.ones(80, dtype=bool)
    future = [AgentState(11 + i, float(future_xy[i, 0]), float(future_xy[i, 1]),
                         heading, speed, bool(future_valid[i]))
              for i in range(80)]
    return AgentTrack(agent_id, object_class, 4.8, 2.1, history, future)


def stationary_track(pos, heading=0.0, agent_id="a0",
                     object_class="vehicle") -> AgentTrack:
    x, y = float(pos[0]), float(pos[1])
    states = [AgentState(i, x, y, heading, 0.0, True) for i in range(91)]
    return AgentTrack(agent_id, object_class, 4.8, 2.1, states[:11],
                      states[11:])


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


def graph_edges(graph: RoadGraph):
    """Every (source, target, travel time) edge of a road graph."""
    for u, nbrs in enumerate(graph.adjacency):
        for v, w in nbrs:
            yield u, v, w


def n_edges(graph: RoadGraph) -> int:
    return sum(len(a) for a in graph.adjacency)


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
    adjacency = []
    for _ in range(n_nodes):
        deg = rng.poisson(avg_out)
        nbrs = []
        for _ in range(deg):
            v = int(rng.integers(n_nodes))
            w = 0.0 if rng.random() < zero_weight_fraction \
                else float(rng.uniform(0.05, 2.5))
            nbrs.append((v, w))
        adjacency.append(nbrs)
    return RoadGraph(np.zeros(n_nodes, dtype=np.int64),
                     np.arange(n_nodes, dtype=np.int64), positions, adjacency)


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
    bit (same draws, same distances, same potentials, same tie rule)."""
    def d2_to(center):
        pn = np.einsum("ij,ij->i", pts, pts)
        cn = np.einsum("ij,ij->i", center, center)
        d2 = pn[:, None] + cn[None, :] - 2.0 * (pts @ center.T)
        np.maximum(d2, 0.0, out=d2)
        return d2[:, 0]

    def pick(cum, u):
        return min(int(np.searchsorted(cum, u * cum[-1], side="right")),
                   len(cum) - 1)

    n_trials = 2 + int(math.log(k)) if k > 1 else 1
    chosen = [pick(np.cumsum(weights), rng.random())]
    d2 = d2_to(pts[chosen[-1]][None, :])
    for _ in range(k - 1):
        cum = np.cumsum(weights * d2)
        candidates = [pick(cum, rng.random()) for _ in range(n_trials)]
        best_idx, best_d2, best_pot = None, None, math.inf
        for c in candidates:
            cand_d2 = np.minimum(d2, d2_to(pts[c][None, :]))
            pot = float((weights * cand_d2).sum())
            if pot < best_pot:
                best_idx, best_d2, best_pot = c, cand_d2, pot
        chosen.append(best_idx)
        d2 = best_d2
    return pts[np.asarray(chosen)].copy()
