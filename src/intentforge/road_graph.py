"""Weighted lane-node graph and time-budgeted reachability.

Edges carry travel time: Euclidean distance divided by the originating
segment's speed limit plus a configurable offset (drivers exceed posted
limits). Reachability is multi-source shortest-path truncated at the
time budget; kinematic feasibility (acceleration, turn speeds, traffic)
is deliberately not modeled.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass

import numpy as np

from .lane_assoc import AssociationResult
from .map_model import VectorMap


@dataclass(frozen=True)
class GraphConfig:
    time_budget: float = 8.0        # s
    speed_offset: float = 6.7056    # m/s (15 mph)

    def __post_init__(self):
        for name in ("time_budget", "speed_offset"):
            v = getattr(self, name)
            if isinstance(v, bool) or not 0 <= v <= sys.float_info.max:
                raise ValueError(f"{name} must be a finite number >= 0")


def travel_time(distance: float, speed_limit: float,
                cfg: GraphConfig | None = None) -> float:
    if distance < 0:
        raise ValueError("distance must be >= 0")
    if speed_limit <= 0:
        raise ValueError("speed limit must be > 0")
    cfg = cfg or GraphConfig()
    return distance / (speed_limit + cfg.speed_offset)


@dataclass(eq=False)
class RoadGraph:
    """Directed graph over every lane node of a map.

    Node i is identified by (seg_ids[i], node_indices[i]) and sits at
    positions[i]. adjacency[i] lists (target node, travel time) pairs;
    weights are >= 0, zero only for coincident connector endpoints.
    """

    seg_ids: np.ndarray
    node_indices: np.ndarray
    positions: np.ndarray
    adjacency: list[list[tuple[int, float]]]

    @property
    def n_nodes(self) -> int:
        return int(self.positions.shape[0])

    def index_of(self, segment_id: int, node_index: int) -> int:
        ids = np.flatnonzero((self.seg_ids == segment_id)
                             & (self.node_indices == node_index))
        if ids.size == 0:
            raise KeyError((segment_id, node_index))
        return int(ids[0])


def build_graph(vmap: VectorMap, cfg: GraphConfig | None = None) -> RoadGraph:
    """Build the lane-node graph: intra-segment steps, exit connectors,
    and one lane-change edge per node towards each change-permitted
    neighbor (targeting that neighbor's nearest node)."""
    cfg = cfg or GraphConfig()
    seg_ids = vmap.node_seg_ids.copy()
    node_indices = vmap.node_indices.copy()
    positions = vmap.node_positions
    base: dict[int, int] = {}
    offset = 0
    for sid, seg in vmap.segments.items():
        base[sid] = offset
        offset += seg.n_nodes

    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(offset)]
    for sid, seg in vmap.segments.items():
        b = base[sid]
        limit = seg.speed_limit_mps
        denom = limit + cfg.speed_offset
        for i, w in enumerate((np.diff(seg.arc_offsets) / denom).tolist()):
            adjacency[b + i].append((b + i + 1, w))
        last = b + seg.n_nodes - 1
        for exit_id in seg.exit_ids:
            target = base[exit_id]
            gap = float(np.hypot(*(positions[target] - positions[last])))
            adjacency[last].append((target, travel_time(gap, limit, cfg)))
        for neighbor in (seg.left, seg.right):
            if neighbor is None or not neighbor.change_ok:
                continue
            other = vmap.segments[neighbor.segment_id]
            # nearest node on the neighbor per source node; squared
            # distances computed elementwise, so that no BLAS kernel can
            # flip a tie, in row chunks to keep the temporaries
            # cache-resident
            ox, oy = np.ascontiguousarray(other.nodes.T)
            nearest = np.empty(seg.n_nodes, dtype=np.int64)
            for lo in range(0, seg.n_nodes, 256):
                p = seg.nodes[lo:lo + 256]
                d2 = p[:, :1] - ox
                d2 *= d2
                dy = p[:, 1:] - oy
                dy *= dy
                d2 += dy
                nearest[lo:lo + 256] = d2.argmin(axis=1)
            gaps = np.hypot(*(other.nodes[nearest] - seg.nodes).T)
            targets = (base[neighbor.segment_id] + nearest).tolist()
            for i, (v, w) in enumerate(zip(targets, (gaps / denom).tolist())):
                adjacency[b + i].append((v, w))
    return RoadGraph(seg_ids, node_indices, positions, adjacency)


@dataclass(eq=False)
class ReachabilitySet:
    """Lane nodes reachable within the budget, with optimal arrival times.

    Entries are sorted by (arrival time, segment id, node index); start
    nodes appear with time 0.
    """

    seg_ids: np.ndarray
    node_indices: np.ndarray
    positions: np.ndarray
    arrival_times: np.ndarray
    budget: float

    def __len__(self) -> int:
        return int(self.arrival_times.shape[0])


def reach(graph: RoadGraph, starts: AssociationResult,
          cfg: GraphConfig | None = None) -> ReachabilitySet:
    """Multi-source Dijkstra truncated at the time budget.

    Every association candidate starts at time 0. Raises ValueError for
    fallback associations: those agents have no legal reachable set and
    the caller must use statistical intention points instead.
    """
    if starts.fallback:
        raise ValueError("fallback association has no reachable set; "
                         "use static intention points for this agent")
    cfg = cfg or GraphConfig()
    start_nodes = sorted({graph.index_of(sid, ni)
                          for sid, ni, _ in starts.candidates})
    dist: dict[int, float] = {}
    heap = [(0.0, u) for u in start_nodes]
    heapq.heapify(heap)
    adjacency = graph.adjacency
    while heap:
        t, u = heapq.heappop(heap)
        if t > cfg.time_budget:
            break
        if u in dist:
            continue
        dist[u] = t
        for v, w in adjacency[u]:
            if v not in dist:
                tv = t + w
                if tv <= cfg.time_budget:
                    heapq.heappush(heap, (tv, v))

    idx = np.fromiter(dist.keys(), dtype=np.int64, count=len(dist))
    times = np.fromiter(dist.values(), dtype=np.float64, count=len(dist))
    sid = graph.seg_ids[idx]
    ni = graph.node_indices[idx]
    order = np.lexsort((ni, sid, times))
    idx, times = idx[order], times[order]
    return ReachabilitySet(
        seg_ids=graph.seg_ids[idx].copy(),
        node_indices=graph.node_indices[idx].copy(),
        positions=graph.positions[idx].copy(),
        arrival_times=times,
        budget=cfg.time_budget,
    )
