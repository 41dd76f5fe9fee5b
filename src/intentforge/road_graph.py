"""Weighted lane-node graph and time-budgeted reachability.

Edges carry travel time: Euclidean distance divided by the originating
segment's speed limit plus a configurable offset (drivers exceed posted
limits). Reachability is multi-source shortest-path truncated at the
time budget; kinematic feasibility (acceleration, turn speeds, traffic)
is deliberately not modeled.

A node's lane-change target on a change-permitted neighbor lane is the
neighbor node with the least squared distance, computed elementwise as
(x - ox)**2 + (y - oy)**2, and the first node index on ties: the first
argmin of the whole (n, m) block. It is found in a window instead of the
block. The neighbor's nodes are sorted (stably) on the axis along which
they spread the most; each source node takes the squared distance ub to
the node beside it in that order, and scores only the nodes whose
coordinate on that axis lies within sqrt(ub) of its own, widened by a
relative and an absolute margin. The window misses no node with d2 <=
ub: rounding a sum of non-negative terms never falls below one of them,
so such a node has fl(da**2) <= ub along the sort axis; the margins cover
the rounding of the square, the square root and the difference, and the
absolute one a da**2 that underflows to 0; and fl(pa +- r) rounds
monotonically, so it cuts off no coordinate inside the exact window. The
window holds the node that set ub, so it is never empty, and it holds
every node of least d2, among which the least index is taken.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .lane_assoc import AssociationResult
from .map_model import VectorMap, _number


@dataclass(frozen=True)
class GraphConfig:
    time_budget: float = 8.0        # s
    speed_offset: float = 6.7056    # m/s (15 mph)

    def __post_init__(self):
        for name in ("time_budget", "speed_offset"):
            _number(name, getattr(self, name), 0, open_low=False)


def travel_time(distance: float, speed_limit: float,
                cfg: GraphConfig = GraphConfig()) -> float:
    _number("distance", distance, 0, open_low=False)
    _number("speed limit", speed_limit, 0, open_low=True)
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


# sources scored per step of the window search: a neighbor lane that curls
# back on itself makes a window the whole lane, and a step then holds at
# most _CHUNK * m squared distances
_CHUNK = 256
# window radius sqrt(ub) * (1 + _REL) + _ABS. A squared difference that
# rounds to 0 or to a subnormal is within 2**-1075 of exact, so its root
# is within sqrt(2**-1075) < 2e-162 of sqrt(ub): _ABS covers it
_REL = 1e-9
_ABS = 1e-150


@np.errstate(over="ignore")
def _nearest_nodes(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per row of ``src``, the index of its lane-change target in ``dst``
    by the sorted-axis window search of the module docstring. A squared
    distance beyond float range is inf, as in the whole block."""
    a = int(np.ptp(dst[:, 1]) > np.ptp(dst[:, 0]))
    order = np.argsort(dst[:, a], kind="stable")
    sa = dst[order, a]
    sb = dst[order, 1 - a]
    pa = src[:, a]
    pb = src[:, 1 - a]
    m = order.size
    j = np.minimum(np.searchsorted(sa, pa), m - 1)
    ub = sa[j] - pa
    ub *= ub
    db = sb[j] - pb
    db *= db
    ub += db
    r = np.sqrt(ub)
    r *= 1 + _REL
    r += _ABS
    lo = np.searchsorted(sa, pa - r, "left")
    width = np.searchsorted(sa, pa + r, "right") - lo
    nearest = np.empty(src.shape[0], dtype=np.int64)
    for c in range(0, src.shape[0], _CHUNK):
        w = width[c:c + _CHUNK]
        starts = np.cumsum(w) - w
        idx = np.repeat(lo[c:c + _CHUNK] - starts, w)
        idx += np.arange(idx.size)
        d2 = sa[idx] - np.repeat(pa[c:c + _CHUNK], w)
        d2 *= d2
        db = sb[idx] - np.repeat(pb[c:c + _CHUNK], w)
        db *= db
        d2 += db
        tied = d2 == np.repeat(np.minimum.reduceat(d2, starts), w)
        nearest[c:c + _CHUNK] = np.minimum.reduceat(
            np.where(tied, order[idx], m), starts)
    return nearest


@np.errstate(over="ignore")
def build_graph(vmap: VectorMap,
                cfg: GraphConfig = GraphConfig()) -> RoadGraph:
    """Build the lane-node graph: intra-segment steps, exit connectors,
    and one lane-change edge per node towards each change-permitted
    neighbor (targeting that neighbor's nearest node). A gap beyond float
    range takes an inf travel time, beyond every budget."""
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
            adjacency[last].append((target, gap / denom))
        for neighbor in (seg.left, seg.right):
            if neighbor is None or not neighbor.change_ok:
                continue
            other = vmap.segments[neighbor.segment_id]
            nearest = _nearest_nodes(seg.nodes, other.nodes)
            gaps = np.hypot(*(other.nodes[nearest] - seg.nodes).T)
            targets = (base[neighbor.segment_id] + nearest).tolist()
            for i, (v, w) in enumerate(zip(targets, (gaps / denom).tolist())):
                adjacency[b + i].append((v, w))
    return RoadGraph(vmap.node_seg_ids, vmap.node_indices, positions,
                     adjacency)


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

    def __len__(self) -> int:
        return int(self.arrival_times.shape[0])


def reach(graph: RoadGraph, starts: AssociationResult,
          cfg: GraphConfig = GraphConfig()) -> ReachabilitySet:
    """Multi-source Dijkstra truncated at the time budget.

    Every association candidate starts at time 0. Raises ValueError for
    fallback associations: those agents have no legal reachable set and
    the caller must use statistical intention points instead.
    """
    if starts.fallback:
        raise ValueError("fallback association has no reachable set; "
                         "use static intention points for this agent")
    start_nodes = sorted({graph.index_of(sid, ni)
                          for sid, ni, _ in starts.candidates})
    dist: dict[int, float] = {}
    heap = [(0.0, u) for u in start_nodes]
    heapq.heapify(heap)
    adjacency = graph.adjacency
    budget = cfg.time_budget
    # each settled node's first relaxed edge is pushed and the next entry
    # popped in one heappushpop, which hands that edge straight back when
    # it is the smallest: the same entries are popped in the same order
    t, u = heapq.heappop(heap)
    while True:
        if u not in dist:
            dist[u] = t
            first = None
            for v, w in adjacency[u]:
                if v not in dist:
                    tv = t + w
                    if tv <= budget:
                        if first is None:
                            first = (tv, v)
                        else:
                            heapq.heappush(heap, (tv, v))
            if first is not None:
                t, u = heapq.heappushpop(heap, first)
                continue
        if not heap:
            break
        t, u = heapq.heappop(heap)

    idx = np.fromiter(dist.keys(), dtype=np.int64, count=len(dist))
    times = np.fromiter(dist.values(), dtype=np.float64, count=len(dist))
    sid = graph.seg_ids[idx]
    ni = graph.node_indices[idx]
    order = np.lexsort((ni, sid, times))
    return ReachabilitySet(
        seg_ids=sid[order],
        node_indices=ni[order],
        positions=graph.positions[idx[order]],
        arrival_times=times[order],
    )
