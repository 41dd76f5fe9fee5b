"""Lane association: match a vehicle to the lane node(s) it travels on.

Pure functions over an immutable map; safe for concurrent per-agent use.
The seed is the first lane node, by (distance, segment id, node index),
that passes both the proximity limit and the heading gate; an upstream
walk from it adds the nearest node of each diverging sibling lane within
the arc-length budget. A result without candidates is a fallback (the
caller then uses statistical intention points instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .map_model import HISTORY_LEN, AgentTrack, VectorMap, _number

MIN_MOVE_FOR_HEADING = 0.1  # m; below this the state heading field is trusted


@dataclass(frozen=True)
class AssocConfig:
    heading_threshold: float = math.pi / 4   # rad
    proximity_limit: float = 5.0             # m
    backwards_look: float = 10.0             # m of upstream arc length

    def __post_init__(self):
        for name in ("heading_threshold", "proximity_limit", "backwards_look"):
            _number(name, getattr(self, name), 0, open_low=True)


@dataclass(frozen=True)
class AssociationResult:
    """Candidate lane nodes as (segment id, node index, distance) tuples."""

    candidates: tuple[tuple[int, int, float], ...]

    @property
    def fallback(self) -> bool:
        """No candidates: the agent has no lane association."""
        return not self.candidates


def angular_difference(a: float, b: float) -> float:
    """Absolute angle between two headings, wrapped to [0, pi]."""
    return abs(math.remainder(a - b, math.tau))


def derive_heading(track: AgentTrack) -> float:
    """Heading from the last two valid history positions, if the agent moved.

    Falls back to the current state's heading field when the displacement
    is at most 0.1 m (stationary or near-stationary agents).
    """
    valid = [r[:2] for r in track.states[:HISTORY_LEN].tolist() if r[4]]
    if len(valid) >= 2:
        (px, py), (cx, cy) = valid[-2:]
        dx, dy = cx - px, cy - py
        if math.hypot(dx, dy) > MIN_MOVE_FOR_HEADING:
            return math.atan2(dy, dx)
    return track.current_state.heading


def lane_heading_at(vmap: VectorMap, segment_id: int, node_index: int) -> float:
    """Direction of the lane at a node: node i towards node i+1.

    The last node reuses the direction of the final polyline piece.
    """
    nodes = vmap.segments[segment_id].nodes
    i = node_index
    if i == nodes.shape[0] - 1:
        i -= 1
    d = nodes[i + 1] - nodes[i]
    return math.atan2(d[1], d[0])


def _passes(vmap, sid, ni, dist, heading, cfg) -> bool:
    return (dist <= cfg.proximity_limit
            and angular_difference(lane_heading_at(vmap, sid, ni), heading)
            <= cfg.heading_threshold)


def _nearest_on_segment(vmap: VectorMap, sid: int, point: np.ndarray):
    nodes = vmap.segments[sid].nodes
    d = np.hypot(*(nodes - point).T)
    i = int(d.argmin())
    return i, float(d[i])


@np.errstate(over="ignore")
def _branch_candidates(vmap, seed_sid, seed_idx, point, heading, cfg):
    """Walk upstream from the seed and gather diverging-branch candidates.

    At every segment whose end is reached within the arc budget and that
    has multiple exits, the nearest node of each sibling exit (other than
    the lane walked down from) is tested against the proximity and
    heading gates. A gap or distance beyond float range is inf, beyond
    every budget and limit.
    """
    out = []
    best_spent: dict[int, float] = {}
    seed_seg = vmap.segments[seed_sid]
    # (segment whose start we stand at, upstream arc length spent so far)
    stack = [(seed_sid, float(seed_seg.arc_offsets[seed_idx]))]
    while stack:
        sid, spent = stack.pop()
        if spent > cfg.backwards_look:
            continue
        seg = vmap.segments[sid]
        start = seg.nodes[0]
        for eid in seg.entry_ids:
            entry = vmap.segments[eid]
            spent_e = spent + float(np.hypot(*(entry.nodes[-1] - start)))
            if spent_e > cfg.backwards_look:
                continue
            if best_spent.get(eid, math.inf) <= spent_e:
                continue
            best_spent[eid] = spent_e
            if len(entry.exit_ids) > 1:
                for sib in entry.exit_ids:
                    if sib == sid:
                        continue
                    ni, d = _nearest_on_segment(vmap, sib, point)
                    if _passes(vmap, sib, ni, d, heading, cfg):
                        out.append((sib, ni, d))
            stack.append((eid, spent_e + entry.total_arc))
    return out


def associate(vmap: VectorMap, track: AgentTrack,
              cfg: AssocConfig = AssocConfig()) -> AssociationResult:
    """Associate a vehicle with its current lane node(s).

    Returns the seed (the first node by distance, segment id, node index
    passing both gates) plus any diverging-branch nodes found by the
    upstream walk, deduplicated and sorted by distance; no candidates,
    a ``fallback``, when no node qualifies.
    """
    if track.object_class != "vehicle":
        raise ValueError("lane association is defined for vehicles only")
    point = track.states[HISTORY_LEN - 1, :2]
    heading = derive_heading(track)

    # nearest_nodes sorts by (distance, segment id, node index)
    seed = next((c for c in vmap.nearest_nodes(point, cfg.proximity_limit)
                 if _passes(vmap, *c, heading, cfg)), None)
    if seed is None:
        return AssociationResult(())

    found = {(seed[0], seed[1]): seed[2]}
    for sid, ni, d in _branch_candidates(vmap, seed[0], seed[1], point,
                                         heading, cfg):
        found.setdefault((sid, ni), d)
    ordered = sorted(((sid, ni, d) for (sid, ni), d in found.items()),
                     key=lambda c: (c[2], c[0], c[1]))
    return AssociationResult(tuple(ordered))
