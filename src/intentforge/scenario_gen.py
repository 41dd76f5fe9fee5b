"""Deterministic synthetic scenarios for exercising every association,
reachability, and analysis rule without real map data.

Template / behavior support matrix:

    straight          follow_lane, illegal_uturn
    intersection_4way follow_lane, corner_cut
    uturn_split       follow_lane, corner_cut
    merge             follow_lane, lane_merge_violation
    parking_adjacent  follow_lane, offroad_parking

Geometry uses straights and circular arcs with 0.5 m node spacing.
Behaviors are realized as constant-speed waypoint paths; illegal ones
leave the lane graph (U-turn across a median, cutting into oncoming
traffic, driving in an unmapped parking lot). corner_cut reproduces the
two classic mis-association layouts: crossing an orthogonal lane inside
an intersection while laterally offset, and cutting a left turn where a
U-turn lane diverges just upstream. All emitted floats are quantized to
6 decimals so scenarios round-trip byte-identically through the
canonical file format.
"""

from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import dataclass

import numpy as np

from .map_model import (AgentState, AgentTrack, LaneNeighbor, LaneSegment,
                        Scenario, VectorMap)

SPACING = 0.5        # m between lane nodes
LANE_WIDTH = 3.5
VEHICLE_LEN = 4.8
VEHICLE_WID = 2.1

SUPPORTED = {
    "straight": ("follow_lane", "illegal_uturn"),
    "intersection_4way": ("follow_lane", "corner_cut"),
    "uturn_split": ("follow_lane", "corner_cut"),
    "merge": ("follow_lane", "lane_merge_violation"),
    "parking_adjacent": ("follow_lane", "offroad_parking"),
}
TEMPLATES = tuple(sorted(SUPPORTED))
BEHAVIORS = ("follow_lane", "corner_cut", "illegal_uturn", "offroad_parking",
             "lane_merge_violation")


@dataclass(frozen=True)
class GenSpec:
    template: str
    seed: int = 0
    speed_limit_mps: float = 13.4112   # 30 mph
    agent_behavior: str = "follow_lane"

    def __post_init__(self):
        if self.template not in SUPPORTED:
            raise ValueError(f"unknown template {self.template!r}")
        if self.agent_behavior not in SUPPORTED[self.template]:
            raise ValueError(
                f"behavior {self.agent_behavior!r} is not supported on "
                f"template {self.template!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 < self.speed_limit_mps < math.inf:
            raise ValueError("speed limit must be finite and > 0")


# -- geometry helpers --------------------------------------------------------

def _line(p0, p1) -> np.ndarray:
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    n = max(1, round(float(np.hypot(*(p1 - p0))) / SPACING))
    t = np.linspace(0.0, 1.0, n + 1)
    return p0 + t[:, None] * (p1 - p0)


def _arc(center, radius, a0, a1) -> np.ndarray:
    n = max(1, round(abs(a1 - a0) * radius / SPACING))
    angles = np.linspace(a0, a1, n + 1)
    return np.asarray(center) + radius * np.stack(
        [np.cos(angles), np.sin(angles)], axis=1)


def _cubic(p0, p1, p2, p3, n=200) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n + 1)[:, None]
    p0, p1, p2, p3 = (np.asarray(p) for p in (p0, p1, p2, p3))
    return ((1 - t) ** 3 * p0 + 3 * (1 - t) ** 2 * t * p1
            + 3 * (1 - t) * t ** 2 * p2 + t ** 3 * p3)


def _chain(*parts) -> np.ndarray:
    out = [np.asarray(parts[0], dtype=np.float64)]
    for part in parts[1:]:
        part = np.asarray(part, dtype=np.float64)
        if np.hypot(*(part[0] - out[-1][-1])) < 1e-9:
            part = part[1:]
        out.append(part)
    return np.concatenate(out, axis=0)


def _resample(dense: np.ndarray, spacing: float = SPACING) -> np.ndarray:
    arcs = np.concatenate(([0.0], np.cumsum(np.hypot(*(dense[1:] - dense[:-1]).T))))
    n = max(1, round(float(arcs[-1]) / spacing))
    target = np.linspace(0.0, float(arcs[-1]), n + 1)
    return np.stack([np.interp(target, arcs, dense[:, 0]),
                     np.interp(target, arcs, dense[:, 1])], axis=1)


def _q6(x: float) -> float:
    return round(float(x), 6)


def _quantize_heading(h: float) -> float:
    """Wrap into (-pi, pi] and truncate toward zero at 1e-6 so the value
    survives 6-decimal serialization without leaving the legal range."""
    if h <= -math.pi:
        h += math.tau
    return math.trunc(h * 1e6) / 1e6


def _segment(seg_id, pts, limit, exits=(), entries=(), left=None, right=None):
    return LaneSegment(seg_id, np.round(pts, 6), _q6(limit),
                       tuple(exits), tuple(entries), left, right)


# -- track construction ------------------------------------------------------

def _states_from_path(dense: np.ndarray, s0: float, speed: float):
    """Sample 91 states (11 history + 80 future) at 10 Hz along a dense
    path, anchored so the current state sits at arc length s0. The path
    is clamped at its ends (the agent holds position there)."""
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
        heading = _quantize_heading(math.atan2(d[1], d[0]))
        states.append(AgentState(int(t[i]), _q6(xs[i]), _q6(ys[i]),
                                 heading, _q6(speed), True))
    return states[:11], states[11:]


def _stationary_states(pos, heading=0.0):
    x, y = _q6(pos[0]), _q6(pos[1])
    h = _quantize_heading(heading)
    states = [AgentState(i, x, y, h, 0.0, True) for i in range(91)]
    return states[:11], states[11:]


def _bearing_line(anchor, bearing: float, length: float) -> np.ndarray:
    d = np.array([math.cos(bearing), math.sin(bearing)])
    return _line(np.asarray(anchor) - length * d, anchor)


# -- templates ---------------------------------------------------------------

def _offset_arc(curvature: float, lateral: float, arc_from: float,
                arc_to: float) -> np.ndarray:
    """Arc through (0, lateral) heading east, curving with the signed
    curvature of the reference lane through the origin. arc_from/arc_to
    are signed arc offsets along the reference lane."""
    sign = 1.0 if curvature > 0 else -1.0
    r_ref = 1.0 / abs(curvature)
    r = r_ref - sign * lateral
    center = np.array([0.0, sign * r_ref])
    a0 = -sign * math.pi / 2
    return _arc(center, r, a0 + sign * arc_from / r_ref,
                a0 + sign * arc_to / r_ref)


def _build_straight(limit, curvature=0.0):
    """Two eastbound lanes with permitted changes plus an opposing lane;
    optionally bent into concentric arcs."""
    if curvature == 0.0:
        l0 = _line((-40, 0), (80, 0))
        l1 = _line((-40, LANE_WIDTH), (30, LANE_WIDTH))
        l2 = _line((80, 8.0), (-40, 8.0))
    else:
        l0 = _offset_arc(curvature, 0.0, -40, 80)
        l1 = _offset_arc(curvature, LANE_WIDTH, -40, 30)
        l2 = _offset_arc(curvature, 8.0, 80, -40)
    segments = [
        _segment(0, l0, limit, left=LaneNeighbor(1, True)),
        _segment(1, l1, limit, right=LaneNeighbor(0, True)),
        _segment(2, l2, limit),
    ]
    return VectorMap(segments), {"east": l0, "east_left": l1}


def _build_intersection(limit):
    left_arc = _arc((-10, 10), 10.0, -math.pi / 2, 0.0)
    segments = [
        _segment(0, _line((-100, 0), (-10, 0)), limit, exits=(1, 6)),
        _segment(1, _line((-10, 0), (10, 0)), limit, exits=(2,), entries=(0,)),
        _segment(2, _line((10, 0), (50, 0)), limit, entries=(1,)),
        _segment(3, _line((0, -100), (0, -10)), limit, exits=(4,)),
        _segment(4, _line((0, -10), (0, 10)), limit, exits=(5,), entries=(3,)),
        _segment(5, _line((0, 10), (0, 50)), limit, entries=(4, 6)),
        _segment(6, left_arc, limit, exits=(5,), entries=(0,)),
    ]
    east = _chain(_line((-100, 0), (-10, 0)), _line((-10, 0), (10, 0)),
                  _line((10, 0), (50, 0)))
    left = _chain(_line((-100, 0), (-10, 0)), left_arc, _line((0, 10), (0, 50)))
    return VectorMap(segments), {"east": east, "left": left}


def _build_uturn_split(limit, r_uturn=3.0, r_left=8.0):
    approach = _line((0, -60), (0, -5))
    uturn = _arc((-r_uturn, -5), r_uturn, 0.0, math.pi)
    left_turn = _arc((-r_left, -5), r_left, 0.0, math.pi / 2)
    south = _line((-2 * r_uturn, -5), (-2 * r_uturn, -40))
    west = _line((-r_left, r_left - 5), (-60, r_left - 5))
    segments = [
        _segment(0, approach, limit, exits=(1, 2)),
        _segment(1, uturn, limit, exits=(3,), entries=(0,)),
        _segment(2, left_turn, limit, exits=(4,), entries=(0,)),
        _segment(3, south, limit, entries=(1,)),
        _segment(4, west, limit, entries=(2,)),
    ]
    follow = _chain(approach, left_turn, west)
    follow_uturn = _chain(approach, uturn, south)
    return VectorMap(segments), {"follow": follow, "follow_uturn": follow_uturn}


def _build_merge(limit):
    t1 = _line((-60, 0), (0, 0))
    t2 = _line((0, 0), (60, 0))
    merge_dense = _chain(_line((-60, LANE_WIDTH), (-20, LANE_WIDTH)),
                         _cubic((-20, LANE_WIDTH), (-10, LANE_WIDTH),
                                (-10, 0), (0, 0)))
    opposing = _line((60, -4.5), (-60, -4.5))
    segments = [
        _segment(0, t1, limit, exits=(1,)),
        _segment(1, t2, limit, entries=(0, 2)),
        _segment(2, _resample(merge_dense), limit, exits=(1,)),
        _segment(3, opposing, limit),
    ]
    return VectorMap(segments), {"merge_lane": merge_dense, "through": t2,
                                 "t1": t1}


def _build_parking(limit, curvature=0.0):
    if curvature == 0.0:
        road = _line((-60, 0), (40, 0))
    else:
        road = _offset_arc(curvature, 0.0, -60, 40)
    return VectorMap([_segment(0, road, limit)]), {"east": road}


# -- behaviors ---------------------------------------------------------------

def generate(spec: GenSpec) -> Scenario:
    """Build one scenario; byte-deterministic in the full GenSpec."""
    rng = np.random.default_rng([spec.seed,
                                 zlib.crc32(spec.template.encode()),
                                 zlib.crc32(spec.agent_behavior.encode())])
    limit = _q6(spec.speed_limit_mps)
    template, behavior = spec.template, spec.agent_behavior

    if template == "straight":
        if behavior == "follow_lane":
            curvature = rng.uniform(-1 / 150, 1 / 150)
            if abs(curvature) < 1 / 400:
                curvature = 0.0
            vmap, ctx = _build_straight(limit, curvature)
            speed = limit * rng.uniform(0.2, 0.95)
            s0 = 30.0 + rng.uniform(0, 20)
            change = rng.random() < 0.5
            if curvature == 0.0 and change:
                # legal lane change into the left neighbor
                xc = -10.0 + rng.uniform(0, 15)
                path = _chain(
                    _line((-40, 0), (xc, 0)),
                    _cubic((xc, 0), (xc + 8, 0), (xc + 12, LANE_WIDTH),
                           (xc + 20, LANE_WIDTH)),
                    _line((xc + 20, LANE_WIDTH), (30, LANE_WIDTH)))
            else:
                path = ctx["east_left"] if change else ctx["east"]
            history, future = _states_from_path(path, s0, speed)
        else:  # illegal_uturn across the median onto the opposing lane
            vmap, ctx = _build_straight(limit)
            speed = rng.uniform(6.0, 9.0)
            x0 = 15.0 + rng.uniform(0, 10)
            past = _line((x0 - 1.5 * speed, 0), (x0, 0))
            turn1 = _cubic((x0, 0), (x0 + 9, 0), (x0 + 12, 1.0), (x0 + 12, 4.0))
            turn2 = _cubic((x0 + 12, 4.0), (x0 + 12, 7.0), (x0 + 9, 8.0),
                           (x0, 8.0))
            back = _line((x0, 8.0), (-38, 8.0))
            dense = _chain(past, turn1, turn2, back)
            history, future = _states_from_path(dense, 1.5 * speed, speed)

    elif template == "intersection_4way":
        vmap, ctx = _build_intersection(limit)
        if behavior == "follow_lane":
            speed = limit * rng.uniform(0.2, 0.95)
            path = ctx["east"] if rng.random() < 0.5 else ctx["left"]
            history, future = _states_from_path(path,
                                                55.0 + rng.uniform(0, 20), speed)
        else:  # corner_cut: crossing, laterally offset towards the orthogonal lane
            speed = 7.0 + rng.uniform(0, 2)
            anchor = np.array([1.0, 2.0])
            bearing = math.radians(10.0)
            past = _bearing_line(anchor, bearing, 1.5 * speed)
            d = np.array([math.cos(bearing), math.sin(bearing)])
            rejoin = _cubic(anchor, anchor + 4.0 * d, (9, 0), (14, 0))
            dense = _chain(past, rejoin, _line((14, 0), (50, 0)))
            history, future = _states_from_path(dense, 1.5 * speed, speed)

    elif template == "uturn_split":
        if behavior == "follow_lane":
            r_uturn = 2.5 + rng.uniform(0, 1.5)
            r_left = 6.0 + rng.uniform(0, 4.0)
            vmap, ctx = _build_uturn_split(limit, r_uturn, r_left)
            speed = limit * rng.uniform(0.2, 0.95)
            path = ctx["follow"] if rng.random() < 0.5 else ctx["follow_uturn"]
            history, future = _states_from_path(path,
                                                25.0 + rng.uniform(0, 20), speed)
        else:  # corner_cut: cutting the left turn, hugging the U-turn arc
            vmap, ctx = _build_uturn_split(limit)
            speed = 5.0 + rng.uniform(0, 2)
            anchor = np.array([-2.0, -2.0])
            bearing = math.radians(135.0)
            past = _bearing_line(anchor, bearing, 1.5 * speed)
            d = np.array([math.cos(bearing), math.sin(bearing)])
            rejoin = _cubic(anchor, anchor + 2.5 * d, (-6.5, 2.5), (-8, 3))
            dense = _chain(past, rejoin, _line((-8, 3), (-60, 3)))
            history, future = _states_from_path(dense, 1.5 * speed, speed)

    elif template == "merge":
        vmap, ctx = _build_merge(limit)
        if behavior == "follow_lane":
            speed = limit * rng.uniform(0.2, 0.95)
            lane = ctx["merge_lane"] if rng.random() < 0.5 else ctx["t1"]
            dense = _chain(lane, ctx["through"])
            history, future = _states_from_path(dense,
                                                10.0 + rng.uniform(0, 10), speed)
        else:  # lane_merge_violation: cuts across into the oncoming lane
            speed = 8.0 + rng.uniform(0, 3)
            x0 = -45.0 + rng.uniform(0, 10)
            past = _line((x0 - 1.5 * speed, LANE_WIDTH), (x0, LANE_WIDTH))
            cut = _cubic((x0, LANE_WIDTH), (x0 + 15, LANE_WIDTH),
                         (x0 + 25, -4.5), (x0 + 40, -4.5))
            dense = _chain(past, cut, _line((x0 + 40, -4.5), (60, -4.5)))
            history, future = _states_from_path(dense, 1.5 * speed, speed)

    else:  # parking_adjacent
        if behavior == "follow_lane":
            curvature = rng.uniform(-1 / 150, 1 / 150)
            if abs(curvature) < 1 / 400:
                curvature = 0.0
            vmap, ctx = _build_parking(limit, curvature)
            speed = limit * rng.uniform(0.2, 0.95)
            history, future = _states_from_path(ctx["east"],
                                                20.0 + rng.uniform(0, 10), speed)
        else:  # offroad_parking: stationary in the unmapped lot, 6 m off the lane
            vmap, ctx = _build_parking(limit)
            history, future = _stationary_states((10.0, 6.0), heading=0.0)

    scenario_id = f"{template}-{behavior}-s{spec.seed}"
    agent_id = f"{scenario_id}#0"
    track = AgentTrack(agent_id, "vehicle", VEHICLE_LEN, VEHICLE_WID,
                       history, future)
    return Scenario(scenario_id, vmap, [track], (agent_id,))


def generate_suite(n: int, seed: int = 0, behaviors=None) -> list[Scenario]:
    """n scenarios with randomized templates/behaviors, deterministic in
    seed. ``behaviors`` optionally restricts the behavior pool (for
    example to follow_lane only, which keeps every GT endpoint on the
    road graph)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
            or seed < 0:
        raise ValueError("seed must be an integer >= 0")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        while True:
            template = TEMPLATES[rng.integers(len(TEMPLATES))]
            pool = SUPPORTED[template]
            if behaviors is not None:
                pool = tuple(b for b in pool if b in behaviors)
            if pool:
                break
        behavior = pool[rng.integers(len(pool))]
        limit = _q6(rng.uniform(22.0, 35.0) * 0.44704)
        out.append(generate(GenSpec(template, seed * 1_000_003 + i,
                                    limit, behavior)))
    return out
