import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_nodes, seg, stationary_track, vehicle_track
from intentforge.lane_assoc import (MIN_MOVE_FOR_HEADING, AssocConfig,
                                    angular_difference, associate,
                                    derive_heading, lane_heading_at)
from intentforge.map_model import (HISTORY_LEN, AgentState, AgentTrack,
                                   LaneSegment, VectorMap)
from intentforge.scenario_gen import GenSpec, generate, iter_suite

PERMISSIVE_HEADING = AssocConfig(heading_threshold=math.pi)
PERMISSIVE_PROXIMITY = AssocConfig(proximity_limit=1e6)
NO_BACKWARDS = AssocConfig(backwards_look=1e-9)


def rules_scan(vmap, track, cfg):
    """Independent re-application of the proximity/heading/seed rules."""
    point = track.states[HISTORY_LEN - 1, :2]
    heading = derive_heading(track)
    survivors = []
    for sid, s in vmap.segments.items():
        d = np.hypot(*(s.nodes - point).T)
        for ni in range(s.n_nodes):
            if d[ni] <= cfg.proximity_limit and angular_difference(
                    lane_heading_at(vmap, sid, ni), heading) \
                    <= cfg.heading_threshold:
                survivors.append((sid, ni, float(d[ni])))
    survivors.sort(key=lambda c: (c[2], c[0], c[1]))
    return survivors


def nearest_on(vmap, sid, point):
    nodes = vmap.segments[sid].nodes
    d = np.hypot(*(nodes - np.asarray(point)).T)
    i = int(d.argmin())
    return (sid, i, float(d[i]))


# -- derive_heading ----------------------------------------------------------

def test_heading_from_displacement():
    track = vehicle_track((1.0, 0.0), heading=0.0, speed=10.0)
    assert derive_heading(track) == pytest.approx(0.0)


def test_heading_fallback_for_stationary():
    track = stationary_track((0, 0), heading=1.2)
    assert derive_heading(track) == 1.2


def test_heading_diagonal():
    track = vehicle_track((1.0, 1.0), heading=math.pi / 4, speed=10.0)
    assert derive_heading(track) == pytest.approx(math.pi / 4)


# -- lane_heading_at ---------------------------------------------------------

def test_lane_heading_straight_east():
    vm = VectorMap([seg(0, line_nodes((0, 0), (10, 0)))])
    for ni in (0, 5, 20):
        assert lane_heading_at(vm, 0, ni) == 0.0


def test_lane_heading_last_node_rule():
    vm = VectorMap([seg(0, [[0, 0], [1, 0], [1.5, 1.0]])])
    assert lane_heading_at(vm, 0, 2) == lane_heading_at(vm, 0, 1)


def test_lane_heading_quarter_circle_tangent():
    radius = 20.0
    angles = np.radians(np.arange(0, 91))  # 1 degree steps
    nodes = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    vm = VectorMap([LaneSegment(0, nodes, 10.0)])
    for ni, theta in enumerate(angles):
        tangent = theta + math.pi / 2  # analytic CCW tangent
        got = lane_heading_at(vm, 0, ni)
        assert angular_difference(got, tangent) <= 0.02


# -- associate ---------------------------------------------------------------

def test_associate_on_node_aligned():
    vm = VectorMap([seg(0, line_nodes((0, 0), (20, 0)))])
    track = vehicle_track((4.0, 0.0), heading=0.0, speed=8.0)
    res = associate(vm, track)
    assert not res.fallback
    assert res.candidates == ((0, 8, 0.0),)


def test_associate_rejects_non_vehicle():
    vm = VectorMap([seg(0, line_nodes((0, 0), (20, 0)))])
    ped = vehicle_track((4.0, 0.0), object_class="pedestrian")
    with pytest.raises(ValueError):
        associate(vm, ped)


def test_intersection_crossing_needs_heading_gate():
    """Mid-intersection: a crossing-lane node is nearest but misaligned."""
    scenario = generate(GenSpec("intersection_4way", seed=0,
                                agent_behavior="corner_cut"))
    vm = scenario.vector_map
    track = scenario.track(scenario.tracks_to_predict[0])
    point = track.states[HISTORY_LEN - 1, :2]

    correct = associate(vm, track)
    own = nearest_on(vm, 1, point)       # eastbound mid-intersection lane
    assert not correct.fallback
    assert correct.candidates == (own,)
    assert own[2] == pytest.approx(2.0, abs=1e-6)
    # matches the exhaustive rule scan
    assert correct.candidates[0] == rules_scan(vm, track, AssocConfig())[0]

    wrong = associate(vm, track, PERMISSIVE_HEADING)
    crossing = nearest_on(vm, 4, point)  # northbound mid-intersection lane
    assert wrong.candidates[0] == crossing
    assert crossing[2] == pytest.approx(1.0, abs=1e-6)


def test_parking_lot_needs_proximity_gate():
    """Vehicle 6 m off the mapped road must fall back."""
    scenario = generate(GenSpec("parking_adjacent", seed=0,
                                agent_behavior="offroad_parking"))
    vm = scenario.vector_map
    track = scenario.track(scenario.tracks_to_predict[0])

    correct = associate(vm, track)
    assert correct.fallback and correct.candidates == ()
    assert rules_scan(vm, track, AssocConfig()) == []

    wrong = associate(vm, track, PERMISSIVE_PROXIMITY)
    assert not wrong.fallback
    assert wrong.candidates[0][2] == pytest.approx(6.0, abs=1e-6)


def test_uturn_split_needs_backwards_look():
    """Corner-cutting a left turn past a U-turn/left-turn divergence must
    surface both branch nodes."""
    scenario = generate(GenSpec("uturn_split", seed=0,
                                agent_behavior="corner_cut"))
    vm = scenario.vector_map
    track = scenario.track(scenario.tracks_to_predict[0])
    point = track.states[HISTORY_LEN - 1, :2]

    u_node = nearest_on(vm, 1, point)   # U-turn arc
    l_node = nearest_on(vm, 2, point)   # left-turn arc
    assert u_node[2] < l_node[2] <= 5.0

    correct = associate(vm, track)
    assert set(correct.candidates) == {u_node, l_node}
    assert correct.candidates[0] == u_node  # sorted by distance

    without = associate(vm, track, NO_BACKWARDS)
    assert without.candidates == (u_node,)


def test_branch_node_must_pass_gates():
    """A diverging branch whose nearest node is out of proximity is not
    added by the upstream walk."""
    approach = seg(0, line_nodes((0, -30), (0, 0)), exits=(1, 2))
    ahead = seg(1, line_nodes((0, 0), (0, 30)), entries=(0,))
    far_right = seg(2, line_nodes((0, 0), (30, -0.5)), entries=(0,))
    vm = VectorMap([approach, ahead, far_right])
    track = vehicle_track((0.3, 2.0), heading=math.pi / 2, speed=6.0)
    res = associate(vm, track, AssocConfig(proximity_limit=2.5))
    # seed on segment 1; branch sibling 2 heads east (~90 deg off) and is
    # rejected by the heading gate
    assert all(sid != 2 for sid, _, _ in res.candidates)


def test_branch_walk_stops_at_an_entry_ending_beyond_backwards_look():
    """Segment 1 ends 12 m before the seed's segment 0 starts, so its end
    lies 14 m upstream of the seed: its sibling exit 2 is a candidate
    only when backwards_look reaches that far."""
    vm = VectorMap([seg(0, line_nodes((0, 0), (0, 30)), entries=(1,)),
                    seg(1, line_nodes((0, -20), (0, -12)), exits=(0, 2)),
                    seg(2, line_nodes((1.2, -5), (1.2, 30)), entries=(1,))])
    track = vehicle_track((0.3, 2.0), heading=math.pi / 2, speed=6.0)
    seed = nearest_on(vm, 0, (0.3, 2.0))
    assert associate(vm, track).candidates == (seed,)
    assert associate(vm, track, AssocConfig(backwards_look=20.0)
                     ).candidates == (seed, nearest_on(vm, 2, (0.3, 2.0)))


def test_branch_walk_visits_a_diamond_top_once():
    """A diamond: segment 3 exits to 1 and 2, which bend apart and both
    exit to the seed's segment 0, with equal arc lengths. The walk
    reaches 3 first through 2, the last entry of 0, and tests its sibling
    1; reached again through 1 with no less arc length, 3 is not walked
    again, so 2 is never tested as a sibling."""
    def bend(x):
        return np.concatenate([line_nodes((0, -4), (x, -2)),
                               line_nodes((x, -2), (0, 0))[1:]])

    vm = VectorMap([seg(0, line_nodes((0, 0), (0, 30)), entries=(1, 2)),
                    seg(1, bend(-1.0), exits=(0,), entries=(3,)),
                    seg(2, bend(1.0), exits=(0,), entries=(3,)),
                    seg(3, line_nodes((0, -8), (0, -4)), exits=(1, 2))])
    assert vm.segments[1].total_arc == vm.segments[2].total_arc
    track = vehicle_track((0.0, 1.0), heading=math.pi / 2, speed=6.0)
    assert associate(vm, track).candidates == (
        nearest_on(vm, 0, (0.0, 1.0)), nearest_on(vm, 1, (0.0, 1.0)))


# -- properties over randomized scenes ----------------------------------------

@pytest.fixture(scope="module")
def suite():
    return list(iter_suite(24, seed=11))


def test_candidates_respect_gates(suite):
    cfg = AssocConfig()
    for scenario in suite:
        track = scenario.track(scenario.tracks_to_predict[0])
        heading = derive_heading(track)
        res = associate(scenario.vector_map, track, cfg)
        assert res.fallback == (len(res.candidates) == 0)
        for sid, ni, d in res.candidates:
            assert d <= cfg.proximity_limit
            lane_h = lane_heading_at(scenario.vector_map, sid, ni)
            assert angular_difference(lane_h, heading) <= cfg.heading_threshold


def test_associate_deterministic(suite):
    for scenario in suite:
        track = scenario.track(scenario.tracks_to_predict[0])
        a = associate(scenario.vector_map, track)
        b = associate(scenario.vector_map, track)
        assert a == b


def test_proximity_enlargement_keeps_candidates(suite):
    base = AssocConfig()
    wider = AssocConfig(proximity_limit=base.proximity_limit * 1.8)
    for scenario in suite:
        track = scenario.track(scenario.tracks_to_predict[0])
        before = associate(scenario.vector_map, track, base)
        after = associate(scenario.vector_map, track, wider)
        assert set(before.candidates) <= set(after.candidates)


def test_heading_enlargement_keeps_candidates_when_seed_stable(suite):
    base = AssocConfig()
    wider = AssocConfig(heading_threshold=base.heading_threshold * 1.5)
    for scenario in suite:
        track = scenario.track(scenario.tracks_to_predict[0])
        before = associate(scenario.vector_map, track, base)
        after = associate(scenario.vector_map, track, wider)
        if before.fallback or after.candidates[0] != before.candidates[0]:
            continue  # a nearer, newly-aligned seed may replace the set
        assert set(before.candidates) <= set(after.candidates)


def derive_heading_reference(track):
    """``derive_heading`` as a scan over the history rows of ``states``."""
    valid = [row for row in track.states[:HISTORY_LEN] if row[4]]
    if len(valid) >= 2:
        prev, cur = valid[-2], valid[-1]
        dx, dy = cur[0] - prev[0], cur[1] - prev[1]
        if math.hypot(dx, dy) > MIN_MOVE_FOR_HEADING:
            return math.atan2(dy, dx)
    return track.current_state.heading


@st.composite
def histories(draw):
    """A track whose history mixes invalid rows (with junk values) into
    valid ones that move up to about 0.1 m or more a step; sometimes the
    current state is the only valid row."""
    valid = draw(st.lists(st.booleans(), min_size=10, max_size=10)) + [True]
    if draw(st.booleans()):
        valid = [False] * 10 + [True]
    step = draw(st.sampled_from([0.0, 0.05, 0.1, 0.1 / math.sqrt(2),
                                 0.10000001, 1.0]))
    start = st.sampled_from([0.0, 1e3]) | st.floats(-1e3, 1e3)
    x, y, history = draw(start), draw(start), []
    for i, ok in enumerate(valid):
        # from the origin a step of 0.1 along an axis moves exactly 0.1 m
        dx, dy = draw(st.sampled_from([(1, 0), (0, -1), (1, 1), (-1, 1)]))
        x, y = x + dx * step, y + dy * step
        heading = draw(st.floats(-math.pi, math.pi, exclude_min=True))
        history.append(AgentState(i, x, y, heading, 1.0, True) if ok
                       else AgentState(i, -x, 7.0, 0.0, 0.0, False))
    future = [AgentState(11 + i, x, y, 0.0, 0.0, True) for i in range(80)]
    return AgentTrack("a0", "vehicle", 4.8, 2.1, history, future)


@settings(max_examples=200, deadline=None)
@given(histories())
def test_derive_heading_matches_state_list_reference(track):
    assert derive_heading(track).hex() == derive_heading_reference(track).hex()
