import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (HUGE, JUNK, OVER_DIGIT_LIMIT, line_nodes, mutated_scene,
                      parse_scenario_reference, point_to_polyline_distance,
                      scenario_of, seg, stationary_track, vehicle_track,
                      write_scenario_reference)
from intentforge.map_model import (HISTORY_LEN, AgentState, AgentTrack,
                                   InvariantViolation, LaneNeighbor,
                                   MalformedScenario, ScenarioError,
                                   SchemaViolation, VectorMap, parse_scenario,
                                   write_scenario)
from intentforge.scenario_gen import iter_suite

MINIMAL = {
    "scenario_id": "mini",
    "map": {"segments": [{
        "id": 0, "speed_limit_mps": 10.0,
        "nodes": [[0.0, 0.0], [1.0, 0.0]],
        "exits": [], "entries": [], "left": None, "right": None,
    }]},
    "tracks": [{
        "agent_id": "a0", "class": "vehicle", "length_m": 4.5, "width_m": 2.0,
        "history": [[i, round(i * 0.1, 6), 0.0, 0.0, 1.0, 1]
                    for i in range(11)],
        "future": [[11 + i, round(1.0 + 0.1 * i, 6), 0.0, 0.0, 1.0, 1]
                   for i in range(80)],
    }],
    "tracks_to_predict": ["a0"],
}


def test_parse_minimal_and_byte_stable_round_trip():
    raw = json.dumps(MINIMAL).encode()  # non-canonical field ordering
    scenario = parse_scenario(raw)
    assert len(scenario.vector_map.segments) == 1
    assert scenario.tracks[0].agent_id == "a0"
    canonical = write_scenario(scenario)
    assert write_scenario(parse_scenario(canonical)) == canonical


def test_parse_rejects_asymmetric_connectivity():
    obj = json.loads(json.dumps(MINIMAL))
    obj["map"]["segments"] = [
        {"id": 7, "speed_limit_mps": 10.0,
         "nodes": [[0.0, 0.0], [1.0, 0.0]],
         "exits": [9], "entries": [], "left": None, "right": None},
        {"id": 9, "speed_limit_mps": 10.0,
         "nodes": [[1.0, 0.0], [2.0, 0.0]],
         "exits": [], "entries": [], "left": None, "right": None},
    ]
    with pytest.raises(InvariantViolation) as err:
        parse_scenario(json.dumps(obj).encode())
    assert "7" in str(err.value) and "9" in str(err.value)


def test_parse_empty_bytes_is_malformed():
    with pytest.raises(MalformedScenario):
        parse_scenario(b"")


def test_parse_names_bad_field():
    obj = json.loads(json.dumps(MINIMAL))
    obj["tracks"][0]["class"] = "truck"
    with pytest.raises(SchemaViolation) as err:
        parse_scenario(json.dumps(obj).encode())
    assert "class" in str(err.value)


def test_invalid_states_normalized_for_round_trip():
    obj = json.loads(json.dumps(MINIMAL))
    obj["tracks"][0]["future"][5] = [16, float("nan"), 1e9, 0.0, 0.0, 0]
    scenario = parse_scenario(json.dumps(obj).encode())
    x, _, _, _, valid = scenario.tracks[0].states[HISTORY_LEN + 5]
    assert not valid and x == 0.0
    data = write_scenario(scenario)
    assert parse_scenario(data) == scenario


def test_write_zero_tracks_round_trips():
    scenario = scenario_of(VectorMap([seg(0, [[0, 0], [1, 0]])]), [],
                           predict=())
    again = parse_scenario(write_scenario(scenario))
    assert again == scenario
    assert again.tracks == []


def test_write_prints_negative_zero_as_zero():
    track = stationary_track((-0.0, -0.0), heading=-0.0)
    scenario = scenario_of(VectorMap([seg(0, [[-0.0, -0.0], [-1.0, -0.0]])]),
                           [track])
    text = write_scenario(scenario)
    assert b"-0.000000" not in text
    assert text == write_scenario_reference(scenario)


def test_equal_scenarios_serialize_identically():
    def build():
        vm = VectorMap([
            seg(0, line_nodes((0, 0), (20, 0)), exits=(1,)),
            seg(1, line_nodes((20, 0), (40, 0)), entries=(0,),
                left=LaneNeighbor(2, True)),
            seg(2, line_nodes((20, 3.5), (40, 3.5)),
                right=LaneNeighbor(1, False)),
        ])
        return scenario_of(vm, [vehicle_track((5.0, 0.0))])

    assert write_scenario(build()) == write_scenario(build())


def test_duplicate_node_rejected():
    with pytest.raises(InvariantViolation):
        seg(0, [[0, 0], [0, 0], [1, 0]])


@pytest.mark.parametrize("limit", [True, False, "13", None, 0.0, -1.0,
                                   math.nan, math.inf,
                                   pytest.param(HUGE, id="int_beyond_float")])
def test_bad_speed_limit_rejected(limit):
    with pytest.raises(InvariantViolation, match="speed limit must be > 0"):
        seg(1, [[0, 0], [1, 0]], limit=limit)


def test_wide_spacing_rejected():
    with pytest.raises(InvariantViolation):
        seg(0, [[0, 0], [2.5, 0]])


def test_mutual_neighbor_required():
    with pytest.raises(InvariantViolation):
        VectorMap([
            seg(0, [[0, 0], [1, 0]], left=LaneNeighbor(1, True)),
            seg(1, [[0, 3.5], [1, 3.5]]),  # missing right back-reference
        ])


# -- array ingest against the per-field parser ----------------------------------

def _outcome(parse, data):
    try:
        return "ok", write_scenario(parse(data))
    except ScenarioError as exc:
        return type(exc), str(exc)
    except (OverflowError, ValueError) as exc:
        return "crash", type(exc)


@settings(max_examples=60, deadline=None)
@given(mutated_scene())
def test_parse_matches_per_field_reference_on_mutated_scenes(case):
    data, beyond = case
    expected = _outcome(parse_scenario_reference, data)
    got = _outcome(parse_scenario, data)
    if expected[0] == "crash":
        assert beyond, expected
        assert got[0] in (SchemaViolation, MalformedScenario)
    else:
        assert got == expected


_SITES = {
    "node": lambda o: (o["map"]["segments"][0]["nodes"][1], 0),
    "speed_limit": lambda o: (o["map"]["segments"][0], "speed_limit_mps"),
    "segment_id": lambda o: (o["map"]["segments"][0], "id"),
    "length_m": lambda o: (o["tracks"][0], "length_m"),
    "timestamp": lambda o: (o["tracks"][0]["future"][4], 0),
    "x": lambda o: (o["tracks"][0]["future"][4], 1),
    "heading": lambda o: (o["tracks"][0]["future"][4], 3),
    "flag": lambda o: (o["tracks"][0]["future"][4], 5),
    "current_flag": lambda o: (o["tracks"][0]["history"][10], 5),
    "invalid_x": lambda o: (o["tracks"][0]["future"][4], 1),
    "invalid_heading": lambda o: (o["tracks"][0]["future"][4], 3),
}


def test_parse_matches_per_field_reference_at_each_site():
    for site, locate in _SITES.items():
        for value in JUNK:
            obj = json.loads(json.dumps(MINIMAL))
            container, key = locate(obj)
            if site.startswith("invalid_"):
                container[5] = 0
            container[key] = value
            text = json.dumps(obj).replace(f'"{OVER_DIGIT_LIMIT}"',
                                           OVER_DIGIT_LIMIT)
            expected = _outcome(parse_scenario_reference, text.encode())
            got = _outcome(parse_scenario, text.encode())
            if expected[0] == "crash":
                assert value in (HUGE, OVER_DIGIT_LIMIT), (site, value)
                assert got[0] in (SchemaViolation, MalformedScenario)
            else:
                assert got == expected, (site, value)


def test_parse_matches_per_field_reference_on_generated_suite():
    for scenario in iter_suite(20, seed=4):
        data = write_scenario(scenario)
        assert write_scenario(parse_scenario(data)) == data
        assert parse_scenario(data) == parse_scenario_reference(data)


@pytest.mark.parametrize("mutate, message", [
    (lambda o: o["map"]["segments"][0]["nodes"][1].__setitem__(0, HUGE),
     "map.segments[0].nodes[1][0]: number out of float range"),
    (lambda o: o["tracks"][0].__setitem__("length_m", HUGE),
     "tracks[0].length_m: number out of float range"),
    (lambda o: o["tracks"][0]["future"][3].__setitem__(5, 0)
     or o["tracks"][0]["future"][3].__setitem__(2, HUGE),
     "tracks[0].future[3]: number out of float range"),
], ids=["node", "length_m", "invalid_state"])
def test_parse_integer_beyond_range_is_schema_violation(mutate, message):
    obj = json.loads(json.dumps(MINIMAL))
    mutate(obj)
    with pytest.raises(SchemaViolation) as err:
        parse_scenario(json.dumps(obj).encode())
    assert str(err.value) == message


@pytest.mark.parametrize("field", ["scenario_id", "agent_id"])
@pytest.mark.parametrize("char", [",", "\r", "\n"], ids=["comma", "CR", "LF"])
def test_id_with_comma_or_line_break_is_schema_violation(field, char):
    # an id is a field of every output CSV: it would split a row
    obj = json.loads(json.dumps(MINIMAL))
    if field == "scenario_id":
        obj["scenario_id"], where = f"x{char}y", "scenario_id"
    else:
        obj["tracks"][0]["agent_id"] = obj["tracks_to_predict"][0] = \
            f"x{char}y"
        where = "tracks[0].agent_id"
    with pytest.raises(SchemaViolation) as err:
        parse_scenario(json.dumps(obj).encode())
    assert str(err.value) == f"{where}: expected no comma or line break"


def test_segment_id_beyond_64_bits_is_invariant_violation():
    obj = json.loads(json.dumps(MINIMAL))
    obj["map"]["segments"][0]["id"] = 2 ** 63
    with pytest.raises(InvariantViolation) as err:
        parse_scenario(json.dumps(obj).encode())
    assert str(err.value) == f"segment id {2 ** 63} exceeds 64 bits"


@pytest.mark.parametrize("text", [
    json.dumps(MINIMAL).replace('"length_m": 4.5',
                                f'"length_m": {OVER_DIGIT_LIMIT}'),
    "[" * 100_000,
], ids=["digit_limit", "nesting"])
def test_parse_json_beyond_decoder_limits_is_malformed(text):
    with pytest.raises(MalformedScenario) as err:
        parse_scenario(text.encode())
    assert str(err.value).startswith("invalid JSON: ")


def test_parse_accepts_odd_but_legal_state_values():
    obj = json.loads(json.dumps(MINIMAL))
    history = obj["tracks"][0]["history"]
    history[0][0] = True               # bool timestamp
    history[1][5] = 1.0                # float flag
    history[2][5] = True               # bool flag
    history[3] = [3, "x", None, float("nan"), True, 0.0]   # invalid state
    scenario = parse_scenario(json.dumps(obj).encode())
    track = scenario.tracks[0]
    assert track.timestamps[0] is True
    assert track.states[1:3, 4].tolist() == [1.0, 1.0]
    assert track.states[3].tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]
    assert b"[1,0.000000,0.000000,0.000000,1.000000,1]" \
        in write_scenario(scenario)
    assert scenario == parse_scenario_reference(json.dumps(obj).encode())


# -- AgentTrack ------------------------------------------------------------------

def test_track_arrays_match_agent_states():
    track = vehicle_track((3.0, -1.0), heading=0.5, speed=4.0,
                          future_valid=np.arange(80) % 7 != 3)
    assert track.states.shape == (91, 5) and not track.states.flags.writeable
    assert track.timestamps == tuple(range(91))
    # the AgentState lists of the list constructor, built one state at a
    # time as benchmark/workloads.py builds its tracks
    states = [AgentState(t, x, y, h, v, bool(ok)) for t, (x, y, h, v, ok)
              in zip(track.timestamps, track.states.tolist())]
    rebuilt = AgentTrack(track.agent_id, track.object_class, track.length_m,
                         track.width_m, states[:HISTORY_LEN],
                         states[HISTORY_LEN:])
    assert rebuilt == track
    future = states[HISTORY_LEN:]
    assert np.array_equal(track.future_xy, [[s.x, s.y] for s in future])
    assert np.array_equal(track.future_valid, [s.valid for s in future])
    assert not track.future_valid.all()
    assert track.current_state == states[HISTORY_LEN - 1]
    assert track.gt_endpoint().tolist() == [future[-1].x, future[-1].y]
    assert stationary_track((1, 2), heading=math.pi).gt_endpoint().tolist() \
        == [1.0, 2.0]
    invalid_end = vehicle_track((0, 0), future_valid=np.arange(80) < 79)
    assert invalid_end.gt_endpoint() is None


@pytest.mark.parametrize("index, state, message", [
    (10, AgentState(10, 0.0, 0.0, 0.0, 1.0, False),
     "track a0: current state (last history entry) must be valid"),
    (20, AgentState(20, float("nan"), 0.0, 4.0, 1.0, True),
     "track a0: non-finite value in valid state at t=20"),
    (30, AgentState(30, 0.0, 0.0, 4.0, 1.0, True),
     "track a0: heading out of (-pi, pi] at t=30"),
    (40, AgentState(40, 0.0, 0.0, -math.pi, 1.0, True),
     "track a0: heading out of (-pi, pi] at t=40"),
])
def test_track_rejects_bad_states(index, state, message):
    states = [AgentState(i, 0.0, 0.0, 0.0, 0.0, True) for i in range(91)]
    states[index] = state
    states[50] = AgentState(50, 0.0, 0.0, 9.0, 1.0, True)   # a later error
    with pytest.raises(InvariantViolation) as err:
        AgentTrack("a0", "vehicle", 4.8, 2.1, states[:11], states[11:])
    assert str(err.value) == message


# -- nearest_nodes -----------------------------------------------------------

def test_nearest_nodes_exact_hit_first():
    vm = VectorMap([seg(0, line_nodes((0, 0), (10, 0)))])
    got = vm.nearest_nodes((2.0, 0.0), 1.0)
    assert got[0] == (0, 4, 0.0)


def test_nearest_nodes_radius_excludes():
    vm = VectorMap([seg(0, [[0, 0], [1, 0]])])
    assert vm.nearest_nodes((0.0, 5.1), 5.0) == []


def _scan(vm, p, radius):
    out = []
    for sid, s in vm.segments.items():
        d = np.hypot(*(s.nodes - np.asarray(p, dtype=float)).T)
        for ni in range(s.n_nodes):
            if d[ni] <= radius:
                out.append((sid, ni, float(d[ni])))
    out.sort(key=lambda c: (c[2], c[0], c[1]))
    return out


def test_nearest_nodes_matches_linear_scan_randomized():
    rng = np.random.default_rng(7)
    segments = []
    for i in range(10):  # 10 x 50 nodes = 500
        p0 = rng.uniform(-80, 80, 2)
        ang = rng.uniform(0, 2 * math.pi)
        d = np.array([math.cos(ang), math.sin(ang)])
        nodes = p0 + np.arange(50)[:, None] * rng.uniform(0.2, 1.9) * d
        segments.append(seg(i, nodes))
    vm = VectorMap(segments)
    assert vm.n_nodes == 500
    for _ in range(100):
        p = rng.uniform(-120, 120, 2)
        radius = float(rng.uniform(0.5, 40))
        assert vm.nearest_nodes(p, radius) == _scan(vm, p, radius)


def test_nearest_nodes_keeps_node_whose_distance_rounds_to_radius():
    # 1e-17 m beyond the radius in exact arithmetic
    vm = VectorMap([seg(0, [[0.0, -1e-17], [0.0, -1.0]])])
    assert vm.nearest_nodes((0.0, 1.0), 1.0) == _scan(vm, (0.0, 1.0), 1.0) \
        == [(0, 0, 1.0)]


def test_nearest_nodes_breaks_exact_ties_by_segment_then_node():
    """Nodes at exactly 1 m across three segments given out of id order:
    ties come by (segment id, node index)."""
    vm = VectorMap([seg(7, [[0.0, 1.0], [-1.0, 0.0]]),
                    seg(2, [[1.0, 0.0], [0.0, -1.0], [0.5, -0.5]]),
                    seg(5, [[-1.0, 0.0], [0.0, 1.0]])])
    got = vm.nearest_nodes((0.0, 0.0), 1.0)
    assert got == _scan(vm, (0.0, 0.0), 1.0)
    assert got == [(2, 2, math.hypot(0.5, 0.5))] + [
        (sid, ni, 1.0) for sid, ni in [(2, 0), (2, 1), (5, 0), (5, 1),
                                       (7, 0), (7, 1)]]


@st.composite
def _maps_and_query(draw):
    n_segs = draw(st.integers(1, 4))
    segments = []
    for i in range(n_segs):
        x0 = draw(st.floats(-50, 50))
        y0 = draw(st.floats(-50, 50))
        ang = draw(st.floats(0, 6.28))
        spacing = draw(st.floats(0.1, 1.99))
        count = draw(st.integers(2, 25))
        d = np.array([math.cos(ang), math.sin(ang)])
        nodes = np.array([x0, y0]) + np.arange(count)[:, None] * spacing * d
        segments.append(seg(i, nodes))
    point = (draw(st.floats(-60, 60)), draw(st.floats(-60, 60)))
    radius = draw(st.floats(0.1, 50))
    return VectorMap(segments), point, radius


@settings(max_examples=60, deadline=None)
@given(_maps_and_query())
def test_nearest_nodes_matches_scan_on_random_maps(case):
    vm, point, radius = case
    assert vm.nearest_nodes(point, radius) == _scan(vm, point, radius)


# -- point_to_polyline_distance ----------------------------------------------

def test_polyline_distance_on_line_is_zero():
    nodes = line_nodes((0, 0), (10, 0))
    assert point_to_polyline_distance((3.25, 0.0), nodes) == 0.0


def test_polyline_distance_perpendicular():
    nodes = line_nodes((0, 0), (10, 0))
    assert point_to_polyline_distance((5.0, 2.5), nodes) == pytest.approx(2.5)


def test_polyline_distance_matches_dense_sampling():
    rng = np.random.default_rng(3)
    vertices = np.cumsum(rng.uniform(-1.5, 1.5, size=(8, 2)), axis=0)
    # dense 1 mm resampling of the polyline as the oracle
    dense = []
    for a, b in zip(vertices[:-1], vertices[1:]):
        n = max(2, int(np.hypot(*(b - a)) / 0.001))
        t = np.linspace(0, 1, n)
        dense.append(a + t[:, None] * (b - a))
    dense = np.concatenate(dense)
    for _ in range(25):
        p = rng.uniform(-4, 4, 2)
        expected = float(np.hypot(*(dense - p).T).min())
        got = point_to_polyline_distance(p, vertices)
        assert abs(got - expected) <= 1e-3


def test_polyline_distance_needs_two_nodes():
    with pytest.raises(ValueError):
        point_to_polyline_distance((0, 0), [[1.0, 1.0]])
