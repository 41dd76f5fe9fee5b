import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (line_nodes, point_to_polyline_distance, scenario_of,
                      seg, vehicle_track)
from intentforge.map_model import (InvariantViolation, LaneNeighbor,
                                   MalformedScenario, SchemaViolation,
                                   VectorMap, parse_scenario, write_scenario)
from intentforge.scenario_gen import GenSpec, generate

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
    state = scenario.tracks[0].future[5]
    assert not state.valid and state.x == 0.0
    data = write_scenario(scenario)
    assert parse_scenario(data) == scenario


def test_write_zero_tracks_round_trips():
    scenario = scenario_of(VectorMap([seg(0, [[0, 0], [1, 0]])]), [],
                           predict=())
    again = parse_scenario(write_scenario(scenario))
    assert again == scenario
    assert again.tracks == []


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


@pytest.mark.parametrize("template,behavior", [
    ("straight", "follow_lane"),
    ("uturn_split", "corner_cut"),
    ("merge", "lane_merge_violation"),
    ("parking_adjacent", "offroad_parking"),
])
def test_generated_scenarios_round_trip(template, behavior):
    scenario = generate(GenSpec(template, seed=5, agent_behavior=behavior))
    data = write_scenario(scenario)
    again = parse_scenario(data)
    assert again == scenario
    assert write_scenario(again) == data


def test_duplicate_node_rejected():
    with pytest.raises(InvariantViolation):
        seg(0, [[0, 0], [0, 0], [1, 0]])


def test_wide_spacing_rejected():
    with pytest.raises(InvariantViolation):
        seg(0, [[0, 0], [2.5, 0]])


def test_mutual_neighbor_required():
    with pytest.raises(InvariantViolation):
        VectorMap([
            seg(0, [[0, 0], [1, 0]], left=LaneNeighbor(1, True)),
            seg(1, [[0, 3.5], [1, 3.5]]),  # missing right back-reference
        ])


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
    # 1e-17 m beyond the radius in exact arithmetic, in the next grid cell
    vm = VectorMap([seg(0, [[0.0, -1e-17], [0.0, -1.0]])])
    assert vm.nearest_nodes((0.0, 1.0), 1.0) == _scan(vm, (0.0, 1.0), 1.0) \
        == [(0, 0, 1.0)]


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
def test_spatial_index_equivalence_property(case):
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
