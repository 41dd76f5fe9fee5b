import math

import numpy as np
import pytest

from conftest import (graph_edges, line_nodes, n_edges, random_road_graph,
                      reach_oracle, scenario_of, seg, stationary_track,
                      straight_map, vehicle_track)
from intentforge import experiments
from intentforge.experiments import run_scene
from intentforge.lane_assoc import AssociationResult
from intentforge.map_model import LaneNeighbor, VectorMap
from intentforge.road_graph import (GraphConfig, RoadGraph, build_graph,
                                    reach, travel_time)

MPS_30MPH = 13.4112
OFFSET_15MPH = 6.7056


def starts_at(*nodes) -> AssociationResult:
    return AssociationResult(tuple((sid, ni, 0.0) for sid, ni in nodes),
                             fallback=False)


# -- travel_time ---------------------------------------------------------------

def test_travel_time_zero_distance():
    assert travel_time(0.0, 10.0) == 0.0


def test_travel_time_unit_by_construction():
    assert travel_time(10.0 + OFFSET_15MPH, 10.0) == 1.0


def test_travel_time_hand_computed():
    # 100.584 / (13.4112 + 6.7056) = 100.584 / 20.1168 = 5.0
    assert travel_time(100.584, MPS_30MPH) == pytest.approx(5.0, abs=1e-12)


def test_travel_time_rejects_bad_limit():
    with pytest.raises(ValueError):
        travel_time(1.0, 0.0)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_graph_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        GraphConfig(time_budget=bad)
    with pytest.raises(ValueError):
        GraphConfig(speed_offset=bad)


# -- build_graph ----------------------------------------------------------------

def test_single_two_node_segment_one_edge():
    graph = build_graph(VectorMap([seg(0, [[0, 0], [1, 0]])]))
    assert n_edges(graph) == 1
    assert graph.adjacency[0] == [(1, travel_time(1.0, MPS_30MPH))]


def test_exit_connector_is_one_way():
    vm = VectorMap([
        seg(0, line_nodes((0, 0), (10, 0)), exits=(1,)),
        seg(1, line_nodes((10, 0), (20, 0)), entries=(0,)),
    ])
    graph = build_graph(vm)
    last_a = graph.index_of(0, 20)
    first_b = graph.index_of(1, 0)
    weights = dict(graph.adjacency[last_a])
    assert weights.get(first_b) == 0.0  # coincident endpoints
    assert all(v != last_a for v, _ in graph.adjacency[first_b])


def test_index_of_finds_every_node_and_rejects_unknown():
    vm = VectorMap([seg(3, line_nodes((0, 0), (5, 0))),
                    seg(1, line_nodes((0, 3.5), (4, 3.5)))])
    graph = build_graph(vm)
    perm = np.random.default_rng(0).permutation(graph.n_nodes)
    shuffled = RoadGraph(graph.seg_ids[perm], graph.node_indices[perm],
                         graph.positions[perm], [[] for _ in perm])
    for g in (graph, shuffled):
        for i, (s, n) in enumerate(zip(g.seg_ids, g.node_indices)):
            assert g.index_of(int(s), int(n)) == i
        for key in [(0, 0), (1, -1), (1, 9), (2, 0), (3, 11), (4, 0)]:
            with pytest.raises(KeyError):
                g.index_of(*key)


def test_parallel_lanes_lane_change_edges():
    n = 20
    a = seg(0, line_nodes((0, 0), (9.5, 0)), left=LaneNeighbor(1, True))
    b = seg(1, line_nodes((0.25, 3.5), (9.75, 3.5)),
            right=LaneNeighbor(0, True))
    assert a.n_nodes == n and b.n_nodes == n
    graph = build_graph(VectorMap([a, b]))
    intra = 2 * (n - 1)
    change_edges = [(u, v, w) for u, v, w in graph_edges(graph)
                    if graph.seg_ids[u] != graph.seg_ids[v]]
    assert n_edges(graph) == intra + 2 * n
    assert len(change_edges) == 2 * n
    # every lane-change edge targets the brute-force nearest neighbor node
    for u, v, w in change_edges:
        src_sid = int(graph.seg_ids[u])
        other = graph.positions[graph.seg_ids == 1 - src_sid]
        d = np.hypot(*(other - graph.positions[u]).T)
        assert np.hypot(*(graph.positions[v] - graph.positions[u])) \
            == pytest.approx(d.min())
        assert w == pytest.approx(travel_time(float(d.min()), MPS_30MPH))


# -- reach ----------------------------------------------------------------------

def test_reach_zero_budget_returns_starts():
    vm = VectorMap([seg(0, line_nodes((0, 0), (50, 0)))])
    graph = build_graph(vm)
    got = reach(graph, starts_at((0, 10), (0, 40)), GraphConfig(time_budget=0.0))
    assert len(got) == 2
    assert list(got.node_indices) == [10, 40]
    assert list(got.arrival_times) == [0.0, 0.0]


def test_reach_requires_candidates():
    vm = VectorMap([seg(0, [[0, 0], [1, 0]])])
    graph = build_graph(vm)
    with pytest.raises(ValueError):
        reach(graph, AssociationResult((), fallback=True))


def test_reach_closed_form_horizon():
    """30 mph limit + 15 mph offset over 8 s covers 160.93 m of arc."""
    vm = VectorMap([seg(0, line_nodes((0, 0), (200, 0)), limit=MPS_30MPH)])
    graph = build_graph(vm)
    got = reach(graph, starts_at((0, 0)),
                GraphConfig(time_budget=8.0, speed_offset=OFFSET_15MPH))
    max_arc = 0.5 * float(got.node_indices.max())
    assert abs(max_arc - 160.93) <= 0.5
    assert (got.arrival_times <= 8.0).all()


def test_reach_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(2, 120))
        graph = random_road_graph(rng, n)
        k = int(rng.integers(1, min(4, n) + 1))
        starts = sorted(rng.choice(n, size=k, replace=False).tolist())
        budget = float(rng.uniform(0.2, 4.0))
        got = reach(graph, starts_at(*((0, s) for s in starts)),
                    GraphConfig(time_budget=budget))
        expected = reach_oracle(graph.adjacency, starts, budget)
        assert {int(i) for i in got.node_indices} == set(expected)
        for ni, t in zip(got.node_indices, got.arrival_times):
            assert abs(t - expected[int(ni)]) <= 1e-9


def test_reach_sorted_by_arrival():
    rng = np.random.default_rng(5)
    graph = random_road_graph(rng, 60)
    got = reach(graph, starts_at((0, 0)), GraphConfig(time_budget=3.0))
    keys = list(zip(got.arrival_times, got.seg_ids, got.node_indices))
    assert keys == sorted(keys)


def test_budget_monotonicity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        graph = random_road_graph(rng, 80)
        small = reach(graph, starts_at((0, 0)), GraphConfig(time_budget=1.0))
        large = reach(graph, starts_at((0, 0)), GraphConfig(time_budget=2.5))
        assert set(small.node_indices) <= set(large.node_indices)


def test_offset_monotonicity():
    vm = VectorMap([
        seg(0, line_nodes((0, 0), (150, 0)), exits=(1,)),
        seg(1, line_nodes((150, 0), (151, 5)), entries=(0,)),
    ])
    graph_slow = build_graph(vm, GraphConfig(speed_offset=0.0))
    graph_fast = build_graph(vm, GraphConfig(speed_offset=OFFSET_15MPH))
    slow = reach(graph_slow, starts_at((0, 0)),
                 GraphConfig(time_budget=8.0, speed_offset=0.0))
    fast = reach(graph_fast, starts_at((0, 0)),
                 GraphConfig(time_budget=8.0, speed_offset=OFFSET_15MPH))
    slow_set = set(zip(slow.seg_ids, slow.node_indices))
    fast_set = set(zip(fast.seg_ids, fast.node_indices))
    assert slow_set <= fast_set and len(fast_set) > len(slow_set)


def test_run_scene_builds_graph_once_and_only_when_needed(monkeypatch):
    built = []
    monkeypatch.setattr(experiments, "build_graph",
                        lambda *a: built.append(1) or build_graph(*a))
    vm = straight_map()
    tracks = [vehicle_track((10, 0), agent_id="a"),
              stationary_track((50, 30), agent_id="off_road"),
              vehicle_track((40, 0), agent_id="b"),
              vehicle_track((60, 0), agent_id="p", object_class="pedestrian")]
    results = run_scene(scenario_of(vm, tracks))
    assert len(built) == 1
    assert [r.track.agent_id for r in results] == ["a", "b", "off_road", "p"]
    assert [r.assoc is None for r in results] == [False, False, False, True]
    assert [r.reach_set is None for r in results] == [False, False, True, True]
    run_scene(scenario_of(vm, tracks[1:2] + tracks[3:]))
    assert len(built) == 1
