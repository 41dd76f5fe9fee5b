import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (PARALLEL_LANE_QUERIES, graph_edges, line_nodes,
                      n_edges, parallel_lanes, random_road_graph,
                      reach_csv_reference, reach_oracle, road_graph_reference,
                      scenario_of, seg, stationary_track, straight_map,
                      vehicle_track)
from intentforge import experiments
from intentforge.cli import main
from intentforge.experiments import run_scene
from intentforge.lane_assoc import AssociationResult, associate
from intentforge.map_model import (LaneNeighbor, LaneSegment, VectorMap,
                                   write_scenario)
from intentforge.road_graph import (GraphConfig, RoadGraph, build_graph,
                                    reach, travel_time)
from intentforge.scenario_gen import iter_suite

MPS_30MPH = 13.4112
OFFSET_15MPH = 6.7056


def starts_at(*nodes) -> AssociationResult:
    return AssociationResult(tuple((sid, ni, 0.0) for sid, ni in nodes))


# -- travel_time ---------------------------------------------------------------

def test_travel_time_zero_distance():
    assert travel_time(0.0, 10.0) == 0.0


def test_travel_time_unit_by_construction():
    assert travel_time(10.0 + OFFSET_15MPH, 10.0) == 1.0


def test_travel_time_hand_computed():
    # 100.584 / (13.4112 + 6.7056) = 100.584 / 20.1168 = 5.0
    assert travel_time(100.584, MPS_30MPH) == pytest.approx(5.0, abs=1e-12)


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
    # the lanes are offset by half a spacing, so every inner node lies
    # exactly as far from two neighbor nodes: the lower index wins
    targets = {u: int(graph.node_indices[v]) for u, v, _ in change_edges}
    assert [targets[u] for u in range(n)] == [max(i - 1, 0) for i in range(n)]
    assert [targets[n + i] for i in range(n)] == list(range(n))
    for u, v, w in change_edges:
        gap = float(np.hypot(*(graph.positions[v] - graph.positions[u])))
        assert gap == pytest.approx(math.hypot(0.25, 3.5))
        assert w == pytest.approx(travel_time(gap, MPS_30MPH))
    assert graph.adjacency == road_graph_reference(VectorMap([a, b]))


def _lane(origin, step, n) -> np.ndarray:
    return np.asarray(origin) + np.arange(n)[:, None] * np.asarray(step)


_DIRECTIONS = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1), (-1, 1),
               (-1, -1)]
_HUGE = [1e300, math.nextafter(1e300, math.inf), -1e300, 1.7e308, -1.7e308]


@st.composite
def _step(draw):
    if draw(st.booleans()):
        # a lattice step: multiples of 0.25 keep every squared distance
        # exact, so ties are common
        dx, dy = draw(st.sampled_from(_DIRECTIONS))
        q = 0.25 * draw(st.integers(1, 5))
        return np.array([dx * q, dy * q])
    angle = draw(st.sampled_from([0.0, math.pi / 2, math.pi / 4,
                                  -3 * math.pi / 4])
                 | st.floats(-math.pi, math.pi))
    length = draw(st.floats(0.05, 1.4))
    return length * np.array([math.cos(angle), math.sin(angle)])


@st.composite
def _mutual_lanes(draw):
    """Node arrays of two lanes that are each other's change-permitted
    neighbor."""
    kind = draw(st.sampled_from(["free", "lattice", "tiny", "huge"]))
    na, nb = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    sa, sb = draw(_step()), draw(_step())
    if kind in ("free", "lattice"):
        coord = (st.floats(-30, 30) if kind == "free"
                 else st.integers(-40, 40).map(lambda i: 0.25 * i))
        oa = np.array([draw(coord), draw(coord)])
        ob = np.array([draw(coord), draw(coord)])
        return _lane(oa, sa, na), _lane(ob, sb, nb)
    if kind == "tiny":
        # a node of `a` at the origin, and a node of `b` 1e-170 from it:
        # their squared distance underflows to 0
        a = _lane(-draw(st.integers(0, na - 1)) * sa, sa, na)
        b = np.vstack([-1e-170 * sb / np.hypot(*sb), _lane((0, 0), sb, nb)])
        return a, b
    # near the largest floats: one coordinate fixed, lanes along the other
    lanes = []
    for n in (na, nb):
        lane = _lane((draw(st.sampled_from(_HUGE)), draw(st.floats(-10, 10))),
                     (0.0, draw(st.floats(0.05, 1.4))), n)
        lanes.append(lane[:, ::-1] if draw(st.booleans()) else lane)
    return tuple(lanes)


@settings(max_examples=300, deadline=None)
@given(_mutual_lanes())
@example((np.array([[0.0, 0.0], [0.5, 0.0]]),
          np.array([[-1e-170, 0.0], [0.0, 0.0], [0.5, 0.0]])))
def test_lane_change_targets_equal_the_whole_block(lanes):
    a, b = lanes
    vm = VectorMap([
        LaneSegment(0, a, MPS_30MPH, left=LaneNeighbor(1, True)),
        LaneSegment(1, b, MPS_30MPH, right=LaneNeighbor(0, True)),
    ])
    with np.errstate(over="ignore"):
        want = road_graph_reference(vm)
    assert build_graph(vm).adjacency == want


def test_criterion_9_map_graph_equals_the_whole_block():
    vm = VectorMap([
        seg(i, line_nodes((0, 3.5 * i), (499.5, 3.5 * i)),
            left=LaneNeighbor(i + 1, True) if i < 9 else None,
            right=LaneNeighbor(i - 1, True) if i > 0 else None)
        for i in range(10)])
    assert vm.n_nodes == 10_000
    assert build_graph(vm).adjacency == road_graph_reference(vm)


def _along_y(seg_id, x, y0, y1, **links):
    return seg(seg_id, line_nodes((x, y0), (x, y1)), **links)


# (lanes along +y, x of an agent standing at y = 0.5 heading +y, the nodes
# it reaches): the distances between lanes far apart overflow to inf,
# beyond any radius, arc budget or time budget
_FAR_APART = {
    "exit": ([_along_y(0, 1e308, 0, 0.5, exits=[1]),
              _along_y(1, -1e308, 0, 0.5, entries=[0])], 1e308, [(0, 1)]),
    "entry": ([_along_y(0, -1e308, 0, 0.5, exits=[1]),
               _along_y(1, 1e308, 0, 0.5, entries=[0])], 1e308, [(1, 1)]),
    "sibling_exit": ([_along_y(0, 1e308, -1, 0, exits=[1, 2]),
                      _along_y(1, 1e308, 0, 1, entries=[0]),
                      _along_y(2, -1e308, 0, 0.5, entries=[0])], 1e308,
                     [(1, 1), (1, 2)]),
    "neighbor": ([_along_y(0, 0.0, 0, 0.5, left=LaneNeighbor(1, True)),
                  _along_y(1, 1e200, 0, 0.5, right=LaneNeighbor(0, True))],
                 0.0, [(0, 1)]),
}


@pytest.mark.parametrize("case", list(_FAR_APART))
def test_lanes_far_apart_run_without_warnings(tmp_path, capsys, case):
    """Association, the graph build and the commands on such a map warn
    nothing: the graph equals the whole-block reference, the agent reaches
    only its own lane, and dump-roadgraph writes that reach set."""
    segments, x, reached = _FAR_APART[case]
    vm = VectorMap(segments)
    with np.errstate(over="ignore", invalid="ignore"):
        want = road_graph_reference(vm)
    graph = build_graph(vm)
    assert graph.adjacency == want
    track = stationary_track((x, 0.5), heading=math.pi / 2)
    rs = reach(graph, associate(vm, track))
    assert list(zip(rs.seg_ids.tolist(), rs.node_indices.tolist())) == reached
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    (scenes / "s0.json").write_bytes(write_scenario(scenario_of(vm, [track])))
    dump, intents = tmp_path / "r.csv", tmp_path / "i.csv"
    assert main(["dump-roadgraph", str(scenes), "-o", str(dump)]) == 0
    assert main(["intents", str(scenes), "--kind", "dynamic",
                 "-o", str(intents)]) == 0
    assert capsys.readouterr().err == ""
    assert dump.read_text() == reach_csv_reference(
        [("s0", "a0", rs.positions, rs.arrival_times)])
    assert intents.read_text().count(",dynamic,") == 64


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
        reach(graph, AssociationResult(()))


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


@pytest.mark.parametrize("starts,budget", PARALLEL_LANE_QUERIES)
def test_reach_equals_oracle_exactly_on_parallel_lanes(starts, budget):
    """Identical lanes tie many arrival times exactly, where the random
    graphs above have few ties: every time equals the oracle's path sum
    bit for bit, and the entries stay sorted by (time, segment, node)."""
    graph = build_graph(parallel_lanes(6, 400))
    got = reach(graph, starts_at(*starts), GraphConfig(time_budget=budget))
    expected = reach_oracle(graph.adjacency,
                            [graph.index_of(*s) for s in starts], budget)
    times = got.arrival_times.tolist()
    assert len(set(times)) < 0.9 * len(times)
    assert {graph.index_of(int(s), int(n)): t for s, n, t in zip(
        got.seg_ids, got.node_indices, times)} == expected
    keys = list(zip(times, got.seg_ids.tolist(), got.node_indices.tolist()))
    assert keys == sorted(keys)


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


def test_horizon_reach_set_is_the_8s_set_cut_at_that_horizon():
    """The reach set of a shorter budget is the 8 s set's entries that
    arrive within it, bit for bit and in the same order, so one 8 s search
    serves every horizon."""
    checked = 0
    for scenario in iter_suite(100, 0):
        graph = None
        for result in run_scene(scenario):
            if result.reach_set is None:
                continue
            if graph is None:
                graph = build_graph(scenario.vector_map)
            full = result.reach_set
            for horizon in (3.0, 5.0):
                cut = reach(graph, result.assoc,
                            GraphConfig(time_budget=horizon))
                keep = full.arrival_times <= horizon
                for name in ("seg_ids", "node_indices", "positions",
                             "arrival_times"):
                    assert np.array_equal(getattr(cut, name),
                                          getattr(full, name)[keep]), (
                        scenario.scenario_id, result.track.agent_id,
                        horizon, name)
            checked += 1
    assert checked > 0


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
