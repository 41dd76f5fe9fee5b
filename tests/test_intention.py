import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (PARALLEL_LANE_QUERIES, coalesce_reference,
                      convex_hull, from_agent_frame, kmeanspp_reference,
                      lane_order_reference, line_nodes, lloyd_reference,
                      parallel_lanes, point_in_hull, reach_of, seg,
                      straight_map, vehicle_track)
from intentforge import intention
from intentforge.experiments import fit_static
from intentforge.intention import (_BOUND_MIN_POINTS, IntentionPointSet,
                                   KMeansConfig, MixConfig, _coalesce,
                                   _kmeanspp, _lloyd, dynamic_intents,
                                   dynamic_pool, dynamic_sets, mixed_intents,
                                   to_agent_frame, weighted_kmeans,
                                   weighted_kmeans_many)
from intentforge.lane_assoc import AssociationResult, associate
from intentforge.map_model import LaneNeighbor, VectorMap
from intentforge.road_graph import (GraphConfig, ReachabilitySet, build_graph,
                                    reach)


def lex_sorted(pts):
    pts = np.asarray(pts, dtype=float)
    return pts[np.lexsort((pts[:, 1], pts[:, 0]))]


# -- weighted_kmeans -----------------------------------------------------------

def test_k_equals_n_returns_inputs():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-50, 50, size=(64, 2))
    got = weighted_kmeans(pts, cfg=KMeansConfig(k=64))
    assert np.array_equal(got, lex_sorted(pts))


def test_all_identical_points():
    pts = np.tile([3.0, -2.0], (10, 1))
    got = weighted_kmeans(pts, cfg=KMeansConfig(k=64))
    assert got.shape == (64, 2)
    assert np.array_equal(got, np.tile([3.0, -2.0], (64, 1)))


def test_k1_weighted_mean():
    pts = np.array([[0.0, 0.0], [100.0, 0.0]])
    got = weighted_kmeans(pts, np.array([3.0, 1.0]), KMeansConfig(k=1))
    assert got == pytest.approx(np.array([[25.0, 0.0]]))


def test_integer_weight_replication_equivalence():
    rng = np.random.default_rng(13)
    for trial in range(5):
        n = 40
        pts = np.round(rng.uniform(-30, 30, size=(n, 2)), 3)
        w = rng.integers(1, 5, size=n).astype(float)
        replicated = np.repeat(pts, w.astype(int), axis=0)
        cfg = KMeansConfig(k=8, seed=trial)
        a = weighted_kmeans(pts, w, cfg)
        b = weighted_kmeans(replicated, None, cfg)
        assert np.array_equal(a, b)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        weighted_kmeans(np.empty((0, 2)))


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError):
        weighted_kmeans(np.array([[0.0, 0.0]]), np.array([0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_weight_rejected(bad):
    pts = np.arange(40.0).reshape(20, 2)
    w = np.ones(20)
    w[7] = bad
    for weights in (w, np.full(20, bad)):
        with pytest.raises(ValueError, match="weights must be finite and > 0"):
            weighted_kmeans(pts, weights, KMeansConfig(k=4))


def test_padding_repeats_highest_weight():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    got = weighted_kmeans(pts, np.array([1.0, 5.0, 2.0]), KMeansConfig(k=5))
    vals, counts = np.unique(got, axis=0, return_counts=True)
    assert got.shape == (5, 2)
    by_point = {tuple(v): c for v, c in zip(vals, counts)}
    assert by_point[(1.0, 0.0)] == 2 and by_point[(2.0, 0.0)] == 2
    assert by_point[(0.0, 0.0)] == 1


def test_fortran_ordered_pool_gives_the_c_pool_centers():
    """A pool need not be C-contiguous: its Fortran-ordered and
    transposed copies give the centers of the C-ordered pool."""
    rng = np.random.default_rng(3)
    pts = np.round(rng.uniform(-50.0, 50.0, size=(300, 2)), 0)
    w = rng.uniform(0.1, 5.0, size=300)
    cfg = KMeansConfig(k=16)
    for weights in (None, w):
        want = weighted_kmeans(pts, weights, cfg)
        for pool in (np.asfortranarray(pts), pts.T.copy().T):
            assert not pool.flags.c_contiguous
            assert np.array_equal(weighted_kmeans(pool, weights, cfg), want)


# -- static --------------------------------------------------------------------

def test_static_separated_clusters():
    rng = np.random.default_rng(1)
    centers = np.stack(np.meshgrid(np.arange(8) * 20.0,
                                   np.arange(8) * 20.0), axis=-1).reshape(-1, 2)
    endpoints = np.concatenate([c + rng.uniform(-0.5, 0.5, size=(6, 2))
                                for c in centers])
    got = fit_static([{"vehicle": endpoints}], "vehicle",
                     KMeansConfig(k=64, seed=0))
    assert got.kind == "static"
    for c in centers:
        inside = (np.abs(got.points - c) <= 0.5).all(axis=1)
        assert inside.sum() == 1


def test_static_padding_from_few_endpoints():
    pts = np.arange(10, dtype=float).reshape(-1, 1) * [1.0, 0.0]
    got = fit_static([{"cyclist": pts}], "cyclist", KMeansConfig(k=64))
    assert got.points.shape == (64, 2)
    assert {tuple(p) for p in got.points} == {tuple(p) for p in pts}


def test_static_single_endpoint():
    got = fit_static([{"pedestrian": np.array([[5.0, 7.0]])}], "pedestrian")
    assert np.array_equal(got.points, np.tile([5.0, 7.0], (64, 1)))


def test_static_empty_rejected():
    with pytest.raises(ValueError):
        fit_static([{"vehicle": np.empty((0, 2))}], "vehicle")


# -- dynamic -------------------------------------------------------------------

def test_dynamic_identity_for_64_nodes():
    rng = np.random.default_rng(2)
    nodes = rng.uniform(0, 100, size=(64, 2))
    track = vehicle_track((10.0, 20.0), heading=0.3, speed=8.0)
    got = dynamic_intents(reach_of(nodes), track, KMeansConfig(k=64))
    # the scalar form, in Python floats: the pool's elementwise rotation
    # gives the same bits
    cur = track.current_state
    c, s = math.cos(cur.heading), math.sin(cur.heading)
    scalar = [(c * (x - cur.x) + s * (y - cur.y),
               -s * (x - cur.x) + c * (y - cur.y)) for x, y in nodes.tolist()]
    assert np.array_equal(to_agent_frame(nodes, track), scalar)
    assert np.array_equal(np.array([to_agent_frame(p, track) for p in nodes]),
                          scalar)
    assert got.kind == "dynamic"
    assert np.array_equal(got.points, lex_sorted(scalar))


def test_dynamic_straight_lane_corridor():
    nodes = np.stack([np.arange(0, 120) * 0.5, np.zeros(120)], axis=1)
    track = vehicle_track((5.0, 0.0), heading=0.0, speed=8.0)
    got = dynamic_intents(reach_of(nodes), track)
    assert np.abs(got.points[:, 1]).max() <= 0.5
    assert got.points[:, 0].min() >= -5.0 - 1e-9
    assert got.points[:, 0].max() <= 54.5 + 1e-9


def test_dynamic_frame_rotation():
    track = vehicle_track((10.0, 20.0), heading=math.pi / 2, speed=8.0)
    got = dynamic_intents(reach_of([[10.0, 30.0]]), track, KMeansConfig(k=1))
    assert got.points[0] == pytest.approx([10.0, 0.0], abs=1e-12)


def test_dynamic_empty_reach_rejected():
    track = vehicle_track((0.0, 0.0))
    with pytest.raises(ValueError):
        dynamic_intents(reach_of(np.empty((0, 2))), track)


def test_dynamic_pool_is_in_lane_order():
    rng = np.random.default_rng(5)
    seg_ids, nodes = [2, 0, 1, 0, 2, 1], [0, 3, 1, 0, 1, 0]
    positions = rng.uniform(-50.0, 50.0, size=(6, 2))
    track = vehicle_track((1.0, 2.0), heading=0.4)
    rset = ReachabilitySet(np.array(seg_ids), np.array(nodes), positions,
                           np.zeros(6))
    order = sorted(range(6), key=lambda i: (seg_ids[i], nodes[i]))
    assert order == [3, 1, 5, 2, 0, 4]
    assert np.array_equal(dynamic_pool(rset, track),
                          to_agent_frame(positions[order], track))


def _two_lane_fork():
    """Two parallel lanes that may change into each other, each continued
    by one more segment whose first node is the last node of the lane: a
    reach set interleaves the lanes by arrival time and holds each
    junction twice."""
    left, right = LaneNeighbor(1, True), LaneNeighbor(0, True)
    return VectorMap([
        seg(0, line_nodes((0, 0), (30, 0)), exits=[2], left=left),
        seg(1, line_nodes((0, 3.5), (30, 3.5)), exits=[3], right=right),
        seg(2, line_nodes((30, 0), (60, -10)), entries=[0]),
        seg(3, line_nodes((30, 3.5), (70, 3.5)), entries=[1])])


def test_dynamic_intents_match_lane_order_reference_at_junctions():
    vmap = _two_lane_fork()
    track = vehicle_track((2.0, 0.0), speed=8.0)
    rset = reach(build_graph(vmap), associate(vmap, track))
    order = sorted(range(len(rset)), key=lambda i: (
        int(rset.seg_ids[i]), int(rset.node_indices[i])))
    assert order != list(range(len(rset)))
    pool = to_agent_frame(rset.positions[order], track)
    _, w = _coalesce(pool, np.ones(len(pool)))
    assert (w == 2.0).sum() == 2 and len(w) > 64
    for cfg in (KMeansConfig(), KMeansConfig(k=7, seed=3)):
        got = dynamic_intents(rset, track, cfg)
        assert np.array_equal(got.points, lane_order_reference(pool, cfg))


@pytest.mark.parametrize("starts,budget", PARALLEL_LANE_QUERIES[:3])
def test_dynamic_intents_match_lane_order_reference_on_parallel_lanes(
        starts, budget):
    """Reach pools of at least ``_BOUND_MIN_POINTS`` points on identical
    lanes, where Lloyd keeps distance bounds and many rows tie: the points
    equal the plain-Python reference bit for bit."""
    graph = build_graph(parallel_lanes(6, 400))
    rset = reach(graph, AssociationResult(
        tuple((sid, ni, 0.0) for sid, ni in starts)),
        GraphConfig(time_budget=budget))
    track = vehicle_track(graph.positions[graph.index_of(*starts[0])])
    order = sorted(range(len(rset)), key=lambda i: (
        int(rset.seg_ids[i]), int(rset.node_indices[i])))
    pool = to_agent_frame(rset.positions[order], track)
    assert len(pool) >= _BOUND_MIN_POINTS
    cfg = KMeansConfig()
    assert np.array_equal(dynamic_intents(rset, track, cfg).points,
                          lane_order_reference(pool, cfg))


def test_dynamic_sets_keep_seeds_distinct_on_heavy_points():
    """A pool whose points 10 and 99 carry 41 and 31 of its 170 weight:
    several quantiles fall on each, and the seeds still step through
    distinct points, the last ones held back from the pool's end."""
    line = np.column_stack([np.arange(100.0), np.zeros(100)])
    pool = np.concatenate([line, np.repeat(line[[10, 99]], [40, 30], axis=0)])
    cfg = KMeansConfig(k=16)
    pts, w = _coalesce(pool, np.ones(len(pool)))
    cum = np.cumsum(w)
    first = np.searchsorted(cum, cum[-1] * ((np.arange(16) + 0.5) / 16))
    assert len(set(first.tolist())) < 12 and (first == 99).sum() > 1
    got = dynamic_sets([pool], cfg)[0]
    assert np.array_equal(got, lane_order_reference(pool, cfg))
    assert len(np.unique(got, axis=0)) == 16


def test_dynamic_intents_of_a_small_reach_set_pad_like_weighted_kmeans():
    track = vehicle_track((1.0, 0.0), speed=1.0)
    vmap = straight_map(length=20.0)
    rset = reach(build_graph(vmap), associate(vmap, track))
    assert 1 < len(rset) < 64
    pool = dynamic_pool(rset, track)
    assert np.array_equal(dynamic_intents(rset, track).points,
                          weighted_kmeans(pool))


# -- mixed ---------------------------------------------------------------------

def test_mixed_identical_sets_unchanged():
    rng = np.random.default_rng(3)
    pts = lex_sorted(rng.uniform(-40, 40, size=(64, 2)))
    dyn = IntentionPointSet("dynamic", pts)
    stat = IntentionPointSet("static", pts.copy())
    for ratio in (1.0, 3.0, 5.0):
        got = mixed_intents(dyn, stat, MixConfig(ratio, 1.0))
        assert np.array_equal(got.points, pts)
        assert got.kind == "mixed"


def test_mixed_ratio_equals_replication():
    rng = np.random.default_rng(4)
    dpts = lex_sorted(rng.uniform(-40, 40, size=(64, 2)))
    spts = lex_sorted(rng.uniform(-40, 40, size=(64, 2)))
    cfg = KMeansConfig(k=64, seed=7)
    mixed = mixed_intents(IntentionPointSet("dynamic", dpts),
                          IntentionPointSet("static", spts),
                          MixConfig(3.0, 1.0), cfg)
    replicated = np.concatenate([np.repeat(dpts, 3, axis=0), spts])
    oracle = weighted_kmeans(replicated, None, cfg)
    assert np.array_equal(mixed.points, oracle)


def test_mixed_k1_closed_form():
    dyn = IntentionPointSet("dynamic", np.array([[8.0, 0.0]]))
    stat = IntentionPointSet("static", np.array([[0.0, 4.0]]))
    got = mixed_intents(dyn, stat, MixConfig(3.0, 1.0), KMeansConfig(k=1))
    assert got.points[0] == pytest.approx([6.0, 1.0])


def test_mixed_requires_one_dynamic_one_static():
    pts = np.zeros((1, 2))
    a = IntentionPointSet("dynamic", pts)
    with pytest.raises(ValueError):
        mixed_intents(a, a)


# -- agent frame ----------------------------------------------------------------

def test_agent_frame_origin():
    track = vehicle_track((3.0, -4.0), heading=1.0)
    assert to_agent_frame((3.0, -4.0), track) == pytest.approx([0.0, 0.0])


def test_agent_frame_heading_zero():
    track = vehicle_track((3.0, -4.0), heading=0.0)
    assert to_agent_frame((4.0, -4.0), track) == pytest.approx([1.0, 0.0])


def test_agent_frame_round_trip():
    track = vehicle_track((12.0, 9.0), heading=-2.2, speed=6.0)
    p = np.array([31.0, -14.0])
    back = from_agent_frame(to_agent_frame(p, track), track)
    assert back == pytest.approx(p, abs=1e-9)


# -- algorithm properties --------------------------------------------------------

finite_pts = st.lists(
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    min_size=1, max_size=120)


@settings(max_examples=40, deadline=None)
@given(finite_pts, st.integers(0, 2 ** 31))
def test_cardinality_and_determinism(points, seed):
    pts = np.asarray(points)
    cfg = KMeansConfig(k=16, seed=seed)
    a = weighted_kmeans(pts, None, cfg)
    b = weighted_kmeans(pts, None, cfg)
    assert a.shape == (16, 2)
    assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(finite_pts, st.integers(0, 2 ** 31))
def test_centroid_hull_containment(points, seed):
    pts = np.asarray(points)
    got = weighted_kmeans(pts, None, KMeansConfig(k=8, seed=seed))
    hull = convex_hull(pts)
    for c in got:
        assert point_in_hull(c, hull, eps=1e-6)


def test_objective_descent():
    rng = np.random.default_rng(21)
    for trial in range(20):
        pts, _ = _coalesce(rng.uniform(-100, 100, size=(200, 2)),
                           np.ones(200))
        w = rng.uniform(0.5, 4.0, size=pts.shape[0])
        cfg = KMeansConfig(k=12, seed=trial)
        init = _kmeanspp(pts, w, cfg.k, np.random.default_rng(trial))
        _, objectives = _lloyd(pts, w, init, cfg)
        assert len(objectives) >= 1
        for prev, cur in zip(objectives, objectives[1:]):
            assert cur <= prev * (1 + 1e-9) + 1e-9


def _seeding_input(rng, layout, n):
    """n points laid out uniformly, uniformly then rounded to 0.1 m (which
    makes _coalesce merge duplicates), or as rotated rows of lane nodes
    0.5 m apart (regular spacing gives near-tied candidate potentials)."""
    if layout == "lanes":
        lanes = int(rng.integers(1, 12))
        along, across = np.meshgrid(np.arange(max(2, n // lanes)) * 0.5,
                                    np.arange(lanes) * 3.5)
        th = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        local = np.stack([along.ravel(), across.ravel()], axis=1)
        return local @ rot.T + rng.uniform(-50.0, 50.0, size=2)
    scale = float(rng.uniform(3.0, 150.0)) if layout == "rounded" else 150.0
    pts = rng.uniform(-scale, scale, size=(n, 2))
    return np.round(pts, 1) if layout == "rounded" else pts


def test_kmeanspp_matches_per_candidate_reference():
    """Block-scored seeding picks bit-identical centers to the one-candidate-
    at-a-time loop, for unit and random weights and k = 1 (one trial per
    step) up to 64."""
    rng = np.random.default_rng(0)
    compared = merged = 0
    cases = itertools.product((1, 2, 7, 64), (False, True),
                              ("uniform", "rounded", "lanes"), range(10))
    for case, (k, weighted, layout, _) in enumerate(cases):
        pts = _seeding_input(rng, layout, int(rng.integers(65, 3201)))
        n = pts.shape[0]
        w = rng.uniform(0.1, 5.0, size=n) if weighted else np.ones(n)
        pts, w = _coalesce(pts, w)
        if pts.shape[0] <= k:
            continue
        merged += pts.shape[0] < n
        got = _kmeanspp(pts, w, k, np.random.default_rng(case))
        want = kmeanspp_reference(pts, w, k, np.random.default_rng(case))
        assert np.array_equal(got, want), (case, n, k, weighted, layout)
        compared += 1
    assert compared >= 200 and merged > 0


def test_kmeanspp_stacked_matches_per_candidate_reference():
    """The lattice above seeded in stacks: every input of one k and one
    coalesced size, each with a reordered copy of itself, in one _kmeanspp
    call, which picks the reference's centers row by row."""
    rng = np.random.default_rng(0)
    reorder = np.random.default_rng(1)
    stacks: dict[tuple[int, int], list] = {}
    cases = itertools.product((1, 2, 7, 64), (False, True),
                              ("uniform", "rounded", "lanes"), range(10))
    for k, weighted, layout, _ in cases:
        pts = _seeding_input(rng, layout, int(rng.integers(65, 3201)))
        n = pts.shape[0]
        w = rng.uniform(0.1, 5.0, size=n) if weighted else np.ones(n)
        pts, w = _coalesce(pts, w)
        if pts.shape[0] <= k:
            continue
        order = reorder.permutation(pts.shape[0])
        stacks.setdefault((k, pts.shape[0]), []).extend(
            [(pts, w), (pts[order], w[order])])
    compared = 0
    for seed, ((k, n), pools) in enumerate(sorted(stacks.items())):
        got = _kmeanspp(np.stack([pts for pts, _ in pools]),
                        np.stack([w for _, w in pools]), k,
                        np.random.default_rng(seed))
        assert got.shape == (len(pools), k, 2)
        for row, (pts, w) in zip(got, pools):
            want = kmeanspp_reference(pts, w, k, np.random.default_rng(seed))
            assert np.array_equal(row, want), (k, n)
            compared += 1
    assert compared >= 400 and max(map(len, stacks.values())) > 2


@pytest.mark.parametrize("sizes, shapes", [
    ((100, 130, 100), [(2, 100, 2), (1, 130, 2)]),
    ((100,) * 33, [(32, 100, 2), (1, 100, 2)]),
], ids=["equal-size", "chunked"])
def test_weighted_kmeans_many_seeds_pools_of_one_size_in_stacks(
        monkeypatch, sizes, shapes):
    """Pools of one coalesced size are seeded together, in order, in
    stacks of at most _SEED_CHUNK, one _kmeanspp call each. Each pool
    still equals its one-pool call. The benchmark times seeding by
    wrapping _kmeanspp, so seeding through any other function would hide
    its time."""
    calls = []
    seed = intention._kmeanspp

    def spy(pts, w, k, rng):
        calls.append(pts)
        return seed(pts, w, k, rng)

    monkeypatch.setattr(intention, "_kmeanspp", spy)
    rng = np.random.default_rng(4)
    pools = [(rng.uniform(-50.0, 50.0, size=(n, 2)), None) for n in sizes]
    cfg = KMeansConfig(k=16)
    got = weighted_kmeans_many(pools, cfg)
    assert [stack.shape for stack in calls] == shapes
    # grouped by size, sizes in first-seen order, pools in order
    by_size = sorted(range(len(sizes)), key=lambda i: sizes.index(sizes[i]))
    for row, i in zip((row for stack in calls for row in stack), by_size):
        assert np.array_equal(row, pools[i][0])
    for out, (pts, _) in zip(got, pools):
        assert np.array_equal(out, weighted_kmeans(pts, None, cfg))


grid_pts =st.lists(st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
                    min_size=65, max_size=400)


@settings(max_examples=50, deadline=None)
@given(grid_pts, st.sampled_from((1, 2, 7, 64)), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_kmeanspp_reference_property(points, k, weighted, seed):
    # coordinates on a 0.1 m grid: duplicates to merge and tied potentials
    pts = np.asarray(points, dtype=float) / 10.0
    n = pts.shape[0]
    w = np.random.default_rng(seed).uniform(0.1, 5.0, size=n) if weighted \
        else np.ones(n)
    pts, w = _coalesce(pts, w)
    assume(pts.shape[0] > k)
    assert np.array_equal(
        _kmeanspp(pts, w, k, np.random.default_rng(seed)),
        kmeanspp_reference(pts, w, k, np.random.default_rng(seed)))


# 0.1 m grid coordinates, with -0.0 among them
grid_coord = st.one_of(st.integers(-30, 30).map(lambda v: v / 10.0),
                       st.just(-0.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(grid_coord, grid_coord), min_size=1, max_size=300),
       st.integers(0, 2 ** 32 - 1))
# no duplicate: the pool comes back as given
@example([(0.1, -0.0), (-0.0, 0.2), (0.3, 0.1), (0.1, 0.5)], 7)
# the only duplicate is -0.0 against 0.0, which still merge
@example([(0.5, 0.0), (-0.0, 1.5), (0.0, 1.5), (2.0, -3.0)], 8)
def test_coalesce_matches_dict_reference(points, seed):
    pts = np.asarray(points, dtype=float)
    w = np.random.default_rng(seed).uniform(0.1, 5.0, size=pts.shape[0])
    got_pts, got_w = _coalesce(pts, w)
    want_pts, want_w = coalesce_reference(pts, w)
    assert np.array_equal(got_pts, want_pts)
    assert np.array_equal(np.signbit(got_pts), np.signbit(want_pts))
    assert np.array_equal(got_w, want_w)


def test_coalesce_sums_weights_left_to_right():
    """A merged weight is the running sum in input order, as the dict
    reference adds it: 1.0 then eight 2**-53 stays 1.0 at every step,
    where numpy's pairwise sum of the same nine weights gives
    1.0000000000000009."""
    w = np.array([1.0] + [2.0 ** -53] * 4 + [3.0] + [2.0 ** -53] * 4)
    pts = np.array([[1.0, 2.0]] * 5 + [[0.0, 0.0]] + [[1.0, 2.0]] * 4)
    got_pts, got_w = _coalesce(pts, w)
    want_pts, want_w = coalesce_reference(pts, w)
    assert np.array_equal(got_pts, want_pts)
    assert got_w.tolist() == want_w.tolist() == [1.0, 3.0]


def _pool(points, weighted, seed):
    pts = np.asarray(points, dtype=float)
    w = np.random.default_rng(seed).uniform(0.1, 5.0, size=pts.shape[0]) \
        if weighted else None
    return pts, w


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.lists(st.tuples(grid_coord, grid_coord),
                                   min_size=1, max_size=150),
                          st.booleans()), min_size=1, max_size=6),
       st.sampled_from((1, 7, 16)), st.integers(0, 2 ** 32 - 1))
def test_weighted_kmeans_many_equals_one_pool_calls(pools, k, seed):
    """Pools of mixed sizes clustered in one call equal one call per pool,
    bit for bit: padded pools (fewer than k distinct points), n == k,
    duplicates and -0.0, weighted and unweighted pools, pools of one size
    seeded together (each pool also comes reversed), and pools of at
    least _BOUND_MIN_POINTS points (bounded Lloyd)."""
    rng = np.random.default_rng(seed)
    big = np.round(_seeding_input(rng, "lanes", 1200), 1)
    args = [_pool(pts, weighted, seed + i)
            for i, (pts, weighted) in enumerate(pools)]
    args += [(pts[::-1], None if w is None else w[::-1]) for pts, w in args]
    args += [(big, None), (big[::-1], rng.uniform(0.1, 5.0, len(big))),
             (np.arange(2.0 * k).reshape(k, 2), None),
             (np.array([[0.0, -0.0], [-0.0, 0.0], [1.0, 2.0]]), None)]
    cfg = KMeansConfig(k=k, seed=seed)
    got = weighted_kmeans_many(args, cfg)
    assert len(got) == len(args)
    assert _coalesce(big, np.ones(len(big)))[0].shape[0] >= _BOUND_MIN_POINTS
    for out, (pts, w) in zip(got, args):
        assert np.array_equal(out, weighted_kmeans(pts, w, cfg))
        assert not out.flags.writeable


def test_weighted_kmeans_many_checks_every_pool():
    good = (np.zeros((3, 2)), None)
    assert weighted_kmeans_many([]) == []
    with pytest.raises(ValueError, match="weights must match points"):
        weighted_kmeans_many([good, (np.zeros((3, 2)), np.ones(2))])
    with pytest.raises(ValueError, match="points must be finite"):
        weighted_kmeans_many([good, (np.array([[0.0, np.nan]]), None)])


def test_weighted_kmeans_many_pulls_one_batch_before_seeding(monkeypatch):
    """Pools are taken from the iterable a batch at a time: at the first
    seeding call exactly one batch has been pulled, and the centers equal
    those of the same pools given as a list."""
    rng = np.random.default_rng(6)
    pools = [(rng.uniform(-50.0, 50.0, size=(n, 2)), None)
             for n in (150, 10, 90, 200, 16, 120, 70)]
    cfg = KMeansConfig(k=16)
    pulled, at_seeding = [], []
    seed = intention._kmeanspp

    def spy(pts, w, k, rng):
        at_seeding.append(len(pulled))
        return seed(pts, w, k, rng)

    def counted():
        for pool in pools:
            pulled.append(pool)
            yield pool

    want = weighted_kmeans_many(pools, cfg)
    monkeypatch.setattr(intention, "_CLUSTER_BLOCK", 3)
    monkeypatch.setattr(intention, "_kmeanspp", spy)
    got = weighted_kmeans_many(counted(), cfg)
    assert at_seeding[0] == 3 and len(pulled) == len(pools)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("weights", [None, "random"])
def test_weighted_kmeans_refuses_pool_whose_potential_overflows(weights):
    """150 points on a 0.01 grid scaled by 1e153: total weight times the
    squared span overflows, so k-means++ potentials could reach inf (which
    gave duplicate seeds); the pool is refused without a numpy warning."""
    rng = np.random.default_rng(3)
    far = np.round(rng.uniform(-1.0, 1.0, size=(150, 2)), 2) * 1e153
    w = None if weights is None else rng.uniform(0.1, 5.0, len(far))
    with pytest.raises(ValueError, match="weighted sums within the float"):
        weighted_kmeans(far, w, KMeansConfig(k=16))
    # and a pool of two points whose weights sum to inf
    with pytest.raises(ValueError, match="weighted sums within the float"):
        weighted_kmeans(far[:2] / 1e153, np.full(2, 1e308))


@pytest.mark.parametrize("n", [100, 2 * _BOUND_MIN_POINTS])
def test_weighted_kmeans_far_from_origin_warns_nothing(n):
    """A pool near x = 1e155 with a span of about 1e152 passes the
    overflow check, but its squared norms overflow, so Lloyd's product
    rows hold inf and NaN and are rebuilt elementwise: the centers are k
    distinct finite points, and numpy prints no warning (tier-1 turns a
    RuntimeWarning into an error)."""
    i = np.arange(n)
    pts = np.column_stack([1e155 + (i % 64) * 1.5e150,
                           (i // 64) * 3e150 + (i % 3) * 1e150])
    assert len(np.unique(pts, axis=0)) == n
    got = weighted_kmeans(pts, None, KMeansConfig())
    assert np.isfinite(got).all()
    assert len(np.unique(got, axis=0)) == KMeansConfig().k


def test_lloyd_matches_whole_block_reference():
    """Lloyd with distance bounds (large pools) and without (small ones)
    ends on bit-identical centers to the elementwise whole-block loop,
    after as many iterations, on lattices with tied distances and on
    random layouts."""
    rng = np.random.default_rng(1)
    sizes = set()
    cases = itertools.product((1, 2, 7, 64), (False, True),
                              ("uniform", "rounded", "lanes"), range(10))
    for case, (k, weighted, layout, _) in enumerate(cases):
        pts = _seeding_input(rng, layout, int(rng.integers(65, 3201)))
        n = pts.shape[0]
        w = rng.uniform(0.1, 5.0, size=n) if weighted else np.ones(n)
        pts, w = _coalesce(pts, w)
        if pts.shape[0] <= k:
            continue
        cfg = KMeansConfig(k=k, seed=case)
        init = _kmeanspp(pts, w, k, np.random.default_rng(case))
        got, got_obj = _lloyd(pts, w, init, cfg)
        want, want_obj = lloyd_reference(pts, w, init, cfg)
        assert np.array_equal(got, want), (case, n, k, weighted, layout)
        assert len(got_obj) == len(want_obj), (case, n, k, weighted, layout)
        sizes.add(pts.shape[0] >= _BOUND_MIN_POINTS)
    assert sizes == {False, True}


def _tie_case(rng, n_side=600):
    """Two mirror-image clusters, a last point on the bisector of their
    means, and start centers near those means: the second Lloyd iteration
    recomputes the last point's row alone, with its two distances tied."""
    off = rng.normal(0.0, 0.3, size=(n_side, 2))
    local = np.concatenate([[-5.0, 0.0] + off, [5.0, 0.0] + off * [-1.0, 1.0],
                            [[-0.2, rng.uniform(-0.5, 0.5)]]])
    th = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(th), -math.sin(th)],
                    [math.sin(th), math.cos(th)]])
    pts = local @ rot.T + rng.uniform(-80.0, 80.0, size=2)
    one = KMeansConfig(k=2, max_iterations=1)
    for _ in range(5):
        c, _ = lloyd_reference(pts, np.ones(len(pts)), pts[[-1, n_side]], one)
        u = (c[1] - c[0]) / np.hypot(*(c[1] - c[0]))
        pts[-1] -= ((pts[-1] - (c[0] + c[1]) / 2.0) @ u) * u
    c, _ = lloyd_reference(pts, np.ones(len(pts)), pts[[-1, n_side]], one)
    c[0] += 0.01 * (pts[-1] - c[0]) / np.hypot(*(pts[-1] - c[0]))
    return pts, c


def _product_rows(pts, centers, rows):
    """Rows ``rows`` of the one product [x, y, pn, 1] @ [-2cx; -2cy; 1; cn],
    built from those rows alone."""
    pn = np.einsum("ij,ij->i", pts, pts)
    cols = np.vstack([-2.0 * centers.T, np.ones(len(centers)),
                      np.einsum("ij,ij->i", centers, centers)])
    return np.column_stack([pts, pn, np.ones(len(pts))])[rows] @ cols


@pytest.mark.parametrize("layout", ["single_row", "first_iteration"])
def test_lloyd_near_tie_follows_elementwise_row(layout):
    """Where the one product orders a near-tied row otherwise than the
    elementwise row of that point, alone or as a row of the whole
    product, Lloyd still follows the elementwise row: the second
    iteration of ``_tie_case``, which recomputes its last row alone, and
    the first iteration of a mirrored start."""
    flipped = 0
    for seed in range(300 if layout == "single_row" else 100):
        rng = np.random.default_rng(seed)
        if layout == "single_row":
            pts, init = _tie_case(rng)
            # the centers of the second iteration, which tie the last row
            c, _ = lloyd_reference(pts, np.ones(len(pts)), init,
                                   KMeansConfig(k=2, max_iterations=1))
            i = len(pts) - 1
        else:
            pts = rng.uniform(-80.0, 80.0, size=(_BOUND_MIN_POINTS + 76, 2))
            v = rng.uniform(-20.0, 20.0, size=2)
            # start centers mirrored about the first point tie its row
            init = c = pts[0] + np.array([v, -v])
            i = 0
        assert len(pts) >= _BOUND_MIN_POINTS
        row = ((pts[i] - c) ** 2).sum(axis=1)
        ordered = {_product_rows(pts, c, [i])[0].argmin(),
                   _product_rows(pts, c, slice(None))[i].argmin()}
        if ordered == {row.argmin()}:
            continue
        flipped += 1
        w = np.ones(len(pts))
        for cfg in (KMeansConfig(k=2, max_iterations=1), KMeansConfig(k=2)):
            got, got_obj = _lloyd(pts, w, init, cfg)
            want, want_obj = lloyd_reference(pts, w, init, cfg)
            assert np.array_equal(got, want), (seed, cfg.max_iterations)
            assert len(got_obj) == len(want_obj), (seed, cfg.max_iterations)
    if not flipped:
        pytest.skip("one-product rows order the tied pair like the "
                    "elementwise rows here")


@pytest.mark.parametrize("n", [200, 2 * _BOUND_MIN_POINTS])
def test_lloyd_matches_reference_when_norms_overflow(n):
    # half the points so far out that their squared norms are inf: the
    # distance block holds inf and NaN, and so do the bounds
    rng = np.random.default_rng(n)
    pts = np.round(rng.uniform(-50.0, 50.0, size=(n, 2)), 1)
    pts[::2] = rng.uniform(-1.0, 1.0, size=(n - n // 2, 2)) * 1e200
    pts, w = _coalesce(pts, np.ones(n))
    init = pts[rng.choice(pts.shape[0], 7, replace=False)]
    cfg = KMeansConfig(k=7, max_iterations=20)
    with np.errstate(all="ignore"):
        got, got_obj = _lloyd(pts, w, init, cfg)
        want, want_obj = lloyd_reference(pts, w, init, cfg)
    assert np.array_equal(got, want, equal_nan=True)
    assert len(got_obj) == len(want_obj)


def test_lloyd_matches_reference_near_overflow():
    """Bounded pools scaled so that squared norms and distances come near
    the largest float, some beyond it: where a block entry could overflow,
    the margin is inf and the row is rebuilt elementwise."""
    rng = np.random.default_rng(5)
    for case in range(40):
        scale = 10.0 ** rng.uniform(150.0, 155.0)
        pts = np.round(rng.uniform(-1.0, 1.0, size=(1200, 2)), 2) * scale
        if case % 2:
            pts[::3] = rng.uniform(-50.0, 50.0, size=pts[::3].shape)
        pts, w = _coalesce(pts, np.ones(len(pts)))
        assert len(pts) >= _BOUND_MIN_POINTS
        k = int(rng.integers(2, 17))
        init = pts[rng.choice(len(pts), k, replace=False)]
        cfg = KMeansConfig(k=k, max_iterations=25)
        with np.errstate(all="ignore"):
            got, got_obj = _lloyd(pts, w, init, cfg)
            want, want_obj = lloyd_reference(pts, w, init, cfg)
        assert np.array_equal(got, want, equal_nan=True), case
        assert len(got_obj) == len(want_obj), case

