import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (coalesce_reference, convex_hull, from_agent_frame,
                      kmeanspp_reference, lloyd_reference, point_in_hull,
                      vehicle_track)
from intentforge.intention import (_BOUND_MIN_POINTS, IntentionPointSet,
                                   KMeansConfig, MixConfig, _coalesce,
                                   _kmeanspp, _lloyd,
                                   dynamic_intents, mixed_intents,
                                   static_intents, to_agent_frame,
                                   weighted_kmeans)
from intentforge.road_graph import ReachabilitySet


def reach_of(positions) -> ReachabilitySet:
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    return ReachabilitySet(np.zeros(n, dtype=np.int64),
                           np.arange(n, dtype=np.int64),
                           positions, np.zeros(n), budget=8.0)


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


# -- static --------------------------------------------------------------------

def test_static_separated_clusters():
    rng = np.random.default_rng(1)
    centers = np.stack(np.meshgrid(np.arange(8) * 20.0,
                                   np.arange(8) * 20.0), axis=-1).reshape(-1, 2)
    endpoints = np.concatenate([c + rng.uniform(-0.5, 0.5, size=(6, 2))
                                for c in centers])
    got = static_intents(endpoints, "vehicle", KMeansConfig(k=64, seed=0))
    assert got.kind == "static" and got.object_class == "vehicle"
    for c in centers:
        inside = (np.abs(got.points - c) <= 0.5).all(axis=1)
        assert inside.sum() == 1


def test_static_padding_from_few_endpoints():
    pts = np.arange(10, dtype=float).reshape(-1, 1) * [1.0, 0.0]
    got = static_intents(pts, "cyclist", KMeansConfig(k=64))
    assert got.points.shape == (64, 2)
    assert {tuple(p) for p in got.points} == {tuple(p) for p in pts}


def test_static_single_endpoint():
    got = static_intents(np.array([[5.0, 7.0]]), "pedestrian")
    assert np.array_equal(got.points, np.tile([5.0, 7.0], (64, 1)))


def test_static_empty_rejected():
    with pytest.raises(ValueError):
        static_intents(np.empty((0, 2)), "vehicle")


# -- dynamic -------------------------------------------------------------------

def test_dynamic_identity_for_64_nodes():
    rng = np.random.default_rng(2)
    nodes = rng.uniform(0, 100, size=(64, 2))
    track = vehicle_track((10.0, 20.0), heading=0.3, speed=8.0)
    got = dynamic_intents(reach_of(nodes), track, KMeansConfig(k=64))
    expected = lex_sorted([to_agent_frame(p, track) for p in nodes])
    assert got.kind == "dynamic"
    assert np.allclose(got.points, expected, atol=1e-12)


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


# -- mixed ---------------------------------------------------------------------

def test_mixed_identical_sets_unchanged():
    rng = np.random.default_rng(3)
    pts = lex_sorted(rng.uniform(-40, 40, size=(64, 2)))
    dyn = IntentionPointSet("dynamic", pts, 64)
    stat = IntentionPointSet("static", pts.copy(), 64)
    for ratio in (1.0, 3.0, 5.0):
        got = mixed_intents(dyn, stat, MixConfig(ratio, 1.0))
        assert np.array_equal(got.points, pts)
        assert got.kind == "mixed"


def test_mixed_ratio_equals_replication():
    rng = np.random.default_rng(4)
    dpts = lex_sorted(rng.uniform(-40, 40, size=(64, 2)))
    spts = lex_sorted(rng.uniform(-40, 40, size=(64, 2)))
    cfg = KMeansConfig(k=64, seed=7)
    mixed = mixed_intents(IntentionPointSet("dynamic", dpts, 64),
                          IntentionPointSet("static", spts, 64),
                          MixConfig(3.0, 1.0), cfg)
    replicated = np.concatenate([np.repeat(dpts, 3, axis=0), spts])
    oracle = weighted_kmeans(replicated, None, cfg)
    assert np.array_equal(mixed.points, oracle)


def test_mixed_k1_closed_form():
    dyn = IntentionPointSet("dynamic", np.array([[8.0, 0.0]]), 1)
    stat = IntentionPointSet("static", np.array([[0.0, 4.0]]), 1)
    got = mixed_intents(dyn, stat, MixConfig(3.0, 1.0), KMeansConfig(k=1))
    assert got.points[0] == pytest.approx([6.0, 1.0])


def test_mixed_requires_one_dynamic_one_static():
    pts = np.zeros((1, 2))
    a = IntentionPointSet("dynamic", pts, 1)
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


grid_pts = st.lists(st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
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
def test_coalesce_matches_dict_reference(points, seed):
    pts = np.asarray(points, dtype=float)
    w = np.random.default_rng(seed).uniform(0.1, 5.0, size=pts.shape[0])
    got_pts, got_w = _coalesce(pts, w)
    want_pts, want_w = coalesce_reference(pts, w)
    assert np.array_equal(got_pts, want_pts)
    assert np.array_equal(np.signbit(got_pts), np.signbit(want_pts))
    assert np.array_equal(got_w, want_w)


def test_lloyd_matches_whole_block_reference():
    """Lloyd with distance bounds (large pools) and without (small ones)
    ends on bit-identical centers to the whole-block loop, after as many
    iterations, on lattices with tied distances and on random layouts."""
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


def test_lloyd_single_row_tie_takes_whole_product_row():
    """Where a one-row product picks another nearest center than the same
    row of the whole product, Lloyd still follows the whole block."""
    flipped = 0
    for seed in range(300):
        pts, init = _tie_case(np.random.default_rng(seed))
        assert len(pts) >= _BOUND_MIN_POINTS
        w = np.ones(len(pts))
        cfg = KMeansConfig(k=2)
        c, _ = lloyd_reference(pts, w, init, KMeansConfig(k=2,
                                                          max_iterations=1))
        pn = np.einsum("ij,ij->i", pts, pts)
        cn = np.einsum("ij,ij->i", c, c)
        whole = (pn[-1] + cn) - 2.0 * (pts @ c.T)[-1]
        alone = (pn[-1] + cn) - 2.0 * (pts[-1:] @ c.T)[0]
        if whole.argmin() == alone.argmin():
            continue
        flipped += 1
        got, _ = _lloyd(pts, w, init, cfg)
        want, _ = lloyd_reference(pts, w, init, cfg)
        assert np.array_equal(got, want), seed
    if not flipped:
        pytest.skip("one-row products equal the whole product's rows here")


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


@pytest.mark.parametrize("kwargs", [
    {"k": 0}, {"k": True}, {"k": 1.5}, {"k": "64"},
    {"max_iterations": 0}, {"max_iterations": 2.0},
    {"tolerance": math.nan}, {"tolerance": math.inf}, {"tolerance": -1e-9},
    {"seed": -1}, {"seed": 1.5},
], ids=lambda kw: "{}={!r}".format(*next(iter(kw.items()))))
def test_kmeans_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        KMeansConfig(**kwargs)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_mix_config_rejects_bad_weights(bad):
    with pytest.raises(ValueError):
        MixConfig(dynamic_weight=bad)
    with pytest.raises(ValueError):
        MixConfig(static_weight=bad)


def test_determinism_over_100_randomized_inputs():
    rng = np.random.default_rng(99)
    for i in range(100):
        pts = rng.uniform(-200, 200, size=(rng.integers(1, 150), 2))
        cfg = KMeansConfig(k=64, seed=i)
        assert np.array_equal(weighted_kmeans(pts, None, cfg),
                              weighted_kmeans(pts, None, cfg))
