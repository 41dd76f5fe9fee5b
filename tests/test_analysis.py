import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (line_nodes, reach_of, scenario_of, seg, stationary_track,
                      vehicle_track)
from intentforge.analysis import (DeviationRecord, PredictionSet, coverage,
                                  detect_parked, deviation_curve, gt_deviation,
                                  min_ade, min_fde, miss_rate, moving_average)
from intentforge.experiments import (FilterReport, RunConfig, _implausible_gt,
                                     filter_dataset, run_scene)
from intentforge.intention import (IntentionPointSet, KMeansConfig,
                                   dynamic_intents, to_agent_frame)
from intentforge.map_model import VectorMap
from intentforge.road_graph import ReachabilitySet


def pred_of(*trajectories, confidences=None) -> PredictionSet:
    traj = np.asarray(trajectories, dtype=float)
    if confidences is None:
        confidences = np.full(traj.shape[0], 1.0 / traj.shape[0])
    return PredictionSet(traj, np.asarray(confidences))


def gt_modes(track, *offsets):
    """One mode per offset, each the GT future shifted by a constant."""
    return [track.future_xy + np.asarray(off, dtype=float) for off in offsets]


# -- min_fde / min_ade ---------------------------------------------------------

def test_min_fde_exact_mode():
    track = vehicle_track((0, 0), speed=6.0)
    pred = pred_of(*gt_modes(track, (0, 0), (5, 5)))
    for horizon in (3, 5, 8):
        assert min_fde(pred, track, horizon) == 0.0


def test_min_fde_picks_best_mode():
    track = vehicle_track((0, 0), speed=6.0)
    pred = pred_of(*gt_modes(track, (0, 3.0), (0, 1.0)))
    assert min_fde(pred, track, 8) == pytest.approx(1.0)


def test_min_fde_invalid_horizon_state():
    valid = np.ones(80, dtype=bool)
    valid[79] = False
    track = vehicle_track((0, 0), speed=6.0, future_valid=valid)
    pred = pred_of(*gt_modes(track, (0, 0)))
    with pytest.raises(ValueError):
        min_fde(pred, track, 8)
    assert min_fde(pred, track, 5) == 0.0


@pytest.mark.parametrize("where", ["trajectory", "confidence"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_prediction_set_rejects_non_finite(where, bad):
    traj = np.zeros((2, 80, 2))
    conf = np.array([0.5, 0.25])
    if where == "trajectory":
        traj[1, 40, 0] = bad
    else:
        conf[1] = bad
    with pytest.raises(ValueError, match="finite"):
        PredictionSet(traj, conf)


@pytest.mark.parametrize("shape, confidences, message", [
    ((2, 79, 2), [0.5, 0.5], r"trajectories must have shape \(m, 80, 2\)"),
    ((2, 80, 3), [0.5, 0.5], r"trajectories must have shape \(m, 80, 2\)"),
    ((0, 80, 2), [], "need 1..6 modes, got 0"),
    ((7, 80, 2), [0.1] * 7, "need 1..6 modes, got 7"),
    ((2, 80, 2), [0.5], "one confidence per mode required"),
    ((1, 80, 2), [1.5], r"confidences must lie in \[0, 1\]"),
    ((2, 80, 2), [0.5, -0.1], r"confidences must lie in \[0, 1\]"),
    ((2, 80, 2), [0.6, 0.6], "confidences must sum to <= 1"),
], ids=["short_trajectory", "three_coordinates", "no_mode", "seven_modes",
        "one_confidence_for_two_modes", "confidence_above_1",
        "negative_confidence", "confidences_sum_above_1"])
def test_prediction_set_refusals(shape, confidences, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        PredictionSet(np.zeros(shape), np.asarray(confidences))


def test_min_fde_matches_exhaustive_scan():
    rng = np.random.default_rng(0)
    track = vehicle_track((0, 0), speed=6.0)
    for _ in range(20):
        modes = rng.uniform(-50, 50, size=(6, 80, 2))
        pred = PredictionSet(modes, np.full(6, 1 / 6))
        for horizon, step in ((3, 29), (5, 49), (8, 79)):
            gt_pos = track.future_xy[step]
            expected = min(float(np.hypot(*(modes[m, step] - gt_pos)))
                           for m in range(6))
            assert min_fde(pred, track, horizon) == pytest.approx(expected)


def test_min_ade_exact_mode():
    track = vehicle_track((0, 0), speed=6.0)
    assert min_ade(pred_of(*gt_modes(track, (0, 0))), track, 8) == 0.0


def test_min_ade_constant_offset():
    track = vehicle_track((0, 0), speed=6.0)
    pred = pred_of(*gt_modes(track, (0, 2.0)))
    assert min_ade(pred, track, 8) == pytest.approx(2.0)


def test_min_ade_matches_exhaustive_scan():
    rng = np.random.default_rng(1)
    valid = rng.random(80) > 0.2
    valid[79] = True
    track = vehicle_track((0, 0), speed=6.0, future_valid=valid)
    modes = rng.uniform(-50, 50, size=(4, 80, 2))
    pred = PredictionSet(modes, np.full(4, 0.25))
    for horizon, step in ((3, 29), (5, 49), (8, 79)):
        per_mode = []
        for m in range(4):
            disp = [float(np.hypot(*(modes[m, i] - track.future_xy[i])))
                    for i in range(step + 1) if valid[i]]
            per_mode.append(sum(disp) / len(disp))
        assert min_ade(pred, track, horizon) == pytest.approx(min(per_mode))


def test_min_ade_bounded_by_argmin_mode_max_step():
    rng = np.random.default_rng(2)
    track = vehicle_track((0, 0), speed=6.0)
    for _ in range(20):
        modes = rng.uniform(-30, 30, size=(3, 80, 2))
        pred = PredictionSet(modes, np.full(3, 1 / 3))
        ade = min_ade(pred, track, 8)
        best = np.argmin([
            np.hypot(*(modes[m] - track.future_xy).T).mean()
            for m in range(3)])
        max_step = float(np.hypot(*(modes[best] - track.future_xy).T).max())
        assert ade <= max_step + 1e-12


# -- miss_rate -------------------------------------------------------------------

def test_miss_rate_hit_on_exact_endpoint():
    track = vehicle_track((0, 0), speed=6.0)
    assert miss_rate(pred_of(*gt_modes(track, (0, 0))), track, 8) == 0


def test_miss_rate_all_far():
    track = vehicle_track((0, 0), speed=6.0)
    pred = pred_of(*gt_modes(track, (50, 0), (0, 50)))
    assert miss_rate(pred, track, 8) == 1


def test_miss_rate_boundary_inclusive():
    # heading 0, speed 20 (scale 1): lateral threshold at 8 s is 3.0 m
    track = vehicle_track((0, 0), heading=0.0, speed=20.0)
    on_edge = pred_of(*gt_modes(track, (0.0, 3.0)))
    beyond = pred_of(*gt_modes(track, (0.0, 3.0000001)))
    assert miss_rate(on_edge, track, 8) == 0
    assert miss_rate(beyond, track, 8) == 1


def test_miss_rate_speed_scaling():
    # slow agent (scale 0.5): 8 s lateral threshold shrinks to 1.5 m
    slow = vehicle_track((0, 0), heading=0.0, speed=1.0)
    pred = pred_of(*gt_modes(slow, (0.0, 2.0)))
    assert miss_rate(pred, slow, 8) == 1
    fast = vehicle_track((0, 0), heading=0.0, speed=20.0)
    pred = pred_of(*gt_modes(fast, (0.0, 2.0)))
    assert miss_rate(pred, fast, 8) == 0


# -- gt_deviation ----------------------------------------------------------------

def lane_reach(length=50.0):
    xs = np.arange(0, length + 0.25, 0.5)
    return reach_of(np.stack([xs, np.zeros_like(xs)], axis=1))


def endpoint_track(endpoint, start=(0.0, 0.0)):
    future = np.linspace(start, endpoint, 80)
    return vehicle_track(start, speed=6.0, future_xy=future)


def test_gt_deviation_zero_on_node():
    track = endpoint_track((10.0, 0.0))
    assert gt_deviation(track, lane_reach(), "node") == 0.0
    assert gt_deviation(track, lane_reach(), "polyline") == 0.0


def test_gt_deviation_perpendicular_offset():
    track = endpoint_track((10.25, 2.5))
    node_d = gt_deviation(track, lane_reach(), "node")
    poly_d = gt_deviation(track, lane_reach(), "polyline")
    assert 2.5 <= node_d <= 2.5125
    assert node_d == pytest.approx(math.hypot(2.5, 0.25))
    assert poly_d == pytest.approx(2.5)


def test_gt_deviation_matches_linear_scan():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-40, 40, size=(150, 2))
    rset = reach_of(pts)
    for _ in range(30):
        endpoint = rng.uniform(-60, 60, 2)
        track = endpoint_track(endpoint)
        expected = float(np.hypot(*(pts - endpoint).T).min())
        assert gt_deviation(track, rset, "node") == expected


def test_gt_deviation_isolated_nodes_polyline():
    # non-consecutive node indices: polyline mode degrades to points
    rset = ReachabilitySet(np.zeros(2, dtype=np.int64),
                           np.array([0, 5], dtype=np.int64),
                           np.array([[0.0, 0.0], [10.0, 0.0]]),
                           np.zeros(2))
    track = endpoint_track((5.0, 1.0))
    assert gt_deviation(track, rset, "polyline") == pytest.approx(
        math.hypot(5.0, 1.0))


def test_gt_deviation_requires_valid_endpoint():
    valid = np.ones(80, dtype=bool)
    valid[79] = False
    track = vehicle_track((0, 0), speed=6.0, future_valid=valid)
    with pytest.raises(ValueError):
        gt_deviation(track, lane_reach(), "node")


# -- detect_parked ---------------------------------------------------------------

def test_parked_zero_motion():
    assert detect_parked(stationary_track((5.0, 5.0))) is True


def test_parked_moving_vehicle():
    assert detect_parked(vehicle_track((0, 0), speed=10.0)) is False


def test_parked_boundary_creep():
    future = np.stack([np.linspace(0, 0.99, 80), np.zeros(80)], axis=1)
    track = vehicle_track((0, 0), speed=0.0, future_xy=future)
    assert detect_parked(track) is True


# -- filter_dataset ---------------------------------------------------------------

def make_filter_scenario():
    vm = VectorMap([seg(0, line_nodes((-50, 0), (150, 0)))])
    tracks = []
    # 6 clean vehicles
    for i in range(6):
        tracks.append(vehicle_track((i * 2.0, 0.0), speed=8.0,
                                    agent_id=f"veh{i}"))
    # 4 pedestrians
    for i in range(4):
        tracks.append(vehicle_track((i * 2.0, 0.0), speed=1.5,
                                    agent_id=f"ped{i}",
                                    object_class="pedestrian"))
    # 3 vehicles far off-road (6 m): no association
    for i in range(3):
        tracks.append(vehicle_track((i * 2.0, 6.0), speed=8.0,
                                    agent_id=f"off{i}"))
    # 4 vehicles with an invalid 8 s endpoint
    bad_end = np.ones(80, dtype=bool)
    bad_end[79] = False
    for i in range(4):
        tracks.append(vehicle_track((i * 2.0, 0.0), speed=8.0,
                                    agent_id=f"inv{i}", future_valid=bad_end))
    # 3 vehicles teleporting (> 60 m/s between steps)
    for i in range(3):
        future = np.stack([np.linspace(0.6, 48, 80), np.zeros(80)], axis=1)
        future[40:, 0] += 50.0
        tracks.append(vehicle_track((i * 2.0, 0.0), speed=8.0,
                                    agent_id=f"jump{i}", future_xy=future))
    return scenario_of(vm, tracks)


def test_filter_counts_match_hand_enumeration():
    scenario = make_filter_scenario()
    items, report = filter_dataset([scenario])
    assert report == FilterReport(total=20, excluded_non_vehicle=4,
                                  excluded_no_dynamic=3,
                                  excluded_invalid_gt=7, remaining=6)
    assert report.consistent()
    assert sorted(it.track.agent_id for it in items) == [
        f"veh{i}" for i in range(6)]
    reach_sets = {track.agent_id: reach_set
                  for track, _, reach_set in run_scene(scenario)}
    for mode in ("node", "polyline"):
        cfg = RunConfig(deviation_mode=mode)
        for track, dyn, deviation, parked in filter_dataset([scenario],
                                                            cfg)[0]:
            reach_set = reach_sets[track.agent_id]
            assert reach_set.arrival_times[0] == 0.0
            assert deviation == gt_deviation(track, reach_set, mode)
            assert parked is detect_parked(track) is False
            assert np.array_equal(dyn.points,
                                  dynamic_intents(reach_set, track).points)


# -- moving_average ----------------------------------------------------------------

def test_moving_average_constant():
    got = moving_average(np.full(10, 4.2), 3)
    assert got == pytest.approx(np.full(8, 4.2))


def test_moving_average_window_one_identity():
    x = np.array([3.0, -1.0, 7.5])
    assert np.array_equal(moving_average(x, 1), x)


def test_moving_average_hand_example():
    assert moving_average([1, 2, 3, 4], 2) == pytest.approx([1.5, 2.5, 3.5])


def test_moving_average_window_too_large():
    with pytest.raises(ValueError):
        moving_average([1.0, 2.0], 3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60),
       st.floats(-100, 100))
def test_moving_average_constant_shift(values, c):
    x = np.asarray(values)
    w = max(1, len(values) // 2)
    shifted = moving_average(x + c, w)
    assert shifted == pytest.approx(moving_average(x, w) + c, abs=1e-8)


def test_moving_average_matches_naive():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        w = int(rng.integers(1, n + 1))
        x = rng.uniform(-100, 100, n)
        naive = np.array([x[i:i + w].mean() for i in range(n - w + 1)])
        assert moving_average(x, w) == pytest.approx(naive, abs=1e-9)


# -- deviation_curve ----------------------------------------------------------------

def rec(aid, dev, fde, parked=False, model="m"):
    if isinstance(fde, dict):
        return DeviationRecord(aid, dev, fde, parked)
    return DeviationRecord(aid, dev, {model: fde}, parked)


def test_curve_flat_for_constant_fde():
    records = [rec(f"a{i}", 0.0, 2.5) for i in range(10)]
    models, rows = deviation_curve(records, 4)
    assert models == ["m"]
    assert len(rows) == 7
    assert all(row[2] == pytest.approx(2.5) for row in rows)


def test_curve_preserves_constant_gap():
    rng = np.random.default_rng(4)
    records = []
    for i in range(40):
        base = float(rng.uniform(0.5, 4.0))
        records.append(rec(f"a{i}", float(rng.uniform(0, 10)),
                           {"a": base, "b": base - 0.2}))
    models, rows = deviation_curve(records, 7)
    assert models == ["a", "b"]
    for _, _, fa, fb in rows:
        assert fa - fb == pytest.approx(0.2)


def test_curve_matches_naive_oracle():
    rng = np.random.default_rng(5)
    records = [rec(f"a{i:03d}", float(rng.uniform(0, 8)),
                   float(rng.uniform(0, 5))) for i in range(60)]
    window = 3
    _, rows = deviation_curve(records, window)
    ordered = sorted(records, key=lambda r: (r.deviation, r.agent_id))
    for out_i, (rank, dev, fde) in enumerate(rows):
        chunk = ordered[out_i:out_i + window]
        assert rank == out_i + window - 1
        assert dev == ordered[rank].deviation
        assert fde == pytest.approx(
            sum(r.min_fde_8s["m"] for r in chunk) / window)


def test_curve_window_too_large():
    with pytest.raises(ValueError):
        deviation_curve([rec("a0", 0.0, 1.0)], 2)


# -- coverage -----------------------------------------------------------------------

def test_coverage_exact_hit():
    pts = np.array([[0.0, 0.0], [5.0, 5.0]])
    assert coverage(pts, (5.0, 5.0)) == 0.0


def test_coverage_nearest_point():
    pts = np.array([[99.0, 0.0], [0.0, 0.0]])
    assert coverage(pts, (100.0, 0.0)) == pytest.approx(1.0)


def test_coverage_matches_linear_scan():
    rng = np.random.default_rng(6)
    for _ in range(20):
        pts = rng.uniform(-50, 50, size=(64, 2))
        p = rng.uniform(-80, 80, 2)
        expected = min(float(np.hypot(*(q - p))) for q in pts)
        assert coverage(pts, p) == pytest.approx(expected)


def test_dynamic_coverage_bounded_by_cluster_radius():
    """On-graph endpoints are covered within the widest K-means cluster."""
    rng = np.random.default_rng(7)
    xs = np.arange(0, 160, 0.5)
    nodes = np.stack([xs, np.zeros_like(xs)], axis=1)
    rset = reach_of(nodes)
    track = vehicle_track((0.0, 0.0), speed=10.0)
    dyn = dynamic_intents(rset, track, KMeansConfig(k=16, seed=0))
    local = np.array([to_agent_frame(p, track) for p in nodes])
    d = np.hypot(*(local[:, None, :] - dyn.points[None, :, :]).T).T
    max_radius = float(d.min(axis=1).max())
    for _ in range(20):
        endpoint = nodes[rng.integers(len(nodes))]
        cov = coverage(dyn.points, to_agent_frame(endpoint, track))
        assert cov <= max_radius + 1e-9


# -- refusals -------------------------------------------------------------------------

def _moving_pred():
    track = vehicle_track((0, 0), speed=6.0)
    return pred_of(*gt_modes(track, (0, 0))), track


def _valid_from(step):
    """A straight track whose future is valid only from ``step`` on."""
    valid = np.arange(80) >= step
    return vehicle_track((0, 0), speed=6.0, future_valid=valid)


HORIZON_MESSAGE = "horizon must be one of 3, 5, 8 (seconds)"


@pytest.mark.parametrize("call, message", [
    (lambda: min_fde(*_moving_pred(), 4), HORIZON_MESSAGE),
    (lambda: min_ade(*_moving_pred(), 4), HORIZON_MESSAGE),
    (lambda: miss_rate(*_moving_pred(), 4), HORIZON_MESSAGE),
    (lambda: min_ade(pred_of(*gt_modes(_valid_from(30), (0, 0))),
                     _valid_from(30), 3),
     "no valid ground-truth step up to the horizon"),
    (lambda: gt_deviation(endpoint_track((1.0, 0.0)),
                          reach_of(np.empty((0, 2)))),
     "empty reachability set"),
    (lambda: gt_deviation(endpoint_track((1.0, 0.0)), lane_reach(), "edge"),
     "mode must be one of ('node', 'polyline')"),
    (lambda: moving_average(np.zeros((2, 2)), 1),
     "values must be one-dimensional"),
    (lambda: DeviationRecord("a", -1.0), "deviation must be >= 0"),
    (lambda: deviation_curve([], 1), "no records to analyze"),
    (lambda: deviation_curve([rec("a0", 0.0, 1.0, model="m"),
                              rec("a1", 1.0, 1.0, model="n")], 1),
     "records disagree on the model set"),
    (lambda: IntentionPointSet("anchor", np.zeros((1, 2))),
     "kind must be one of ('static', 'dynamic', 'mixed')"),
    (lambda: IntentionPointSet("static", np.zeros(2)),
     "need a non-empty (n, 2) array, got (2,)"),
    (lambda: IntentionPointSet("static", np.zeros((0, 2))),
     "need a non-empty (n, 2) array, got (0, 2)"),
    (lambda: IntentionPointSet("static", [[0.0, math.nan]]),
     "intention points must be finite"),
], ids=["min_fde_horizon_4", "min_ade_horizon_4", "miss_rate_horizon_4",
        "min_ade_no_valid_step", "gt_deviation_empty_reach",
        "gt_deviation_unknown_mode", "moving_average_2d",
        "negative_deviation", "curve_no_records", "curve_model_sets_differ",
        "points_unknown_kind", "points_not_n_by_2", "points_empty",
        "points_non_finite"])
def test_analysis_refusal_raises_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_gt_jump_beyond_float_range_is_implausible():
    # its step speed overflows to inf, which the filter drops in silence
    future = np.stack([np.linspace(0.6, 48, 80), np.zeros(80)], axis=1)
    future[40:, 0] += 1e308
    assert _implausible_gt(vehicle_track((0.0, 0.0), future_xy=future))


def test_track_with_one_valid_future_step_is_parked_and_kept():
    # the < 2 samples branch of detect_parked and _implausible_gt
    track = _valid_from(79)
    assert detect_parked(track) is True
    assert _implausible_gt(track) is False
    vm = VectorMap([seg(0, line_nodes((-50, 0), (150, 0)))])
    items, report = filter_dataset([scenario_of(vm, [track])])
    assert report == FilterReport(total=1, remaining=1)
    assert [(it.track.agent_id, it.parked) for it in items] == [("a0", True)]
