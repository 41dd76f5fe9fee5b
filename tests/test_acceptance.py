"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py`.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import (convex_hull, graph_adjacency, line_nodes,
                      parallel_lanes, point_in_hull, random_road_graph,
                      reach_oracle, vehicle_track)
from test_cli import perfect_predictions, write_suite

from intentforge.analysis import (DeviationRecord, deviation_curve,
                                  gt_deviation, moving_average)
from intentforge.cli import main as cli_main
from intentforge.experiments import coverage_proxy, filter_dataset, run_scene
from intentforge.intention import (KMeansConfig, _coalesce, _kmeanspp,
                                   _lloyd, dynamic_intents, weighted_kmeans)
from intentforge.lane_assoc import AssocConfig, associate
from intentforge.map_model import HISTORY_LEN, LaneSegment, VectorMap
from intentforge.road_graph import (GraphConfig, build_graph, reach,
                                    travel_time)
from intentforge.scenario_gen import GenSpec, generate, iter_suite

REPO = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {desc}")
        raise
    print(f"[PASS] criterion {n}: {desc}")


def nearest_on(vmap, sid, point):
    nodes = vmap.segments[sid].nodes
    d = np.hypot(*(nodes - np.asarray(point)).T)
    i = int(d.argmin())
    return (sid, i, float(d[i]))


def test_criterion_1_edge_case_conformance():
    with criterion(1, "Fig.-3 edge cases: wrong lane with gates disabled, "
                      "correct lane with defaults, < 1 s"):
        crossing = generate(GenSpec("intersection_4way", seed=0,
                                    agent_behavior="corner_cut"))
        parking = generate(GenSpec("parking_adjacent", seed=0,
                                   agent_behavior="offroad_parking"))
        split = generate(GenSpec("uturn_split", seed=0,
                                 agent_behavior="corner_cut"))
        t0 = time.perf_counter()

        # (a) heading alignment: nearest node lies on the orthogonal lane
        vm, track = crossing.vector_map, crossing.track(
            crossing.tracks_to_predict[0])
        p = track.states[HISTORY_LEN - 1, :2]
        wrong = associate(vm, track, AssocConfig(heading_threshold=math.pi))
        assert wrong.candidates[0] == nearest_on(vm, 4, p)  # crossing lane
        good = associate(vm, track)
        assert good.candidates == (nearest_on(vm, 1, p),)   # own lane

        # (b) proximity limit: off-road vehicle must fall back
        vm, track = parking.vector_map, parking.track(
            parking.tracks_to_predict[0])
        wrong = associate(vm, track, AssocConfig(proximity_limit=1e6))
        assert not wrong.fallback
        assert wrong.candidates[0][2] == pytest.approx(6.0, abs=1e-6)
        assert associate(vm, track).fallback

        # (c) backwards look: both diverging branches become candidates
        vm, track = split.vector_map, split.track(split.tracks_to_predict[0])
        p = track.states[HISTORY_LEN - 1, :2]
        u_node, l_node = nearest_on(vm, 1, p), nearest_on(vm, 2, p)
        wrong = associate(vm, track, AssocConfig(backwards_look=1e-9))
        assert wrong.candidates == (u_node,)
        good = associate(vm, track)
        assert set(good.candidates) == {u_node, l_node}

        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_reachability_oracle_equivalence():
    with criterion(2, "200 random graphs <= 200 nodes: Dijkstra equals "
                      "path-enumeration oracle within 1e-9 s, < 60 s"):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(2, 201))
            graph = random_road_graph(rng, n)
            k = int(rng.integers(1, min(4, n) + 1))
            starts = sorted(rng.choice(n, size=k, replace=False).tolist())
            budget = float(rng.uniform(0.3, 4.0))
            got = reach(graph, _assoc(starts), GraphConfig(time_budget=budget))
            expected = reach_oracle(graph_adjacency(graph), starts, budget)
            assert {int(i) for i in got.node_indices} == set(expected)
            for ni, t in zip(got.node_indices, got.arrival_times):
                assert abs(t - expected[int(ni)]) <= 1e-9
        assert time.perf_counter() - t0 < 60.0


def _assoc(node_indices):
    from intentforge.lane_assoc import AssociationResult
    return AssociationResult(tuple((0, i, 0.0) for i in node_indices))


def test_criterion_3_closed_form_reach_horizon():
    with criterion(3, "straight lane, 30 mph + 15 mph over 8 s reaches "
                      "160.93 m +- 0.5 m of arc"):
        vm = VectorMap([LaneSegment(0, line_nodes((0, 0), (200, 0)), 13.4112)])
        graph = build_graph(vm)
        got = reach(graph, _assoc([0]),
                    GraphConfig(time_budget=8.0, speed_offset=6.7056))
        max_arc = 0.5 * float(got.node_indices.max())
        assert abs(max_arc - 160.93) <= 0.5
        assert travel_time(100.584, 13.4112) == pytest.approx(5.0, abs=1e-12)


def test_criterion_4_kmeans_properties():
    with criterion(4, "K-means: 3:1 replication bit-identical, hull "
                      "containment, objective descent, k=64, determinism "
                      "over 100 inputs"):
        rng = np.random.default_rng(4)

        # 3:1 weighting equals 3x replication, bit for bit
        for trial in range(10):
            dyn = rng.uniform(-60, 60, size=(64, 2))
            stat = rng.uniform(-60, 60, size=(64, 2))
            pool = np.concatenate([dyn, stat])
            weights = np.concatenate([np.full(64, 3.0), np.ones(64)])
            cfg = KMeansConfig(k=64, seed=trial)
            weighted = weighted_kmeans(pool, weights, cfg)
            replicated = weighted_kmeans(
                np.concatenate([np.repeat(dyn, 3, axis=0), stat]), None, cfg)
            assert np.array_equal(weighted, replicated)

        # hull containment + exact cardinality
        for trial in range(20):
            pts = rng.uniform(-100, 100, size=(int(rng.integers(1, 300)), 2))
            out = weighted_kmeans(pts, None, KMeansConfig(k=64, seed=trial))
            assert out.shape == (64, 2)
            hull = convex_hull(pts)
            assert all(point_in_hull(c, hull, eps=1e-6) for c in out)

        # weighted within-cluster sum of squares never increases
        for trial in range(10):
            pts, _ = _coalesce(rng.uniform(-80, 80, size=(300, 2)),
                               np.ones(300))
            w = rng.uniform(0.5, 4.0, size=pts.shape[0])
            init = _kmeanspp(pts, w, 64, np.random.default_rng(trial))
            _, objectives = _lloyd(pts, w, init, KMeansConfig(k=64))
            for prev, cur in zip(objectives, objectives[1:]):
                assert cur <= prev * (1 + 1e-9) + 1e-9

        # fixed-seed determinism across 100 randomized inputs
        for i in range(100):
            pts = rng.uniform(-200, 200, size=(int(rng.integers(1, 200)), 2))
            cfg = KMeansConfig(k=64, seed=i)
            assert np.array_equal(weighted_kmeans(pts, None, cfg),
                                  weighted_kmeans(pts, None, cfg))


def test_criterion_5_mixed_ratio_harness(tmp_path):
    with criterion(5, "ratio harness: 1:1 / 3:1 / 5:1 coverage table over "
                      "500 scenes, deterministic three-row output"):
        script = REPO / "scripts" / "ratio_harness.py"
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            res = subprocess.run(
                [sys.executable, str(script), "--scenes", "500", "--seed",
                 "0", "--ratios", "1", "3", "5", "-o", str(out)],
                cwd=REPO, capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().strip().splitlines()
        assert lines[0] == "ratio,scenes,mean_coverage_m"
        assert len(lines) == 4
        assert [ln.split(",")[0] for ln in lines[1:]] == ["1:1", "3:1", "5:1"]


def test_criterion_6_coverage_proxy():
    with criterion(6, "1,000 on-graph scenes: mean dynamic < mean static "
                      "coverage; mixed <= max+1 m in >= 95%; < 5 min"):
        t0 = time.perf_counter()
        res = coverage_proxy(1000, seed=0)
        elapsed = time.perf_counter() - t0
        stat, dyn, mixed = res["static"], res["dynamic"], res["mixed"]
        assert len(stat) + res["skipped"] == 1000
        assert dyn.mean() < stat.mean()
        within = mixed <= np.maximum(stat, dyn) + 1.0
        assert within.mean() >= 0.95
        assert elapsed < 300.0


def test_criterion_7_analysis_pipeline():
    with criterion(7, "moving average equals naive oracle on 1,000 "
                      "sequences; 10,000-record curve with window 7,500 "
                      "matches oracle in < 10 s; filter counts sum"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 120))
            w = int(rng.integers(1, n + 1))
            x = rng.uniform(-50, 50, n)
            naive = np.array([np.mean(x[i:i + w]) for i in range(n - w + 1)])
            assert np.allclose(moving_average(x, w), naive,
                               rtol=1e-9, atol=1e-9)

        records = [DeviationRecord(f"a{i:05d}", float(rng.uniform(0, 6)),
                                   {"m": float(rng.uniform(0, 5))},
                                   bool(rng.random() < 0.1))
                   for i in range(10_000)]
        t0 = time.perf_counter()
        models, rows = deviation_curve(records, 7500)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        assert models == ["m"] and len(rows) == 10_000 - 7500 + 1
        ordered = sorted(records, key=lambda r: (r.deviation, r.agent_id))
        probe = rng.integers(0, len(rows), size=25)
        for i in probe:
            rank, dev, fde = rows[int(i)]
            assert rank == int(i) + 7499
            assert dev == ordered[rank].deviation
            naive = np.mean([r.min_fde_8s["m"]
                             for r in ordered[int(i):int(i) + 7500]])
            assert fde == pytest.approx(naive, rel=1e-9, abs=1e-9)

        from test_analysis import make_filter_scenario
        _, report = filter_dataset([make_filter_scenario()])
        assert report.consistent() and report.total == 20


def test_criterion_8_deviation_mode_bound():
    with criterion(8, "polyline deviation <= node deviation <= polyline "
                      "+ 0.25 m on every test scene"):
        scenes = [generate(GenSpec("intersection_4way", seed=0,
                                   agent_behavior="corner_cut")),
                  generate(GenSpec("uturn_split", seed=0,
                                   agent_behavior="corner_cut"))]
        scenes += iter_suite(40, seed=8)
        checked = 0
        for scenario in scenes:
            track = scenario.track(scenario.tracks_to_predict[0])
            if track.gt_endpoint() is None:
                continue
            _, _, rset = run_scene(scenario)[0]
            if rset is None:
                continue
            node_d = gt_deviation(track, rset, "node")
            poly_d = gt_deviation(track, rset, "polyline")
            assert poly_d <= node_d + 1e-9
            assert node_d <= poly_d + 0.25 + 1e-9
            checked += 1
        assert checked >= 30


def test_criterion_9_performance_budget():
    with criterion(9, "dynamic intents for one agent on a 10,000-node map "
                      "< 100 ms median; 8-agent scene pipeline < 1 s"):
        vmap = parallel_lanes(10, 1000)
        assert vmap.n_nodes == 10_000
        graph = build_graph(vmap)
        track = vehicle_track((250.0, 17.5), heading=0.0, speed=10.0)
        samples = []
        for _ in range(7):
            t0 = time.perf_counter()
            assoc = associate(vmap, track)
            rset = reach(graph, assoc)
            dynamic_intents(rset, track)
            samples.append(time.perf_counter() - t0)
        samples.sort()
        assert samples[len(samples) // 2] < 0.1

        t0 = time.perf_counter()
        scene_graph = build_graph(vmap)
        for j in range(8):
            agent = vehicle_track((100.0 + 40 * j, 3.5 * (j % 10)),
                                  heading=0.0, speed=10.0)
            assoc = associate(vmap, agent)
            rset = reach(scene_graph, assoc)
            dynamic_intents(rset, agent)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "every CLI command rerun with identical inputs and "
                       "seed emits byte-identical files"):
        scenes, suite = write_suite(tmp_path, n=10, seed=0,
                                    behaviors=("follow_lane", "corner_cut"))
        pred = perfect_predictions(tmp_path, suite, "m")

        def run_all(tag):
            root = tmp_path / tag
            root.mkdir()
            assert cli_main(["gen", "--suite", "6", "--seed", "5",
                             "-o", str(root / "gen")]) == 0
            blobs = {f"gen/{f.name}": f.read_bytes()
                     for f in sorted((root / "gen").glob("*.json"))}
            for kind in ("static", "dynamic", "mixed"):
                out = root / f"{kind}.csv"
                assert cli_main(["intents", str(scenes), "--kind", kind,
                                 "-o", str(out)]) == 0
                blobs[f"{kind}.csv"] = out.read_bytes()
            assert cli_main(["analyze", str(scenes), "--predictions",
                             f"m={pred}", "--window", "4",
                             "-o", str(root / "an")]) == 0
            for f in ("deviation_curve.csv", "filter_report.csv",
                      "coverage.csv"):
                blobs[f"an/{f}"] = (root / "an" / f).read_bytes()
            out = root / "rg.csv"
            assert cli_main(["dump-roadgraph", str(scenes),
                             "-o", str(out)]) == 0
            blobs["rg.csv"] = out.read_bytes()
            return blobs

        first = run_all("one")
        second = run_all("two")
        assert first.keys() == second.keys()
        for key in first:
            assert first[key] == second[key], f"{key} differs between runs"
