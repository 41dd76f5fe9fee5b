import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from intentforge import experiments
from intentforge.analysis import coverage
from intentforge.experiments import (INTENT_KINDS, RunConfig,
                                     agent_frame_endpoint, filter_dataset,
                                     intent_coverage, pooled_static)
from intentforge.intention import MixConfig, dynamic_intents, mixed_intents
from intentforge.map_model import parse_scenario, write_scenario
from intentforge.scenario_gen import generate_suite

REPO = Path(__file__).resolve().parent.parent


def with_gt_jump(scenario):
    """The scenario with future step 40 of its first target moved 100 m:
    GT speed exceeds 60 m/s while the endpoint and history stay valid."""
    obj = json.loads(write_scenario(scenario))
    aid = scenario.tracks_to_predict[0]
    track = next(t for t in obj["tracks"] if t["agent_id"] == aid)
    track["future"][40][1] += 100.0
    return parse_scenario(json.dumps(obj).encode())


def test_intent_coverage_order_matches_direct_calls():
    suite = generate_suite(3, seed=0, behaviors=("follow_lane",))
    items, _ = filter_dataset(suite)
    static_set = pooled_static(suite)
    cfg = RunConfig()
    m1, m2 = MixConfig(1.0, 1.0), MixConfig(5.0, 1.0)
    assert len(items) == 3
    for it in items:
        endpoint = agent_frame_endpoint(it.track)
        dyn = dynamic_intents(it.reach_set, it.track, cfg.kmeans)
        mixed = [coverage(mixed_intents(dyn, static_set, m, cfg.kmeans),
                          endpoint) for m in (m1, m2, cfg.mix)]
        base = [coverage(static_set, endpoint), coverage(dyn, endpoint)]
        assert intent_coverage(it.track, it.reach_set, static_set, cfg,
                               mixes=[m1, m2]) == base + mixed[:2]
        assert intent_coverage(it.track, it.reach_set, static_set,
                               cfg) == base + mixed[2:]


def test_coverage_proxy_skips_what_filter_dataset_excludes(monkeypatch):
    suite = generate_suite(2, seed=0, behaviors=("follow_lane",))
    suite[1] = with_gt_jump(suite[1])
    track = suite[1].track(suite[1].tracks_to_predict[0])
    assert track.gt_endpoint() is not None
    assert experiments.run_scene(suite[1])[0].reach_set is not None
    monkeypatch.setattr(experiments, "generate_suite",
                        lambda n, seed, behaviors=None: suite)
    res = experiments.coverage_proxy(2, 0)
    assert res["skipped"] == 1
    assert [len(res[kind]) for kind in INTENT_KINDS] == [1, 1, 1]


def test_coverage_proxy_keeps_its_keys_when_nothing_is_kept(monkeypatch):
    suite = [with_gt_jump(generate_suite(1, seed=0,
                                         behaviors=("follow_lane",))[0])]
    monkeypatch.setattr(experiments, "generate_suite",
                        lambda n, seed, behaviors=None: suite)
    res = experiments.coverage_proxy(1, 0)
    assert res["skipped"] == 1
    for kind in INTENT_KINDS:
        assert res[kind].shape == (0,)


@pytest.mark.parametrize("script, args", [
    ("ratio_harness.py", ["--scenes", "0"]),
    ("ratio_harness.py", ["--seed", "-1"]),
    ("ratio_harness.py", ["--ratios", "0"]),
    ("coverage_experiment.py", ["--scenes", "-1"]),
    ("coverage_experiment.py", ["--scenes", "0"]),
    ("coverage_experiment.py", ["--seed", "-1"]),
    ("ratio_harness.py", ["--scenes", "-1"]),
    ("ratio_harness.py", ["--ratios", "3", "nan"]),
])
def test_experiment_script_bad_flag_exits_2(tmp_path, script, args):
    res = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args,
         "-o", str(tmp_path / "out.csv")],
        cwd=REPO, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines()[-1].startswith(f"{script}: error: ")
    assert f"error: {args[0]} must be" in res.stderr.splitlines()[-1]
    assert not (tmp_path / "out.csv").exists()
