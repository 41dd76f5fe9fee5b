import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import HUGE
from intentforge import experiments
from intentforge.analysis import coverage, moving_average
from intentforge.experiments import (INTENT_KINDS, RunConfig,
                                     agent_frame_endpoint, filter_dataset,
                                     intent_coverage, pooled_static)
from intentforge.intention import MixConfig, dynamic_intents, mixed_intents
from intentforge.map_model import parse_scenario, write_scenario
from intentforge.road_graph import travel_time
from intentforge.scenario_gen import GenSpec, generate_suite

REPO = Path(__file__).resolve().parent.parent


def with_gt_jump(scenario):
    """The scenario with future step 40 of its first target moved 100 m:
    GT speed exceeds 60 m/s while the endpoint and history stay valid."""
    obj = json.loads(write_scenario(scenario))
    aid = scenario.tracks_to_predict[0]
    track = next(t for t in obj["tracks"] if t["agent_id"] == aid)
    track["future"][40][1] += 100.0
    return parse_scenario(json.dumps(obj).encode())


def test_intent_coverage_rows_match_direct_calls():
    """One row per item, in item order, each equal to the coverage of the
    one-agent dynamic_intents and mixed_intents sets."""
    suite = generate_suite(3, seed=0, behaviors=("follow_lane",))
    items, _ = filter_dataset(suite)
    static_set = pooled_static(suite)
    cfg = RunConfig()
    m1, m2 = MixConfig(1.0, 1.0), MixConfig(5.0, 1.0)
    assert len(items) == 3
    want_mixes, want_default = [], []
    for scenario in suite:
        [(track, _, reach_set)] = experiments.run_scene(scenario)
        endpoint = agent_frame_endpoint(track)
        dyn = dynamic_intents(reach_set, track, cfg.kmeans)
        mixed = [coverage(mixed_intents(dyn, static_set, m, cfg.kmeans),
                          endpoint) for m in (m1, m2, cfg.mix)]
        base = [coverage(static_set, endpoint), coverage(dyn, endpoint)]
        want_mixes.append(base + mixed[:2])
        want_default.append(base + mixed[2:])
    assert intent_coverage(items, static_set, cfg,
                           mixes=[m1, m2]) == want_mixes
    assert intent_coverage(items, static_set, cfg) == want_default
    assert intent_coverage(items[1:2], static_set, cfg) == want_default[1:2]
    assert intent_coverage([], static_set, cfg) == []


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


# wrong JSON types, refused by every numeric setting
_NOT_NUMBERS = ["1", None, [1], {}, True, False]
_NOT_FINITE = [math.nan, math.inf, -math.inf]
_NOT_INTEGERS = [1.5, 2.0, "64", *_NOT_FINITE]
# the values out of range of each numeric config key; a key missing here
# fails collection
_OUT_OF_RANGE = {
    "heading_threshold": [0.0, -1.0], "proximity_limit": [0.0, -1.0],
    "backwards_look": [0.0, -1.0], "time_budget": [-1.0, -1e-9],
    "speed_offset": [-1.0, -1e-9], "k": [0, -1, 2 ** 20 + 1, HUGE],
    "max_iterations": [0, -1], "tolerance": [-1e-9, -1.0], "seed": [-1],
    "dynamic_weight": [0.0, -1.0], "static_weight": [0.0, -1.0],
    "window": [0, -1, 7500.9],
}
# (row, how to set the value, bad values besides _NOT_NUMBERS, the message
# when it is pinned; otherwise the message must name the row's key)
_NUMERIC_SETTINGS = [
    *((key, lambda v, key=key: RunConfig.from_keys(
        RunConfig.config_keys() | {key: v}), _OUT_OF_RANGE[key] + (
            _NOT_INTEGERS if type(default) is int else [HUGE, *_NOT_FINITE]),
       None)
      for key, default in RunConfig.config_keys().items()
      if type(default) in (int, float)),
    ("GenSpec.speed_limit_mps", lambda v: GenSpec("straight", 0, v),
     [0.0, -1.0, HUGE, *_NOT_FINITE], "speed limit must be finite and > 0"),
    ("generate_suite.n", generate_suite, [0, -1, *_NOT_INTEGERS],
     "n must be an integer >= 1"),
    ("moving_average.window", lambda v: moving_average([1.0, 2.0], v),
     [0, -1, *_NOT_INTEGERS], "window must be an integer >= 1"),
    ("travel_time.distance", lambda v: travel_time(v, 10.0),
     [-1.0, HUGE, *_NOT_FINITE], "distance must be a finite number >= 0"),
    ("travel_time.speed_limit", lambda v: travel_time(1.0, v),
     [0.0, -1.0, HUGE, *_NOT_FINITE],
     "speed limit must be a finite number > 0"),
]


@pytest.mark.parametrize("row, build, value, message", [
    pytest.param(row, build, value, message, id=f"{row}={value!r:.20}")
    for row, build, bad, message in _NUMERIC_SETTINGS
    for value in (*bad, *_NOT_NUMBERS)])
def test_numeric_setting_rejects_bad_value_with_value_error(row, build, value,
                                                            message):
    """Every numeric setting refuses a wrong type or range with a
    ValueError, never a TypeError; a config key names itself."""
    with pytest.raises(ValueError) as info:
        build(value)
    if message is None:
        assert str(info.value).startswith(f"{row} must be ")
    else:
        assert str(info.value) == message
