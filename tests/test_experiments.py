import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import HUGE
from intentforge import experiments
from intentforge.analysis import coverage, moving_average
from intentforge.experiments import (INTENT_KINDS, RunConfig,
                                     agent_frame_endpoint, class_endpoints,
                                     filter_dataset, fit_static,
                                     intent_coverage)
from intentforge.intention import MixConfig, dynamic_intents, mixed_intents
from intentforge.map_model import parse_scenario, write_scenario
from intentforge.road_graph import travel_time
from intentforge.scenario_gen import GenSpec, iter_suite

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
    suite = list(iter_suite(3, seed=0, behaviors=("follow_lane",)))
    items, _ = filter_dataset(suite)
    static_set = fit_static(map(class_endpoints, suite))
    cfg = RunConfig()
    m1, m2 = MixConfig(1.0, 1.0), MixConfig(5.0, 1.0)
    assert len(items) == 3
    want_mixes, want_default = [], []
    for scenario in suite:
        [(track, _, reach_set)] = experiments.run_scene(scenario)
        endpoint = agent_frame_endpoint(track)
        dyn = dynamic_intents(reach_set, track, cfg.kmeans)
        mixed = [coverage(mixed_intents(dyn, static_set, m,
                                        cfg.kmeans).points, endpoint)
                 for m in (m1, m2, cfg.mix)]
        base = [coverage(static_set.points, endpoint),
                coverage(dyn.points, endpoint)]
        want_mixes.append(base + mixed[:2])
        want_default.append(base + mixed[2:])
    assert intent_coverage(items, static_set, cfg,
                           mixes=[m1, m2]) == want_mixes
    assert intent_coverage(items, static_set, cfg) == want_default
    assert intent_coverage(items[1:2], static_set, cfg) == want_default[1:2]
    assert intent_coverage([], static_set, cfg) == []


def test_coverage_proxy_skips_what_filter_dataset_excludes(monkeypatch):
    suite = list(iter_suite(2, seed=0, behaviors=("follow_lane",)))
    suite[1] = with_gt_jump(suite[1])
    track = suite[1].track(suite[1].tracks_to_predict[0])
    assert track.gt_endpoint() is not None
    assert experiments.run_scene(suite[1])[0].reach_set is not None
    monkeypatch.setattr(experiments, "iter_suite",
                        lambda n, seed, behaviors=None: suite)
    res = experiments.coverage_proxy(2, 0)
    assert res["skipped"] == 1
    assert [len(res[kind]) for kind in INTENT_KINDS] == [1, 1, 1]


def test_coverage_proxy_keeps_its_keys_when_nothing_is_kept(monkeypatch):
    suite = [with_gt_jump(next(iter_suite(1, seed=0,
                                          behaviors=("follow_lane",))))]
    monkeypatch.setattr(experiments, "iter_suite",
                        lambda n, seed, behaviors=None: suite)
    res = experiments.coverage_proxy(1, 0)
    assert res["skipped"] == 1
    for kind in INTENT_KINDS:
        assert res[kind].shape == (0,)


_RATIO_PIN = ("ee8c865b6872e14f28e8c6dac63f6674"
              "121573628febbd226632be21cec7e4d6")
# script -> (flags, sha256 of the CSV, sha256 of stdout); the ratio
# harness prints its CSV
_SCRIPT_PINS = {
    "coverage_experiment.py": (
        ["--scenes", "120", "--seed", "0"],
        ("7fb769b6277c7d5c9da0f1b55b5f25e2"
         "143fb8072a27d2cf5946cc74a594c290"),
        ("77eb4075d9256d19f1af324df00a9435"
         "10fe13ed5987a8e639319003a079f546")),
    "ratio_harness.py": (
        ["--scenes", "120", "--seed", "0", "--ratios", "1", "3", "5"],
        _RATIO_PIN, _RATIO_PIN),
}


@pytest.mark.parametrize("script", list(_SCRIPT_PINS))
def test_experiment_script_output_bytes_are_pinned(tmp_path, script):
    """The CSV and stdout bytes of each script over 120 scenes, where the
    vehicle endpoints outnumber k, so static points are fitted rather than
    copied from the endpoints. A deliberate change to an experiment
    updates its pin."""
    args, csv_pin, stdout_pin = _SCRIPT_PINS[script]
    out = tmp_path / "out.csv"
    res = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args,
         "-o", str(out)], cwd=REPO, capture_output=True)
    assert (res.returncode, res.stderr) == (0, b"")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_pin
    assert hashlib.sha256(res.stdout).hexdigest() == stdout_pin


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
    # a limit that rounds to 0 at 6 decimals too
    ("GenSpec.speed_limit_mps", lambda v: GenSpec("straight", 0, v),
     [0.0, -1.0, HUGE, *_NOT_FINITE, 4e-7, 5e-7, 1e-300],
     "speed limit must be finite and > 0 at 6 decimals"),
    ("GenSpec.seed", lambda v: GenSpec("straight", v),
     [-1, *_NOT_INTEGERS], "seed must be an integer >= 0"),
    ("iter_suite.n", lambda v: next(iter_suite(v)), [0, -1, *_NOT_INTEGERS],
     "n must be an integer >= 1"),
    ("iter_suite.seed", lambda v: next(iter_suite(1, v)),
     [-1, *_NOT_INTEGERS], "seed must be an integer >= 0"),
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
