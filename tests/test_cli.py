import argparse
import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (HUGE, OVER_DIGIT_LIMIT, fmt_float_reference,
                      from_agent_frame, mutated_scene, reach_csv_reference,
                      point_to_polyline_distance, scenario_of,
                      stationary_track, straight_map, vehicle_track)
from intentforge import analysis, cli, experiments, intention, scenario_gen
from intentforge.cli import main
from intentforge.analysis import coverage
from intentforge.intention import (KMeansConfig, MixConfig, dynamic_intents,
                                   mixed_intents)
from intentforge.lane_assoc import associate
from intentforge.map_model import (SchemaViolation, ScenarioError, VectorMap,
                                   parse_scenario, write_scenario)
from intentforge.scenario_gen import BEHAVIORS, generate_suite


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def write_suite(tmp_path, n=6, seed=0, behaviors=("follow_lane",)):
    d = tmp_path / "scenes"
    d.mkdir(exist_ok=True)
    suite = generate_suite(n, seed=seed, behaviors=behaviors)
    for s in suite:
        (d / f"{s.scenario_id}.json").write_bytes(write_scenario(s))
    return d, suite


def perfect_predictions(tmp_path, suite, name, offset=(0.0, 0.0)):
    lines = ["agent_id,mode_idx,confidence,step,x,y"]
    for scenario in suite:
        for aid in scenario.tracks_to_predict:
            track = scenario.track(aid)
            for step, (x, y) in enumerate(track.future_xy.tolist()):
                x, y = x + offset[0], y + offset[1]
                lines.append(f"{aid},0,1.0,{step},{x:.6f},{y:.6f}")
    path = tmp_path / f"pred_{name}.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


# -- gen ------------------------------------------------------------------------

def test_gen_writes_one_deterministic_file(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["gen", "--template", "uturn_split", "--seed", "0",
                     "-o", str(out)]) == 0
    files1 = sorted(out1.glob("*.json"))
    assert len(files1) == 1
    assert files1[0].read_bytes() == (out2 / files1[0].name).read_bytes()
    parse_scenario(files1[0].read_bytes())  # parses cleanly


def test_gen_unknown_template_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--template", "roundabout", "-o", "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["intents", "x", "--kind", "static", "--k", "1.5", "-o", "o.csv"],
    ["intents", "x", "--kind", "static", "--jobs", "x", "-o", "o.csv"],
    ["intents", "x", "--kind", "static", "--tolerance", "abc", "-o", "o.csv"],
    ["gen", "--suite", "x", "-o", "out"],
    ["intents", "x", "--kind", "static", "--no-such-flag", "-o", "o.csv"],
    ["dump-roadgraph", "x"],
], ids=["k_float", "jobs_text", "tolerance_text", "suite_text",
        "unknown_option", "missing_out"])
def test_malformed_command_line_exits_2_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_gen_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("INTENTFORGE_SEED", "7")
    assert main(["gen", "--template", "straight", "-o",
                 str(tmp_path / "env")]) == 0
    monkeypatch.setenv("INTENTFORGE_SEED", "ignored when --seed is given")
    assert main(["gen", "--template", "straight", "--seed", "7", "-o",
                 str(tmp_path / "flag")]) == 0
    env_files = sorted((tmp_path / "env").glob("*.json"))
    flag_files = sorted((tmp_path / "flag").glob("*.json"))
    assert [f.name for f in env_files] == [f.name for f in flag_files]
    assert env_files[0].read_bytes() == flag_files[0].read_bytes()


@pytest.mark.parametrize("env", [False, True], ids=["flag", "env"])
def test_gen_negative_seed_exits_2(tmp_path, monkeypatch, capsys, env):
    argv = ["gen", "--suite", "1", "-o", str(tmp_path / "s")]
    if env:
        monkeypatch.setenv("INTENTFORGE_SEED", "-1")
    else:
        argv[1:1] = ["--seed", "-1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config violation") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_gen_bad_speed_limit_exits_2(tmp_path, capsys, value):
    out = tmp_path / "s"
    assert main(["gen", "--template", "straight", "--speed-limit", value,
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: speed limit must be finite and > 0\n"
    assert not list(out.glob("*.json"))


def test_gen_suite(tmp_path):
    assert main(["gen", "--suite", "5", "--seed", "3",
                 "-o", str(tmp_path / "s")]) == 0
    assert len(list((tmp_path / "s").glob("*.json"))) == 5


def test_gen_suite_bytes_are_pinned(tmp_path):
    """The 500-scene seed-0 suite, hashed as name + NUL + bytes over the
    sorted files: a change to the generator or the writer that moves one
    byte of any scene shows here."""
    out = tmp_path / "s"
    assert main(["gen", "--suite", "500", "--seed", "0", "-o", str(out)]) == 0
    h = hashlib.sha256()
    for p in sorted(out.glob("*.json")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    assert h.hexdigest() == ("98b1e2d1b3e7661aadabc5a67e139e95"
                             "a0c135d9b82782ee95bec6c2ea137e8f")


@pytest.fixture(scope="module")
def suite20(tmp_path_factory):
    """``gen --suite 20 --seed 0`` and two prediction files over it."""
    root = tmp_path_factory.mktemp("suite20")
    scenes = root / "scenes"
    assert main(["gen", "--suite", "20", "--seed", "0",
                 "-o", str(scenes)]) == 0
    suite = [parse_scenario(p.read_bytes())
             for p in sorted(scenes.glob("*.json"))]
    exact = perfect_predictions(root, suite, "exact")
    shifted = perfect_predictions(root, suite, "shifted", (1.5, -0.5))
    return scenes, [f"exact={exact}", f"shifted={shifted}"]


# sha256 over the sorted output files, each hashed as name + NUL + bytes
# (the scheme of test_gen_suite_bytes_are_pinned)
_ROADGRAPH_PIN = ("e02fe8bc9d8e7476157cf41fca99662a"
                  "8c371b3aab8802470907bbe6ab257156")
_OUTPUT_PINS = {
    "intents_static": ("a7b31dc62001ccb0c875302815ef1ef6"
                       "fc0b8e8f0e6a5c43454415fb8496cde5"),
    "intents_dynamic": ("1a69641e66d521ae8c126aa4c11e3b3d"
                        "addb000b1f43e7a6207bf125d512ba77"),
    "intents_mixed": ("c6836ec78fb6c49dfe0fe33431466010"
                      "a2bbf71b85498c1583e8a398db3e4efe"),
    "dump_roadgraph": _ROADGRAPH_PIN,
    "intents_dump_roadgraph": _ROADGRAPH_PIN,
    "analyze": ("10e3c5e604d3a8e8371018ac3c488a39"
                "e61fd828fd75a3ace073582a2477e8c5"),
}


@pytest.mark.parametrize("case", list(_OUTPUT_PINS))
def test_command_output_bytes_are_pinned(tmp_path, suite20, case):
    """Every command's output bytes over the 20-scene seed-0 suite at
    --jobs 1. A deliberate output change updates its pin."""
    scenes, predictions = suite20
    out = tmp_path / "out"
    out.mkdir()
    if case.startswith("intents_") and case != "intents_dump_roadgraph":
        argv = ["intents", str(scenes), "--kind", case[len("intents_"):],
                "-o", str(out / "intents.csv")]
    elif case == "dump_roadgraph":
        argv = ["dump-roadgraph", str(scenes), "-o", str(out / "roadgraph.csv")]
    elif case == "intents_dump_roadgraph":
        argv = ["intents", str(scenes), "--kind", "dynamic",
                "--dump-roadgraph", str(out / "roadgraph.csv"),
                "-o", str(tmp_path / "intents.csv")]
    else:
        argv = ["analyze", str(scenes), "--window", "1", "-o", str(out)]
        for p in predictions:
            argv += ["--predictions", p]
    assert main([*argv, "--jobs", "1"]) == 0
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    assert h.hexdigest() == _OUTPUT_PINS[case]


@pytest.mark.parametrize("flags", [
    ["--template", "straight"], ["--behavior", "follow_lane"],
    ["--speed-limit", "13.4112"],
    ["--speed-limit", "nan", "--behavior", "illegal_uturn"]],
    ids=["template", "behavior", "speed_limit", "bad_speed_limit"])
def test_gen_suite_with_per_scene_flags_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "s"
    assert main(["gen", "--suite", "2", *flags, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --suite takes no --template, --behavior or --speed-limit\n")
    assert not out.exists()


# -- intents ----------------------------------------------------------------------

def test_intents_dynamic_corridor(tmp_path):
    scenes = tmp_path / "scenes"
    assert main(["gen", "--template", "straight", "--seed", "1",
                 "-o", str(scenes)]) == 0
    out = tmp_path / "intents.csv"
    assert main(["intents", str(scenes), "--kind", "dynamic",
                 "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["agent_id", "kind", "idx", "x", "y", "fallback"]
    assert len(rows) == 64
    assert all(r["kind"] == "dynamic" and r["fallback"] == "0" for r in rows)
    # every point stays inside the eastbound corridor: within half the
    # lane gap of one of the two reachable lane polylines
    scenario = parse_scenario(next(scenes.glob("*.json")).read_bytes())
    track = scenario.track(scenario.tracks_to_predict[0])
    lanes = [scenario.vector_map.segments[i].nodes for i in (0, 1)]
    for row in rows:
        p = from_agent_frame((float(row["x"]), float(row["y"])), track)
        dist = min(point_to_polyline_distance(p, nodes) for nodes in lanes)
        assert dist <= 1.76


def test_intents_offroad_falls_back_to_static(tmp_path):
    scenes = tmp_path / "scenes"
    assert main(["gen", "--template", "parking_adjacent",
                 "--behavior", "offroad_parking", "--seed", "0",
                 "-o", str(scenes)]) == 0
    # corpus needs at least one valid endpoint pool: add a follow_lane scene
    assert main(["gen", "--template", "straight", "--seed", "2",
                 "-o", str(scenes)]) == 0
    out = tmp_path / "intents.csv"
    assert main(["intents", str(scenes), "--kind", "dynamic",
                 "-o", str(out)]) == 0
    _, rows = read_csv(out)
    parked = [r for r in rows if "parking" in r["agent_id"]]
    assert len(parked) == 64
    assert all(r["kind"] == "static" and r["fallback"] == "1" for r in parked)


def test_intents_deterministic_and_jobs_invariant(tmp_path):
    scenes, _ = write_suite(tmp_path, n=6, seed=4,
                            behaviors=("follow_lane", "corner_cut"))
    outs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / f"{name}.csv"
        assert main(["intents", str(scenes), "--kind", "mixed",
                     "--jobs", jobs, "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def _dynamic_arch_openblas() -> bool:
    """Whether numpy reports a DYNAMIC_ARCH OpenBLAS, whose kernel
    OPENBLAS_CORETYPE picks; numpy < 1.26 has no ``mode`` to report it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("command", [["intents", "--kind", "mixed"],
                                     ["dump-roadgraph"]],
                         ids=["intents_mixed", "dump_roadgraph"])
def test_output_bytes_do_not_depend_on_the_blas_kernel(tmp_path, command):
    """The same output bytes under an FMA OpenBLAS kernel (Haswell) and a
    kernel without FMA (Sandybridge), each in its own process."""
    scenes = tmp_path / "scenes"
    assert main(["gen", "--suite", "20", "--seed", "0",
                 "-o", str(scenes)]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for core in ("Haswell", "Sandybridge"):
        out = tmp_path / f"{core}.csv"
        env = {**os.environ, "PYTHONPATH": str(src),
               "OPENBLAS_CORETYPE": core}
        subprocess.run([sys.executable, "-m", "intentforge.cli", command[0],
                        str(scenes), *command[1:], "-o", str(out)],
                       env=env, check=True, capture_output=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_intents_endpoints_file(tmp_path):
    scenes, _ = write_suite(tmp_path, n=2, seed=5)
    endpoints = tmp_path / "endpoints.csv"
    endpoints.write_text("class,x,y\n" + "\n".join(
        f"vehicle,{x:.1f},0.0" for x in np.linspace(10, 100, 30)) + "\n")
    out = tmp_path / "static.csv"
    assert main(["intents", str(scenes), "--kind", "static",
                 "--endpoints", str(endpoints), "-o", str(out)]) == 0
    _, rows = read_csv(out)
    xs = {float(r["x"]) for r in rows}
    assert len(rows) % 64 == 0
    assert all(0 <= x <= 101 for x in xs)


def test_intents_dump_roadgraph(tmp_path):
    scenes = tmp_path / "scenes"
    assert main(["gen", "--template", "straight", "--seed", "1",
                 "-o", str(scenes)]) == 0
    dump = tmp_path / "roadgraph.csv"
    assert main(["intents", str(scenes), "--kind", "dynamic",
                 "--dump-roadgraph", str(dump),
                 "-o", str(tmp_path / "i.csv")]) == 0
    header, rows = read_csv(dump)
    assert header == ["scenario_id", "agent_id", "x", "y", "arrival_s"]
    times = [float(r["arrival_s"]) for r in rows]
    assert times and min(times) == 0.0 and max(times) <= 8.0


def test_intents_static_dump_roadgraph_exits_2_before_reading_scenarios(
        tmp_path, capsys):
    # static intents compute no reachable set, so the dump would hold
    # only its header
    dump = tmp_path / "roadgraph.csv"
    assert main(["intents", str(tmp_path / "no_such_dir"), "--kind", "static",
                 "--dump-roadgraph", str(dump),
                 "-o", str(tmp_path / "i.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --dump-roadgraph ") and err.count("\n") == 1
    assert not dump.exists()


@pytest.mark.parametrize("dump", ["i.csv", "sub/../i.csv"])
def test_intents_dump_roadgraph_to_the_output_file_exits_2(tmp_path, capsys,
                                                            dump):
    # the reach CSV would replace the intention points
    (tmp_path / "sub").mkdir()
    assert main(["intents", str(tmp_path / "no_such_dir"), "--kind", "mixed",
                 "--dump-roadgraph", str(tmp_path / dump),
                 "-o", str(tmp_path / "i.csv")]) == 2
    assert capsys.readouterr().err == \
        "error: --dump-roadgraph and -o name the same file\n"
    assert not (tmp_path / "i.csv").exists()


@pytest.mark.parametrize("kind", ["dynamic", "mixed"])
def test_intents_on_a_map_without_segments_fall_back(tmp_path, kind):
    vmap = VectorMap([])
    track = vehicle_track((0.0, 0.0))
    assert vmap.nearest_nodes((0, 0), 5.0) == []
    assert associate(vmap, track).fallback
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    (scenes / "s0.json").write_bytes(
        write_scenario(scenario_of(vmap, [track])))
    out = tmp_path / "i.csv"
    assert main(["intents", str(scenes), "--kind", kind, "-o", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 64
    assert all(r["kind"] == "static" and r["fallback"] == "1" for r in rows)


def test_intents_missing_input_exits_1(tmp_path):
    assert main(["intents", str(tmp_path / "nope"), "--kind", "static",
                 "-o", str(tmp_path / "o.csv")]) == 1


def test_intents_config_file_changes_association(tmp_path):
    scenes = tmp_path / "scenes"
    # agent parked exactly 6 m off the lane: fallback under the 5 m default
    assert main(["gen", "--template", "parking_adjacent",
                 "--behavior", "offroad_parking", "--seed", "0",
                 "-o", str(scenes)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"proximity_limit": 6.5}))
    out = tmp_path / "intents.csv"
    assert main(["intents", str(scenes), "--kind", "dynamic",
                 "--config", str(cfg), "-o", str(out)]) == 0
    _, rows = read_csv(out)
    assert all(r["kind"] == "dynamic" and r["fallback"] == "0" for r in rows)
    # flag overrides the file and restores the fallback
    assert main(["intents", str(scenes), "--kind", "dynamic",
                 "--config", str(cfg), "--proximity-limit", "5.0",
                 "-o", str(out)]) == 0
    _, rows = read_csv(out)
    assert all(r["kind"] == "static" and r["fallback"] == "1" for r in rows)


def test_intents_bad_config_exits_2(tmp_path):
    scenes, _ = write_suite(tmp_path, n=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"not_a_key": 1}))
    assert main(["intents", str(scenes), "--kind", "static",
                 "--config", str(cfg), "-o", str(tmp_path / "o.csv")]) == 2
    cfg.write_text(json.dumps({"k": 0}))
    assert main(["intents", str(scenes), "--kind", "static",
                 "--config", str(cfg), "-o", str(tmp_path / "o.csv")]) == 2


# every float config key; an int beyond float range must be refused too
_FLOAT_KEYS = ("heading_threshold", "proximity_limit", "backwards_look",
               "time_budget", "speed_offset", "tolerance", "dynamic_weight",
               "static_weight")


@pytest.mark.parametrize("extra", [
    {"k": "64"},
    ["--time-budget", "nan"],
    ["--tolerance", "nan"],
    ["--max-iterations", "0"],
    ["--dynamic-weight", "inf"],
    ["--seed", "-1"],
    ["--proximity-limit", "inf"],
    {"deviation_mode": "bogus"},
    {"exclude_parked": "false"},
    {"window": 7500.9},
    {"window": 0},
    {"proximity_limit": True},
    {"time_budget": False},
    {"dynamic_weight": True},
    {"tolerance": False},
    *({key: 10 ** 400} for key in _FLOAT_KEYS),
    {"tolerance": "1"},
    {"speed_offset": None},
    {"time_budget": [1]},
    {"dynamic_weight": {}},
], ids=["config_k_string", "time_budget_nan", "tolerance_nan",
        "max_iterations_0", "dynamic_weight_inf", "seed_negative",
        "proximity_limit_inf", "config_deviation_mode",
        "config_exclude_parked_string", "config_window_float",
        "config_window_zero", "config_proximity_limit_true",
        "config_time_budget_false", "config_dynamic_weight_true",
        "config_tolerance_false",
        *(f"config_{key}_beyond_float" for key in _FLOAT_KEYS),
        "config_tolerance_string", "config_speed_offset_null",
        "config_time_budget_list", "config_dynamic_weight_object"])
def test_intents_bad_config_value_exits_2_with_one_line(tmp_path, capsys,
                                                        extra):
    scenes, _ = write_suite(tmp_path, n=1)
    key = None
    if isinstance(extra, dict):
        [key] = extra
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(extra))
        extra = ["--config", str(cfg)]
    out = tmp_path / "o.csv"
    assert main(["intents", str(scenes), "--kind", "mixed", *extra,
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config violation") and err.count("\n") == 1
    if key is not None:
        assert err.startswith(f"error: config violation: {key} must be ")
    assert not out.exists()


# any JSON value: every type, ints of any size, and the floats beyond
# range (1e309 parses to inf), NaN, negatives and zeros
_JSON_VALUE = st.one_of(
    st.one_of(st.booleans(), st.text(max_size=3), st.none(),
              st.lists(st.integers(-2, 2), max_size=2),
              st.dictionaries(st.text(max_size=2), st.integers(-2, 2),
                              max_size=1),
              st.integers(), st.floats(),
              st.sampled_from([2 ** 20, 2 ** 20 + 1, 10 ** 400,
                               -10 ** 400])).map(json.dumps),
    st.sampled_from(["1e309", "-1e309", "0", "-0.0", "-1"]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(cli._DEFAULTS)), text=_JSON_VALUE)
@example(key="tolerance", text='"1"')
@example(key="speed_offset", text="null")
@example(key="time_budget", text="[1]")
@example(key="dynamic_weight", text="{}")
def test_any_config_value_is_used_or_refused_by_key(tmp_path, capsys,
                                                    monkeypatch, key, text):
    """A config file value is either taken, so that the command goes on to
    the scenario files (here missing: exit 1 before any pipeline runs), or
    refused with exit 2 and one line that names its key."""
    monkeypatch.delenv("INTENTFORGE_SEED", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"%s": %s}' % (key, text))
    missing = tmp_path / "missing.json"
    code = main(["intents", str(missing), "--kind", "static",
                 "--config", str(cfg), "-o", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    if code == 1:
        assert err == f"error: no such scenario file or directory: {missing}\n"
    else:
        assert code == 2
        assert err.startswith(f"error: config violation: {key} must be ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("source", ["flag", "config"])
def test_intents_huge_k_exits_2_quickly(tmp_path, capsys, source):
    """A k beyond KMeansConfig's bound is a config violation, raised before
    any pool is padded to k points."""
    scenes, _ = write_suite(tmp_path, n=1)
    huge = "100000000000000000000"
    extra = ["--k", huge]
    if source == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"k": %s}' % huge)
        extra = ["--config", str(cfg)]
    out = tmp_path / "o.csv"
    start = time.perf_counter()
    assert main(["intents", str(scenes), "--kind", "static", *extra,
                 "-o", str(out)]) == 2
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err.startswith("error: config violation") and err.count("\n") == 1
    assert not out.exists()


def test_intents_padded_pools_bytes_are_pinned(tmp_path):
    """--k 5000 pads every dynamic pool of the suite: the extra rows cycle
    through the distinct points in decreasing weight order."""
    scenes, _ = write_suite(tmp_path, n=3, seed=0)
    out = tmp_path / "o.csv"
    assert main(["intents", str(scenes), "--kind", "dynamic", "--k", "5000",
                 "-o", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == 1 + 3 * 5000
    assert hashlib.sha256(data).hexdigest() == (
        "e9c79c448dc4d1cbbcb8b86f41c3458ace4cb744cb6429372873495f1318334a")


@pytest.mark.parametrize("row", [
    "vehicle,1.0", "vehicle,east,0.0", "vehicle,nan,0.0",
], ids=["two_columns", "non_numeric_x", "non_finite_x"])
def test_intents_malformed_endpoints_row_exits_1(tmp_path, capsys, row):
    scenes, _ = write_suite(tmp_path, n=1)
    endpoints = tmp_path / "endpoints.csv"
    endpoints.write_text(f"class,x,y\nvehicle,5.0,0.0\n{row}\n")
    assert main(["intents", str(scenes), "--kind", "static",
                 "--endpoints", str(endpoints),
                 "-o", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{endpoints}:3: " in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, names", [
    (["--kind", "static", "--endpoints", "ENDPOINTS"],
     "the vehicle endpoints"),
    (["--kind", "mixed", "--dynamic-weight", "1e308"],
     "mixed points at dynamic:static weights 1e+308:1"),
], ids=["static_endpoints_1e200", "mixed_dynamic_weight_1e308"])
def test_intents_pool_that_could_overflow_exits_1(tmp_path, capsys, argv,
                                                  names):
    """A pool whose weighted sums could overflow is refused in one line
    naming what could not be clustered, and no output is written."""
    scenes, _ = write_suite(tmp_path, n=20)
    endpoints = tmp_path / "endpoints.csv"
    endpoints.write_text("class,x,y\nvehicle,1e200,0\nvehicle,-1e200,0\n")
    out = tmp_path / "o.csv"
    argv = [str(endpoints) if a == "ENDPOINTS" else a for a in argv]
    assert main(["intents", str(scenes), *argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot cluster {names}: ")
    assert err.count("\n") == 1 and not out.exists()


# -- analyze ------------------------------------------------------------------------

def test_analyze_mix_that_could_overflow_exits_1(tmp_path, capsys):
    scenes, suite = write_suite(tmp_path, n=3)
    pred = perfect_predictions(tmp_path, suite, "m")
    out = tmp_path / "out"
    assert main(["analyze", str(scenes), "--predictions", f"m={pred}",
                 "--window", "1", "--dynamic-weight", "1e308",
                 "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot cluster mixed points at "
                          "dynamic:static weights 1e+308:1: ")
    assert err.count("\n") == 1 and not out.exists()


def test_analyze_perfect_predictions_zero_curve(tmp_path):
    scenes, suite = write_suite(tmp_path, n=6, seed=1)
    pred = perfect_predictions(tmp_path, suite, "exact")
    out = tmp_path / "out"
    assert main(["analyze", str(scenes), "--predictions",
                 f"exact={pred}", "--window", "3", "-o", str(out)]) == 0
    _, rows = read_csv(out / "deviation_curve.csv")
    assert rows
    assert all(float(r["minfde_exact"]) == 0.0 for r in rows)
    _, report = read_csv(out / "filter_report.csv")
    assert report[0]["total"] == "6" and report[0]["remaining"] == "6"
    header, cov = read_csv(out / "coverage.csv")
    assert header == ["agent_id", "kind", "coverage_m"]
    assert len(cov) == 6 * 3


def test_analyze_window_too_large_exits_2(tmp_path):
    scenes, suite = write_suite(tmp_path, n=2, seed=2)
    pred = perfect_predictions(tmp_path, suite, "exact")
    assert main(["analyze", str(scenes), "--predictions", f"exact={pred}",
                 "--window", "1000", "-o", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("case, code, message", [
    ("no_predictions", 1, "no records to analyze"),
    ("all_parked", 1, "no records to analyze"),
    ("window", 2, "window 3 exceeds record count 2")],
    ids=["no_predictions", "all_parked", "window"])
def test_analyze_exit_codes_without_records(tmp_path, capsys, case, code,
                                             message):
    """No record left, from missing predictions or --exclude-parked, is a
    data error; a window beyond the records is a usage error."""
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    suite = [scenario_of(straight_map(), [stationary_track(
        (20.0 + 10 * i, 0.0), agent_id=f"p{i}")], scenario_id=f"s{i}")
        for i in range(2)]
    for s in suite:
        (scenes / f"{s.scenario_id}.json").write_bytes(write_scenario(s))
    pred = perfect_predictions(
        tmp_path, [] if case == "no_predictions" else suite, "m")
    out = tmp_path / "out"
    argv = ["analyze", str(scenes), "--predictions", f"m={pred}",
            "--window", "3" if case == "window" else "1", "-o", str(out)]
    assert main(argv + (["--exclude-parked"] if case == "all_parked"
                        else [])) == code
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"error: {message}"
    assert sum(line.startswith("error: ") for line in err) == 1
    assert not out.exists()


def test_analyze_exclude_parked_drops_only_parked_records(tmp_path):
    """One parked and one moving agent: --exclude-parked drops one of the
    two curve rows, and both agents still pass the filter."""
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    suite = [scenario_of(straight_map(), [track], scenario_id=f"s{i}")
             for i, track in enumerate([
                 stationary_track((20.0, 0.0), agent_id="parked"),
                 vehicle_track((20.0, 0.0), agent_id="moving")])]
    for s in suite:
        (scenes / f"{s.scenario_id}.json").write_bytes(write_scenario(s))
    pred = perfect_predictions(tmp_path, suite, "m")
    for flags, n_rows in (([], 2), (["--exclude-parked"], 1)):
        out = tmp_path / f"out{n_rows}"
        assert main(["analyze", str(scenes), "--predictions", f"m={pred}",
                     "--window", "1", "-o", str(out), *flags]) == 0
        _, rows = read_csv(out / "deviation_curve.csv")
        assert len(rows) == n_rows
        _, report = read_csv(out / "filter_report.csv")
        assert report[0]["remaining"] == "2"


def test_analyze_two_models_constant_gap(tmp_path):
    scenes, suite = write_suite(tmp_path, n=6, seed=3)
    good = perfect_predictions(tmp_path, suite, "good", offset=(0.0, 0.0))
    worse = perfect_predictions(tmp_path, suite, "worse", offset=(0.0, 0.2))
    out = tmp_path / "out"
    assert main(["analyze", str(scenes),
                 "--predictions", f"good={good}",
                 "--predictions", f"worse={worse}",
                 "--window", "3", "-o", str(out)]) == 0
    _, rows = read_csv(out / "deviation_curve.csv")
    for r in rows:
        gap = float(r["minfde_worse"]) - float(r["minfde_good"])
        assert gap == pytest.approx(0.2, abs=1e-6)


def test_analyze_missing_prediction_skips_and_counts(tmp_path, capsys):
    scenes, suite = write_suite(tmp_path, n=4, seed=6)
    partial = perfect_predictions(tmp_path, suite[:3], "m")
    out = tmp_path / "out"
    assert main(["analyze", str(scenes), "--predictions", f"m={partial}",
                 "--window", "2", "-o", str(out)]) == 0
    _, report = read_csv(out / "filter_report.csv")
    assert report[0]["skipped_missing_prediction"] == "1"
    assert "skipped 1 agent" in capsys.readouterr().err


def test_analyze_associates_and_builds_graphs_in_run_scene(tmp_path,
                                                           monkeypatch):
    scenes, suite = write_suite(tmp_path, n=4, seed=5,
                                behaviors=("follow_lane", "offroad_parking"))
    pred = perfect_predictions(tmp_path, suite, "m")
    associated, graphs = [], []

    def counting(calls, fn):
        def wrapper(vmap, *args):
            calls.append(id(vmap))
            return fn(vmap, *args)
        return wrapper

    monkeypatch.setattr(experiments, "associate",
                        counting(associated, experiments.associate))
    monkeypatch.setattr(experiments, "build_graph",
                        counting(graphs, experiments.build_graph))
    assert main(["analyze", str(scenes), "--predictions", f"m={pred}",
                 "--window", "1", "-o", str(tmp_path / "out")]) == 0
    vehicles = sum(s.track(a).object_class == "vehicle"
                   for s in suite for a in s.tracks_to_predict)
    assert len(associated) == vehicles > 0
    assert 0 < len(graphs) == len(set(graphs)) <= len(suite)


def test_analyze_deterministic_outputs(tmp_path):
    scenes, suite = write_suite(tmp_path, n=5, seed=8)
    pred = perfect_predictions(tmp_path, suite, "m")
    blobs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["analyze", str(scenes), "--predictions", f"m={pred}",
                     "--window", "2", "-o", str(out)]) == 0
        blobs.append(tuple((out / f).read_bytes() for f in
                           ("deviation_curve.csv", "filter_report.csv",
                            "coverage.csv")))
    assert blobs[0] == blobs[1]


def _edit_row(path, row, column, value):
    lines = path.read_text().splitlines()
    parts = lines[row].split(",")
    parts[column] = value
    lines[row] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column, value, message", [
    (1, "1.5", ":3: invalid literal for int()"),
    (None, None, ":3: duplicate row"),
    (2, "0.5", ":3: confidence 0.5 differs from 1.0"),
], ids=["mode_idx_fraction", "duplicate_row", "confidence_changes"])
def test_analyze_malformed_prediction_row_exits_1(tmp_path, capsys, column,
                                                  value, message):
    scenes, suite = write_suite(tmp_path, n=1)
    pred = perfect_predictions(tmp_path, suite, "m")
    if column is None:  # step 0 of mode 0 again, on line 3
        lines = pred.read_text().splitlines()
        lines.insert(2, lines[1])
        pred.write_text("\n".join(lines) + "\n")
    else:
        _edit_row(pred, 2, column, value)
    assert main(["analyze", str(scenes), "--predictions", f"m={pred}",
                 "--window", "1", "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{pred}{message}" in err and err.count("\n") == 1


@pytest.mark.parametrize("column, rows", [(2, range(1, 81)), (4, [5])],
                         ids=["confidence", "x"])
def test_analyze_non_finite_prediction_exits_1(tmp_path, capsys, column, rows):
    scenes, suite = write_suite(tmp_path, n=1)
    pred = perfect_predictions(tmp_path, suite, "m")
    for row in rows:
        _edit_row(pred, row, column, "nan")
    assert main(["analyze", str(scenes), "--predictions", f"m={pred}",
                 "--window", "1", "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"agent {suite[0].tracks_to_predict[0]}: " in err
    assert "finite" in err and err.count("\n") == 1


# Each mutation leaves one data row malformed in a way the reader rejects.
_JUNK = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                              blacklist_characters=","), max_size=6).filter(
    lambda s: not _parses_as_float(s))


def _parses_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def _malformed(draw, lines, numeric_columns, duplicates_rejected):
    lines = list(lines)
    row = draw(st.integers(1, len(lines) - 1))
    parts = lines[row].split(",")
    kinds = ["drop", "extra", "junk", "non_finite", "bad_byte"]
    kind = draw(st.sampled_from(kinds + ["duplicate"] * duplicates_rejected))
    if kind == "drop":
        del parts[draw(st.integers(0, len(parts) - 1))]
    elif kind == "extra":
        parts.insert(draw(st.integers(0, len(parts))), draw(_JUNK))
    elif kind in ("junk", "non_finite"):
        value = draw(_JUNK if kind == "junk" else
                     st.sampled_from(["nan", "inf", "-inf", "1e999"]))
        parts[draw(st.sampled_from(numeric_columns))] = value
    elif kind == "duplicate":
        lines.insert(row, lines[row])
    lines[row] = ",".join(parts)
    data = ("\n".join(lines) + "\n").encode()
    if kind == "bad_byte":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + b"\xff" + data[at + 1:]
    return data


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_csv_exits_1_and_never_raises(tmp_path, data):
    scenes, suite = write_suite(tmp_path, n=1)
    pred = perfect_predictions(tmp_path, suite, "m")
    endpoints = tmp_path / "endpoints.csv"
    endpoints.write_text("class,x,y\n" + "".join(
        f"vehicle,{x:.1f},{x / 10:.1f}\n" for x in range(10, 20)))
    if data.draw(st.booleans(), label="predictions"):
        path, columns, duplicates = pred, [1, 2, 3, 4, 5], True
        argv = ["analyze", str(scenes), "--predictions", f"m={pred}",
                "--window", "1", "-o", str(tmp_path / "out")]
    else:
        path, columns, duplicates = endpoints, [1, 2], False
        argv = ["intents", str(scenes), "--kind", "static", "--endpoints",
                str(endpoints), "-o", str(tmp_path / "o.csv")]
    lines = path.read_text().splitlines()
    path.write_bytes(data.draw(_malformed(lines, columns, duplicates)))
    assert main(argv) == 1


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.text(st.sampled_from("ab,\n\r\x0b\x0c\x1c\x85\u2028é")),
       st.integers(1, 9))
def test_csv_lines_equal_splitlines_of_the_whole_file(tmp_path, monkeypatch,
                                                      body, block):
    # blocks of a few characters cut the file inside lines and between
    # the two characters of "\r\n"
    monkeypatch.setattr(analysis, "_READ_CHARS", block)
    path = tmp_path / "f.csv"
    path.write_text("h,x\n" + body, newline="")
    want = list(enumerate(path.read_text().splitlines()[1:], start=2))
    assert list(analysis._csv_lines(path, "h,x")) == want


@pytest.mark.parametrize("text", ["", "\n", "x,h\n1,2\n"])
def test_csv_lines_without_the_header_is_a_data_error(tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(analysis.CsvError, match="expected header"):
        list(analysis._csv_lines(path, "h,x"))


# -- the prediction reader's fast path against the row walk -----------------------

def _prediction_rows(agents):
    """Rows (agent, mode, confidence, step, x, y) as text, grouped by agent,
    mode and step, from {agent: [(mode, confidence, (80, 2) array)]}."""
    return [(aid, str(mode), repr(conf), str(step), repr(x), repr(y))
            for aid, modes in agents.items()
            for mode, conf, xy in modes
            for step, (x, y) in enumerate(xy.tolist())]


def _write_prediction_csv(path, rows, newline="\n"):
    text = newline.join(["agent_id,mode_idx,confidence,step,x,y",
                         *(",".join(r) for r in rows)]) + newline
    path.write_bytes(text.encode())


def _assert_same_predictions(got, want):
    assert list(got) == list(want)
    for aid, ps in want.items():
        assert got[aid].agent_id == aid
        assert np.array_equal(got[aid].trajectories, ps.trajectories)
        assert np.array_equal(got[aid].confidences, ps.confidences)


@st.composite
def _prediction_file(draw):
    """(rows, plain): valid prediction rows in some order and text form, and
    whether they are in the one form the fast path takes."""
    ids = draw(st.lists(st.text("ab#9_", min_size=1, max_size=4), min_size=1,
                        max_size=3, unique=True))
    agents = {}
    for aid in ids:
        modes = sorted(draw(st.sets(st.sampled_from([0, 1, 2, 10, 12]),
                                    min_size=1, max_size=3)))
        agents[aid] = [(m, draw(st.floats(0, 0.3)), np.random.default_rng(
            draw(st.integers(0, 2**32))).normal(
                scale=draw(st.sampled_from([1e-300, 1.0, 1e4])),
                size=(80, 2))) for m in modes]
    rows = [list(r) for r in _prediction_rows(agents)]
    plain = draw(st.booleans())
    if not plain:   # another text of a mode index, on one row or its run
        i = draw(st.integers(0, len(rows) - 1))
        mode = int(rows[i][1])
        text = draw(st.sampled_from(
            [f"+{mode}", f" {mode}", f"{mode} ", f"0{mode}",
             "_".join(str(mode)) if mode >= 10 else f"0{mode}"]))
        run = rows[i - i % 80:i - i % 80 + 80]
        for r in (run if draw(st.booleans()) else [rows[i]]):
            r[1] = text
    for i, c in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                        st.sampled_from([4, 5])),
                              max_size=4)):
        rows[i][c] = f" {rows[i][c]} "   # spaces around a number
    order = draw(st.sampled_from(["grouped", "runs", "rows"]))
    if order == "runs":   # each agent's and mode's 80 rows stay together
        runs = [rows[i:i + 80] for i in range(0, len(rows), 80)]
        rows = [r for run in draw(st.permutations(runs)) for r in run]
    elif order == "rows":
        rows = draw(st.permutations(rows))
    plain = plain and order == "grouped"
    if draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), [])   # a blank line
        plain = False
    return rows, plain


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(_prediction_file(), st.sampled_from(["\n", "\r\n"]),
       st.sampled_from([7, 100, 2000, 1 << 16]))
def test_prediction_fast_path_equals_walk(tmp_path, monkeypatch, file,
                                          newline, block):
    # small blocks cut runs of 80 rows, lines and "\r\n" pairs
    monkeypatch.setattr(analysis, "_READ_CHARS", block)
    rows, plain = file
    path = tmp_path / "p.csv"
    _write_prediction_csv(path, rows, newline)
    want = analysis._predictions_walk(path)
    fast = analysis._predictions_fast(path)
    if plain:
        assert fast is not None
    if fast is not None:
        _assert_same_predictions(fast, want)
    _assert_same_predictions(analysis.read_predictions(path), want)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_prediction_fast_path_rejects_what_the_walk_rejects(tmp_path, data):
    rng = np.random.default_rng(0)
    agents = {aid: [(m, 0.25, rng.normal(size=(80, 2))) for m in (0, 2)]
              for aid in ("a#1", "b")}
    lines = ["agent_id,mode_idx,confidence,step,x,y",
             *(",".join(r) for r in _prediction_rows(agents))]
    path = tmp_path / "p.csv"
    path.write_bytes(data.draw(_malformed(lines, [1, 2, 3, 4, 5], True)))
    with pytest.raises(analysis.CsvError) as walk:
        analysis._predictions_walk(path)
    assert analysis._predictions_fast(path) is None
    with pytest.raises(analysis.CsvError) as read:
        analysis.read_predictions(path)
    assert str(read.value) == str(walk.value)


@pytest.mark.parametrize("runs, x, valid", [
    (("a0", "b0", "a1"), None, True),
    (("a1", "a0", "b0"), None, True),
    (("a0", "a0", "b0"), None, False),
    (("a0", "b0", "a1/2"), None, False),
    (("a0", "a1", "b0"), "1_5", True),
    (("a0", "a1", "b0"), "\u0661", True),
    (("a0", "a1", "b0"), "\x1f1.5", False),
    (("a0", "a1", "b0"), "1.5\x1f", False),
], ids=["agent_apart", "modes_falling", "run_twice", "run_cut_short",
        "underscore", "arabic_digit", "unit_separator_before",
        "unit_separator_after"])
def test_prediction_fast_path_leaves_odd_files_to_the_walk(tmp_path, runs, x,
                                                           valid):
    # runs of 80 rows out of order, twice or cut short; and x texts that
    # float() reads but loadtxt does not (underscores, non-ASCII digits),
    # or that loadtxt reads but float() does not ("\x1f" around a number)
    rng = np.random.default_rng(2)
    xy = {run: rng.normal(size=(80, 2)) for run in ("a0", "a1", "b0")}
    rows = []
    for run in runs:
        part = _prediction_rows({run[0]: [(int(run[1]), 0.25, xy[run[:2]])]})
        rows += part[:40] if run.endswith("/2") else part
    rows = [list(r) for r in rows]
    if x is not None:
        rows[7][4] = x
    path = tmp_path / "p.csv"
    _write_prediction_csv(path, rows)
    assert analysis._predictions_fast(path) is None
    if valid:
        _assert_same_predictions(analysis.read_predictions(path),
                                 analysis._predictions_walk(path))
        return
    with pytest.raises(analysis.CsvError) as walk:
        analysis._predictions_walk(path)
    with pytest.raises(analysis.CsvError) as read:
        analysis.read_predictions(path)
    assert str(read.value) == str(walk.value)


def test_canonical_predictions_load_without_the_walk(tmp_path, monkeypatch):
    rng = np.random.default_rng(1)
    agents = {f"agent#{i}": [(m, 0.1, rng.normal(size=(80, 2)) * 50)
                             for m in range(6)] for i in range(40)}
    path = tmp_path / "p.csv"
    _write_prediction_csv(path, _prediction_rows(agents))
    monkeypatch.setattr(analysis, "_READ_CHARS", 4000)

    def no_walk(path):
        raise AssertionError("the fast path fell back to the row walk")

    monkeypatch.setattr(analysis, "_predictions_walk", no_walk)
    preds = analysis.read_predictions(path)
    assert list(preds) == list(agents)
    for aid, modes in agents.items():
        assert np.array_equal(preds[aid].trajectories,
                              np.stack([xy for _, _, xy in modes]))
        assert np.array_equal(preds[aid].confidences, [0.1] * 6)


def test_benchmark_wrap_targets_keep_their_names(tmp_path, monkeypatch):
    # benchmark/tracing.py wraps these by name and binds their arguments by
    # parameter name; a moved or renamed target reads as an absent span
    params = {fn: list(inspect.signature(fn).parameters) for fn in
              (intention._kmeanspp, intention._lloyd, intention._coalesce)}
    assert params == {intention._kmeanspp: ["pts", "weights", "k", "rng"],
                      intention._lloyd: ["pts", "weights", "centers", "cfg"],
                      intention._coalesce: ["points", "weights"]}
    scenes, suite = write_suite(tmp_path, n=1)
    pred = perfect_predictions(tmp_path, suite, "m")
    calls, returned = [], []
    load = cli._load_prediction_csv

    def counting(path):
        calls.append(path)
        preds = load(path)
        returned.append((type(preds), [(type(ps), ps.trajectories.shape)
                                       for ps in preds.values()]))
        return preds

    monkeypatch.setattr(cli, "_load_prediction_csv", counting)
    assert main(["analyze", str(scenes), "--predictions", f"m={pred}",
                 "--window", "1", "-o", str(tmp_path / "out")]) == 0
    assert calls == [str(pred)]
    # cli.prediction_rows sums the (m, 80) rows of every set in the dict
    assert returned == [(dict, [(analysis.PredictionSet, (1, 80, 2))]
                         * len(suite[0].tracks_to_predict))]


def test_analyze_holds_one_prediction_file_at_a_time(tmp_path, monkeypatch):
    """analyze keeps only the minFDEs of each prediction file it reads: at
    every read, no prediction set of an earlier file is alive."""
    scenes, suite = write_suite(tmp_path)
    argv = ["analyze", str(scenes), "--window", "1", "-o", str(tmp_path / "o")]
    for i, name in enumerate(("a", "b", "c")):
        path = perfect_predictions(tmp_path, suite, name, offset=(i, 0.0))
        argv += ["--predictions", f"{name}={path}"]
    refs, alive_at_call = [], []
    load = cli._load_prediction_csv

    def recording(path):
        alive_at_call.append(sum(r() is not None for r in refs))
        preds = load(path)
        refs.extend(weakref.ref(ps) for ps in preds.values())
        return preds

    monkeypatch.setattr(cli, "_load_prediction_csv", recording)
    assert main(argv) == 0
    assert len(refs) == 3 * len(suite) and alive_at_call == [0, 0, 0]


def test_analyze_frees_reach_sets_as_it_goes(tmp_path, monkeypatch):
    """The analyze worker keeps no reach set of a kept target: at every
    scene parse, no reach set from two or more scenes back is alive."""
    scenes, suite = write_suite(tmp_path, n=8)
    pred = perfect_predictions(tmp_path, suite, "m")
    calls, refs, stale = [], [], []
    load, reach = cli._load_scenarios, experiments.reach

    def loading(path):
        stale.extend(n for n, r in refs if r() is not None and n < len(calls))
        calls.append(path)
        return load(path)

    def reaching(*args):
        reach_set = reach(*args)
        refs.append((len(calls), weakref.ref(reach_set)))
        return reach_set

    monkeypatch.setattr(cli, "_load_scenarios", loading)
    monkeypatch.setattr(experiments, "reach", reaching)
    assert main(["analyze", str(scenes), "--predictions", f"m={pred}",
                 "--window", "1", "-o", str(tmp_path / "out")]) == 0
    assert len(calls) == len(refs) == 8 and stale == []


def test_analyze_worker_flush_keeps_outputs(tmp_path, monkeypatch):
    """Clustered two pools at a time, the workers of analyze and of intents
    --kind mixed cluster their dynamic pools in batches within their chunks,
    and the mixed sets are clustered in batches of two; the outputs equal
    the default run at --jobs 1 and 3."""
    scenes, suite = write_suite(tmp_path, n=7)
    pred = perfect_predictions(tmp_path, suite[:-1], "m")

    def run(name, jobs):
        out = tmp_path / name
        assert main(["analyze", str(scenes), "--predictions", f"m={pred}",
                     "--window", "1", "--jobs", jobs, "-o", str(out)]) == 0
        return {f.name: f.read_bytes() for f in out.iterdir()}

    def run_intents(name, jobs):
        out, dump = tmp_path / f"{name}.csv", tmp_path / f"{name}_reach.csv"
        assert main(["intents", str(scenes), "--kind", "mixed",
                     "--dump-roadgraph", str(dump), "--jobs", jobs,
                     "-o", str(out)]) == 0
        return out.read_bytes(), dump.read_bytes()

    want, want_intents = run("default", "1"), run_intents("default", "1")
    monkeypatch.setattr(intention, "_CLUSTER_BLOCK", 2)
    assert len(want) == 3
    assert run("two1", "1") == run("two3", "3") == want
    assert (run_intents("two1", "1") == run_intents("two3", "3")
            == want_intents)


@pytest.mark.parametrize("name", ["", "a,b", "a\rb", "a\n", "\r"])
def test_analyze_bad_model_name_exits_2(tmp_path, capsys, name):
    scenes, suite = write_suite(tmp_path, n=1)
    pred = perfect_predictions(tmp_path, suite, "m")
    out = tmp_path / "out"
    assert main(["analyze", str(scenes), "--predictions", f"{name}={pred}",
                 "--window", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: prediction model name")
    assert not out.exists()


@pytest.mark.parametrize("predictions", [
    [], ["m"], ["a,b=p.csv"], ["m=p.csv", "m=q.csv"]],
    ids=["absent", "no_path", "bad_name", "duplicate_name"])
def test_analyze_usage_errors_come_before_reading_scenarios(
        tmp_path, capsys, predictions):
    argv = ["analyze", str(tmp_path / "missing"), "-o", str(tmp_path / "o")]
    for spec in predictions:
        argv += ["--predictions", spec]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# -- malformed scenario files -----------------------------------------------------

def _scene_argv(command, scenes, tmp_path, endpoints=None):
    argv = [command, str(scenes), "-o", str(tmp_path / "out.csv")]
    if command == "intents":
        argv += ["--kind", "dynamic"]
        if endpoints:
            argv += ["--endpoints", str(endpoints)]
    return argv


@pytest.mark.parametrize("command", ["dump-roadgraph", "intents"])
@pytest.mark.parametrize("field, where", [
    ("node", "map.segments[0].nodes[0][0]"),
    ("length_m", "tracks[0].length_m"),
])
def test_integer_beyond_float_range_exits_1_with_one_line(
        tmp_path, capsys, command, field, where):
    scenes, _ = write_suite(tmp_path, n=1)
    path = next(scenes.glob("*.json"))
    obj = json.loads(path.read_bytes())
    if field == "node":
        obj["map"]["segments"][0]["nodes"][0][0] = HUGE
    else:
        obj["tracks"][0]["length_m"] = HUGE
    path.write_text(json.dumps(obj))
    assert main(_scene_argv(command, scenes, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}: {where}: number out of float range")


@pytest.mark.parametrize("command", ["dump-roadgraph", "intents"])
@pytest.mark.parametrize("field", ["scenario_id", "agent_id"])
@pytest.mark.parametrize("char", [",", "\r", "\n"], ids=["comma", "CR", "LF"])
def test_id_with_comma_or_line_break_exits_1_with_one_line(
        tmp_path, capsys, command, field, char):
    # an id is a field of every output CSV: it would split a row
    scenes, _ = write_suite(tmp_path, n=1)
    path = next(scenes.glob("*.json"))
    obj = json.loads(path.read_bytes())
    bad = f"x{char}y"
    if field == "scenario_id":
        obj["scenario_id"], where = bad, "scenario_id"
    else:
        i = [t["agent_id"] for t in obj["tracks"]].index(
            obj["tracks_to_predict"][0])
        obj["tracks"][i]["agent_id"] = obj["tracks_to_predict"][0] = bad
        where = f"tracks[{i}].agent_id"
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaViolation):
        parse_scenario(path.read_bytes())
    assert main(_scene_argv(command, scenes, tmp_path)) == 1
    assert capsys.readouterr().err == \
        f"error: {path}: {where}: expected no comma or line break\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["dump-roadgraph", "intents"])
def test_integer_beyond_digit_limit_exits_1_with_one_line(tmp_path, capsys,
                                                           command):
    scenes, _ = write_suite(tmp_path, n=1)
    path = next(scenes.glob("*.json"))
    obj = json.loads(path.read_bytes())
    obj["tracks"][0]["width_m"] = "@"
    path.write_text(json.dumps(obj).replace('"@"', OVER_DIGIT_LIMIT))
    assert main(_scene_argv(command, scenes, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}: invalid JSON: ")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_scene())
def test_mutated_scenario_exits_1_and_never_raises(tmp_path, case):
    data, _ = case
    scenes = tmp_path / "scenes"
    scenes.mkdir(exist_ok=True)
    (scenes / "scene.json").write_bytes(data)
    endpoints = tmp_path / "endpoints.csv"
    endpoints.write_text("class,x,y\n" + "".join(
        f"vehicle,{x:.1f},{x / 10:.1f}\n" for x in range(10, 20)))
    try:
        parse_scenario(data)
        expected = 0
    except ScenarioError:
        expected = 1
    for command in ("dump-roadgraph", "intents"):
        assert main(_scene_argv(command, scenes, tmp_path, endpoints)) \
            == expected


# -- dump-roadgraph -------------------------------------------------------------------

def test_dump_roadgraph_subcommand(tmp_path):
    scenes, _ = write_suite(tmp_path, n=2, seed=9)
    out = tmp_path / "rg.csv"
    assert main(["dump-roadgraph", str(scenes), "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["scenario_id", "agent_id", "x", "y", "arrival_s"]
    assert len(rows) > 100
    keys = [(r["scenario_id"], r["agent_id"], float(r["arrival_s"])) for r in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize("kind", ["dynamic", "mixed"])
def test_dump_roadgraph_matches_intents_dump(tmp_path, kind, jobs):
    scenes, _ = write_suite(tmp_path, n=6, seed=1,
                            behaviors=("follow_lane", "offroad_parking"))
    dump, intents_dump = tmp_path / "rg.csv", tmp_path / "intents_rg.csv"
    assert main(["dump-roadgraph", str(scenes), "--jobs", jobs,
                 "-o", str(dump)]) == 0
    assert main(["intents", str(scenes), "--kind", kind, "--jobs", jobs,
                 "--dump-roadgraph", str(intents_dump),
                 "-o", str(tmp_path / "i.csv")]) == 0
    assert dump.read_bytes() == intents_dump.read_bytes()


# in arrival order: arrival times that print alike while the raw (x, y)
# order is reversed, x of 0.0, -0.0 and -1e-9, and two targets of one
# scene listed out of id order
_TIED_TIMES = np.array([0.0, 0.0, 0.0, 1.0000001, 1.0000002, 1.0000004,
                        1.0000006, 2.5, 2.5, 2.5])
_TIED_XY = np.array([[3.0, 1.0], [0.0, 2.0], [-0.0, 1.0], [-1e-9, 5.0],
                     [0.0, 5.0], [-0.0, 4.0], [-3.0, 0.0], [2.0000004, -0.0],
                     [2.0000001, -1e-9], [1.9999996, 7.0]])
_TIED_SETS = [("s1", "b", _TIED_XY, _TIED_TIMES),
              ("s1", "a", _TIED_XY[::-1].copy(), _TIED_TIMES),
              ("s0", "c", _TIED_XY[:4].copy(), _TIED_TIMES[:4])]


def test_reach_writer_matches_global_sort_on_tied_rows(tmp_path):
    out = tmp_path / "rg.csv"
    cli._write_reach_csv(out, [([], _TIED_SETS[:2], []),
                               ([], _TIED_SETS[2:], [])])
    want = reach_csv_reference(_TIED_SETS)
    assert out.read_text() == want
    # the tied rows are reordered, and -0.000000 is printed for -1e-9 only
    assert "s1,b,-0.000000,5.000000,1.000000\ns1,b,0.000000,5.000000," in want
    assert want.count("-0.000000") == sum(int((xy == -1e-9).sum())
                                          for _, _, xy, _ in _TIED_SETS)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.5]),
                          st.sampled_from([0.0, 1e-7, 4e-7, 5e-7, 6e-7]),
                          st.sampled_from([0.0, -0.0, -1e-9, 1.0, 1.0000003]),
                          st.sampled_from([0.0, -0.0, 2.0, -1e-9])),
                min_size=1, max_size=40))
def test_reach_writer_matches_global_sort_on_random_ties(tmp_path, rows):
    rows = sorted(rows, key=lambda r: r[0] + r[1])   # arrival order
    times = np.array([r[0] + r[1] for r in rows])
    positions = np.array([r[2:] for r in rows])
    sets = [("s", "a", positions, times)]
    cli._write_reach_csv(tmp_path / "rg.csv", [([], sets, [])])
    assert (tmp_path / "rg.csv").read_text() == reach_csv_reference(sets)


def _two_target_scene(scenes):
    # two targets on one lane, listed out of id order in the file
    tracks = [vehicle_track((60.0, 0.0), agent_id="two-z"),
              vehicle_track((20.0, 0.0), agent_id="two-a")]
    obj = json.loads(write_scenario(scenario_of(straight_map(), tracks,
                                                scenario_id="two")))
    obj["tracks_to_predict"] = ["two-z", "two-a"]
    (scenes / "two.json").write_text(json.dumps(obj))


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_dump_roadgraph_matches_global_sort(tmp_path, jobs):
    scenes, _ = write_suite(tmp_path, n=12, seed=0, behaviors=BEHAVIORS)
    _two_target_scene(scenes)
    out = tmp_path / "rg.csv"
    assert main(["dump-roadgraph", str(scenes), "--jobs", jobs,
                 "-o", str(out)]) == 0
    sets = [(s.scenario_id, r.track.agent_id, r.reach_set.positions,
             r.reach_set.arrival_times)
            for s in map(parse_scenario, map(Path.read_bytes,
                                             scenes.glob("*.json")))
            for r in experiments.run_scene(s) if r.reach_set is not None]
    want = reach_csv_reference(sets)
    assert out.read_text() == want
    assert {"two-a", "two-z"} <= {aid for _, aid, _, _ in sets}
    # some rows of one printed arrival time leave their arrival order
    in_arrival_order = "".join(
        f"{sid},{aid},{fmt_float_reference(x)},{fmt_float_reference(y)},"
        f"{fmt_float_reference(t)}\n"
        for sid, aid, positions, times in sorted(sets, key=lambda r: r[:2])
        for (x, y), t in zip(positions.tolist(), times.tolist()))
    assert want.partition("\n")[2] != in_arrival_order


def test_intents_rows_print_like_fmt_float(tmp_path, monkeypatch):
    scenes, _ = write_suite(tmp_path, n=1)
    points = np.array([[0.0, -0.0], [-1e-9, 1e-9], [2.5000005, -2.5000005],
                       [1e6 / 3, -7.0]])

    def rows(targets, kind, static_sets, cfg):
        return [("a", "static", points[::-1], "1"), ("b", kind, points, "0")]

    monkeypatch.setattr(cli, "intent_rows", rows)
    out = tmp_path / "i.csv"
    assert main(["intents", str(scenes), "--kind", "dynamic",
                 "-o", str(out)]) == 0
    want = ["agent_id,kind,idx,x,y,fallback"] + [
        ",".join((aid, kind, str(i), *map(fmt_float_reference, xy), fb))
        for aid, kind, pts, fb in [("a", "static", points[::-1], "1"),
                                   ("b", "dynamic", points, "0")]
        for i, xy in enumerate(pts.tolist())]
    assert out.read_text() == "\n".join(want) + "\n"
    values = [*points.ravel().tolist(), float("inf"), float("nan"), 5]
    assert [cli._fmt_float(v) for v in values] == \
        [fmt_float_reference(v) for v in values]


def test_reach_csv_is_streamed(tmp_path, monkeypatch):
    # the peak of traced memory inside the writer stays below the size of
    # the file it writes: no call holds the whole file
    scenes = tmp_path / "scenes"
    assert main(["gen", "--suite", "60", "--seed", "0",
                 "-o", str(scenes)]) == 0
    write, peaks = cli._write_csv, []

    def traced(path, header, rows):
        tracemalloc.start()
        try:
            write(path, header, rows)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write_csv", traced)
    out = tmp_path / "rg.csv"
    assert main(["dump-roadgraph", str(scenes), "-o", str(out)]) == 0
    assert len(peaks) == 1 and out.stat().st_size > 500_000
    assert peaks[0] < out.stat().st_size


@pytest.mark.parametrize("command", ["intents", "analyze", "dump-roadgraph"])
def test_outputs_and_stderr_jobs_invariant(tmp_path, capsys, command):
    # 7 scenes cut into uneven chunks at --jobs 2 and 3; off-road scenes in
    # two of the chunks, so dump-roadgraph's notes come from several
    # workers, and one scene without predictions, so analyze warns
    scenes, suite = write_suite(tmp_path, n=7, seed=40,
                                behaviors=("follow_lane", "offroad_parking"))
    pred = perfect_predictions(tmp_path, suite[:-1], "m")
    seen = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"out{jobs}"
        out.mkdir()
        argv = {"intents": ["intents", str(scenes), "--kind", "mixed",
                            "-o", str(out / "i.csv")],
                "analyze": ["analyze", str(scenes), "--predictions",
                            f"m={pred}", "--window", "1", "-o", str(out)],
                "dump-roadgraph": ["dump-roadgraph", str(scenes),
                                   "-o", str(out / "rg.csv")]}[command]
        assert main([*argv, "--jobs", jobs]) == 0
        seen.append((capsys.readouterr().err,
                     {f.name: f.read_bytes() for f in out.iterdir()}))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][0] or command == "intents"
    if command == "dump-roadgraph":
        assert seen[0][0].count("note: ") == 4


def test_batched_outputs_equal_one_agent_calls_at_any_jobs(tmp_path):
    """intents and analyze cluster the agents of a run together; their
    rows equal one-agent dynamic_intents / mixed_intents calls, and --jobs
    3 over 7 scenes (chunks of uneven size) writes the bytes of --jobs 1."""
    scenes, suite = write_suite(tmp_path, n=7, seed=6, behaviors=BEHAVIORS)
    pred = perfect_predictions(tmp_path, suite, "m")
    static = experiments.pooled_static(suite)
    kcfg, mix = KMeansConfig(), MixConfig()

    def fmt(v):
        return f"{v + 0.0:.6f}"

    want = {"dynamic": [], "mixed": []}
    for scenario in suite:
        for track, _, reach_set in experiments.run_scene(scenario):
            if reach_set is None:
                sets = dict.fromkeys(want, ("static", static, "1"))
            else:
                dyn = dynamic_intents(reach_set, track, kcfg)
                sets = {"dynamic": ("dynamic", dyn, "0"), "mixed": (
                    "mixed", mixed_intents(dyn, static, mix, kcfg), "0")}
            for kind, (kind_out, points, fallback) in sets.items():
                want[kind] += [
                    [track.agent_id, kind_out, str(i), fmt(x), fmt(y),
                     fallback] for i, (x, y) in enumerate(points.points)]
    reach_sets = {track.agent_id: reach_set for scenario in suite
                  for track, _, reach_set in experiments.run_scene(scenario)}
    cov = []
    for track, *_ in experiments.filter_dataset(suite)[0]:
        end = experiments.agent_frame_endpoint(track)
        dyn = dynamic_intents(reach_sets[track.agent_id], track, kcfg)
        cov += [[track.agent_id, kind, fmt(coverage(points, end))]
                for kind, points in (
                    ("static", static), ("dynamic", dyn),
                    ("mixed", mixed_intents(dyn, static, mix, kcfg)))]
    fallbacks = sum(row[5] == "1" for row in want["mixed"]) // kcfg.k
    assert 0 < fallbacks < len(want["mixed"]) // kcfg.k

    outputs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"out{jobs}"
        out.mkdir()
        for kind in want:
            assert main(["intents", str(scenes), "--kind", kind, "--jobs",
                         jobs, "-o", str(out / f"{kind}.csv")]) == 0
            rows = [ln.split(",") for ln in
                    (out / f"{kind}.csv").read_text().splitlines()[1:]]
            assert rows == sorted(want[kind], key=lambda r: r[0])
        assert main(["analyze", str(scenes), "--predictions", f"m={pred}",
                     "--window", "1", "--jobs", jobs, "-o", str(out)]) == 0
        rows = [ln.split(",") for ln in
                (out / "coverage.csv").read_text().splitlines()[1:]]
        assert rows == sorted(cov, key=lambda r: (r[0], r[1]))
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("kind", ["dynamic", "mixed"])
def test_intents_without_vehicle_targets_write_static_fallbacks(
        tmp_path, kind, jobs):
    """Only vehicles get a reach set: scenes whose targets are all
    pedestrians or cyclists give every target its class's static points,
    flagged as fallbacks, with no vehicle set to mix with."""
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    suite = [scenario_of(straight_map(), [
        vehicle_track((20.0 + 10 * i, 0.0), speed=1.5, agent_id=f"{cls}{i}",
                      object_class=cls),
        vehicle_track((60.0, 0.0), agent_id=f"car{i}")],
        predict=[f"{cls}{i}"], scenario_id=f"s{i}")
        for i, cls in enumerate(["pedestrian", "cyclist", "pedestrian"])]
    for s in suite:
        (scenes / f"{s.scenario_id}.json").write_bytes(write_scenario(s))
    out = tmp_path / "intents.csv"
    assert main(["intents", str(scenes), "--kind", kind, "--jobs", jobs,
                 "-o", str(out)]) == 0
    _, rows = read_csv(out)
    want = []
    for i, cls in enumerate(["pedestrian", "cyclist", "pedestrian"]):
        static = experiments.pooled_static(suite, cls)
        want += [(f"{cls}{i}", "static", str(j), f"{x + 0.0:.6f}",
                  f"{y + 0.0:.6f}", "1")
                 for j, (x, y) in enumerate(static.points)]
    assert [tuple(r.values()) for r in rows] == sorted(want,
                                                       key=lambda r: r[0])


@pytest.mark.parametrize("jobs", ["0", "-4"])
@pytest.mark.parametrize("command", ["intents", "analyze", "dump-roadgraph"])
def test_jobs_below_one_exits_2_before_reading_scenarios(tmp_path, capsys,
                                                         command, jobs):
    missing = str(tmp_path / "no_such_dir")
    argv = {"intents": ["intents", missing, "--kind", "mixed"],
            "analyze": ["analyze", missing, "--predictions", "m=p.csv"],
            "dump-roadgraph": ["dump-roadgraph", missing]}[command]
    assert main([*argv, "--jobs", jobs, "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: --jobs must be >= 1\n"


def test_pmap_starts_no_more_workers_than_items(tmp_path, monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    scenes, suite = write_suite(tmp_path, n=3)
    one = scenes / f"{suite[0].scenario_id}.json"
    for inputs, jobs, expected in ((scenes, "8", [3]), (scenes, "2", [2]),
                                   (scenes, "1", []), (one, "8", [])):
        started.clear()
        assert main(["dump-roadgraph", str(inputs), "--jobs", jobs,
                     "-o", str(tmp_path / "rg.csv")]) == 0
        assert started == expected


_CONFIG_FLAGS = {"--config", "--jobs", "--seed", "--k", "--max-iterations",
                 "--tolerance", "--heading-threshold", "--proximity-limit",
                 "--backwards-look", "--time-budget", "--speed-offset",
                 "--dynamic-weight", "--static-weight"}


def test_option_strings_and_config_keys_are_pinned():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in p._actions for o in a.option_strings}
               for name, p in sub.choices.items()}
    common = {"-h", "--help", "-o", "--out"}
    assert options == {
        "gen": common | {"--template", "--behavior", "--seed",
                         "--speed-limit", "--suite"},
        "intents": common | _CONFIG_FLAGS | {"--kind", "--endpoints",
                                             "--dump-roadgraph"},
        "analyze": common | _CONFIG_FLAGS | {"--predictions", "--window",
                                             "--deviation-mode",
                                             "--exclude-parked"},
        "dump-roadgraph": common | _CONFIG_FLAGS,
    }
    assert cli._DEFAULTS == {
        "heading_threshold": np.pi / 4, "proximity_limit": 5.0,
        "backwards_look": 10.0, "time_budget": 8.0, "speed_offset": 6.7056,
        "k": 64, "max_iterations": 100, "tolerance": 1e-6, "seed": 0,
        "dynamic_weight": 3.0, "static_weight": 1.0, "window": 7500,
        "deviation_mode": "node", "exclude_parked": False,
    }


# -- streamed scenes and atomic outputs ------------------------------------------

def _files(d):
    return sorted(p.name for p in d.iterdir())


def test_no_output_is_left_behind_on_exit_1(tmp_path, capsys):
    scenes, suite = write_suite(tmp_path, n=3)
    out = tmp_path / "out"
    out.mkdir()
    missing = tmp_path / "missing" / "r.csv"
    assert main(["intents", str(scenes), "--kind", "dynamic",
                 "-o", str(out / "o.csv"), "--dump-roadgraph",
                 str(missing)]) == 1
    assert capsys.readouterr().err == \
        f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert _files(out) == []
    # analyze fails at its last file: the first two are not left either
    (out / "coverage.csv").mkdir()
    pred = perfect_predictions(tmp_path, suite, "m")
    assert main(["analyze", str(scenes), "--predictions", f"m={pred}",
                 "--window", "1", "-o", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: [Errno 21] Is a directory: '{out / 'coverage.csv'}'\n"
    assert _files(out) == ["coverage.csv"]
    (out / "coverage.csv").rmdir()
    # on success only the outputs exist: no temporary file survives
    assert main(["intents", str(scenes), "--kind", "dynamic",
                 "-o", str(out / "o.csv"), "--dump-roadgraph",
                 str(out / "r.csv")]) == 0
    assert main(["analyze", str(scenes), "--predictions", f"m={pred}",
                 "--window", "1", "-o", str(out)]) == 0
    assert main(["dump-roadgraph", str(scenes), "-o", str(out / "d.csv")]) == 0
    assert _files(out) == ["coverage.csv", "d.csv", "deviation_curve.csv",
                           "filter_report.csv", "o.csv", "r.csv"]
    assert (out / "d.csv").read_bytes() == (out / "r.csv").read_bytes()


def test_errors_and_notes_are_jobs_invariant(tmp_path, capsys):
    """Scene files named in the reverse of their scenario-id order: a bad
    file wins over duplicate agent ids, the first bad file in path order
    wins, then the first duplicate in scenario-id order; dump-roadgraph's
    notes come in scenario-id order. Stderr and exit codes are equal at
    --jobs 1, 2 and 3, and no output file is written on an error."""
    suite = sorted(generate_suite(5, seed=3) + generate_suite(
        3, seed=4, behaviors=("offroad_parking",)),
                   key=lambda s: s.scenario_id)
    clean = [json.loads(write_scenario(s)) for s in suite]
    names = [f"{len(suite) - i:02d}.json" for i in range(len(suite))]
    scenes = tmp_path / "scenes"
    # scenes 2 and 5 take the agent ids of scenes 0 and 3
    dup = json.loads(json.dumps(clean))
    for a, b in ((0, 2), (3, 5)):
        aid = dup[b]["tracks_to_predict"][0] = dup[a]["tracks"][0]["agent_id"]
        dup[b]["tracks"][0]["agent_id"] = aid

    def run(command, objs, bad=()):
        scenes.mkdir(exist_ok=True)
        for i, (name, obj) in enumerate(zip(names, objs)):
            (scenes / name).write_text("{" if i in bad else json.dumps(obj))
        seen = set()
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"out{jobs}"
            out.mkdir(exist_ok=True)
            rc = main([command, str(scenes), "--jobs", jobs, "-o",
                       str(out / "o.csv")] + (
                ["--kind", "mixed"] if command == "intents" else []))
            seen.add((rc, capsys.readouterr().err, tuple(_files(out))))
        assert len(seen) == 1
        return seen.pop()

    for command in ("intents", "dump-roadgraph"):
        # scenes 6 and 1 are bad; 6's file sorts first
        rc, err, files = run(command, dup, bad=(1, 6))
        assert (rc, files) == (1, ())
        assert err.startswith(f"error: {scenes / names[6]}: ")
        assert run(command, dup) == (1, (
            f"error: agent id {dup[0]['tracks'][0]['agent_id']!r} appears "
            f"in more than one scenario\n"), ())
    assert run("dump-roadgraph", clean) == (0, "".join(
        f"note: {s.tracks_to_predict[0]} has no lane association; skipped\n"
        for s in suite if "offroad" in s.scenario_id), ("o.csv",))
    assert sum("offroad" in s.scenario_id for s in suite) == 3


def test_one_parsed_scene_is_alive_per_worker(tmp_path, monkeypatch):
    """Each scene the CLI parses or generates is freed before the one after
    next: at every parse at most one earlier scene is alive."""
    refs, alive_at_call = [], []

    def recording(fn):
        def wrapper(*args):
            alive_at_call.append(sum(r() is not None for r in refs))
            scenario = fn(*args)
            refs.append(weakref.ref(scenario))
            return scenario
        return wrapper

    monkeypatch.setattr(scenario_gen, "generate",
                        recording(scenario_gen.generate))
    scenes = tmp_path / "scenes"
    assert main(["gen", "--suite", "30", "--seed", "1", "-o",
                 str(scenes)]) == 0
    assert len(refs) == 30 and max(alive_at_call) <= 1
    monkeypatch.undo()
    suite = [parse_scenario(p.read_bytes())
             for p in sorted(scenes.glob("*.json"))]
    pred = perfect_predictions(tmp_path, suite, "m")
    del suite
    monkeypatch.setattr(cli, "_load_scenarios",
                        recording(cli._load_scenarios))
    for argv in (["intents", str(scenes), "--kind", "mixed", "-o",
                  str(tmp_path / "i.csv")],
                 ["dump-roadgraph", str(scenes), "-o", str(tmp_path / "r.csv")],
                 ["analyze", str(scenes), "--predictions", f"m={pred}",
                  "--window", "1", "-o", str(tmp_path / "an")]):
        refs.clear()
        alive_at_call.clear()
        assert main(argv) == 0
        assert len(refs) == 30 and max(alive_at_call) <= 1
