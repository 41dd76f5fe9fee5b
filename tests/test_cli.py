import json

import numpy as np
import pytest

from intentforge.cli import main
from intentforge.intention import from_agent_frame
from intentforge.map_model import (parse_scenario, point_to_polyline_distance,
                                   write_scenario)
from intentforge.scenario_gen import generate_suite


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
            for step in range(80):
                x = track.future[step].x + offset[0]
                y = track.future[step].y + offset[1]
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


def test_gen_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("INTENTFORGE_SEED", "7")
    assert main(["gen", "--template", "straight", "-o",
                 str(tmp_path / "env")]) == 0
    monkeypatch.delenv("INTENTFORGE_SEED")
    assert main(["gen", "--template", "straight", "--seed", "7", "-o",
                 str(tmp_path / "flag")]) == 0
    env_files = sorted((tmp_path / "env").glob("*.json"))
    flag_files = sorted((tmp_path / "flag").glob("*.json"))
    assert [f.name for f in env_files] == [f.name for f in flag_files]
    assert env_files[0].read_bytes() == flag_files[0].read_bytes()


def test_gen_suite(tmp_path):
    assert main(["gen", "--suite", "5", "--seed", "3",
                 "-o", str(tmp_path / "s")]) == 0
    assert len(list((tmp_path / "s").glob("*.json"))) == 5


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


@pytest.mark.parametrize("extra", [
    {"k": "64"},
    ["--time-budget", "nan"],
    ["--tolerance", "nan"],
    ["--max-iterations", "0"],
    ["--dynamic-weight", "inf"],
    ["--seed", "-1"],
    ["--proximity-limit", "inf"],
    {"deviation_mode": "bogus"},
], ids=["config_k_string", "time_budget_nan", "tolerance_nan",
        "max_iterations_0", "dynamic_weight_inf", "seed_negative",
        "proximity_limit_inf", "config_deviation_mode"])
def test_intents_bad_config_value_exits_2_with_one_line(tmp_path, capsys,
                                                        extra):
    scenes, _ = write_suite(tmp_path, n=1)
    if isinstance(extra, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(extra))
        extra = ["--config", str(cfg)]
    out = tmp_path / "o.csv"
    assert main(["intents", str(scenes), "--kind", "mixed", *extra,
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config violation") and err.count("\n") == 1
    assert not out.exists()


# -- analyze ------------------------------------------------------------------------

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
