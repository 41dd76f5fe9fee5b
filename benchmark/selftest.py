"""Self-tests of the benchmark: the checkers catch corrupted outputs, and a
small smoke run of every workload passes at another seed.

    python3 -m pytest benchmark/selftest.py -q

Run from the root of a source checkout. The file is not named ``test_*`` so
that the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from yardstick import Yardstick  # noqa: E402

SEED = 7
SMALL = {"suite_mixed": {"n_scenes": 12},
         "suite_roadgraph": {"n_scenes": 12},
         "suite_analyze": {"n_scenes": 12, "window": 3},
         "bigmap_online": {"n_queries": 4}}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """One small, already checked run of a workload, built on first use."""
    made = {}

    def get(name):
        if name not in made:
            cls = workloads.WORKLOADS[name]
            wl = cls(name, SEED, tmp_path_factory.mktemp(name), Yardstick(),
                     **SMALL[name])
            wl.setup(0)
            wl.prepare()
            assert wl.run_phase(0)[2] == 0
            attempted, failed, problems = wl.check()
            assert attempted > 0 and not failed, problems
            made[name] = wl
        return made[name]
    return get


def failed_frac_with(wl, filename, corrupt, tmp_path):
    """Check a copy of the workload's output with one file corrupted."""
    copies = []
    for p in wl.outputs:
        q = tmp_path / p.name
        text = p.read_text()
        q.write_text(corrupt(text) if p.name == filename else text)
        copies.append(q)
    original, wl.outputs = wl.outputs, copies
    try:
        attempted, failed, _ = wl.check()
    finally:
        wl.outputs = original
    return len(failed) / attempted


def edit_cell(line_no, column, value):
    def corrupt(text):
        lines = text.splitlines()
        cells = lines[line_no].split(",")
        cells[column] = value
        lines[line_no] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return corrupt


def drop_line(line_no):
    def corrupt(text):
        lines = text.splitlines()
        del lines[line_no]
        return "\n".join(lines) + "\n"
    return corrupt


def test_mixed_dropped_row(good, tmp_path):
    wl = good("suite_mixed")
    assert failed_frac_with(wl, "mixed.csv", drop_line(5), tmp_path) > 0


def test_mixed_nan_coordinate(good, tmp_path):
    wl = good("suite_mixed")
    assert failed_frac_with(wl, "mixed.csv", edit_cell(5, 3, "nan"),
                            tmp_path) > 0


def test_roadgraph_arrival_above_budget(good, tmp_path):
    wl = good("suite_roadgraph")
    lines = wl.outputs[0].read_text().splitlines()
    first_agent = lines[1].split(",")[1]
    last = max(i for i, ln in enumerate(lines)
               if ln.split(",")[1] == first_agent)
    late = edit_cell(last, 4, "8.500000")
    assert failed_frac_with(wl, "roadgraph.csv", late, tmp_path) > 0


def test_roadgraph_dropped_start_row(good, tmp_path):
    wl = good("suite_roadgraph")
    assert failed_frac_with(wl, "roadgraph.csv", drop_line(1), tmp_path) > 0


def test_analyze_nonzero_minfde_gt(good, tmp_path):
    wl = good("suite_analyze")
    header = next(p for p in wl.outputs if p.name == "deviation_curve.csv")
    gt_col = header.read_text().splitlines()[0].split(",").index("minfde_gt")
    assert failed_frac_with(wl, "deviation_curve.csv",
                            edit_cell(1, gt_col, "0.100000"), tmp_path) > 0


def test_analyze_dropped_coverage_row(good, tmp_path):
    wl = good("suite_analyze")
    assert failed_frac_with(wl, "coverage.csv", drop_line(2), tmp_path) > 0


def test_online_nan_point_and_late_arrival(good):
    wl = good("bigmap_online")
    aid, points, arrivals = wl.results[0]
    bad_points = points.copy()
    bad_points[3, 0] = np.nan
    late = arrivals.copy()
    late[-1] = 8.5
    for corrupted in ((aid, bad_points, arrivals), (aid, points, late)):
        original = list(wl.results)
        wl.results[0] = corrupted
        try:
            attempted, failed, _ = wl.check()
        finally:
            wl.results = original
        assert len(failed) / attempted > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(SMALL))
def test_smoke_run(name, trace, tmp_path):
    res = run.run_workload(name, SEED, 0.1, trace, tmp_path / "work",
                           **SMALL[name])
    assert res["correct"] and res["failed"] == 0, res["problems"]
    assert len(res["output_digests"]) == 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    assert [m["unit"] for m in res["metrics"].values()] == \
        [m["unit"] for m in spec]
    values = {k: v["value"] for k, v in res["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    # the bypass predictions hold as exact counts
    if name == "suite_roadgraph":
        assert values["intention.weighted_kmeans_calls"] == 0
    if name == "bigmap_online":
        assert values["map_model.parse_calls"] == 0
    if name != "suite_analyze":
        assert values["cli.prediction_rows"] == 0
    else:
        assert values["cli.prediction_rows"] > 0


def test_absent_wrap_target_is_reported(monkeypatch, tmp_path):
    gone = ("intention.gone", "intentforge.intention", "_no_such_helper", None)
    monkeypatch.setattr(tracing, "TARGETS", [*tracing.TARGETS, gone])
    res = run.run_workload("bigmap_online", SEED, 0.1, 1, tmp_path / "work",
                           n_queries=2)
    assert res["correct"]
    assert res["tracer"].absent == ["intention.gone"]


def test_spec_lists_every_per_layer_metric():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "results",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "suite_mixed",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
