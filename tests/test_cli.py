import argparse
import hashlib
import inspect
import json
import os
import runpy
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
from intentforge.map_model import (ScenarioError, VectorMap, parse_scenario,
                                   write_scenario)
from intentforge.scenario_gen import BEHAVIORS, iter_suite
from test_experiments import _SCRIPT_PINS

REPO = Path(__file__).resolve().parent.parent


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def write_suite(tmp_path, n=6, seed=0, behaviors=("follow_lane",),
                suite=None):
    """Writes ``suite``, by default ``iter_suite(n, seed, behaviors)``, one
    file per scene under tmp_path/scenes; returns the directory and suite."""
    d = tmp_path / "scenes"
    d.mkdir(exist_ok=True)
    if suite is None:
        suite = list(iter_suite(n, seed=seed, behaviors=behaviors))
    for s in suite:
        (d / f"{s.scenario_id}.json").write_bytes(write_scenario(s))
    return d, suite


def perfect_predictions(tmp_path, suite, name, offset=(0.0, 0.0),
                        confidences=(1.0,)):
    """Ground truth of every target plus ``offset``, once per confidence."""
    lines = ["agent_id,mode_idx,confidence,step,x,y"]
    for scenario in suite:
        for aid in scenario.tracks_to_predict:
            xy = scenario.track(aid).future_xy + offset
            lines += [f"{aid},{mode},{conf},{step},{x:.6f},{y:.6f}"
                      for mode, conf in enumerate(confidences)
                      for step, (x, y) in enumerate(xy.tolist())]
    path = tmp_path / f"pred_{name}.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


# -- the output contract: one table, one harness ------------------------------

@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """What the ``_OUTPUTS`` rows name: ``s20``, ``gen --suite 20 --seed
    0``, with prediction files ``s20_exact`` and ``s20_shifted``; ``s3``,
    three follow-lane scenes of seed 0; and ``s40``, seven scenes of seed
    40 cut into uneven chunks at --jobs 2 and 3, with off-road scenes in
    two chunks, prediction file ``s40_pred`` missing the last scene and
    ``s40_endpoints``, the endpoints of those seven scenes as a CSV."""
    root = tmp_path_factory.mktemp("corpora")
    s20 = root / "s20"
    assert main(["gen", "--suite", "20", "--seed", "0", "-o", str(s20)]) == 0
    suite = [parse_scenario(p.read_bytes())
             for p in sorted(s20.glob("*.json"))]
    names = {"s20": s20,
             "s20_exact": perfect_predictions(root, suite, "exact"),
             "s20_shifted": perfect_predictions(root, suite, "shifted",
                                                (1.5, -0.5))}
    for name, n, seed, behaviors in [
            ("s3", 3, 0, ("follow_lane",)),
            ("s40", 7, 40, ("follow_lane", "offroad_parking"))]:
        (root / name).mkdir()
        names[name], suite = write_suite(root / name, n, seed, behaviors)
    names["s40_pred"] = perfect_predictions(root / "s40", suite[:-1], "m")
    names["s40_endpoints"] = root / "s40" / "endpoints.csv"
    names["s40_endpoints"].write_text("class,x,y\n" + "".join(
        f"{cls},{x!r},{y!r}\n" for scenario in suite for cls, xy
        in experiments.class_endpoints(scenario).items()
        for x, y in xy.tolist()))
    return names


_ROADGRAPH_PIN = ("e02fe8bc9d8e7476157cf41fca99662a"
                  "8c371b3aab8802470907bbe6ab257156")
_MIXED_PIN = ("85b6adc7b445400fd70edcbf3620beaf"
              "659349f60c2966af15a30980eeeff1e7")


def _notes(*seeds):
    """dump-roadgraph's stderr over off-road parking scenes of these seeds."""
    return "".join(f"note: parking_adjacent-offroad_parking-s{seed}#0 has no "
                   f"lane association; skipped\n" for seed in seeds)


# (case, command line, stdout, stderr, pin): the words of the command line
# and stdout are formatted with the ``corpora`` names and ``out``, the
# directory the command writes into; the pin is the sha256 of name + NUL +
# bytes over the sorted files of ``out``.
_OUTPUTS = [
    ("gen_template", "gen --template uturn_split --seed 0 -o {out}",
     "wrote 1 scenario file(s) to {out}\n", "",
     "5340e4d9e2f5cf8bac944470d8a56a4ff65df05291637d643333648c2ddc27ef"),
    ("gen_suite_500", "gen --suite 500 --seed 0 -o {out}",
     "wrote 500 scenario file(s) to {out}\n", "",
     "98b1e2d1b3e7661aadabc5a67e139e95a0c135d9b82782ee95bec6c2ea137e8f"),
    ("s20_intents_static", "intents {s20} --kind static -o {out}/intents.csv",
     "", "",
     "a7b31dc62001ccb0c875302815ef1ef6fc0b8e8f0e6a5c43454415fb8496cde5"),
    ("s20_intents_dynamic", "intents {s20} --kind dynamic "
     "-o {out}/intents.csv", "", "",
     "854e4be5b808642b7d9089084b95fedd23983a9067488b0cd44dc57587040963"),
    ("s20_intents_mixed", "intents {s20} --kind mixed -o {out}/intents.csv",
     "", "", _MIXED_PIN),
    # mixed points depend only on the dynamic:static weight ratio
    ("s20_intents_mixed_9_3", "intents {s20} --kind mixed --dynamic-weight 9 "
     "--static-weight 3 -o {out}/intents.csv", "", "", _MIXED_PIN),
    ("s20_dump_roadgraph", "dump-roadgraph {s20} -o {out}/roadgraph.csv",
     "", _notes(13, 3), _ROADGRAPH_PIN),
    *((f"s20_intents_{kind}_dump_roadgraph",
       f"intents {{s20}} --kind {kind} --dump-roadgraph {{out}}/roadgraph.csv "
       f"-o {{out}}.csv", "", "", _ROADGRAPH_PIN)
      for kind in ("dynamic", "mixed")),
    ("s20_analyze", "analyze {s20} --predictions exact={s20_exact} "
     "--predictions shifted={s20_shifted} --window 1 -o {out}", "", "",
     "6440325d57506cb0c22ec7ae93d7ac57c64e06c3fb62096efd26ce3609e9b93e"),
    # --k 5000 pads every dynamic pool: the extra rows cycle through the
    # distinct points in decreasing weight order
    ("s3_intents_padded_pools", "intents {s3} --kind dynamic --k 5000 "
     "-o {out}/o.csv", "", "",
     "ccce85f2de49898c8094220001db58d081466713490015750f8637f70002d6e1"),
    ("s40_intents_mixed", "intents {s40} --kind mixed -o {out}/i.csv", "", "",
     "ddeb08b56330809544c0720699addbb3861e8fcd285eabc7784101d0742a844f"),
    ("s40_analyze", "analyze {s40} --predictions m={s40_pred} --window 1 "
     "-o {out}", "", "warning: skipped 1 agent(s) lacking predictions for "
     "every model\n",
     "193b3690f321e457c491c082fbfb62ad26cddb4479818f608a0b8f9efa401087"),
    # static and mixed coverage from the endpoints of another suite
    ("s20_analyze_endpoints", "analyze {s20} --predictions exact={s20_exact} "
     "--endpoints {s40_endpoints} --window 1 -o {out}", "", "",
     "891c3c7307c288f0422d5912c658a3ce9be82382198a04856775515aef59f680"),
    ("s40_dump_roadgraph", "dump-roadgraph {s40} -o {out}/rg.csv", "",
     _notes(40000120, 40000121, 40000122, 40000124),
     "f401f40be583da79d19e6bd02a44c4f5af60d6eeafc4972d741dca5512fef428"),
]


@pytest.mark.parametrize("argv, stdout, stderr, pin",
                         [r[1:] for r in _OUTPUTS],
                         ids=[case for case, *_ in _OUTPUTS])
def test_command_output_is_pinned_at_any_jobs(tmp_path, capsys, corpora,
                                              argv, stdout, stderr, pin):
    """Exit 0, the row's stdout and stderr, and output bytes equal to its
    pin; a batch command does the same at --jobs 1, 2 and 3. A deliberate
    output change updates its pin."""
    for jobs in [None] if argv.startswith("gen") else ["1", "2", "3"]:
        out = tmp_path / f"out{jobs}"
        out.mkdir()
        names = {**corpora, "out": out}
        args = [a.format(**names) for a in argv.split()]
        assert main(args + (["--jobs", jobs] if jobs else [])) == 0
        assert capsys.readouterr() == (stdout.format(**names), stderr)
        h = hashlib.sha256()
        for p in sorted(out.iterdir()):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        assert h.hexdigest() == pin


# -- gen ------------------------------------------------------------------------

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
    outs = []
    for core in ("Haswell", "Sandybridge"):
        out = tmp_path / f"{core}.csv"
        env = {**os.environ, "OPENBLAS_CORETYPE": core}
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


@pytest.mark.parametrize("kind", ["dynamic", "mixed"])
def test_intents_on_a_map_without_segments_fall_back(tmp_path, kind):
    vmap = VectorMap([])
    track = vehicle_track((0.0, 0.0))
    assert vmap.nearest_nodes((0, 0), 5.0) == []
    assert associate(vmap, track).fallback
    scenes, _ = write_suite(tmp_path, suite=[scenario_of(vmap, [track])])
    out = tmp_path / "i.csv"
    assert main(["intents", str(scenes), "--kind", kind, "-o", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 64
    assert all(r["kind"] == "static" and r["fallback"] == "1" for r in rows)


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


# -- the exit-code contract: one table, one harness ---------------------------

class _Inputs:
    """The inputs of one ``_REFUSALS`` row, written under ``tmp``. Each
    method writes what it needs and returns a command-line argument or a
    whole command line; ``names`` holds what the row's stderr text names
    as ``{scenes}``, ``{scene}``, ``{missing}``, ``{out}``, ``{pred}``,
    ``{aid}``, ``{ep}`` or ``{busy}``."""

    def __init__(self, tmp, monkeypatch):
        self.tmp, self.monkeypatch = tmp, monkeypatch
        self.scenes, self.out = tmp / "scenes", str(tmp / "o")
        self.missing = str(tmp / "missing")
        self.names = {"scenes": self.scenes, "missing": self.missing,
                      "out": self.out, "scene": self.scenes / "s.json"}

    def file(self, name, data):
        path = self.tmp / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        self.names[path.stem] = path
        return str(path)

    def scene_file(self, data, name="s.json"):
        self.scenes.mkdir()
        (self.scenes / name).write_bytes(data)
        return str(self.scenes)

    def scene(self, *edits):
        """The seed-0 intersection_4way scene with its JSON object changed
        by ``edits``; a string "@" is written as OVER_DIGIT_LIMIT."""
        obj = json.loads(write_scenario(scenario_gen.generate(
            scenario_gen.GenSpec("intersection_4way"))))
        for edit in edits:
            edit(obj)
        return self.scene_file(
            json.dumps(obj).replace('"@"', OVER_DIGIT_LIMIT).encode())

    def suite(self, n=1, scenarios=None):
        _, self.scenarios = write_suite(self.tmp, n, suite=scenarios)
        return str(self.scenes)

    def predictions(self, edit=None, confidences=(1.0,), of=None, name="m"):
        """``NAME=PATH`` of ``perfect_predictions`` over the targets of
        ``of`` (by default the suite); ``edit`` changes its list of lines."""
        path = perfect_predictions(self.tmp, self.scenarios if of is None
                                   else of, "m", confidences=confidences)
        lines = path.read_text().splitlines()
        if edit:
            edit(lines)
        path.write_text("\n".join(lines) + "\n")
        self.names.update(pred=path,
                          aid=self.scenarios[0].tracks_to_predict[0])
        return f"{name}={path}"

    def busy(self, path, file=False):
        """A directory, or with ``file`` an empty file, at ``path``, where
        a command would write; returns ``self`` to build the command."""
        self.names["busy"] = path = Path(path)
        if file:
            path.write_bytes(b"")
        else:
            path.mkdir(parents=True)
        return self

    def gen(self, *flags, env=None):
        if env is not None:
            self.monkeypatch.setenv("INTENTFORGE_SEED", env)
        return ["gen", *flags, "-o", self.out]

    def intents(self, *flags, kind="static", scenes=None, out=None):
        return ["intents", scenes or self.suite(), "--kind", kind, *flags,
                "-o", out or self.out]

    def dump_roadgraph(self, out=None):
        return ["dump-roadgraph", self.suite(), "-o", out or self.out]

    def analyze(self, *flags, n=1, scenarios=None, **predictions):
        return ["analyze", self.suite(n, scenarios), "--predictions",
                self.predictions(**predictions), "--window", "1", *flags,
                "-o", self.out]


def _set(*path, value):
    """An edit of a scene's JSON object: ``value`` at ``path``."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edit


def _cells(rows, columns, value):
    """An edit of a prediction file's lines: ``value`` in ``columns`` of
    the lines that the slice ``rows`` picks."""
    def edit(lines):
        for i in range(len(lines))[rows]:
            parts = lines[i].split(",")
            for column in columns:
                parts[column] = value
            lines[i] = ",".join(parts)
    return edit


def _on_scene(command, *edits):
    if command == "intents":
        return lambda c: c.intents(kind="dynamic", scenes=c.scene(*edits))
    return lambda c: ["dump-roadgraph", c.scene(*edits), "-o", c.out]


# each command refused before it reads the (missing) scenarios
_BEFORE_SCENES = {
    "intents": lambda c, *f: c.intents(*f, kind="mixed", scenes=c.missing),
    "analyze": lambda c, *f: ["analyze", c.missing, "--predictions",
                              "m=p.csv", *f, "-o", c.out],
    "dump_roadgraph": lambda c, *f: ["dump-roadgraph", c.missing, *f,
                                     "-o", c.out]}
_DEEP = 100_000
# every float config key; an int beyond float range must be refused too
_FLOAT_KEYS = ("heading_threshold", "proximity_limit", "backwards_look",
               "time_budget", "speed_offset", "tolerance", "dynamic_weight",
               "static_weight")
# (case, flags or a config object): exit 2 with "config violation: <key>"
_BAD_CONFIG = [
    ("config_k_string", {"k": "64"}),
    ("time_budget_nan", ["--time-budget", "nan"]),
    ("tolerance_nan", ["--tolerance", "nan"]),
    ("max_iterations_0", ["--max-iterations", "0"]),
    ("dynamic_weight_inf", ["--dynamic-weight", "inf"]),
    ("seed_negative", ["--seed", "-1"]),
    ("proximity_limit_inf", ["--proximity-limit", "inf"]),
    ("config_deviation_mode", {"deviation_mode": "bogus"}),
    ("config_exclude_parked_string", {"exclude_parked": "false"}),
    ("config_window_float", {"window": 7500.9}),
    ("config_window_zero", {"window": 0}),
    ("config_proximity_limit_true", {"proximity_limit": True}),
    ("config_time_budget_false", {"time_budget": False}),
    ("config_dynamic_weight_true", {"dynamic_weight": True}),
    ("config_tolerance_false", {"tolerance": False}),
    *((f"config_{key}_beyond_float", {key: 10 ** 400}) for key in _FLOAT_KEYS),
    ("config_tolerance_string", {"tolerance": "1"}),
    ("config_speed_offset_null", {"speed_offset": None}),
    ("config_time_budget_list", {"time_budget": [1]}),
    ("config_dynamic_weight_object", {"dynamic_weight": {}}),
]


def _bad_config(case, extra):
    key = next(iter(extra)) if isinstance(extra, dict) else \
        extra[0][2:].replace("-", "_")
    return (case, 2, f"error: config violation: {key} must be ",
            lambda c: c.intents(*(["--config", c.file("c.json", json.dumps(
                extra))] if isinstance(extra, dict) else extra),
                kind="mixed"))


_PARKED = [scenario_of(straight_map(), [stationary_track(
    (20.0 + 10 * i, 0.0), agent_id=f"p{i}")], scenario_id=f"s{i}")
    for i in range(2)]
# the only target is a pedestrian with an invalid 8 s state
_PEDESTRIAN = [scenario_of(straight_map(), [vehicle_track(
    (10.0, 0.0), object_class="pedestrian", future_valid=np.arange(80) < 79)])]
_NOT_JSON = "error: config file is not valid JSON: "
_UNCLUSTERABLE = (": points must be finite and their weighted sums within the "
                  "float range\n")
_MIXED_1E308 = ("error: cannot cluster mixed points at dynamic:static "
                "weights 1e+308:1" + _UNCLUSTERABLE)
_NAME_RULE = "must be non-empty and hold no comma or line break\n"
_FINITE_SUMS = ("error: minFDE of model 'm': values and their running sums "
                "must be finite\n")
# the refusals of every script
_EVERY_SCRIPT = [
    *((f"{flag[2:]}_{case}", 2, f"error: {flag} must be {rule}\n",
       lambda c, a=(flag, value): [*a, "-o", c.out])
      for flag, case, value, rule in [("--scenes", "0", "0", ">= 1"),
                                      ("--scenes", "negative", "-1", ">= 1"),
                                      ("--seed", "negative", "-1", ">= 0")]),
    ("scenes_text", 2, "error: argument --scenes: invalid int value: 'x'\n",
     lambda c: ["--scenes", "x", "-o", c.out]),
    ("unknown_option", 2, "error: unrecognized arguments: --bogus\n",
     lambda c: ["--bogus", "-o", c.out]),
    ("out_missing_directory", 1,
     "error: [Errno 2] No such file or directory: '{missing}/r.csv'\n",
     lambda c: ["--scenes", "2", "-o", f"{c.missing}/r.csv"]),
    ("out_is_a_directory", 1, "error: [Errno 21] Is a directory: '{out}'\n",
     lambda c: ["--scenes", "2", "-o", c.busy(c.out).out]),
]
# script -> its (case, exit code, stderr text, build) rows beside
# _EVERY_SCRIPT, where build returns the script's flags; each is a
# _REFUSALS row "<stem>_<case>"
_SCRIPT_REFUSALS = {
    "coverage_experiment.py": [],
    "ratio_harness.py": [
        *((f"ratios_{case}", 2, "error: --ratios must be finite and > 0\n",
           lambda c, ratios=ratios: ["--ratios", *ratios, "-o", c.out])
          for case, ratios in [("0", ["0"]), ("nan", ["3", "nan"])]),
        ("ratios_1e308", 1, _MIXED_1E308,
         lambda c: ["--scenes", "3", "--ratios", "1e308", "-o", c.out]),
        # the one scene of seed 1 has no target with dynamic intention points
        ("no_dynamic_points", 1,
         "error: no scene produced dynamic intention points\n",
         lambda c: ["--scenes", "1", "--seed", "1", "-o", c.out]),
        ("missing_out", 2,
         "error: the following arguments are required: -o/--out\n",
         lambda c: [])],
}

# (case, exit code, stderr text, build): the text is the whole of stderr
# when it ends in a newline, else its start; build(_Inputs) writes the
# inputs and returns the command line, which runs a script when it starts
# with the script's path
_REFUSALS = [
    *((f"argv_{case}", 2, f"error: argument {flag}: invalid {kind} value: "
       f"'{value}'\n", lambda c, a=(flag, value): c.intents(
           *a, scenes=c.missing))
      for case, flag, kind, value in [("k_float", "--k", "int", "1.5"),
                                      ("jobs_text", "--jobs", "int", "x"),
                                      ("tolerance_text", "--tolerance",
                                       "float", "abc")]),
    ("argv_suite_text", 2, "error: argument --suite: invalid int value: 'x'\n",
     lambda c: c.gen("--suite", "x")),
    ("argv_unknown_option", 2,
     "error: unrecognized arguments: --no-such-flag\n",
     lambda c: c.intents("--no-such-flag", scenes=c.missing)),
    ("argv_missing_out", 2,
     "error: the following arguments are required: -o/--out\n",
     lambda c: ["dump-roadgraph", c.missing]),
    ("argv_unknown_template", 2,
     "error: argument --template: invalid choice: 'roundabout' (choose from ",
     lambda c: c.gen("--template", "roundabout")),
    # gen
    *((f"gen_seed_negative_{source}", 2,
       "error: config violation: seed must be an integer >= 0\n", build)
      for source, build in [
          ("flag", lambda c: c.gen("--suite", "1", "--seed", "-1")),
          ("env", lambda c: c.gen("--suite", "1", env="-1"))]),
    ("env_seed_text", 2, "error: INTENTFORGE_SEED must be an integer\n",
     lambda c: c.gen("--template", "straight", env="abc")),
    *((f"gen_speed_limit_{value}", 2,
       "error: speed limit must be finite and > 0 at 6 decimals\n",
       lambda c, value=value: c.gen("--template", "straight",
                                    "--speed-limit", value))
      for value in ["nan", "inf", "0", "-1", "4e-7", "5e-7", "1e-300"]),
    *((f"gen_suite_with_{case}", 2,
       "error: --suite takes no --template, --behavior or --speed-limit\n",
       lambda c, flags=flags: c.gen("--suite", "2", *flags))
      for case, flags in [
          ("template", ["--template", "straight"]),
          ("behavior", ["--behavior", "follow_lane"]),
          ("speed_limit", ["--speed-limit", "13.4112"]),
          ("bad_speed_limit",
           ["--speed-limit", "nan", "--behavior", "illegal_uturn"])]),
    ("gen_suite_0", 2, "error: --suite must be >= 1\n",
     lambda c: c.gen("--suite", "0")),
    ("gen_no_template", 2,
     "error: --template is required unless --suite is given\n",
     lambda c: c.gen()),
    # the third scene of the suite: no scene file is left behind
    ("gen_suite_scene_path_is_a_directory", 1,
     "error: [Errno 21] Is a directory: '{busy}'\n",
     lambda c: c.busy(f"{c.out}/intersection_4way-corner_cut-s2.json").gen(
         "--suite", "3", "--seed", "0")),
    # config files and values
    ("config_missing", 1, "error: cannot read config file: [Errno 2] "
     "No such file or directory: '{missing}'\n",
     lambda c: c.intents("--config", c.missing)),
    *((case, 2, line, lambda c, text=text: c.intents(
        "--config", c.file("c.json", text)))
      for case, text, line in [
          ("config_bad_json", "{", _NOT_JSON + "Expecting property name"),
          ("config_not_utf8", b"\xff\xfe", _NOT_JSON),
          ("config_not_object", "[1]",
           "error: config file must hold a JSON object\n"),
          ("config_unknown_key", '{"x": 1}',
           "error: unknown config key 'x'\n"),
          ("config_deep_array", "[" * _DEEP + "]" * _DEEP,
           _NOT_JSON + "maximum recursion depth exceeded"),
          ("config_deep_value", '{"k": ' + "[" * _DEEP + "]" * _DEEP + "}",
           _NOT_JSON + "maximum recursion depth exceeded"),
          ("config_long_integer", '{"k": 1' + "0" * 5000 + "}",
           _NOT_JSON + "Exceeds the limit (4300 digits)")]),
    *(_bad_config(case, extra) for case, extra in _BAD_CONFIG),
    *((f"{command}_jobs_{jobs}", 2, "error: --jobs must be >= 1\n",
       lambda c, command=command, jobs=jobs: _BEFORE_SCENES[command](
           c, "--jobs", jobs))
      for command in _BEFORE_SCENES for jobs in ("0", "-4")),
    # scenario files
    ("no_such_scenes", 1,
     "error: no such scenario file or directory: {missing}\n",
     lambda c: c.intents(scenes=c.missing)),
    ("no_scene_files", 1, "error: no scenario files found\n",
     lambda c: c.intents(scenes=c.scene_file(b"{}", "notes.txt"))),
    ("scene_not_utf8", 1, "error: {scene}: not UTF-8: ",
     lambda c: c.intents(scenes=c.scene_file(b"\xff\xfe{}"))),
    *((f"scene_{case}", 1, "error: {scene}: " + message + "\n",
       _on_scene("intents", edit)) for case, edit, message in [
        ("duplicate_segment_id", _set("map", "segments", 3, "id", value=2),
         "duplicate segment id 2"),
        ("one_sided_entry",
         _set("map", "segments", 1, "entries", value=[0, 3]),
         "segment 1 lists entry 3 but segment 3 does not list exit 1"),
        ("unknown_left_neighbor", _set("map", "segments", 0, "left",
                                       value={"change_ok": 1, "id": 99}),
         "segment 0 references unknown left neighbor 99"),
        ("duplicate_agent_id", lambda o: o["tracks"].append(o["tracks"][0]),
         "duplicate agent_id in tracks"),
        ("unknown_predict_id",
         lambda o: o["tracks_to_predict"].append("nobody"),
         "tracks_to_predict references unknown agent 'nobody'"),
        ("node_spacing_beyond_float", _set("map", "segments", 6, "nodes",
                                           value=[[1e308, 0], [-1e308, 0]]),
         "segment 6: node spacing exceeds 2.0 m")]),
    *(row for command in ("dump_roadgraph", "intents") for row in [
        *((f"{command}_{field}_beyond_float", 1,
           f"error: {{scene}}: {where}: number out of float range\n",
           _on_scene(command, _set(*path, value=HUGE)))
          for field, where, path in [
              ("node", "map.segments[0].nodes[0][0]",
               ("map", "segments", 0, "nodes", 0, 0)),
              ("length_m", "tracks[0].length_m", ("tracks", 0, "length_m"))]),
        (f"{command}_width_m_beyond_digit_limit", 1,
         "error: {scene}: invalid JSON: ",
         _on_scene(command, _set("tracks", 0, "width_m", value="@"))),
        # an id is a field of every output CSV: it would split a row
        *((f"{command}_{field}_with_{char_name}", 1,
           f"error: {{scene}}: {where}: expected no comma or line break\n",
           _on_scene(command, *(_set(*p, value=f"x{char}y") for p in paths)))
          for field, where, paths in [
              ("scenario_id", "scenario_id", [("scenario_id",)]),
              ("agent_id", "tracks[0].agent_id",
               [("tracks", 0, "agent_id"), ("tracks_to_predict", 0)])]
          for char_name, char in [("comma", ","), ("CR", "\r"),
                                  ("LF", "\n")])]),
    # intents
    ("intents_static_dump_roadgraph", 2,
     "error: --dump-roadgraph needs --kind dynamic or mixed: static intents "
     "compute no reachable set\n",
     lambda c: c.intents("--dump-roadgraph", str(c.tmp / "r.csv"),
                         scenes=c.missing)),
    # the reach CSV would replace the intention points
    *((f"dump_roadgraph_{case}", 2,
       "error: --dump-roadgraph and -o name the same file\n",
       lambda c, dump=dump: _BEFORE_SCENES["intents"](
           c, "--dump-roadgraph", str(c.tmp / dump)))
      for case, dump in [("is_out", "o"), ("resolves_to_out", "sub/../o")]),
    *((f"endpoints_{case}", 1, message, lambda c, rows=rows: c.intents(
        "--endpoints", c.file("ep.csv", "class,x,y\n" + rows)))
      for case, rows, message in [
          ("without_class", "cyclist,1.0,0.0\n",
           "error: endpoints file has no rows for class 'vehicle'\n"),
          ("two_columns", "vehicle,5.0,0.0\nvehicle,1.0\n",
           "error: {ep}:3: expected 3 columns\n"),
          ("non_numeric_x", "vehicle,5.0,0.0\nvehicle,east,0.0\n",
           "error: {ep}:3: could not convert string to float: 'east'\n"),
          ("non_finite_x", "vehicle,5.0,0.0\nvehicle,nan,0.0\n",
           "error: {ep}:3: x and y must be finite\n")]),
    *((f"no_endpoint_{kind}", 1,
       "error: no valid pedestrian endpoints in the corpus\n",
       lambda c, kind=kind: c.intents(kind=kind,
                                      scenes=c.suite(scenarios=_PEDESTRIAN)))
      for kind in ("static", "dynamic")),
    # pools whose weighted sums could overflow
    ("cluster_static_endpoints_1e200", 1,
     "error: cannot cluster the vehicle endpoints" + _UNCLUSTERABLE,
     lambda c: c.intents("--endpoints", c.file(
         "ep.csv", "class,x,y\nvehicle,1e200,0\nvehicle,-1e200,0\n"),
         scenes=c.suite(20))),
    ("cluster_mixed_dynamic_weight_1e308", 1, _MIXED_1E308,
     lambda c: c.intents("--dynamic-weight", "1e308", kind="mixed",
                         scenes=c.suite(20))),
    ("analyze_cluster_mixed_dynamic_weight_1e308", 1, _MIXED_1E308,
     lambda c: c.analyze("--dynamic-weight", "1e308", n=3)),
    # the weight ratio 1e-308 is below the smallest normal float
    ("mix_ratio_subnormal", 2, "error: config violation: dynamic_weight / "
     "static_weight must be a finite number >= 2.2250738585072014e-308\n",
     lambda c: c.intents("--dynamic-weight", "1", "--static-weight", "1e308",
                         kind="mixed")),
    # analyze
    *((f"predictions_{case}", 2, line,
       lambda c, specs=specs: ["analyze", c.missing, *(
           a for spec in specs for a in ("--predictions", spec)), "-o", c.out])
      for case, specs, line in [
          ("absent", [],
           "error: at least one --predictions NAME=PATH is required\n"),
          ("no_path", ["m"], "error: --predictions expects NAME=PATH\n"),
          ("bad_name", ["a,b=p.csv"],
           "error: prediction model name 'a,b' " + _NAME_RULE),
          ("duplicate_name", ["m=p.csv", "m=q.csv"],
           "error: duplicate prediction model name 'm'\n")]),
    *((f"model_name_{case}", 2,
       f"error: prediction model name {name!r} " + _NAME_RULE,
       lambda c, name=name: c.analyze(name=name))
      for case, name in [("empty", ""), ("comma", "a,b"), ("cr", "a\rb"),
                         ("lf", "a\n"), ("only_cr", "\r")]),
    *((f"analyze_endpoints_{case}", 1, message,
       lambda c, build=build: c.analyze("--endpoints", build(c)))
      for case, build, message in [
          ("missing", lambda c: c.missing,
           "error: cannot read {missing}: [Errno 2] No such file or "
           "directory: '{missing}'\n"),
          ("wrong_header", lambda c: c.file("ep.csv", "x,y\n1.0,0.0\n"),
           "error: {ep}: expected header 'class,x,y'\n"),
          ("without_vehicle", lambda c: c.file(
              "ep.csv", "class,x,y\ncyclist,1.0,0.0\n"),
           "error: endpoints file has no rows for class 'vehicle'\n")]),
    # input files are read, or checked, before any (here missing) scene
    *((f"{command}_endpoints_{case}_before_scenes", 1, message,
       lambda c, command=command, build=build: _BEFORE_SCENES[command](
           c, "--endpoints", build(c)))
      for command in ("intents", "analyze") for case, build, message in [
          ("missing", lambda c: c.missing,
           "error: cannot read {missing}: [Errno 2] No such file or "
           "directory: '{missing}'\n"),
          ("wrong_header", lambda c: c.file("ep.csv", "x,y\n1.0,0.0\n"),
           "error: {ep}: expected header 'class,x,y'\n")]),
    ("analyze_predictions_wrong_header_before_scenes", 1,
     "error: {p}: expected header 'agent_id,mode_idx,confidence,step,x,y'\n",
     lambda c: ["analyze", c.missing, "--predictions",
                "m=" + c.file("p.csv", "x,y\n1.0,0.0\n"), "-o", c.out]),
    ("analyze_window_1000", 2, "error: window 1000 exceeds record count 2\n",
     lambda c: c.analyze("--window", "1000", n=2)),
    # no record left is a data error; a window beyond them, a usage error
    ("analyze_no_predictions", 1,
     "warning: skipped 2 agent(s) lacking predictions for every model\n"
     "error: no records to analyze\n",
     lambda c: c.analyze(scenarios=_PARKED, of=[])),
    ("analyze_all_parked", 1, "error: no records to analyze\n",
     lambda c: c.analyze("--exclude-parked", scenarios=_PARKED)),
    ("analyze_window_beyond_records", 2,
     "error: window 3 exceeds record count 2\n",
     lambda c: c.analyze("--window", "3", scenarios=_PARKED)),
    ("prediction_mode_idx_fraction", 1,
     "error: {pred}:3: invalid literal for int() with base 10: '1.5'\n",
     lambda c: c.analyze(edit=_cells(slice(2, 3), [1], "1.5"))),
    ("prediction_duplicate_row", 1,
     "error: {pred}:3: duplicate row for agent {aid} mode 0 step 0\n",
     lambda c: c.analyze(edit=lambda lines: lines.insert(2, lines[1]))),
    ("prediction_confidence_changes", 1,
     "error: {pred}:3: confidence 0.5 differs from 1.0 on earlier rows of "
     "agent {aid} mode 0\n",
     lambda c: c.analyze(edit=_cells(slice(2, 3), [2], "0.5"))),
    *((f"prediction_nan_{case}", 1, "error: {pred}: agent {aid}: "
       "trajectories and confidences must be finite\n",
       lambda c, edit=edit: c.analyze(edit=edit))
      for case, edit in [("confidence", _cells(slice(1, 81), [2], "nan")),
                         ("x", _cells(slice(5, 6), [4], "nan"))]),
    # well-formed rows whose modes PredictionSet refuses
    *((f"prediction_{case}", 1, "error: {pred}: agent {aid}: " + message,
       lambda c, conf=conf: c.analyze(confidences=conf))
      for case, conf, message in [
          ("seven_modes", [0.1] * 7, "need 1..6 modes, got 7\n"),
          ("confidence_above_1", [1.5], "confidences must lie in [0, 1]\n"),
          ("confidences_sum_above_1", [0.6, 0.6],
           "confidences must sum to <= 1\n")]),
    # minFDEs whose running sum overflows, or one that is inf itself
    ("analyze_minfde_sum_overflow", 1, _FINITE_SUMS,
     lambda c: c.analyze("--window", "2", n=6,
                         edit=_cells(slice(1, None), [4], "1e308"))),
    ("analyze_minfde_not_finite", 1, _FINITE_SUMS,
     lambda c: c.analyze("--window", "2", n=6,
                         edit=_cells(slice(1, 81), [4, 5], "1.7e308"))),
    # outputs that cannot be written: the error names the output path, and
    # no output, of the failed one or of the others, is left behind
    ("gen_template_scene_path_is_a_directory", 1,
     "error: [Errno 21] Is a directory: '{busy}'\n",
     lambda c: c.busy(f"{c.out}/straight-follow_lane-s0.json").gen(
         "--template", "straight")),
    ("gen_out_is_a_file", 1, "error: [Errno 17] File exists: '{out}'\n",
     lambda c: c.busy(c.out, file=True).gen("--template", "straight")),
    ("analyze_out_is_a_file", 1, "error: [Errno 17] File exists: '{out}'\n",
     lambda c: c.busy(c.out, file=True).analyze()),
    *((f"analyze_{name}_is_a_directory", 1,
       "error: [Errno 21] Is a directory: '{busy}'\n",
       lambda c, name=name: c.busy(f"{c.out}/{name}.csv").analyze())
      for name in ("deviation_curve", "filter_report", "coverage")),
    *((f"{command}_out_is_a_directory", 1,
       "error: [Errno 21] Is a directory: '{out}'\n",
       lambda c, build=build: build(c.busy(c.out)))
      for command, build in [("intents", _Inputs.intents),
                             ("dump_roadgraph", _Inputs.dump_roadgraph)]),
    *((f"{case}_missing_directory", 1,
       "error: [Errno 2] No such file or directory: '{missing}/r.csv'\n",
       lambda c, build=build: build(c, f"{c.missing}/r.csv"))
      for case, build in [
          ("intents_out", lambda c, path: c.intents(out=path)),
          ("intents_dump_roadgraph", lambda c, path: c.intents(
              "--dump-roadgraph", path, kind="dynamic")),
          ("dump_roadgraph_out", _Inputs.dump_roadgraph)]),
    ("intents_dump_roadgraph_is_a_directory", 1,
     "error: [Errno 21] Is a directory: '{busy}'\n",
     lambda c: c.busy(c.tmp / "r").intents(
         "--dump-roadgraph", str(c.tmp / "r"), kind="dynamic")),
    # the experiment scripts
    *((f"{script[:-3]}_{case}", code, text,
       lambda c, script=script, build=build: [f"scripts/{script}", *build(c)])
      for script, rows in _SCRIPT_REFUSALS.items()
      for case, code, text, build in (*_EVERY_SCRIPT, *rows)),
]


@pytest.mark.parametrize("code, text, build", [r[1:] for r in _REFUSALS],
                         ids=[case for case, *_ in _REFUSALS])
def test_documented_refusal_exits_with_one_line(tmp_path, monkeypatch, capsys,
                                                code, text, build):
    """The exit code, whether the CLI's or a script's main returns it or
    argparse raises it; an empty stdout; stderr equal to the row's text,
    or starting with it in one line, and one ``error:`` line; and no file
    beyond the inputs."""
    monkeypatch.delenv("INTENTFORGE_SEED", raising=False)
    inputs = _Inputs(tmp_path, monkeypatch)
    argv = build(inputs)
    entry = main
    if argv[0].startswith("scripts/"):
        entry, argv = runpy.run_path(str(REPO / argv[0]))["main"], argv[1:]
    written = sorted(tmp_path.rglob("*"))
    try:
        rc = entry(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    text = text.format(**inputs.names)
    assert (rc, out) == (code, "")
    if text.endswith("\n"):
        assert err == text
    else:
        assert err.startswith(text) and err.count("\n") == 1
    assert sum(ln.startswith("error: ") for ln in err.split("\n")) == 1
    assert sorted(tmp_path.rglob("*")) == written


def test_every_script_has_an_output_pin_and_refusal_rows():
    """A new script joins both contract harnesses."""
    scripts = sorted(p.name for p in (REPO / "scripts").glob("*.py"))
    assert sorted(_SCRIPT_PINS) == sorted(_SCRIPT_REFUSALS) == scripts


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
@example(key="k", text="0")
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


def test_intents_endpoints_far_from_origin_warn_nothing(tmp_path, capsys):
    """100 vehicle endpoints near x = 1e155 with a span of about 1e152 pass
    the overflow check; their squared norms overflow inside Lloyd, which
    rebuilds those rows elementwise, so the run exits 0 with 64 distinct
    points per agent and an empty stderr."""
    scenes, suite = write_suite(tmp_path, n=20, behaviors=None)
    endpoints = tmp_path / "endpoints.csv"
    endpoints.write_text("class,x,y\n" + "".join(
        f"vehicle,{1e155 + i * 1e150!r},{i % 10 * 1e150!r}\n"
        for i in range(100)))
    out = tmp_path / "o.csv"
    assert main(["intents", str(scenes), "--kind", "static", "--endpoints",
                 str(endpoints), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out)
    points = {}
    for r in rows:
        points.setdefault(r["agent_id"], set()).add((r["x"], r["y"]))
    assert len(points) == len(suite)
    assert {len(p) for p in points.values()} == {64}


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


def test_analyze_exclude_parked_drops_only_parked_records(tmp_path):
    """One parked and one moving agent: --exclude-parked drops one of the
    two curve rows, and both agents still pass the filter."""
    scenes, suite = write_suite(tmp_path, suite=[
        scenario_of(straight_map(), [track], scenario_id=f"s{i}")
        for i, track in enumerate([
            stationary_track((20.0, 0.0), agent_id="parked"),
            vehicle_track((20.0, 0.0), agent_id="moving")])])
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
def test_csv_blocks_equal_splitlines_of_the_whole_file(tmp_path, monkeypatch,
                                                       body, block):
    # blocks of a few characters cut the file inside lines and between
    # the two characters of "\r\n"
    monkeypatch.setattr(analysis, "_READ_CHARS", block)
    path = tmp_path / "f.csv"
    path.write_text("h,x\n" + body, newline="")
    want = list(enumerate(path.read_text().splitlines()[1:], start=2))
    got = (line for lines in analysis._csv_blocks(path, "h,x")
           for line in lines)
    assert list(enumerate(got, start=2)) == want


@pytest.mark.parametrize("text", ["", "\n", "x,h\n1,2\n"])
def test_csv_rows_without_the_header_is_a_data_error(tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(analysis.CsvError, match="expected header"):
        list(analysis._csv_rows(path, "h,x", 2))


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


def test_seeding_and_lloyd_run_through_the_wrapped_names(tmp_path,
                                                         monkeypatch):
    """benchmark/tracing.py times intention.kmeanspp_s and lloyd_s by
    rebinding intention._kmeanspp and intention._lloyd, as done here, so a
    call through any other name would leave its time out: intents --kind
    dynamic calls _lloyd once per reach pool of more than k points and
    once per k-means++ seeding, which only the static fit does."""
    calls = {"_kmeanspp": [], "_lloyd": []}
    for name, seen in calls.items():
        def spy(pts, *args, fn=getattr(intention, name), seen=seen):
            seen.append(pts)
            return fn(pts, *args)
        monkeypatch.setattr(intention, name, spy)
    scenes, suite = write_suite(tmp_path, n=20, behaviors=None)
    assert main(["intents", str(scenes), "--kind", "dynamic", "--k", "8",
                 "-o", str(tmp_path / "i.csv")]) == 0
    reach_pools = [
        intention._coalesce(intention.to_agent_frame(rs.positions, track),
                            np.ones(len(rs)))[0]
        for scenario in suite for track, _, rs in experiments.run_scene(
            scenario) if rs is not None]
    above = [p for p in reach_pools if len(p) > 8]
    # the static fit is one vehicle pool, seeded as a stack of one
    [(static,)] = calls["_kmeanspp"]
    assert above and len(static) > 8
    # the command takes the scenes in file name order
    assert sorted(p.tobytes() for p in calls["_lloyd"]) == sorted(
        p.tobytes() for p in above + [static])


def test_dynamic_points_run_through_the_wrapped_name(tmp_path, monkeypatch):
    """benchmark/tracing.py times intention.dynamic_s by rebinding
    dynamic_intents on every module that holds it, as done here: intents
    --kind dynamic calls it once per target with a reach set, and analyze
    once per target it keeps."""
    seen, fn = [], intention.dynamic_intents

    def spy(reach_set, track, *args):
        seen.append(track.agent_id)
        return fn(reach_set, track, *args)
    for module in (analysis, cli, experiments, intention):
        if getattr(module, "dynamic_intents", None) is fn:
            monkeypatch.setattr(module, "dynamic_intents", spy)
    scenes, suite = write_suite(tmp_path, n=20, behaviors=None)
    assert main(["intents", str(scenes), "--kind", "dynamic",
                 "-o", str(tmp_path / "i.csv")]) == 0
    reached = sorted(track.agent_id for scenario in suite
                     for track, _, rs in experiments.run_scene(scenario)
                     if rs is not None)
    assert reached and sorted(seen) == reached
    kept = sorted(it.track.agent_id
                  for it in experiments.filter_dataset(suite)[0])
    seen.clear()
    pred = perfect_predictions(tmp_path, suite, "m")
    assert main(["analyze", str(scenes), "--predictions", f"m={pred}",
                 "--window", "1", "-o", str(tmp_path / "o")]) == 0
    assert kept and sorted(seen) == kept


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
    --kind mixed cluster their mixed sets in batches of two within their
    chunks (dynamic pools are clustered one at a time either way); the
    outputs equal the default run at --jobs 1 and 3."""
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


# -- malformed scenario files -----------------------------------------------------

def _scene_argv(command, scenes, tmp_path, endpoints=None):
    argv = [command, str(scenes), "-o", str(tmp_path / "out.csv")]
    if command == "intents":
        argv += ["--kind", "dynamic"]
        if endpoints:
            argv += ["--endpoints", str(endpoints)]
    return argv


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
    cli._write_reach_csv(out, [(sid, aid, "vehicle", reach, None)
                               for sid, aid, *reach in _TIED_SETS])
    want = reach_csv_reference(_TIED_SETS)
    assert out.read_text() == want
    # the tied rows are reordered, and -0.000000 is printed for -1e-9 only
    assert "s1,b,-0.000000,5.000000,1.000000\ns1,b,0.000000,5.000000," in want
    assert want.count("-0.000000") == sum(int((xy == -1e-9).sum())
                                          for _, _, xy, _ in _TIED_SETS)


def test_reach_writer_takes_rows_in_any_order(tmp_path):
    """A reach set lists its rows in lane order, not in the CSV's arrival
    order: every order of the rows of ``_TIED_SETS`` writes the same bytes,
    those of the rows in arrival order."""
    out = tmp_path / "rg.csv"
    want = reach_csv_reference(_TIED_SETS)
    rng = np.random.default_rng(0)
    for _ in range(30):
        cli._write_reach_csv(out, [
            (sid, aid, "vehicle", (xy[order], times[order]), None)
            for sid, aid, xy, times in _TIED_SETS
            for order in [rng.permutation(len(times))]])
        assert out.read_text() == want


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.5]),
                          st.sampled_from([0.0, 1e-7, 4e-7, 5e-7, 6e-7]),
                          st.sampled_from([0.0, -0.0, -1e-9, 1.0, 1.0000003]),
                          st.sampled_from([0.0, -0.0, 2.0, -1e-9])),
                min_size=1, max_size=40), st.data())
def test_reach_writer_matches_global_sort_on_random_ties(tmp_path, rows,
                                                         data):
    """The rows in arrival order and in a drawn order write the bytes of
    the reference."""
    times = np.array([r[0] + r[1] for r in rows])
    positions = np.array([r[2:] for r in rows])
    sets = [("s", "a", positions, times)]
    want = reach_csv_reference(sets)
    for order in (times.argsort(kind="stable"),
                  data.draw(st.permutations(range(len(rows))))):
        cli._write_reach_csv(tmp_path / "rg.csv", [
            ("s", "a", "vehicle", (positions[order], times[order]), None)])
        assert (tmp_path / "rg.csv").read_text() == want


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
        for order in [times.argsort(kind="stable")]
        for (x, y), t in zip(positions[order].tolist(),
                             times[order].tolist()))
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


def test_batched_outputs_equal_one_agent_calls_at_any_jobs(tmp_path):
    """intents and analyze cluster the agents of a run together; their
    rows equal one-agent dynamic_intents / mixed_intents calls, and --jobs
    3 over 7 scenes (chunks of uneven size) writes the bytes of --jobs 1."""
    scenes, suite = write_suite(tmp_path, n=7, seed=6, behaviors=BEHAVIORS)
    pred = perfect_predictions(tmp_path, suite, "m")
    static = experiments.fit_static(map(experiments.class_endpoints, suite))
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
        cov += [[track.agent_id, kind, fmt(coverage(points.points, end))]
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
    scenes, suite = write_suite(tmp_path, suite=[scenario_of(straight_map(), [
        vehicle_track((20.0 + 10 * i, 0.0), speed=1.5, agent_id=f"{cls}{i}",
                      object_class=cls),
        vehicle_track((60.0, 0.0), agent_id=f"car{i}")],
        predict=[f"{cls}{i}"], scenario_id=f"s{i}")
        for i, cls in enumerate(["pedestrian", "cyclist", "pedestrian"])])
    out = tmp_path / "intents.csv"
    assert main(["intents", str(scenes), "--kind", kind, "--jobs", jobs,
                 "-o", str(out)]) == 0
    _, rows = read_csv(out)
    want = []
    for i, cls in enumerate(["pedestrian", "cyclist", "pedestrian"]):
        static = experiments.fit_static(
            map(experiments.class_endpoints, suite), cls)
        want += [(f"{cls}{i}", "static", str(j), f"{x + 0.0:.6f}",
                  f"{y + 0.0:.6f}", "1")
                 for j, (x, y) in enumerate(static.points)]
    assert [tuple(r.values()) for r in rows] == sorted(want,
                                                       key=lambda r: r[0])


def test_scan_all_starts_no_more_workers_than_files(tmp_path, monkeypatch):
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
        "analyze": common | _CONFIG_FLAGS | {"--predictions", "--endpoints",
                                             "--window", "--deviation-mode",
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
    suite = sorted([*iter_suite(5, seed=3), *iter_suite(
        3, seed=4, behaviors=("offroad_parking",))],
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
