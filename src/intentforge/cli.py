"""Command-line entry point: gen, intents, analyze, dump-roadgraph.

Parses arguments and config, does file I/O and maps errors to exit codes.
Each batch command maps one ``experiments`` driver (``intents_batch`` or
``analyze_batch``) over ``min(--jobs, count)`` contiguous chunks. Every
option can come from a JSON config file (--config) and be overridden on
the command line; INTENTFORGE_SEED overrides the default seed when --seed
is absent.
Exit codes: 0 success, 1 runtime/data error, 2 usage/config error.

All CSV output uses 6-decimal fixed floats and deterministic row order
(scenario id, agent id), so reruns with identical inputs, config, and
seed are byte-identical regardless of --jobs. ``_write_csv`` writes every
file as it is formatted, one block of lines (one agent's rows in the
intents and reach CSVs) at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, fields, is_dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import (CsvError, PredictionSet, deviation_curve,
                       read_endpoints)
# benchmark/tracing.py wraps the prediction reader under this name
from .analysis import read_predictions as _load_prediction_csv
from .experiments import (DEVIATION_MODES, INTENT_KINDS, RunConfig,
                          analyze_batch, filter_dataset, intents_batch,
                          pooled_static)
from .intention import IntentionPointSet, static_intents
from .map_model import ScenarioError, _fmt_float, parse_scenario, write_scenario
from .scenario_gen import BEHAVIORS, TEMPLATES, GenSpec, generate, generate_suite

SEED_ENV = "INTENTFORGE_SEED"
# Config keys and their defaults, from RunConfig's fields: the keys of its
# config groups, then its own fields, which only analyze reads.
_ANALYSIS_DEFAULTS = {f.name: f.default for f in fields(RunConfig)
                      if not is_dataclass(f.default)}
_DEFAULTS = {g.name: g.default for f in fields(RunConfig)
             if is_dataclass(f.default)
             for g in fields(f.default)} | _ANALYSIS_DEFAULTS


class UsageError(Exception):
    """Bad arguments or config; maps to exit code 2."""


class DataError(Exception):
    """Unreadable or inconsistent input data; maps to exit code 1."""


def _resolve_config(args) -> RunConfig:
    if getattr(args, "jobs", 1) < 1:
        raise UsageError("--jobs must be >= 1")
    values = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except OSError as exc:
            raise DataError(f"cannot read config file: {exc}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        for key, val in loaded.items():
            if key not in _DEFAULTS:
                raise UsageError(f"unknown config key {key!r}")
            values[key] = val
    if os.environ.get(SEED_ENV) and getattr(args, "seed", None) is None:
        try:
            values["seed"] = int(os.environ[SEED_ENV])
        except ValueError:
            raise UsageError(f"{SEED_ENV} must be an integer") from None
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        return RunConfig(**{
            f.name: replace(f.default, **{g.name: values[g.name]
                                          for g in fields(f.default)})
            if is_dataclass(f.default) else values[f.name]
            for f in fields(RunConfig)})
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config violation: {exc}") from None


def _load_scenarios(paths):
    files = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.glob("*.json")))
        elif p.is_file():
            files.append(p)
        else:
            raise DataError(f"no such scenario file or directory: {raw}")
    if not files:
        raise DataError("no scenario files found")
    scenarios = []
    for f in sorted(set(files)):
        try:
            scenarios.append(parse_scenario(f.read_bytes()))
        except (OSError, ScenarioError) as exc:
            raise DataError(f"{f}: {exc}") from None
    scenarios.sort(key=lambda s: s.scenario_id)
    seen: set[str] = set()
    for s in scenarios:
        for t in s.tracks:
            if t.agent_id in seen:
                raise DataError(f"agent id {t.agent_id!r} appears in more "
                                f"than one scenario")
            seen.add(t.agent_id)
    return scenarios


def _write_csv(path, header, rows):
    """Write the header line, then each block of ``rows`` as it comes; a
    block is a str of complete lines, so no file is held whole."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(rows)


def _chunks(items, jobs: int) -> list:
    """``items`` cut into ``min(jobs, len(items))`` contiguous chunks of
    near-equal size, in order."""
    n = min(jobs, len(items))
    return [items[len(items) * i // n:len(items) * (i + 1) // n]
            for i in range(n)]


def _pmap(fn, items, jobs: int):
    # the pool forks all its workers at the first submit: start no more
    # than there are items
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# -- gen ---------------------------------------------------------------------

def cmd_gen(args) -> int:
    seed = _resolve_config(args).kmeans.seed
    # unset flags are None, so GenSpec keeps the defaults of its fields
    scene = {k: v for k, v in vars(args).items()
             if k in ("speed_limit_mps", "agent_behavior") and v is not None}
    if args.suite is not None:
        if args.suite < 1:
            raise UsageError("--suite must be >= 1")
        if scene or args.template is not None:
            raise UsageError("--suite takes no --template, --behavior or "
                             "--speed-limit")
        scenarios = generate_suite(args.suite, seed)
    else:
        if args.template is None:
            raise UsageError("--template is required unless --suite is given")
        try:
            spec = GenSpec(args.template, seed, **scene)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        scenarios = [generate(spec)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for s in scenarios:
        (out_dir / f"{s.scenario_id}.json").write_bytes(write_scenario(s))
    print(f"wrote {len(scenarios)} scenario file(s) to {out_dir}")
    return 0


# -- intents -----------------------------------------------------------------

def _static_sets(scenarios, classes, endpoints_file, cfg: RunConfig):
    """One statistical point set per object class, from an endpoints CSV
    (columns class,x,y) or pooled from the scenario corpus."""
    sets: dict[str, IntentionPointSet] = {}
    if endpoints_file:
        pools = read_endpoints(endpoints_file)
        for cls in classes:
            if cls not in pools:
                raise DataError(f"endpoints file has no rows for class {cls!r}")
            sets[cls] = static_intents(pools[cls], cls, cfg.kmeans)
        return sets
    for cls in classes:
        try:
            sets[cls] = pooled_static(scenarios, cls, cfg.kmeans)
        except ValueError as exc:
            raise DataError(str(exc)) from None
    return sets


def _reach_block(sid, aid, positions, times) -> str:
    """The reach CSV lines of one reach set, in the (arrival_s, x, y)
    order of their printed values. Rows come in arrival order and rounding
    keeps it, so only rows that print one arrival time are reordered."""
    fmt = f"{sid},{aid},".replace("%", "%%") + "%.6f,%.6f,%.6f\n"
    lines = [fmt % tuple(row) for row in
             (np.column_stack([positions, times]) + 0.0).tolist()]
    # rows more than 2e-6 s apart cannot print one arrival time
    ties = [i for i in np.flatnonzero(np.diff(times) < 2e-6).tolist()
            if lines[i].rpartition(",")[2] == lines[i + 1].rpartition(",")[2]]
    runs = np.split(ties, np.flatnonzero(np.diff(ties) > 1) + 1)
    for run in runs if ties else []:
        a, b = run[0], run[-1] + 2
        lines[a:b] = sorted(lines[a:b], key=lambda ln: tuple(
            map(float, ln.rsplit(",", 3)[1:3])))
    return "".join(lines)


def _write_reach_csv(path, results):
    """Reachability CSV of the reach sets of ``intents_batch`` results, in
    (scenario id, agent id) order, one block per reach set."""
    reach_sets = sorted((r for _, sets, _ in results for r in sets),
                        key=lambda r: r[:2])
    _write_csv(path, ("scenario_id", "agent_id", "x", "y", "arrival_s"),
               (_reach_block(*r) for r in reach_sets))


def cmd_intents(args) -> int:
    cfg = _resolve_config(args)
    dump = args.dump_roadgraph
    if args.kind == "static" and dump:
        raise UsageError("--dump-roadgraph needs --kind dynamic or mixed: "
                         "static intents compute no reachable set")
    if dump and Path(dump).resolve() == Path(args.out).resolve():
        raise UsageError("--dump-roadgraph and -o name the same file")
    scenarios = _load_scenarios(args.scenarios)
    classes = sorted({s.track(a).object_class
                      for s in scenarios for a in s.tracks_to_predict})
    static_sets = _static_sets(scenarios, classes, args.endpoints, cfg)
    worker = partial(intents_batch, kind=args.kind, static_sets=static_sets,
                     cfg=cfg, dump=bool(dump))
    results = _pmap(worker, _chunks(scenarios, args.jobs), args.jobs)
    # agent ids are unique, so agent order is (agent, kind, idx) row order
    agents = sorted((a for rows, _, _ in results for a in rows),
                    key=lambda a: a[0])
    _write_csv(args.out, ("agent_id", "kind", "idx", "x", "y", "fallback"),
               ("".join("%s,%s,%d,%.6f,%.6f,%s\n" % (aid, kind, i, x, y, fb)
                        for i, (x, y) in enumerate((points + 0.0).tolist()))
                for aid, kind, points, fb in agents))
    if dump:
        _write_reach_csv(dump, results)
    return 0


# -- analyze -----------------------------------------------------------------

def _prediction_paths(specs) -> dict[str, str]:
    """Prediction file path by model name from ``--predictions NAME=PATH``
    values. A name heads a ``deviation_curve.csv`` column, so it must be
    non-empty and hold no comma or line break."""
    if not specs:
        raise UsageError("at least one --predictions NAME=PATH is required")
    paths = {}
    for spec in specs:
        if "=" not in spec:
            raise UsageError("--predictions expects NAME=PATH")
        name, path = spec.split("=", 1)
        if not name or any(c in name for c in ",\r\n"):
            raise UsageError(f"prediction model name {name!r} must be "
                             f"non-empty and hold no comma or line break")
        if name in paths:
            raise UsageError(f"duplicate prediction model name {name!r}")
        paths[name] = path
    return paths


def cmd_analyze(args) -> int:
    cfg = _resolve_config(args)
    paths = _prediction_paths(args.predictions)
    scenarios = _load_scenarios(args.scenarios)
    merged: dict[str, dict[str, PredictionSet]] = {}
    for name, path in paths.items():
        for aid, ps in _load_prediction_csv(path).items():
            merged.setdefault(aid, {})[name] = ps

    items, report = filter_dataset(scenarios, merged, cfg)
    static_set = _static_sets(scenarios, ["vehicle"], None, cfg)["vehicle"]

    worker = partial(analyze_batch, model_names=sorted(paths),
                     static_set=static_set, cfg=cfg)
    results = [r for chunk in _pmap(worker, _chunks(items, args.jobs),
                                    args.jobs) for r in chunk]

    records = [r for r, _ in results if r is not None]
    cov_rows = sorted(((it.track.agent_id, kind, _fmt_float(cov))
                       for it, (_, covs) in zip(items, results)
                       for kind, cov in zip(INTENT_KINDS, covs)),
                      key=lambda c: (c[0], c[1]))
    skipped = len(results) - len(records)
    if skipped:
        print(f"warning: skipped {skipped} agent(s) lacking predictions "
              f"for every model", file=sys.stderr)
    # no record left is a fact of the data; a window beyond them, of usage
    records = [r for r in records if not (cfg.exclude_parked and r.parked)]
    if not records:
        raise DataError("no records to analyze")
    try:
        models, rows = deviation_curve(records, cfg.window)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "deviation_curve.csv",
               ("rank", "deviation_m", *(f"minfde_{m}" for m in models)),
               (",".join((str(rank), *map(_fmt_float, values))) + "\n"
                for rank, *values in rows))
    _write_csv(out_dir / "filter_report.csv",
               (*(f.name for f in fields(report)),
                "skipped_missing_prediction"),
               [",".join(map(str, (*astuple(report), skipped))) + "\n"])
    _write_csv(out_dir / "coverage.csv",
               ("agent_id", "kind", "coverage_m"),
               (",".join(row) + "\n" for row in cov_rows))
    return 0


# -- dump-roadgraph ----------------------------------------------------------

def cmd_dump_roadgraph(args) -> int:
    cfg = _resolve_config(args)
    scenarios = _load_scenarios(args.scenarios)
    worker = partial(intents_batch, kind=None, static_sets={}, cfg=cfg,
                     dump=True)
    results = _pmap(worker, _chunks(scenarios, args.jobs), args.jobs)
    for _, _, fell_back in results:
        for agent_id in fell_back:
            print(f"note: {agent_id} has no lane association; skipped",
                  file=sys.stderr)
    _write_reach_csv(args.out, results)
    return 0


# -- parser ------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser, analysis: bool = False):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--jobs", type=int, default=1)
    for key, default in _DEFAULTS.items():
        if key in _ANALYSIS_DEFAULTS and not analysis:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, dest=key, action="store_const", const=True)
        else:
            p.add_argument(flag, dest=key, type=type(default), choices=(
                DEVIATION_MODES if key == "deviation_mode" else None))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intentforge",
        description="Scene-conditioned, statistical, and hybrid trajectory "
                    "intention points over vectorized lane maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate synthetic scenario files")
    p_gen.add_argument("--template", choices=TEMPLATES)
    p_gen.add_argument("--behavior", dest="agent_behavior", choices=BEHAVIORS)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--speed-limit", dest="speed_limit_mps", type=float)
    p_gen.add_argument("--suite", type=int,
                       help="generate N randomized scenarios instead")
    p_gen.add_argument("-o", "--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_gen)

    p_int = sub.add_parser("intents", help="emit intention point CSV")
    p_int.add_argument("scenarios", nargs="+",
                       help="scenario files or directories")
    p_int.add_argument("--kind", choices=INTENT_KINDS, required=True)
    p_int.add_argument("--endpoints",
                       help="CSV (class,x,y) of endpoints for static points")
    p_int.add_argument("--dump-roadgraph", dest="dump_roadgraph",
                       help="also dump reachability sets to this CSV")
    p_int.add_argument("-o", "--out", required=True, help="output CSV")
    _add_config_flags(p_int)
    p_int.set_defaults(func=cmd_intents)

    p_an = sub.add_parser("analyze",
                          help="deviation / minFDE / coverage analysis")
    p_an.add_argument("scenarios", nargs="+")
    p_an.add_argument("--predictions", action="append", default=[],
                      metavar="NAME=PATH")
    p_an.add_argument("-o", "--out", required=True, help="output directory")
    _add_config_flags(p_an, analysis=True)
    p_an.set_defaults(func=cmd_analyze)

    p_dump = sub.add_parser("dump-roadgraph",
                            help="dump reachability sets as CSV")
    p_dump.add_argument("scenarios", nargs="+")
    p_dump.add_argument("-o", "--out", required=True, help="output CSV")
    _add_config_flags(p_dump)
    p_dump.set_defaults(func=cmd_dump_roadgraph)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DataError, ScenarioError, CsvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
