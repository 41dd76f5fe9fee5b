"""Command-line entry point: gen, intents, analyze, dump-roadgraph.

Parses arguments and config, does file I/O and maps errors to exit codes:
0 success, 1 runtime/data error, 2 usage/config error. Every option can
come from a JSON config file (--config) and be overridden on the command
line; INTENTFORGE_SEED overrides the default seed when --seed is absent.

A batch command cuts the sorted scenario files into ``min(--jobs,
count)`` contiguous chunks. Each worker parses its own files one at a
time into an ``experiments`` batch function and returns small results,
which the main process puts in scenario-id order and finishes. The
``--endpoints`` file is read, and each ``--predictions`` file opened and
its header checked, before any scene is read. Every
output file, a scene or a CSV, is written to a temporary file beside it
(a CSV one block of lines at a time); all are renamed once every one is
written, so none is left behind on exit 1 or 2. CSV output uses 6-decimal
fixed floats and a fixed row order: reruns with identical inputs, config
and seed are byte-identical at any --jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, fields
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from .analysis import (DEVIATION_MODES, CsvError, check_prediction_header,
                       deviation_curve, min_fde, read_endpoints)
# benchmark/tracing.py wraps the prediction reader under this name
from .analysis import read_predictions as _load_prediction_csv
from .experiments import (INTENT_KINDS, DataError, FilterReport, RunConfig,
                          analyze_batch, corpus_heads, filter_dataset,
                          intent_rows, intents_batch, scan, static_sets)
from .map_model import ScenarioError, _fmt_float, parse_scenario, write_scenario
from .scenario_gen import BEHAVIORS, TEMPLATES, GenSpec, generate, iter_suite

SEED_ENV = "INTENTFORGE_SEED"
_DEFAULTS = RunConfig.config_keys()


class UsageError(Exception):
    """Bad arguments or config; maps to exit code 2."""


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
        except (ValueError, RecursionError) as exc:
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
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    try:
        return RunConfig.from_keys(values)
    except ValueError as exc:
        raise UsageError(f"config violation: {exc}") from None


def _load_scenarios(path):
    """Read and parse one scenario file; workers call it one file at a
    time (benchmark/tracing.py times each call as cli.load_scenarios)."""
    try:
        return parse_scenario(path.read_bytes())
    except (OSError, ScenarioError) as exc:
        raise DataError(f"{path}: {exc}") from None


def _scan_all(args, work):
    """``scan`` of the sorted scenario files of ``args``, cut into
    ``min(--jobs, count)`` contiguous chunks, one per worker, which parses
    each file as ``work`` reaches it; the first bad file in path order is
    reported. Returns ``corpus_heads`` and ``work``'s result per chunk."""
    files = []
    for raw in args.scenarios:
        p = Path(raw)
        if not (p.is_dir() or p.is_file()):
            raise DataError(f"no such scenario file or directory: {raw}")
        files.extend(p.glob("*.json") if p.is_dir() else [p])
    if not files:
        raise DataError("no scenario files found")
    files = sorted(set(files))
    n = min(args.jobs, len(files))
    chunks = [files[len(files) * i // n:len(files) * (i + 1) // n]
              for i in range(n)]
    if n == 1:
        chunks = [scan(chunks[0], _load_scenarios, work)]
    else:
        with ProcessPoolExecutor(max_workers=n) as pool:
            chunks = list(pool.map(partial(scan, load=_load_scenarios,
                                           work=work), chunks))
    return corpus_heads(chunks), [result for _, result in chunks]


@contextlib.contextmanager
def _outputs():
    """Yields ``temp(path)``: a temporary path beside ``path``, to be
    written in its place. All are renamed to their paths when the block
    ends without error, and removed otherwise. Errors name ``path``."""
    pairs = {}

    def temp(path):
        if Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
        tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
        pairs[str(tmp)] = str(path)
        return tmp
    try:
        yield temp
        for tmp, path in pairs.items():
            os.replace(tmp, path)
        pairs.clear()
    except OSError as exc:
        if exc.filename not in pairs:
            raise
        raise OSError(exc.errno, exc.strerror, pairs[exc.filename]) from None
    finally:
        for tmp in pairs:
            Path(tmp).unlink(missing_ok=True)


def _write_csv(path, header, rows):
    """Write the header line, then each block of ``rows`` as it comes; a
    block is a str of complete lines, so no file is held whole."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(rows)


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
        scenarios = iter_suite(args.suite, seed)
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
    # each scene is serialized as it comes, and files are written 64 at a
    # time: a file written between two scenes slows generation by ~10 %
    texts = ((s.scenario_id, write_scenario(s)) for s in scenarios)
    with _outputs() as temp:
        for block in iter(lambda: list(islice(texts, 64)), []):
            for sid, text in block:
                temp(out_dir / f"{sid}.json").write_bytes(text)
    print(f"wrote {args.suite or 1} scenario file(s) to {out_dir}")
    return 0


# -- intents -----------------------------------------------------------------

def _reach_block(sid, aid, positions, times) -> str:
    """The reach CSV lines of one reach set, its rows in any order: sorted
    by the (arrival_s, x, y) values they print, and rows that print equal
    values (0.000000 and -0.000000) by their text. The rows are sorted by
    arrival time first, an order that rounding keeps, so only rows that
    print one arrival time are sorted again."""
    order = times.argsort(kind="stable")
    positions, times = positions[order], times[order]
    fmt = f"{sid},{aid},".replace("%", "%%") + "%.6f,%.6f,%.6f\n"
    lines = [fmt % tuple(row) for row in
             (np.column_stack([positions, times]) + 0.0).tolist()]
    # rows more than 2e-6 s apart cannot print one arrival time
    ties = [i for i in np.flatnonzero(np.diff(times) < 2e-6).tolist()
            if lines[i].rpartition(",")[2] == lines[i + 1].rpartition(",")[2]]
    runs = np.split(ties, np.flatnonzero(np.diff(ties) > 1) + 1)
    for run in runs if ties else []:
        a, b = run[0], run[-1] + 2
        lines[a:b] = sorted(lines[a:b], key=lambda ln: (
            *map(float, ln.rsplit(",", 3)[1:3]), ln))
    return "".join(lines)


def _write_reach_csv(path, records):
    """Reachability CSV of the reach sets of ``intents_batch`` records, in
    (scenario id, agent id) order, one block per reach set."""
    _write_csv(path, ("scenario_id", "agent_id", "x", "y", "arrival_s"),
               (_reach_block(sid, aid, *reach) for sid, aid, _, reach, _
                in sorted(records, key=lambda r: r[:2]) if reach is not None))


def cmd_intents(args) -> int:
    cfg = _resolve_config(args)
    dump = args.dump_roadgraph
    if args.kind == "static" and dump:
        raise UsageError("--dump-roadgraph needs --kind dynamic or mixed: "
                         "static intents compute no reachable set")
    if dump and Path(dump).resolve() == Path(args.out).resolve():
        raise UsageError("--dump-roadgraph and -o name the same file")
    pools = read_endpoints(args.endpoints) if args.endpoints else None
    heads, results = _scan_all(args, partial(
        intents_batch, kind=args.kind, cfg=cfg, dump=bool(dump)))
    records = [r for chunk in results for r in chunk]
    static = static_sets(heads, sorted({r[2] for r in records}), cfg.kmeans,
                         pools)
    rows = intent_rows(records, args.kind, static, cfg)
    with _outputs() as temp:
        _write_csv(temp(args.out),
                   ("agent_id", "kind", "idx", "x", "y", "fallback"),
                   ("".join("%s,%s,%d,%.6f,%.6f,%s\n" % (aid, kind, i, x, y, fb)
                            for i, (x, y) in enumerate((points + 0.0).tolist()))
                    for aid, kind, points, fb in rows))
        if dump:
            _write_reach_csv(temp(dump), records)
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
    pools = read_endpoints(args.endpoints) if args.endpoints else None
    for path in paths.values():
        check_prediction_header(path)
    heads, results = _scan_all(args, partial(filter_dataset, cfg=cfg))
    items = [it for kept, _ in results for it in kept]
    tracks = {it.track.agent_id: it.track for it in items}
    # one prediction file is alive at a time: only its minFDEs are kept
    fdes = {name: {aid: min_fde(ps, tracks[aid], 8) for aid, ps
                   in _load_prediction_csv(path).items() if aid in tracks}
            for name, path in paths.items()}

    static = static_sets(heads, ["vehicle"], cfg.kmeans, pools)["vehicle"]
    records, cov_rows, skipped = analyze_batch(items, fdes, static, cfg)
    report = FilterReport(*map(sum, zip(*(astuple(r) for _, r in results))))
    if skipped:
        print(f"warning: skipped {skipped} agent(s) lacking predictions "
              f"for every model", file=sys.stderr)
    # no record left, or minFDEs beyond float range, are facts of the
    # data; a window beyond the records is one of usage
    if not records:
        raise DataError("no records to analyze")
    try:
        models, rows = deviation_curve(records, cfg.window)
    except OverflowError as exc:
        raise DataError(str(exc)) from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _outputs() as temp:
        _write_csv(temp(out_dir / "deviation_curve.csv"),
                   ("rank", "deviation_m", *(f"minfde_{m}" for m in models)),
                   (",".join((str(rank), *map(_fmt_float, values))) + "\n"
                    for rank, *values in rows))
        _write_csv(temp(out_dir / "filter_report.csv"),
                   (*(f.name for f in fields(report)),
                    "skipped_missing_prediction"),
                   [",".join(map(str, (*astuple(report), skipped))) + "\n"])
        _write_csv(temp(out_dir / "coverage.csv"),
                   ("agent_id", "kind", "coverage_m"),
                   (f"{aid},{kind},{_fmt_float(cov)}\n"
                    for aid, kind, cov in cov_rows))
    return 0


# -- dump-roadgraph ----------------------------------------------------------

def cmd_dump_roadgraph(args) -> int:
    cfg = _resolve_config(args)
    _, results = _scan_all(args, partial(intents_batch, kind=None, cfg=cfg,
                                         dump=True))
    records = [r for chunk in results for r in chunk]
    # a vehicle without a reach set fell back
    fell_back = [r[:2] for r in records if r[2] == "vehicle" and r[3] is None]
    # stable: a scene's agents keep their order
    for _, agent_id in sorted(fell_back, key=lambda f: f[0]):
        print(f"note: {agent_id} has no lane association; skipped",
              file=sys.stderr)
    with _outputs() as temp:
        _write_reach_csv(temp(args.out), records)
    return 0


# -- parser ------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser, analysis: bool = False):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--jobs", type=int, default=1)
    for key, default in _DEFAULTS.items():
        # RunConfig's own fields are analysis settings
        if not analysis and key in {f.name for f in fields(RunConfig)}:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, dest=key, action="store_const", const=True)
        else:
            p.add_argument(flag, dest=key, type=type(default), choices=(
                DEVIATION_MODES if key == "deviation_mode" else None))


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line, ``error: <message>``, and
    exits 2 like every other usage error; subparsers share the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_an.add_argument("--endpoints",
                      help="CSV (class,x,y) of endpoints for static points")
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


def _run(func, args) -> int:
    """``func(args)``, with a refusal printed as one ``error:`` line and
    returned as exit code 2 (usage) or 1; the scripts run through it too."""
    try:
        return func(args)
    except (UsageError, DataError, ScenarioError, CsvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
