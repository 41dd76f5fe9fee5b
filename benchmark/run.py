"""intentforge benchmark: run one workload, check its outputs, print metrics.

    python3 benchmark/run.py --workload suite_mixed --seed 0 --seconds 10 \
        --trace 0

Run from the root of a source checkout (it imports ``src/intentforge``).
``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed; ``--trace 1`` prints the per-layer metrics from a separate run
that alternates untraced and traced repetitions. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. Details
(environment, digests, problems, spans) go to ``benchmark/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("suite_mixed", "suite_roadgraph", "suite_analyze",
                  "bigmap_online")


def run_workload(name, seed, seconds, trace, work: Path, **sizes):
    """Set up several times, repeat the timed phase for ``seconds``
    (at least twice, or one untraced/traced pair), then check the output.
    Times are in reference seconds (see yardstick.py)."""
    import numpy as np
    import tracing
    import workloads
    from yardstick import Yardstick

    work.mkdir(parents=True)
    ys = Yardstick()
    wl = workloads.WORKLOADS[name](name, seed, work, ys, **sizes)
    tracer = tracing.Tracer() if trace else None
    scales = {}   # run id -> reference seconds per wall second

    def recording(run_id, traced=True):
        if tracer is None or not traced:
            return contextlib.nullcontext()
        return tracer.recording(run_id)

    setup_walls, setup_scaled, setup_digests = [], [], set()
    for i in range(wl.setup_reps):
        with recording(f"setup-{i}"):
            before = ys.sample()
            start = time.perf_counter()
            setup_digests.add(wl.setup(i, tracer))
            wall = time.perf_counter() - start
            scales[f"setup-{i}"] = ys.scale(before, ys.sample())
        setup_walls.append(wall)
        setup_scaled.append(wall * scales[f"setup-{i}"])
    wl.prepare()

    group = 2 if tracer else 1
    reps, digests, rcs, errors = [], set(), set(), []
    begin = time.perf_counter()
    while True:
        # write back this run's files now, not during the timed repetition
        os.sync()
        rep = len(reps)
        traced = tracer is not None and rep % 2 == 1
        with recording(f"phase-{rep}", traced):
            wall, scaled, rc, digest, err = wl.run_phase(
                rep, tracer if traced else None)
        scales[f"phase-{rep}"] = scaled / wall
        reps.append((wall, scaled, traced))
        digests.add(digest)
        rcs.add(rc)
        if err.strip():
            errors.append(err.strip())
        elapsed = time.perf_counter() - begin
        if rep + 1 >= 2 and (rep + 1) % group == 0 and \
                elapsed * (1 + group / (rep + 1)) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, problems = wl.check()
    if rcs != {0}:
        problems.insert(0, f"exit codes {sorted(rcs)}: "
                           + " | ".join(errors)[-500:])
        failed = set(range(attempted))
    if len(digests) != 1 or len(setup_digests) != 1:
        problems.insert(0, "outputs differ between repetitions of one seed")
        failed = set(range(attempted))
    n_failed = min(len(failed), attempted)

    untraced = [s for _, s, t in reps if not t]
    if tracer is None:
        if isinstance(wl, workloads.Online):
            per_query = np.concatenate([wl.latencies_ms[r] for r, (_, _, t)
                                        in enumerate(reps) if not t])
            per_query = per_query[np.isfinite(per_query)]
            samples = len(per_query)
            p50, p95 = np.percentile(per_query, [50, 95])
        else:
            # a batch command shows no per-agent time from outside: both
            # percentiles read the mean per-agent time
            samples = len(untraced)
            p50 = p95 = median(untraced) / wl.agents * 1e3
        metrics = {
            "agents_per_s": {"value": wl.agents / median(untraced),
                             "unit": "agents/s"},
            "agent_ms_p50": {"value": float(p50), "unit": "ms"},
            "agent_ms_p95": {"value": float(p95), "unit": "ms"},
            "setup_s": {"value": median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        samples = len(untraced)
        traced_walls = [s for _, s, t in reps if t]
        metrics = tracer.per_layer(
            median(traced_walls) / median(untraced) - 1, scales)
    return {
        "workload": name, "seed": seed, "trace": int(bool(trace)),
        "correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
        "metrics": metrics, "problems": problems,
        "setup_digests": sorted(map(str, setup_digests)),
        "output_digests": sorted(digests),
        "setup_walls_s": setup_walls, "setup_reference_s": setup_scaled,
        "phase_walls_s": [{"wall_s": w, "reference_s": s, "traced": t}
                          for w, s, t in reps],
        "samples": samples, "tracer": tracer,
    }


def _blas_threads():
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return fn()
    return "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed):
    import numpy as np
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": _blas_threads(),
        "seed": seed, "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "intentforge" / "__init__.py").is_file():
        print(f"error: {SRC / 'intentforge'} not found; run from the root "
              f"of an intentforge source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    env = environment(args.seed)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        res = run_workload(args.workload, args.seed, args.seconds, args.trace,
                           work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = res.pop("tracer")
    if tracer is not None:
        tracer.dump(results / f"{stem}-spans.json")
        if tracer.absent:
            print(f"absent spans (reported as 0): {', '.join(tracer.absent)}")
    (results / f"{stem}.json").write_text(
        json.dumps({"env": env, **res}, indent=1))

    print("env " + json.dumps(env))
    for d in res["setup_digests"]:
        if d != "None":
            print(f"sha256 {args.workload} setup {d}")
    for d in res["output_digests"]:
        print(f"sha256 {args.workload} output {d}")
    for p in res["problems"][:20]:
        print(f"problem: {p}")
    print(f"failed_frac {res['failed'] / res['attempted']:.6f} "
          f"({res['failed']}/{res['attempted']} agents); "
          f"{res['samples']} timing samples")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
