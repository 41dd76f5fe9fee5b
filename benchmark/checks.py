"""Output checks. Each returns (attempted agents, failed ids, problems).

A failed id is an agent whose output breaks a check; a fault that cannot be
pinned on one agent (a bad header, inconsistent totals) fails every agent.
The checks read the files the CLI wrote, so a test can hand them a
corrupted copy of a good output.
"""

from __future__ import annotations

import math

import numpy as np

MAX_PROBLEMS = 20
K = 64
COORD_TOL = 5e-7 + 1e-9     # 6-decimal rounding of a CSV value


def _csv(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None
    return [ln.split(",") for ln in lines[1:]]


def _float(s):
    try:
        return float(s)
    except ValueError:
        return math.nan


class _Result:
    def __init__(self, attempted):
        self.attempted = attempted
        self.failed: set[str] = set()
        self.problems: list[str] = []

    def fail(self, agent, why):
        self.failed.add(agent)
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{agent}: {why}")

    def fail_all(self, agents, why):
        self.failed.update(agents)
        self.problems.append(why)

    def out(self):
        return self.attempted, self.failed, self.problems


def check_intents(text, targets, fallback, expected):
    """``intents --kind mixed``: 64 finite, x-sorted rows per target;
    fallback=1 rows are static, fallback=0 rows are mixed and the flag
    agrees with lane association; rows sorted by (agent, kind, idx); the
    agents in ``expected`` match a library recomputation."""
    res = _Result(len(targets))
    rows = _csv(text, "agent_id,kind,idx,x,y,fallback")
    if rows is None:
        res.fail_all(targets, "missing or wrong header")
        return res.out()
    by_agent: dict[str, list] = {}
    prev = None
    for row in rows:
        if len(row) != 6:
            res.fail(row[0], f"expected 6 columns: {row}")
            continue
        aid, kind, idx, x, y, flag = row
        key = (aid, kind, int(idx) if idx.isdigit() else -1)
        if prev is not None and key < prev:
            res.fail(aid, "rows out of order")
        prev = key
        by_agent.setdefault(aid, []).append(
            (kind, idx, _float(x), _float(y), flag))
    for aid in by_agent.keys() - targets.keys():
        res.fail(aid, "not a prediction target")
    for aid in targets:
        got = by_agent.get(aid, [])
        if len(got) != K:
            res.fail(aid, f"{len(got)} rows, expected {K}")
            continue
        kinds = {r[0] for r in got}
        flags = {r[4] for r in got}
        want_flag = "1" if aid in fallback else "0"
        want_kind = "static" if aid in fallback else "mixed"
        if flags != {want_flag} or kinds != {want_kind}:
            res.fail(aid, f"kind {sorted(kinds)} / fallback {sorted(flags)}, "
                          f"expected {want_kind} / {want_flag}")
        if [r[1] for r in got] != [str(i) for i in range(K)]:
            res.fail(aid, "idx is not 0..63")
        pts = np.array([(r[2], r[3]) for r in got])
        if not np.isfinite(pts).all():
            res.fail(aid, "non-finite coordinate")
            continue
        # The program sorts by (x, y) before rounding to 6 decimals; two x
        # closer than 1e-6 may print equal with their y in either order,
        # so only x order is checkable from the file.
        if (np.diff(pts[:, 0]) < 0).any():
            res.fail(aid, "points not sorted by x")
        if aid in expected:
            kind, ref = expected[aid]
            if kind != want_kind or not np.allclose(pts, ref, rtol=0,
                                                    atol=COORD_TOL):
                res.fail(aid, "differs from the library recomputation")
    return res.out()


def check_roadgraph(text, targets, expected, budget):
    """``dump-roadgraph``: rows for exactly the non-fallback targets, each
    in its own scenario; 0 <= arrival_s <= budget with a start row at 0;
    rows sorted by (scenario, agent, arrival_s, x, y)."""
    res = _Result(len(targets))
    rows = _csv(text, "scenario_id,agent_id,x,y,arrival_s")
    if rows is None:
        res.fail_all(targets, "missing or wrong header")
        return res.out()
    starts: set[str] = set()
    seen: set[str] = set()
    prev = None
    for row in rows:
        if len(row) != 5:
            res.fail(row[0], f"expected 5 columns: {row}")
            continue
        sid, aid, x, y, t = row
        xf, yf, tf = _float(x), _float(y), _float(t)
        seen.add(aid)
        if not (math.isfinite(xf) and math.isfinite(yf) and math.isfinite(tf)):
            res.fail(aid, f"non-finite value: {row}")
            continue
        key = (sid, aid, tf, xf, yf)
        if prev is not None and key < prev:
            res.fail(aid, "rows out of order")
        prev = key
        if not 0.0 <= tf <= budget:
            res.fail(aid, f"arrival_s {t} outside [0, {budget}]")
        if tf == 0.0:
            starts.add(aid)
        if expected.get(aid, sid) != sid:
            res.fail(aid, f"row in scenario {sid}, expected {expected[aid]}")
    for aid in seen - expected.keys():
        res.fail(aid, "rows for a fallback agent or a non-target")
    for aid in expected.keys() - seen:
        res.fail(aid, "no rows")
    for aid in (expected.keys() & seen) - starts:
        res.fail(aid, "no start row at arrival_s 0")
    return res.out()


def check_analyze(texts, n_targets, models, window):
    """``analyze``: filter_report totals add up to the targets; the curve
    has one row per window position, deviation_m never decreases and
    minfde_gt is exactly 0.000000; three coverage rows per kept agent."""
    everyone = [f"target{i}" for i in range(n_targets)]
    res = _Result(n_targets)
    report = _csv(texts.get("filter_report.csv", ""),
                  "total,excluded_non_vehicle,excluded_no_dynamic,"
                  "excluded_invalid_gt,remaining,skipped_missing_prediction")
    if report is None or len(report) != 1 or not all(
            v.isdigit() for v in report[0]):
        res.fail_all(everyone, "filter_report.csv malformed")
        return res.out()
    total, non_vehicle, no_dynamic, invalid_gt, remaining, skipped = map(
        int, report[0])
    if total != n_targets or total != (non_vehicle + no_dynamic + invalid_gt
                                       + remaining):
        res.fail_all(everyone, f"filter_report totals {report[0]} do not add "
                               f"up to {n_targets}")
        return res.out()

    header = ",".join(["rank", "deviation_m",
                       *(f"minfde_{m}" for m in sorted(models))])
    curve = _csv(texts.get("deviation_curve.csv", ""), header)
    records = remaining - skipped
    if curve is None or len(curve) != records - window + 1:
        res.fail_all(everyone, f"deviation_curve.csv: wrong header or not "
                               f"{records - window + 1} rows")
    else:
        gt_col = 2 + sorted(models).index("gt")
        prev = -math.inf
        for i, row in enumerate(curve):
            where = f"curve row {i}"
            values = [_float(v) for v in row]
            if len(row) != len(header.split(",")) or not all(
                    map(math.isfinite, values)):
                res.fail(where, f"malformed: {row}")
                continue
            if row[0] != str(i + window - 1):
                res.fail(where, f"rank {row[0]}, expected {i + window - 1}")
            if values[1] < prev:
                res.fail(where, "deviation_m decreases")
            prev = values[1]
            if row[gt_col] != "0.000000":
                res.fail(where, f"minfde_gt is {row[gt_col]}, expected 0")

    coverage = _csv(texts.get("coverage.csv", ""), "agent_id,kind,coverage_m")
    if coverage is None:
        res.fail_all(everyone, "coverage.csv missing or wrong header")
        return res.out()
    kinds: dict[str, list] = {}
    for row in coverage:
        if len(row) != 3 or not _float(row[2]) >= 0:
            res.fail(row[0], f"malformed coverage row: {row}")
            continue
        kinds.setdefault(row[0], []).append(row[1])
    for aid, ks in kinds.items():
        if ks != ["dynamic", "mixed", "static"]:
            res.fail(aid, f"coverage kinds {ks}")
    if len(kinds) != remaining:
        res.fail_all(everyone[:abs(len(kinds) - remaining)],
                     f"coverage rows for {len(kinds)} agents, "
                     f"{remaining} kept")
    return res.out()


def check_online(results, budget):
    """Online queries: 64 finite points each; every reach arrival time in
    [0, budget] with the start node at 0."""
    res = _Result(len(results))
    for aid, points, arrivals in results:
        if points is None:
            res.fail(aid, "no result")
            continue
        pts = np.asarray(points)
        t = np.asarray(arrivals)
        if pts.shape != (K, 2) or not np.isfinite(pts).all():
            res.fail(aid, f"points shape {pts.shape} or non-finite")
        if t.size == 0 or not np.isfinite(t).all() or t.min() != 0.0 \
                or t.max() > budget:
            res.fail(aid, "reach arrival times outside [0, budget] or no "
                          "start node")
    return res.out()
