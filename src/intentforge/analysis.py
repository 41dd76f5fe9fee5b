"""Prediction-quality analysis over externally supplied prediction files.

Covers the prediction and endpoint CSV readers, displacement metrics
(minADE / minFDE / miss rate), ground-truth deviation from the legal road
graph, sliding-window smoothing, the deviation-vs-minFDE curve, and
coverage.

Miss-rate thresholds follow the Waymo Open Motion benchmark definition:
lateral / longitudinal boxes of (1.0, 2.0) m at 3 s, (1.8, 3.6) m at
5 s, (3.0, 6.0) m at 8 s, oriented by the ground-truth heading at the
horizon and scaled by the agent's current speed v with factor 0.5 for
v <= 1.4 m/s, 1.0 for v >= 11 m/s, linear in between. Boundary hits are
inclusive (a mode exactly on the threshold counts as a hit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .map_model import FUTURE_LEN, HISTORY_LEN, AgentTrack, _integer
from .road_graph import ReachabilitySet

HORIZON_STEP = {3: 29, 5: 49, 8: 79}   # future index at 10 Hz

MR_LATERAL = {3: 1.0, 5: 1.8, 8: 3.0}
MR_LONGITUDINAL = {3: 2.0, 5: 3.6, 8: 6.0}
MR_SPEED_LOW, MR_SPEED_HIGH = 1.4, 11.0
MR_SCALE_LOW, MR_SCALE_HIGH = 0.5, 1.0

PARKED_DISPLACEMENT = 1.0    # m of total GT path length over 8 s
MAX_MODES = 6

_PREDICTION_HEADER = "agent_id,mode_idx,confidence,step,x,y"
# Characters read from a CSV file at a time. Each block, and every array
# built from one, stays below glibc's initial mmap threshold (128 KiB):
# freeing a larger one raises that threshold, after which such blocks come
# from the heap and a long run's peak memory grows.
_READ_CHARS = 1 << 16
# ",0," .. ",79,": the text between a prediction row's agent_id,mode_idx,
# confidence prefix and its x, in step order
_STEP_TEXTS = tuple(f",{step}," for step in range(FUTURE_LEN))


class CsvError(ValueError):
    """An unreadable or malformed prediction or endpoints CSV."""


@dataclass(eq=False)
class PredictionSet:
    """Up to 6 predicted trajectories of 80 global-frame points each."""

    trajectories: np.ndarray     # (m, 80, 2)
    confidences: np.ndarray      # (m,)

    def __post_init__(self):
        traj = np.asarray(self.trajectories, dtype=np.float64)
        conf = np.asarray(self.confidences, dtype=np.float64)
        if traj.ndim != 3 or traj.shape[2] != 2 or traj.shape[1] != FUTURE_LEN:
            raise ValueError(
                f"trajectories must have shape (m, {FUTURE_LEN}, 2)")
        m = traj.shape[0]
        if not 1 <= m <= MAX_MODES:
            raise ValueError(f"need 1..{MAX_MODES} modes, got {m}")
        if conf.shape != (m,):
            raise ValueError("one confidence per mode required")
        if not (np.isfinite(traj).all() and np.isfinite(conf).all()):
            raise ValueError("trajectories and confidences must be finite")
        if (conf < 0).any() or (conf > 1).any():
            raise ValueError("confidences must lie in [0, 1]")
        if conf.sum() > 1 + 1e-6:
            raise ValueError("confidences must sum to <= 1")
        self.trajectories = traj
        self.confidences = conf


def _csv_blocks(path, header: str):
    """The lines after the first of a text file whose first line is
    ``header``, one list per block of ``_READ_CHARS`` characters. Each block
    is cut after its last newline, so the lines are those of
    ``read_text().splitlines()``."""
    rest, headed = "", False
    try:
        with open(path) as fh:
            while True:
                block = fh.read(_READ_CHARS)
                text = rest + block
                cut = text.rfind("\n") + 1 if block else len(text)
                rest = text[cut:]
                lines = text[:cut].splitlines()
                if lines and not headed:
                    if lines[0].strip() != header:
                        raise CsvError(f"{path}: expected header {header!r}")
                    headed = True
                    del lines[0]
                yield lines
                if not block:
                    break
    except (OSError, UnicodeDecodeError) as exc:
        raise CsvError(f"cannot read {path}: {exc}") from None
    if not headed:
        raise CsvError(f"{path}: expected header {header!r}")


def _csv_rows(path, header: str, width: int):
    """(line number, fields) of each non-blank line after the first of a
    text file whose first line is ``header``, read a block at a time.
    Raises CsvError naming ``file:line`` for a line without ``width``
    fields."""
    lineno = 1
    for lines in _csv_blocks(path, header):
        for line in lines:
            lineno += 1
            if line.strip():
                parts = line.split(",")
                if len(parts) != width:
                    raise CsvError(f"{path}:{lineno}: expected {width} "
                                   f"columns")
                yield lineno, parts


def read_endpoints(path) -> dict[str, np.ndarray]:
    """(n, 2) endpoint arrays by object class from a CSV with the header
    ``class,x,y``; blank lines are skipped. Raises CsvError naming
    ``file:line`` for a malformed row."""
    pools: dict[str, list] = {}
    for i, (cls, x, y) in _csv_rows(path, "class,x,y", 3):
        try:
            x, y = float(x), float(y)
        except ValueError as exc:
            raise CsvError(f"{path}:{i}: {exc}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise CsvError(f"{path}:{i}: x and y must be finite")
        pools.setdefault(cls, []).append((x, y))
    return {cls: np.asarray(xy) for cls, xy in pools.items()}


def check_prediction_header(path) -> None:
    """Raise ``read_predictions``'s CsvError unless ``path`` opens and its
    first line is the prediction header. Reads no further than the first
    block that holds a line after the header."""
    for lines in _csv_blocks(path, _PREDICTION_HEADER):
        if lines:
            return


def _predictions_walk(path) -> dict[str, PredictionSet]:
    """``read_predictions`` row by row, in any row order: the only reader
    that words a malformed row's message."""
    acc: dict[str, dict[int, dict]] = {}
    for i, (aid, mode, conf, step, x, y) in _csv_rows(
            path, _PREDICTION_HEADER, 6):
        try:
            mode, step = int(mode), int(step)
            # a dict, not a tuple: a tuple here raised analyze's peak RSS
            # by ~10 MB (allocator fragmentation), for the same contents
            slot = acc.setdefault(aid, {}).setdefault(
                mode, {"text": conf, "conf": float(conf), "pts": {}})
            xy = (float(x), float(y))
        except ValueError as exc:
            raise CsvError(f"{path}:{i}: {exc}") from None
        if step in slot["pts"]:
            raise CsvError(f"{path}:{i}: duplicate row for agent {aid} "
                           f"mode {mode} step {step}")
        if conf != slot["text"]:
            raise CsvError(f"{path}:{i}: confidence {conf} differs from "
                           f"{slot['text']} on earlier rows of agent {aid} "
                           f"mode {mode}")
        slot["pts"][step] = xy
    out = {}
    for aid, modes in acc.items():
        traj, conf = [], []
        for mode in sorted(modes):
            pts = modes[mode]["pts"]
            if sorted(pts) != list(range(80)):
                raise CsvError(
                    f"{path}: agent {aid} mode {mode} must have steps 0..79")
            traj.append([pts[s] for s in range(80)])
            conf.append(modes[mode]["conf"])
        try:
            out[aid] = PredictionSet(np.asarray(traj), np.asarray(conf))
        except ValueError as exc:
            raise CsvError(f"{path}: agent {aid}: {exc}") from None
    return out


def _predictions_fast(path) -> dict[str, PredictionSet] | None:
    """``read_predictions`` of a file whose rows run agent by agent, each
    agent's modes in rising order and each mode's steps 0..79 in order, or
    None at any doubt, so that the walk rereads the file: the two accept the
    same files with the same values.

    Each block's complete runs of 80 rows are checked as columns: every row
    starts with its run's first ``agent_id,mode_idx,confidence`` prefix and
    its step text, the block holds exactly 5 commas per row, and
    ``np.loadtxt`` converts x and y (it needs at least 6 columns per row).
    What loadtxt reads it reads as ``float()`` does, bar "\\x1f", which is
    refused; underscores and non-ASCII digits it refuses itself. Only one
    prefix per run is parsed; its mode text must be a canonical integer."""
    out: dict[str, PredictionSet] = {}
    aid, last_mode, trajs, confs, pending = None, 0, [], [], []

    def flush():
        if aid is not None:
            out[aid] = PredictionSet(np.stack(trajs), np.array(confs))

    try:
        for block in _csv_blocks(path, _PREDICTION_HEADER):
            lines = pending + block
            n = len(lines) - len(lines) % FUTURE_LEN
            lines, pending = lines[:n], lines[n:]
            if not n:
                continue
            prefixes = [ln.rsplit(",", 3)[0] for ln in lines[::FUTURE_LEN]]
            heads = [p + s for p in prefixes for s in _STEP_TEXTS]
            text = "\n".join(lines)
            if (not all(map(str.startswith, lines, heads))
                    or text.count(",") != 5 * n or "\x1f" in text):
                return None
            xy = np.loadtxt(lines, delimiter=",", usecols=(4, 5),
                            comments=None, ndmin=2)
            for i, prefix in enumerate(prefixes):
                run_aid, mode_text, conf = prefix.split(",")
                mode = int(mode_text)
                if str(mode) != mode_text:
                    return None
                if run_aid != aid:
                    flush()
                    if run_aid in out:
                        return None
                    aid, trajs, confs = run_aid, [], []
                elif mode <= last_mode:
                    return None
                last_mode = mode
                trajs.append(xy[i * FUTURE_LEN:(i + 1) * FUTURE_LEN])
                confs.append(float(conf))
        if pending:
            return None
        flush()
    except ValueError:
        return None
    return out


def read_predictions(path) -> dict[str, PredictionSet]:
    """Prediction sets by agent id, in order of first appearance, from a CSV
    with the header ``agent_id,mode_idx,confidence,step,x,y``. Rows may come
    in any order; rows grouped by agent, mode and step load fastest. Raises
    CsvError naming ``file:line`` for a malformed row, or the file and agent
    for a malformed prediction set."""
    preds = _predictions_fast(path)
    return _predictions_walk(path) if preds is None else preds


def _horizon_state(gt: AgentTrack, horizon: int):
    if horizon not in HORIZON_STEP:
        raise ValueError("horizon must be one of 3, 5, 8 (seconds)")
    x, y, heading, _, ok = gt.states[HISTORY_LEN + HORIZON_STEP[horizon]]
    if not ok:
        raise ValueError(f"ground truth invalid at the {horizon} s horizon")
    return float(x), float(y), float(heading)


def min_fde(pred: PredictionSet, gt: AgentTrack, horizon: int) -> float:
    """Minimum over modes of the final displacement at the horizon step."""
    x, y, _ = _horizon_state(gt, horizon)
    pts = pred.trajectories[:, HORIZON_STEP[horizon], :]
    # a displacement beyond float range is inf, which deviation_curve refuses
    with np.errstate(over="ignore"):
        return float(np.hypot(pts[:, 0] - x, pts[:, 1] - y).min())


def min_ade(pred: PredictionSet, gt: AgentTrack, horizon: int) -> float:
    """Minimum over modes of the mean displacement over valid GT steps up
    to (and including) the horizon step."""
    if horizon not in HORIZON_STEP:
        raise ValueError("horizon must be one of 3, 5, 8 (seconds)")
    end = HORIZON_STEP[horizon] + 1
    valid = gt.future_valid[:end]
    if not valid.any():
        raise ValueError("no valid ground-truth step up to the horizon")
    gt_xy = gt.future_xy[:end][valid]
    diff = pred.trajectories[:, :end, :][:, valid, :] - gt_xy[None, :, :]
    per_mode = np.hypot(diff[..., 0], diff[..., 1]).mean(axis=1)
    return float(per_mode.min())


def miss_threshold_scale(current_speed: float) -> float:
    if current_speed <= MR_SPEED_LOW:
        return MR_SCALE_LOW
    if current_speed >= MR_SPEED_HIGH:
        return MR_SCALE_HIGH
    frac = (current_speed - MR_SPEED_LOW) / (MR_SPEED_HIGH - MR_SPEED_LOW)
    return MR_SCALE_LOW + (MR_SCALE_HIGH - MR_SCALE_LOW) * frac


def miss_rate(pred: PredictionSet, gt: AgentTrack, horizon: int) -> int:
    """1 if no mode endpoint is inside the benchmark threshold box around
    the GT endpoint (oriented by GT heading), else 0."""
    x, y, heading = _horizon_state(gt, horizon)
    scale = miss_threshold_scale(gt.current_state.speed)
    lat_t = MR_LATERAL[horizon] * scale
    lon_t = MR_LONGITUDINAL[horizon] * scale
    c, s = math.cos(heading), math.sin(heading)
    pts = pred.trajectories[:, HORIZON_STEP[horizon], :]
    ex, ey = pts[:, 0] - x, pts[:, 1] - y
    lon = c * ex + s * ey
    lat = -s * ex + c * ey
    hit = (np.abs(lat) <= lat_t) & (np.abs(lon) <= lon_t)
    return 0 if hit.any() else 1


DEVIATION_MODES = ("node", "polyline")


def gt_deviation(gt: AgentTrack, reach_set: ReachabilitySet,
                 mode: str = "node") -> float:
    """Smallest distance from the GT 8 s endpoint to the reachable road
    graph.

    node mode measures to reachable nodes; polyline mode measures to the
    lane pieces between reachable nodes that are consecutive within a
    segment (isolated reachable nodes still count as points), so
    polyline <= node <= polyline + spacing / 2.
    """
    if mode not in DEVIATION_MODES:
        raise ValueError(f"mode must be one of {DEVIATION_MODES}")
    endpoint = gt.gt_endpoint()
    if endpoint is None:
        raise ValueError("ground truth invalid at the 8 s horizon")
    if len(reach_set) == 0:
        raise ValueError("empty reachability set")
    d_nodes = np.hypot(*(reach_set.positions - endpoint).T)
    if mode == "node":
        return float(d_nodes.min())
    best = float(d_nodes.min())
    sid = reach_set.seg_ids
    ni = reach_set.node_indices
    pos = reach_set.positions
    order = np.lexsort((ni, sid))
    sid, ni, pos = sid[order], ni[order], pos[order]
    consecutive = (sid[1:] == sid[:-1]) & (ni[1:] == ni[:-1] + 1)
    if consecutive.any():
        a = pos[:-1][consecutive]
        b = pos[1:][consecutive]
        ab = b - a
        denom = (ab * ab).sum(axis=1)
        t = np.clip(((endpoint - a) * ab).sum(axis=1) / denom, 0.0, 1.0)
        closest = a + t[:, None] * ab
        best = min(best, float(np.hypot(*(closest - endpoint).T).min()))
    return best


def detect_parked(track: AgentTrack) -> bool:
    """True iff the GT path length over the horizon is under 1 m."""
    xy = track.future_xy[track.future_valid]
    if xy.shape[0] < 2:
        return True
    steps = np.hypot(*(xy[1:] - xy[:-1]).T)
    return float(steps.sum()) < PARKED_DISPLACEMENT


def moving_average(values, window: int) -> np.ndarray:
    """Trailing arithmetic mean over each contiguous window; output length
    is len(values) - window + 1. Raises OverflowError unless the values
    and their running sums are finite."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("values must be one-dimensional")
    _integer("window", window, 1)
    if window > x.shape[0]:
        raise ValueError(
            f"window {window} exceeds sequence length {x.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        cs = np.concatenate(([0.0], np.cumsum(x)))
        means = (cs[window:] - cs[:-window]) / window
    if not np.isfinite(means).all():
        raise OverflowError("values and their running sums must be finite")
    return means


@dataclass
class DeviationRecord:
    agent_id: str
    deviation: float
    min_fde_8s: dict[str, float] = field(default_factory=dict)
    parked: bool = False

    def __post_init__(self):
        if self.deviation < 0:
            raise ValueError("deviation must be >= 0")


def deviation_curve(records, window: int):
    """Smoothed minFDE-vs-deviation table.

    Every record counts, parked or not: a caller that excludes parked
    agents drops their records first. Records are sorted by ascending
    deviation; each model's minFDE column is smoothed with a trailing
    moving average. Returns (model_names, rows) where each row is (rank
    index, deviation at that rank, smoothed minFDE per model). Rank
    indices follow the sorted order, so the table serves both the
    sorted-index and the deviation-keyed view. Raises OverflowError naming
    the model whose minFDEs are not finite or sum beyond float range.
    """
    recs = sorted(records, key=lambda r: (r.deviation, r.agent_id))
    if not recs:
        raise ValueError("no records to analyze")
    models = sorted(recs[0].min_fde_8s)
    for r in recs:
        if sorted(r.min_fde_8s) != models:
            raise ValueError("records disagree on the model set")
    if window > len(recs):
        raise ValueError(f"window {window} exceeds record count {len(recs)}")
    smoothed = {}
    for m in models:
        try:
            smoothed[m] = moving_average([r.min_fde_8s[m] for r in recs],
                                         window)
        except OverflowError as exc:
            raise OverflowError(f"minFDE of model {m!r}: {exc}") from None
    rows = []
    for i in range(len(recs) - window + 1):
        rank = i + window - 1
        rows.append((rank, recs[rank].deviation,
                     *(float(smoothed[m][i]) for m in models)))
    return models, rows


def coverage(points, gt_endpoint) -> float:
    """Distance from the agent-frame GT endpoint to the nearest of the
    ``(n, 2)`` intention ``points``; a desk-scale proxy for anchor quality."""
    return float(np.hypot(*(points - np.asarray(gt_endpoint, float)).T).min())
