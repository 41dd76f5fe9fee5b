"""Vectorized lane-map scenario model: map geometry, agent tracks, file I/O.

A scenario file is UTF-8 JSON with the following layout (canonical form:
sorted keys, compact separators, floats rendered with 6 decimal places,
trailing newline):

    {
      "map": {"segments": [
          {"entries": [], "exits": [7], "id": 3,
           "left": {"change_ok": 1, "id": 4} | null,
           "nodes": [[x, y], ...],
           "right": null,
           "speed_limit_mps": 13.4112},
          ...]},
      "scenario_id": "...",
      "tracks": [
          {"agent_id": "a0", "class": "vehicle",
           "future":  [[t, x, y, heading, speed, valid], ...],   # 80 rows
           "history": [[t, x, y, heading, speed, valid], ...],   # 11 rows
           "length_m": 4.8, "width_m": 2.1},
          ...],
      "tracks_to_predict": ["a0", ...]
    }

Positions are meters in a shared global frame, headings are radians in
(-pi, pi], speeds in m/s, timestamps are integer sample indices at 10 Hz.
Invalid states (valid == 0) carry no numeric guarantees and must be
skipped by consumers.

The parser also accepts a few odd but legal values, and its array path
and its per-field path agree on them:

- a timestamp may be any JSON integer, kept exactly, or a bool (written
  back as 0 or 1);
- a valid flag may be 0 or 1 written as an int, a float or a bool;
- the x, y, heading and speed of an invalid state may be anything: a
  finite number is kept (a bool as 0.0 or 1.0), and a non-numeric or
  non-finite value becomes 0.0.

A scenario_id or agent_id holding a comma, CR or LF (ids are fields of
the output CSVs), and an integer beyond float range in a number field,
invalid states included, are SchemaViolations; a segment id beyond 64
bits is an InvariantViolation; an integer literal beyond Python's
int-string digit limit is a MalformedScenario.

Parsing validates the schema and the structural invariants (symmetric
segment connectivity, mutual neighbor references, node spacing in
(0, 2] m). Scenarios are normalized on construction (segments keyed and
ordered by id, tracks ordered by agent id) so structurally equal
scenarios serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

HISTORY_LEN = 11        # 1 s of past plus the current sample, 10 Hz
FUTURE_LEN = 80         # 8 s ground-truth horizon, 10 Hz
MAX_NODE_SPACING = 2.0  # m; bounds the node-vs-polyline distance error

OBJECT_CLASSES = ("vehicle", "pedestrian", "cyclist")


class ScenarioError(ValueError):
    """Base class for scenario file and model errors."""


class MalformedScenario(ScenarioError):
    """Input bytes are not syntactically valid scenario JSON."""


class SchemaViolation(ScenarioError):
    """A field is missing, has the wrong type, or an illegal value."""


class InvariantViolation(ScenarioError):
    """Structurally valid input breaks a model invariant."""


def _number(name, value, low, *, open_low, error=None):
    """Raises ``error``, by default a ValueError that names ``name``,
    unless ``value`` is a finite real number, not a bool, above ``low``
    (or at least ``low`` unless ``open_low``). Compared exactly, an int
    beyond float range exceeds the largest float, where math.isfinite
    would raise OverflowError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (low < value if open_low else low <= value)
            or not value <= sys.float_info.max):
        raise error or ValueError(f"{name} must be a finite number "
                                  f"{'>' if open_low else '>='} {low}")


def _integer(name, value, low, high=None):
    """Raises a ValueError that names ``name`` unless ``value`` is an
    integral number, not a bool, with ``low <= value <= high``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or high is not None and value > high):
        raise ValueError(f"{name} must be an integer >= {low}"
                         + ("" if high is None else f" and <= {high}"))


@dataclass(frozen=True)
class LaneNeighbor:
    segment_id: int
    change_ok: bool


@dataclass(eq=False)
class LaneSegment:
    """A directed lane polyline with connectivity metadata.

    ``nodes`` is an (N, 2) float array of lane-center points ordered in
    the direction of travel. ``arc_offsets[i]`` is the polyline distance
    from the segment start to node i.
    """

    id: int
    nodes: np.ndarray
    speed_limit_mps: float
    exit_ids: tuple[int, ...] = ()
    entry_ids: tuple[int, ...] = ()
    left: Optional[LaneNeighbor] = None
    right: Optional[LaneNeighbor] = None
    arc_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        if nodes.ndim != 2 or nodes.shape[1] != 2 or nodes.shape[0] < 2:
            raise InvariantViolation(
                f"segment {self.id}: needs at least 2 nodes of shape (N, 2)")
        if not np.isfinite(nodes).all():
            raise InvariantViolation(f"segment {self.id}: non-finite node coordinate")
        _number("speed limit", self.speed_limit_mps, 0, open_low=True,
                error=InvariantViolation(
                    f"segment {self.id}: speed limit must be > 0"))
        # a spacing beyond float range is inf, refused below as too wide
        with np.errstate(over="ignore"):
            spacing = np.hypot(*(nodes[1:] - nodes[:-1]).T)
        if (spacing <= 0.0).any():
            raise InvariantViolation(f"segment {self.id}: duplicate consecutive nodes")
        if (spacing > MAX_NODE_SPACING).any():
            raise InvariantViolation(
                f"segment {self.id}: node spacing exceeds {MAX_NODE_SPACING} m")
        nodes.flags.writeable = False
        offsets = np.concatenate(([0.0], np.cumsum(spacing)))
        offsets.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "arc_offsets", offsets)
        object.__setattr__(self, "exit_ids", tuple(self.exit_ids))
        object.__setattr__(self, "entry_ids", tuple(self.entry_ids))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def total_arc(self) -> float:
        return float(self.arc_offsets[-1])

    def __eq__(self, other):
        if not isinstance(other, LaneSegment):
            return NotImplemented
        return (self.id == other.id
                and self.speed_limit_mps == other.speed_limit_mps
                and self.exit_ids == other.exit_ids
                and self.entry_ids == other.entry_ids
                and self.left == other.left
                and self.right == other.right
                and np.array_equal(self.nodes, other.nodes))


class VectorMap:
    """Immutable lane-segment map with flat arrays over its lane nodes."""

    def __init__(self, segments: Iterable[LaneSegment]):
        by_id: dict[int, LaneSegment] = {}
        for seg in segments:
            if seg.id in by_id:
                raise InvariantViolation(f"duplicate segment id {seg.id}")
            by_id[seg.id] = seg
        self.segments: dict[int, LaneSegment] = dict(sorted(by_id.items()))
        self._validate_connectivity()
        for sid in self.segments:
            if not -2**63 <= sid < 2**63:
                raise InvariantViolation(f"segment id {sid} exceeds 64 bits")

        seg_ids = [np.empty(0, np.int64)]
        node_idx = [np.empty(0, np.int64)]
        pos = [np.empty((0, 2))]
        for sid, seg in self.segments.items():
            seg_ids.append(np.full(seg.n_nodes, sid, dtype=np.int64))
            node_idx.append(np.arange(seg.n_nodes, dtype=np.int64))
            pos.append(seg.nodes)
        self.node_seg_ids = np.concatenate(seg_ids)
        self.node_indices = np.concatenate(node_idx)
        self.node_positions = np.concatenate(pos, axis=0)
        for arr in (self.node_seg_ids, self.node_indices, self.node_positions):
            arr.flags.writeable = False

    def _validate_connectivity(self):
        for sid, seg in self.segments.items():
            for ref in (*seg.exit_ids, *seg.entry_ids):
                if ref not in self.segments:
                    raise InvariantViolation(
                        f"segment {sid} references unknown segment {ref}")
            for b in seg.exit_ids:
                if sid not in self.segments[b].entry_ids:
                    raise InvariantViolation(
                        f"segment {sid} lists exit {b} but segment {b} "
                        f"does not list entry {sid}")
            for b in seg.entry_ids:
                if sid not in self.segments[b].exit_ids:
                    raise InvariantViolation(
                        f"segment {sid} lists entry {b} but segment {b} "
                        f"does not list exit {sid}")
            for side, attr, back in (("left", seg.left, "right"),
                                     ("right", seg.right, "left")):
                if attr is None:
                    continue
                if attr.segment_id not in self.segments:
                    raise InvariantViolation(
                        f"segment {sid} references unknown {side} neighbor "
                        f"{attr.segment_id}")
                other = getattr(self.segments[attr.segment_id], back)
                if other is None or other.segment_id != sid:
                    raise InvariantViolation(
                        f"segment {sid} has {side} neighbor {attr.segment_id} "
                        f"without a mutual {back} reference")

    @property
    def n_nodes(self) -> int:
        return int(self.node_positions.shape[0])

    def nearest_nodes(self, point, radius: float) -> list[tuple[int, int, float]]:
        """All lane nodes within ``radius`` of ``point``, found by one scan
        over every node.

        Sorted by Euclidean distance, ties broken by (segment id, node
        index).
        """
        if radius <= 0:
            raise ValueError("radius must be > 0")
        p = np.asarray(point, dtype=np.float64)
        # a distance beyond float range is inf, beyond any radius
        with np.errstate(over="ignore"):
            d = np.hypot(*(self.node_positions - p).T)
        keep = d <= radius
        d, sid, ni = d[keep], self.node_seg_ids[keep], self.node_indices[keep]
        order = np.lexsort((ni, sid, d))
        return [(int(sid[i]), int(ni[i]), float(d[i])) for i in order]

    def __eq__(self, other):
        if not isinstance(other, VectorMap):
            return NotImplemented
        return self.segments == other.segments


@dataclass(frozen=True)
class AgentState:
    timestamp_index: int
    x: float
    y: float
    heading: float
    speed: float
    valid: bool


class AgentTrack:
    """One agent: class, dimensions, 11-step history, 80-step future.

    The 91 states are held only as ``timestamps`` (the 91 timestamp
    indices, exactly as given) and ``states``, a read-only (91, 5) float64
    array with columns x, y, heading, speed and valid (1.0 or 0.0); the
    first HISTORY_LEN rows are the history, the last of them the current
    state, which ``current_state`` also gives as an AgentState. The parser
    and scenario_gen build tracks with ``from_arrays``; the constructor
    from AgentState lists builds the benchmark's ``bigmap_online`` tracks
    and the tests' reference tracks.
    """

    def __init__(self, agent_id: str, object_class: str, length_m: float,
                 width_m: float, history: Sequence[AgentState],
                 future: Sequence[AgentState]):
        def rows(states):
            return [(s.x, s.y, s.heading, s.speed, bool(s.valid))
                    for s in states]

        self._setup(agent_id, object_class, length_m, width_m,
                    [s.timestamp_index for s in (*history, *future)],
                    rows(history), rows(future))

    @classmethod
    def from_arrays(cls, agent_id: str, object_class: str, length_m: float,
                    width_m: float, timestamps: Sequence[int],
                    history: np.ndarray, future: np.ndarray) -> AgentTrack:
        """A track from its 91 timestamps and the (11, 5) history and
        (80, 5) future blocks laid out like ``states``."""
        track = cls.__new__(cls)
        track._setup(agent_id, object_class, length_m, width_m, timestamps,
                     history, future)
        return track

    def _setup(self, agent_id, object_class, length_m, width_m, timestamps,
               history, future):
        if object_class not in OBJECT_CLASSES:
            raise SchemaViolation(
                f"track {agent_id}: class must be one of "
                f"{'|'.join(OBJECT_CLASSES)}, got {object_class!r}")
        if len(history) != HISTORY_LEN:
            raise InvariantViolation(
                f"track {agent_id}: history must have {HISTORY_LEN} states")
        if len(future) != FUTURE_LEN:
            raise InvariantViolation(
                f"track {agent_id}: future must have {FUTURE_LEN} states")
        states = np.concatenate((history, future), dtype=np.float64)
        if not states[HISTORY_LEN - 1, 4]:
            raise InvariantViolation(
                f"track {agent_id}: current state (last history entry) "
                f"must be valid")
        finite = np.isfinite(states[:, :4]).all(axis=1)
        heading = states[:, 2]
        bad = (states[:, 4] != 0) & ~(finite & (-math.pi < heading)
                                      & (heading <= math.pi))
        if bad.any():
            i = int(bad.argmax())
            reason = ("non-finite value in valid state" if not finite[i]
                      else "heading out of (-pi, pi]")
            raise InvariantViolation(
                f"track {agent_id}: {reason} at t={timestamps[i]}")
        states.flags.writeable = False
        self.agent_id = agent_id
        self.object_class = object_class
        self.length_m = length_m
        self.width_m = width_m
        self.timestamps = tuple(timestamps)
        self.states = states

    @cached_property
    def current_state(self) -> AgentState:
        x, y, h, v, _ = self.states[HISTORY_LEN - 1].tolist()
        return AgentState(self.timestamps[HISTORY_LEN - 1], x, y, h, v, True)

    @property
    def future_xy(self) -> np.ndarray:
        return self.states[HISTORY_LEN:, :2]

    @cached_property
    def future_valid(self) -> np.ndarray:
        return self.states[HISTORY_LEN:, 4] != 0.0

    def gt_endpoint(self) -> Optional[np.ndarray]:
        """Ground-truth position at the 8 s horizon, or None if invalid."""
        return self.states[-1, :2].copy() if self.states[-1, 4] else None

    def __eq__(self, other):
        if not isinstance(other, AgentTrack):
            return NotImplemented
        return (self.agent_id == other.agent_id
                and self.object_class == other.object_class
                and self.length_m == other.length_m
                and self.width_m == other.width_m
                and self.timestamps == other.timestamps
                and np.array_equal(self.states, other.states))

    def __repr__(self):
        return f"AgentTrack({self.agent_id!r}, {self.object_class!r})"


@dataclass
class Scenario:
    """A lane map, tracks sorted by agent id and the sorted ids to predict;
    equal when all four fields are, and unhashable."""

    scenario_id: str
    vector_map: VectorMap
    tracks: list[AgentTrack]
    tracks_to_predict: tuple[str, ...]

    def __post_init__(self):
        ids = [t.agent_id for t in self.tracks]
        if len(set(ids)) != len(ids):
            raise SchemaViolation("duplicate agent_id in tracks")
        self.tracks = sorted(self.tracks, key=lambda t: t.agent_id)
        self.tracks_to_predict = tuple(sorted(set(self.tracks_to_predict)))
        known = set(ids)
        for aid in self.tracks_to_predict:
            if aid not in known:
                raise InvariantViolation(
                    f"tracks_to_predict references unknown agent {aid!r}")
        self._by_id = {t.agent_id: t for t in self.tracks}

    def track(self, agent_id: str) -> AgentTrack:
        return self._by_id[agent_id]


# -- parsing ---------------------------------------------------------------

def _expect(cond: bool, path: str, reason: str):
    if not cond:
        raise SchemaViolation(f"{path}: {reason}")


def _id(value, path: str):
    _expect(isinstance(value, str), path, "expected string")
    # ids are fields of the output CSVs
    _expect(not any(c in value for c in ",\r\n"), path,
            "expected no comma or line break")


def _float(value, path: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range
        raise SchemaViolation(f"{path}: number out of float range") from None


def _num(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            path, "expected finite number")
    value = _float(value, path)
    _expect(math.isfinite(value), path, "expected finite number")
    return value


def _invalid_field(value, path: str) -> float:
    # invalid states carry no guarantees; normalize non-numeric and
    # non-finite fields so canonical re-serialization stays valid JSON
    if not isinstance(value, (int, float)):
        return 0.0
    value = _float(value, path)
    return value if math.isfinite(value) else 0.0


def _plain_block(rows: list, width: int) -> Optional[np.ndarray]:
    """``rows`` as an (N, width) float64 array if it is a list of
    ``width``-element lists of plain JSON numbers (int or float, no bool)
    within float range, else None. The type checks run over whole blocks
    at C level; a block that fails them takes the per-field walk, which
    alone builds error messages and handles the odd-but-legal values."""
    if (set(map(type, rows)) != {list} or set(map(len, rows)) != {width}
            or not set(map(type, chain.from_iterable(rows))) <= {int, float}):
        return None
    try:
        return np.array(rows, dtype=np.float64)
    except OverflowError:
        return None


def _parse_neighbor(obj, path: str) -> Optional[LaneNeighbor]:
    if obj is None:
        return None
    _expect(isinstance(obj, dict), path, "expected object or null")
    _expect("id" in obj and "change_ok" in obj, path,
            "neighbor needs fields id, change_ok")
    _expect(isinstance(obj["id"], int), f"{path}.id", "expected integer")
    _expect(obj["change_ok"] in (0, 1), f"{path}.change_ok", "expected 0 or 1")
    return LaneNeighbor(obj["id"], bool(obj["change_ok"]))


def _parse_segment(obj, path: str) -> LaneSegment:
    _expect(isinstance(obj, dict), path, "expected object")
    for key in ("id", "speed_limit_mps", "nodes", "exits", "entries",
                "left", "right"):
        _expect(key in obj, path, f"missing field {key!r}")
    _expect(isinstance(obj["id"], int), f"{path}.id", "expected integer")
    nodes = obj["nodes"]
    _expect(isinstance(nodes, list) and len(nodes) >= 2, f"{path}.nodes",
            "expected array of at least 2 points")
    parsed = _plain_block(nodes, 2)
    if parsed is None or not np.isfinite(parsed).all():
        parsed = []
        for i, pt in enumerate(nodes):
            _expect(isinstance(pt, list) and len(pt) == 2,
                    f"{path}.nodes[{i}]", "expected [x, y]")
            parsed.append([_num(pt[0], f"{path}.nodes[{i}][0]"),
                           _num(pt[1], f"{path}.nodes[{i}][1]")])
    for key in ("exits", "entries"):
        refs = obj[key]
        _expect(isinstance(refs, list) and all(isinstance(r, int) for r in refs),
                f"{path}.{key}", "expected array of segment ids")
    return LaneSegment(
        id=obj["id"],
        nodes=np.asarray(parsed, dtype=np.float64),
        speed_limit_mps=_num(obj["speed_limit_mps"], f"{path}.speed_limit_mps"),
        exit_ids=tuple(obj["exits"]),
        entry_ids=tuple(obj["entries"]),
        left=_parse_neighbor(obj["left"], f"{path}.left"),
        right=_parse_neighbor(obj["right"], f"{path}.right"),
    )


def _parse_states(rows, path: str, expected_len: int
                  ) -> tuple[list, np.ndarray]:
    """The timestamps and the (expected_len, 5) block of x, y, heading,
    speed and valid of a history or future array."""
    _expect(isinstance(rows, list) and len(rows) == expected_len, path,
            f"expected array of {expected_len} states")
    block = _plain_block(rows, 6)
    if block is not None:
        timestamps = [row[0] for row in rows]
        values, flags = block[:, 1:5], block[:, 5]
        valid = flags == 1.0
        finite = np.isfinite(values)
        if (set(map(type, timestamps)) == {int}
                and (valid | (flags == 0.0)).all() and finite[valid].all()):
            values[~finite] = 0.0
            return timestamps, block[:, 1:]
    timestamps, out = [], []
    for i, row in enumerate(rows):
        rpath = f"{path}[{i}]"
        _expect(isinstance(row, list) and len(row) == 6, rpath,
                "expected [t, x, y, heading, speed, valid]")
        t, x, y, h, v, ok = row
        _expect(isinstance(t, int), f"{rpath}[0]", "expected integer timestamp")
        _expect(ok in (0, 1), f"{rpath}[5]", "expected valid flag 0 or 1")
        read = _num if ok else _invalid_field
        timestamps.append(t)
        out.append([read(f, rpath) for f in (x, y, h, v)]
                   + [1.0 if ok else 0.0])
    return timestamps, np.array(out, dtype=np.float64)


def _parse_track(obj, path: str) -> AgentTrack:
    _expect(isinstance(obj, dict), path, "expected object")
    for key in ("agent_id", "class", "length_m", "width_m", "history", "future"):
        _expect(key in obj, path, f"missing field {key!r}")
    _id(obj["agent_id"], f"{path}.agent_id")
    length_m = _num(obj["length_m"], f"{path}.length_m")
    width_m = _num(obj["width_m"], f"{path}.width_m")
    history_t, history = _parse_states(obj["history"], f"{path}.history",
                                       HISTORY_LEN)
    future_t, future = _parse_states(obj["future"], f"{path}.future",
                                     FUTURE_LEN)
    return AgentTrack.from_arrays(obj["agent_id"], obj["class"], length_m,
                                  width_m, history_t + future_t, history,
                                  future)


def parse_scenario(data: bytes | str) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError subclasses."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedScenario(f"not UTF-8: {exc}") from None
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals beyond
        # Python's int-string digit limit
        raise MalformedScenario(f"invalid JSON: {exc}") from None
    _expect(isinstance(obj, dict), "$", "expected top-level object")
    for key in ("scenario_id", "map", "tracks", "tracks_to_predict"):
        _expect(key in obj, "$", f"missing field {key!r}")
    _id(obj["scenario_id"], "scenario_id")
    _expect(isinstance(obj["map"], dict) and "segments" in obj["map"],
            "map", "expected object with field 'segments'")
    segs_raw = obj["map"]["segments"]
    _expect(isinstance(segs_raw, list), "map.segments", "expected array")
    segments = [_parse_segment(s, f"map.segments[{i}]")
                for i, s in enumerate(segs_raw)]
    tracks_raw = obj["tracks"]
    _expect(isinstance(tracks_raw, list), "tracks", "expected array")
    tracks = [_parse_track(t, f"tracks[{i}]") for i, t in enumerate(tracks_raw)]
    ttp = obj["tracks_to_predict"]
    _expect(isinstance(ttp, list) and all(isinstance(a, str) for a in ttp),
            "tracks_to_predict", "expected array of agent id strings")
    return Scenario(
        scenario_id=obj["scenario_id"],
        vector_map=VectorMap(segments),
        tracks=tracks,
        tracks_to_predict=tuple(ttp),
    )


# -- canonical serialization ------------------------------------------------

def _fmt_float(x: float) -> str:
    return "%.6f" % (x + 0.0)  # adding 0.0 turns -0.0 into 0.0


def _rows(fmt: str, rows) -> str:
    return "[" + ",".join(fmt % row for row in rows) + "]"


def _block(fmt: str, n: int, values) -> str:
    return "[[" + "],[".join([fmt] * n) % tuple(values) + "]]"


def _state_rows(track: AgentTrack, rows: slice) -> str:
    # adding 0.0 turns -0.0 into 0.0, as _fmt_float does
    columns = (track.states[rows] + 0.0).T.tolist()
    return _block("%d,%.6f,%.6f,%.6f,%.6f,%d", len(columns[0]),
                  chain.from_iterable(zip(track.timestamps[rows], *columns)))


def _neighbor(n: Optional[LaneNeighbor]) -> str:
    return "null" if n is None else '{"change_ok":%d,"id":%d}' % (
        n.change_ok, n.segment_id)


def write_scenario(scenario: Scenario) -> bytes:
    """Serialize to canonical bytes; equal scenarios yield identical output.
    Keys are written in sorted order; a bool id or flag is written as 0 or
    1."""
    segments = ",".join(
        '{"entries":%s,"exits":%s,"id":%d,"left":%s,"nodes":%s,"right":%s,'
        '"speed_limit_mps":%s}' % (
            _rows("%d", seg.entry_ids), _rows("%d", seg.exit_ids), seg.id,
            _neighbor(seg.left),
            _block("%.6f,%.6f", seg.n_nodes,
                   (seg.nodes + 0.0).ravel().tolist()),
            _neighbor(seg.right), _fmt_float(seg.speed_limit_mps))
        for seg in scenario.vector_map.segments.values())
    tracks = ",".join(
        '{"agent_id":%s,"class":%s,"future":%s,"history":%s,"length_m":%s,'
        '"width_m":%s}' % (
            json.dumps(t.agent_id), json.dumps(t.object_class),
            _state_rows(t, slice(HISTORY_LEN, None)),
            _state_rows(t, slice(HISTORY_LEN)), _fmt_float(t.length_m),
            _fmt_float(t.width_m))
        for t in scenario.tracks)
    return ('{"map":{"segments":[%s]},"scenario_id":%s,"tracks":[%s],'
            '"tracks_to_predict":%s}\n' % (
                segments, json.dumps(scenario.scenario_id), tracks,
                _rows("%s", map(json.dumps, scenario.tracks_to_predict)))
            ).encode("utf-8")
