"""Intention point generation: static, dynamic, and mixed sets.

All three flavors reduce a weighted 2-D point pool to exactly k points
with a deterministic weighted K-means (k-means++ seeding from a fixed
seed, Lloyd updates, lexicographically sorted output). Exact duplicate
points are coalesced into a single sample with summed weight before
clustering, which makes integer sample weights bit-identical to
replicating the points (same seed).

Pools smaller than k cannot be clustered into k distinct centers; they
are padded by cycling through the distinct points in decreasing weight
order (dead-end roads can yield tiny reachable sets).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .map_model import AgentTrack
from .road_graph import ReachabilitySet

INTENT_KINDS = ("static", "dynamic", "mixed")


@dataclass(frozen=True)
class KMeansConfig:
    k: int = 64
    max_iterations: int = 100
    tolerance: float = 1e-6   # m, max centroid displacement
    seed: int = 0

    def __post_init__(self):
        for name, low in (("k", 1), ("max_iterations", 1), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) \
                    or v < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        if not 0 <= self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and >= 0")


@dataclass(frozen=True)
class MixConfig:
    dynamic_weight: float = 3.0
    static_weight: float = 1.0

    def __post_init__(self):
        if not (0 < self.dynamic_weight < math.inf
                and 0 < self.static_weight < math.inf):
            raise ValueError("mix weights must be finite and > 0")


@dataclass(eq=False)
class IntentionPointSet:
    """Exactly k 2-D points in the agent-centric frame (origin at the
    agent's current position, x-axis along its heading)."""

    kind: str
    points: np.ndarray
    k: int
    object_class: Optional[str] = None

    def __post_init__(self):
        if self.kind not in INTENT_KINDS:
            raise ValueError(f"kind must be one of {INTENT_KINDS}")
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.shape != (self.k, 2):
            raise ValueError(f"expected exactly {self.k} points, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("intention points must be finite")
        self.points = pts


def _coalesce(points: np.ndarray, weights: np.ndarray):
    """Merge exact duplicate points, summing weights, keeping first-seen order."""
    seen: dict[tuple[float, float], int] = {}
    order: list[int] = []
    w_out: list[float] = []
    for i, (x, y) in enumerate(points):
        key = (float(x), float(y))
        j = seen.get(key)
        if j is None:
            seen[key] = len(order)
            order.append(i)
            w_out.append(float(weights[i]))
        else:
            w_out[j] += float(weights[i])
    return points[np.asarray(order)], np.asarray(w_out)


def _d2(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (n, k) via the expanded dot product, clamped at 0."""
    pn = np.einsum("ij,ij->i", pts, pts)
    cn = np.einsum("ij,ij->i", centers, centers)
    d2 = pn[:, None] + cn[None, :] - 2.0 * (pts @ centers.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _pick(cum: np.ndarray, u: float | np.ndarray) -> np.ndarray:
    """Inverse-CDF draw(s): the first index whose cumulative weight exceeds
    u * total, clipped to the last index against round-off."""
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"),
                      len(cum) - 1)


def _kmeanspp(pts: np.ndarray, weights: np.ndarray, k: int,
              rng: np.random.Generator) -> np.ndarray:
    """Weighted k-means++ seeding with greedy local trials.

    The first center is drawn by weight; each further step samples
    ``2 + int(ln k)`` candidates with probability proportional to weight
    times squared distance to the nearest chosen center and keeps the
    candidate that minimizes the resulting weighted potential. Ties keep
    the earliest candidate drawn (``argmin`` returns the first minimum).

    Each step scores all its candidates in one ``(n_trials, n)`` block.
    The candidate-to-point dot products come from a stacked matmul,
    ``pts[None] @ c[:, :, None]``, which runs one matrix-vector product per
    candidate, exactly like ``pts @ c.T`` for a single center. A single
    matrix-matrix product (``pts @ C.T`` or an einsum) takes a different
    BLAS kernel whose results can differ in the last bit, which is enough
    to flip which of two near-tied candidates wins.
    Each potential is a row sum over a contiguous row, so it is summed in
    the same pairwise order as the 1-D sum of one candidate.
    """
    n_trials = 2 + int(math.log(k)) if k > 1 else 1
    pn = np.einsum("ij,ij->i", pts, pts)
    chosen = [int(_pick(np.cumsum(weights), rng.random()))]
    d2 = _d2(pts, pts[chosen[-1]][None, :])[:, 0]
    for _ in range(k - 1):
        cand = _pick(np.cumsum(weights * d2), rng.random(n_trials))
        c = pts[cand]
        cn = np.einsum("ij,ij->i", c, c)
        blk = pn[None, :] + cn[:, None] \
            - 2.0 * np.matmul(pts[None], c[:, :, None])[:, :, 0]
        np.maximum(blk, 0.0, out=blk)
        np.minimum(blk, d2, out=blk)
        best = int((weights[None, :] * blk).sum(axis=1).argmin())
        chosen.append(int(cand[best]))
        d2 = blk[best]
    return pts[np.asarray(chosen)].copy()


def _lloyd(pts: np.ndarray, weights: np.ndarray, centers: np.ndarray,
           cfg: KMeansConfig):
    """Weighted Lloyd iterations. Returns (centers, per-iteration weighted
    within-cluster sums of squares). Empty clusters keep their centroid."""
    k = centers.shape[0]
    n = pts.shape[0]
    objectives = []
    for _ in range(cfg.max_iterations):
        d2 = _d2(pts, centers)
        labels = d2.argmin(axis=1)
        objectives.append(float((weights * d2[np.arange(n), labels]).sum()))
        sw = np.bincount(labels, weights=weights, minlength=k)
        sx = np.bincount(labels, weights=weights * pts[:, 0], minlength=k)
        sy = np.bincount(labels, weights=weights * pts[:, 1], minlength=k)
        new_centers = centers.copy()
        occupied = sw > 0
        new_centers[occupied, 0] = sx[occupied] / sw[occupied]
        new_centers[occupied, 1] = sy[occupied] / sw[occupied]
        shift = math.sqrt(float(((new_centers - centers) ** 2).sum(axis=1).max()))
        centers = new_centers
        if shift < cfg.tolerance:
            break
    return centers, objectives


def _pad_to_k(pts: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Fewer distinct points than k: repeat the highest-weight points."""
    order = np.lexsort((pts[:, 1], pts[:, 0], -weights))
    reps = [pts]
    missing = k - pts.shape[0]
    while missing > 0:
        take = min(missing, pts.shape[0])
        reps.append(pts[order[:take]])
        missing -= take
    return np.concatenate(reps, axis=0)


def weighted_kmeans(points, weights=None,
                    cfg: KMeansConfig | None = None) -> np.ndarray:
    """Cluster weighted 2-D points into exactly cfg.k centroids.

    Deterministic in (points, weights, cfg.seed); output is sorted
    lexicographically by (x, y).
    """
    cfg = cfg or KMeansConfig()
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, 2) array")
    if weights is None:
        w = np.ones(pts.shape[0])
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must match points")
        if (w <= 0).any():
            raise ValueError("weights must be > 0")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")

    pts, w = _coalesce(pts, w)
    if pts.shape[0] <= cfg.k:
        if pts.shape[0] < cfg.k:
            pts = _pad_to_k(pts, w, cfg.k)
        centers = pts
    else:
        rng = np.random.default_rng(cfg.seed)
        centers, _ = _lloyd(pts, w, _kmeanspp(pts, w, cfg.k, rng), cfg)
    out = centers[np.lexsort((centers[:, 1], centers[:, 0]))]
    out.flags.writeable = False
    return out


def to_agent_frame(point, track: AgentTrack) -> np.ndarray:
    """Global point -> agent frame: translate by -position, rotate by -heading."""
    cur = track.current_state
    dx = float(point[0]) - cur.x
    dy = float(point[1]) - cur.y
    c, s = math.cos(cur.heading), math.sin(cur.heading)
    return np.array([c * dx + s * dy, -s * dx + c * dy])


def _frame_matrix(track: AgentTrack):
    cur = track.current_state
    c, s = math.cos(cur.heading), math.sin(cur.heading)
    rot = np.array([[c, s], [-s, c]])
    return np.array([cur.x, cur.y]), rot


def static_intents(endpoints, object_class: str,
                   cfg: KMeansConfig | None = None) -> IntentionPointSet:
    """Statistical intention points: K-means over ground-truth trajectory
    endpoints (agent frame), computed per object class."""
    cfg = cfg or KMeansConfig()
    pts = np.asarray(endpoints, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need at least one endpoint")
    centers = weighted_kmeans(pts, None, cfg)
    return IntentionPointSet("static", centers, cfg.k, object_class)


def dynamic_intents(reach_set: ReachabilitySet, track: AgentTrack,
                    cfg: KMeansConfig | None = None) -> IntentionPointSet:
    """Scene-conditioned intention points: K-means over the reachable
    road-graph nodes, transformed into the agent frame."""
    cfg = cfg or KMeansConfig()
    if len(reach_set) == 0:
        raise ValueError("empty reachability set; fall back to static points")
    origin, rot = _frame_matrix(track)
    local = (reach_set.positions - origin) @ rot.T
    centers = weighted_kmeans(local, None, cfg)
    return IntentionPointSet("dynamic", centers, cfg.k)


def mixed_intents(dyn: IntentionPointSet, stat: IntentionPointSet,
                  mix: MixConfig | None = None,
                  cfg: KMeansConfig | None = None) -> IntentionPointSet:
    """Pool dynamic and static points (same agent frame) and re-cluster
    with the configured weights (dynamic points emphasized by default)."""
    mix = mix or MixConfig()
    cfg = cfg or KMeansConfig()
    if dyn.kind != "dynamic" or stat.kind != "static":
        raise ValueError("mixed_intents needs one dynamic and one static set")
    pool = np.concatenate([dyn.points, stat.points], axis=0)
    weights = np.concatenate([
        np.full(dyn.points.shape[0], mix.dynamic_weight),
        np.full(stat.points.shape[0], mix.static_weight),
    ])
    centers = weighted_kmeans(pool, weights, cfg)
    return IntentionPointSet("mixed", centers, cfg.k)
