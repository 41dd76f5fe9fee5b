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

Lloyd labels each point with the first nearest center of the (n, k)
block of squared distances (pn + cn) - 2 p.c, with pn and cn the
squared norms. Pools of at least ``_BOUND_MIN_POINTS`` points (reach
sets on large maps; suite pools hold at most a few hundred) rebuild only
the rows whose label may change, after Hamerly (2010, "Making k-means
even faster"); on lane pools at k = 64 this pays from 512 to 768 points
up. Each point keeps a lower bound l on its distance to every center
but its own: the square root of its second-smallest row value less a
margin, shrunk after each update by the largest shift among those
centers. Its squared distance u2 to its own center comes from the
point-center difference, which has no cancellation. A point keeps its
label while l*l - u2 exceeds the margin 1e-9 * (pn + max cn + 1); any
block entry is within some 1e-16 times that sum of the true squared
distance, far inside the margin, so the whole block gives it the same
label. The other rows are recomputed from a product of those rows,
which can differ from the whole product in the last bit; a row whose
two smallest values lie within the margin is recomputed from the rows
of the whole product, as the whole block holds them. Labels, and so
centers, bincount sums and the stopping test, are those of the whole
block bit for bit. A NaN bound (overflowing norms) fails the
comparison, so its row is recomputed.
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

# Lloyd keeps distance bounds on pools of at least this many points (see
# above); smaller pools rebuild the whole block, which costs less there.
_BOUND_MIN_POINTS = 1024
# squared distances within _MARGIN * (pn + max cn + 1) count as tied
_MARGIN = 1e-9


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
    """Merge exact duplicate points, summing weights, keeping first-seen order.

    ``+ 0.0`` turns -0.0 into 0.0, so the two compare as one point. Each
    kept point is its first occurrence, as given, and ``bincount`` adds the
    weights of a point in input order."""
    _, first, inverse = np.unique(points + 0.0, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return points[first[order]], np.bincount(rank[inverse.ravel()],
                                             weights=weights)


def _block(pn: np.ndarray, cn: np.ndarray, dot: np.ndarray) -> np.ndarray:
    """Squared distances (n, k) via the expanded dot product, clamped at 0,
    from the squared norms and the dot products: (pn + cn) - 2 dot, built
    in place of ``dot``."""
    dot *= -2.0
    dot += pn[:, None] + cn
    np.maximum(dot, 0.0, out=dot)
    return dot


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
    first = pts[chosen[-1]][None, :]
    d2 = _block(pn, np.einsum("ij,ij->i", first, first), pts @ first.T)[:, 0]
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


def _nearest_two(blk: np.ndarray):
    """Per row: the first column holding the row minimum, that minimum, and
    the smallest value in any other column (inf when there is none).
    Overwrites the minima in ``blk``."""
    r = np.arange(blk.shape[0])
    lab = blk.argmin(axis=1)
    best = blk[r, lab]
    blk[r, lab] = np.inf
    # argmin and a gather cost less than min(axis=1) on short rows; a row
    # holding NaN gives NaN either way
    return lab, best, blk[r, blk.argmin(axis=1)]


def _lloyd(pts: np.ndarray, weights: np.ndarray, centers: np.ndarray,
           cfg: KMeansConfig):
    """Weighted Lloyd iterations. Returns (centers, per-iteration weighted
    within-cluster sums of squares). Empty clusters keep their centroid.

    Pools of at least ``_BOUND_MIN_POINTS`` points recompute only the rows
    whose label may change (see the module docstring); the labels, and so
    the centers, equal those of the whole block. The objective sums each
    point's squared distance to its own center, from the block where its
    row was recomputed and from the point-center difference elsewhere."""
    k = centers.shape[0]
    n = pts.shape[0]
    pn = np.einsum("ij,ij->i", pts, pts)
    cn = np.einsum("ij,ij->i", centers, centers)
    wx, wy = weights * pts[:, 0], weights * pts[:, 1]
    bounded = n >= _BOUND_MIN_POINTS
    pn_margin = _MARGIN * (pn + 1.0)
    rows = np.arange(n)
    labels = np.zeros(n, dtype=np.intp)
    d2 = np.empty(n)      # squared distance to the own center
    lower = np.empty(n)   # bound below the distance to every other center
    objectives = []
    for _ in range(cfg.max_iterations):
        if rows.size == n:
            blk = _block(pn, cn, pts @ centers.T)
        else:
            blk = _block(pn[rows], cn,
                         np.take(pts, rows, axis=0) @ centers.T)
        if bounded:
            margin = pn_margin[rows] + _MARGIN * cn.max()
            lab, best, second = _nearest_two(blk)
            if rows.size < n:
                # a product of some rows can differ from the same rows of
                # the whole product in the last bit: near ties take the
                # whole product's rows, as the whole block holds them
                tied = np.flatnonzero(~(second - best > margin))
                if tied.size:
                    r = rows[tied]
                    lab[tied], best[tied], second[tied] = _nearest_two(
                        _block(pn[r], cn, (pts @ centers.T)[r]))
            lower[rows] = np.sqrt(np.maximum(second - margin, 0.0))
        else:
            lab = blk.argmin(axis=1)
            best = blk[rows, lab]
        labels[rows] = lab
        d2[rows] = best
        objectives.append(float((weights * d2).sum()))
        sw = np.bincount(labels, weights=weights, minlength=k)
        sx = np.bincount(labels, weights=wx, minlength=k)
        sy = np.bincount(labels, weights=wy, minlength=k)
        new_centers = centers.copy()
        occupied = sw > 0
        new_centers[occupied, 0] = sx[occupied] / sw[occupied]
        new_centers[occupied, 1] = sy[occupied] / sw[occupied]
        moved = ((new_centers - centers) ** 2).sum(axis=1)
        shift = math.sqrt(float(moved.max()))
        centers = new_centers
        if shift < cfg.tolerance:
            break
        cn = np.einsum("ij,ij->i", centers, centers)
        if bounded:
            # a center that moved by s came at most s nearer to a point
            moved = np.sqrt(moved)
            far = int(moved.argmax())
            fastest = moved[far]
            moved[far] = 0.0
            lower -= np.where(labels == far, moved.max(), fastest)
            np.maximum(lower, 0.0, out=lower)
            diff = pts - np.take(centers, labels, axis=0)
            d2 = np.einsum("ij,ij->i", diff, diff)
            # NaN bounds (overflowing norms) compare False: recompute
            rows = np.flatnonzero(~(lower * lower - d2
                                    > pn_margin + _MARGIN * cn.max()))
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
        if not (np.isfinite(w) & (w > 0)).all():
            raise ValueError("weights must be finite and > 0")
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
