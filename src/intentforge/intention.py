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
block of squared distances computed elementwise, (x - cx)**2 + (y -
cy)**2, one numpy operation at a time, so no BLAS kernel decides an
output bit. It takes its rows from one product of the rows [x, y, pn, 1]
with the columns [-2cx; -2cy; 1; cn], clamped at 0, with pn and cn the
squared norms; that costs less than the elementwise block. The four
terms add up to at most pn + cn + 2|p||c| <= 2 (pn + cn) in magnitude,
so each product entry lies within a few ulps of 2 (pn + cn) of the true
squared distance, and so does each elementwise entry: both lie far
inside the margin 1e-9 * (2 (pn + max cn) + 1). A row whose two smallest
product values lie more than the margin apart thus has the elementwise
block's nearest center, and every other row is rebuilt elementwise from
its own point alone. Labels, and so centers, bincount sums, the stopping
test and the iteration count, are those of the elementwise block bit for
bit on any BLAS; the objectives, summed from the product rows, can
differ from it in the last bit, and no output reads them. The margin is
summed as written, so it is inf where 2 (pn + max cn) overflows; that
covers every row whose product partial sum could overflow. Like a NaN
bound or block value, an inf margin fails every comparison, so such a
row is rebuilt elementwise in every iteration.

Pools of at least ``_BOUND_MIN_POINTS`` points (reach sets on large
maps; suite pools hold at most a few hundred) recompute only the rows
whose label may change, after Hamerly (2010, "Making k-means even
faster"); on lane pools at k = 64 this pays from 512 to 768 points up.
Each point keeps a lower bound l on its distance to every center but its
own: the square root of its second-smallest row value less the margin,
shrunk after each update by the largest shift among those centers. Its
squared distance u2 to its own center comes from the point-center
difference, which has no cancellation. A point keeps its label while
l*l - u2 exceeds the margin, and then the elementwise block gives it the
same label.

``weighted_kmeans_many`` clusters many pools at once (one per agent in
the batch commands) and returns for each exactly what ``weighted_kmeans``
returns for it alone. k-means++ seeding costs per numpy call, not per
point, on pools of a few hundred points, so it seeds every pool of one
coalesced size n in one stacked block, and that is exact:

- every pool seeds its generator from ``cfg.seed``, so all pools of a
  stack share one stream of uniforms;
- a draw counts the cumulative weights <= u * total, which equals
  ``searchsorted(side="right")`` because the cumulative weights never
  decrease;
- each candidate distance is computed elementwise, so it does not depend
  on the other pools and candidates that share its block;
- each potential is the sum of one contiguous row of length n, so it is
  added in the same pairwise order as for one pool.

Padding pools to a common size would change those row sums, so pools are
grouped by size instead. Lloyd runs per pool, unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .map_model import AgentTrack, _integer, _number
from .road_graph import ReachabilitySet

INTENT_KINDS = ("static", "dynamic", "mixed")

# Lloyd keeps distance bounds on pools of at least this many points (see
# above); smaller pools recompute every row, which costs less there.
_BOUND_MIN_POINTS = 1024
# k-means++ seeds at most this many pools of one size in one block: one
# block per size seeds the pools of a 500-scene suite (up to 450 of one
# size) ~10 % slower than blocks of 32, and a block's memory stays bounded
_SEED_CHUNK = 32
# squared distances within _MARGIN * (2 (pn + max cn) + 1) count as tied
_MARGIN = 1e-9
# the largest k KMeansConfig accepts: a pool padded to k points stays
# within 16 MB, where an unbounded k would grow memory until it ran out
_MAX_K = 2 ** 20


@dataclass(frozen=True)
class KMeansConfig:
    """K-means settings. ``k`` is an integer in [1, ``_MAX_K``]."""

    k: int = 64
    max_iterations: int = 100
    tolerance: float = 1e-6   # m, max centroid displacement
    seed: int = 0

    def __post_init__(self):
        _integer("k", self.k, 1, _MAX_K)
        _integer("max_iterations", self.max_iterations, 1)
        _integer("seed", self.seed, 0)
        _number("tolerance", self.tolerance, 0, open_low=False)


@dataclass(frozen=True)
class MixConfig:
    dynamic_weight: float = 3.0
    static_weight: float = 1.0

    def __post_init__(self):
        _number("dynamic_weight", self.dynamic_weight, 0, open_low=True)
        _number("static_weight", self.static_weight, 0, open_low=True)


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

    ``+ 0.0`` turns -0.0 into 0.0, so the two compare as one point. A
    stable sort by (x, y) heads each run of equal points with their first
    occurrence, which is kept as given; ``bincount`` adds the weights of a
    point in input order."""
    keyed = points + 0.0
    by_xy = np.lexsort((keyed[:, 1], keyed[:, 0]))
    ranked = keyed[by_xy]
    head = np.ones(by_xy.size, dtype=bool)
    head[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = by_xy[head]
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    labels = np.empty_like(by_xy)
    labels[by_xy] = rank[np.cumsum(head) - 1]
    return points[first[order]], np.bincount(labels, weights=weights)


def _pick(cum: np.ndarray, u: float | np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from a stack of cumulative weight rows (B, n): per
    row, for each u, the first index whose cumulative weight exceeds
    u * total, clipped to the last index against round-off. Returns (B, T)
    for T draws (T = 1 for a scalar u). Counting the entries <= u * total
    equals ``searchsorted(side="right")`` on a row that never decreases; one
    row keeps ``searchsorted``, which costs less there."""
    v = cum[:, -1:] * u
    if cum.shape[0] == 1:
        idx = np.searchsorted(cum[0], v[0], side="right")[None]
    else:
        idx = (cum[:, None, :] <= v[:, :, None]).sum(axis=2)
    return np.minimum(idx, cum.shape[1] - 1)


def _to_centers(pts: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distances (..., T, n) from the points (..., n, 2) to the T
    centers c (..., T, 2), elementwise: (x - cx)**2 + (y - cy)**2."""
    d2 = pts[..., None, :, 0] - c[..., :, 0, None]
    d2 *= d2
    dy = pts[..., None, :, 1] - c[..., :, 1, None]
    dy *= dy
    d2 += dy
    return d2


def _kmeanspp(pts: np.ndarray, weights: np.ndarray, k: int,
              rng: np.random.Generator) -> np.ndarray:
    """Weighted k-means++ seeding with greedy local trials.

    The first center is drawn by weight; each further step samples
    ``2 + int(ln k)`` candidates with probability proportional to weight
    times squared distance to the nearest chosen center and keeps the
    candidate that minimizes the resulting weighted potential. Ties keep
    the earliest candidate drawn (``argmin`` returns the first minimum).

    ``pts`` (n, 2) and ``weights`` (n,) are one pool; a stack (B, n, 2) and
    (B, n) of pools of one size seeds each pool as if alone, with the same
    draws from ``rng``, and returns (B, k, 2) (see the module docstring).
    Each step scores all candidates of every pool in one ``(B, n_trials,
    n)`` block of elementwise squared distances. Each potential is a row
    sum over a contiguous row, so it is summed in the same pairwise order
    as the 1-D sum of one candidate.
    """
    stack = pts if pts.ndim == 3 else pts[None]
    w = weights if pts.ndim == 3 else weights[None]
    b, n = w.shape
    n_trials = 2 + int(math.log(k)) if k > 1 else 1
    # flat indices: point i of pool p is row p * n + i of ``flat``, and
    # candidate t of pool p is row p * n_trials + t of a step's block
    flat = stack.reshape(-1, 2)
    pool_rows = np.arange(b) * n
    pool_cands = np.arange(b) * n_trials
    chosen = [_pick(np.cumsum(w, axis=1), rng.random())[:, 0] + pool_rows]
    d2 = _to_centers(stack, flat[chosen[0]][:, None])[:, 0]
    for _ in range(k - 1):
        cand = _pick(np.cumsum(w * d2, axis=1), rng.random(n_trials))
        cand += pool_rows[:, None]
        blk = _to_centers(stack, flat[cand])
        np.minimum(blk, d2[:, None], out=blk)
        best = (w[:, None] * blk).sum(axis=2).argmin(axis=1) + pool_cands
        chosen.append(cand.ravel()[best])
        d2 = blk.reshape(-1, n)[best]
    centers = flat[np.stack(chosen, axis=1)]
    return centers if pts.ndim == 3 else centers[0]


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

    Rows come from one product [x, y, pn, 1] @ [-2cx; -2cy; 1; cn], and
    near-tied rows are rebuilt elementwise (see the module docstring): the
    labels, and so the centers and the number of iterations, equal those
    of the elementwise block. Pools of at least ``_BOUND_MIN_POINTS``
    points recompute only the rows whose label may change. The objective
    sums each point's squared distance to its own center, from its row
    where it was recomputed and from the point-center difference
    elsewhere, so it can differ from the elementwise block's in the last
    bit."""
    k = centers.shape[0]
    n = pts.shape[0]
    pn = np.einsum("ij,ij->i", pts, pts)
    cn = np.einsum("ij,ij->i", centers, centers)
    wx, wy = weights * pts[:, 0], weights * pts[:, 1]
    bounded = n >= _BOUND_MIN_POINTS
    aug = np.column_stack([pts, pn, np.ones(n)])
    cols = np.ones((4, k))
    pn2 = 2.0 * pn
    rows = np.arange(n)
    labels = np.zeros(n, dtype=np.intp)
    d2 = np.empty(n)      # squared distance to the own center
    lower = np.empty(n)   # bound below the distance to every other center
    objectives = []
    for it in range(cfg.max_iterations):
        margin = _MARGIN * (pn2 + (2.0 * cn.max() + 1.0))
        if bounded and it:
            # NaN bounds and inf margins (overflowing norms) compare
            # False: recompute
            rows = np.flatnonzero(~(lower * lower - d2 > margin))
            margin = margin[rows]
        cols[:2] = -2.0 * centers.T
        cols[3] = cn
        blk = (aug if rows.size == n
               else np.take(aug, rows, axis=0)) @ cols
        lab, best, second = _nearest_two(np.maximum(blk, 0.0, out=blk))
        # near ties take their elementwise rows
        tied = np.flatnonzero(~(second - best > margin))
        if tied.size:
            lab[tied], best[tied], second[tied] = _nearest_two(
                _to_centers(pts[rows[tied]], centers).T)
        if bounded:
            lower[rows] = np.sqrt(np.maximum(second - margin, 0.0))
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
    return centers, objectives


def _pad_to_k(pts: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Fewer distinct points than k: repeat the highest-weight points,
    cycling through them in decreasing weight order."""
    order = np.lexsort((pts[:, 1], pts[:, 0], -weights))
    return np.concatenate([pts, pts[np.resize(order, k - pts.shape[0])]])


def _checked_pool(points, weights) -> tuple[np.ndarray, np.ndarray]:
    """One pool as float arrays (n, 2) and (n,), duplicates coalesced;
    ValueError for a malformed pool."""
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
    return _coalesce(pts, w)


def weighted_kmeans_many(pools, cfg: KMeansConfig | None = None
                         ) -> list[np.ndarray]:
    """``weighted_kmeans`` of every (points, weights or None) pool, in
    order, bit for bit. k-means++ seeds the pools of one coalesced size
    together, ``_SEED_CHUNK`` at a time (see the module docstring); Lloyd
    runs per pool."""
    cfg = cfg or KMeansConfig()
    pools = [_checked_pool(pts, w) for pts, w in pools]
    centers: list = [None] * len(pools)
    by_size: dict[int, list[int]] = {}
    for i, (pts, w) in enumerate(pools):
        if pts.shape[0] > cfg.k:
            by_size.setdefault(pts.shape[0], []).append(i)
        else:
            centers[i] = pts if pts.shape[0] == cfg.k \
                else _pad_to_k(pts, w, cfg.k)
    for same_size in by_size.values():
        for at in range(0, len(same_size), _SEED_CHUNK):
            chunk = same_size[at:at + _SEED_CHUNK]
            seeds = _kmeanspp(np.stack([pools[i][0] for i in chunk]),
                              np.stack([pools[i][1] for i in chunk]), cfg.k,
                              np.random.default_rng(cfg.seed))
            for i, init in zip(chunk, seeds):
                centers[i], _ = _lloyd(*pools[i], init, cfg)
    out = [c[np.lexsort((c[:, 1], c[:, 0]))] for c in centers]
    for c in out:
        c.flags.writeable = False
    return out


def weighted_kmeans(points, weights=None,
                    cfg: KMeansConfig | None = None) -> np.ndarray:
    """Cluster weighted 2-D points into exactly cfg.k centroids.

    Deterministic in (points, weights, cfg.seed); output is sorted
    lexicographically by (x, y).
    """
    return weighted_kmeans_many([(points, weights)], cfg)[0]


def to_agent_frame(points, track: AgentTrack) -> np.ndarray:
    """Global point (2,) or points (n, 2) -> agent frame: translate by
    -position, rotate by -heading, elementwise."""
    cur = track.current_state
    p = np.asarray(points, dtype=np.float64)
    dx = p[..., 0] - cur.x
    dy = p[..., 1] - cur.y
    c, s = math.cos(cur.heading), math.sin(cur.heading)
    return np.stack([c * dx + s * dy, -s * dx + c * dy], axis=-1)


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


def dynamic_pool(reach_set: ReachabilitySet, track: AgentTrack) -> np.ndarray:
    """The reachable road-graph nodes of one agent in its agent frame: the
    pool its dynamic intention points are clustered from."""
    if len(reach_set) == 0:
        raise ValueError("empty reachability set; fall back to static points")
    return to_agent_frame(reach_set.positions, track)


def dynamic_intents_many(pools, cfg: KMeansConfig | None = None
                         ) -> list[IntentionPointSet]:
    """Scene-conditioned intention points of many agents at once, one set
    per ``dynamic_pool``, each equal to its ``dynamic_intents``."""
    cfg = cfg or KMeansConfig()
    return [IntentionPointSet("dynamic", centers, cfg.k) for centers
            in weighted_kmeans_many([(pool, None) for pool in pools], cfg)]


def dynamic_intents(reach_set: ReachabilitySet, track: AgentTrack,
                    cfg: KMeansConfig | None = None) -> IntentionPointSet:
    """Scene-conditioned intention points: K-means over the reachable
    road-graph nodes, transformed into the agent frame."""
    return dynamic_intents_many([dynamic_pool(reach_set, track)], cfg)[0]


def mixed_intents_many(dyns, stat: IntentionPointSet,
                       mix: MixConfig | None = None,
                       cfg: KMeansConfig | None = None
                       ) -> list[IntentionPointSet]:
    """``mixed_intents`` of each dynamic set in ``dyns`` with one static
    set, clustered together."""
    mix = mix or MixConfig()
    cfg = cfg or KMeansConfig()
    if stat.kind != "static" or any(d.kind != "dynamic" for d in dyns):
        raise ValueError("mixed_intents needs one dynamic and one static set")
    pools = [(np.concatenate([dyn.points, stat.points], axis=0),
              np.concatenate([np.full(dyn.points.shape[0], mix.dynamic_weight),
                              np.full(stat.points.shape[0],
                                      mix.static_weight)]))
             for dyn in dyns]
    return [IntentionPointSet("mixed", centers, cfg.k)
            for centers in weighted_kmeans_many(pools, cfg)]


def mixed_intents(dyn: IntentionPointSet, stat: IntentionPointSet,
                  mix: MixConfig | None = None,
                  cfg: KMeansConfig | None = None) -> IntentionPointSet:
    """Pool dynamic and static points (same agent frame) and re-cluster
    with the configured weights (dynamic points emphasized by default)."""
    return mixed_intents_many([dyn], stat, mix, cfg)[0]
