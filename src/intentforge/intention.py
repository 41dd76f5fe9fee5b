"""Intention point generation: static, dynamic, and mixed sets.

All three flavors reduce a weighted 2-D point pool to exactly k points
with a deterministic weighted K-means (a seeding, Lloyd updates,
lexicographically sorted output). Exact duplicate points are coalesced
into a single sample with summed weight before clustering, which makes
integer sample weights bit-identical to replicating the points (same
seed).

A pool of at most k distinct points is its own set of centers, padded
to k by cycling through its points in decreasing weight order (dead-end
roads can yield tiny reachable sets).

Static and mixed pools are seeded by weighted k-means++ from a fixed
seed, ``cfg.seed``. Dynamic pools (``dynamic_sets``) are seeded in lane
order, with no random draw, so ``cfg.seed`` does not move them. A
``dynamic_pool`` lists its reach set by (segment id, node index): a few
polylines of lane nodes 0.5 m apart, end to end, in which a node that
two lanes share coalesces into one point of weight 2. Seed j is the
first point whose cumulative weight reaches (j + 0.5) / k of the total,
moved where needed so that the seeds are k distinct points in order: k
points evenly spaced along the lanes, which Lloyd then moves.

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

``weighted_kmeans_many`` clusters many static or mixed pools (one mixed
pool per agent in the batch commands), ``_CLUSTER_BLOCK`` at a time, and
returns for each exactly what ``weighted_kmeans`` returns for it alone.
k-means++ seeding costs per numpy call, not per point, on pools of a few
hundred points, so it seeds pools of one coalesced size together, in
stacks of at most ``_SEED_CHUNK``. That is exact:

- every pool seeds its generator from ``cfg.seed``, so all pools of a
  stack share one stream of uniforms;
- a draw counts the cumulative weights <= u * total of its own row,
  which equals ``searchsorted(side="right")`` because the cumulative
  weights never decrease;
- each candidate distance is computed elementwise, so it does not depend
  on the other pools and candidates that share its block;
- each potential is the sum of one contiguous row of the pool's own
  length, added in the same pairwise order as alone. Candidates drawn at
  one point have identical rows, so ``argmin``'s first-index rule keeps
  the earliest of them either way.

Lloyd runs per pool.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .map_model import AgentTrack, _integer, _number
from .road_graph import ReachabilitySet

INTENT_KINDS = ("static", "dynamic", "mixed")

# Lloyd keeps distance bounds on pools of at least this many points (see
# above); smaller pools recompute every row, which costs less there.
_BOUND_MIN_POINTS = 1024
# k-means++ seeds at most this many pools of one size in one stack:
# stacks of 16 seed the pools of a 500-scene suite ~20 % slower than
# stacks of 32, larger ones gain nothing, and a stack's memory stays
# bounded
_SEED_CHUNK = 32
# pools clustered in one batch at most. A batch holds about 10 KB per
# pool. k-means++ seeds a batch in stacks of up to _SEED_CHUNK pools of
# one size: over a 500-scene suite, the 443 mixed pools, all of 128
# points, take 14 seeding calls, and the static fit one more.
_CLUSTER_BLOCK = 512
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
    """Mixed points weigh each dynamic point dynamic_weight / static_weight
    and each static point 1, so only the ratio matters; it must be a
    finite normal float."""

    dynamic_weight: float = 3.0
    static_weight: float = 1.0

    def __post_init__(self):
        _number("dynamic_weight", self.dynamic_weight, 0, open_low=True)
        _number("static_weight", self.static_weight, 0, open_low=True)
        _number("dynamic_weight / static_weight",
                self.dynamic_weight / self.static_weight,
                sys.float_info.min, open_low=False)


@dataclass(eq=False)
class IntentionPointSet:
    """2-D points in the agent-centric frame (origin at the agent's
    current position, x-axis along its heading)."""

    kind: str
    points: np.ndarray

    def __post_init__(self):
        if self.kind not in INTENT_KINDS:
            raise ValueError(f"kind must be one of {INTENT_KINDS}")
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
            raise ValueError(f"need a non-empty (n, 2) array, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("intention points must be finite")
        self.points = pts


def _coalesce(points: np.ndarray, weights: np.ndarray):
    """Merge exact duplicate points, summing weights, keeping first-seen order.

    Each point is keyed by one complex number x + iy; ``+ 0.0`` turns -0.0
    into 0.0, so the two compare as one point. ``np.unique`` sorts stably
    when it returns indices, so ``first`` holds each point's first
    occurrence, which is kept as given; ``bincount`` adds the weights of a
    point in input order. A pool with as many keys as points has no
    duplicate and is returned as given, not copied: gathering it in
    first-seen order is the identity, and ``bincount`` adds each positive,
    finite weight to 0.0, which leaves it unchanged. Callers only read
    a pool."""
    keyed = (points + 0.0).view(complex).ravel()
    _, first, labels = np.unique(keyed, return_index=True,
                                 return_inverse=True)
    if first.size == len(points):
        return points, weights
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return points[first[order]], np.bincount(rank[labels], weights=weights)


def _pick(keys: np.ndarray, query: np.ndarray, u: np.ndarray,
          starts: np.ndarray, n: int) -> np.ndarray:
    """Inverse-CDF draws from a stack of B cumulative weight rows of n
    entries, held as the imaginary parts of the raveled ``keys`` (B n,)
    whose real parts are the row numbers; row r starts at ``starts[r]`` =
    r n. ``query`` (T, B) is a buffer whose real parts hold the row
    numbers. Returns (T, B): for each of the T uniforms ``u`` and each
    row, the first index whose cumulative weight exceeds u * total,
    clipped to n - 1 against round-off. numpy orders complex numbers by
    real, then imaginary part, so rows that never decrease make one sorted
    array, and one ``searchsorted(side="right")`` counts each row's
    entries <= u * total."""
    query = query[:u.size]
    np.multiply(keys.imag[starts + n - 1], u[:, None], out=query.imag)
    idx = np.searchsorted(keys, query, side="right")
    idx -= starts
    return np.minimum(idx, n - 1, out=idx)


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
    Each step scores all candidates of every pool in one ``(n_trials, B,
    n)`` block of elementwise squared distances from contiguous x and y
    columns, in buffers allocated once.
    """
    w = weights if pts.ndim == 3 else weights[None]
    b, n = w.shape
    n_trials = 2 + int(math.log(k)) if k > 1 else 1
    rows = np.arange(b)
    starts = rows * n
    x = np.ascontiguousarray(pts[..., 0]).reshape(b, n)
    y = np.ascontiguousarray(pts[..., 1]).reshape(b, n)
    keys = np.empty((b, n), dtype=complex)
    keys.real = rows[:, None]
    flat = keys.ravel()
    query = np.empty((n_trials, b), dtype=complex)
    query.real = rows
    chosen = np.empty((b, k), dtype=np.intp)
    w.cumsum(axis=1, out=keys.imag)
    first = _pick(flat, query, rng.random(1), starts, n)[0]
    chosen[:, 0] = first
    d2 = x - x[rows, first, None]
    d2 *= d2
    dy = y - y[rows, first, None]
    dy *= dy
    d2 += dy
    blk = np.empty((n_trials, b, n))
    tmp = np.empty((n_trials, b, n))
    pot = np.empty((n_trials, b))
    for step in range(1, k):
        np.multiply(w, d2, out=tmp[0]).cumsum(axis=1, out=keys.imag)
        cand = _pick(flat, query, rng.random(n_trials), starts, n)
        np.subtract(x, x[rows, cand][..., None], out=blk)
        np.multiply(blk, blk, out=blk)
        np.subtract(y, y[rows, cand][..., None], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(blk, tmp, out=blk)
        np.minimum(blk, d2, out=blk)
        np.multiply(blk, w, out=tmp).sum(axis=2, out=pot)
        best = pot.argmin(axis=0)
        chosen[:, step] = cand[best, rows]
        d2[:] = blk[best, rows]
    centers = np.stack([x[rows[:, None], chosen], y[rows[:, None], chosen]],
                       axis=-1)
    return centers if pts.ndim == 3 else centers[0]


def _nearest_two(blk: np.ndarray, r: np.ndarray):
    """Per row: the first column holding the row minimum, that minimum, and
    the smallest value in any other column (inf when there is none).
    ``r`` is ``np.arange(len(blk))``. Overwrites the minima in ``blk``."""
    lab = blk.argmin(axis=1)
    best = blk[r, lab]
    blk[r, lab] = np.inf
    # argmin and a gather cost less than min(axis=1) on short rows; a row
    # holding NaN gives NaN either way
    return lab, best, blk[r, blk.argmin(axis=1)]


# rows and margins that overflow to inf or NaN are rebuilt elementwise
# (see the module docstring), so their warnings say nothing
@np.errstate(over="ignore", invalid="ignore")
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
    rows = every = np.arange(n)
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
        lab, best, second = _nearest_two(np.maximum(blk, 0.0, out=blk),
                                         every[:rows.size])
        # near ties take their elementwise rows
        tied = np.flatnonzero(~(second - best > margin))
        if tied.size:
            lab[tied], best[tied], second[tied] = _nearest_two(
                _to_centers(pts[rows[tied]], centers).T, every[:tied.size])
        if bounded:
            lower[rows] = np.sqrt(np.maximum(second - margin, 0.0))
        labels[rows] = lab
        d2[rows] = best
        objectives.append(float((weights * d2).sum()))
        sw = np.bincount(labels, weights=weights, minlength=k)
        sx = np.bincount(labels, weights=wx, minlength=k)
        sy = np.bincount(labels, weights=wy, minlength=k)
        # an empty cluster keeps its copied center
        new_centers = centers.copy()
        occupied = sw > 0
        np.divide(sx, sw, out=new_centers[:, 0], where=occupied)
        np.divide(sy, sw, out=new_centers[:, 1], where=occupied)
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
            drop = np.full(k, fastest)
            drop[far] = moved.max()
            lower -= drop[labels]
            np.maximum(lower, 0.0, out=lower)
            diff = np.take(centers, labels, axis=0)
            np.subtract(pts, diff, out=diff)
            diff *= diff
            d2 = diff[:, 0] + diff[:, 1]
    return centers, objectives


def _pad_to_k(pts: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """At most k distinct points: repeat the highest-weight points,
    cycling through them in decreasing weight order, up to k."""
    order = np.lexsort((pts[:, 1], pts[:, 0], -weights))
    return np.concatenate([pts, pts[np.resize(order, k - pts.shape[0])]])


def _checked_pool(points, weights) -> tuple[np.ndarray, np.ndarray]:
    """One pool as C-contiguous float arrays (n, 2) and (n,), duplicates
    coalesced; ValueError for a malformed pool: NaN or inf points, or
    weighted sums (k-means++ potentials, twice over, or Lloyd's) that could
    overflow."""
    # C order: _coalesce views each row of two floats as one complex
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, 2) array")
    w = np.ones(len(pts)) if weights is None \
        else np.asarray(weights, dtype=np.float64)
    if w.shape != (len(pts),):
        raise ValueError("weights must match points")
    if not (np.isfinite(w) & (w > 0)).all():
        raise ValueError("weights must be finite and > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        (dx, dy), total = [c.max() - c.min() for c in pts.T], w.sum()
        bounds = [2.0 * total * (dx * dx + dy * dy), total * abs(pts).max()]
    if not np.isfinite(bounds).all():
        raise ValueError("points must be finite and their weighted sums "
                         "within the float range")
    return _coalesce(pts, w)


def weighted_kmeans_many(pools, cfg: KMeansConfig = KMeansConfig()
                         ) -> list[np.ndarray]:
    """``weighted_kmeans`` of every (points, weights or None) pool, in
    order, bit for bit, taken as they come, ``_CLUSTER_BLOCK`` at a time:
    k-means++ seeds a batch in stacks (see the module docstring)."""
    pools = iter(pools)
    batches = iter(lambda: [_checked_pool(pts, w) for pts, w
                            in islice(pools, _CLUSTER_BLOCK)], [])
    return [c for batch in batches for c in _kmeans_batch(batch, cfg)]


def _kmeans_batch(pools, cfg: KMeansConfig) -> list[np.ndarray]:
    """``weighted_kmeans_many`` of one batch of ``_checked_pool`` pools."""
    centers = [_pad_to_k(pts, w, cfg.k) if len(pts) <= cfg.k else None
               for pts, w in pools]
    # pools of one size, in order, keyed by that size
    sizes: dict[int, list[int]] = {}
    for i, c in enumerate(centers):
        if c is None:
            sizes.setdefault(len(pools[i][0]), []).append(i)
    for same in sizes.values():
        for at in range(0, len(same), _SEED_CHUNK):
            stack = same[at:at + _SEED_CHUNK]
            pts, w = zip(*(pools[i] for i in stack))
            seeds = _kmeanspp(np.stack(pts), np.stack(w), cfg.k,
                              np.random.default_rng(cfg.seed))
            for i, init in zip(stack, seeds):
                centers[i], _ = _lloyd(*pools[i], init, cfg)
    return [_frozen(c) for c in centers]


def _frozen(centers: np.ndarray) -> np.ndarray:
    """The centers sorted lexicographically by (x, y), read-only."""
    out = centers[np.lexsort((centers[:, 1], centers[:, 0]))]
    out.flags.writeable = False
    return out


def weighted_kmeans(points, weights=None,
                    cfg: KMeansConfig = KMeansConfig()) -> np.ndarray:
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


def dynamic_pool(reach_set: ReachabilitySet, track: AgentTrack) -> np.ndarray:
    """The reachable road-graph nodes of one agent in its agent frame, in
    lane order, sorted by (segment id, node index): the pool its dynamic
    intention points are clustered from."""
    if len(reach_set) == 0:
        raise ValueError("empty reachability set; fall back to static points")
    order = np.lexsort((reach_set.node_indices, reach_set.seg_ids))
    return to_agent_frame(reach_set.positions[order], track)


def dynamic_sets(pools, cfg: KMeansConfig = KMeansConfig()
                 ) -> list[np.ndarray]:
    """The dynamic intention points of every ``dynamic_pool`` in
    ``pools``, in order, each taken as it comes: K-means seeded in lane
    order (see the module docstring), sorted lexicographically by (x, y).
    Deterministic in (pool, cfg.k, cfg.max_iterations, cfg.tolerance)."""
    out = []
    j = np.arange(cfg.k)
    for pool in pools:
        pts, w = _checked_pool(pool, None)
        if len(pts) <= cfg.k:
            centers = _pad_to_k(pts, w, cfg.k)
        else:
            cum = np.cumsum(w)
            first = np.searchsorted(cum, cum[-1] * ((j + 0.5) / cfg.k))
            # strictly increasing: j plus a nondecreasing offset <= n - k
            seeds = np.minimum(np.maximum.accumulate(first - j),
                               len(pts) - cfg.k) + j
            centers, _ = _lloyd(pts, w, pts[seeds], cfg)
        out.append(_frozen(centers))
    return out


def dynamic_intents(reach_set: ReachabilitySet, track: AgentTrack,
                    cfg: KMeansConfig = KMeansConfig()) -> IntentionPointSet:
    """Scene-conditioned intention points: K-means over the reachable
    road-graph nodes, transformed into the agent frame."""
    return IntentionPointSet("dynamic", dynamic_sets(
        [dynamic_pool(reach_set, track)], cfg)[0])


def mixed_intents_many(dyns, stat: IntentionPointSet,
                       mix: MixConfig = MixConfig(),
                       cfg: KMeansConfig = KMeansConfig()
                       ) -> list[IntentionPointSet]:
    """``mixed_intents`` of each dynamic set in ``dyns`` with one static
    set, clustered together."""
    if stat.kind != "static" or any(d.kind != "dynamic" for d in dyns):
        raise ValueError("mixed_intents needs one dynamic and one static set")
    pools = ((np.concatenate([dyn.points, stat.points]),
              np.repeat([mix.dynamic_weight / mix.static_weight, 1.0],
                        [len(dyn.points), len(stat.points)]))
             for dyn in dyns)
    return [IntentionPointSet("mixed", centers)
            for centers in weighted_kmeans_many(pools, cfg)]


def mixed_intents(dyn: IntentionPointSet, stat: IntentionPointSet,
                  mix: MixConfig = MixConfig(),
                  cfg: KMeansConfig = KMeansConfig()) -> IntentionPointSet:
    """Pool dynamic and static points (same agent frame) and re-cluster
    with the configured weights (dynamic points emphasized by default)."""
    return mixed_intents_many([dyn], stat, mix, cfg)[0]
