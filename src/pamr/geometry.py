"""Point-set geometry kernels.

Raw clouds are float64 arrays of shape (N, 3); FPS, kNN and the pyramid take
stacks of them, (C, N, 3), so one cloud is a stack of one. All of it is
deterministic: farthest point sampling starts at index 0 and breaks ties
toward the lower index, and kNN ordering is stable so equal distances also
resolve toward the lower index. The coarse-to-fine pyramid built from these
two kernels is what every later stage (masking, tokens, loss) works on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, MaskConsistencyError, NonFiniteError, ShapeError
from .tensor import Tensor

__all__ = [
    "PointCloud",
    "ScalePyramid",
    "MaskPlan",
    "normalize_points",
    "fps",
    "knn",
    "build_scale_pyramid",
    "stack_pack",
    "mask_and_backproject",
    "masked_rows",
    "gather_patches",
    "visible_positions",
    "chamfer_l2_batched",
]


def _check_points(points: np.ndarray, what: str, shape: str = "(N, 3)") -> np.ndarray:
    """`points` as a float64 array of `shape`: one cloud, "(N, 3)", or a
    stack of C clouds of N points each, "(C, N, 3)"."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != shape.count(",") + 1 or pts.shape[-1] != 3:
        raise ShapeError(f"{what} must have shape {shape}, got {pts.shape}")
    if 0 in pts.shape:
        raise ShapeError(f"{what} must hold at least one point")
    if not np.all(np.isfinite(pts)):
        raise ShapeError(f"{what} holds non-finite coordinates")
    return pts


def normalize_points(points: np.ndarray) -> np.ndarray:
    """Center at the centroid and scale so the farthest point has norm 1."""
    pts = _check_points(points, "points")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = pts - pts.mean(axis=0)
        radius = float(np.sqrt((centered * centered).sum(axis=1).max()))
    if not np.isfinite(radius):
        raise NonFiniteError("cannot normalize a cloud whose extent overflows float64")
    if radius == 0.0:
        raise ShapeError("cannot normalize a cloud whose points all coincide")
    return centered / radius


@dataclass
class PointCloud:
    """A cloud of 3-d points with an optional integer class label."""

    points: np.ndarray
    label: int | None = None

    def __post_init__(self):
        self.points = _check_points(self.points, "PointCloud.points")
        if self.label is not None:
            self.label = int(self.label)


def fps(points: np.ndarray, m: int) -> np.ndarray:
    """Greedy farthest point sampling of a stack of clouds, (C, N, 3), each
    on its own and all in lock-step; returns (C, m) unique indices per cloud.

    Begins at index 0, which keeps the whole pipeline deterministic; each
    step picks the point farthest from the selected set (squared distance),
    ties toward the lower index. Selected slots are poisoned to -1 so
    duplicates in the cloud can never be picked twice.
    """
    pts = _check_points(points, "points", "(C, N, 3)")
    c, n = pts.shape[:2]
    if not 1 <= m <= n:
        raise ShapeError(f"cannot sample {m} points from a cloud of {n}")
    flat = pts.reshape(-1, 3)
    cols = tuple(np.ascontiguousarray(pts.transpose(2, 0, 1)))  # x, y, z: (C, N) each
    best, dist, diff = np.empty((c, n)), np.empty((c, n)), np.empty((c, n))
    flat_best = best.reshape(-1)
    sel = np.zeros((c, m), dtype=np.int64)
    first = np.arange(0, c * n, n)  # each cloud's point 0 in `flat`
    at, picked = first.copy(), np.empty((c, 3))
    # views of the picks' x, y and z: (C, 1) each, or 0-d for one cloud,
    # which numpy subtracts as fast as a scalar
    picked_cols = [picked[..., j, None] if c > 1 else picked[0, j, ...] for j in range(3)]
    np.take(flat, at, axis=0, out=picked, mode="clip")
    _sq_dists(picked_cols, cols, best, diff)
    flat_best[at] = -1.0
    for i in range(1, m):
        np.add(best.argmax(axis=1, out=sel[:, i]), first, out=at)
        np.take(flat, at, axis=0, out=picked, mode="clip")
        np.minimum(best, _sq_dists(picked_cols, cols, dist, diff), out=best)
        flat_best[at] = -1.0
    return sel


def _sq_dists(q, r, out: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Squared distances between `q` and `r`, each given as its x, y and z
    coordinate columns, broadcast into `out`; `diff` is scratch of its shape.

    Built from explicit differences, one coordinate at a time, in the order
    (dx*dx + dy*dy) + dz*dz that a sum over each row of an (..., 3) array
    takes, so ties and zeros come out exactly.
    """
    np.subtract(q[0], r[0], out=out)
    out *= out
    for j in (1, 2):
        np.subtract(q[j], r[j], out=diff)
        diff *= diff
        out += diff
    return out


# Up to this many reference points a full sort of each row is cheaper than
# the partial selection's extra passes.
_SORT_ALL_MAX = 32


def knn(queries: np.ndarray, refs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the k nearest reference points for each query, nearest first.

    Squared euclidean distance; equal distances resolve toward the lower
    reference index, exactly as a stable argsort of each row would, so the
    result is fully deterministic. Past `_SORT_ALL_MAX` references only the
    candidates that can reach the first k are sorted: the m smallest entries
    of every row, where m is the largest per-row count of distances up to
    that row's k-th smallest. Stacks of (C, Q, 3) queries and (C, R, 3)
    refs give (C, Q, k) indices, each cloud's queries against its own refs,
    and the (C, Q, R) squared distances they were picked from.
    """
    q = _check_points(queries, "queries", "(C, N, 3)")
    r = _check_points(refs, "refs", "(C, N, 3)")
    if q.shape[0] != r.shape[0]:
        raise ShapeError(f"queries {q.shape} and refs {r.shape} must stack the same clouds")
    n = r.shape[1]
    if not 1 <= k <= n:
        raise ShapeError(f"k={k} with only {n} reference points")
    shape = q.shape[:-1] + (n,)
    q_cols = q.transpose(2, 0, 1)[..., None]
    r_cols = np.ascontiguousarray(r.transpose(2, 0, 1))[:, :, None]
    d2 = _sq_dists(q_cols, r_cols, np.empty(shape), np.empty(shape))
    flat = d2.reshape(-1, n)  # one row per query, cloud after cloud
    out_shape = q.shape[:-1] + (k,)
    if n > _SORT_ALL_MAX:
        rows = np.arange(flat.shape[0])[:, None]
        part = np.argpartition(flat, k - 1, axis=1)
        m = int(np.count_nonzero(flat <= flat[rows, part[:, k - 1 : k]], axis=1).max())
        if m < n:
            if m > k:
                # ties at the k-th value: widen to the m smallest, which hold them all
                part = np.argpartition(flat, m - 1, axis=1)
            cand = part[:, :m]
            cand.sort(axis=1)
            order = np.argsort(flat[rows, cand], axis=1, kind="stable")
            return cand[rows, order[:, :k]].astype(np.int64).reshape(out_shape), d2
    return np.argsort(flat, axis=1, kind="stable")[:, :k].astype(np.int64).reshape(out_shape), d2


@dataclass
class ScalePyramid:
    """Coarse-to-fine index structure over a pack of one or more clouds.

    points[i] is the scale-i cloud (scale 0 is the raw input); sample_idx[i-1]
    locates scale i inside scale i-1; neighbors[i-1] (shape (N_i, k_i)) is the
    patch of each scale-i center, indexing into scale i-1. Cloud c holds the
    scale-i rows offsets[i][c]:offsets[i][c+1]; one cloud's are [0, N_i].
    """

    points: list[np.ndarray]
    sample_idx: list[np.ndarray]
    neighbors: list[np.ndarray]
    offsets: list[np.ndarray]

    @property
    def num_scales(self) -> int:
        return len(self.points) - 1

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(p.shape[0] for p in self.points)

    def size_at(self, scale: int) -> int:
        return self.points[scale].shape[0]


def build_scale_pyramid(
    points: np.ndarray, sizes: tuple[int, ...], ks: tuple[int, ...]
) -> list[ScalePyramid]:
    """Subsample repeatedly with fps and attach a knn patch to every center.

    `sizes` are the per-scale center counts (strictly decreasing, all below
    the raw count); `ks` the per-scale patch sizes, one per entry of `sizes`.
    A stack of clouds, (C, N, 3), is built in lock-step and gives a list of
    C pyramids, each the one its cloud gives alone.
    """
    pts = _check_points(points, "points", "(C, N, 3)")
    c, n = pts.shape[:2]
    if len(sizes) != len(ks):
        raise ConfigError(f"sizes {sizes} and ks {ks} must align")
    if len(sizes) < 1:
        raise ConfigError("a pyramid needs at least one scale")
    if not 1 <= sizes[0] <= n:
        raise ConfigError(f"first scale size {sizes[0]} exceeds the raw count {n}")
    for coarse, fine in zip(sizes[1:], sizes[:-1]):
        if not 1 <= coarse < fine:
            raise ConfigError(f"scale sizes must strictly decrease: {sizes}")
    prev_sizes = (n,) + tuple(sizes[:-1])
    for k, avail in zip(ks, prev_sizes):
        if not 1 <= k <= avail:
            raise ConfigError(f"patch size {k} exceeds the {avail} points of the scale below")
    levels = [pts]
    sample_idx: list[np.ndarray] = []
    neighbors: list[np.ndarray] = []
    for size, k, avail in zip(sizes, ks, prev_sizes):
        below = levels[-1]
        idx = fps(below, size)
        # each cloud's picks, looked up among all clouds' rows
        centers = np.take(below.reshape(-1, 3), idx + np.arange(0, c * avail, avail)[:, None], axis=0)
        neighbors.append(knn(centers, below, k)[0])
        sample_idx.append(idx)
        levels.append(centers)
    offsets = [np.array([0, lv.shape[1]]) for lv in levels]
    return [
        ScalePyramid([lv[i] for lv in levels], [a[i] for a in sample_idx], [a[i] for a in neighbors], offsets)
        for i in range(c)
    ]


def stack_pack(
    pyramids: list[ScalePyramid], plans: list[MaskPlan] | None = None
) -> tuple[ScalePyramid, MaskPlan | None]:
    """One pyramid holding the rows of the pack's single-cloud pyramids at
    every level, cloud after cloud, and the matching stacked plan (None
    without `plans`). Every index moves into its own cloud's rows, so code
    for one cloud runs on the whole pack."""
    counts = [p.num_scales for p in pyramids]
    if len(set(counts)) != 1:
        raise ShapeError(f"a pack needs one or more pyramids of one scale count, got {counts}")
    if plans is not None and len(plans) != len(pyramids):
        raise ShapeError(f"a pack needs one plan per pyramid, got {len(pyramids)} and {len(plans)}")
    levels = range(counts[0] + 1)
    offsets = [np.cumsum([0] + [p.size_at(i) for p in pyramids]) for i in levels]

    def stack(arrays, level: int) -> np.ndarray:  # each cloud's indices shifted to its first row
        return np.concatenate([a + lo for a, lo in zip(arrays, offsets[level])])

    pyramid = ScalePyramid(
        [np.concatenate([p.points[i] for p in pyramids]) for i in levels],
        [stack([p.sample_idx[i] for p in pyramids], i) for i in levels[:-1]],
        [stack([p.neighbors[i] for p in pyramids], i) for i in levels[:-1]],
        offsets,
    )
    if plans is None:
        return pyramid, None
    return pyramid, MaskPlan([None] + [stack([p.visible[i] for p in plans], i) for i in levels[1:]])


@dataclass
class MaskPlan:
    """Sorted visible index sets for every token scale.

    The list is indexed by scale; entry 0 is None because raw points are never
    masked. The rest of each scale is masked (`masked_rows`).
    """

    visible: list


def mask_and_backproject(
    pyramid: ScalePyramid, mu: float, rng: np.random.Generator
) -> MaskPlan:
    """Mask floor(mu * N_S) random coarsest centers and project the mask down.

    A finer point stays visible exactly when it lies in the patch of at least
    one visible center of the scale above. A ratio that rounds to zero masked
    centers leaves every scale fully visible.
    """
    if not 0.0 <= mu < 1.0:
        raise ShapeError(f"mask ratio must lie in [0, 1), got {mu}")
    s = pyramid.num_scales
    n_final = pyramid.size_at(s)
    n_masked = int(np.floor(mu * n_final))
    if n_masked == 0:
        return MaskPlan([None] + [np.arange(pyramid.size_at(i), dtype=np.int64) for i in range(1, s + 1)])

    visible: list = [None] * (s + 1)
    visible[s] = np.sort(rng.permutation(n_final)[n_masked:]).astype(np.int64)
    for i in range(s - 1, 0, -1):
        # the patches of the visible centers of scale i+1, indexing scale i
        visible[i] = np.unique(pyramid.neighbors[i][visible[i + 1]]).astype(np.int64)
    return MaskPlan(visible)


def masked_rows(pyramid: ScalePyramid, plan: MaskPlan, scale: int) -> np.ndarray:
    """The sorted rows of `scale` that `plan` masks: every row it leaves out
    of its visible set."""
    return np.setdiff1d(np.arange(pyramid.size_at(scale)), plan.visible[scale], assume_unique=True)


def gather_patches(pyramid: ScalePyramid, scale: int, centers: np.ndarray) -> np.ndarray:
    """Center-relative patch coordinates of the given scale-`scale` centers:
    (len(centers), k_scale, 3).

    Each row is the scale-(i-1) neighborhood of one scale-i center, expressed
    relative to that center.
    """
    if not 1 <= scale <= pyramid.num_scales:
        raise ShapeError(f"scale {scale} outside 1..{pyramid.num_scales}")
    idx = pyramid.neighbors[scale - 1][centers]
    ctr = pyramid.points[scale][centers]
    return pyramid.points[scale - 1][idx] - ctr[:, None, :]


def visible_positions(visible_sorted: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Positions of `wanted` indices inside a sorted visible-index array.

    Raises MaskConsistencyError if any wanted index is not actually visible;
    that means mask bookkeeping upstream went wrong.
    """
    vis = np.asarray(visible_sorted, dtype=np.int64)
    want = np.asarray(wanted, dtype=np.int64)
    pos = np.searchsorted(vis, want)
    ok = (pos < vis.shape[0]) & (vis[np.minimum(pos, vis.shape[0] - 1)] == want)
    if not np.all(ok):
        missing = want[~ok]
        raise MaskConsistencyError(f"indices {missing[:8].tolist()} are not in the visible set")
    return pos.astype(np.int64)


def chamfer_l2_batched(pred, truth, weights: np.ndarray | None = None) -> Tensor:
    """Symmetric squared-distance chamfer, averaged over a batch of patch pairs
    (or summed with the given per-pair `weights`).

    For each pair of (A, 3) and (B, 3) rows of the (M, A, 3) and (M, B, 3)
    inputs: the mean over the first of the squared distance to the nearest
    point of the second, plus the same with roles swapped. Gradients flow
    into whichever side is a live tensor; two single clouds are the M = 1 case.
    Distances come from explicit differences, not the expanded quadratic form,
    so identical points give exactly 0 (a perfect reconstruction must score 0,
    not cancellation noise); each minimum's gradient goes to its first argmin.
    """
    pt, tt = T.as_tensor(pred), T.as_tensor(truth)
    if pt.ndim != 3 or pt.shape[2] != 3 or tt.ndim != 3 or tt.shape[2] != 3:
        raise ShapeError(f"batched chamfer needs (M, A, 3) and (M, B, 3), got {pt.shape} and {tt.shape}")
    if pt.shape[0] != tt.shape[0]:
        raise ShapeError(f"batch sizes disagree: {pt.shape[0]} vs {tt.shape[0]}")
    if pt.shape[0] < 1 or pt.shape[1] < 1 or tt.shape[1] < 1:
        raise ShapeError("batched chamfer is undefined for empty patches")
    (m, a, _), b = pt.shape, tt.shape[1]
    if weights is not None and np.shape(weights) != (m,):
        raise ShapeError(f"need one weight per pair, {m}, got shape {np.shape(weights)}")
    diff = pt.data[:, :, None] - tt.data[:, None]  # (M, A, B, 3)
    d2 = (diff * diff).sum(-1)
    near_b, near_a = d2.argmin(axis=2), d2.argmin(axis=1)  # (M, A), (M, B)
    per_pair = d2.min(axis=2).mean(axis=1) + d2.min(axis=1).mean(axis=1)
    out = per_pair.mean() if weights is None else (per_pair * weights).sum()

    def grad(g):
        g_pair = np.full((m, 1), g / m) if weights is None else (g * weights)[:, None]
        g_d2 = np.zeros_like(d2)
        np.put_along_axis(g_d2, near_b[:, :, None], (g_pair / a)[:, :, None], 2)
        g_d2[np.arange(m)[:, None], near_a, np.arange(b)] += g_pair / b
        g_diff = g_d2[..., None] * diff
        g_diff = g_diff + g_diff
        # a length-1 axis is passed through, not summed: a sum would turn -0.0 into 0.0
        return [(pt, T._unbroadcast(g_diff, (m, a, 1, 3)).reshape(pt.shape)),
                (tt, T._unbroadcast(-g_diff, (m, 1, b, 3)).reshape(tt.shape))]

    return T._make(np.asarray(out), (pt, tt), grad, "chamfer output")
