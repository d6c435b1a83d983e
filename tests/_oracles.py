"""Reference implementations used only by tests.

These recompute results with independent algorithms (from-scratch distance
matrices, pure-python sorts) so agreement with the production kernels is
meaningful. Arithmetic is arranged to be bitwise comparable: squared
distances are formed the same way ((a-b)^2 summed in coordinate order) and
minima/argmaxima are exact operations, so no tolerance is needed.

`fps_rowsum_reference` and `knn_argsort_reference` are the earlier
production kernels, kept verbatim: per-step (N, 3) row sums for farthest
point sampling, and a (Q, R, 3) difference array with a full stable argsort
for kNN. They are fast enough to check the kernels at full model size.

`with_sentinel_as` makes the checkpoint bytes the encoder refuses to write:
it overwrites one float of a valid encoding in place.

`few_shot_reference` is the few-shot protocol without feature reuse: every
trial encodes its own train and test clouds with its own classifier.

`batched_classifier_loss` is the unfrozen fine-tune step as one (B, K) graph
over the whole batch, back-propagated once, for comparison with the
cloud-by-cloud step.

The `*_reference` layers rebuild each fused tensor op as the chain of
elementary ops it replaces, so both the forward values (same arithmetic
order, hence bitwise equal) and the gradients (same maths, different
summation order) can be checked against it. `COMPOSITES` maps each fused
op's name to its chain, for swapping into a whole model.
"""
import struct

import numpy as np

from pamr import tensor as T
from pamr.backbone import CloudClassifier
from pamr.errors import ShapeError
from pamr.geometry import _check_points
from pamr.training import (
    _accuracy,
    _fit_frozen_head,
    cloud_pyramid,
    cross_entropy,
    load_encoder_weights,
    pooled_features,
)

SENTINEL = 1234.5678


def with_sentinel_as(payload: bytes, value: float) -> bytes:
    """Overwrite the 8 payload bytes of the one SENTINEL value in `payload`."""
    raw = struct.pack("<d", SENTINEL)
    assert payload.count(raw) == 1
    return payload.replace(raw, struct.pack("<d", value))


def fps_reference(points: np.ndarray, m: int) -> np.ndarray:
    """Exhaustive greedy max-min from index 0: rebuilds the full
    distance-to-set matrix every step instead of keeping a running minimum."""
    pts = np.asarray(points, dtype=np.float64)
    sel = [0]
    while len(sel) < m:
        cols = [((pts - pts[j]) ** 2).sum(axis=1) for j in sel]
        dist = np.stack(cols, axis=1).min(axis=1)
        dist[np.asarray(sel)] = -1.0
        sel.append(int(np.argmax(dist)))
    return np.asarray(sel, dtype=np.int64)


def knn_reference(queries: np.ndarray, refs: np.ndarray, k: int) -> np.ndarray:
    """Full sort per query in pure python, ties broken by index."""
    rows = []
    for q in np.asarray(queries, dtype=np.float64):
        d2 = []
        for r in np.asarray(refs, dtype=np.float64):
            dx = q[0] - r[0]
            dy = q[1] - r[1]
            dz = q[2] - r[2]
            d2.append(dx * dx + dy * dy + dz * dz)
        order = sorted(range(len(d2)), key=lambda j: (d2[j], j))
        rows.append(order[:k])
    return np.asarray(rows, dtype=np.int64)


def fps_rowsum_reference(points: np.ndarray, m: int) -> np.ndarray:
    pts = _check_points(points, "points")
    n = pts.shape[0]
    if not 1 <= m <= n:
        raise ShapeError(f"cannot sample {m} points from a cloud of {n}")
    sel = np.zeros(m, dtype=np.int64)
    diff = pts - pts[0]
    best = (diff * diff).sum(axis=1)
    best[0] = -1.0
    for i in range(1, m):
        nxt = int(np.argmax(best))
        sel[i] = nxt
        diff = pts - pts[nxt]
        np.minimum(best, (diff * diff).sum(axis=1), out=best)
        best[nxt] = -1.0
    return sel


def knn_argsort_reference(queries: np.ndarray, refs: np.ndarray, k: int) -> np.ndarray:
    q = _check_points(queries, "queries")
    r = _check_points(refs, "refs")
    if not 1 <= k <= r.shape[0]:
        raise ShapeError(f"k={k} with only {r.shape[0]} reference points")
    diff = q[:, None, :] - r[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, :k].astype(np.int64)


def pyramid_reference(points: np.ndarray, sizes, ks, fps_ref, knn_ref):
    """(sample_idx, neighbors, points) of a scale pyramid built level by
    level with the given fps and kNN."""
    levels, sample_idx, neighbors = [np.asarray(points, dtype=np.float64)], [], []
    for size, k in zip(sizes, ks):
        below = levels[-1]
        idx = fps_ref(below, size)
        neighbors.append(knn_ref(below[idx], below, k))
        sample_idx.append(idx)
        levels.append(below[idx])
    return sample_idx, neighbors, levels


def chamfer_reference(a: np.ndarray, b: np.ndarray) -> float:
    """Loop-based symmetric squared-distance chamfer."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    fwd = sum(min(((p - q) ** 2).sum() for q in b) for p in a) / len(a)
    bwd = sum(min(((q - p) ** 2).sum() for p in a) for q in b) / len(b)
    return float(fwd + bwd)


def few_shot_reference(clouds, model_cfg, train_cfg, pretrained=None) -> list[float]:
    """Per-trial accuracies of `few_shot_eval`, re-encoding every cloud in
    every trial; the RNG draws come in the same order."""
    n, m, k = train_cfg.n_way, train_cfg.m_shot, train_cfg.test_per_class
    per_class: dict[int, list[int]] = {}
    for i, c in enumerate(clouds):
        per_class.setdefault(c.label, []).append(i)
    eligible = sorted(cls for cls, idx in per_class.items() if len(idx) >= m + k)
    rng = np.random.default_rng(train_cfg.seed)
    accs = []
    for _ in range(train_cfg.trials):
        classes = rng.choice(np.array(eligible), size=n, replace=False)
        train_set, test_set, tr_labels, te_labels = [], [], [], []
        for j, cls in enumerate(classes):
            pool = np.array(per_class[int(cls)])
            pool = pool[rng.permutation(pool.size)]
            train_set += pool[:m].tolist()
            test_set += pool[m : m + k].tolist()
            tr_labels += [j] * m
            te_labels += [j] * k
        clf = CloudClassifier(model_cfg, n, train_cfg.head_hidden, rng)
        if pretrained is not None:
            load_encoder_weights(clf, pretrained)
        train_feats = pooled_features(clf, [cloud_pyramid(clouds[i].points, model_cfg) for i in train_set])
        _fit_frozen_head(clf, train_feats, np.array(tr_labels), train_cfg, rng, [])
        test_feats = pooled_features(clf, [cloud_pyramid(clouds[i].points, model_cfg) for i in test_set])
        accs.append(_accuracy(clf, test_feats, np.array(te_labels)))
    return accs


def batched_classifier_loss(clf, pyramids, labels) -> float:
    """Mean cross-entropy of the concatenated (B, K) logits; back-propagates it."""
    loss = cross_entropy(T.concat([clf.logits(p) for p in pyramids]), labels)
    loss.backward()
    return loss.item()


def _standardize_reference(x):
    mu = T.tmean(x, axis=-1, keepdims=True)
    centered = T.sub(x, mu)
    var = T.tmean(T.mul(centered, centered), axis=-1, keepdims=True)
    return T.div(centered, T.sqrt(T.add(var, 1e-5)))


def layer_norm_reference(x, scale, shift):
    return T.add(T.mul(_standardize_reference(T.as_tensor(x)), scale), shift)


def group_norm_reference(x, groups, scale, shift):
    x = T.as_tensor(x)
    c = x.shape[-2]
    grouped = T.reshape(x, x.shape[:-2] + (groups, (c // groups) * x.shape[-1]))
    normed = T.reshape(_standardize_reference(grouped), x.shape)
    return T.add(T.mul(normed, T.reshape(scale, (c, 1))), T.reshape(shift, (c, 1)))


def attention_reference(q, k, v, heads):
    n, c = q.shape

    def heads_first(t):
        return T.transpose(T.reshape(t, (n, heads, c // heads)), (1, 0, 2))

    qh, kh = heads_first(q), heads_first(k)
    scores = T.mul(T.matmul(qh, T.transpose(kh, (0, 2, 1))), 1.0 / np.sqrt(c // heads))
    out = T.matmul(T.softmax(scores, axis=-1), heads_first(v))  # (heads, n, c / heads)
    return T.reshape(T.transpose(out, (1, 0, 2)), (n, c))


def linear_reference(x, weight, bias):
    return T.add(T.matmul(x, weight), bias)


COMPOSITES = {
    "layer_norm": layer_norm_reference,
    "group_norm": group_norm_reference,
    "attention": attention_reference,
    "linear": linear_reference,
}
