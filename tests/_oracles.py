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

`chamfer_chain_reference` is the chamfer loss as the earlier chain of
elementary tape ops, and `interpolation_weights_reference` the earlier
interpolation weights, whose distances were recomputed after kNN.

`few_shot_reference` is the few-shot protocol without reuse: every trial
builds the pyramids of its own train and test clouds, one cloud at a time
with `pyramid_of`, and encodes them with its own classifier.

`per_cloud_step` is the training step before packing: each cloud's own
pyramid through its own graph, one at a time, each loss scaled by 1/B, for
comparison with one graph over the pack's stacked pyramid. `unstack_pack`
cuts a stacked pyramid back into its clouds' pyramids.

The `*_reference` layers rebuild each fused tensor op as the chain of
elementary ops it replaces, so both the forward values (same arithmetic
order, hence bitwise equal) and the gradients (same maths, different
summation order) can be checked against it. `ffn_chain_reference` is the
pre-norm FFN as the earlier chain of five tape ops (`layer_norm`, `linear`,
`gelu`, `linear`, `add`), whose gradients the fused op matches bitwise.
`COMPOSITES` maps each fused op's name to its chain, for swapping into a
whole model.
"""
import struct

import numpy as np

from pamr import tensor as T
from pamr.backbone import CloudClassifier
from pamr.checkpoint import load_encoder_weights
from pamr.errors import ShapeError
from pamr.geometry import ScalePyramid, _check_points, build_scale_pyramid, normalize_points
from pamr.training import _accuracy, _fit_frozen_head, pooled_features

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


def pyramid_of(points: np.ndarray, model_cfg):
    """The model input for one raw cloud, built alone: the pyramid of its
    normalized points as a stack of one."""
    return build_scale_pyramid(normalize_points(points)[None], model_cfg.sizes, model_cfg.ks)[0]


def chamfer_reference(a: np.ndarray, b: np.ndarray) -> float:
    """Loop-based symmetric squared-distance chamfer."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    fwd = sum(min(((p - q) ** 2).sum() for q in b) for p in a) / len(a)
    bwd = sum(min(((q - p) ** 2).sum() for p in a) for q in b) / len(b)
    return float(fwd + bwd)


def chamfer_chain_reference(pred, truth, weights=None):
    """`chamfer_l2_batched` as the chain of elementary tape ops it replaces;
    its loss and both gradients are bitwise those of the fused op."""
    pt, tt = T.as_tensor(pred), T.as_tensor(truth)
    (m, a, _), b = pt.shape, tt.shape[1]
    diff = T.sub(T.reshape(pt, (m, a, 1, 3)), T.reshape(tt, (m, 1, b, 3)))
    d2 = T.tsum(T.mul(diff, diff), axis=-1)  # (M, A, B)
    fwd = T.tmean(T.amin(d2, axis=2), axis=1)  # (M,)
    bwd = T.tmean(T.amin(d2, axis=1), axis=1)  # (M,)
    if weights is None:
        return T.tmean(T.add(fwd, bwd))
    return T.tsum(T.mul(T.add(fwd, bwd), weights))


def interpolation_weights_reference(coarse, fine, k):
    """`TokenPropagator.interpolation_weights` with the distances rebuilt
    from a fresh (Q, k, 3) difference array of the selected neighbors."""
    idx = knn_argsort_reference(fine, coarse, min(k, coarse.shape[0]))
    diff = fine[:, None, :] - coarse[idx]
    inv = 1.0 / np.maximum(np.sqrt((diff * diff).sum(axis=2)), 1e-8)
    return idx, inv / inv.sum(axis=1, keepdims=True)


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
        train_feats = pooled_features(clf, [pyramid_of(clouds[i].points, model_cfg) for i in train_set])
        orders = [rng.permutation(len(train_set)) for _ in range(train_cfg.epochs)]
        _fit_frozen_head(clf.head, train_feats, np.array(tr_labels), train_cfg, orders, [])
        test_feats = pooled_features(clf, [pyramid_of(clouds[i].points, model_cfg) for i in test_set])
        accs.append(_accuracy(clf.head, test_feats, np.array(te_labels)))
    return accs


def per_cloud_step(batch, loss_of):
    """Forward and backward one item at a time, each loss scaled by 1/B, so one
    graph is alive at once: the per-cloud oracle for a pack's step. `loss_of(i)`
    gives item i's loss, from its own pyramid (a pack of one), and whether it was
    classified right (or None); returns the mean loss and accuracy (or None)."""
    total, hits = 0.0, []
    for i in batch:
        loss, hit = loss_of(i)
        T.mul(loss, 1.0 / batch.size).backward()
        total += loss.item()
        hits.append(hit)
    return total / batch.size, None if hits[0] is None else float(np.mean(hits))


def unstack_pack(pyr):
    """The clouds of a stacked pyramid, each as its own pyramid: every level's
    rows cut at the pack's offsets and every index shifted back."""
    o = pyr.offsets

    def cut(arrays, c):  # entry i has a row per scale-(i+1) point, indexing scale i
        return [a[o[i + 1][c] : o[i + 1][c + 1]] - o[i][c] for i, a in enumerate(arrays)]

    return [
        ScalePyramid(
            [p[o[i][c] : o[i][c + 1]] for i, p in enumerate(pyr.points)],
            cut(pyr.sample_idx, c),
            cut(pyr.neighbors, c),
            [np.array([0, o[i][c + 1] - o[i][c]]) for i in range(len(o))],
        )
        for c in range(o[0].size - 1)
    ]


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


def attention_reference(q, k, v, heads, offsets):
    """Each segment's rows picked out, attended alone, and the outputs joined."""
    c = q.shape[1]
    outs = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        rows = np.arange(lo, hi)

        def heads_first(t):
            seg = T.reshape(T.index_select(t, rows), (hi - lo, heads, c // heads))
            return T.transpose(seg, (1, 0, 2))

        qh, kh = heads_first(q), heads_first(k)
        scores = T.mul(T.matmul(qh, T.transpose(kh, (0, 2, 1))), 1.0 / np.sqrt(c // heads))
        out = T.matmul(T.softmax(scores, axis=-1), heads_first(v))  # (heads, n, c / heads)
        outs.append(T.reshape(T.transpose(out, (1, 0, 2)), (hi - lo, c)))
    return T.concat(outs)


def linear_reference(x, weight, bias):
    return T.add(T.matmul(x, weight), bias)


def ffn_chain_reference(x, ln_scale, ln_shift, w1, b1, w2, b2):
    return T.add(x, T.linear(T.gelu(T.linear(T.layer_norm(x, ln_scale, ln_shift), w1, b1)), w2, b2))


COMPOSITES = {
    "layer_norm": layer_norm_reference,
    "group_norm": group_norm_reference,
    "attention": attention_reference,
    "linear": linear_reference,
    "ffn": ffn_chain_reference,
}
