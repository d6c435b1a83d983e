"""Optimization and training protocols.

Everything here is deterministic under a fixed seed: one generator drives
parameter init, batch order, masking, and augmentation in a fixed sequence,
so a rerun with the same config reproduces the loss series bitwise.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .backbone import CloudClassifier, MaskedAutoencoder, head_logits
from .checkpoint import load_encoder_weights
from .config import ModelConfig, TrainConfig
from .errors import ConfigError, NonFiniteError, PamrError
from .geometry import PointCloud, ScalePyramid, build_scale_pyramid
from .geometry import mask_and_backproject, normalize_points, stack_pack
from .tensor import Tensor

__all__ = [
    "AdamW",
    "lr_at",
    "augment",
    "cloud_pyramids",
    "PACK_BUDGET",
    "NO_GRAD_BUDGET",
    "pack_size",
    "cross_entropy",
    "MetricsRow",
    "PretrainResult",
    "pretrain_run",
    "FinetuneResult",
    "finetune_classify",
    "FewShotResult",
    "few_shot_eval",
    "pooled_features",
]


class AdamW:
    """Decoupled weight decay: p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        for name, p in self.params.items():
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"non-finite gradient in {name!r}; step aborted")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - self.lr * update

    def state_arrays(self) -> tuple[int, dict[str, np.ndarray], dict[str, np.ndarray]]:
        return self.t, self.m, self.v

    def load_state(self, t: int, m: dict[str, np.ndarray], v: dict[str, np.ndarray]) -> None:
        if set(m) != set(self.params) or set(v) != set(self.params):
            raise ConfigError("optimizer state names do not match the parameter set")
        for name, p in self.params.items():
            if m[name].shape != p.shape or v[name].shape != p.shape:
                raise ConfigError(f"optimizer state shape mismatch for {name!r}")
        self.t = int(t)
        self.m = {k: np.array(a, dtype=np.float64) for k, a in m.items()}
        self.v = {k: np.array(a, dtype=np.float64) for k, a in v.items()}


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Linear warmup to base_lr, then cosine decay to min_lr at the last epoch."""
    if not 0 <= epoch < cfg.epochs:
        raise ConfigError(f"epoch {epoch} outside schedule of {cfg.epochs}")
    if epoch < cfg.warmup_epochs:
        return cfg.base_lr * (epoch + 1) / cfg.warmup_epochs
    span = cfg.epochs - 1 - cfg.warmup_epochs
    if span <= 0:
        return cfg.base_lr
    progress = (epoch - cfg.warmup_epochs) / span
    return cfg.min_lr + (cfg.base_lr - cfg.min_lr) * 0.5 * (1.0 + math.cos(math.pi * progress))


def _check_point_counts(clouds: list[np.ndarray], model_cfg: ModelConfig, names=None) -> None:
    first = model_cfg.sizes[0]
    for i, points in enumerate(clouds):
        if len(points) < first:
            name = f"cloud {i} in dataset order" if names is None else names[i]
            raise ConfigError(f"{name} has {len(points)} points, fewer than the first scale size {first}")


def cloud_pyramids(clouds: list[np.ndarray], model_cfg: ModelConfig, names=None) -> list[ScalePyramid]:
    """The model input for each raw cloud, in the order given: the
    ScalePyramid of its normalized points. Clouds of one point count are
    stacked and built in lock-step, a no-grad pack at a time (spread over
    the pool, see `_spread`); each gets the pyramid it would get alone. A
    cloud with fewer points than the first scale size is a ConfigError,
    before any pyramid is built, that names it by `names[i]` or else by its
    position."""
    _check_point_counts(clouds, model_cfg, names)
    groups: dict[int, list[int]] = {}  # point count -> positions
    for i, points in enumerate(clouds):
        groups.setdefault(len(points), []).append(i)
    size = pack_size(model_cfg, NO_GRAD_BUDGET)
    chunks = [members[lo : lo + size] for members in groups.values() for lo in range(0, len(members), size)]
    built = _spread(size, _build_stack, model_cfg, [[clouds[i] for i in chunk] for chunk in chunks])
    pyramids: list = [None] * len(clouds)
    for chunk, pyrs in zip(chunks, built):
        for i, pyr in zip(chunk, pyrs):
            pyramids[i] = pyr
    return pyramids


def augment(pyramid: ScalePyramid, rng: np.random.Generator, cfg: TrainConfig) -> ScalePyramid:
    """Random isotropic scale and per-axis translation of every level's
    coordinates, p <- s*p + t, keeping the FPS and kNN indices (so the levels
    still nest); with `cfg.augment` off it returns `pyramid` and draws nothing."""
    if not cfg.augment:
        return pyramid
    s = rng.uniform(cfg.scale_lo, cfg.scale_hi)
    t = rng.uniform(-cfg.translate, cfg.translate, size=3)
    return replace(pyramid, points=[p * s + t for p in pyramid.points])


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over a (B, K) batch of logits."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ConfigError(f"labels must be integers, got dtype {labels.dtype}")
    b, k = logits.shape
    if labels.shape != (b,):
        raise ConfigError(f"expected {b} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ConfigError(f"label outside [0, {k})")
    onehot = np.zeros((b, k))
    onehot[np.arange(b), labels] = 1.0
    ls = T.log_softmax(logits, axis=-1)
    return T.mul(T.tsum(T.mul(ls, onehot)), -1.0 / b)


@dataclass
class MetricsRow:
    step: int
    epoch: int
    lr: float
    loss: float
    accuracy: float | None = None


def _epoch_orders(rng, n: int, epochs: int):
    """Each epoch's shuffle of items 0..n-1, drawn from `rng` when the
    iteration reaches its epoch."""
    for _ in range(epochs):
        yield rng.permutation(n)


def _fit(
    model, opt: AdamW, cfg: TrainConfig, orders, draw, pack_loss, size: int, rows: list,
    on_epoch_end=None,
) -> None:
    """The one training step. Per epoch: the scheduled lr and the next of
    `orders`, the epoch's shuffle of its items (`_epoch_orders`: a lazy
    one draws as each epoch starts, a list was drawn before). Per batch:
    `drawn = draw(batch)` makes every random draw of the step, in batch
    order. `pack_loss(model, drawn[p : p + size])` then gives a pack's mean
    loss and per-item hits (or None) and draws nothing; scaled by the pack's
    share of the batch, the loss is backed into `opt`'s parameters. One
    optimizer step follows and appends a MetricsRow, so the step number is
    `len(rows)`.

    A call's packs are the jobs of one `_session`, run once per batch, which
    the pool sizes per batch: the leading packs are backed here, the others,
    once the pool runs, in workers (`_pack_gradient`), each into its own copy
    of `model`, sent once per call.
    Their leaf gradients are then added here in pack order by backward()'s
    own rule. Every parameter takes one gradient per graph, so each pack adds
    the same array either way, and every output is bitwise the same at any
    worker count."""
    leaves = list(opt.params.values())
    session = _session(size, _pack_gradient, (model, pack_loss, leaves))

    def here(item: tuple) -> tuple:
        _, pack, share = item
        return (*_back_pack(model, pack_loss, pack, share), None)

    for epoch, order in enumerate(orders):
        opt.lr = lr_at(epoch, cfg)
        for lo in range(0, len(order), cfg.batch_size):
            drawn = draw(order[lo : lo + cfg.batch_size])
            opt.zero_grad()
            arrays = [p.data for p in leaves]
            packs = [drawn[p : p + size] for p in range(0, len(drawn), size)]
            results = session.run([(arrays, pack, len(pack) / len(drawn)) for pack in packs], here)
            total = 0.0
            for pack, (value, _, grads) in zip(packs, results):
                for p, g in zip(leaves, grads or ()):  # None: backed here
                    if g is not None:
                        p.accumulate_grad(g)
                total += value * len(pack)
            opt.step()
            hits = [hit for _, hit, _ in results]
            acc = None if hits[0] is None else float(np.mean(np.concatenate(hits)))
            rows.append(MetricsRow(len(rows) + 1, epoch, opt.lr, total / len(drawn), acc))
        if on_epoch_end is not None:
            on_epoch_end(epoch)


def _back_pack(model, pack_loss, pack: list, share: float) -> tuple[float, np.ndarray | None]:
    """One pack's forward, and its loss backed at the pack's share of the
    batch; returns the loss value and the hits."""
    loss, hit = pack_loss(model, pack)
    T.mul(loss, share).backward()
    return loss.item(), hit


def _pack_gradient(job: tuple, item: tuple) -> tuple:
    """A worker's pack: set the caller's parameter arrays, back the pack into
    this process's copy of the model alone, and return its loss value, its
    hits and each leaf's gradient (None: no gradient reached it)."""
    model, pack_loss, leaves = job
    arrays, pack, share = item
    for p, a in zip(leaves, arrays):
        p.data = a
        p.zero_grad()
    value, hit = _back_pack(model, pack_loss, pack, share)
    return value, hit, [p._grad for p in leaves]


def _session(size: int, fn, arg):
    """The `pamr.pool` session of a call's jobs `fn(arg, item)` of up to
    `size` clouds each; the pool sizes each of its runs. `fn` is a
    module-level function that reads nothing else and gives what the run's
    `here(item)` gives, so the results do not depend on where
    `session.run(items, here)` puts the items."""
    from . import pool  # here: `import pamr.cli` does not load the pool

    # A default-config cloud (pack_size 1) stays in-process: its staged
    # gradient is about 112 MiB, and receiving it from a worker would break
    # pretrain-full's 10% peak-RSS bound (each worker also holds a model copy).
    return pool.Session(fn, arg, spread=size >= 2)


def _spread(size: int, fn, arg, items: list) -> list:
    """[fn(arg, item) for item in items], in order, as one run of a `_session`."""
    return _session(size, fn, arg).run(items, functools.partial(fn, arg))


# The jobs `_spread` hands out: module-level, so a call can send them by name.
def _build_stack(cfg: ModelConfig, clouds: list[np.ndarray]) -> list[ScalePyramid]:
    """The pyramids of raw clouds of one point count, normalized, stacked and built in lock-step."""
    return build_scale_pyramid(np.stack([normalize_points(p) for p in clouds]), cfg.sizes, cfg.ks)


def _encode(clf: CloudClassifier, pyramids: list[ScalePyramid]) -> np.ndarray:
    """The frozen-encoder feature rows of one no-grad pack of pyramids."""
    with T.no_grad():
        return clf.features(stack_pack(pyramids)[0]).data


def _head_accuracy(train_cfg: TrainConfig, job: tuple) -> float:
    """One few-shot trial's head, fit on its train features in its pre-drawn
    epoch orders; its accuracy on its test features. The fitted head drops
    its gradients: its job lives until the last head is fit."""
    head, train_feats, train_labels, test_feats, test_labels, orders = job
    _fit_frozen_head(head, train_feats, train_labels, train_cfg, orders, [])
    acc = _accuracy(head, test_feats, test_labels)
    for layer in head:
        for p in layer.parameters():
            p.zero_grad()
    return acc


def _scored(logits: Tensor, labels: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Mean cross-entropy of (B, K) logits, and whether each item was classified right."""
    return cross_entropy(logits, labels), np.argmax(logits.data, axis=1) == labels


# The pack losses a worker runs: module-level, so a call can send them by name.
def _reconstruction_loss(model: MaskedAutoencoder, pack: list):
    """A pretraining pack's mean loss over its (augmented pyramid, mask plan) pairs."""
    pyrs, plans = zip(*pack)
    return model.loss(*stack_pack(pyrs, plans)), None


def _classification_loss(clf: CloudClassifier, pack: list):
    """A fine-tuning pack's mean cross-entropy and hits over its (pyramid, label) pairs."""
    pyrs, labels = zip(*pack)
    return _scored(clf.logits(stack_pack(pyrs)[0]), np.array(labels))


# Token-channels, sum(sizes[s] * dims[s]) over the scales, of the clouds one
# graph may hold. Traced with tracemalloc, a desk-scale cloud (1,024) holds
# about 0.48 MiB of live graph after its forward, and a training pack of 8
# peaks at 4.7 MiB over its loss forward and backward; a default-config
# cloud (122,880) holds about 151 MiB and peaks at 224 MiB. So desk clouds go
# eight to a graph, which amortizes the interpreter's per-op cost, and a
# default-config cloud goes alone.
PACK_BUDGET = 8192

# The same for one pass that keeps no graph: a pyramid build or a frozen
# encode. Traced with tracemalloc at the desk config, a frozen encode of 12
# clouds peaks at 1.8 MiB and one of 16 at 2.4 MiB, both below one training
# pack of 8; a pyramid build of 12 peaks at 0.93 MiB. It holds twelve desk
# clouds or one default-config cloud.
NO_GRAD_BUDGET = 12288


def pack_size(cfg: ModelConfig, budget: int = PACK_BUDGET) -> int:
    """Clouds per pack under `budget`, at least one; depends on the
    architecture only, never on a mask draw."""
    return max(1, budget // sum(n * d for n, d in zip(cfg.sizes, cfg.dims)))


@dataclass
class PretrainResult:
    model: MaskedAutoencoder
    optimizer: AdamW
    rows: list[MetricsRow] = field(default_factory=list)

    @property
    def losses(self) -> list[float]:
        return [r.loss for r in self.rows]


def pretrain_run(
    clouds: list[PointCloud],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    on_checkpoint=None,
) -> PretrainResult:
    """The masked-reconstruction loop.

    `on_checkpoint(model, optimizer, step, tag)` is invoked at the end, every
    `checkpoint_every` epochs, and with tag "aborted" before re-raising any
    PamrError that surfaces mid-training.
    """
    if not clouds:
        raise ConfigError("pretraining needs a non-empty dataset")
    if train_cfg.mask_ratio <= 0.0:
        raise ConfigError("pretraining needs mask_ratio > 0")
    rng = np.random.default_rng(train_cfg.seed)
    model = MaskedAutoencoder(model_cfg, rng)
    opt = AdamW(model.param_dict(), train_cfg.base_lr, train_cfg.weight_decay)
    result = PretrainResult(model, opt)
    pyramids = cloud_pyramids([c.points for c in clouds], model_cfg)

    def draw(batch: np.ndarray) -> list:
        drawn = []  # (augmented pyramid, mask plan) per cloud
        for ci in batch:
            pyr = augment(pyramids[ci], rng, train_cfg)
            drawn.append((pyr, mask_and_backproject(pyr, train_cfg.mask_ratio, rng)))
        return drawn

    def on_epoch_end(epoch: int) -> None:
        every, done = train_cfg.checkpoint_every, epoch + 1
        if on_checkpoint is not None and every and done % every == 0 and done < train_cfg.epochs:
            on_checkpoint(model, opt, len(result.rows), f"epoch{done:04d}")

    orders = _epoch_orders(rng, len(clouds), train_cfg.epochs)
    try:
        _fit(
            model, opt, train_cfg, orders, draw, _reconstruction_loss, pack_size(model_cfg),
            result.rows, on_epoch_end,
        )
    except PamrError:
        # parameters still hold the last completed step
        if on_checkpoint is not None:
            on_checkpoint(model, opt, len(result.rows), "aborted")
        raise
    if on_checkpoint is not None:
        on_checkpoint(model, opt, len(result.rows), "final")
    return result


def _stratified_split(
    labels: np.ndarray, holdout_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class shuffled split; every class keeps at least one train item."""
    train: list[int] = []
    hold: list[int] = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        n_hold = min(int(np.floor(idx.size * holdout_fraction)), idx.size - 1)
        hold.extend(idx[:n_hold].tolist())
        train.extend(idx[n_hold:].tolist())
    return np.array(sorted(train), dtype=np.int64), np.array(sorted(hold), dtype=np.int64)


def pooled_features(clf: CloudClassifier, pyramids: list[ScalePyramid]) -> np.ndarray:
    """Frozen-backbone feature matrix (n, 2*C_S), one row per pyramid, encoded
    a no-grad pack at a time (spread over the pool, see `_spread`)."""
    size = pack_size(clf.cfg, NO_GRAD_BUDGET)
    packs = [pyramids[lo : lo + size] for lo in range(0, len(pyramids), size)]
    return np.concatenate(_spread(size, _encode, clf, packs), axis=0)


@dataclass
class FinetuneResult:
    classifier: CloudClassifier
    train_accuracy: float
    holdout_accuracy: float
    rows: list[MetricsRow] = field(default_factory=list)
    train_idx: np.ndarray | None = None
    holdout_idx: np.ndarray | None = None


def _fit_frozen_head(
    head: list, feats: np.ndarray, labels: np.ndarray, train_cfg: TrainConfig, orders: list, rows: list
) -> None:
    """Train only a classifier's head (`CloudClassifier.head`) on the frozen
    encoder's features, in the epoch orders drawn before. A step draws
    nothing, so `draw` passes the index array through, and a batch is one
    (B, K) pack."""
    params = {f"head.{i}.{name}": p for i, layer in enumerate(head) for name, p in layer.named_parameters()}
    opt = AdamW(params, train_cfg.base_lr, train_cfg.weight_decay)

    def pack_loss(head: list, batch: np.ndarray):
        return _scored(head_logits(head, T.constant(feats[batch])), labels[batch])

    _fit(head, opt, train_cfg, orders, lambda batch: batch, pack_loss, train_cfg.batch_size, rows)


def _accuracy(head: list, feats: np.ndarray, labels: np.ndarray) -> float:
    with T.no_grad():
        logits = head_logits(head, T.constant(feats)).data
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def finetune_classify(
    clouds: list[PointCloud],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    pretrained: dict[str, np.ndarray] | None = None,
) -> FinetuneResult:
    """Supervised classification with a stratified held-out split.

    `pretrained` maps parameter names to arrays (an autoencoder checkpoint);
    every name with an encoder prefix that exists in the classifier is
    copied in. With `freeze_backbone` only the head trains, on cached
    features; otherwise gradients flow through the whole encoder. Either
    way one pass encodes every cloud, and both accuracies read its rows.
    """
    if not clouds or any(c.label is None for c in clouds):
        raise ConfigError("fine-tuning needs a label on every cloud")
    # classes in sorted order become 0..K-1, so labels 0..K-1 map to themselves
    classes, labels = np.unique([c.label for c in clouds], return_inverse=True)
    if classes.size < 2:
        raise ConfigError("fine-tuning needs at least two classes present")
    rng = np.random.default_rng(train_cfg.seed)
    clf = CloudClassifier(model_cfg, classes.size, train_cfg.head_hidden, rng)
    if pretrained is not None:
        load_encoder_weights(clf, pretrained)
    train_idx, hold_idx = _stratified_split(labels, train_cfg.holdout_fraction, rng)
    pyramids = cloud_pyramids([c.points for c in clouds], model_cfg)
    train_pyrs, train_labels = [pyramids[i] for i in train_idx], labels[train_idx]
    rows: list[MetricsRow] = []

    orders = _epoch_orders(rng, train_idx.size, train_cfg.epochs)
    if train_cfg.freeze_backbone:
        feats = pooled_features(clf, pyramids)
        _fit_frozen_head(clf.head, feats[train_idx], train_labels, train_cfg, list(orders), rows)
    else:

        def draw(batch: np.ndarray) -> list:
            return [(augment(train_pyrs[i], rng, train_cfg), train_labels[i]) for i in batch]

        opt = AdamW(clf.param_dict(), train_cfg.base_lr, train_cfg.weight_decay)
        _fit(clf, opt, train_cfg, orders, draw, _classification_loss, pack_size(model_cfg), rows)
        feats = pooled_features(clf, pyramids)

    train_acc = _accuracy(clf.head, feats[train_idx], train_labels)
    hold_acc = _accuracy(clf.head, feats[hold_idx], labels[hold_idx]) if hold_idx.size else float("nan")
    return FinetuneResult(clf, train_acc, hold_acc, rows, train_idx, hold_idx)


@dataclass
class FewShotResult:
    mean_accuracy: float
    std_accuracy: float
    per_trial: list[float]


def few_shot_eval(
    clouds: list[PointCloud],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    pretrained: dict[str, np.ndarray] | None = None,
) -> FewShotResult:
    """n-way m-shot protocol: per trial, train a fresh head on m examples of
    each of n sampled classes (frozen backbone) and test on `test_per_class`
    held-out examples per class.

    The trials run in order. Each makes its draws (the class choice, a
    shuffle of each chosen class, the classifier init and the head fit's
    epoch orders), then builds and encodes its clouds, which draws nothing,
    and keeps its head, features, labels and orders as one job, not its
    encoder. The heads of all trials are then fit as one set of jobs
    (`_spread`): the first here, the others in `pamr.pool`'s workers.

    Each drawn cloud's pyramid is built once per call. When `pretrained`
    covers every encoder parameter, each trial's encoder is the same, so
    each cloud is encoded at most once per call and its features are reused
    by later trials. Otherwise the encoder keeps some of its per-trial random
    init and every trial encodes its own clouds."""
    n, m = train_cfg.n_way, train_cfg.m_shot
    per_class: dict[int, list[int]] = {}
    for i, c in enumerate(clouds):
        if c.label is None:
            raise ConfigError("few-shot needs a label on every cloud")
        per_class.setdefault(c.label, []).append(i)
    _check_point_counts([c.points for c in clouds], model_cfg)
    need = m + train_cfg.test_per_class
    eligible = [cls for cls, idx in per_class.items() if len(idx) >= need]
    if len(eligible) < n:
        raise ConfigError(
            f"need {n} classes with at least {need} clouds each, have {len(eligible)}"
        )
    rng = np.random.default_rng(train_cfg.seed)
    jobs = []
    feats: dict[int, np.ndarray] = {}  # cloud index -> pooled feature row
    pyramids: dict[int, ScalePyramid] = {}  # cloud index -> its pyramid
    for _ in range(train_cfg.trials):
        classes = rng.choice(np.array(sorted(eligible)), size=n, replace=False)
        train_set: list[int] = []
        test_set: list[int] = []
        for cls in classes:
            members = np.array(per_class[int(cls)])
            members = members[rng.permutation(members.size)]
            train_set.extend(members[:m].tolist())
            test_set.extend(members[m:need].tolist())
        # built every trial: its init draws from rng, and the draws after it depend on that
        clf = CloudClassifier(model_cfg, n, train_cfg.head_hidden, rng)
        if pretrained is None or not load_encoder_weights(clf, pretrained):
            feats = {}  # part of this trial's encoder is its own random init
        orders = list(_epoch_orders(rng, len(train_set), train_cfg.epochs))
        new = sorted(set(train_set + test_set) - pyramids.keys())  # in dataset order
        pyramids.update(zip(new, cloud_pyramids([clouds[i].points for i in new], model_cfg)))
        todo = sorted(set(train_set + test_set) - feats.keys())
        if todo:
            feats.update(zip(todo, pooled_features(clf, [pyramids[i] for i in todo])))
        remap = {int(cls): j for j, cls in enumerate(classes)}
        labels = [np.array([remap[clouds[i].label] for i in s], dtype=np.int64) for s in (train_set, test_set)]
        train_feats, test_feats = (np.stack([feats[i] for i in s]) for s in (train_set, test_set))
        jobs.append((clf.head, train_feats, labels[0], test_feats, labels[1], orders))
    accs = _spread(pack_size(model_cfg, NO_GRAD_BUDGET), _head_accuracy, train_cfg, jobs)
    arr = np.array(accs)
    return FewShotResult(float(arr.mean()), float(arr.std()), accs)
