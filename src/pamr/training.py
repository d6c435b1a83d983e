"""Optimization and training protocols.

Everything here is deterministic under a fixed seed: one generator drives
parameter init, batch order, masking, and augmentation in a fixed sequence,
so a rerun with the same config reproduces the loss series bitwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .backbone import CloudClassifier, MaskedAutoencoder
from .config import ModelConfig, TrainConfig
from .errors import ConfigError, NonFiniteError
from .geometry import PointCloud, ScalePyramid, build_scale_pyramid
from .geometry import mask_and_backproject, normalize_points
from .tensor import Tensor

__all__ = [
    "AdamW",
    "lr_at",
    "augment",
    "cloud_pyramid",
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


def cloud_pyramid(points: np.ndarray, model_cfg: ModelConfig) -> ScalePyramid:
    """The model input for one raw cloud: the ScalePyramid of its normalized points."""
    return build_scale_pyramid(normalize_points(points), model_cfg.sizes, model_cfg.ks)


def augment(pyramid: ScalePyramid, rng: np.random.Generator, cfg: TrainConfig) -> ScalePyramid:
    """Random isotropic scale and per-axis translation of every level's
    coordinates, p <- s*p + t, keeping the FPS and kNN indices (so the levels
    still nest); with `cfg.augment` off it returns `pyramid` and draws nothing."""
    if not cfg.augment:
        return pyramid
    s = rng.uniform(cfg.scale_lo, cfg.scale_hi)
    t = rng.uniform(-cfg.translate, cfg.translate, size=3)
    return ScalePyramid([p * s + t for p in pyramid.points], pyramid.sample_idx, pyramid.neighbors)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over a (B, K) batch of logits."""
    labels = np.asarray(labels, dtype=np.int64)
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


def _fit(
    opt: AdamW, n: int, cfg: TrainConfig, rng, batch_loss, rows: list, on_epoch_end=None
) -> None:
    """The training schedule over items 0..n-1: per epoch the scheduled lr and
    a shuffle, per batch one optimizer step. `batch_loss(batch)` runs forward
    and backward over the item indices and returns (loss, accuracy or None);
    each step appends a MetricsRow, so the step number is `len(rows)`."""
    for epoch in range(cfg.epochs):
        opt.lr = lr_at(epoch, cfg)
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            opt.zero_grad()
            loss, acc = batch_loss(order[lo : lo + cfg.batch_size])
            opt.step()
            rows.append(MetricsRow(len(rows) + 1, epoch, opt.lr, loss, acc))
        if on_epoch_end is not None:
            on_epoch_end(epoch)


def _per_cloud(batch: np.ndarray, loss_of):
    """Forward and backward one item at a time, each loss scaled by 1/B, so one
    graph is alive at once. `loss_of(i)` gives item i's loss and whether it was
    classified right (or None); returns the mean loss and accuracy (or None)."""
    total, hits = 0.0, []
    for i in batch:
        loss, hit = loss_of(i)
        T.mul(loss, 1.0 / batch.size).backward()
        total += loss.item()
        hits.append(hit)
    return total / batch.size, None if hits[0] is None else float(np.mean(hits))


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
    `checkpoint_every` epochs, and with tag "aborted" before re-raising if a
    non-finite value surfaces mid-training.
    """
    train_cfg.validate()
    if not clouds:
        raise ConfigError("pretraining needs a non-empty dataset")
    if train_cfg.mask_ratio <= 0.0:
        raise ConfigError("pretraining needs mask_ratio > 0")
    rng = np.random.default_rng(train_cfg.seed)
    model = MaskedAutoencoder(model_cfg, rng)
    opt = AdamW(model.param_dict(), train_cfg.base_lr, train_cfg.weight_decay)
    result = PretrainResult(model, opt)
    pyramids = [cloud_pyramid(c.points, model_cfg) for c in clouds]

    def loss_of(ci: int):
        pyr = augment(pyramids[ci], rng, train_cfg)
        return model.loss(pyr, mask_and_backproject(pyr, train_cfg.mask_ratio, rng)), None

    def on_epoch_end(epoch: int) -> None:
        every, done = train_cfg.checkpoint_every, epoch + 1
        if on_checkpoint is not None and every and done % every == 0 and done < train_cfg.epochs:
            on_checkpoint(model, opt, len(result.rows), f"epoch{done:04d}")

    try:
        _fit(
            opt, len(clouds), train_cfg, rng, lambda b: _per_cloud(b, loss_of), result.rows, on_epoch_end
        )
    except NonFiniteError:
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
    """Frozen-backbone feature matrix (n, 2*C_S), one row per pyramid; no grads."""
    with T.no_grad():
        rows = [clf.features(pyr).data[0] for pyr in pyramids]
    return np.stack(rows, axis=0)


@dataclass
class FinetuneResult:
    classifier: CloudClassifier
    train_accuracy: float
    holdout_accuracy: float
    rows: list[MetricsRow] = field(default_factory=list)
    train_idx: np.ndarray | None = None
    holdout_idx: np.ndarray | None = None


def _fit_frozen_head(
    clf: CloudClassifier, feats: np.ndarray, labels: np.ndarray, train_cfg: TrainConfig, rng, rows: list
) -> None:
    """Train only the head, one (B, K) graph per batch, on the frozen encoder's features."""
    head = {name: p for name, p in clf.named_parameters() if name.startswith("head.")}
    opt = AdamW(head, train_cfg.base_lr, train_cfg.weight_decay)

    def batch_loss(batch: np.ndarray):
        logits = clf.logits_from_features(T.constant(feats[batch]))
        loss = cross_entropy(logits, labels[batch])
        loss.backward()
        return loss.item(), float(np.mean(np.argmax(logits.data, axis=1) == labels[batch]))

    _fit(opt, labels.size, train_cfg, rng, batch_loss, rows)


def _accuracy(clf: CloudClassifier, feats: np.ndarray, labels: np.ndarray) -> float:
    with T.no_grad():
        logits = clf.logits_from_features(T.constant(feats)).data
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
    features; otherwise gradients flow through the whole encoder.
    """
    train_cfg.validate()
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
    pyramids = [cloud_pyramid(c.points, model_cfg) for c in clouds]
    train_pyrs, train_labels = [pyramids[i] for i in train_idx], labels[train_idx]
    rows: list[MetricsRow] = []

    if train_cfg.freeze_backbone:
        train_feats = pooled_features(clf, train_pyrs)
        _fit_frozen_head(clf, train_feats, train_labels, train_cfg, rng, rows)
    else:

        def loss_of(i: int):
            logits = clf.logits(augment(train_pyrs[i], rng, train_cfg))
            hit = np.argmax(logits.data[0]) == train_labels[i]
            return cross_entropy(logits, train_labels[i : i + 1]), hit

        opt = AdamW(clf.param_dict(), train_cfg.base_lr, train_cfg.weight_decay)
        _fit(opt, train_idx.size, train_cfg, rng, lambda b: _per_cloud(b, loss_of), rows)
        train_feats = pooled_features(clf, train_pyrs)

    train_acc = _accuracy(clf, train_feats, train_labels)
    hold_acc = float("nan")
    if hold_idx.size:
        hold_feats = pooled_features(clf, [pyramids[i] for i in hold_idx])
        hold_acc = _accuracy(clf, hold_feats, labels[hold_idx])
    return FinetuneResult(clf, train_acc, hold_acc, rows, train_idx, hold_idx)


def load_encoder_weights(clf: CloudClassifier, params: dict[str, np.ndarray]) -> int:
    """Copy every encoder.* entry whose name and shape match; returns count."""
    own = clf.param_dict()
    copied = 0
    for name, value in params.items():
        if not name.startswith("encoder."):
            continue
        if name in own:
            if own[name].shape != value.shape:
                raise ConfigError(f"shape mismatch for {name!r}: {own[name].shape} vs {value.shape}")
            own[name].data = np.array(value, dtype=np.float64)
            copied += 1
    if copied == 0:
        raise ConfigError("checkpoint holds no matching encoder parameters")
    return copied


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

    When `pretrained` covers every encoder parameter, each trial's encoder
    is the same, so each cloud is encoded at most once per call and its
    features are reused by later trials. Otherwise the encoder keeps some
    of its per-trial random init and every trial encodes its own clouds."""
    train_cfg.validate()
    n, m = train_cfg.n_way, train_cfg.m_shot
    per_class: dict[int, list[int]] = {}
    for i, c in enumerate(clouds):
        if c.label is None:
            raise ConfigError("few-shot needs a label on every cloud")
        per_class.setdefault(c.label, []).append(i)
    need = m + train_cfg.test_per_class
    eligible = [cls for cls, idx in per_class.items() if len(idx) >= need]
    if len(eligible) < n:
        raise ConfigError(
            f"need {n} classes with at least {need} clouds each, have {len(eligible)}"
        )
    rng = np.random.default_rng(train_cfg.seed)
    accs: list[float] = []
    feats: dict[int, np.ndarray] = {}  # cloud index -> pooled feature row
    for _ in range(train_cfg.trials):
        classes = rng.choice(np.array(sorted(eligible)), size=n, replace=False)
        train_set: list[int] = []
        test_set: list[int] = []
        remap = {int(cls): j for j, cls in enumerate(classes)}
        for cls in classes:
            pool = np.array(per_class[int(cls)])
            pool = pool[rng.permutation(pool.size)]
            train_set.extend(pool[:m].tolist())
            test_set.extend(pool[m : m + train_cfg.test_per_class].tolist())
        # built every trial: its init draws from rng, and the draws after it depend on that
        clf = CloudClassifier(model_cfg, n, train_cfg.head_hidden, rng)
        n_encoder = sum(name.startswith("encoder.") for name in clf.param_dict())
        if pretrained is None or load_encoder_weights(clf, pretrained) < n_encoder:
            feats = {}  # part of this trial's encoder is its own random init
        todo = [i for i in train_set + test_set if i not in feats]
        if todo:
            pyramids = [cloud_pyramid(clouds[i].points, model_cfg) for i in todo]
            feats.update(zip(todo, pooled_features(clf, pyramids)))
        tr_labels = np.array([remap[clouds[i].label] for i in train_set], dtype=np.int64)
        te_labels = np.array([remap[clouds[i].label] for i in test_set], dtype=np.int64)
        _fit_frozen_head(clf, np.stack([feats[i] for i in train_set]), tr_labels, train_cfg, rng, [])
        accs.append(_accuracy(clf, np.stack([feats[i] for i in test_set]), te_labels))
    arr = np.array(accs)
    return FewShotResult(float(arr.mean()), float(arr.std()), accs)
