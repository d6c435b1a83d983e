"""Hierarchical transformer over the scale pyramid.

The model's unit of work is a pack: one pyramid whose levels hold one or more
clouds' rows, cloud after cloud (`geometry.stack_pack`). Row-wise layers run
once per pack and attention stays within each cloud's rows, so a single
cloud's pyramid is a pack of one.

The encoder runs one stage per scale on visible tokens only, merging tokens
between stages; every stage output is retained. The decoder rebuilds the
full coarsest-scale sequence by scattering a shared mask token into the
masked slots, then walks back down to scale 2, upsampling between stages by
inverse-distance interpolation over each position's nearest coarse centers.
A linear head turns masked scale-2 tokens into relative neighborhoods whose
chamfer distance to the true patches is the pretraining loss.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .embedding import PatchTokenizer, PositionEmbedding, TokenMerger
from .errors import ConfigError, ShapeError
from .geometry import (
    MaskPlan,
    ScalePyramid,
    chamfer_l2_batched,
    gather_patches,
    knn,
    mask_and_backproject,
    masked_rows,
    visible_positions,
)
from .nn import LayerNorm, Linear, Module
from .tensor import Tensor

__all__ = [
    "MultiHeadAttention",
    "TransformerBlock",
    "HierarchicalEncoder",
    "TokenPropagator",
    "HierarchicalDecoder",
    "MaskedAutoencoder",
    "CloudClassifier",
    "head_logits",
    "pretrain_loss",
]


class MultiHeadAttention(Module):
    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ConfigError(f"dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        # constant zero: a key bias adds one q.b to every score of a query, which softmax ignores
        self.wk.bias = T.constant(self.wk.bias.data)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def forward(self, x: Tensor, offsets: np.ndarray) -> Tensor:
        """`offsets` are the pack's segment offsets (see `tensor.attention`)."""
        return self.wo(T.attention(self.wq(x), self.wk(x), self.wv(x), self.heads, offsets))


class TransformerBlock(Module):
    """Pre-norm attention and FFN, both with residuals; 4x FFN expansion."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, heads, rng)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, 4 * dim, rng)
        self.fc2 = Linear(4 * dim, dim, rng)

    def forward(self, x: Tensor, offsets: np.ndarray) -> Tensor:
        x = T.add(x, self.attn(self.ln1(x), offsets))
        ln, fc1, fc2 = self.ln2, self.fc1, self.fc2
        return T.ffn(x, ln.scale, ln.shift, fc1.weight, fc1.bias, fc2.weight, fc2.bias)


class HierarchicalEncoder(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        dims = cfg.dims
        self.num_scales = len(dims)
        self.tokenizer = PatchTokenizer(
            dims[0],
            cfg.la_window,
            cfg.la_groups,
            rng,
            la_enabled=cfg.la_enabled,
            avg_branch=cfg.la_avg_branch,
            max_branch=cfg.la_max_branch,
        )
        self.pos = [PositionEmbedding(d, rng) for d in dims]
        self.stages = [
            [TransformerBlock(d, cfg.heads, rng) for _ in range(cfg.encoder_blocks)]
            for d in dims
        ]
        self.norms = [LayerNorm(d) for d in dims]
        self.mergers = [
            TokenMerger(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)
        ]

    def forward(self, pyr: ScalePyramid, plan: MaskPlan) -> list[Tensor]:
        """Each stage's tokens: the rows of `plan.visible` at that scale, in
        order, so each cloud of a pack follows the one before it."""
        if pyr.num_scales != self.num_scales:
            raise ShapeError(f"pyramid has {pyr.num_scales} scales, model expects {self.num_scales}")
        # each scale's visible rows, cut into the pack's clouds
        cuts = {s: np.searchsorted(plan.visible[s], pyr.offsets[s]) for s in range(1, self.num_scales + 1)}
        for scale, cut in cuts.items():
            empty = np.flatnonzero(np.diff(cut) == 0)
            if empty.size:
                raise ConfigError(
                    f"no visible centers at scale {scale} in cloud {empty[0]} of the pack; lower mask_ratio"
                )
        outs: list[Tensor] = []
        x = self.tokenizer(gather_patches(pyr, 1, plan.visible[1]))
        for i in range(self.num_scales):
            scale = i + 1
            if i > 0:
                # patch rows index the scale below; all of them are visible
                # by the nesting invariant, or visible_positions raises
                want = pyr.neighbors[i][plan.visible[scale]]
                rows = visible_positions(plan.visible[scale - 1], want.ravel())
                x = self.mergers[i - 1](x, rows.reshape(want.shape))
            x = T.add(x, self.pos[i](pyr.points[scale][plan.visible[scale]]))
            for block in self.stages[i]:
                x = block(x, cuts[scale])
            x = self.norms[i](x)
            outs.append(x)
        return outs


class TokenPropagator(Module):
    """Spread coarse tokens onto fine positions, then project the width."""

    def __init__(self, dim_in: int, dim_out: int, rng: np.random.Generator):
        self.proj = Linear(dim_in, dim_out, rng)

    def forward(self, tokens: Tensor, pyr: ScalePyramid, scale: int, k: int) -> Tensor:
        """`tokens` has a row per scale-(scale+1) position of `pyr`; each of its
        scale-`scale` positions mixes the tokens of its k nearest coarse
        positions in its own cloud."""
        coarse, fine = pyr.points[scale + 1], pyr.points[scale]
        if tokens.shape[0] != coarse.shape[0]:
            raise ShapeError(f"{tokens.shape[0]} tokens for {coarse.shape[0]} coarse positions")
        b = pyr.offsets[scale].size - 1  # every cloud has as many rows at a scale past 0
        idx, weights = self.interpolation_weights(coarse.reshape(b, -1, 3), fine.reshape(b, -1, 3), k)
        idx = idx + pyr.offsets[scale + 1][:-1, None, None]  # into each cloud's own rows
        gathered = T.index_select(tokens, idx.reshape(-1, idx.shape[-1]))  # (n_fine, k, dim_in)
        mixed = T.tsum(T.mul(gathered, weights.reshape(-1, weights.shape[-1], 1)), axis=1)
        return self.proj(mixed)

    @staticmethod
    def interpolation_weights(
        coarse_coords: np.ndarray, fine_coords: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """kNN indices into the coarse set and their inverse-distance weights,
        convex per fine point; the pair forward() mixes tokens with. Stacks of
        clouds, (C, R, 3) coarse and (C, Q, 3) fine, give (C, Q, k) of each."""
        k_eff = min(k, coarse_coords.shape[1])
        idx, d2 = knn(fine_coords, coarse_coords, k_eff)
        dist = np.maximum(np.sqrt(np.take_along_axis(d2, idx, -1)), 1e-8)
        inv = 1.0 / dist
        return idx, inv / inv.sum(axis=-1, keepdims=True)


class HierarchicalDecoder(Module):
    """Walks scales S down to 2; stages are light (one block by default)."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        dims = cfg.dims
        s = len(dims)
        self.scales = tuple(range(s, 1, -1))  # S, S-1, ..., 2
        self.interp_k = cfg.interp_k
        self.mask_token = T.param(rng.normal(size=dims[-1]) * 0.02)
        self.pos = [PositionEmbedding(dims[sc - 1], rng) for sc in self.scales]
        self.stages = [
            [TransformerBlock(dims[sc - 1], cfg.heads, rng) for _ in range(cfg.decoder_blocks)]
            for sc in self.scales
        ]
        self.props = [
            TokenPropagator(dims[a - 1], dims[b - 1], rng)
            for a, b in zip(self.scales[:-1], self.scales[1:])
        ]
        self.final_norm = LayerNorm(dims[1])

    def forward(self, stage_outputs: list[Tensor], pyr: ScalePyramid, plan: MaskPlan) -> Tensor:
        """Tokens for every scale-2 row of `pyr`, in row order."""
        s = self.scales[0]
        top = stage_outputs[-1]
        # the full coarsest sequence: visible slots gather their tokens, the
        # rest the mask row after all of them
        slot = np.full(pyr.size_at(s), top.shape[0])
        slot[plan.visible[s]] = np.arange(top.shape[0])
        x = T.index_select(T.concat([top, T.reshape(self.mask_token, (1, -1))]), slot)
        for j, sc in enumerate(self.scales):
            if j > 0:
                x = self.props[j - 1](x, pyr, sc, self.interp_k)
            x = T.add(x, self.pos[j](pyr.points[sc]))
            for block in self.stages[j]:
                x = block(x, pyr.offsets[sc])
        return self.final_norm(x)


def pretrain_loss(pred: Tensor, pyr: ScalePyramid, plan: MaskPlan, zero_scale: bool = False) -> Tensor:
    """Mean over the pack's B clouds of each cloud's mean chamfer between
    predicted and true center-relative patches of its masked scale-2 centers:
    each of cloud i's M_i rows weighs 1/(B * M_i).

    `pred` holds the masked scale-2 rows (`masked_rows`) in order. The target
    is each center's scale-2 patch, or with `zero_scale` its raw-point
    neighborhood: the scale-1 patch of the same point, which fps carried up
    from scale 1 unchanged.
    """
    msk = masked_rows(pyr, plan, 2)
    scale, centers = (1, pyr.sample_idx[1][msk]) if zero_scale else (2, msk)
    truth = gather_patches(pyr, scale, centers)
    if pred.shape != truth.shape:
        raise ShapeError(f"predictions must have shape {truth.shape}, got {pred.shape}")
    counts = np.diff(np.searchsorted(msk, pyr.offsets[2]))  # M_i
    return chamfer_l2_batched(pred, truth, 1.0 / (counts.size * np.repeat(counts, counts)))


@dataclass
class ReconOutput:
    pred: Tensor  # (M, k_2, 3) relative to each masked scale-2 center, in row order
    pred_zero: Tensor | None


class MaskedAutoencoder(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.encoder = HierarchicalEncoder(cfg, rng)
        self.decoder = HierarchicalDecoder(cfg, rng)
        self.recon_head = Linear(cfg.dims[1], cfg.ks[1] * 3, rng)
        self.zero_head = (
            Linear(cfg.dims[1], cfg.ks[0] * 3, rng) if cfg.zero_scale_head else None
        )

    def reconstruct(self, pyr: ScalePyramid, plan: MaskPlan) -> ReconOutput:
        rows = masked_rows(pyr, plan, 2)
        empty = np.flatnonzero(np.diff(np.searchsorted(rows, pyr.offsets[2])) == 0)
        if empty.size:
            raise ConfigError(
                f"no masked scale-2 centers in cloud {empty[0]} of the pack; raise mask_ratio or lower ks"
            )
        stages = self.encoder(pyr, plan)
        dec = self.decoder(stages, pyr, plan)
        hidden = T.index_select(dec, rows)
        pred = T.reshape(self.recon_head(hidden), (rows.size, self.cfg.ks[1], 3))
        pred_zero = None
        if self.zero_head is not None:
            pred_zero = T.reshape(self.zero_head(hidden), (rows.size, self.cfg.ks[0], 3))
        return ReconOutput(pred, pred_zero)

    def loss(self, pyr: ScalePyramid, plan: MaskPlan) -> Tensor:
        """The pack's mean pretraining loss over its clouds."""
        rec = self.reconstruct(pyr, plan)
        total = pretrain_loss(rec.pred, pyr, plan)
        if rec.pred_zero is not None:
            total = T.add(total, pretrain_loss(rec.pred_zero, pyr, plan, zero_scale=True))
        return total


class CloudClassifier(Module):
    """Encoder plus a pooled-feature MLP head for shape classification."""

    def __init__(
        self,
        cfg: ModelConfig,
        n_classes: int,
        head_hidden: tuple[int, ...],
        rng: np.random.Generator,
    ):
        if n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {n_classes}")
        self.cfg = cfg
        self.n_classes = n_classes
        self.encoder = HierarchicalEncoder(cfg, rng)
        widths = (2 * cfg.dims[-1],) + tuple(head_hidden) + (n_classes,)
        self.head = [Linear(a, b, rng) for a, b in zip(widths[:-1], widths[1:])]

    def features(self, pyr: ScalePyramid) -> Tensor:
        """(B, 2*C_S) pooled final-stage features of the pack's whole, unmasked
        clouds, one row per cloud: max-pool next to mean-pool."""
        rng = np.random.default_rng(0)  # a zero mask ratio draws nothing
        top = self.encoder(pyr, mask_and_backproject(pyr, 0.0, rng))[-1]
        b, c = pyr.offsets[-1].size - 1, top.shape[1]
        per_cloud = T.reshape(top, (b, -1, c))  # unmasked, every cloud has N_S rows
        pooled = T.concat([T.amax(per_cloud, axis=1), T.tmean(per_cloud, axis=1)])  # (2B, C)
        # cloud i's max row, then its mean row
        return T.reshape(T.index_select(pooled, np.arange(2 * b).reshape(2, b).T), (b, 2 * c))

    def logits(self, pyr: ScalePyramid) -> Tensor:
        return head_logits(self.head, self.features(pyr))


def head_logits(head: list[Linear], feats: Tensor) -> Tensor:
    """(B, K) logits of a classifier head, its layers with GELU between them,
    on (B, 2*C_S) pooled features. A function of the head alone, so a head
    can train on cached features without its encoder."""
    h = feats
    for layer in head[:-1]:
        h = T.gelu(layer(h))
    return head[-1](h)
