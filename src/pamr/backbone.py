"""Hierarchical transformer over the scale pyramid.

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
    visible_positions,
)
from .nn import LayerNorm, Linear, Module
from .tensor import Tensor

__all__ = [
    "MultiHeadAttention",
    "TransformerBlock",
    "StageTokens",
    "HierarchicalEncoder",
    "TokenPropagator",
    "DecoderOutput",
    "HierarchicalDecoder",
    "MaskedAutoencoder",
    "CloudClassifier",
    "pretrain_loss",
]


class MultiHeadAttention(Module):
    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ConfigError(f"dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def _heads_first(self, t: Tensor) -> Tensor:
        n, c = t.shape
        return T.transpose(T.reshape(t, (n, self.heads, c // self.heads)), (1, 0, 2))

    def _weights(self, x: Tensor) -> Tensor:
        """(heads, N, N) softmax of the scaled query-key scores."""
        q = self._heads_first(self.wq(x))
        k = self._heads_first(self.wk(x))
        scores = T.mul(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(q.shape[2]))
        return T.softmax(scores, axis=-1)

    def forward(self, x: Tensor) -> Tensor:
        n, c = x.shape
        out = T.matmul(self._weights(x), self._heads_first(self.wv(x)))  # (h, n, dh)
        out = T.reshape(T.transpose(out, (1, 0, 2)), (n, c))
        return self.wo(out)

    def attention_weights(self, x: Tensor) -> np.ndarray:
        """(heads, N, N) softmax weights, for inspection only."""
        with T.no_grad():
            return self._weights(x).numpy()


class TransformerBlock(Module):
    """Pre-norm attention and FFN, both with residuals; 4x FFN expansion."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, heads, rng)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, 4 * dim, rng)
        self.fc2 = Linear(4 * dim, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        x = T.add(x, self.attn(self.ln1(x)))
        return T.add(x, self.fc2(T.gelu(self.fc1(self.ln2(x)))))


@dataclass
class StageTokens:
    """One encoder stage's output: tokens with their centers and indices."""

    tokens: Tensor
    coords: np.ndarray
    index: np.ndarray


class HierarchicalEncoder(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        cfg.validate()
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

    def forward(self, pyramid: ScalePyramid, plan: MaskPlan) -> list[StageTokens]:
        if pyramid.num_scales != self.num_scales:
            raise ShapeError(
                f"pyramid has {pyramid.num_scales} scales, model expects {self.num_scales}"
            )
        for scale in range(1, self.num_scales + 1):
            if plan.visible[scale].size == 0:
                raise ConfigError(f"no visible centers at scale {scale}; lower the mask ratio")
        outs: list[StageTokens] = []
        x = self.tokenizer(gather_patches(pyramid, 1, plan.visible[1]))
        for i in range(self.num_scales):
            scale = i + 1
            vis = plan.visible[scale]
            coords = pyramid.points[scale][vis]
            if i > 0:
                # patch rows index the scale below; all of them are visible
                # by the nesting invariant, or visible_positions raises
                rows = pyramid.neighbors[i][vis]
                rows = visible_positions(plan.visible[scale - 1], rows.ravel()).reshape(rows.shape)
                x = self.mergers[i - 1](x, rows)
            x = T.add(x, self.pos[i](coords))
            for block in self.stages[i]:
                x = block(x)
            x = self.norms[i](x)
            outs.append(StageTokens(x, coords, vis.copy()))
        return outs


class TokenPropagator(Module):
    """Spread coarse tokens onto fine positions, then project the width."""

    def __init__(self, dim_in: int, dim_out: int, rng: np.random.Generator):
        self.proj = Linear(dim_in, dim_out, rng)

    def forward(
        self,
        tokens: Tensor,
        coarse_coords: np.ndarray,
        fine_coords: np.ndarray,
        k: int,
    ) -> Tensor:
        n_coarse = coarse_coords.shape[0]
        if tokens.shape[0] != n_coarse:
            raise ShapeError(f"{tokens.shape[0]} tokens for {n_coarse} coarse positions")
        if n_coarse < 1:
            raise ShapeError("cannot propagate from an empty coarse set")
        idx, weights = self.interpolation_weights(coarse_coords, fine_coords, k)
        gathered = T.index_select(tokens, idx)  # (n_fine, k_eff, dim_in)
        mixed = T.tsum(T.mul(gathered, weights[:, :, None]), axis=1)
        return self.proj(mixed)

    @staticmethod
    def interpolation_weights(
        coarse_coords: np.ndarray, fine_coords: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """kNN indices into the coarse set and their inverse-distance weights,
        convex per fine point; the pair forward() mixes tokens with."""
        k_eff = min(k, coarse_coords.shape[0])
        idx = knn(fine_coords, coarse_coords, k_eff)
        diff = fine_coords[:, None, :] - coarse_coords[idx]
        dist = np.maximum(np.sqrt((diff * diff).sum(axis=2)), 1e-8)
        inv = 1.0 / dist
        return idx, inv / inv.sum(axis=1, keepdims=True)


@dataclass
class DecoderOutput:
    """Scale-2 decoder tokens for every position, plus the visibility split."""

    tokens: Tensor
    coords: np.ndarray
    visible_idx: np.ndarray
    masked_idx: np.ndarray


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

    def forward(
        self, stage_outputs: list[StageTokens], pyramid: ScalePyramid, plan: MaskPlan
    ) -> DecoderOutput:
        s = pyramid.num_scales
        top = stage_outputs[-1]
        vis, msk = plan.visible[s], plan.masked[s]
        dim_top = self.mask_token.shape[0]
        # rebuild the full coarsest sequence: visible tokens in their slots,
        # the shared mask token everywhere else
        if msk.size:
            fill = T.expand(T.reshape(self.mask_token, (1, dim_top)), (msk.size, dim_top))
            stacked = T.concat([top.tokens, fill], axis=0)
        else:
            stacked = top.tokens
        order = np.concatenate([vis, msk])
        x = T.index_select(stacked, np.argsort(order))
        prev_coords = pyramid.points[s]
        for j, sc in enumerate(self.scales):
            full_coords = pyramid.points[sc]
            if j > 0:
                x = self.props[j - 1](x, prev_coords, full_coords, self.interp_k)
            x = T.add(x, self.pos[j](full_coords))
            for block in self.stages[j]:
                x = block(x)
            prev_coords = full_coords
        x = self.final_norm(x)
        return DecoderOutput(
            tokens=x,
            coords=pyramid.points[2],
            visible_idx=plan.visible[2],
            masked_idx=plan.masked[2],
        )


def pretrain_loss(
    pred: Tensor, pyramid: ScalePyramid, plan: MaskPlan, zero_scale: bool = False
) -> Tensor:
    """Mean chamfer between predicted and true center-relative patches of the
    masked scale-2 centers.

    The target is each center's scale-2 patch, or with `zero_scale` its
    raw-point neighborhood: the scale-1 patch of the same point, which fps
    carried up from scale 1 unchanged.
    """
    msk = plan.masked[2]
    if msk.size == 0:
        raise ConfigError("no masked scale-2 centers: mask ratio too small to pretrain")
    scale, centers = (1, pyramid.sample_idx[1][msk]) if zero_scale else (2, msk)
    k = pyramid.neighbors[scale - 1].shape[1]
    if pred.shape != (msk.size, k, 3):
        raise ShapeError(f"predictions must have shape ({msk.size}, {k}, 3), got {pred.shape}")
    return chamfer_l2_batched(pred, gather_patches(pyramid, scale, centers))


@dataclass
class ReconOutput:
    pred: Tensor  # (M, k_2, 3) relative to each masked scale-2 center
    pred_zero: Tensor | None
    masked_idx: np.ndarray
    stage_outputs: list[StageTokens]
    decoder: DecoderOutput


class MaskedAutoencoder(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self.encoder = HierarchicalEncoder(cfg, rng)
        self.decoder = HierarchicalDecoder(cfg, rng)
        self.recon_head = Linear(cfg.dims[1], cfg.ks[1] * 3, rng)
        self.zero_head = (
            Linear(cfg.dims[1], cfg.ks[0] * 3, rng) if cfg.zero_scale_head else None
        )

    def reconstruct(self, pyramid: ScalePyramid, plan: MaskPlan) -> ReconOutput:
        stages = self.encoder(pyramid, plan)
        dec = self.decoder(stages, pyramid, plan)
        msk = dec.masked_idx
        if msk.size == 0:
            raise ConfigError("no masked scale-2 centers: nothing to reconstruct")
        hidden = T.index_select(dec.tokens, msk)
        pred = T.reshape(self.recon_head(hidden), (msk.size, self.cfg.ks[1], 3))
        pred_zero = None
        if self.zero_head is not None:
            pred_zero = T.reshape(self.zero_head(hidden), (msk.size, self.cfg.ks[0], 3))
        return ReconOutput(pred, pred_zero, msk, stages, dec)

    def loss(self, pyramid: ScalePyramid, plan: MaskPlan) -> Tensor:
        rec = self.reconstruct(pyramid, plan)
        total = pretrain_loss(rec.pred, pyramid, plan)
        if rec.pred_zero is not None:
            total = T.add(total, pretrain_loss(rec.pred_zero, pyramid, plan, zero_scale=True))
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

    def features(self, pyramid: ScalePyramid) -> Tensor:
        """(1, 2*C_S) pooled final-stage features of the whole, unmasked cloud:
        max-pool next to mean-pool."""
        all_visible = mask_and_backproject(pyramid, 0.0, np.random.default_rng(0))
        stages = self.encoder(pyramid, all_visible)
        top = stages[-1].tokens
        pooled = T.concat([T.amax(top, axis=0), T.tmean(top, axis=0)], axis=0)
        return T.reshape(pooled, (1, pooled.shape[0]))

    def logits_from_features(self, feats: Tensor) -> Tensor:
        h = feats
        for layer in self.head[:-1]:
            h = T.gelu(layer(h))
        return self.head[-1](h)

    def logits(self, pyramid: ScalePyramid) -> Tensor:
        return self.logits_from_features(self.features(pyramid))
