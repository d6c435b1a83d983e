"""Token embedding: the gated channel-attention module, the patch tokenizer,
inter-scale token merging, and positional embeddings.

The attention gate is the distinctive piece: per-channel descriptors from
average and max pooling each pass a channel-axis convolution, group norm,
and sigmoid; the two gates are summed and multiplied back into the input.
Both branches start at zero weights, which makes the whole module an exact
identity at initialization (each gate is sigmoid(0) = 0.5).
"""
from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .nn import Linear, Module
from .tensor import Tensor

__all__ = [
    "LocalAttentionGate",
    "PatchTokenizer",
    "TokenMerger",
    "PositionEmbedding",
    "fit_groups",
]


def fit_groups(channels: int, requested: int) -> int:
    """The greatest common divisor of `channels` and the requested group count.

    A divisor of both, so every layer width reuses the one configured
    setting; not always the largest divisor of `channels` within the request
    (48 channels at 32 groups give 16, not 24).
    """
    return math.gcd(channels, requested)


class LocalAttentionGate(Module):
    """Two-branch channel gate on (..., C, L) feature maps.

    Each branch pools over the trailing (neighbor) axis, convolves the
    resulting C-vector across channels with a window of odd size, group
    normalizes, and squashes through a sigmoid. The branch gates are summed,
    so the total gate lies in (0, 2). Either branch can be disabled, not
    both (a ConfigError): a model without the gate bypasses the module.
    """

    def __init__(
        self,
        channels: int,
        window: int,
        groups: int,
        avg_branch: bool = True,
        max_branch: bool = True,
    ):
        if window < 1 or window % 2 != 1:
            raise ConfigError(f"window size must be odd and positive, got {window}")
        if groups < 1 or channels % groups != 0:
            raise ConfigError(f"{groups} groups do not divide {channels} channels")
        if not (avg_branch or max_branch):
            raise ConfigError("the gate needs its average or its max branch")
        self.channels = channels
        self.groups = groups
        self.avg_branch = bool(avg_branch)
        self.max_branch = bool(max_branch)
        self.avg_kernel = T.param(np.zeros(window))
        self.avg_scale = T.param(np.ones(channels))
        self.avg_shift = T.param(np.zeros(channels))
        self.max_kernel = T.param(np.zeros(window))
        self.max_scale = T.param(np.ones(channels))
        self.max_shift = T.param(np.zeros(channels))

    def _gate(self, desc: Tensor, kernel: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
        """One branch's gate map from its pooled (..., C, 1) descriptor."""
        h = T.conv1d_channel(desc, kernel)
        return T.sigmoid(T.group_norm(h, self.groups, scale, shift))

    def gates(self, x: Tensor) -> tuple[Tensor | None, Tensor | None]:
        """The per-branch gate maps, None for a disabled branch."""
        if x.ndim < 2 or x.shape[-2] != self.channels:
            raise ShapeError(f"expected (..., {self.channels}, L) input, got {x.shape}")
        wx = wy = None
        if self.avg_branch:
            wx = self._gate(T.tmean(x, axis=-1, keepdims=True), self.avg_kernel, self.avg_scale, self.avg_shift)
        if self.max_branch:
            wy = self._gate(T.amax(x, axis=-1, keepdims=True), self.max_kernel, self.max_scale, self.max_shift)
        return wx, wy

    def forward(self, x: Tensor) -> Tensor:
        wx, wy = self.gates(x)
        gate = wx if wy is None else wy if wx is None else T.add(wx, wy)
        return T.mul(x, gate)


class PatchTokenizer(Module):
    """Shared pointwise MLP over patch points with a gate after each stage,
    max-pooled into one permutation-invariant token per patch.

    Widths run 3 -> dim/2 -> dim. `la_enabled=False` drops the gates
    entirely (the "module removed" ablation row).
    """

    def __init__(
        self,
        dim: int,
        window: int,
        groups: int,
        rng: np.random.Generator,
        la_enabled: bool = True,
        avg_branch: bool = True,
        max_branch: bool = True,
    ):
        if dim % 2 != 0:
            raise ConfigError(f"token dim must be even, got {dim}")
        half = dim // 2
        self.conv_a = Linear(3, half, rng)
        self.conv_b = Linear(half, dim, rng)
        self.la_enabled = bool(la_enabled)
        if self.la_enabled:
            self.gate_a = LocalAttentionGate(
                half, window, fit_groups(half, groups), avg_branch, max_branch
            )
            self.gate_b = LocalAttentionGate(
                dim, window, fit_groups(dim, groups), avg_branch, max_branch
            )

    def forward(self, patches) -> Tensor:
        x = T.as_tensor(patches)
        if x.ndim != 3 or x.shape[2] != 3:
            raise ShapeError(f"patches must have shape (N, k, 3), got {x.shape}")
        h = self.conv_a(x)  # (N, k, half)
        h = T.transpose(h, (0, 2, 1))  # channels to axis -2 for the gate
        if self.la_enabled:
            h = self.gate_a(h)
        h = self.conv_b(T.transpose(h, (0, 2, 1)))  # (N, k, dim)
        h = T.transpose(h, (0, 2, 1))
        if self.la_enabled:
            h = self.gate_b(h)
        return T.amax(h, axis=2)  # pool over the neighbor axis


class TokenMerger(Module):
    """Aggregate k finer-scale tokens per coarse center: MLP then max-pool."""

    def __init__(self, dim_in: int, dim_out: int, rng: np.random.Generator):
        self.lift = Linear(dim_in, dim_out, rng)
        self.mix = Linear(dim_out, dim_out, rng)

    def forward(self, tokens: Tensor, rows: np.ndarray) -> Tensor:
        """`rows` holds positions into `tokens` with shape (n_coarse, k)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            raise ShapeError(f"gather rows must be 2-d, got shape {rows.shape}")
        g = T.index_select(tokens, rows)  # (n_coarse, k, dim_in)
        h = self.mix(T.gelu(self.lift(g)))
        return T.amax(h, axis=1)


class PositionEmbedding(Module):
    """Two-layer MLP of raw coordinates, added to tokens before each stage.

    Initialized much wider than the other layers on purpose: coordinates sit
    in [-1, 1] after normalization, and at the usual 0.02 scale the embedding
    is visible only after hundreds of steps. The decoder tells co-located
    mask tokens apart solely through this signal, so it has to carry weight
    from the first forward pass.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        self.lift = Linear(3, dim, rng, std=0.6)
        self.mix = Linear(dim, dim, rng, std=0.6)

    def forward(self, coords) -> Tensor:
        x = T.as_tensor(coords)
        if x.ndim != 2 or x.shape[1] != 3:
            raise ShapeError(f"coords must have shape (N, 3), got {x.shape}")
        return self.mix(T.gelu(self.lift(x)))
