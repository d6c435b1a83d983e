"""Reverse-mode autodiff over dense float64 numpy arrays.

A Tensor wraps an ndarray together with the closure that routes gradients
back to its parents. Every op output takes a creation number, and a node is
always created after its parents, so ``backward()`` on a scalar loss is one
walk that runs the newest node with a gradient first. A node that feeds
several consumers sums their gradients newest consumer first.

``backward()`` consumes the graph: each interior node drops its closure and
its gradient as soon as its closure has run, so the graph's memory is freed
during the pass and an interior ``.grad`` reads None afterwards. A graph
never backed holds nothing outside itself. Leaves (``requires_grad``) keep
their gradients and accumulate them across graphs until ``zero_grad()``.
A consumed node stays readable, and usable under ``no_grad``; backward() on
a consumed root, or recording an op over a consumed node, raises PamrError.

All values are float64 and must be finite; any operation that produces a
NaN or infinity raises NonFiniteError at the point of creation rather than
letting it propagate silently. Gradients of parameters that did not
participate in a loss read back as zeros.
"""
from __future__ import annotations

import contextvars
import heapq
import itertools
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonFiniteError, PamrError, ShapeError

__all__ = [
    "Tensor",
    "constant",
    "param",
    "no_grad",
    "as_tensor",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "reshape",
    "transpose",
    "tsum",
    "tmean",
    "amax",
    "amin",
    "sqrt",
    "sigmoid",
    "gelu",
    "softmax",
    "log_softmax",
    "conv1d_channel",
    "index_select",
    "concat",
    "expand",
    "group_norm",
    "layer_norm",
    "attention",
    "linear",
    "ffn",
]


class _Tape(threading.local):
    grad_enabled = True  # per thread: no_grad() in one thread leaves the others recording


_tape = _Tape()
_creation = itertools.count()

# tanh-form gelu constants
_GELU_K0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_K1 = 0.044715
# variance floor of layer_norm and group_norm
_NORM_EPS = 1e-5


@contextmanager
def no_grad():
    """Suspend graph recording inside the block, on this thread only. Purely a speed knob."""
    prev = _tape.grad_enabled
    _tape.grad_enabled = False
    try:
        yield
    finally:
        _tape.grad_enabled = prev


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {what}")


class Tensor:
    __slots__ = ("data", "requires_grad", "_grad", "_seq", "_bwd", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor data")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._bwd: Callable[[np.ndarray], list[tuple[Tensor, np.ndarray]]] | None = None

    # -- introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def grad(self) -> np.ndarray | None:
        """Accumulated gradient; zeros for a parameter no loss touched."""
        if self._grad is None and self.requires_grad:
            return np.zeros_like(self.data)
        return self._grad

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Copy of the underlying values, detached from the graph."""
        return self.data.copy()

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- gradient machinery ----------------------------------------------

    def zero_grad(self) -> None:
        self._grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add `g` to this leaf's gradient by backward()'s own rule, so a
        graph's leaf gradient backed elsewhere adds in bitwise as if that
        walk had run here."""
        _receive(self, g, [])

    def backward(self) -> None:
        """Accumulate gradients into the leaves, releasing each node as it runs."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        if self._bwd is _consumed:
            raise PamrError(_CONSUMED)
        heap: list[tuple[int, Tensor]] = []
        _receive(self, np.ones_like(self.data), heap)
        while heap:
            # newest first: every consumer of a node was created after it
            node = heapq.heappop(heap)[1]
            for parent, g in node._bwd(node._grad):
                _receive(parent, g, heap)
            node._bwd = _consumed
            node._grad = None


def _receive(node: Tensor, g: np.ndarray, heap: list[tuple[int, Tensor]]) -> None:
    """Add `g` to the gradient of `node`, if it takes one; an interior node
    joins the walk when its first gradient arrives."""
    if node.requires_grad or node._bwd is not None:
        if node._grad is None:
            # a copy in the node's own layout: `g` may alias another node's
            # buffer, and the layout keeps later BLAS calls on the gradient
            # bitwise stable
            buf = np.empty_like(node.data)
            np.copyto(buf, g)
            node._grad = buf
            if node._bwd is not None:
                heapq.heappush(heap, (-node._seq, node))
        else:
            node._grad += g


_CONSUMED = "backward() through a graph that an earlier backward() consumed; run the forward pass again"


def _consumed(g: np.ndarray) -> list[tuple[Tensor, np.ndarray]]:
    """Closure left on a released node: the walk raises if it reaches one."""
    raise PamrError(_CONSUMED)


def as_tensor(x) -> Tensor:
    """`x` itself if it is a Tensor, else a constant holding it as float64."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(
    data: np.ndarray,
    parents: Sequence[Tensor],
    bwd: Callable[[np.ndarray], list[tuple[Tensor, np.ndarray]]],
    what: str,
) -> Tensor:
    _check_finite(data, what)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out._grad = None
    out._seq = next(_creation)
    out._bwd = None
    if _tape.grad_enabled:
        for p in parents:
            if p._bwd is _consumed:
                raise PamrError(_CONSUMED)
            if p.requires_grad or p._bwd is not None:
                out._bwd = bwd
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast up from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g.reshape(shape)


# -- leaf constructors -----------------------------------------------------


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


# -- arithmetic ------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def bwd(g):
        return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape))]

    return _make(out, (a, b), bwd, "add output")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def bwd(g):
        return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape))]

    return _make(out, (a, b), bwd, "sub output")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def bwd(g):
        return [
            (a, _unbroadcast(g * b.data, a.shape)),
            (b, _unbroadcast(g * a.data, b.shape)),
        ]

    return _make(out, (a, b), bwd, "mul output")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def bwd(g):
        return [
            (a, _unbroadcast(g / b.data, a.shape)),
            (b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
        ]

    return _make(out, (a, b), bwd, "div output")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 on both sides, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bwd(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return [(a, _unbroadcast(ga, a.shape)), (b, _unbroadcast(gb, b.shape))]

    return _make(out, (a, b), bwd, "matmul output")


# -- shape movement ----------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def bwd(g):
        return [(a, g.reshape(a.shape))]

    return _make(out, (a,), bwd, "reshape output")


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = a.data.transpose(axes)

    def bwd(g):
        return [(a, g.transpose(inv))]

    return _make(out, (a,), bwd, "transpose output")


def expand(a, shape) -> Tensor:
    """Broadcast to `shape`; the backward pass sums the expansion back."""
    a = as_tensor(a)
    shape = tuple(shape)
    out = np.ascontiguousarray(np.broadcast_to(a.data, shape))

    def bwd(g):
        return [(a, _unbroadcast(g, a.shape))]

    return _make(out, (a,), bwd, "expand output")


def concat(tensors: Iterable[Tensor]) -> Tensor:
    """Join along axis 0."""
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    out = np.concatenate([p.data for p in parts])
    bounds = np.cumsum([0] + [p.shape[0] for p in parts])

    def bwd(g):
        return [(p, g[lo:hi]) for p, lo, hi in zip(parts, bounds[:-1], bounds[1:])]

    return _make(out, parts, bwd, "concat output")


def index_select(a, idx) -> Tensor:
    """Gather rows of `a` along axis 0; `idx` may have any shape.

    Output shape is idx.shape + a.shape[1:]. Repeated indices are fine:
    their gradients accumulate.
    """
    a = as_tensor(a)
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("index_select needs integer indices")
    n = a.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"index out of range for axis of length {n}")
    out = a.data[idx]

    def bwd(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return [(a, buf)]

    return _make(out, (a,), bwd, "index_select output")


# -- reductions --------------------------------------------------------------


def _restore_axes(g: np.ndarray, axis, keepdims: bool, src_shape: tuple[int, ...]) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(src_shape)), src_shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % len(src_shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, src_shape)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        return [(a, _restore_axes(g, axis, keepdims, a.shape).copy())]

    return _make(np.asarray(out), (a,), bwd, "sum output")


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.shape[ax]

    def bwd(g):
        return [(a, _restore_axes(g, axis, keepdims, a.shape) / count)]

    return _make(np.asarray(out), (a,), bwd, "mean output")


def _extreme(a, axis: int, keepdims: bool, biggest: bool) -> Tensor:
    a = as_tensor(a)
    if not isinstance(axis, int):
        raise ShapeError("max/min reduction needs a single integer axis")
    pick = np.argmax(a.data, axis=axis) if biggest else np.argmin(a.data, axis=axis)
    picked = np.take_along_axis(a.data, np.expand_dims(pick, axis), axis)
    out = picked if keepdims else np.squeeze(picked, axis=axis)

    def bwd(g):
        # gradient lands only on the first extremal entry along the axis
        buf = np.zeros_like(a.data)
        ge = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(buf, np.expand_dims(pick, axis), ge, axis)
        return [(a, buf)]

    return _make(out, (a,), bwd, "max output" if biggest else "min output")


def amax(a, axis: int, keepdims: bool = False) -> Tensor:
    return _extreme(a, axis, keepdims, biggest=True)


def amin(a, axis: int, keepdims: bool = False) -> Tensor:
    return _extreme(a, axis, keepdims, biggest=False)


# -- pointwise ---------------------------------------------------------------


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def bwd(g):
        return [(a, g * 0.5 / out)]

    return _make(out, (a,), bwd, "sqrt output")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bwd(g):
        return [(a, g * out * (1.0 - out))]

    return _make(out, (a,), bwd, "sigmoid output")


def _gelu_parts(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """tanh(k0*(x + k1*x^3)) and the gelu 0.5*x*(1 + tanh(...)) of `x`, the
    gelu into `out` if given. The product is taken in place: a large array
    pays for each allocation."""
    t = np.tanh(_GELU_K0 * (x + _GELU_K1 * (x * x * x)))
    act = np.multiply(0.5, x, out=out)
    act *= 1.0 + t
    return t, act


def _gelu_grad(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Input gradient of gelu at `x`, given its tanh `t` and output gradient `g`."""
    d_inner = _GELU_K0 * (1.0 + 3.0 * _GELU_K1 * x * x)
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)


def gelu(a) -> Tensor:
    """tanh-form gelu: 0.5*x*(1 + tanh(k0*(x + k1*x^3)))."""
    a = as_tensor(a)
    t, out = _gelu_parts(a.data)

    def bwd(g):
        return [(a, _gelu_grad(g, a.data, t))]

    return _make(out, (a,), bwd, "gelu output")


# -- normalizing maps --------------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        return [(a, out * (g - (g * out).sum(axis=axis, keepdims=True)))]

    return _make(out, (a,), bwd, "softmax output")


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def bwd(g):
        return [(a, g - np.exp(out) * g.sum(axis=axis, keepdims=True))]

    return _make(out, (a,), bwd, "log_softmax output")


def conv1d_channel(x, kernel) -> Tensor:
    """Slide a 1-d kernel across the channel axis (axis -2) of `x`.

    `x` has shape (..., C, L); the kernel has odd length and the output is
    zero-padded back to C channels, so shape is preserved. E.g. the window-3
    output at channel c is k0*x[c-1] + k1*x[c] + k2*x[c+1], with no bias.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim < 2:
        raise ShapeError(f"conv1d_channel needs (..., C, L) input, got {x.shape}")
    if kernel.ndim != 1 or kernel.shape[0] % 2 != 1:
        raise ShapeError(f"kernel must be 1-d with odd length, got {kernel.shape}")
    lam = kernel.shape[0]
    half = (lam - 1) // 2
    c = x.shape[-2]
    pad_spec = [(0, 0)] * x.ndim
    pad_spec[-2] = (half, half)
    xp = np.pad(x.data, pad_spec)
    out = np.zeros_like(x.data)
    for d in range(lam):
        out += kernel.data[d] * xp[..., d : d + c, :]

    def bwd(g):
        dxp = np.zeros_like(xp)
        dk = np.zeros(lam)
        for d in range(lam):
            dxp[..., d : d + c, :] += kernel.data[d] * g
            dk[d] = (g * xp[..., d : d + c, :]).sum()
        dx = dxp[..., half : half + c, :]
        return [(x, np.ascontiguousarray(dx)), (kernel, dk)]

    return _make(out, (x, kernel), bwd, "conv1d_channel output")


def _standardize(x: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Shift to zero mean and scale to unit (biased) variance over the last
    axis; returns the normalized values and the per-row denominator.

    A non-finite mean or variance raises: an overflowed variance would
    otherwise divide every row down to a finite, all-zero output.
    """
    mu = x.mean(axis=-1, keepdims=True)
    _check_finite(mu, f"{what} mean")
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    _check_finite(var, f"{what} variance")
    denom = np.sqrt(var + _NORM_EPS)
    return centered / denom, denom


def _standardize_grad(g: np.ndarray, normed: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Input gradient of `_standardize` given the gradient `g` of its output."""
    g_centered = (g - normed * (g * normed).mean(axis=-1, keepdims=True)) / denom
    return g_centered - g_centered.mean(axis=-1, keepdims=True)


def group_norm(x, groups: int, scale, shift) -> Tensor:
    """Normalize (..., C, L) over channel groups, then apply per-channel affine.

    Statistics are taken jointly over each group's channels and all L
    positions, so a group with constant values normalizes to zeros.
    """
    x = as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"group_norm needs (..., C, L) input, got {x.shape}")
    c = x.shape[-2]
    if groups < 1 or c % groups != 0:
        raise ShapeError(f"{groups} groups do not divide {c} channels")
    scale, shift = as_tensor(scale), as_tensor(shift)
    if scale.shape != (c,) or shift.shape != (c,):
        raise ShapeError(f"affine params must have shape ({c},)")
    grouped = x.shape[:-2] + (groups, (c // groups) * x.shape[-1])
    normed, denom = _standardize(x.data.reshape(grouped), "group_norm")
    normed = normed.reshape(x.shape)
    col_scale = scale.data.reshape(c, 1)
    out = normed * col_scale + shift.data.reshape(c, 1)

    def bwd(g):
        gx = _standardize_grad((g * col_scale).reshape(grouped), normed.reshape(grouped), denom)
        return [
            (x, gx.reshape(x.shape)),
            (scale, _unbroadcast(g * normed, (c, 1)).reshape(c)),
            (shift, _unbroadcast(g, (c, 1)).reshape(c)),
        ]

    return _make(out, (x, scale, shift), bwd, "group_norm output")


def layer_norm(x, scale, shift) -> Tensor:
    """Normalize over the last axis with per-feature affine parameters."""
    x = as_tensor(x)
    c = x.shape[-1]
    scale, shift = as_tensor(scale), as_tensor(shift)
    if scale.shape != (c,) or shift.shape != (c,):
        raise ShapeError(f"affine params must have shape ({c},)")
    normed, denom = _standardize(x.data, "layer_norm")
    out = normed * scale.data + shift.data

    def bwd(g):
        gx, gscale, gshift = _layer_norm_grads(g, normed, denom, scale.data)
        return [(x, gx), (scale, gscale), (shift, gshift)]

    return _make(out, (x, scale, shift), bwd, "layer_norm output")


def _layer_norm_grads(g: np.ndarray, normed: np.ndarray, denom: np.ndarray, scale: np.ndarray):
    """Gradients of layer_norm's input, scale and shift given its output gradient `g`."""
    return (
        _standardize_grad(g * scale, normed, denom),
        _unbroadcast(g * normed, scale.shape),
        _unbroadcast(g, scale.shape),
    )


# -- fused layers ------------------------------------------------------------


# inner (summed) length of the longest product BLAS gets: OpenBLAS cuts a
# longer one into blocks differently on one thread and on several
_INNER_BLOCK = 256


def _row_sum_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.T @ b over the rows of (R, m) and (R, n), summed _INNER_BLOCK rows
    at a time, so its bits do not depend on the BLAS thread count."""
    out = a[:_INNER_BLOCK].T @ b[:_INNER_BLOCK]
    for lo in range(_INNER_BLOCK, a.shape[0], _INNER_BLOCK):
        out += a[lo : lo + _INNER_BLOCK].T @ b[lo : lo + _INNER_BLOCK]
    return out


def linear(x, weight, bias) -> Tensor:
    """x @ weight + bias over the last axis of `x`, for any leading shape."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if weight.ndim != 2 or bias.shape != weight.shape[1:]:
        raise ShapeError(f"linear needs a 2-d weight and matching bias: {weight.shape}, {bias.shape}")
    fan_in, fan_out = weight.shape
    if x.ndim < 1 or x.shape[-1] != fan_in:
        raise ShapeError(f"linear input {x.shape} does not end in {fan_in} features")
    out = _affine(x.data, weight.data, bias.data)

    def bwd(g):
        gx, gw, gb = _linear_grads(g, x.data, weight.data)
        return [(x, gx), (weight, gw), (bias, gb)]

    return _make(out, (x, weight, bias), bwd, "linear output")


def _affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x @ weight + bias over the last axis of `x`, by rows (`_halves`)."""
    out = np.empty(x.shape[:-1] + weight.shape[1:])

    def rows(s: slice) -> None:
        o = out[s]
        np.matmul(x[s], weight, out=o)
        o += bias

    _halves(rows, len(x) if x.ndim > 1 else 1, x.size * weight.shape[1])
    return out


def _linear_grads(g: np.ndarray, x: np.ndarray, weight: np.ndarray):
    """Gradients of linear's input, weight and bias given its output gradient
    `g`; a large input gradient runs on the helper thread (`_pair`), into an
    array made here, while the weight and bias gradients run here."""
    fan_in, fan_out = weight.shape

    def weight_and_bias_grads() -> tuple[np.ndarray, np.ndarray]:
        return _row_sum_product(x.reshape(-1, fan_in), g.reshape(-1, fan_out)), _unbroadcast(g, (fan_out,))

    if g.size * fan_in < _PAIR_MNK:
        return (g @ weight.T, *weight_and_bias_grads())
    gx = np.empty(g.shape[:-1] + (fan_in,))
    _, (gw, gb) = _pair(lambda: np.matmul(g, weight.T, out=gx), weight_and_bias_grads)
    return gx, gw, gb


def ffn(x, ln_scale, ln_shift, w1, b1, w2, b2) -> Tensor:
    """Pre-norm feed-forward with its residual, as one op:
    x + linear(gelu(linear(layer_norm(x), w1, b1)), w2, b2).

    The forward runs the chain's arithmetic in its order and checks every
    value the chain checked, so its output and its errors are the chain's;
    a large one runs each stage between two checks in row halves (`_halves`).
    The graph keeps `x`, the standardized rows with their denominators and
    fc1's pre-activation; backward recomputes the layer-norm output, tanh and
    the gelu output. It hands `x` the residual gradient before the layer-norm
    one, in the order the chain's tape did, so every gradient is bitwise the
    chain's.
    """
    parents = tuple(as_tensor(t) for t in (x, ln_scale, ln_shift, w1, b1, w2, b2))
    x, ln_scale, ln_shift, w1, b1, w2, b2 = parents
    c = x.shape[-1] if x.ndim else -1
    h = w1.shape[-1] if w1.ndim else -1
    shapes = tuple(t.shape for t in parents[1:])
    if shapes != ((c,), (c,), (c, h), (h,), (h, c), (c,)):
        raise ShapeError(
            f"ffn needs (..., C) input and (C,), (C,), (C, H), (H,), (H, C), (C,) params: "
            f"{x.shape}, {shapes}"
        )
    normed, denom = _standardize(x.data, "layer_norm")
    ln = normed * ln_scale.data + ln_shift.data
    _check_finite(ln, "layer_norm output")
    pre = _affine(ln, w1.data, b1.data)
    _check_finite(pre, "linear output")
    act = np.empty_like(pre)
    _halves(lambda s: _gelu_parts(pre[s], act[s]), len(pre) if pre.ndim > 1 else 1, pre.size * c)
    _check_finite(act, "gelu output")
    y = _affine(act, w2.data, b2.data)
    _check_finite(y, "linear output")
    out = x.data + y

    def bwd(g):
        t, act = _gelu_parts(pre)
        g_act, g_w2, g_b2 = _linear_grads(g, act, w2.data)
        ln = normed * ln_scale.data + ln_shift.data
        g_ln, g_w1, g_b1 = _linear_grads(_gelu_grad(g_act, pre, t), ln, w1.data)
        gx, g_scale, g_shift = _layer_norm_grads(g_ln, normed, denom, ln_scale.data)
        return [
            (x, g),
            (w2, g_w2),
            (b2, g_b2),
            (w1, g_w1),
            (b1, g_b1),
            (ln_scale, g_scale),
            (ln_shift, g_shift),
            (x, gx),
        ]

    return _make(out, parents, bwd, "add output")


# OpenBLAS runs a product of at most this many multiply-adds (M*N*K) on one thread
_ONE_THREAD_MNK = 4 * 65536

# A kernel of at least this many multiply-adds hands half its work to the
# helper thread (`_pair`): the default config's big products, each worth
# well over the cost of a hand-off. Every desk-scale kernel stays below it
# (the largest, a few-shot head scoring 80 clouds, is about 2**20), so desk
# runs never start the helper.
_PAIR_MNK = 1 << 22

_helper = None  # the helper thread's ThreadPoolExecutor, started by the first `_pair`
_helper_lock = threading.Lock()


def _pair(f: Callable, g: Callable) -> tuple:
    """(f(), g()), with f on the helper thread while g runs here.

    f runs in a copy of this thread's context, which holds numpy's errstate,
    so both halves of a kernel warn or stay silent alike. The helper runs
    numpy kernels only: it makes no Tensor and checks nothing, so every
    check and every error stays on the calling thread. An error of f is
    raised here, after g has finished, ahead of any error of g."""
    global _helper
    with _helper_lock:
        if _helper is None:
            # here: importing concurrent.futures costs every process a few ms
            from concurrent.futures import ThreadPoolExecutor

            _helper = ThreadPoolExecutor(1, thread_name_prefix="pamr-helper")
        done = _helper.submit(contextvars.copy_context().run, f)
    try:
        second = g()
    finally:
        first = done.result()
    return first, second


def _halves(fn: Callable[[slice], object], n: int, mnk: int) -> None:
    """fn over a leading axis of length `n`, for a kernel of `mnk`
    multiply-adds: whole, as fn(slice(None)) here, below _PAIR_MNK; at or
    above it, over the axis's two halves, the first on the helper thread.
    fn writes its part of arrays made by the caller, by the arithmetic of
    the whole kernel, so the bits do not depend on the split."""
    if n < 2 or mnk < _PAIR_MNK:
        fn(slice(None))
    else:
        _pair(lambda: fn(slice(0, n // 2)), lambda: fn(slice(n // 2, n)))


def _one_thread_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Stacked a @ b of (h, m, k) and (h, k, n) into `out`, in row blocks
    small enough that BLAS runs each on one thread. Each may be a row slice
    of a contiguous array, which BLAS reads as it would a copy."""
    _, m, k = a.shape
    n = b.shape[2]
    rows = max(1, _ONE_THREAD_MNK // (n * k))
    if rows >= m:
        np.matmul(a, b, out=out)
        return
    for lo in range(0, m, rows):
        np.matmul(a[:, lo : lo + rows], b, out=out[:, lo : lo + rows])


def attention(q, k, v, heads: int, offsets: Sequence[int]) -> Tensor:
    """Multi-head scaled dot-product attention over (N, C) token rows.

    `offsets` (integers, 0 first, N last, strictly increasing) cut the rows
    into segments, one per cloud of a pack; a segment attends only to
    itself, by the arithmetic it would get alone. One sequence is `(0, N)`.
    Each head takes its own C/heads channels of q, k and v and computes
    softmax(q k^T / sqrt(C/heads)) v; the head outputs are concatenated
    back to (N, C) in head order. Every stacked product reads row slices of
    one contiguous head split per operand, made once per pack (K and V are
    transposed by copy, not by view, which keeps the bits), in row blocks
    BLAS runs on one thread, so its bits do not depend on the BLAS thread
    count. The scores, the softmax and the backward each run as one
    `_halves` call that loops over the segments, so the split is decided
    per op: when all segments' scores together take at least _PAIR_MNK
    multiply-adds, half of every segment's heads run on the helper thread.
    Every segment's scores are checked, here, before any softmax.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention needs equal (N, C) q, k, v: {q.shape}, {k.shape}, {v.shape}")
    n, c = q.shape
    if heads < 1 or c % heads != 0:
        raise ShapeError(f"{heads} heads do not divide {c} channels")
    bounds = np.asarray(offsets)
    if (
        not np.issubdtype(bounds.dtype, np.integer) or bounds.ndim != 1 or bounds.size < 2
        or bounds[0] != 0 or bounds[-1] != n or np.any(bounds[1:] <= bounds[:-1])
    ):
        raise ShapeError(f"segment offsets must rise strictly from 0 to {n} as integers, got {bounds.tolist()}")
    dh = c // heads
    temp = 1.0 / np.sqrt(dh)

    def split(t: np.ndarray) -> np.ndarray:  # (n, C) -> contiguous (heads, n, dh)
        return np.ascontiguousarray(t.reshape(n, heads, dh).transpose(1, 0, 2))

    def swap(t: np.ndarray) -> np.ndarray:  # contiguous transpose of the last two axes
        return np.ascontiguousarray(t.transpose(0, 2, 1))

    def merge(t: np.ndarray) -> np.ndarray:  # (heads, n, dh) -> (n, C)
        return t.transpose(1, 0, 2).reshape(n, c)

    segments = [slice(lo, hi) for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    mnk = sum((r.stop - r.start) ** 2 for r in segments) * c  # the scores' multiply-adds
    qh, kt, vh = split(q.data), swap(split(k.data)), split(v.data)
    out = np.empty((heads, n, dh))
    # each segment's scores, then its weights in place
    weights = [np.empty((heads, r.stop - r.start, r.stop - r.start)) for r in segments]

    def score(s: slice) -> None:
        for r, w in zip(segments, weights):
            ws = w[s]
            _one_thread_matmul(qh[s, r], kt[s, :, r], ws)
            ws *= temp

    def attend(s: slice) -> None:
        for r, w in zip(segments, weights):
            ws = w[s]
            ws -= ws.max(axis=-1, keepdims=True)
            np.exp(ws, out=ws)
            ws /= ws.sum(axis=-1, keepdims=True)
            _one_thread_matmul(ws, vh[s, r], out[s, r])

    _halves(score, heads, mnk)
    for w in weights:
        _check_finite(w, "attention scores")
    _halves(attend, heads, mnk)

    def bwd(g):
        # the head splits again, not kept: they would double the pack's q, k
        # and v. Made here with every (heads, n, n) array, so the helper
        # allocates none
        qh, kh, vt, gh = split(q.data), split(k.data), swap(split(v.data)), split(g)
        gq, gk, gv = np.empty((heads, n, dh)), np.empty((heads, n, dh)), np.empty((heads, n, dh))
        parts = [(r, w, np.empty_like(w), np.empty_like(w)) for r, w in zip(segments, weights)]

        def back(s: slice) -> None:
            for r, w, gw, scratch in parts:
                ws, gs, t = w[s], gw[s], scratch[s]
                _one_thread_matmul(gh[s, r], vt[s, :, r], gs)  # the weights' gradient, then the scores'
                gs -= np.multiply(gs, ws, out=t).sum(axis=-1, keepdims=True)
                np.multiply(ws, gs, out=gs)
                gs *= temp
                _one_thread_matmul(gs, kh[s, r], gq[s, r])
                t[...] = gs.transpose(0, 2, 1)
                _one_thread_matmul(t, qh[s, r], gk[s, r])
                t[...] = ws.transpose(0, 2, 1)
                _one_thread_matmul(t, gh[s, r], gv[s, r])

        _halves(back, heads, mnk)
        return [(q, merge(gq)), (k, merge(gk)), (v, merge(gv))]

    return _make(merge(out), (q, k, v), bwd, "attention output")
