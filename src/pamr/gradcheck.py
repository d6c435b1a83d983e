"""Finite-difference verification of the autodiff engine.

`finite_diff_check` compares analytic gradients against central differences
for an arbitrary closure over named parameters. `op_gradient_suite` runs a
fixed battery covering every differentiable op, each scalarized through a
random weighted sum so that no gradient is structurally zero (summing a
softmax directly, for instance, would hide errors).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from . import tensor as T
from .errors import GradCheckError
from .tensor import Tensor

__all__ = [
    "GradCheckEntry",
    "GradCheckReport",
    "finite_diff_check",
    "op_gradient_suite",
    "pipeline_gradient_check",
]

# central-difference step of every check
_H = 1e-5
# entries per parameter the pipeline check perturbs, and its mask ratio
_PIPELINE_SAMPLE, _PIPELINE_MASK_RATIO = 1, 0.6


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    worst_index: tuple[int, ...]
    analytic: float
    numeric: float
    checked: int


@dataclass
class GradCheckReport:
    tol: float
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_rel_err < self.tol

    def summary(self) -> str:
        lines = [f"gradcheck: max rel err {self.max_rel_err:.3e} (tol {self.tol:.1e})"]
        for e in sorted(self.entries, key=lambda e: -e.max_rel_err):
            mark = "FAIL" if e.max_rel_err >= self.tol else "ok"
            lines.append(
                f"  [{mark}] {e.name}: {e.max_rel_err:.3e} at {e.worst_index} "
                f"(analytic {e.analytic:.6e}, numeric {e.numeric:.6e}, {e.checked} entries)"
            )
        return "\n".join(lines)


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    tol: float = 1e-4,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare backward() against central differences for each param entry.

    `f` must rebuild its graph from the live param tensors on every call and
    return a scalar. Relative error uses |a - n| / max(|a|, |n|, 1e-6).
    When `sample` is given, at most that many entries per parameter are
    perturbed (chosen by `rng`), which keeps large checks affordable.
    """
    with T.no_grad():
        base = f().item()
        again = f().item()
    if base != again:
        raise GradCheckError(
            f"function is not deterministic: {base!r} vs {again!r} on repeat evaluation"
        )

    for p in params.values():
        p.zero_grad()
    loss = f()
    loss.backward()
    analytic = {name: np.array(p.grad, copy=True) for name, p in params.items()}

    report = GradCheckReport(tol=tol)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if sample is not None and sample < n:
            if rng is None:
                rng = np.random.default_rng(0)
            picks = np.sort(rng.choice(n, size=sample, replace=False))
        else:
            picks = np.arange(n)
        worst = GradCheckEntry(name, -1.0, (), 0.0, 0.0, len(picks))
        a_flat = analytic[name].reshape(-1)
        for i in picks:
            keep = flat[i]
            flat[i] = keep + _H
            with T.no_grad():
                up = f().item()
            flat[i] = keep - _H
            with T.no_grad():
                down = f().item()
            flat[i] = keep
            numeric = (up - down) / (2.0 * _H)
            a = a_flat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            if rel > worst.max_rel_err:
                worst.max_rel_err = rel
                worst.worst_index = tuple(int(v) for v in np.unravel_index(i, p.shape))
                worst.analytic = float(a)
                worst.numeric = float(numeric)
        report.entries.append(worst)
    return report


def op_gradient_suite(seed: int = 0, tol: float = 1e-4) -> dict[str, GradCheckReport]:
    """Run the per-op finite-difference battery; returns name -> report."""
    rng = np.random.default_rng(seed)

    def pos(shape):
        return T.param(np.abs(rng.normal(size=shape)) + 0.5)

    def any_(shape):
        return T.param(rng.normal(size=shape))

    reports: dict[str, GradCheckReport] = {}

    def run(name: str, params: dict[str, Tensor], build: Callable[[], Tensor]) -> None:
        # scalarize through a weight frozen at the first call so repeated
        # evaluations stay deterministic and no gradient is structurally zero
        weight: list[Tensor] = []

        def f() -> Tensor:
            out = build()
            if not weight:
                weight.append(T.constant(rng.normal(size=out.shape)))
            return T.tsum(T.mul(out, weight[0]))

        reports[name] = finite_diff_check(f, params, tol=tol)

    a, b = any_((3, 4)), any_((3, 4))
    run("add", {"a": a, "b": b}, lambda: T.add(a, b))
    run("sub", {"a": a, "b": b}, lambda: T.sub(a, b))
    run("mul", {"a": a, "b": b}, lambda: T.mul(a, b))
    d = pos((3, 4))
    run("div", {"a": a, "d": d}, lambda: T.div(a, d))

    row = any_((1, 4))
    run("add_broadcast", {"a": a, "row": row}, lambda: T.add(a, row))
    run("mul_broadcast", {"a": a, "row": row}, lambda: T.mul(a, row))

    m1, m2 = any_((3, 4)), any_((4, 5))
    run("matmul", {"m1": m1, "m2": m2}, lambda: T.matmul(m1, m2))
    b1, b2 = any_((2, 3, 4)), any_((2, 4, 5))
    run("matmul_batched", {"b1": b1, "b2": b2}, lambda: T.matmul(b1, b2))
    shared = any_((4, 5))
    run("matmul_broadcast", {"b1": b1, "shared": shared}, lambda: T.matmul(b1, shared))

    x = any_((2, 3, 4))
    run("reshape", {"x": x}, lambda: T.reshape(x, (6, 4)))
    run("transpose", {"x": x}, lambda: T.transpose(x, (2, 0, 1)))
    run("expand", {"row": row}, lambda: T.expand(row, (5, 4)))

    run("tsum", {"x": x}, lambda: T.tsum(x))
    run("tsum_axis", {"x": x}, lambda: T.tsum(x, axis=1))
    run("tmean_axis", {"x": x}, lambda: T.tmean(x, axis=(0, 2)))
    run("amax", {"x": x}, lambda: T.amax(x, axis=1))
    run("amin", {"x": x}, lambda: T.amin(x, axis=2))

    p = pos((3, 4))
    run("sqrt", {"p": p}, lambda: T.sqrt(p))
    run("sigmoid", {"x": x}, lambda: T.sigmoid(x))
    run("gelu", {"x": x}, lambda: T.gelu(x))

    run("softmax", {"x": x}, lambda: T.softmax(x, axis=-1))
    run("log_softmax", {"x": x}, lambda: T.log_softmax(x, axis=-1))

    xc = any_((2, 6, 5))
    k = any_((3,))
    run("conv1d_channel", {"xc": xc, "k": k}, lambda: T.conv1d_channel(xc, k))

    gs, gb = any_((6,)), any_((6,))
    run("group_norm", {"xc": xc, "gs": gs, "gb": gb}, lambda: T.group_norm(xc, 3, gs, gb))
    ls, lb = any_((4,)), any_((4,))
    run("layer_norm", {"x": x, "ls": ls, "lb": lb}, lambda: T.layer_norm(x, ls, lb))

    src = any_((5, 4))
    idx = np.array([[0, 2], [4, 2]])
    run("index_select", {"src": src}, lambda: T.index_select(src, idx))

    c1, c2 = any_((2, 4)), any_((3, 4))
    run("concat", {"c1": c1, "c2": c2}, lambda: T.concat([c1, c2]))

    lw, lbias = any_((4, 5)), any_((5,))
    run("linear", {"x": x, "lw": lw, "lbias": lbias}, lambda: T.linear(x, lw, lbias))
    # two segments of unequal length: a gradient may not cross between them
    q, k, v = any_((5, 6)), any_((5, 6)), any_((5, 6))
    run("attention", {"q": q, "k": k, "v": v}, lambda: T.attention(q, k, v, 2, (0, 2, 5)))
    fs, fb, f1, fb1, f2, fb2 = any_((4,)), any_((4,)), any_((4, 8)), any_((8,)), any_((8, 4)), any_((4,))
    ffn_params = {"x": x, "fs": fs, "fb": fb, "f1": f1, "fb1": fb1, "f2": f2, "fb2": fb2}
    run("ffn", ffn_params, lambda: T.ffn(x, fs, fb, f1, fb1, f2, fb2))

    return reports


def pipeline_gradient_check(seed: int = 0, tol: float = 1e-3) -> GradCheckReport:
    """Finite-difference the full masked-reconstruction loss on a small model.

    Checks `_PIPELINE_SAMPLE` entries of every parameter against central
    differences on a pack of two fixed clouds whose visible counts differ, so
    a gradient that leaks between the clouds' segments shows. Each parameter
    of the model (tiny, two gate groups) is moved off its init by a 0.1-std
    normal, so few gradients sit below the relative-error floor. The looser
    tolerance absorbs the roundoff chain through the whole model and loss.
    """
    # imported here so the op battery stays usable without the model stack
    from .backbone import MaskedAutoencoder
    from .config import ModelConfig
    from .geometry import mask_and_backproject, stack_pack
    from .training import cloud_pyramids

    rng = np.random.default_rng(seed)
    cfg = replace(ModelConfig.tiny(), la_groups=2)
    pyramids, plans = [], []
    while len(plans) < 2:
        pyr = cloud_pyramids([rng.normal(size=(cfg.n_points, 3))], cfg)[0]
        plan = mask_and_backproject(pyr, _PIPELINE_MASK_RATIO, rng)
        if not plans or plan[1].size != plans[0][1].size:
            pyramids.append(pyr)
            plans.append(plan)
    pyr, plan = stack_pack(pyramids, plans)
    model = MaskedAutoencoder(cfg, rng)
    params = dict(model.named_parameters())
    for p in params.values():
        p.data += rng.normal(scale=0.1, size=p.shape)
    return finite_diff_check(
        lambda: model.loss(pyr, plan), params, tol=tol, sample=_PIPELINE_SAMPLE, rng=rng
    )
