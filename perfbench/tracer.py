"""Span tracer that wraps pamr's public functions where they are called.

A function is replaced in every loaded `pamr.*` module that binds it, so a
name brought in by `from .geometry import knn` is wrapped as well as
`geometry.knn` itself. Module layers are wrapped at their `forward` (or the
named method). Spans are kept in memory as (name, start, end, parent, bytes)
and aggregated, or written out, after the traced call returns.
"""
from __future__ import annotations

import sys
import time

# (module, public name): a class name means its forward(); "Class.method" a method
MODULE_SPANS = (
    ("data", "load_dataset_dir"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("geometry", "build_scale_pyramid"),
    ("geometry", "fps"),
    ("geometry", "knn"),
    ("geometry", "mask_and_backproject"),
    ("geometry", "chamfer_l2_batched"),
    ("embedding", "PatchTokenizer"),
    ("embedding", "LocalAttentionGate"),
    ("embedding", "TokenMerger"),
    ("embedding", "PositionEmbedding"),
    ("backbone", "HierarchicalEncoder"),
    ("backbone", "HierarchicalDecoder"),
    ("backbone", "TransformerBlock"),
    ("backbone", "MultiHeadAttention"),
    ("backbone", "TokenPropagator"),
    ("backbone", "MaskedAutoencoder.loss"),
    ("backbone", "CloudClassifier.features"),
    ("nn", "Linear"),
    ("nn", "LayerNorm"),
    ("training", "pooled_features"),
    ("training", "AdamW.step"),
    ("tensor", "Tensor.backward"),
)

# tensor ops report calls and self time only
TENSOR_OPS = (
    "matmul",
    "softmax",
    "log_softmax",
    "gelu",
    "sigmoid",
    "layer_norm",
    "group_norm",
    "conv1d_channel",
    "index_select",
    "concat",
    "expand",
    "amax",
    "amin",
    "tsum",
    "tmean",
    "add",
    "sub",
    "mul",
    "div",
    "sqrt",
    "reshape",
    "transpose",
)


def span_names() -> list[str]:
    return [f"{m}.{n}" for m, n in MODULE_SPANS] + [f"tensor.{op}" for op in TENSOR_OPS]


class Tracer:
    """Install with `install()`, always undo with `restore()`."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped_sites = 0

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn, name: str, is_op: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                nbytes = out.data.nbytes if is_op and out is not None else 0
                spans[idx] = (name, t0, t1, parent, nbytes)

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "pamr" or k.startswith("pamr.")]
        targets = [(m, n, False) for m, n in MODULE_SPANS] + [("tensor", op, True) for op in TENSOR_OPS]
        for mod_name, public, is_op in targets:
            mod = sys.modules[f"pamr.{mod_name}"]
            head, _, method = public.partition(".")
            obj = getattr(mod, head)
            if isinstance(obj, type):
                attr = method or "forward"
                if attr not in obj.__dict__:
                    raise RuntimeError(f"pamr.{mod_name}.{head} defines no {attr}()")
                self._patch(obj, attr, self._wrapper(obj.__dict__[attr], f"{mod_name}.{public}", is_op))
                continue
            # a function: rebind it in every module that holds it
            wrapped = self._wrapper(obj, f"{mod_name}.{public}", is_op)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is obj:
                        self._patch(m, attr, wrapped)
        self.wrapped_sites = len(self._patches)

    def restore(self) -> None:
        """Put every original back and check that it is back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s, and bytes of leaf op outputs.

        Self time is a span's duration minus the durations of its direct
        children. A tensor op's output counts toward `out_bytes` only when
        no other tensor op ran inside it, so a composite such as layer_norm
        is not counted twice with the ops it is made of.
        """
        ops = {f"tensor.{op}" for op in TENSOR_OPS}
        child_s = [0.0] * len(self.spans)
        has_op_child = [False] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
                has_op_child[parent] = has_op_child[parent] or name in ops
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "out_bytes": 0} for n in span_names()}
        for i, (name, t0, t1, _, nbytes) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_s[i]
            if not has_op_child[i]:
                agg["out_bytes"] += nbytes
        return out

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tout_bytes\n")
            for i, (name, t0, t1, parent, nbytes) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{nbytes}\n")
