"""Parameter containers and the small shared layers.

Module walks its attributes (including lists of submodules) to enumerate
parameters under stable dotted names; those names are what checkpoints key
on, so renaming a field is a checkpoint-breaking change.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = ["Module", "Linear", "LayerNorm"]


def _walk(value, name: str):
    if isinstance(value, Tensor):
        if value.requires_grad:
            yield name, value
    elif isinstance(value, Module):
        yield from value.named_parameters(name)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _walk(item, f"{name}.{i}")


class Module:
    def forward(self, *args, **kwargs):
        raise NotImplementedError(f"{type(self).__name__} has no forward")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            yield from _walk(value, f"{prefix}.{name}" if prefix else name)

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def param_dict(self) -> dict[str, Tensor]:
        return dict(self.named_parameters())


class Linear(Module):
    """y = x @ W + b with W of shape (fan_in, fan_out)."""

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator, std: float = 0.02):
        self.weight = T.param(rng.normal(size=(fan_in, fan_out)) * std)
        self.bias = T.param(np.zeros(fan_out))

    def forward(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.scale = T.param(np.ones(dim))
        self.shift = T.param(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.scale, self.shift)
