"""Typed configuration: model architecture, training knobs, file parsing.

Config files are flat ``key = value`` text with ``#`` comments. Every run
echoes its fully resolved configuration, and the model fingerprint (used to
guard checkpoint loads) hashes the canonical architecture text only, so a
fine-tune run with different training settings still accepts a pretraining
checkpoint.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Mapping

from .errors import ConfigError

__all__ = [
    "ModelConfig",
    "TrainConfig",
    "parse_config_text",
    "load_config_file",
    "split_mapping",
    "resolved_lines",
    "model_fingerprint",
]


def _coerce_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _coerce_int_tuple(raw: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {raw!r}") from None


def _coerce(raw: str, template, key: str):
    if isinstance(template, bool):
        return _coerce_bool(raw, key)
    if isinstance(template, int):
        try:
            return int(raw.strip())
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if isinstance(template, float):
        try:
            return float(raw.strip())
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if isinstance(template, tuple):
        return _coerce_int_tuple(raw, key)
    raise ConfigError(f"{key}: unsupported config field type {type(template).__name__}")


def _canon(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _FromMapping:
    def __post_init__(self):
        # the one check of a frozen config: from a file, in code or by `dataclasses.replace`
        self.validate()

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]):
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name in mapping:
                kwargs[f.name] = _coerce(mapping[f.name], f.default, f.name)
        return cls(**kwargs)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def _require_finite(self) -> None:
        for name, value in self.as_dict().items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ModelConfig(_FromMapping):
    """Architecture of the autoencoder; defaults are the full-scale setup."""

    n_points: int = 2048
    sizes: tuple[int, ...] = (512, 256, 64)
    ks: tuple[int, ...] = (16, 8, 8)
    dims: tuple[int, ...] = (96, 192, 384)
    heads: int = 6
    encoder_blocks: int = 5
    decoder_blocks: int = 1
    interp_k: int = 3
    la_enabled: bool = True
    la_window: int = 5
    la_groups: int = 32
    la_avg_branch: bool = True
    la_max_branch: bool = True
    zero_scale_head: bool = False

    def validate(self) -> None:
        self._require_finite()
        s = len(self.sizes)
        if s < 2:
            raise ConfigError(f"need at least 2 scales, got sizes {self.sizes}")
        if len(self.ks) != s or len(self.dims) != s:
            raise ConfigError(
                f"sizes {self.sizes}, ks {self.ks}, dims {self.dims} must have equal length"
            )
        if not 1 <= self.sizes[0] <= self.n_points:
            raise ConfigError(f"first scale {self.sizes[0]} exceeds n_points {self.n_points}")
        for coarse, fine in zip(self.sizes[1:], self.sizes[:-1]):
            if not 1 <= coarse < fine:
                raise ConfigError(f"scale sizes must strictly decrease: {self.sizes}")
        avail = (self.n_points,) + self.sizes[:-1]
        for k, a in zip(self.ks, avail):
            if not 1 <= k <= a:
                raise ConfigError(f"patch size {k} exceeds the {a} points below it")
        if self.heads < 1:
            raise ConfigError(f"heads must be at least 1, got {self.heads}")
        for d in self.dims:
            if d < self.heads or d % self.heads != 0:
                raise ConfigError(f"dim {d} not divisible by {self.heads} heads")
        if self.dims[0] % 2 != 0:
            raise ConfigError(f"first dim must be even, got {self.dims[0]}")
        if self.encoder_blocks < 1 or self.decoder_blocks < 1:
            raise ConfigError("block counts must be at least 1")
        if self.interp_k < 1:
            raise ConfigError(f"interp_k must be positive, got {self.interp_k}")
        if s > 2 and self.interp_k > self.sizes[-1]:  # two scales propagate nothing
            raise ConfigError(f"interp_k {self.interp_k} exceeds sizes[-1] = {self.sizes[-1]}")
        if self.la_window < 1 or self.la_window % 2 != 1:
            raise ConfigError(f"la_window must be odd, got {self.la_window}")
        if self.la_groups < 1:
            raise ConfigError(f"la_groups must be positive, got {self.la_groups}")
        if self.la_enabled and not (self.la_avg_branch or self.la_max_branch):
            raise ConfigError(
                "the gate needs la_avg_branch or la_max_branch; set la_enabled = false to drop it"
            )

    @classmethod
    def tiny(cls) -> "ModelConfig":
        """Two scales, narrow dims: small enough for finite-difference sweeps."""
        return cls(
            n_points=32,
            sizes=(16, 8),
            ks=(4, 4),
            dims=(8, 16),
            heads=2,
            encoder_blocks=1,
            decoder_blocks=1,
            la_window=3,
            la_groups=4,
        )


@dataclass(frozen=True)
class TrainConfig(_FromMapping):
    """Optimization and protocol knobs; defaults follow the pretrain recipe."""

    epochs: int = 300
    batch_size: int = 64
    base_lr: float = 1e-4
    weight_decay: float = 0.05
    warmup_epochs: int = 10
    min_lr: float = 1e-6
    seed: int = 0
    mask_ratio: float = 0.6
    augment: bool = True
    scale_lo: float = 0.8
    scale_hi: float = 1.25
    translate: float = 0.1
    checkpoint_every: int = 0
    head_hidden: tuple[int, ...] = (256, 128)
    freeze_backbone: bool = False
    holdout_fraction: float = 0.25
    n_way: int = 5
    m_shot: int = 10
    trials: int = 10
    test_per_class: int = 20

    def validate(self) -> None:
        self._require_finite()
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError(
                f"warmup_epochs {self.warmup_epochs} must lie in [0, epochs={self.epochs})"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.base_lr <= 0 or self.min_lr < 0 or self.min_lr > self.base_lr:
            raise ConfigError(f"need 0 <= min_lr <= base_lr, got {self.min_lr}, {self.base_lr}")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ConfigError(f"mask_ratio must lie in [0, 1), got {self.mask_ratio}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if not 0 < self.scale_lo <= self.scale_hi:
            raise ConfigError(f"bad augment scale range [{self.scale_lo}, {self.scale_hi}]")
        if self.translate < 0 or not math.isfinite(2 * self.translate):
            raise ConfigError(f"translate must be nonnegative and 2 * translate finite, got {self.translate}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError(f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be nonnegative, got {self.checkpoint_every}")
        if self.n_way < 2:
            raise ConfigError(f"n_way must be at least 2, got {self.n_way}")
        if min(self.m_shot, self.trials, self.test_per_class) < 1:
            raise ConfigError("few-shot settings must all be positive")
        if not all(h >= 1 for h in self.head_hidden):
            raise ConfigError(f"head_hidden must be positive widths, got {self.head_hidden}")


def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines; `#` starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_config_file(path) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None


def split_mapping(mapping: Mapping[str, str]) -> tuple[ModelConfig, TrainConfig]:
    """Build both configs from one mapping, rejecting unknown keys."""
    known = set(ModelConfig.field_names()) | set(TrainConfig.field_names())
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return ModelConfig.from_mapping(mapping), TrainConfig.from_mapping(mapping)


def resolved_lines(model: ModelConfig, train: TrainConfig | None = None) -> list[str]:
    """Canonical `key = value` lines, sorted; what every CLI run echoes."""
    merged = dict(model.as_dict())
    if train is not None:
        merged.update(train.as_dict())
    return [f"{key} = {_canon(merged[key])}" for key in sorted(merged)]


def model_fingerprint(model: ModelConfig) -> str:
    """Hash of the canonical architecture text; guards checkpoint loads."""
    text = "\n".join(resolved_lines(model))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
