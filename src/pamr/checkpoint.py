"""Binary model checkpoints.

Layout (all integers little-endian):

    magic        5 bytes  b"PAMR1"
    version      u32      currently 1
    fingerprint  u16 length + ascii hex of the model-config hash
    step         u64
    n_params     u32
    entries      sorted lexicographically by name:
                 u16 name length, utf-8 name,
                 u8 ndim, u32 per dim, float64-LE payload
    opt_flag     u8       1 when optimizer state follows
    [t u64, then per entry in the same order: m payload, v payload]

Sorting plus fixed-width floats make save -> load -> save byte-identical.

Entries of the deleted, untrainable `avg_bias`, `max_bias` and `attn.wk.bias`
parameters (21 at the default config) are dropped on read, optimizer state too.

Save and load stream entry by entry over a binary stream: `save_checkpoint`
writes each array's own buffer into the temp file of an atomic write, and
`load_checkpoint` reads each array from the file straight into its own
writable array. `encode_checkpoint` and `decode_checkpoint` run the same
writer and reader over an in-memory buffer, so the byte layout is the same
either way.

`apply_params` (a whole model) and `load_encoder_weights` (a classifier's
encoder) are the one path from checkpoint arrays into a model: both copy
through `_copy_checked`, and every misfit is a `CheckpointCompatibilityError`.
"""
from __future__ import annotations

import io
import math
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .data import write_atomic
from .errors import CheckpointCompatibilityError, CheckpointFormatError
from .nn import Module
from .tensor import Tensor

__all__ = ["CheckpointData", "save_checkpoint", "load_checkpoint", "apply_params", "load_encoder_weights"]

MAGIC = b"PAMR1"
VERSION = 1
_RETIRED = re.compile(r"(^|\.)(gate_[ab]\.(avg|max)_bias|attn\.wk\.bias)$")  # names the reader drops


@dataclass
class CheckpointData:
    fingerprint: str
    step: int
    params: dict[str, np.ndarray]
    opt_t: int | None = None
    opt_m: dict[str, np.ndarray] | None = None
    opt_v: dict[str, np.ndarray] | None = None


def _pack_str(out: BinaryIO, s: str) -> None:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CheckpointFormatError(f"name too long: {len(raw)} bytes")
    out.write(struct.pack("<H", len(raw)))
    out.write(raw)


def _pack_array(out: BinaryIO, a: np.ndarray, what: str) -> None:
    a = np.asarray(a, dtype="<f8", order="C")  # not ascontiguousarray, which makes 0-d 1-d
    if not np.isfinite(a).all():
        raise CheckpointFormatError(f"{what} holds non-finite values")
    out.write(struct.pack("<B", a.ndim))
    for d in a.shape:
        out.write(struct.pack("<I", d))
    out.write(a)  # the array's own buffer, no bytes copy


def _write_checkpoint(
    out: BinaryIO,
    params: dict[str, Tensor | np.ndarray],
    fingerprint: str,
    step: int,
    opt_state: tuple[int, dict[str, np.ndarray], dict[str, np.ndarray]] | None,
) -> None:
    arrays = {
        name: (p.data if isinstance(p, Tensor) else np.asarray(p, dtype=np.float64))
        for name, p in params.items()
    }
    out.write(MAGIC)
    out.write(struct.pack("<I", VERSION))
    _pack_str(out, fingerprint)
    out.write(struct.pack("<Q", step))
    names = sorted(arrays)
    out.write(struct.pack("<I", len(names)))
    for name in names:
        _pack_str(out, name)
        _pack_array(out, arrays[name], f"entry {name!r}")
    if opt_state is None:
        out.write(struct.pack("<B", 0))
    else:
        t, m, v = opt_state
        if set(m) != set(arrays) or set(v) != set(arrays):
            raise CheckpointFormatError("optimizer state names do not match parameters")
        out.write(struct.pack("<B", 1))
        out.write(struct.pack("<Q", t))
        for name in names:
            _pack_array(out, m[name], f"optimizer m of {name!r}")
            _pack_array(out, v[name], f"optimizer v of {name!r}")


def encode_checkpoint(
    params: dict[str, Tensor | np.ndarray],
    fingerprint: str,
    step: int,
    opt_state: tuple[int, dict[str, np.ndarray], dict[str, np.ndarray]] | None = None,
) -> bytes:
    out = io.BytesIO()
    _write_checkpoint(out, params, fingerprint, step, opt_state)
    return out.getvalue()


def save_checkpoint(
    path: str | Path,
    params: dict[str, Tensor | np.ndarray],
    fingerprint: str,
    step: int,
    opt_state=None,
) -> None:
    """Stream the checkpoint into a temp file, renamed over `path` once complete."""
    write_atomic(path, lambda fh: _write_checkpoint(fh, params, fingerprint, step, opt_state))


class _Reader:
    """Reads a checkpoint from a binary stream holding exactly `size` bytes."""

    def __init__(self, stream: BinaryIO, size: int, origin: str):
        self.stream = stream
        self.left = size
        self.origin = origin

    def _claim(self, n: int) -> None:
        if n > self.left:
            raise self._truncated()
        self.left -= n

    def _truncated(self) -> CheckpointFormatError:
        return CheckpointFormatError(f"{self.origin}: truncated checkpoint")

    def take(self, n: int) -> bytes:
        self._claim(n)
        out = self.stream.read(n)
        if len(out) != n:  # the file shrank after its size was read
            raise self._truncated()
        return out

    def unpack(self, fmt: str):
        (value,) = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return value

    def take_str(self) -> str:
        n = self.unpack("<H")
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(f"{self.origin}: string field is not valid utf-8") from None

    def take_array(self, what: str) -> np.ndarray:
        ndim = self.unpack("<B")
        shape = tuple(self.unpack("<I") for _ in range(ndim))
        # checked before allocating, so dims past 2^63 read as truncation
        self._claim(8 * math.prod(shape))
        try:
            arr = np.empty(shape, dtype="<f8")
        except ValueError:  # a zero dim beside dims whose product overflows
            raise CheckpointFormatError(f"{self.origin}: {what} has impossible shape {shape}") from None
        if self.stream.readinto(arr) != arr.nbytes:
            raise self._truncated()
        if not np.isfinite(arr).all():
            raise CheckpointFormatError(f"{self.origin}: {what} holds non-finite values")
        return arr.astype(np.float64, copy=False)


def _read_checkpoint(stream: BinaryIO, size: int, origin: str) -> CheckpointData:
    r = _Reader(stream, size, origin)
    if r.take(5) != MAGIC:
        raise CheckpointFormatError(f"{origin}: bad magic, not a checkpoint")
    version = r.unpack("<I")
    if version != VERSION:
        raise CheckpointFormatError(f"{origin}: unsupported version {version}")
    fingerprint = r.take_str()
    step = r.unpack("<Q")
    n = r.unpack("<I")
    params: dict[str, np.ndarray] = {}
    order: list[str] = []
    for _ in range(n):
        name = r.take_str()
        if name in params:
            raise CheckpointFormatError(f"{origin}: duplicate entry {name!r}")
        params[name] = r.take_array(f"entry {name!r}")
        order.append(name)
    if order != sorted(order):
        raise CheckpointFormatError(f"{origin}: entries not in canonical order")
    data = CheckpointData(fingerprint, step, params)
    if r.unpack("<B"):
        data.opt_t = r.unpack("<Q")
        data.opt_m = {}
        data.opt_v = {}
        for name in order:
            data.opt_m[name] = r.take_array(f"optimizer m of {name!r}")
            data.opt_v[name] = r.take_array(f"optimizer v of {name!r}")
    if r.left:
        raise CheckpointFormatError(f"{origin}: {r.left} trailing bytes")
    for name in filter(_RETIRED.search, order):
        for table in filter(None, (data.params, data.opt_m, data.opt_v)):
            del table[name]
    return data


def decode_checkpoint(payload: bytes, origin: str = "<bytes>") -> CheckpointData:
    return _read_checkpoint(io.BytesIO(payload), len(payload), origin)


def load_checkpoint(path: str | Path, expect_fingerprint: str | None = None) -> CheckpointData:
    """Read `path` entry by entry, straight into the decoded arrays. With
    `expect_fingerprint`, a checkpoint of another model config is refused."""
    try:
        with open(path, "rb") as fh:
            data = _read_checkpoint(fh, os.fstat(fh.fileno()).st_size, str(path))
    except OSError as e:
        raise CheckpointFormatError(f"cannot read checkpoint {path}: {e}") from None
    if expect_fingerprint is not None and data.fingerprint != expect_fingerprint:
        raise CheckpointCompatibilityError(
            f"{path}: checkpoint fingerprint {data.fingerprint} does not match "
            f"the configured model ({expect_fingerprint}); pass the override to force"
        )
    return data


def _copy_checked(own: dict[str, Tensor], params: dict[str, np.ndarray], names) -> None:
    """Copy each of `names` from `params` into `own`, in sorted order; the
    first shape that does not fit raises."""
    for name in sorted(names):
        if own[name].shape != params[name].shape:
            raise CheckpointCompatibilityError(
                f"shape mismatch for {name!r}: model {own[name].shape}, checkpoint {params[name].shape}"
            )
        own[name].data = np.array(params[name], dtype=np.float64)


def apply_params(module: Module, params: dict[str, np.ndarray]) -> None:
    """Load a full parameter set; names and shapes must match exactly."""
    own = module.param_dict()
    missing = sorted(set(own) - set(params))
    extra = sorted(set(params) - set(own))
    if missing or extra:
        raise CheckpointCompatibilityError(
            f"parameter names differ from the model's: missing {missing[:3]}, extra {extra[:3]}"
        )
    _copy_checked(own, params, params)


def load_encoder_weights(clf: Module, params: dict[str, np.ndarray]) -> bool:
    """Copy every encoder entry of `params` whose name `clf` has; shapes must
    match. True when that filled every encoder parameter of `clf`."""
    own = clf.param_dict()
    mine = [name for name in own if name.startswith("encoder.")]
    names = [name for name in mine if name in params]
    if not names:
        raise CheckpointCompatibilityError("checkpoint holds no matching encoder parameters")
    _copy_checked(own, params, names)
    return len(names) == len(mine)
