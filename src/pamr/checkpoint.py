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
"""
from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import write_bytes_atomic
from .errors import CheckpointCompatibilityError, CheckpointFormatError
from .nn import Module
from .tensor import Tensor

__all__ = ["CheckpointData", "save_checkpoint", "load_checkpoint", "apply_params"]

MAGIC = b"PAMR1"
VERSION = 1


@dataclass
class CheckpointData:
    fingerprint: str
    step: int
    params: dict[str, np.ndarray]
    opt_t: int | None = None
    opt_m: dict[str, np.ndarray] | None = None
    opt_v: dict[str, np.ndarray] | None = None


def _pack_str(out: io.BytesIO, s: str) -> None:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CheckpointFormatError(f"name too long: {len(raw)} bytes")
    out.write(struct.pack("<H", len(raw)))
    out.write(raw)


def _pack_array(out: io.BytesIO, a: np.ndarray, what: str) -> None:
    a = np.ascontiguousarray(a, dtype="<f8")
    if not np.all(np.isfinite(a)):
        raise CheckpointFormatError(f"{what} holds non-finite values")
    out.write(struct.pack("<B", a.ndim))
    for d in a.shape:
        out.write(struct.pack("<I", d))
    out.write(a.tobytes())


def encode_checkpoint(
    params: dict[str, Tensor | np.ndarray],
    fingerprint: str,
    step: int,
    opt_state: tuple[int, dict[str, np.ndarray], dict[str, np.ndarray]] | None = None,
) -> bytes:
    arrays = {
        name: (p.data if isinstance(p, Tensor) else np.asarray(p, dtype=np.float64))
        for name, p in params.items()
    }
    out = io.BytesIO()
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
    return out.getvalue()


def save_checkpoint(
    path: str | Path,
    params: dict[str, Tensor | np.ndarray],
    fingerprint: str,
    step: int,
    opt_state=None,
) -> None:
    write_bytes_atomic(path, encode_checkpoint(params, fingerprint, step, opt_state))


class _Reader:
    def __init__(self, payload: bytes, origin: str):
        self.buf = payload
        self.pos = 0
        self.origin = origin

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointFormatError(f"{self.origin}: truncated checkpoint")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
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
        raw = self.take(8 * math.prod(shape))
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise CheckpointFormatError(f"{self.origin}: {what} holds non-finite values")
        return arr


def decode_checkpoint(payload: bytes, origin: str = "<bytes>") -> CheckpointData:
    r = _Reader(payload, origin)
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
    if r.pos != len(payload):
        raise CheckpointFormatError(f"{origin}: {len(payload) - r.pos} trailing bytes")
    return data


def load_checkpoint(
    path: str | Path,
    expect_fingerprint: str | None = None,
    allow_mismatch: bool = False,
) -> CheckpointData:
    try:
        payload = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointFormatError(f"cannot read checkpoint {path}: {e}") from None
    data = decode_checkpoint(payload, origin=str(path))
    if (
        expect_fingerprint is not None
        and data.fingerprint != expect_fingerprint
        and not allow_mismatch
    ):
        raise CheckpointCompatibilityError(
            f"{path}: checkpoint fingerprint {data.fingerprint} does not match "
            f"the configured model ({expect_fingerprint}); pass the override to force"
        )
    return data


def apply_params(module: Module, params: dict[str, np.ndarray]) -> None:
    """Load a full parameter set; names and shapes must match exactly."""
    own = module.param_dict()
    missing = sorted(set(own) - set(params))
    extra = sorted(set(params) - set(own))
    if missing or extra:
        raise CheckpointCompatibilityError(
            f"parameter names differ from the model's: missing {missing[:3]}, extra {extra[:3]}"
        )
    for name, p in own.items():
        if p.shape != params[name].shape:
            raise CheckpointCompatibilityError(
                f"shape mismatch for {name!r}: model {p.shape}, checkpoint {params[name].shape}"
            )
        p.data = np.array(params[name], dtype=np.float64)
