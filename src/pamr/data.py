"""Synthetic shape datasets and point-cloud file I/O.

Clouds travel as xyz-ascii: one "x y z" line per point at 17 significant
digits (enough for an exact float64 round-trip), with an optional
"# label <int>" first line. All writers go through a temp-file rename so a
crash never leaves a half-written artifact.
"""
from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .errors import ConfigError, PointCloudParseError
from .geometry import PointCloud

__all__ = [
    "ShapeSpec",
    "SHAPE_KINDS",
    "gen_shapes",
    "write_xyz",
    "read_xyz",
    "save_dataset_dir",
    "load_dataset_dir",
    "write_text_atomic",
    "write_atomic",
]


def write_atomic(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Run `write` on a temp file beside `path`, then rename it into place.

    If `write` raises, the temp file is removed and any older file at `path`
    is left as it was.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))


# ---------------------------------------------------------------------------
# analytic surfaces


def _sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    norms = np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)
    return v / norms


def _cube(n: int, rng: np.random.Generator) -> np.ndarray:
    # one coordinate pinned to +/-1, the other two uniform on the face
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    rows = np.arange(n)
    pts[rows, axis] = np.where(face % 2 == 0, 1.0, -1.0)
    pts[rows, np.where(axis == 0, 1, 0)] = uv[:, 0]  # first of the two other axes
    pts[rows, np.where(axis == 2, 1, 2)] = uv[:, 1]  # second of the two other axes
    return pts


def _torus(n: int, rng: np.random.Generator) -> np.ndarray:
    major, minor = 1.0, 0.4
    u = rng.uniform(0.0, 2.0 * np.pi, size=n)
    v = rng.uniform(0.0, 2.0 * np.pi, size=n)
    ring = major + minor * np.cos(v)
    return np.stack([ring * np.cos(u), ring * np.sin(u), minor * np.sin(v)], axis=1)


def _cylinder(n: int, rng: np.random.Generator) -> np.ndarray:
    radius, half_h = 0.7, 1.0
    lateral = 2.0 * np.pi * radius * 2.0 * half_h
    caps = 2.0 * np.pi * radius**2
    on_cap = rng.uniform(size=n) < caps / (lateral + caps)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.empty((n, 3))
    z_side = rng.uniform(-half_h, half_h, size=n)
    r_cap = radius * np.sqrt(rng.uniform(size=n))
    cap_sign = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    r = np.where(on_cap, r_cap, radius)
    pts[:, 0] = r * np.cos(theta)
    pts[:, 1] = r * np.sin(theta)
    pts[:, 2] = np.where(on_cap, cap_sign * half_h, z_side)
    return pts


def _cone(n: int, rng: np.random.Generator) -> np.ndarray:
    base_r, apex_z, base_z = 0.8, 1.0, -1.0
    height = apex_z - base_z
    slant = np.sqrt(base_r**2 + height**2)
    lateral = np.pi * base_r * slant
    base = np.pi * base_r**2
    on_base = rng.uniform(size=n) < base / (lateral + base)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    # area along the slant grows linearly from the apex, hence sqrt
    t = np.sqrt(rng.uniform(size=n))
    r_side = base_r * t
    z_side = apex_z - height * t
    r_base = base_r * np.sqrt(rng.uniform(size=n))
    r = np.where(on_base, r_base, r_side)
    z = np.where(on_base, base_z, z_side)
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def _plane_with_bump(n: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.uniform(-1.0, 1.0, size=n)
    y = rng.uniform(-1.0, 1.0, size=n)
    z = 0.6 * np.exp(-(x**2 + y**2) / (2.0 * 0.3**2))
    return np.stack([x, y, z], axis=1)


SHAPE_KINDS = {
    "sphere": _sphere,
    "cube": _cube,
    "torus": _torus,
    "cylinder": _cylinder,
    "cone": _cone,
    "plane-with-bump": _plane_with_bump,
}


@dataclass
class ShapeSpec:
    """One synthetic cloud: an analytic surface plus Gaussian jitter."""

    kind: str
    n_points: int = 64
    jitter: float = 0.0
    seed: int = 0
    label: int | None = None

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise ConfigError(
                f"unknown shape kind {self.kind!r}; choose from {sorted(SHAPE_KINDS)}"
            )
        if self.n_points < 64:
            raise ConfigError(f"need at least 64 points per shape, got {self.n_points}")
        if not np.isfinite(self.jitter) or self.jitter < 0:
            raise ConfigError(f"jitter must be finite and non-negative, got {self.jitter}")


def gen_shapes(specs: list[ShapeSpec]) -> list[PointCloud]:
    clouds = []
    for spec in specs:
        rng = np.random.default_rng(spec.seed)
        pts = SHAPE_KINDS[spec.kind](spec.n_points, rng)
        if spec.jitter > 0:
            pts = pts + rng.normal(0.0, spec.jitter, size=pts.shape)
        clouds.append(PointCloud(pts, spec.label))
    return clouds


# ---------------------------------------------------------------------------
# xyz-ascii


def format_xyz(cloud: PointCloud) -> str:
    lines = []
    if cloud.label is not None:
        lines.append(f"# label {cloud.label}")
    for x, y, z in cloud.points:
        lines.append(f"{x:.17g} {y:.17g} {z:.17g}")
    return "\n".join(lines) + "\n"


def write_xyz(path: str | Path, cloud: PointCloud) -> None:
    write_text_atomic(path, format_xyz(cloud))


def parse_xyz(text: str, origin: str = "<string>") -> PointCloud:
    label = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if lineno == 1 and len(parts) == 2 and parts[0] == "label":
                try:
                    label = int(parts[1])
                except ValueError:
                    raise PointCloudParseError(
                        f"{origin}:{lineno}: bad label {parts[1]!r}"
                    ) from None
                if not -(2**63) <= label < 2**63:
                    raise PointCloudParseError(f"{origin}:{lineno}: label {parts[1]} outside int64")
                continue
            raise PointCloudParseError(f"{origin}:{lineno}: unexpected comment line")
        parts = line.split()
        if len(parts) != 3:
            raise PointCloudParseError(
                f"{origin}:{lineno}: expected 3 coordinates, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise PointCloudParseError(
                f"{origin}:{lineno}: not a number in {line!r}"
            ) from None
    if not rows:
        raise PointCloudParseError(f"{origin}: no points found")
    return PointCloud(np.array(rows, dtype=np.float64), label)


def read_xyz(path: str | Path) -> PointCloud:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise PointCloudParseError(f"cannot read {path}: {e}") from None
    return parse_xyz(text, origin=str(path))


def save_dataset_dir(directory: str | Path, clouds: list[PointCloud]) -> list[Path]:
    """Write `cloud_0000.xyz`, `cloud_0001.xyz`, ... in list order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(len(clouds))))
    paths = []
    for i, cloud in enumerate(clouds):
        p = directory / f"cloud_{i:0{width}d}.xyz"
        write_xyz(p, cloud)
        paths.append(p)
    return paths


def load_dataset_dir(directory: str | Path) -> list[PointCloud]:
    directory = Path(directory)
    files = sorted(directory.glob("*.xyz"))
    if not files:
        raise ConfigError(f"no .xyz files under {directory}")
    return [read_xyz(p) for p in files]
