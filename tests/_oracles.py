"""Reference implementations used only by tests.

These recompute results with independent algorithms (from-scratch distance
matrices, pure-python sorts) so agreement with the production kernels is
meaningful. Arithmetic is arranged to be bitwise comparable: squared
distances are formed the same way ((a-b)^2 summed in coordinate order) and
minima/argmaxima are exact operations, so no tolerance is needed.

`with_sentinel_as` makes the checkpoint bytes the encoder refuses to write:
it overwrites one float of a valid encoding in place.
"""
import struct

import numpy as np

SENTINEL = 1234.5678


def with_sentinel_as(payload: bytes, value: float) -> bytes:
    """Overwrite the 8 payload bytes of the one SENTINEL value in `payload`."""
    raw = struct.pack("<d", SENTINEL)
    assert payload.count(raw) == 1
    return payload.replace(raw, struct.pack("<d", value))


def fps_reference(points: np.ndarray, m: int, start: int = 0) -> np.ndarray:
    """Exhaustive greedy max-min: rebuilds the full distance-to-set matrix
    every step instead of keeping a running minimum."""
    pts = np.asarray(points, dtype=np.float64)
    sel = [start]
    while len(sel) < m:
        cols = [((pts - pts[j]) ** 2).sum(axis=1) for j in sel]
        dist = np.stack(cols, axis=1).min(axis=1)
        dist[np.asarray(sel)] = -1.0
        sel.append(int(np.argmax(dist)))
    return np.asarray(sel, dtype=np.int64)


def knn_reference(queries: np.ndarray, refs: np.ndarray, k: int) -> np.ndarray:
    """Full sort per query in pure python, ties broken by index."""
    rows = []
    for q in np.asarray(queries, dtype=np.float64):
        d2 = []
        for r in np.asarray(refs, dtype=np.float64):
            dx = q[0] - r[0]
            dy = q[1] - r[1]
            dz = q[2] - r[2]
            d2.append(dx * dx + dy * dy + dz * dz)
        order = sorted(range(len(d2)), key=lambda j: (d2[j], j))
        rows.append(order[:k])
    return np.asarray(rows, dtype=np.int64)


def chamfer_reference(a: np.ndarray, b: np.ndarray) -> float:
    """Loop-based symmetric squared-distance chamfer."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    fwd = sum(min(((p - q) ** 2).sum() for q in b) for p in a) / len(a)
    bwd = sum(min(((q - p) ** 2).sum() for p in a) for q in b) / len(b)
    return float(fwd + bwd)
