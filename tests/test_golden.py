"""The golden digests of `tests/golden.json` against this tree (see `golden.py`)."""
import json
import os

import pytest

import golden
import pamr.pool


def check_golden(tmp_path):
    recorded = json.loads(golden.GOLDEN.read_text())
    here = golden.stack()
    other = {k: (recorded["stack"].get(k), v) for k, v in here.items() if recorded["stack"].get(k) != v}
    if other:
        pytest.skip(f"digests recorded on another stack (recorded, here): {other}")
    moved = golden.moved(recorded["digests"], golden.run_matrix(tmp_path))
    assert not moved, f"{len(moved)} of {len(recorded['digests'])} digests moved: {moved}"


def test_outputs_match_golden_digests(tmp_path):
    check_golden(tmp_path)


@pytest.mark.parametrize("workers", [0, 1], ids=["in-process", "one worker"])
def test_outputs_match_golden_digests_at_a_fixed_worker_count(workers, tmp_path, monkeypatch):
    """Every use of the pool on `workers` worker processes, whatever the CPU
    count: packs 1.. of every multi-pack batch, pyramid builds, encodes and
    few-shot head fits, the jobs from the first call on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers + 1)))
    monkeypatch.setattr(pamr.pool, "_SPREAD_AFTER", 0)
    check_golden(tmp_path)
