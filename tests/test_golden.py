"""The golden digests of `tests/golden.json` against this tree (see `golden.py`)."""
import json

import pytest

import golden


def test_outputs_match_golden_digests(tmp_path):
    recorded = json.loads(golden.GOLDEN.read_text())
    here = golden.stack()
    other = {k: (recorded["stack"].get(k), v) for k, v in here.items() if recorded["stack"].get(k) != v}
    if other:
        pytest.skip(f"digests recorded on another stack (recorded, here): {other}")
    moved = golden.moved(recorded["digests"], golden.run_matrix(tmp_path))
    assert not moved, f"{len(moved)} of {len(recorded['digests'])} digests moved: {moved}"
