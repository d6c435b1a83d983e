"""Fixtures every test module shares."""
import pytest

import pamr.training


def empty_pyramid_memo() -> None:
    """Forget every pyramid `cloud_pyramids` keeps across calls."""
    with pamr.training._MEMO_LOCK:
        pamr.training._MEMO.clear()


@pytest.fixture(autouse=True)
def _fresh_pyramid_memo():
    """Each test starts and ends with an empty pyramid memo, so whether a
    call builds its pyramids never depends on which tests ran before."""
    empty_pyramid_memo()
    yield
    empty_pyramid_memo()
