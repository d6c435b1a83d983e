"""Every name the benchmark tracer wraps must exist where it looks for it.

`perfbench/tracer.py` patches pamr's public functions and module methods by
name, and its `install()` raises on a missing one, which fails the traced
benchmark run. This reads that list (without editing it) and resolves each
name the same way, so deleting or renaming a traced name fails here first.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_TRACER = _tracer()
TARGETS = list(_TRACER.MODULE_SPANS) + [("tensor", op) for op in _TRACER.TENSOR_OPS]


@pytest.mark.parametrize("module,public", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_traced_name_resolves(module, public):
    mod = importlib.import_module(f"pamr.{module}")
    head, _, method = public.partition(".")
    obj = getattr(mod, head, None)
    assert obj is not None, f"pamr.{module} has no {head}"
    if isinstance(obj, type):
        attr = method or "forward"
        assert attr in obj.__dict__, f"pamr.{module}.{head} defines no {attr}() of its own"
    else:
        assert not method and callable(obj), f"pamr.{module}.{public} is not a function"
