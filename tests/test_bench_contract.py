"""The benchmark's calls into pamr must keep resolving.

`perfbench/tracer.py` patches pamr's public functions and module methods by
name, and its `install()` raises on a missing one, which fails the traced
benchmark run. This reads that list (without editing it) and resolves each
name the same way, so deleting or renaming a traced name fails here first.
`perfbench/child.py` drives pamr untraced as well (`save_dataset_dir`,
`state_arrays`, `write_metrics`, ...); one toy run of each kind covers those.
`perfbench/selftest.py`'s tracer check runs here too, so a pamr module that
stops importing a traced name (as `pamr.backbone` does `knn`) fails Tier-1.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_TRACER = _load("perfbench_tracer", PERFBENCH / "tracer.py")
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


@pytest.mark.parametrize("workload", ["selftest-pretrain", "selftest-fewshot"])
def test_benchmark_run_passes_its_checks(tmp_path, monkeypatch, workload):
    import pamr.cli  # binds `pamr` with every submodule that child.py reaches through it

    monkeypatch.syspath_prepend(str(PERFBENCH))  # child.py imports `workloads`
    child = _load("perfbench_child", PERFBENCH / "child.py")
    w = child.WORKLOADS[workload]
    child.mode_prep(pamr, w, {"seconds": 0.0, "seed": 1}, tmp_path)
    run = child.Run(pamr, w, tmp_path)
    run.setup()
    rec = run.timed_call()
    assert rec["digest"] and rec["errors"] == []


def test_tracer_wraps_from_imports_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # selftest.py imports `run`, which imports `tracer`
    selftest = _load("perfbench_selftest", PERFBENCH / "selftest.py")
    selftest.check_tracer_restores()  # asserts `pamr.backbone.knn` is wrapped, then restored
