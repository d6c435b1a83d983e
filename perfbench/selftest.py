"""Self-test of the benchmark harness on toy-sized workloads (~1 minute).

    python3 perfbench/selftest.py

Runs run.py on the `selftest-*` workloads and checks the result line's
shape against BENCHMARK.json, determinism of the traced counts, that
tracing leaves every wrapped name restored, that a digest mismatch fails
the run's samples, and that the benchmark refuses to run without the
program's sources. Exits 1 on the first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import HERE, OUT, ROOT, _source_digest

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def result(workload: str, seed: int, trace: int) -> tuple[int, dict]:
    code, lines = run("--workload", workload, "--seed", str(seed), "--seconds", "2", "--trace", str(trace))
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    return code, out


def check_result_lines() -> None:
    for workload, builds in (("selftest-pretrain", 1.0), ("selftest-fewshot", 2.0)):
        code, out = result(workload, 3, 0)
        assert code == 0 and out["correct"] and out["failed"] == 0, out
        assert all(v["value"] > 0 for v in out["metrics"].values()), out
        traced = [result(workload, 3, 1)[1] for _ in range(2)]
        for t in traced:
            assert t["correct"] and t["failed"] == 0, t
        a, b = (t["metrics"] for t in traced)
        assert a["geometry.pyramid_builds_per_cloud"]["value"] == builds
        for name in a:
            if name.endswith(".calls") or name == "tensor.ops_per_sample":
                assert a[name]["value"] == b[name]["value"], name
        print(f"ok   {workload}: result lines, units, traced counts repeat exactly")


def check_tracer_restores() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import pamr.cli  # noqa: F401
    import pamr.backbone
    import pamr.geometry
    import pamr.nn
    import pamr.training
    from tracer import Tracer

    knn, pyramid, fwd = pamr.geometry.knn, pamr.training.build_scale_pyramid, pamr.nn.Linear.forward
    tracer = Tracer()
    tracer.install()
    try:
        assert pamr.backbone.knn is not knn and pamr.geometry.knn is pamr.backbone.knn
        assert pamr.training.build_scale_pyramid is not pyramid
        assert pamr.nn.Linear.forward is not fwd
    finally:
        tracer.restore()
    assert pamr.backbone.knn is knn and pamr.geometry.knn is knn
    assert pamr.training.build_scale_pyramid is pyramid and pamr.nn.Linear.forward is fwd
    print(f"ok   tracer wraps {tracer.wrapped_sites} call sites, including from-imports, and restores them")


def check_digest_mismatch_fails() -> None:
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text())
    key = "selftest-fewshot/seed=3/input=0"
    known = store[_source_digest()]
    saved = known[key]
    known[key] = "0" * 64
    store_path.write_text(json.dumps(store))
    try:
        code, out = result("selftest-fewshot", 3, 0)
    finally:
        store = json.loads(store_path.read_text())
        store[_source_digest()][key] = saved
        store_path.write_text(json.dumps(store))
    assert code == 1 and not out["correct"], out
    assert out["failed"] == out["attempted"], out
    assert out["metrics"]["samples_ok_frac"]["value"] == 0.0, out
    print("ok   a digest that differs from an earlier run fails every sample of the run")


def check_refuses_without_sources() -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, lines = run("--workload", "pretrain-desk", "--seed", "1", "--seconds", "2", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print("ok   without src/pamr the benchmark exits non-zero and prints no result")


def main() -> int:
    checks = (check_result_lines, check_tracer_restores, check_digest_mismatch_fails, check_refuses_without_sources)
    for check in checks:
        try:
            check()
        except AssertionError as e:
            print(f"FAIL {check.__name__}: {e}")
            return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
