"""pamr benchmark: one workload, one seed, one run; prints one JSON line last.

    python3 perfbench/run.py --workload pretrain-desk --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. This process uses the standard library
only; it prepares the inputs, then starts a fresh process per set-up probe
and one for the measured run (see child.py), each with one BLAS thread.

--trace 0 prints the end-to-end metrics: samples_per_s, setup_s,
peak_rss_mb and samples_ok_frac. --trace 1 prints the per-layer metrics of
one traced main call (see tracer.py). README.md in this directory says what
each metric should move and why the workloads are what they are.

The exit code is 0 when every check passed, 1 when the program failed a
check (the result line still says how many samples failed), and 2 when the
benchmark cannot run at all, for example without `src/pamr` beside it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import MODULE_SPANS, TENSOR_OPS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

OUT = ROOT / ".perfbench_out"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 6  # set-up-only processes, beside the measured one
# Interpreter-bound durations are reported at this speed of child.reference_seconds():
# each is scaled by REF_NOMINAL_S / (the reference kernel's seconds beside it).
REF_NOMINAL_S = 0.12
RUN_BUDGET_S = 170.0  # a child still running this long after the run began is killed

END_TO_END = (
    ("samples_per_s", "samples/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("samples_ok_frac", "frac"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for mod, public in MODULE_SPANS:
        name = f"{mod}.{public}"
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
    for op in TENSOR_OPS:
        out += [(f"tensor.{op}.calls", "count"), (f"tensor.{op}.self_s", "s")]
    return out + [
        ("tensor.ops_per_sample", "ops/sample"),
        ("tensor.out_mb_per_sample", "MiB/sample"),
        ("geometry.pyramid_builds_per_cloud", "builds/cloud"),
        ("trace.overhead_frac", "frac"),
    ]


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _source_digest() -> str:
    """Identity of the code under test and of this benchmark."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _child(mode: str, spec: dict, work: Path, env: dict) -> tuple[dict | None, float]:
    """Run one child to completion; returns (its result or None, launch time)."""
    spec = dict(spec, result=str(work / f"{mode}-{time.monotonic_ns()}.json"))
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(spec_path)],
            env=env,
            stdout=sys.stderr,
            timeout=max(1.0, spec["deadline"] - launch),
        )
    except subprocess.TimeoutExpired:
        print(f"{mode} process killed at the run's deadline", file=sys.stderr)
        return None, launch
    result = Path(spec["result"])
    if proc.returncode != 0 or not result.exists():
        print(f"{mode} process exited with {proc.returncode}", file=sys.stderr)
        return None, launch
    return json.loads(result.read_text()), launch


class DigestStore:
    """Loss/accuracy digests of earlier runs of the same code in this checkout."""

    def __init__(self, code: str):
        self.path = OUT / "digests.json"
        self.code = code
        self.data = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, key: str, digest: str) -> str | None:
        known = self.data.setdefault(self.code, {})
        if key not in known:
            known[key] = digest
            return None
        if known[key] != digest:
            return f"digest of {key} differs from an earlier run of the same code"
        return None

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _adjusted_setup(setups: list[tuple[float, float]]) -> float:
    return statistics.median(s * REF_NOMINAL_S / ref for s, ref in setups)


def measure(args, w, spec: dict, work: Path, env: dict, store: DigestStore, report: dict):
    setups = []
    for _ in range(SETUP_PROBES):
        res, launch = _child("setup", spec, work, env)
        if res is None:
            raise HarnessError("a set-up probe failed")
        setups.append((res["t_ready"] - launch, res["ref_s"]))
    res, launch = _child("measure", spec, work, env)
    per_call = w.samples_per_call()
    if res is None:  # the program crashed: every sample of the run failed
        report["errors"] = ["measured process crashed"]
        metrics = dict.fromkeys(("samples_per_s", "peak_rss_mb", "samples_ok_frac"), 0.0)
        return False, per_call, per_call, dict(metrics, setup_s=_adjusted_setup(setups))
    setups.append((res["t_ready"] - launch, res["ref_s"]))
    report["host"].update(res["host"])
    attempted = failed = 0
    rates, raw_rates, errors = [], [], []
    first_digest = {}
    for c in res["calls"]:
        attempted += per_call
        errs = list(c["errors"])
        if c["digest"] is not None:
            key = f"{w.name}/seed={args.seed}/input={c['input']}"
            first = first_digest.setdefault(key, c["digest"])
            if first != c["digest"]:
                errs.append(f"digest of {key} changed between calls of one run")
            err = store.check(key, c["digest"])
            if err:
                errs.append(err)
        if errs:
            failed += per_call
            errors += errs
        else:
            raw_rates.append(per_call / c["seconds"])
            scale = c["ref_s"] / REF_NOMINAL_S if w.interpreter_bound else 1.0
            rates.append(raw_rates[-1] * scale)
    report["errors"] = errors
    q1, med, q3 = _quartiles(rates) if rates else (0.0, 0.0, 0.0)
    report["samples_per_s"] = {
        "median": med,
        "p25": q1,
        "p75": q3,
        "calls": len(rates),
        "samples": per_call * len(rates),
        "reference_adjusted": w.interpreter_bound,
        "unadjusted_median": statistics.median(raw_rates) if raw_rates else 0.0,
    }
    report["setup_s"] = {
        "median": _adjusted_setup(setups),
        "unadjusted_median": statistics.median(s for s, _ in setups),
        "values_s_ref_s": setups,
    }
    report["calls"] = res["calls"]
    metrics = {
        "samples_per_s": med,
        "setup_s": report["setup_s"]["median"],
        "peak_rss_mb": max(c["rss_mib"] for c in res["calls"]),
        "samples_ok_frac": (attempted - failed) / attempted,
    }
    return not errors, attempted, failed, metrics


def trace(args, w, spec: dict, work: Path, env: dict, store: DigestStore, report: dict):
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    spans = OUT / "trace" / f"{w.name}-seed{args.seed}.spans.tsv"
    res, _ = _child("trace", dict(spec, spans=str(spans)), work, env)
    n = w.samples_per_call()
    if res is None:
        report["errors"] = ["traced process crashed"]
        return False, n, n, {name: 0.0 for name, _ in per_layer_metrics()}
    report["host"].update(res["host"])
    untraced, traced = res["untraced"], res["traced"]
    calls = untraced + [traced]
    errors = [e for c in calls for e in c["errors"]]
    key = f"{w.name}/seed={args.seed}/input=0"
    if len({c["digest"] for c in calls}) != 1 or traced["digest"] is None:
        errors.append("traced call's digest differs from the untraced calls'")
    elif err := store.check(key, traced["digest"]):
        errors.append(err)
    report["errors"] = errors
    report["wrapped_sites"] = res["wrapped_sites"]
    report["spans_file"] = str(spans.relative_to(ROOT))
    layers = res["layers"]
    metrics = {}
    for mod, public in MODULE_SPANS:
        agg = layers[f"{mod}.{public}"]
        for field in ("calls", "total_s", "self_s"):
            metrics[f"{mod}.{public}.{field}"] = agg[field]
    ops = [layers[f"tensor.{op}"] for op in TENSOR_OPS]
    for op, agg in zip(TENSOR_OPS, ops):
        metrics[f"tensor.{op}.calls"] = agg["calls"]
        metrics[f"tensor.{op}.self_s"] = agg["self_s"]
    metrics["tensor.ops_per_sample"] = sum(a["calls"] for a in ops) / n
    metrics["tensor.out_mb_per_sample"] = sum(a["out_bytes"] for a in ops) / 2**20 / n
    metrics["geometry.pyramid_builds_per_cloud"] = (
        layers["geometry.build_scale_pyramid"]["calls"] / w.clouds_per_input
    )
    untraced_s = statistics.mean(c["seconds"] for c in untraced)
    metrics["trace.overhead_frac"] = traced["seconds"] / untraced_s - 1.0
    return not errors, n, (n if errors else 0), metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "pamr" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'pamr'} is missing", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    code = _source_digest()
    report = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "nproc": os.cpu_count(),
            "loadavg_at_start": list(os.getloadavg()),
            "git_commit": _git_commit(),
            "source_digest": code,
        },
    }
    work = OUT / "work" / f"{w.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spec = {
        "root": str(ROOT),
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "work": str(work),
        "deadline": time.monotonic() + RUN_BUDGET_S,
    }
    store = DigestStore(code)
    try:
        if _child("prep", spec, work, env)[0] is None:
            raise HarnessError("preparing the inputs failed")
        run = trace if args.trace else measure
        correct, attempted, failed, metrics = run(args, w, spec, work, env, store, report)
    except HarnessError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    store.save()

    units = dict(per_layer_metrics() if args.trace else END_TO_END)
    report.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (OUT / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(report, indent=1)
    )
    print("host " + json.dumps(report["host"], sort_keys=True))
    if "samples_per_s" in report:
        s, u = report["samples_per_s"], report["setup_s"]
        adjusted = "reference-adjusted" if s["reference_adjusted"] else "as measured"
        print(
            f"samples_per_s ({adjusted}) median {s['median']:.4f} [p25 {s['p25']:.4f}, "
            f"p75 {s['p75']:.4f}] over {s['calls']} calls, {s['samples']} samples; "
            f"unadjusted median {s['unadjusted_median']:.4f} samples/s"
        )
        print(
            f"setup_s (reference-adjusted) median {u['median']:.4f} over "
            f"{len(u['values_s_ref_s'])} processes; unadjusted median {u['unadjusted_median']:.4f} s"
        )
    for e in report.get("errors", []):
        print(f"check failed: {e}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
