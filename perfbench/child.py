"""One fresh process of a benchmark run: prep, setup, measure or trace.

    python3 perfbench/child.py <mode> <spec.json>

The spec names the checkout root, the workload, the seed, the run length and
the work directory; the child writes its findings to `spec["result"]` as
JSON. `run.py` starts this process and computes the metrics. pamr is imported
from the checkout's `src/` only, and is called through the same public
functions, in the same order, as `pamr pretrain` and `pamr fewshot`.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload


def _import_pamr(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import pamr.cli  # the import set a `pamr` command pays for; binds `pamr`

    origin = Path(pamr.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"pamr imported from {origin}, not from {src}")
    return pamr


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _host() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def reference_seconds() -> float:
    """Seconds of a fixed interpreter-bound numpy kernel that pamr cannot change.

    Host speed on small shared machines drifts by up to 2x over minutes, and
    it moves this kernel the way it moves the interpreter-bound work of
    set-up and the desk workloads. run.py reports those durations relative
    to this one, measured in the same process next to them (see README.md).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(24, 16))
    w1 = rng.normal(size=(16, 64)) * 0.1
    w2 = rng.normal(size=(64, 16)) * 0.1

    def steps(n: int) -> None:
        for _ in range(n):
            h = a @ w1
            h = h - h.mean(axis=1, keepdims=True)
            h = h / np.sqrt((h * h).mean(axis=1, keepdims=True) + 1e-5)
            g = 0.5 * h * (1.0 + np.tanh(0.79788 * (h + 0.044715 * h * h * h)))
            o = g @ w2
            e = np.exp(o - o.max(axis=1, keepdims=True))
            d = (e / e.sum(axis=1, keepdims=True) - 1.0 / 16) @ w2.T
            a.T @ (d * h)

    steps(100)  # warm-up, untimed
    t0 = time.perf_counter()
    steps(2000)
    return time.perf_counter() - t0


def _input_dir(work: Path, index: int) -> Path:
    return work / "inputs" / f"{index:03d}"


class Run:
    """The program as a `pamr` command would drive it, for one workload."""

    def __init__(self, pamr, w: Workload, work: Path):
        self.pamr = pamr
        self.w = w
        self.work = work
        cfg = pamr.config
        self.model_cfg = cfg.ModelConfig(**w.model)
        self.model_cfg.validate()
        self.train_cfg = cfg.TrainConfig(**w.train)
        self.train_cfg.validate()
        self.fingerprint = cfg.model_fingerprint(self.model_cfg)
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.clouds = None
        self.pretrained = None

    # -- set-up: everything before the main call -------------------------

    def load(self, index: int) -> None:
        self.clouds = self.pamr.data.load_dataset_dir(_input_dir(self.work, index))

    def setup(self) -> None:
        self.load(0)
        if self.w.kind == "fewshot":
            ckpt = self.pamr.checkpoint.load_checkpoint(
                self.work / "pretrained.ckpt", expect_fingerprint=self.fingerprint
            )
            self.pretrained = ckpt.params

    # -- the main call -----------------------------------------------------

    def main_call(self):
        pamr = self.pamr
        if self.w.kind == "fewshot":
            return pamr.training.few_shot_eval(
                self.clouds, self.model_cfg, self.train_cfg, pretrained=self.pretrained
            )
        out, fp = self.out, self.fingerprint

        def on_checkpoint(model, opt, step, tag):
            name = "model.ckpt" if tag == "final" else f"model_{tag}.ckpt"
            pamr.checkpoint.save_checkpoint(out / name, model.param_dict(), fp, step, opt.state_arrays())

        result = pamr.training.pretrain_run(
            self.clouds, self.model_cfg, self.train_cfg, on_checkpoint=on_checkpoint
        )
        pamr.metrics.write_metrics(out / "metrics.csv", result.rows)
        return result

    def timed_call(self, tracer=None) -> dict:
        """One main call, traced when a tracer is given, then its checks.

        The checks run outside the timing. The peak RSS is read before them;
        they decode the checkpoint only after the result has been dropped,
        so they do not set the peak.
        """
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            try:
                result, error = self.main_call(), None
            except Exception as e:  # any failure of the program fails the call's samples
                result, error = None, f"{type(e).__name__}: {e}"
            seconds = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
        rec = {"seconds": seconds, "rss_mib": _rss_mib(), "digest": None, "errors": []}
        if error is not None:
            rec["errors"].append(error)
        elif self.w.kind == "fewshot":
            rec["digest"], rec["errors"] = self._check_fewshot(result)
        else:
            last_step = result.rows[-1].step if result.rows else None
            shapes = {k: list(p.shape) for k, p in result.model.param_dict().items()}
            del result
            gc.collect()
            rec["digest"], rec["errors"] = self._check_pretrain(last_step, shapes)
        return rec

    # -- correctness -------------------------------------------------------

    def _check_fewshot(self, result):
        acc = [float(a) for a in result.per_trial]
        errors = []
        if len(acc) != self.train_cfg.trials:
            errors.append(f"{len(acc)} trial accuracies for {self.train_cfg.trials} trials")
        if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in acc):
            errors.append(f"trial accuracy outside [0, 1]: {acc}")
        return hashlib.sha256(repr(acc).encode()).hexdigest(), errors

    def _check_pretrain(self, last_step, shapes):
        import numpy as np

        errors = []
        csv = (self.out / "metrics.csv").read_bytes()
        losses = [float(line.split(",")[3]) for line in csv.decode().splitlines()[1:]]
        if not losses or not all(math.isfinite(x) for x in losses):
            errors.append("loss series is empty or not finite")
        try:
            ckpt = self.pamr.checkpoint.load_checkpoint(
                self.out / "model.ckpt", expect_fingerprint=self.fingerprint
            )
        except self.pamr.PamrError as e:
            errors.append(f"final checkpoint does not decode: {e}")
        else:
            if ckpt.step != last_step:
                errors.append(f"checkpoint step {ckpt.step} != last step {last_step}")
            if {k: list(a.shape) for k, a in ckpt.params.items()} != shapes:
                errors.append("checkpoint parameter table differs from the model's")
            elif not all(np.all(np.isfinite(a)) for a in ckpt.params.values()):
                errors.append("checkpoint holds non-finite parameters")
            if ckpt.opt_t != last_step:
                errors.append("checkpoint lacks the optimizer state of the last step")
        return hashlib.sha256(csv).hexdigest(), errors


# -- modes -------------------------------------------------------------------


def mode_prep(pamr, w: Workload, spec: dict, work: Path) -> dict:
    data = pamr.data
    for index in range(w.n_inputs(spec["seconds"])):
        specs = [
            data.ShapeSpec(kind, w.n_points, w.jitter, seed=s, label=label)
            for kind, label, s in w.cloud_specs(spec["seed"], index)
        ]
        data.save_dataset_dir(_input_dir(work, index), data.gen_shapes(specs))
    if w.kind == "fewshot":
        run = Run(pamr, w, work)
        run.load(0)
        tc = pamr.config.TrainConfig(**w.prep_train)
        res = pamr.training.pretrain_run(run.clouds, run.model_cfg, tc)
        pamr.checkpoint.save_checkpoint(
            work / "pretrained.ckpt",
            res.model.param_dict(),
            run.fingerprint,
            res.rows[-1].step,
            res.optimizer.state_arrays(),
        )
    return {}


def mode_setup(pamr, w: Workload, spec: dict, work: Path) -> dict:
    Run(pamr, w, work).setup()
    t_ready = time.monotonic()
    return {"t_ready": t_ready, "ref_s": reference_seconds()}


def mode_measure(pamr, w: Workload, spec: dict, work: Path) -> dict:
    run = Run(pamr, w, work)
    run.setup()
    t_ready = time.monotonic()
    setup_ref_s = reference_seconds()
    n_inputs = w.n_inputs(spec["seconds"])
    calls = []
    while True:
        index = len(calls) if w.fresh_inputs else 0
        if index > 0:
            run.load(index)  # a fresh input set, loaded outside the timing
        ref_s = reference_seconds()
        rec = run.timed_call()
        rec.update(input=index, ref_s=ref_s)
        calls.append(rec)
        if rec["digest"] is None:
            break  # the program failed; more calls would fail the same way
        typical = statistics.median(c["seconds"] for c in calls)
        if time.monotonic() - t_ready + typical > spec["seconds"]:
            break
        if w.fresh_inputs and len(calls) >= n_inputs:
            break
    return {"t_ready": t_ready, "ref_s": setup_ref_s, "host": _host(), "calls": calls}


def mode_trace(pamr, w: Workload, spec: dict, work: Path) -> dict:
    """Traced set-up, then an untraced, a traced and an untraced main call."""
    from tracer import Tracer

    tracer = Tracer()
    run = Run(pamr, w, work)
    tracer.install()
    try:
        run.setup()
    finally:
        tracer.restore()
    # untraced calls on both sides of the traced one, so that neither the
    # first call's warm-up nor a drift in host speed reads as tracing cost
    before = run.timed_call()
    traced = run.timed_call(tracer)
    after = run.timed_call()
    tracer.write_tsv(Path(spec["spans"]))
    return {
        "host": _host(),
        "untraced": [before, after],
        "traced": traced,
        "wrapped_sites": tracer.wrapped_sites,
        "layers": tracer.aggregate(),
    }


MODES = {"prep": mode_prep, "setup": mode_setup, "measure": mode_measure, "trace": mode_trace}


def main() -> None:
    mode, spec_path = sys.argv[1], Path(sys.argv[2])
    spec = json.loads(spec_path.read_text())
    w = WORKLOADS[spec["workload"]]
    pamr = _import_pamr(Path(spec["root"]))
    out = MODES[mode](pamr, w, spec, Path(spec["work"]))
    Path(spec["result"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main()
