"""Acceptance gate: one test per shipping criterion, one printed line each.

Each test prints `acceptance NN <name>: PASS/FAIL (seconds)` past pytest's
capture so the lines appear in the live run log. Stated runtime budgets are
asserted, not advisory.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest

from pamr import tensor as T
from pamr.backbone import MaskedAutoencoder, pretrain_loss
from pamr.config import ModelConfig, TrainConfig
from pamr.data import ShapeSpec, gen_shapes
from pamr.embedding import LocalAttentionGate
from pamr.errors import ConfigError
from pamr.geometry import (
    build_scale_pyramid,
    chamfer_l2_batched,
    fps,
    knn,
    mask_and_backproject,
    masked_rows,
    normalize_points,
)
from pamr.gradcheck import op_gradient_suite, pipeline_gradient_check
from pamr.training import finetune_classify, pretrain_run

from _oracles import fps_reference, knn_reference


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_manager(request):
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _line(text: str) -> None:
    # fd-level capture also swallows sys.__stdout__, so suspend it briefly;
    # the leading newline detaches the line from pytest's in-progress output
    ctx = _CAPTURE.global_and_fixture_disabled() if _CAPTURE else nullcontext()
    with ctx:
        print("\n" + text, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(label: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _line(f"{label}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt > budget:
        _line(f"{label}: FAIL (runtime {dt:.1f}s, budget {budget:.0f}s)")
        raise AssertionError(f"{label} exceeded the {budget:.0f}s budget: {dt:.1f}s")
    _line(f"{label}: PASS ({dt:.1f}s)")


def test_sampling_matches_bruteforce_references():
    with criterion("acceptance 01 fps/knn oracle equivalence", budget=10.0):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(8, 257))
            pts = rng.normal(size=(n, 3))
            m = int(rng.integers(1, n + 1))
            assert np.array_equal(fps(pts[None], m)[0], fps_reference(pts, m))
        for _ in range(100):
            r = int(rng.integers(4, 513))
            q = int(rng.integers(1, 65))
            k = int(rng.integers(1, r + 1))
            refs = rng.normal(size=(r, 3))
            queries = rng.normal(size=(q, 3))
            assert np.array_equal(knn(queries[None], refs[None], k)[0][0], knn_reference(queries, refs, k))


def test_gradient_suite_and_pipeline_loss():
    with criterion("acceptance 02 finite-difference gradients", budget=60.0):
        reports = op_gradient_suite(seed=0, tol=1e-4)
        bad = [name for name, rep in reports.items() if not rep.ok]
        assert not bad, f"op gradient failures: {bad}"
        pipe = pipeline_gradient_check(seed=0, tol=1e-3)
        assert pipe.ok, pipe.summary()


def test_mask_partition_counts_and_nesting():
    with criterion("acceptance 03 masking invariants"):
        rng = np.random.default_rng(7)
        ratios = (0.5, 0.6, 0.7, 0.8, 0.9)
        for trial in range(50):
            mu = ratios[trial % len(ratios)]
            pts = rng.normal(size=(64, 3))
            pyr = build_scale_pyramid(pts[None], (16, 8), (4, 4))[0]
            plan = mask_and_backproject(pyr, mu, np.random.default_rng(trial))
            s = pyr.num_scales
            assert len(masked_rows(pyr, plan, s)) == int(np.floor(mu * pyr.size_at(s)))
            for i in range(1, s + 1):
                vis, msk = plan.visible[i], masked_rows(pyr, plan, i)
                joined = np.concatenate([vis, msk])
                assert np.array_equal(np.sort(joined), np.arange(pyr.size_at(i)))
                assert np.array_equal(vis, np.sort(vis))
                assert np.array_equal(msk, np.sort(msk))
            # a finer point survives exactly when some visible coarser
            # center holds it in its patch
            for i in range(s - 1, 0, -1):
                reachable = set()
                for c in plan.visible[i + 1]:
                    reachable.update(int(v) for v in pyr.neighbors[i][c])
                assert reachable == set(int(v) for v in plan.visible[i])


def test_chamfer_distance_properties():
    with criterion("acceptance 04 chamfer properties"):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(1, int(rng.integers(1, 40)), 3))
            b = rng.normal(size=(1, int(rng.integers(1, 40)), 3))
            ab = chamfer_l2_batched(a, b).item()
            ba = chamfer_l2_batched(b, a).item()
            assert ab == ba
            assert chamfer_l2_batched(a, a.copy()).item() == 0.0
            t = rng.normal(size=3)
            shifted = chamfer_l2_batched(a + t, b + t).item()
            assert abs(shifted - ab) <= 1e-9
        one = chamfer_l2_batched(np.zeros((1, 1, 3)), np.array([[[1.0, 0.0, 0.0]]])).item()
        assert abs(one - 2.0) <= 1e-12
        two = chamfer_l2_batched(
            np.array([[[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]]),
            np.array([[[1.0, 0.0, 0.0]]]),
        ).item()
        assert abs(two - 2.0) <= 1e-12


def test_channel_gate_contract():
    with criterion("acceptance 05 channel gate module"):
        rng = np.random.default_rng(5)
        x = T.constant(rng.normal(size=(4, 96, 32)))
        gate = LocalAttentionGate(96, 5, 32)
        out = gate(x)
        assert out.shape == x.shape
        # zero-initialized convolutions leave both sigmoids at 1/2, so the
        # summed gate is exactly 1 and the module is an identity
        assert np.array_equal(out.data, x.data)
        for p in gate.parameters():
            p.data = p.data + rng.normal(size=p.shape) * 0.7
        wx, wy = gate.gates(x)
        total = wx.data + wy.data
        assert np.all(total > 0.0) and np.all(total < 2.0)
        for avg_on, max_on in ((True, True), (True, False), (False, True)):
            g = LocalAttentionGate(96, 5, 32, avg_branch=avg_on, max_branch=max_on)
            assert g(x).shape == x.shape
        with pytest.raises(ConfigError, match="^the gate needs its average or its max branch$"):
            LocalAttentionGate(96, 5, 32, avg_branch=False, max_branch=False)


# eight clean shapes, two per kind; the schedule front-loads a long warmup
# so early epochs barely move and the logged first loss sits at the
# untrained level
OVERFIT_KINDS = ("sphere", "cube", "torus", "cylinder")
OVERFIT_TRAIN = dict(
    epochs=200,
    batch_size=8,
    base_lr=0.07,
    weight_decay=0.0,
    warmup_epochs=100,
    min_lr=1e-3,
    seed=2,
    mask_ratio=0.9,
    augment=False,
)


def test_small_fixed_set_overfit():
    with criterion("acceptance 06 overfit capability", budget=300.0):
        specs = [
            ShapeSpec(kind, n_points=64, jitter=0.0, seed=10 * i + j, label=i)
            for i, kind in enumerate(OVERFIT_KINDS)
            for j in range(2)
        ]
        clouds = gen_shapes(specs)
        result = pretrain_run(clouds, ModelConfig.tiny(), TrainConfig(**OVERFIT_TRAIN))
        assert result.rows[-1].step == 200
        first, last = result.rows[0].loss, result.rows[-1].loss
        _line(f"  overfit loss {first:.4f} -> {last:.4f} (ratio {last / first:.3f})")
        assert last < 0.10 * first


def test_synthetic_classification_end_to_end():
    with criterion("acceptance 07 desk-scale classification", budget=600.0):
        kinds = ("sphere", "cube", "torus", "cylinder")
        specs = [
            ShapeSpec(kind, n_points=128, jitter=0.01, seed=1000 * i + j, label=i)
            for i, kind in enumerate(kinds)
            for j in range(64)
        ]
        clouds = gen_shapes(specs)
        mc = ModelConfig(
            n_points=128,
            sizes=(32, 16),
            ks=(8, 8),
            dims=(16, 32),
            heads=2,
            encoder_blocks=1,
            decoder_blocks=1,
            interp_k=3,
            la_window=3,
            la_groups=4,
        )
        tc = TrainConfig(
            epochs=60,
            batch_size=16,
            base_lr=1e-3,
            weight_decay=0.0,
            warmup_epochs=6,
            seed=3,
            augment=False,
            head_hidden=(64,),
            holdout_fraction=0.25,
        )
        result = finetune_classify(clouds, mc, tc)
        _line(
            f"  train accuracy {result.train_accuracy:.3f}, "
            f"holdout accuracy {result.holdout_accuracy:.3f}"
        )
        assert result.train_accuracy == 1.0
        assert result.holdout_accuracy >= 0.90


QUICK_CFG = (
    "n_points = 32\nsizes = 16,8\nks = 4,4\ndims = 8,16\nheads = 2\n"
    "encoder_blocks = 1\ndecoder_blocks = 1\nla_window = 3\nla_groups = 4\n"
    "epochs = 2\nbatch_size = 4\nwarmup_epochs = 0\nseed = 5\n"
    "mask_ratio = 0.6\naugment = false\nhead_hidden = 16\n"
)


def quick_gen_data_args(cfg, data) -> list[str]:
    return [
        "gen-data",
        "--config",
        str(cfg),
        "--out",
        str(data),
        "--kinds",
        "sphere,cube",
        "--per-class",
        "4",
        "--n-points",
        "64",
    ]


@pytest.fixture
def quick_cli_setup(tmp_path):
    from pamr.cli import main

    cfg = tmp_path / "quick.cfg"
    cfg.write_text(QUICK_CFG)
    data = tmp_path / "data"
    rc = main(quick_gen_data_args(cfg, data))
    assert rc == 0
    return main, cfg, data, tmp_path


def test_ablation_grid_structure(quick_cli_setup):
    with criterion("acceptance 08 ablation grids"):
        main, cfg, data, tmp = quick_cli_setup
        expect = {
            "mask-ratio": ("mask_ratio", ["0.9", "0.8", "0.7", "0.6", "0.5"]),
            "la-grid": (
                "la_window,la_groups",
                ["5,16", "5,32", "7,16", "7,32"],
            ),
            "la-branches": (
                "avg_branch,max_branch",
                ["true,true", "true,false", "false,true", "false,false"],
            ),
        }
        for axis, (head, rows) in expect.items():
            out = tmp / f"ablate_{axis}.csv"
            rc = main(
                ["ablate", "--config", str(cfg), "--axis", axis,
                 "--data", str(data), "--out", str(out)]
            )
            assert rc == 0
            lines = out.read_text().strip().split("\n")
            assert lines[0] == f"{head},final_loss"
            got = [",".join(ln.split(",")[:-1]) for ln in lines[1:]]
            assert got == rows
            for ln in lines[1:]:
                float(ln.rsplit(",", 1)[1])  # the loss column must parse
        first = (tmp / "ablate_mask-ratio.csv").read_bytes()
        rerun = tmp / "ablate_again.csv"
        rc = main(
            ["ablate", "--config", str(cfg), "--axis", "mask-ratio",
             "--data", str(data), "--out", str(rerun)]
        )
        assert rc == 0
        assert rerun.read_bytes() == first


def test_identical_reruns_are_byte_identical(quick_cli_setup):
    with criterion("acceptance 09 deterministic reruns"):
        main, cfg, data, tmp = quick_cli_setup
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp / name
            rc = main(
                ["pretrain", "--config", str(cfg), "--data", str(data), "--out", str(out)]
            )
            assert rc == 0
            outs.append(out)
        a, b = outs
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()


def test_blas_thread_count_leaves_outputs_byte_identical(tmp_path):
    with criterion("acceptance 09 deterministic across BLAS thread counts"):
        import pamr

        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CFG + "n_way = 2\nm_shot = 2\ntest_per_class = 2\ntrials = 3\n")
        src = str(Path(pamr.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            run = tmp_path / f"threads{threads}"
            data, ckpt = run / "data", run / "pre" / "model.ckpt"
            for args in (
                quick_gen_data_args(cfg, data),
                ["pretrain", "--config", str(cfg), "--data", str(data), "--out", str(run / "pre")],
                ["fewshot", "--config", str(cfg), "--data", str(data),
                 "--checkpoint", str(ckpt), "--out", str(run / "fs")],
            ):
                proc = subprocess.run(
                    [sys.executable, "-c", "import sys; from pamr.cli import main; sys.exit(main(sys.argv[1:]))",
                     *args],
                    env=env, capture_output=True, text=True, timeout=300,
                )
                assert proc.returncode == 0, proc.stderr
            runs.append(run)
        a, b = runs
        for name in ("pre/model.ckpt", "pre/metrics.csv", "fs/fewshot.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


FULL_CONFIG_DIGEST = """
import hashlib
import numpy as np
from pamr.backbone import MaskedAutoencoder
from pamr.config import ModelConfig
from pamr.geometry import mask_and_backproject
from pamr.training import cloud_pyramids

cfg = ModelConfig()
rng = np.random.default_rng(0)
pyr = cloud_pyramids([rng.normal(size=(cfg.n_points, 3))], cfg)[0]
plan = mask_and_backproject(pyr, 0.6, rng)
model = MaskedAutoencoder(cfg, rng)
loss = model.loss(pyr, plan)
loss.backward()
digest = hashlib.sha256(loss.data.tobytes())
for _, p in model.named_parameters():
    digest.update(p.grad.tobytes())
print(digest.hexdigest())
"""


def test_blas_thread_count_leaves_full_config_gradients_byte_identical():
    with criterion("acceptance 09 full-config gradients across BLAS thread counts"):
        import pamr

        src = str(Path(pamr.__file__).resolve().parents[1])
        digests = []
        # 4 threads oversubscribe a 2-core host, which must not matter either
        for threads in ("1", "2", "4"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", FULL_CONFIG_DIGEST], env=env, capture_output=True, text=True, timeout=300
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1] == digests[2], digests


def test_full_size_config_shape_contract():
    with criterion("acceptance 10 full-size shape contract"):
        mc = ModelConfig()  # 2048 points, three scales, two decoder stages
        rng = np.random.default_rng(0)
        pts = normalize_points(rng.normal(size=(mc.n_points, 3)))
        pyr = build_scale_pyramid(pts[None], mc.sizes, mc.ks)[0]
        assert pyr.sizes == (2048, 512, 256, 64)
        plan = mask_and_backproject(pyr, 0.6, rng)
        assert len(masked_rows(pyr, plan, 3)) == 38
        assert len(plan.visible[3]) == 26
        model = MaskedAutoencoder(mc, rng)
        stages = model.encoder(pyr, plan)
        stage_dims = [(s.shape[0], s.shape[1]) for s in stages]
        assert stage_dims[0] == (len(plan.visible[1]), 96)
        assert stage_dims[1] == (len(plan.visible[2]), 192)
        assert stage_dims[2] == (26, 384)
        assert model.decoder(stages, pyr, plan).shape == (256, 192)
        rec = model.reconstruct(pyr, plan)
        assert rec.pred.shape == (len(masked_rows(pyr, plan, 2)), 8, 3)
        pretrain_loss(rec.pred, pyr, plan).backward()
        touched = [p for p in model.parameters() if p.grad is not None]
        assert len(touched) > 0
        assert all(np.all(np.isfinite(p.grad)) for p in touched)
