import collections
import functools
import gc
import itertools
import math
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time
import types
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pamr import tensor as T
from pamr.backbone import CloudClassifier, MaskedAutoencoder, head_logits
from pamr.config import ModelConfig, TrainConfig
from pamr.data import ShapeSpec, gen_shapes
from pamr.errors import CheckpointCompatibilityError, ConfigError, NonFiniteError, PamrError, ShapeError, WorkerError
from pamr.geometry import PointCloud, ScalePyramid, mask_and_backproject, normalize_points
from pamr.metrics import format_metrics
from pamr.tensor import Tensor
import _oracles
import pamr.pool
import pamr.training
from pamr.checkpoint import encode_checkpoint, load_encoder_weights
from pamr.cli import _build_parser
from pamr.training import (
    AdamW,
    NO_GRAD_BUDGET,
    augment,
    cloud_pyramids,
    cross_entropy,
    few_shot_eval,
    finetune_classify,
    lr_at,
    pack_size,
    pooled_features,
    pretrain_run,
    _stratified_split,
)

TINY = ModelConfig.tiny()
# the acceptance-07 architecture
DESK = ModelConfig(
    n_points=128, sizes=(32, 16), ks=(8, 8), dims=(16, 32), heads=2, encoder_blocks=1,
    decoder_blocks=1, interp_k=3, la_window=3, la_groups=4,
)


def small_dataset(per_class=4, n_points=64, jitter=0.02):
    kinds = ["sphere", "cube", "torus", "cylinder"]
    specs = [
        ShapeSpec(k, n_points, jitter, seed=100 * i + j, label=i)
        for i, k in enumerate(kinds)
        for j in range(per_class)
    ]
    return gen_shapes(specs)


def desk_clouds(per_kind: int) -> list[PointCloud]:
    """Desk-scale clouds of 128 points, `per_kind` of each of four labeled kinds."""
    return gen_shapes([
        ShapeSpec(kind, 128, 0.01, seed=1000 * i + j, label=i)
        for i, kind in enumerate(("sphere", "cube", "torus", "cylinder"))
        for j in range(per_kind)
    ])


_FIT = pamr.training._fit


def fixed_workers(workers: int):
    """A CPU affinity of `workers` CPUs besides this process's own, for `os.sched_getaffinity`."""
    return lambda pid: set(range(workers + 1))


def with_workers(monkeypatch, workers: int, opts: list | None = None) -> None:
    """Run every use of the pool on `workers` worker processes (0: all in
    this process): packs 1.. of every training batch, pyramid builds,
    encodes and few-shot head fits, the jobs from the first call on. Record
    each training call's optimizer in `opts`."""
    monkeypatch.setattr(os, "sched_getaffinity", fixed_workers(workers))
    monkeypatch.setattr(pamr.pool, "_SPREAD_AFTER_S", 0.0)
    if opts is not None:
        monkeypatch.setattr(pamr.training, "_fit", lambda model, opt, *a: opts.append(opt) or _FIT(model, opt, *a))


class TestAdamW:
    def test_first_step_moves_by_lr(self):
        # with m_hat = v_hat = g = 1 the very first update is exactly -lr
        p = T.param(np.array([1.0]))
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        p._grad = np.array([1.0])
        opt.step()
        assert abs(p.data[0] - (1.0 - 0.1 / (1.0 + 1e-8))) < 1e-15

    def test_decoupled_weight_decay(self):
        p = T.param(np.array([2.0]))
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
        p._grad = np.array([1.0])
        opt.step()
        # adam part ~0.1, decay part = lr*wd*p = 0.1*0.5*2
        expect = 2.0 - 0.1 * (1.0 / (1.0 + 1e-8)) - 0.1 * 0.5 * 2.0
        assert abs(p.data[0] - expect) < 1e-12

    def test_zero_grad_means_pure_decay(self):
        p = T.param(np.array([3.0]))
        opt = AdamW({"p": p}, lr=0.01, weight_decay=0.1)
        opt.step()
        assert abs(p.data[0] - 3.0 * (1.0 - 0.01 * 0.1)) < 1e-12

    def test_nonfinite_gradient_aborts_before_any_update(self):
        p1 = T.param(np.array([1.0]))
        p2 = T.param(np.array([1.0]))
        opt = AdamW({"a": p1, "b": p2}, lr=0.1)
        p1._grad = np.array([1.0])
        p2._grad = np.array([np.nan])
        with pytest.raises(NonFiniteError, match="b"):
            opt.step()
        assert p1.data[0] == 1.0 and opt.t == 0

    def test_state_round_trip(self):
        p = T.param(np.array([1.0, 2.0]))
        opt = AdamW({"p": p}, lr=0.1)
        p._grad = np.array([0.5, -0.5])
        opt.step()
        t, m, v = opt.state_arrays()
        opt2 = AdamW({"p": p}, lr=0.1)
        opt2.load_state(t, m, v)
        assert opt2.t == 1
        assert np.array_equal(opt2.m["p"], opt.m["p"])

    def test_load_state_validates_names(self):
        p = T.param(np.array([1.0]))
        opt = AdamW({"p": p}, lr=0.1)
        with pytest.raises(ConfigError):
            opt.load_state(1, {"q": np.zeros(1)}, {"q": np.zeros(1)})

    def test_load_state_validates_shapes(self):
        opt = AdamW({"p": T.param(np.array([1.0]))}, lr=0.1)
        with pytest.raises(ConfigError, match="^optimizer state shape mismatch for 'p'$"):
            opt.load_state(1, {"p": np.zeros(1)}, {"p": np.zeros(2)})


class TestSchedule:
    CFG = TrainConfig(epochs=20, warmup_epochs=4, base_lr=1e-3, min_lr=1e-5)

    def test_warmup_is_linear_and_hits_base(self):
        lrs = [lr_at(e, self.CFG) for e in range(4)]
        assert lrs == [0.25e-3, 0.5e-3, 0.75e-3, 1e-3]

    def test_final_epoch_reaches_min_lr(self):
        assert abs(lr_at(19, self.CFG) - 1e-5) < 1e-18

    def test_cosine_midpoint(self):
        # halfway through decay the lr is the average of base and min
        mid = lr_at(4 + (19 - 4) // 2, self.CFG)
        # progress 7/15 is not exactly half; compute directly
        progress = (11 - 4) / (19 - 4)
        expect = 1e-5 + (1e-3 - 1e-5) * 0.5 * (1 + math.cos(math.pi * progress))
        assert abs(lr_at(11, self.CFG) - expect) < 1e-18
        assert 1e-5 < mid < 1e-3

    def test_monotone_decay_after_warmup(self):
        lrs = [lr_at(e, self.CFG) for e in range(4, 20)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_no_decay_room_stays_at_base(self):
        cfg = TrainConfig(epochs=3, warmup_epochs=2, base_lr=1e-3)
        assert lr_at(2, cfg) == 1e-3

    def test_epoch_out_of_range(self):
        with pytest.raises(ConfigError):
            lr_at(20, self.CFG)
        with pytest.raises(ConfigError):
            lr_at(-1, self.CFG)


class TestAugment:
    def test_affine_within_ranges(self):
        cfg = TrainConfig()
        rng = np.random.default_rng(0)
        pts = np.random.default_rng(1).normal(size=(50, 3))
        for _ in range(20):
            out = augment(ScalePyramid([pts], [], [], [np.array([0, len(pts)])]), rng, cfg).points[0]
            # recover scale from pairwise distances, translation from centroids
            s = np.linalg.norm(out[0] - out[1]) / np.linalg.norm(pts[0] - pts[1])
            assert cfg.scale_lo - 1e-9 <= s <= cfg.scale_hi + 1e-9
            t = out.mean(axis=0) - s * pts.mean(axis=0)
            assert np.all(np.abs(t) <= cfg.translate + 1e-9)

    def test_same_generator_state_same_output(self):
        cfg = TrainConfig()
        pts = np.random.default_rng(2).normal(size=(10, 3))
        a = augment(ScalePyramid([pts], [], [], [np.array([0, len(pts)])]), np.random.default_rng(5), cfg).points[0]
        b = augment(ScalePyramid([pts], [], [], [np.array([0, len(pts)])]), np.random.default_rng(5), cfg).points[0]
        assert np.array_equal(a, b)


def count_pyramid_builds(monkeypatch, clouds) -> list:
    """Spy on `cloud_pyramids`: the index of each cloud it builds, in call
    order (None for points that are no cloud's own array)."""
    built = []
    build = pamr.training.cloud_pyramids

    def counting(points, model_cfg):
        built.extend(next((i for i, c in enumerate(clouds) if c.points is p), None) for p in points)
        return build(points, model_cfg)

    monkeypatch.setattr(pamr.training, "cloud_pyramids", counting)
    return built


class TestModelInput:
    """Each call builds one pyramid per cloud; augmentation maps its coordinates."""

    CFG = TrainConfig(
        epochs=3, batch_size=4, warmup_epochs=1, seed=7, mask_ratio=0.6, head_hidden=(16,),
    )

    def test_augment_maps_normalized_coordinates_and_keeps_indices(self, monkeypatch):
        assert self.CFG.augment
        seen = []
        loss, logits = MaskedAutoencoder.loss, CloudClassifier.logits

        def loss_spy(model, pyr, plan):
            seen.extend(_oracles.unstack_pack(pyr))
            return loss(model, pyr, plan)

        def logits_spy(clf, pyr):
            seen.extend(_oracles.unstack_pack(pyr))
            return logits(clf, pyr)

        monkeypatch.setattr(MaskedAutoencoder, "loss", loss_spy)
        monkeypatch.setattr(CloudClassifier, "logits", logits_spy)
        clouds = small_dataset(per_class=2)
        pretrain_run(clouds, TINY, self.CFG)
        n_pretrain = len(seen)
        res = finetune_classify(clouds, TINY, self.CFG)
        assert n_pretrain == self.CFG.epochs * len(clouds)
        assert len(seen) - n_pretrain == self.CFG.epochs * res.train_idx.size
        plain = [_oracles.pyramid_of(c.points, TINY) for c in clouds]
        for pyr in seen:
            (ref,) = [
                p for p in plain
                if all(map(np.array_equal, p.sample_idx + p.neighbors, pyr.sample_idx + pyr.neighbors))
            ]
            p0, a0 = ref.points[0], pyr.points[0]
            assert not np.allclose(a0, p0, rtol=0.0, atol=1e-6)
            # least-squares s and t of a0 = s*p0 + t
            dp, da = p0 - p0.mean(axis=0), a0 - a0.mean(axis=0)
            s = float((dp * da).sum() / (dp * dp).sum())
            t = a0.mean(axis=0) - s * p0.mean(axis=0)
            assert self.CFG.scale_lo <= s <= self.CFG.scale_hi
            assert np.all(np.abs(t) <= self.CFG.translate + 1e-12)
            for level, want in zip(pyr.points, ref.points):
                assert np.abs(level - (s * want + t)).max() <= 1e-12
            for i, idx in enumerate(pyr.sample_idx):
                assert np.array_equal(pyr.points[i + 1], pyr.points[i][idx])

    @pytest.mark.parametrize("run", ["pretrain", "unfrozen", "frozen"])
    def test_one_pyramid_per_cloud_per_call(self, run, monkeypatch):
        clouds = small_dataset(per_class=2)
        built = count_pyramid_builds(monkeypatch, clouds)
        if run == "pretrain":
            pretrain_run(clouds, TINY, self.CFG)
        else:
            cfg = TrainConfig(**{**self.CFG.__dict__, "freeze_backbone": run == "frozen"})
            finetune_classify(clouds, TINY, cfg)
        assert built == list(range(len(clouds)))


    def test_mixed_point_counts_build_each_cloud_as_alone(self, monkeypatch):
        # 26 clouds of 128 points and 5 of 100, interleaved: the 128-point
        # clouds take three no-grad packs, the 100-point ones a fourth
        rng = np.random.default_rng(3)
        clouds = [rng.normal(size=(100 if i % 6 == 5 else 128, 3)) for i in range(31)]
        stacks, build = [], pamr.training.build_scale_pyramid

        def spy(points, sizes, ks):
            stacks.append(points.shape[0])
            return build(points, sizes, ks)

        monkeypatch.setattr(pamr.training, "build_scale_pyramid", spy)
        with_workers(monkeypatch, 0)  # the spy sees the builds of this process only
        pyramids = cloud_pyramids(clouds, DESK)
        assert stacks == [12, 12, 2, 5]
        monkeypatch.undo()
        for points, pyr in zip(clouds, pyramids):
            alone = _oracles.pyramid_of(points, DESK)
            for field in ("points", "sample_idx", "neighbors", "offsets"):
                got, want = getattr(pyr, field), getattr(alone, field)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want], field
            sample_idx, neighbors, levels = _oracles.pyramid_reference(
                normalize_points(points), DESK.sizes, DESK.ks, _oracles.fps_reference, _oracles.knn_reference
            )
            assert [a.tobytes() for a in pyr.sample_idx] == [a.tobytes() for a in sample_idx]
            assert [a.tobytes() for a in pyr.neighbors] == [a.tobytes() for a in neighbors]
            assert [a.tobytes() for a in pyr.points] == [a.tobytes() for a in levels]

    @pytest.mark.parametrize("run", [pretrain_run, finetune_classify, few_shot_eval])
    def test_too_small_cloud_is_named_before_any_pyramid_is_built(self, run, monkeypatch):
        clouds = small_dataset(per_class=3, n_points=128)
        clouds[5] = PointCloud(clouds[5].points[:19], clouds[5].label)
        built, build = [], pamr.training.build_scale_pyramid
        monkeypatch.setattr(pamr.training, "build_scale_pyramid", lambda *a: built.append(a) or build(*a))
        cfg = TrainConfig(
            epochs=1, batch_size=4, warmup_epochs=0, augment=False, head_hidden=(8,),
            n_way=2, m_shot=1, test_per_class=1, trials=1,
        )
        message = "^cloud 5 in dataset order has 19 points, fewer than the first scale size 32$"
        with pytest.raises(ConfigError, match=message):
            run(clouds, DESK, cfg)
        assert built == []


def step_events(protocol, monkeypatch, workers: int):
    """Two epochs of `protocol` on 16 desk clouds in batches of 16, with
    augmentation, at `workers` worker processes. Returns one step's draws,
    the events logged in this process (draws, pack forwards, packs handed to
    the pool, optimizer steps) and the epoch count."""
    events = []

    def logged(event, fn):
        def spy(*args, **kwargs):
            events.append(event)
            return fn(*args, **kwargs)

        return spy

    monkeypatch.setattr(pamr.training, "augment", logged("augment", augment))
    mask = pamr.training.mask_and_backproject
    monkeypatch.setattr(pamr.training, "mask_and_backproject", logged("mask", mask))
    monkeypatch.setattr(MaskedAutoencoder, "loss", logged("forward", MaskedAutoencoder.loss))
    monkeypatch.setattr(CloudClassifier, "logits", logged("forward", CloudClassifier.logits))
    monkeypatch.setattr(AdamW, "step", logged("step", AdamW.step))
    send = pamr.pool._POOL.send

    def send_spy(w, session, items):
        if session.job[0] is pamr.training._pack_gradient:  # packs, not pyramid builds or encodes
            events.append("send")
        send(w, session, items)

    monkeypatch.setattr(pamr.pool._POOL, "send", send_spy)
    with_workers(monkeypatch, workers)
    cfg = TrainConfig(
        epochs=2, batch_size=16, warmup_epochs=0, seed=3, augment=True, head_hidden=(16,),
        holdout_fraction=0.25,
    )
    protocol(desk_clouds(4), DESK, cfg)
    draws = ["augment", "mask"] * 16 if protocol is pretrain_run else ["augment"] * 12
    return draws, events, cfg.epochs


class TestPackPlanner:
    def test_budget_gives_one_default_cloud_and_eight_desk_clouds_per_graph(self):
        assert pack_size(ModelConfig()) == 1
        assert pack_size(DESK) == 8

    def test_no_grad_budget_gives_one_default_cloud_and_twelve_desk_clouds_per_pass(self):
        assert pack_size(ModelConfig(), NO_GRAD_BUDGET) == 1
        assert pack_size(DESK, NO_GRAD_BUDGET) == 12

    def test_a_batch_keeps_its_remainder_pack(self, monkeypatch):
        packs, loss = [], MaskedAutoencoder.loss

        def loss_spy(model, pyr, plan):
            packs.append(pyr.offsets[0].size - 1)
            return loss(model, pyr, plan)

        monkeypatch.setattr(MaskedAutoencoder, "loss", loss_spy)
        with_workers(monkeypatch, 0)  # the spy sees the forwards of this process only
        clouds = gen_shapes([ShapeSpec("sphere", 128, 0.01, seed=s, label=0) for s in range(10)])
        cfg = TrainConfig(epochs=1, batch_size=10, warmup_epochs=0, seed=0, augment=False)
        pretrain_run(clouds, DESK, cfg)
        assert packs == [8, 2]

    @pytest.mark.parametrize("protocol", [pretrain_run, finetune_classify])
    def test_a_step_makes_every_draw_before_its_first_forward(self, protocol, monkeypatch):
        """Batches of 16 desk clouds (12 training clouds when fine-tuning) in
        packs of 8, with augmentation: each step logs every augment and mask
        draw, then its two pack forwards, then its optimizer step."""
        draws, events, epochs = step_events(protocol, monkeypatch, workers=0)
        assert events == (draws + ["forward", "forward", "step"]) * epochs

    def test_the_budget_is_no_setting(self):
        assert ModelConfig.field_names() == (
            "n_points", "sizes", "ks", "dims", "heads", "encoder_blocks", "decoder_blocks",
            "interp_k", "la_enabled", "la_window", "la_groups", "la_avg_branch", "la_max_branch",
            "zero_scale_head",
        )
        assert TrainConfig.field_names() == (
            "epochs", "batch_size", "base_lr", "weight_decay", "warmup_epochs", "min_lr", "seed",
            "mask_ratio", "augment", "scale_lo", "scale_hi", "translate", "checkpoint_every",
            "head_hidden", "freeze_backbone", "holdout_fraction", "n_way", "m_shot", "trials",
            "test_per_class",
        )
        commands = next(a for a in _build_parser()._actions if a.choices).choices
        for name, sub in commands.items():
            assert not [flag for flag in sub._option_string_actions if "pack" in flag], name


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = T.constant(np.zeros((2, 4)))
        loss = cross_entropy(logits, np.array([0, 3]))
        assert abs(loss.item() - math.log(4.0)) < 1e-12

    def test_perfect_confidence_near_zero(self):
        big = np.full((1, 3), -50.0)
        big[0, 1] = 50.0
        loss = cross_entropy(T.constant(big), np.array([1]))
        assert loss.item() < 1e-12

    def test_gradient_points_toward_correct_class(self):
        logits = T.param(np.zeros((1, 3)))
        cross_entropy(logits, np.array([2])).backward()
        g = logits.grad[0]
        assert g[2] < 0 and g[0] > 0 and g[1] > 0
        assert abs(g.sum()) < 1e-12

    def test_label_validation(self):
        logits = T.constant(np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            cross_entropy(logits, np.array([0]))
        with pytest.raises(ConfigError):
            cross_entropy(logits, np.array([0, 3]))
        for labels in ([0.7, 1.2], [0.0, 1.0], [True, False]):  # refused, not truncated or cast
            with pytest.raises(ConfigError, match="^labels must be integers, got dtype "):
                cross_entropy(logits, np.array(labels))


class TestPretrain:
    CFG = TrainConfig(
        epochs=3, batch_size=4, base_lr=1e-3, warmup_epochs=1, seed=7,
        mask_ratio=0.6, augment=False,
    )

    def test_loss_series_is_deterministic(self):
        clouds = small_dataset(per_class=1)
        a = pretrain_run(clouds, TINY, self.CFG)
        b = pretrain_run(clouds, TINY, self.CFG)
        assert a.losses == b.losses

    def test_different_seed_different_series(self):
        clouds = small_dataset(per_class=1)
        cfg2 = TrainConfig(**{**self.CFG.__dict__, "seed": 8})
        a = pretrain_run(clouds, TINY, self.CFG)
        b = pretrain_run(clouds, TINY, cfg2)
        assert a.losses != b.losses

    def test_metrics_rows_follow_schedule(self):
        clouds = small_dataset(per_class=1)
        res = pretrain_run(clouds, TINY, self.CFG)
        assert len(res.rows) == 3  # 4 clouds, batch 4, 3 epochs
        assert [r.step for r in res.rows] == [1, 2, 3]
        for r in res.rows:
            assert r.lr == lr_at(r.epoch, self.CFG)

    def test_loss_drops_on_fixed_batch(self):
        clouds = small_dataset(per_class=2)
        cfg = TrainConfig(
            epochs=60, batch_size=8, base_lr=0.03, warmup_epochs=20,
            min_lr=1e-3, weight_decay=0.0, seed=1, mask_ratio=0.9, augment=False,
        )
        res = pretrain_run(clouds, TINY, cfg)
        assert res.losses[-1] < 0.6 * res.losses[0]

    def test_checkpoint_hook_fires(self):
        clouds = small_dataset(per_class=1)
        cfg = TrainConfig(
            epochs=4, batch_size=4, base_lr=1e-3, warmup_epochs=1, seed=7,
            mask_ratio=0.6, augment=False, checkpoint_every=2,
        )
        tags = []
        pretrain_run(clouds, TINY, cfg, on_checkpoint=lambda m, o, s, tag: tags.append((s, tag)))
        assert tags == [(2, "epoch0002"), (4, "final")]

    def test_abort_checkpoints_last_finite_step_and_reraises(self):
        cfg = TrainConfig(**{**self.CFG.__dict__, "base_lr": 1e200, "min_lr": 1e200})
        seen = []

        def hook(model, opt, step, tag):
            seen.append((tag, step))
            assert all(np.isfinite(p.data).all() for p in model.param_dict().values())

        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError):
                pretrain_run(small_dataset(per_class=1), TINY, cfg, on_checkpoint=hook)
        assert seen == [("aborted", 1)]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            pretrain_run([], TINY, self.CFG)

    def test_zero_mask_ratio_rejected(self):
        cfg = TrainConfig(**{**self.CFG.__dict__, "mask_ratio": 0.0})
        with pytest.raises(ConfigError, match="mask_ratio"):
            pretrain_run(small_dataset(per_class=1), TINY, cfg)


class TestSplit:
    def test_stratified_and_disjoint(self):
        labels = np.array([0] * 8 + [1] * 8 + [2] * 4)
        rng = np.random.default_rng(0)
        train, hold = _stratified_split(labels, 0.25, rng)
        assert set(train) | set(hold) == set(range(20))
        assert set(train) & set(hold) == set()
        for cls, want in [(0, 2), (1, 2), (2, 1)]:
            assert np.sum(labels[hold] == cls) == want

    def test_every_class_keeps_a_train_item(self):
        labels = np.array([0, 0, 1])
        train, hold = _stratified_split(labels, 0.9, np.random.default_rng(1))
        assert 1 in labels[train]
        assert np.sum(labels[train] == 0) >= 1


class TestFinetune:
    def test_frozen_head_fits_training_set(self):
        clouds = small_dataset(per_class=4)
        cfg = TrainConfig(
            epochs=150, batch_size=16, base_lr=1e-2, warmup_epochs=5, seed=3,
            augment=False, head_hidden=(32,), freeze_backbone=True,
            weight_decay=0.0, holdout_fraction=0.25,
        )
        res = finetune_classify(clouds, TINY, cfg)
        assert res.train_accuracy == 1.0
        assert res.rows[-1].accuracy is not None

    def test_labels_required(self):
        clouds = [PointCloud(np.random.default_rng(0).normal(size=(32, 3)))]
        with pytest.raises(ConfigError, match="label"):
            finetune_classify(clouds, TINY, TrainConfig())

    @pytest.mark.parametrize("freeze_backbone", [True, False])
    def test_deterministic(self, freeze_backbone):
        clouds = small_dataset(per_class=2)
        cfg = TrainConfig(
            epochs=5, batch_size=8, base_lr=1e-3, warmup_epochs=1, seed=5,
            augment=False, head_hidden=(16,), freeze_backbone=freeze_backbone,
        )
        a = finetune_classify(clouds, TINY, cfg)
        b = finetune_classify(clouds, TINY, cfg)
        assert [r.loss for r in a.rows] == [r.loss for r in b.rows]
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_one_live_graph_in_unfrozen_fine_tune(self, monkeypatch):
        refs, alive = [], []
        logits = CloudClassifier.logits

        def spy(clf, pyramids):
            alive.append(bool(refs) and refs[-1]() is not None)
            out = logits(clf, pyramids)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(CloudClassifier, "logits", spy)
        cfg = TrainConfig(
            epochs=2, batch_size=4, warmup_epochs=0, seed=5, augment=False, head_hidden=(16,),
        )
        res = finetune_classify(small_dataset(per_class=2), TINY, cfg)
        # one graph per batch: the quick model packs more clouds than a batch holds
        assert len(alive) == cfg.epochs * math.ceil(res.train_idx.size / cfg.batch_size)
        assert not any(alive)

    def test_packed_step_matches_per_cloud_oracle(self, monkeypatch):
        """One unfrozen step on the desk model, packs of eight and four, against
        the cloud-by-cloud step it replaced."""
        clouds = desk_clouds(4)
        cfg = TrainConfig(
            epochs=1, batch_size=16, base_lr=1e-3, weight_decay=0.0, warmup_epochs=0, seed=3,
            augment=False, head_hidden=(64,), holdout_fraction=0.25,
        )
        batches, packs, seen = [], [], []
        with_workers(monkeypatch, 0)  # the spies see the packs of this process only
        fit, logits, step = pamr.training._fit, CloudClassifier.logits, AdamW.step

        def fit_spy(model, opt, cfg, orders, draw, *rest):
            def draw_spy(batch):
                batches.append(batch)
                return draw(batch)

            return fit(model, opt, cfg, orders, draw_spy, *rest)

        def logits_spy(clf, pyramid):
            packs.append(pyramid.offsets[0].size - 1)
            return logits(clf, pyramid)

        def step_spy(opt):
            seen.append({n: (p.data.copy(), p.grad.copy()) for n, p in opt.params.items()})
            step(opt)

        monkeypatch.setattr(pamr.training, "_fit", fit_spy)
        monkeypatch.setattr(CloudClassifier, "logits", logits_spy)
        monkeypatch.setattr(AdamW, "step", step_spy)
        res = finetune_classify(clouds, DESK, cfg)
        monkeypatch.undo()
        assert len(batches) == len(seen) == 1
        assert batches[0].size == 12 and packs == [8, 4]
        train = [clouds[i] for i in res.train_idx[batches[0]]]
        pyramids = [_oracles.pyramid_of(c.points, DESK) for c in train]
        labels = np.array([c.label for c in train])
        clf = res.classifier
        for name, p in clf.param_dict().items():
            p.data = seen[0][name][0]
            p.zero_grad()

        def loss_of(i):
            logits = clf.logits(pyramids[i])
            return cross_entropy(logits, labels[i : i + 1]), np.argmax(logits.data[0]) == labels[i]

        ref, ref_acc = _oracles.per_cloud_step(np.arange(len(train)), loss_of)
        assert abs(res.rows[0].loss - ref) <= 1e-15 * abs(ref)
        assert res.rows[0].accuracy == ref_acc
        for name, p in clf.param_dict().items():
            assert np.abs(seen[0][name][1] - p.grad).max() <= 1e-12 * np.abs(p.grad).max(), name

    def test_frozen_train_accuracy_matches_re_encoding(self):
        clouds = small_dataset(per_class=3)
        cfg = TrainConfig(
            epochs=4, batch_size=8, base_lr=1e-2, warmup_epochs=1, seed=6,
            augment=False, head_hidden=(16,), freeze_backbone=True,
        )
        res = finetune_classify(clouds, TINY, cfg)
        train = [clouds[i] for i in res.train_idx]
        feats = pooled_features(res.classifier, [_oracles.pyramid_of(c.points, TINY) for c in train])
        with T.no_grad():
            logits = head_logits(res.classifier.head, T.constant(feats)).data
        labels = np.array([c.label for c in train])
        assert res.train_accuracy == float(np.mean(np.argmax(logits, axis=1) == labels))

    def test_pretrained_weights_are_loaded(self):
        clouds = small_dataset(per_class=2)
        pre_cfg = TrainConfig(
            epochs=2, batch_size=8, base_lr=1e-3, warmup_epochs=1, seed=2,
            mask_ratio=0.6, augment=False,
        )
        pre = pretrain_run(clouds, TINY, pre_cfg)
        params = {k: v.data for k, v in pre.model.param_dict().items()}
        cfg = TrainConfig(
            epochs=2, batch_size=8, base_lr=1e-3, warmup_epochs=1, seed=5,
            augment=False, head_hidden=(16,), freeze_backbone=True,
        )
        res = finetune_classify(clouds, TINY, cfg, pretrained=params)
        enc = dict(res.classifier.named_parameters())
        key = "encoder.tokenizer.conv_a.weight"
        assert np.array_equal(enc[key].data, params[key])

    def test_load_encoder_weights_rejects_headless_checkpoint(self):
        clouds = small_dataset(per_class=1)
        cfg = TrainConfig(epochs=1, batch_size=4, warmup_epochs=0, seed=0, augment=False)
        from pamr.backbone import CloudClassifier

        clf = CloudClassifier(TINY, 2, (8,), np.random.default_rng(0))
        with pytest.raises(CheckpointCompatibilityError, match="no matching encoder"):
            load_encoder_weights(clf, {"head.0.weight": np.zeros((2, 2))})


FEW_SHOT_CFG = TrainConfig(
    epochs=3, batch_size=4, base_lr=5e-3, warmup_epochs=1, seed=4, augment=False,
    head_hidden=(16,), n_way=2, m_shot=2, trials=4, test_per_class=2, weight_decay=0.0,
)


@pytest.fixture(scope="module")
def few_shot_clouds():
    return small_dataset(per_class=5)


@pytest.fixture(scope="module")
def encoder_checkpoint(few_shot_clouds):
    """Parameters of a short pretrain, as a checkpoint holds them."""
    cfg = TrainConfig(epochs=1, batch_size=4, warmup_epochs=0, seed=2, augment=False)
    model = pretrain_run(few_shot_clouds, TINY, cfg).model
    return {name: p.data for name, p in model.named_parameters()}


def record_head_features(monkeypatch, module) -> list:
    """Spy on `module`'s head fit and accuracy: the bytes of every feature
    matrix the heads train and are scored on, in call order."""
    seen = []
    fit, accuracy = module._fit_frozen_head, module._accuracy

    def fit_spy(head, feats, *args):
        seen.append(feats.tobytes())
        return fit(head, feats, *args)

    def accuracy_spy(head, feats, labels):
        seen.append(feats.tobytes())
        return accuracy(head, feats, labels)

    monkeypatch.setattr(module, "_fit_frozen_head", fit_spy)
    monkeypatch.setattr(module, "_accuracy", accuracy_spy)
    return seen


_DEFAULT_RNG = np.random.default_rng


class LoggedGenerator:
    """A numpy Generator that logs each draw as (method, its size or first argument)."""

    def __init__(self, seed, log: list):
        self._rng, self._log = _DEFAULT_RNG(seed), log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def logged(*args, **kwargs):
            self._log.append((name, kwargs["size"] if "size" in kwargs else args[0] if args else None))
            return method(*args, **kwargs)

        return logged


def log_draws(monkeypatch, log: list) -> None:
    """Log in `log` every draw of every generator made from here on."""
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: LoggedGenerator(seed, log))


def init_draws(model_cfg: ModelConfig, n_classes: int, head_hidden: tuple) -> list:
    """The draws a CloudClassifier's init makes."""
    log = []
    CloudClassifier(model_cfg, n_classes, head_hidden, LoggedGenerator(0, log))
    return log


class TestFewShot:
    @pytest.mark.parametrize("weights", ["full", "partial", "none"])
    def test_per_trial_matches_re_encoding_reference(
        self, weights, few_shot_clouds, encoder_checkpoint, monkeypatch
    ):
        pretrained = None
        if weights != "none":
            pretrained = dict(encoder_checkpoint)
        if weights == "partial":
            # a randomly initialised entry, so the trials' encoders differ
            del pretrained["encoder.stages.0.0.fc1.weight"]
        with_workers(monkeypatch, 0)  # the spies see the head fits of this process only
        got_feats = record_head_features(monkeypatch, pamr.training)
        ref_feats = record_head_features(monkeypatch, _oracles)
        got = few_shot_eval(few_shot_clouds, TINY, FEW_SHOT_CFG, pretrained=pretrained)
        assert got.per_trial == _oracles.few_shot_reference(few_shot_clouds, TINY, FEW_SHOT_CFG, pretrained)
        # accuracies over a few test clouds are coarse; the features are not
        assert len(got_feats) == 2 * FEW_SHOT_CFG.trials
        assert got_feats == ref_feats

    @pytest.mark.parametrize("full_checkpoint", [True, False])
    def test_encodes_each_cloud_once_per_call_with_full_checkpoint(
        self, full_checkpoint, few_shot_clouds, encoder_checkpoint, monkeypatch
    ):
        built = count_pyramid_builds(monkeypatch, few_shot_clouds)
        encoded, pool = [], pamr.training.pooled_features
        monkeypatch.setattr(pamr.training, "pooled_features", lambda clf, p: encoded.extend(p) or pool(clf, p))
        pretrained = encoder_checkpoint if full_checkpoint else None
        few_shot_eval(few_shot_clouds, TINY, FEW_SHOT_CFG, pretrained=pretrained)
        c = FEW_SHOT_CFG
        per_call = c.trials * c.n_way * (c.m_shot + c.test_per_class)
        assert len(set(built)) < per_call  # the trials share clouds
        # one pyramid per drawn cloud per call, with or without a checkpoint,
        # and every encode reads one of them
        assert None not in built and len(built) == len(set(built))
        assert len({id(pyr) for pyr in encoded}) == len(built)
        # a trial whose encoder is partly its own random init re-encodes its clouds
        assert len(encoded) == (len(built) if full_checkpoint else per_call)

    @pytest.mark.parametrize("workers", [0, 1], ids=["in-process", "one worker"])
    def test_draws_come_in_the_order_of_one_trial_at_a_time(self, workers, few_shot_clouds, monkeypatch):
        """Per trial: the class choice, one shuffle per chosen class, the
        classifier init, then the head fit's epoch orders, and trial after
        trial, as when each trial ran alone. Each trial encodes its clouds
        after its draws (no checkpoint: every trial encodes its own), and
        the heads of all trials are fit after the last trial, in one call."""
        c = FEW_SHOT_CFG
        events = []
        with_workers(monkeypatch, workers)
        encode, spread = pamr.training.pooled_features, pamr.training._spread

        def spread_spy(size, fn, arg, items):
            if fn is pamr.training._head_accuracy:
                events.append(("fits", len(items)))
            return spread(size, fn, arg, items)

        monkeypatch.setattr(pamr.training, "pooled_features", lambda *a: events.append("encode") or encode(*a))
        monkeypatch.setattr(pamr.training, "_spread", spread_spy)
        draws = (
            [("choice", c.n_way)] + [("permutation", 5)] * c.n_way + init_draws(TINY, c.n_way, c.head_hidden)
            + [("permutation", c.n_way * c.m_shot)] * c.epochs
        )
        log_draws(monkeypatch, events)
        few_shot_eval(few_shot_clouds, TINY, c)
        assert [e for e in events if e != "encode" and e[0] != "fits"] == draws * c.trials
        assert events == (draws + ["encode"]) * c.trials + [("fits", c.trials)]

    def test_each_trial_drops_its_encoder_once_it_has_encoded(self, few_shot_clouds, monkeypatch):
        """When a trial's classifier is built, no earlier trial's encoder is
        alive but the previous one's, which the loop still names: the heads
        wait for their one fit without the encoders, so memory does not grow
        with the trial count."""
        with_workers(monkeypatch, 1)
        encoders, alive = [], []
        build = pamr.training.CloudClassifier

        def classifier_spy(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in encoders))
            clf = build(*args)
            encoders.append(weakref.ref(clf.encoder))
            return clf

        monkeypatch.setattr(pamr.training, "CloudClassifier", classifier_spy)
        few_shot_eval(few_shot_clouds, TINY, FEW_SHOT_CFG)
        assert len(alive) == FEW_SHOT_CFG.trials
        assert max(alive) <= 1

    def test_a_scored_head_holds_no_gradient(self):
        """A trial's job keeps its head until every head is fit, so the head
        gives back its gradient buffers once its accuracy is read."""
        rng = np.random.default_rng(7)
        clf = CloudClassifier(TINY, 2, (8,), rng)
        cfg = TrainConfig(epochs=2, batch_size=4, warmup_epochs=0, seed=0, head_hidden=(8,))
        feats, labels = rng.normal(size=(6, 2 * TINY.dims[-1])), np.array([0, 1] * 3)
        orders = [rng.permutation(6) for _ in range(cfg.epochs)]
        pamr.training._head_accuracy(cfg, (clf.head, feats, labels, feats, labels, orders))
        assert all(p._grad is None for layer in clf.head for p in layer.parameters())

    def test_a_frozen_head_fit_draws_its_epoch_orders_and_nothing_else(self, monkeypatch):
        """Frozen fine-tuning: the classifier init, the split's per-class
        shuffles, then one shuffle of the training items per epoch."""
        clouds = small_dataset(per_class=3)
        cfg = TrainConfig(
            epochs=4, batch_size=4, warmup_epochs=0, seed=6, augment=False, head_hidden=(8,),
            freeze_backbone=True, holdout_fraction=0.34,
        )
        log = []
        log_draws(monkeypatch, log)
        res = finetune_classify(clouds, TINY, cfg)
        assert res.train_idx.size == 8
        split = [("permutation", 3)] * 4
        assert log == init_draws(TINY, 4, (8,)) + split + [("permutation", 8)] * cfg.epochs

    def test_protocol_shape_and_determinism(self):
        clouds = small_dataset(per_class=6)
        cfg = TrainConfig(
            epochs=20, batch_size=8, base_lr=5e-3, warmup_epochs=2, seed=9,
            augment=False, head_hidden=(16,), n_way=2, m_shot=2, trials=3,
            test_per_class=3, weight_decay=0.0,
        )
        a = few_shot_eval(clouds, TINY, cfg)
        b = few_shot_eval(clouds, TINY, cfg)
        assert len(a.per_trial) == 3
        assert a.per_trial == b.per_trial
        assert 0.0 <= a.mean_accuracy <= 1.0
        assert abs(a.mean_accuracy - np.mean(a.per_trial)) < 1e-15
        assert abs(a.std_accuracy - np.std(a.per_trial)) < 1e-15

    def test_insufficient_classes_rejected(self):
        clouds = small_dataset(per_class=3)
        cfg = TrainConfig(n_way=5, m_shot=2, test_per_class=3, trials=1)
        with pytest.raises(ConfigError, match="classes"):
            few_shot_eval(clouds, TINY, cfg)

    def test_features_have_expected_width(self):
        from pamr.backbone import CloudClassifier

        clouds = small_dataset(per_class=1)
        clf = CloudClassifier(TINY, 4, (8,), np.random.default_rng(0))
        feats = pooled_features(clf, [_oracles.pyramid_of(c.points, TINY) for c in clouds])
        assert feats.shape == (4, 2 * TINY.dims[-1])
        assert np.isfinite(feats).all()


class TestThreads:
    def test_desk_pretraining_beside_a_thread_of_frozen_encodes_gives_the_single_thread_bits(self, monkeypatch):
        """One thread pretrains while another loops `pooled_features`, whose
        encodes run under no_grad: the training graphs are still recorded
        whole, so the rows and the checkpoint are those of the run alone."""
        with_workers(monkeypatch, 0)
        clouds = desk_clouds(4)
        cfg = TrainConfig(epochs=2, batch_size=8, warmup_epochs=0, seed=3)

        def run() -> tuple:
            res = pretrain_run(clouds, DESK, cfg)
            ckpt = encode_checkpoint(res.model.param_dict(), "desk", len(res.rows), res.optimizer.state_arrays())
            return res.rows, ckpt

        alone = run()
        clf = CloudClassifier(DESK, 4, (8,), np.random.default_rng(0))
        pyramids = cloud_pyramids([c.points for c in clouds], DESK)
        stop = threading.Event()

        def encode() -> None:
            while not stop.is_set():
                pooled_features(clf, pyramids)

        other = threading.Thread(target=encode)
        other.start()
        try:
            beside = run()
        finally:
            stop.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert beside == alone

    def test_desk_runs_never_start_the_helper_thread(self, monkeypatch):
        """Every linear and ffn kernel, and every attention op over all the
        segments of its pack, of desk pretraining and desk few-shot, at the
        sizes of the `pretrain-desk` and `fewshot-desk` workloads, stays
        below `_PAIR_MNK`, so the desk paths run on the calling thread alone."""
        with_workers(monkeypatch, 0)
        monkeypatch.setattr(T, "_helper", None)
        clouds = desk_clouds(30)
        pre = pretrain_run(desk_clouds(16), DESK, TrainConfig(epochs=1, batch_size=16, warmup_epochs=0, seed=0))
        weights = {name: p.data for name, p in pre.model.named_parameters()}
        cfg = TrainConfig(
            n_way=4, m_shot=10, test_per_class=20, trials=2, epochs=2, batch_size=64, base_lr=1e-3,
            warmup_epochs=0, seed=0,
        )
        few_shot_eval(clouds, DESK, cfg, pretrained=weights)
        assert T._helper is None


class TestEntryPointsValidate:
    """A config built in code meets the checks a config file gets."""

    @pytest.mark.parametrize(
        "run, setting, match",
        [
            (finetune_classify, {"holdout_fraction": 0.0}, "holdout_fraction"),
            (pretrain_run, {"batch_size": 0}, "batch_size"),
            (pretrain_run, {"base_lr": -1.0}, "base_lr"),
            (few_shot_eval, {"trials": 0}, "few-shot"),
            (few_shot_eval, {"n_way": 1}, "n_way"),
        ],
    )
    def test_invalid_train_config_is_config_error(self, run, setting, match):
        with pytest.raises(ConfigError, match=match):
            cfg = TrainConfig(**{**dict(epochs=1, batch_size=4, warmup_epochs=0, augment=False), **setting})
            run(small_dataset(per_class=1), TINY, cfg)


# -- the pack pool -------------------------------------------------------------
#
# A worker imports a pack loss by its module and name, so the pack losses the
# tests hand the pool live here, at module level.

_RECONSTRUCTION_LOSS = pamr.training._reconstruction_loss


def _exits_in_a_worker(model, pack):
    """A pretraining pack loss that kills the worker process it runs in."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return _RECONSTRUCTION_LOSS(model, pack)


def _fails_on_a_workers_second_pack(model, pack):
    """A pretraining pack loss that raises on the second pack a worker runs for one call."""
    if multiprocessing.parent_process() is not None:
        model.packs_run = getattr(model, "packs_run", 0) + 1
        if model.packs_run == 2:
            raise NonFiniteError("non-finite values in a worker's second pack")
    return _RECONSTRUCTION_LOSS(model, pack)


def fit_items(items: list, workers: int, pack_loss=_RECONSTRUCTION_LOSS) -> AdamW:
    """One step over `items` (pyramid, mask plan) pairs, in order, in desk
    packs of eight, spread over `workers` workers from the first step;
    returns the optimizer."""
    rng = np.random.default_rng(0)
    model = MaskedAutoencoder(DESK, rng)
    opt = AdamW(model.param_dict(), 1e-3)
    cfg = TrainConfig(epochs=1, batch_size=len(items), warmup_epochs=0)
    draw = lambda batch: [items[i] for i in sorted(batch)]  # noqa: E731
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", fixed_workers(workers))
        mp.setattr(pamr.pool, "_SPREAD_AFTER_S", 0.0)
        pamr.training._fit(model, opt, cfg, [np.arange(len(items))], draw, pack_loss, 8, [])
    return opt


def desk_items(bad: dict[int, str]) -> list:
    """24 (pyramid, mask plan) pairs, three desk packs of eight. In each pack
    `bad` names, its fourth cloud is made to fail: "mask" draws no masked
    center (a ConfigError), "nan" makes its points NaN (a NonFiniteError)."""
    rng = np.random.default_rng(1)
    items = []
    for i, pyr in enumerate(cloud_pyramids([c.points for c in desk_clouds(6)], DESK)):
        fault = bad.get(i // 8) if i % 8 == 3 else None
        if fault == "nan":
            pyr = replace(pyr, points=[p * np.nan for p in pyr.points])
        items.append((pyr, mask_and_backproject(pyr, 0.0 if fault == "mask" else 0.6, rng)))
    return items


def failure(fn) -> tuple[type, str]:
    with pytest.raises(PamrError) as info:
        fn()
    return type(info.value), str(info.value)


def same_bits(a: AdamW, b: AdamW) -> bool:
    """Every parameter and AdamW's m, v and t are identical."""
    if a.t != b.t or list(a.params) != list(b.params):
        return False
    arrays = lambda opt, name: (opt.params[name].data, opt.m[name], opt.v[name])  # noqa: E731
    pairs = (zip(arrays(a, name), arrays(b, name)) for name in a.params)
    return all(x.tobytes() == y.tobytes() for pair in pairs for x, y in pair)


def pid_alive(pid: int) -> bool:
    """Whether `pid` runs; a zombie waiting for its parent has exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_until(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def group_alive(pgid: int) -> bool:
    """Whether any process of the process group `pgid` is left."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def src_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(pamr.training.__file__).resolve().parents[1]))


DESK_CFG = """
n_points = 128
sizes = 32,16
ks = 8,8
dims = 16,32
heads = 2
encoder_blocks = 1
decoder_blocks = 1
la_window = 3
la_groups = 4
epochs = 1
batch_size = 16
warmup_epochs = 0
"""

# `pamr pretrain ...` with every use of the pool on one worker, whatever the
# CPU count, from the first step on
CLI_ONE_WORKER = """
import os
import sys
import pamr.pool
from pamr.cli import main

if __name__ == "__main__":
    os.sched_getaffinity = lambda pid: {0, 1}
    pamr.pool._SPREAD_AFTER_S = 0.0
    sys.exit(main(sys.argv[1:]))
"""

# the same, with a pack loss that kills the worker running it; a worker
# imports this script as its main module, so the loss is found there
CLI_WORKER_EXITS = """
import multiprocessing
import os
import sys
import pamr.pool
import pamr.training
from pamr.cli import main

LOSS = pamr.training._reconstruction_loss


def exits_in_a_worker(model, pack):
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return LOSS(model, pack)


if __name__ == "__main__":
    pamr.training._reconstruction_loss = exits_in_a_worker
    os.sched_getaffinity = lambda pid: {0, 1}
    pamr.pool._SPREAD_AFTER_S = 0.0
    sys.exit(main(sys.argv[1:]))
"""

# one desk pretraining batch of 16 clouds: two packs
DESK_BATCH = """
import sys
import time
import pamr.training as tr
from pamr.config import ModelConfig, TrainConfig
from pamr.data import ShapeSpec, gen_shapes

desk = ModelConfig(n_points=128, sizes=(32, 16), ks=(8, 8), dims=(16, 32), heads=2, encoder_blocks=1,
                   decoder_blocks=1, la_window=3, la_groups=4)
clouds = gen_shapes([ShapeSpec("sphere", 128, 0.01, seed=s, label=0) for s in range(16)])
cfg = TrainConfig(epochs=1, batch_size=16, warmup_epochs=0)
"""

# the batch on one worker, then the worker's pid, then a long wait
HOLDS_A_WORKER = DESK_BATCH + """
import os
from pamr import pool
os.sched_getaffinity = lambda pid: {0, 1}
pool._SPREAD_AFTER_S = 0.0
tr.pretrain_run(clouds, desk, cfg)
print(*(p.pid for p in pool._POOL.procs), flush=True)
time.sleep(300)
"""

# the batch with the worker count left to the CPU affinity, cut to one CPU
ON_ONE_CPU = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" + DESK_BATCH + """
tr.pretrain_run(clouds, desk, cfg)
from pamr import pool
print(pool.started(), "multiprocessing" in sys.modules)
"""

# desk pretraining in batches of 32 (four packs), then few-shot over five
# trials, on more workers than CPUs, against the same calls in-process
MORE_WORKERS_THAN_CPUS = """
import os
import pamr.training as tr
from pamr import pool
from pamr.config import ModelConfig, TrainConfig
from pamr.data import ShapeSpec, gen_shapes

desk = ModelConfig(n_points=128, sizes=(32, 16), ks=(8, 8), dims=(16, 32), heads=2, encoder_blocks=1,
                   decoder_blocks=1, la_window=3, la_groups=4)
kinds = ("sphere", "cube", "torus")
clouds = gen_shapes([ShapeSpec(k, 128, 0.01, seed=s, label=i) for s in range(12) for i, k in enumerate(kinds)])
cfg = TrainConfig(epochs=2, batch_size=32, warmup_epochs=1, seed=4, augment=True)
few = TrainConfig(epochs=3, batch_size=4, warmup_epochs=0, seed=4, head_hidden=(16,), n_way=2, m_shot=3,
                  test_per_class=5, trials=5)
runs = []
pool._SPREAD_AFTER_S = 0.0
for workers in (0, len(os.sched_getaffinity(0)) + 1):
    os.sched_getaffinity = lambda pid: set(range(workers + 1))
    res = tr.pretrain_run(clouds, desk, cfg)
    runs.append([res.losses, [p.data.tobytes() for p in res.model.parameters()], res.optimizer.t])
    runs[-1].append(tr.few_shot_eval(clouds, desk, few).per_trial)
print(len(pool._POOL.procs), runs[0] == runs[1])
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="the pool sizes itself by CPU affinity")
class TestPackPool:
    """Packs 1.. of a batch on worker processes: the same bits as in-process,
    errors that cross unchanged, and no process left behind."""

    @pytest.mark.parametrize("net", ["autoencoder", "zero-head autoencoder", "classifier"])
    def test_every_parameter_takes_one_gradient_per_graph(self, net, monkeypatch):
        """What the bitwise commit rests on: a worker's leaf gradient is the
        one array its pack's walk handed the leaf, so adding it here is the
        addition the in-process walk makes. Over one 2-cloud desk pack."""
        rng = np.random.default_rng(0)
        pyrs = cloud_pyramids([c.points for c in desk_clouds(1)[:2]], DESK)
        if net == "classifier":
            model = CloudClassifier(DESK, 4, (16,), rng)
            loss, _ = pamr.training._classification_loss(model, list(zip(pyrs, [0, 1])))
        else:
            model = MaskedAutoencoder(replace(DESK, zero_scale_head=net.startswith("zero")), rng)
            plans = [mask_and_backproject(p, 0.6, rng) for p in pyrs]
            loss, _ = _RECONSTRUCTION_LOSS(model, list(zip(pyrs, plans)))
        counts, receive = collections.Counter(), T._receive

        def counting(node, g, heap):
            if node.requires_grad:
                counts[id(node)] += 1
            receive(node, g, heap)

        monkeypatch.setattr(T, "_receive", counting)
        loss.backward()
        params = model.param_dict()
        assert len(params) == {"autoencoder": 86, "zero-head autoencoder": 88, "classifier": 66}[net]
        assert {name: counts[id(p)] for name, p in params.items()} == dict.fromkeys(params, 1)

    @pytest.mark.parametrize("protocol", [pretrain_run, finetune_classify])
    def test_the_pool_gives_the_in_process_bits(self, protocol, monkeypatch):
        """Batches of 12 desk clouds in packs of 8 and 4 (and a last batch of
        8 in one pack when pretraining), augmented, over two epochs."""
        cfg = TrainConfig(
            epochs=2, batch_size=12, warmup_epochs=1, seed=3, augment=True, head_hidden=(16,),
            holdout_fraction=0.25,
        )
        runs = []
        for workers in (0, 1):
            opts = []
            with_workers(monkeypatch, workers, opts)
            runs.append((format_metrics(protocol(desk_clouds(8), DESK, cfg).rows), opts[0]))
        assert pamr.pool._POOL.procs
        (rows, opt), (pool_rows, pool_opt) = runs
        assert opt.t == len(rows.splitlines()) - 1 == (6 if protocol is pretrain_run else 4)
        assert pool_rows == rows
        assert same_bits(pool_opt, opt)

    def test_more_workers_than_cpus_give_the_in_process_bits(self):
        proc = subprocess.run(
            [sys.executable, "-c", MORE_WORKERS_THAN_CPUS], env=src_env(), capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(len(os.sched_getaffinity(0)) + 1), "True"]

    def test_the_worker_count_comes_from_cpu_affinity_and_packs_only(self, monkeypatch):
        """A call's session has one worker per further CPU, and none for
        packs of one cloud; `_Pool.run` caps each run by its items."""
        workers = lambda size: pamr.training._session(size, _in_a_worker, None).workers  # noqa: E731
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert [workers(size) for size in (2, 8, 12)] == [3, 3, 3]
        assert workers(1) == 0  # a default-config cloud goes alone and stays in-process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2})
        assert workers(8) == 0

    def test_one_cpu_starts_no_process(self):
        proc = subprocess.run(
            [sys.executable, "-c", ON_ONE_CPU], env=src_env(), capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_a_frozen_head_batch_is_one_pack_and_never_reaches_the_pool(self, monkeypatch):
        send = pamr.pool._POOL.send

        def no_pack(w, session, items):
            assert session.job[0] is not pamr.training._pack_gradient, "a pack was sent to the pool"
            send(w, session, items)

        monkeypatch.setattr(pamr.pool._POOL, "send", no_pack)
        with_workers(monkeypatch, 1)
        cfg = TrainConfig(epochs=1, batch_size=16, warmup_epochs=0, freeze_backbone=True, head_hidden=(16,))
        assert finetune_classify(desk_clouds(8), DESK, cfg).rows

    @pytest.mark.parametrize(
        "bad",
        [{1: "mask"}, {2: "nan"}, {1: "mask", 2: "nan"}, {0: "nan", 1: "mask"}],
        ids=["pack 1", "pack 2", "packs 1 and 2", "packs 0 and 1"],
    )
    def test_a_packs_error_crosses_unchanged_and_the_earliest_pack_wins(self, bad):
        """A real ConfigError or NonFiniteError raised in a worker's pack is
        raised here as the same class with the same message, and of two
        failed packs the earlier one's error is raised, as in-process. The
        pool stays in step: the next call gives the in-process bits."""
        items = desk_items(bad)
        want = failure(lambda: fit_items(items, workers=0))
        assert want[0] is (ConfigError if min(bad.items())[1] == "mask" else NonFiniteError)
        assert failure(lambda: fit_items(items, workers=2)) == want
        clean = desk_items({})
        assert same_bits(fit_items(clean, workers=2), fit_items(clean, workers=0))

    def test_three_packs_on_one_worker_give_the_in_process_bits(self, monkeypatch):
        """Packs 0 and 1 are backed here, in place, and pack 2 on the worker,
        whose gradients are added after them."""
        forwards, loss = [], MaskedAutoencoder.loss
        monkeypatch.setattr(MaskedAutoencoder, "loss", lambda *a: forwards.append(a[1]) or loss(*a))
        items = desk_items({})
        pooled = fit_items(items, workers=1)
        assert len(forwards) == 2 and pamr.pool.started()  # the spy sees this process's forwards only
        assert same_bits(pooled, fit_items(items, workers=0))

    def test_a_short_training_call_starts_no_worker(self, monkeypatch):
        """A one-shot desk pretraining run, one step of two packs, with the
        pool down: its work stays short of `_SPREAD_AFTER_S`, so every pack
        runs here."""
        pamr.pool._POOL.close()
        monkeypatch.setattr(os, "sched_getaffinity", fixed_workers(1))
        monkeypatch.setattr(pamr.pool, "_unspread_s", 0.0)
        cfg = TrainConfig(epochs=1, batch_size=16, warmup_epochs=0, seed=0)
        assert len(pretrain_run(desk_clouds(4), DESK, cfg).rows) == 1
        assert 0.0 < pamr.pool._unspread_s < pamr.pool._SPREAD_AFTER_S
        assert not pamr.pool.started()

    def test_a_call_that_crosses_the_threshold_starts_the_pool_between_two_steps(self, monkeypatch):
        """Four desk steps of two packs, with only the packs spreadable: the
        first step runs here, and its time crosses a tiny threshold, so the
        pool starts before the second. The model goes to the worker once,
        with the first pack it is sent, and the rows and parameters are
        bitwise the in-process ones."""
        pamr.pool._POOL.close()
        monkeypatch.setattr(pamr.pool, "_unspread_s", 0.0)
        monkeypatch.setattr(pamr.pool, "_SPREAD_AFTER_S", 1e-9)
        sent, send = [], pamr.pool._POOL.send

        def spy(w, session, items):
            sent.append(pamr.pool._POOL.keys[w] != session.key)  # whether the model goes along
            send(w, session, items)

        monkeypatch.setattr(pamr.pool._POOL, "send", spy)
        # pyramid builds (no-grad packs of 12) stay here, so the first step meets the threshold
        session = pamr.training._session
        monkeypatch.setattr(pamr.training, "_session", lambda size, *a: session(size if size == 8 else 1, *a))
        cfg = TrainConfig(epochs=2, batch_size=16, warmup_epochs=1, seed=3, augment=True)
        runs = []
        for workers in (1, 0):
            monkeypatch.setattr(os, "sched_getaffinity", fixed_workers(workers))
            res = pretrain_run(desk_clouds(8), DESK, cfg)
            runs.append((format_metrics(res.rows), res.optimizer))
        assert sent == [True, False, False]
        (pool_rows, pool_opt), (rows, opt) = runs
        assert len(rows.splitlines()) == 5 and pool_rows == rows
        assert same_bits(pool_opt, opt)

    def test_a_worker_that_dies_is_a_worker_error_and_the_pool_restarts(self):
        items = desk_items({})
        with pytest.raises(WorkerError, match="^a pool worker exited before it returned its work$"):
            fit_items(items, workers=1, pack_loss=_exits_in_a_worker)
        assert pamr.pool._POOL.procs == []
        assert same_bits(fit_items(items, workers=1), fit_items(items, workers=0))

    def test_a_workers_error_aborts_pretraining_at_the_last_completed_step(self, monkeypatch):
        with_workers(monkeypatch, 1)
        monkeypatch.setattr(pamr.training, "_reconstruction_loss", _fails_on_a_workers_second_pack)
        saved = []
        cfg = TrainConfig(epochs=1, batch_size=16, warmup_epochs=0, seed=0)
        with pytest.raises(NonFiniteError, match="^non-finite values in a worker's second pack$"):
            pretrain_run(desk_clouds(8), DESK, cfg, on_checkpoint=lambda m, o, *at: saved.append((*at, o.t)))
        assert saved == [(1, "aborted", 1)]

    @pytest.mark.parametrize("protocol", [pretrain_run, finetune_classify])
    def test_a_step_sends_its_packs_only_after_every_draw(self, protocol, monkeypatch):
        """As in-process, but the second pack goes to the pool before the first one's forward here."""
        draws, events, epochs = step_events(protocol, monkeypatch, workers=1)
        assert events == (draws + ["send", "forward", "step"]) * epochs

    def test_a_dead_worker_is_one_error_line_and_exit_code_1(self, tmp_path):
        data, out, cfg = tmp_path / "data", tmp_path / "out", tmp_path / "desk.cfg"
        script = tmp_path / "run.py"
        cfg.write_text(DESK_CFG)
        script.write_text(CLI_WORKER_EXITS)
        from pamr.cli import main

        assert main(["gen-data", "--config", str(cfg), "--out", str(data), "--per-class", "8"]) == 0
        proc = subprocess.run(
            [sys.executable, str(script), "pretrain", "--config", cfg, "--data", data, "--out", out],
            env=src_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: a pool worker exited before it returned its work\n"
        assert "Traceback" not in proc.stdout
        assert (out / "model_aborted.ckpt").is_file()

    def test_pamr_pretrain_leaves_no_process_behind(self, tmp_path):
        data, cfg = tmp_path / "data", tmp_path / "desk.cfg"
        cfg.write_text(DESK_CFG)
        from pamr.cli import main

        assert main(["gen-data", "--config", str(cfg), "--out", str(data), "--per-class", "8"]) == 0
        argv = ["pretrain", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "out")]
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_ONE_WORKER, *argv], env=src_env(), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            assert wait_until(lambda: not group_alive(proc.pid), 10)
        finally:
            if group_alive(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)

    def test_a_killed_parents_worker_exits(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", HOLDS_A_WORKER], env=src_env(), start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 300)
            pids = [int(pid) for pid in proc.stdout.readline().split()] if ready else []
            assert len(pids) == 1, proc.stderr.read() if proc.poll() is not None else pids
            assert pid_alive(pids[0])
            proc.kill()
            proc.wait(timeout=10)
            assert wait_until(lambda: not pid_alive(pids[0]), 10)
        finally:
            proc.stdout.close()
            proc.stderr.close()
            if group_alive(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)


# -- jobs on the pool ----------------------------------------------------------


def on_the_pool(workers: int, fn, arg, items) -> list:
    """[fn(arg, item) for item in items] in one session on `workers` workers,
    this process's share included, with the pool started at once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", fixed_workers(workers))
        mp.setattr(pamr.pool, "_SPREAD_AFTER_S", 0.0)
        return pamr.pool.Session(fn, arg, spread=True).run(items, functools.partial(fn, arg))


def _exits_in_a_worker_job(arg, item):
    """A job that kills the worker process it runs in."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return item


def _in_a_worker(arg, item) -> bool:
    """A job that says whether it ran in a worker process."""
    return multiprocessing.parent_process() is not None


def _in_a_worker_after(seconds, item) -> bool:
    """A job that sleeps `seconds`, then says whether it ran in a worker process."""
    time.sleep(seconds)
    return multiprocessing.parent_process() is not None


def _blas_threads(arg, item) -> tuple[int, bool]:
    """A job that reads this process's OpenBLAS thread count and says whether it ran in a worker."""
    return pamr.pool._openblas()[0](), multiprocessing.parent_process() is not None


def _head_accuracy_and_pool_use(train_cfg, job):
    """The few-shot head job, with the workers this process had after it ran
    and whether it ran in a worker."""
    accuracy = pamr.training._head_accuracy(train_cfg, job)
    return accuracy, len(pamr.pool._POOL.procs), multiprocessing.parent_process() is not None


def mixed_desk_points() -> list[np.ndarray]:
    """40 clouds of 128 points and 5 of 100, interleaved: five no-grad packs (12, 12, 12, 4 and 5)."""
    rng = np.random.default_rng(3)
    return [rng.normal(size=(100 if i % 9 == 8 else 128, 3)) for i in range(45)]


def pyramid_bytes(pyramids: list) -> list:
    """Every array of every pyramid, with its dtype and shape."""
    fields = ("points", "sample_idx", "neighbors", "offsets")
    return [[(a.dtype.str, a.shape, a.tobytes()) for a in getattr(p, f)] for p in pyramids for f in fields]


def bad_chunks(bad: dict[int, str]) -> list:
    """Seven chunks of two desk clouds each. Chunk j in `bad` fails: "small"
    cuts its clouds to 20 + j points (a ConfigError that names the count),
    "nan" makes its points NaN (a ShapeError)."""
    points = [c.points for c in desk_clouds(4)]
    chunks = [points[2 * j : 2 * j + 2] for j in range(7)]
    for j, fault in bad.items():
        chunks[j] = [p[: 20 + j] if fault == "small" else p * np.nan for p in chunks[j]]
    return chunks


DESK_FEW_SHOT_CFG = TrainConfig(
    epochs=3, batch_size=4, base_lr=5e-3, warmup_epochs=1, seed=4, augment=False, head_hidden=(16,),
    n_way=2, m_shot=3, trials=5, test_per_class=5,
)


@pytest.fixture
def many_workers():
    """More workers than CPUs; the pool is closed after the test."""
    yield len(os.sched_getaffinity(0)) + 1
    pamr.pool._POOL.close()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="the pool sizes itself by CPU affinity")
class TestJobPool:
    """Pyramid builds, encodes and few-shot head fits on worker processes:
    the in-process bits at any worker count, errors that cross unchanged,
    and no pool inside a worker."""

    def test_pyramids_are_the_in_process_ones_at_any_worker_count(self, many_workers, monkeypatch):
        points = mixed_desk_points()
        runs = []
        for workers in (0, 1, many_workers):
            with_workers(monkeypatch, workers)
            runs.append(pyramid_bytes(cloud_pyramids(points, DESK)))
        assert len(pamr.pool._POOL.procs) == min(many_workers, 4)  # five packs: one here, the others on workers
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_pooled_features_are_the_in_process_ones_at_any_worker_count(self, many_workers, monkeypatch):
        pyramids = [_oracles.pyramid_of(p, DESK) for p in mixed_desk_points()]
        clf = CloudClassifier(DESK, 3, (16,), np.random.default_rng(1))
        runs = []
        for workers in (0, 1, many_workers):
            with_workers(monkeypatch, workers)
            runs.append(pooled_features(clf, pyramids).tobytes())
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("weights", ["full", "partial", "none"])
    def test_few_shot_is_the_in_process_result_at_any_worker_count(self, weights, many_workers, monkeypatch):
        """Desk clouds, 16 per trial (two no-grad packs), five trials: every
        head job (its head, features, labels and epoch orders) and every
        accuracy is bitwise the in-process one."""
        clouds = desk_clouds(8)
        pretrained = None
        if weights != "none":
            cfg = TrainConfig(epochs=1, batch_size=16, warmup_epochs=0, seed=2, augment=False)
            pretrained = {name: p.data for name, p in pretrain_run(clouds, DESK, cfg).model.named_parameters()}
        if weights == "partial":
            del pretrained["encoder.stages.0.0.fc1.weight"]
        spread, runs = pamr.training._spread, []

        def spread_spy(size, fn, arg, items):
            if fn is pamr.training._head_accuracy:
                for head, *arrays in items:
                    jobs.append([p.data.tobytes() for layer in head for p in layer.parameters()])
                    jobs.append([a.tobytes() for a in arrays[:-1]] + [o.tobytes() for o in arrays[-1]])
            return spread(size, fn, arg, items)

        monkeypatch.setattr(pamr.training, "_spread", spread_spy)
        for workers in (0, 1, many_workers):
            jobs = []
            with_workers(monkeypatch, workers)
            runs.append((few_shot_eval(clouds, DESK, DESK_FEW_SHOT_CFG, pretrained).per_trial, jobs))
        assert len(runs[0][1]) == 2 * DESK_FEW_SHOT_CFG.trials
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize(
        "bad",
        [{4: "nan"}, {4: "small", 5: "small"}, {1: "nan", 3: "small"}, {0: "nan", 1: "small"}],
        ids=["a worker's", "two workers'", "here before a worker's", "here first"],
    )
    def test_a_jobs_error_crosses_unchanged_and_the_earliest_item_wins(self, bad):
        """Seven pyramid-build jobs on two workers and here (items 0, 1 and 2
        here, 3 and 5 on one worker, 4 and 6 on the other). A real error
        raised in any job is raised here as the same class with the same
        message, the earliest item's, after every reply is read; the next
        call gives the in-process bits."""
        build = pamr.training._build_stack
        chunks = bad_chunks(bad)
        want = failure(lambda: [build(DESK, chunk) for chunk in chunks])
        assert want[0] is (ConfigError if min(bad.items())[1] == "small" else ShapeError)
        assert failure(lambda: on_the_pool(2, build, DESK, chunks)) == want
        assert not any(conn.poll() for conn in pamr.pool._POOL.conns)  # no reply is left unread
        clean = bad_chunks({})
        got = on_the_pool(2, build, DESK, clean)
        assert pyramid_bytes(sum(got, [])) == pyramid_bytes(sum((build(DESK, c) for c in clean), []))

    def test_a_worker_that_dies_mid_job_is_a_worker_error_and_the_pool_restarts(self):
        with pytest.raises(WorkerError, match="^a pool worker exited before it returned its work$"):
            on_the_pool(1, _exits_in_a_worker_job, None, [0, 1, 2, 3])
        assert pamr.pool._POOL.procs == []
        build, clean = pamr.training._build_stack, bad_chunks({})
        got = on_the_pool(1, build, DESK, clean)
        assert pyramid_bytes(sum(got, [])) == pyramid_bytes(sum((build(DESK, c) for c in clean), []))

    def test_a_run_takes_a_worker_per_further_cpu_and_per_item_after_the_first(self, monkeypatch):
        """A session's worker count comes from the CPU affinity and `spread`
        alone, and each run uses at most one worker per item after the first.
        With one CPU, or without `spread`, every item runs here and no
        process starts."""
        pamr.pool._POOL.close()
        sent, send = [], pamr.pool._POOL.send
        monkeypatch.setattr(pamr.pool._POOL, "send", lambda w, *a: sent.append(w) or send(w, *a))
        monkeypatch.setattr(pamr.pool, "_SPREAD_AFTER_S", 0.0)
        try:
            for cpus, spread in (({0}, True), ({0, 1, 2, 3}, False)):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
                assert pamr.pool.Session(_in_a_worker, None, spread).run(list(range(5)), lambda item: False) == [False] * 5
            assert sent == [] and not pamr.pool.started()
            session = pamr.pool.Session(_in_a_worker, None, spread=True)
            assert session.run([0, 1], lambda item: False) == [False, True] and sent == [0]
            sent.clear()
            assert session.run(list(range(5)), lambda item: False) == [False, False, True, True, True]
            assert sent == [0, 1, 2] and len(pamr.pool._POOL.procs) == 3
        finally:
            pamr.pool._POOL.close()

    def test_a_call_runs_every_job_here_while_another_holds_the_pool(self):
        assert on_the_pool(1, _in_a_worker, None, range(4)) == [False, False, True, True]
        with pamr.pool._POOL.lock:
            assert on_the_pool(1, _in_a_worker, None, range(4)) == [False] * 4

    def test_jobs_run_here_until_their_time_pays_for_the_pool(self, monkeypatch):
        """While the pool is down, `Session.run` runs `_spread`'s jobs here and
        adds up their time; once that reaches `_SPREAD_AFTER_S` it starts the pool.
        A running pool is used at once. Work that could not spread, one item
        or no worker, adds nothing."""
        spread = pamr.training._spread
        pamr.pool._POOL.close()
        monkeypatch.setattr(pamr.pool, "_unspread_s", 0.0)
        monkeypatch.setattr(pamr.pool, "_SPREAD_AFTER_S", 0.05)
        monkeypatch.setattr(os, "sched_getaffinity", fixed_workers(1))
        assert spread(2, _in_a_worker_after, 0.01, [0]) == [False]
        assert pamr.pool._unspread_s == 0.0
        assert spread(2, _in_a_worker_after, 0.03, range(2)) == [False, False]
        assert pamr.pool._unspread_s >= 0.05 and not pamr.pool.started()
        assert spread(2, _in_a_worker_after, 0.0, range(2)) == [False, True]
        assert pamr.pool.started()
        monkeypatch.setattr(pamr.pool, "_unspread_s", 0.0)
        monkeypatch.setattr(pamr.pool, "_SPREAD_AFTER_S", float("inf"))
        assert spread(2, _in_a_worker_after, 0.0, range(2)) == [False, True]
        monkeypatch.setattr(os, "sched_getaffinity", fixed_workers(0))
        pamr.pool._POOL.close()
        assert spread(2, _in_a_worker_after, 0.01, range(2)) == [False, False]
        assert pamr.pool._unspread_s == 0.0 and not pamr.pool.started()

    def test_a_spread_run_pins_blas_to_one_thread_and_then_restores_it(self):
        """While a run is spread, this process and its workers run OpenBLAS
        on one thread each, so spare BLAS threads do not contend with the
        workers; afterwards the caller has its own count again."""
        if pamr.pool._openblas() is None:
            pytest.skip("no OpenBLAS found in this process")
        get, put = pamr.pool._openblas()
        old = get()
        put(2)
        try:
            assert get() == 2
            assert on_the_pool(1, _blas_threads, None, [0, 1]) == [(1, False), (1, True)]
            assert get() == 2
        finally:
            put(old)

    def test_threads_that_run_here_add_every_runs_time_under_the_lock(self, monkeypatch):
        """Four threads run sessions at once with the pool down and its
        threshold out of reach, a thread switch forced every microsecond. A
        run that takes the lock reads the clock twice, one tick apart, and
        adds that tick; a run that finds the lock taken reads and adds
        nothing. A lost update of `_unspread_s` would leave it short."""
        pamr.pool._POOL.close()
        ticks = itertools.count()
        monkeypatch.setattr(pamr.pool, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        monkeypatch.setattr(pamr.pool, "_unspread_s", 0)
        monkeypatch.setattr(pamr.pool, "_SPREAD_AFTER_S", float("inf"))
        monkeypatch.setattr(os, "sched_getaffinity", fixed_workers(1))
        results = []

        def caller():
            session = pamr.pool.Session(_in_a_worker, None, spread=True)
            results.extend(session.run([0, 1], lambda item: item) for _ in range(2000))

        callers = [threading.Thread(target=caller) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert len(results) == 8000 and all(r == [0, 1] for r in results)
        assert 0 < 2 * pamr.pool._unspread_s == next(ticks) and not pamr.pool.started()

    def test_a_head_fit_in_a_worker_starts_no_pool_of_its_own(self):
        """Two head jobs, each fit over three batches an epoch: the second
        runs in a worker, which is given no worker of its own and starts none."""
        rng = np.random.default_rng(2)
        cfg = TrainConfig(epochs=3, batch_size=4, warmup_epochs=0, head_hidden=(16,))

        def job():
            head = CloudClassifier(DESK, 2, (16,), rng).head
            orders = [rng.permutation(12) for _ in range(cfg.epochs)]
            train, test = rng.normal(size=(12, 64)), rng.normal(size=(6, 64))
            return head, train, np.arange(12) % 2, test, np.arange(6) % 2, orders

        jobs = [job(), job()]
        here, there = on_the_pool(1, _head_accuracy_and_pool_use, cfg, jobs)
        assert here[1:] == (len(pamr.pool._POOL.procs), False)
        assert there[1:] == (0, True)  # its one-pack batches started no worker there
        assert there[0] == pamr.training._head_accuracy(cfg, jobs[1])  # its head is still untrained here
