import math
import weakref

import numpy as np
import pytest

from pamr import tensor as T
from pamr.backbone import CloudClassifier, MaskedAutoencoder
from pamr.config import ModelConfig, TrainConfig
from pamr.data import ShapeSpec, gen_shapes
from pamr.errors import ConfigError, NonFiniteError
from pamr.geometry import PointCloud, ScalePyramid, normalize_points
from pamr.tensor import Tensor
import _oracles
import pamr.training
from pamr.cli import _build_parser
from pamr.training import (
    AdamW,
    NO_GRAD_BUDGET,
    augment,
    cloud_pyramids,
    cross_entropy,
    few_shot_eval,
    finetune_classify,
    load_encoder_weights,
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
        clouds = gen_shapes([ShapeSpec("sphere", 128, 0.01, seed=s, label=0) for s in range(10)])
        cfg = TrainConfig(epochs=1, batch_size=10, warmup_epochs=0, seed=0, augment=False)
        pretrain_run(clouds, DESK, cfg)
        assert packs == [8, 2]

    @pytest.mark.parametrize("protocol", [pretrain_run, finetune_classify])
    def test_a_step_makes_every_draw_before_its_first_forward(self, protocol, monkeypatch):
        """Batches of 16 desk clouds (12 training clouds when fine-tuning) in
        packs of 8, with augmentation: each step logs every augment and mask
        draw, then its two pack forwards, then its optimizer step."""
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
        clouds = gen_shapes([
            ShapeSpec(kind, 128, 0.01, seed=1000 * i + j, label=i)
            for i, kind in enumerate(("sphere", "cube", "torus", "cylinder"))
            for j in range(4)
        ])
        cfg = TrainConfig(
            epochs=2, batch_size=16, warmup_epochs=0, seed=3, augment=True, head_hidden=(16,),
            holdout_fraction=0.25,
        )
        protocol(clouds, DESK, cfg)
        draws = ["augment", "mask"] * 16 if protocol is pretrain_run else ["augment"] * 12
        assert events == (draws + ["forward", "forward", "step"]) * cfg.epochs

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
        clouds = gen_shapes([
            ShapeSpec(kind, 128, 0.01, seed=1000 * i + j, label=i)
            for i, kind in enumerate(("sphere", "cube", "torus", "cylinder"))
            for j in range(4)
        ])
        cfg = TrainConfig(
            epochs=1, batch_size=16, base_lr=1e-3, weight_decay=0.0, warmup_epochs=0, seed=3,
            augment=False, head_hidden=(64,), holdout_fraction=0.25,
        )
        batches, packs, seen = [], [], []
        fit, logits, step = pamr.training._fit, CloudClassifier.logits, AdamW.step

        def fit_spy(opt, n, cfg, rng, draw, *rest):
            def draw_spy(batch):
                batches.append(batch)
                return draw(batch)

            return fit(opt, n, cfg, rng, draw_spy, *rest)

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
            logits = res.classifier.logits_from_features(T.constant(feats)).data
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
        with pytest.raises(ConfigError, match="no matching encoder"):
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

    def fit_spy(clf, feats, *args):
        seen.append(feats.tobytes())
        return fit(clf, feats, *args)

    def accuracy_spy(clf, feats, labels):
        seen.append(feats.tobytes())
        return accuracy(clf, feats, labels)

    monkeypatch.setattr(module, "_fit_frozen_head", fit_spy)
    monkeypatch.setattr(module, "_accuracy", accuracy_spy)
    return seen


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
