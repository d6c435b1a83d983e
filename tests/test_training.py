import math
import weakref

import numpy as np
import pytest

from pamr import tensor as T
from pamr.backbone import CloudClassifier, MaskedAutoencoder
from pamr.config import ModelConfig, TrainConfig
from pamr.data import ShapeSpec, gen_shapes
from pamr.errors import ConfigError, NonFiniteError
from pamr.geometry import PointCloud, ScalePyramid
from pamr.tensor import Tensor
import _oracles
import pamr.training
from pamr.training import (
    AdamW,
    augment,
    cloud_pyramid,
    cross_entropy,
    few_shot_eval,
    finetune_classify,
    load_encoder_weights,
    lr_at,
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
            out = augment(ScalePyramid([pts], [], []), rng, cfg).points[0]
            # recover scale from pairwise distances, translation from centroids
            s = np.linalg.norm(out[0] - out[1]) / np.linalg.norm(pts[0] - pts[1])
            assert cfg.scale_lo - 1e-9 <= s <= cfg.scale_hi + 1e-9
            t = out.mean(axis=0) - s * pts.mean(axis=0)
            assert np.all(np.abs(t) <= cfg.translate + 1e-9)

    def test_same_generator_state_same_output(self):
        cfg = TrainConfig()
        pts = np.random.default_rng(2).normal(size=(10, 3))
        a = augment(ScalePyramid([pts], [], []), np.random.default_rng(5), cfg).points[0]
        b = augment(ScalePyramid([pts], [], []), np.random.default_rng(5), cfg).points[0]
        assert np.array_equal(a, b)


def count_pyramid_builds(monkeypatch, clouds) -> list:
    """Spy on `cloud_pyramid`: the index of each cloud it builds, in call
    order (None for points that are no cloud's own array)."""
    built = []
    build = pamr.training.cloud_pyramid

    def counting(points, model_cfg):
        built.append(next((i for i, c in enumerate(clouds) if c.points is points), None))
        return build(points, model_cfg)

    monkeypatch.setattr(pamr.training, "cloud_pyramid", counting)
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

        def loss_spy(model, pyramid, plan):
            seen.append(pyramid)
            return loss(model, pyramid, plan)

        def logits_spy(clf, pyramid):
            seen.append(pyramid)
            return logits(clf, pyramid)

        monkeypatch.setattr(MaskedAutoencoder, "loss", loss_spy)
        monkeypatch.setattr(CloudClassifier, "logits", logits_spy)
        clouds = small_dataset(per_class=2)
        pretrain_run(clouds, TINY, self.CFG)
        n_pretrain = len(seen)
        res = finetune_classify(clouds, TINY, self.CFG)
        assert n_pretrain == self.CFG.epochs * len(clouds)
        assert len(seen) - n_pretrain == self.CFG.epochs * res.train_idx.size
        plain = [cloud_pyramid(c.points, TINY) for c in clouds]
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

        def spy(clf, pyramid):
            alive.append(bool(refs) and refs[-1]() is not None)
            out = logits(clf, pyramid)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(CloudClassifier, "logits", spy)
        cfg = TrainConfig(
            epochs=2, batch_size=4, warmup_epochs=0, seed=5, augment=False, head_hidden=(16,),
        )
        res = finetune_classify(small_dataset(per_class=2), TINY, cfg)
        assert len(alive) == cfg.epochs * res.train_idx.size
        assert not any(alive)

    def test_per_cloud_step_matches_batched_graph(self, monkeypatch):
        """One unfrozen step on the desk model against the (B, K) graph it replaced."""
        clouds = gen_shapes([
            ShapeSpec(kind, 128, 0.01, seed=1000 * i + j, label=i)
            for i, kind in enumerate(("sphere", "cube", "torus", "cylinder"))
            for j in range(4)
        ])
        cfg = TrainConfig(
            epochs=1, batch_size=16, base_lr=1e-3, weight_decay=0.0, warmup_epochs=0, seed=3,
            augment=False, head_hidden=(64,), holdout_fraction=0.25,
        )
        batches, seen = [], []
        per_cloud, step = pamr.training._per_cloud, AdamW.step

        def per_cloud_spy(batch, loss_of):
            batches.append(batch)
            return per_cloud(batch, loss_of)

        def step_spy(opt):
            seen.append({n: (p.data.copy(), p.grad.copy()) for n, p in opt.params.items()})
            step(opt)

        monkeypatch.setattr(pamr.training, "_per_cloud", per_cloud_spy)
        monkeypatch.setattr(AdamW, "step", step_spy)
        res = finetune_classify(clouds, DESK, cfg)
        assert len(batches) == len(seen) == 1
        train = [clouds[i] for i in res.train_idx[batches[0]]]
        clf = res.classifier
        for name, p in clf.param_dict().items():
            p.data = seen[0][name][0]
            p.zero_grad()
        ref = _oracles.batched_classifier_loss(
            clf, [cloud_pyramid(c.points, DESK) for c in train], np.array([c.label for c in train])
        )
        assert abs(res.rows[0].loss - ref) <= 1e-15 * abs(ref)
        for name, p in clf.param_dict().items():
            got = seen[0][name][1]
            assert np.abs(got - p.grad).max() <= 1e-12 * np.abs(p.grad).max(), name

    def test_frozen_train_accuracy_matches_re_encoding(self):
        clouds = small_dataset(per_class=3)
        cfg = TrainConfig(
            epochs=4, batch_size=8, base_lr=1e-2, warmup_epochs=1, seed=6,
            augment=False, head_hidden=(16,), freeze_backbone=True,
        )
        res = finetune_classify(clouds, TINY, cfg)
        train = [clouds[i] for i in res.train_idx]
        feats = pooled_features(res.classifier, [cloud_pyramid(c.points, TINY) for c in train])
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
        encoded = count_pyramid_builds(monkeypatch, few_shot_clouds)
        pretrained = encoder_checkpoint if full_checkpoint else None
        few_shot_eval(few_shot_clouds, TINY, FEW_SHOT_CFG, pretrained=pretrained)
        c = FEW_SHOT_CFG
        per_call = c.trials * c.n_way * (c.m_shot + c.test_per_class)
        assert len(set(encoded)) < per_call  # the trials share clouds
        if full_checkpoint:
            assert len(encoded) == len(set(encoded))
        else:
            assert len(encoded) == per_call

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
        feats = pooled_features(clf, [cloud_pyramid(c.points, TINY) for c in clouds])
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
        ],
    )
    def test_invalid_train_config_is_config_error(self, run, setting, match):
        cfg = TrainConfig(**{**dict(epochs=1, batch_size=4, warmup_epochs=0, augment=False), **setting})
        with pytest.raises(ConfigError, match=match):
            run(small_dataset(per_class=1), TINY, cfg)
