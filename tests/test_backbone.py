import copy

import numpy as np
import pytest

from pamr import tensor as T
from pamr.backbone import (
    CloudClassifier,
    HierarchicalDecoder,
    HierarchicalEncoder,
    MaskedAutoencoder,
    MultiHeadAttention,
    TokenPropagator,
    TransformerBlock,
    pretrain_loss,
)
from pamr.config import ModelConfig
from pamr.errors import ConfigError, ShapeError
from pamr.gradcheck import finite_diff_check
from pamr.geometry import MaskPlan, build_scale_pyramid, gather_patches, mask_and_backproject
from pamr.tensor import Tensor


def tiny_pyramid(seed=0, n=32, mu=0.6):
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    pyr = build_scale_pyramid(pts, (16, 8), (4, 4))
    plan = mask_and_backproject(pyr, mu, np.random.default_rng(seed + 1))
    return pyr, plan


class TestAttention:
    def test_singleton_weight_is_one(self):
        rng = np.random.default_rng(0)
        attn = MultiHeadAttention(8, 2, rng)
        w = attn.attention_weights(Tensor(rng.normal(size=(1, 8))))
        np.testing.assert_array_equal(w, np.ones((2, 1, 1)))

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(1)
        attn = MultiHeadAttention(8, 2, rng)
        w = attn.attention_weights(Tensor(rng.normal(size=(5, 8))))
        np.testing.assert_allclose(w.sum(axis=-1), np.ones((2, 5)), rtol=1e-12)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            MultiHeadAttention(10, 3, np.random.default_rng(0))


class TestTransformerBlock:
    def test_shape_preserved(self):
        rng = np.random.default_rng(2)
        block = TransformerBlock(8, 2, rng)
        x = Tensor(rng.normal(size=(7, 8)))
        assert block(x).shape == (7, 8)

    def test_full_block_gradient(self):
        rng = np.random.default_rng(3)
        block = TransformerBlock(4, 2, rng)
        x = np.random.default_rng(4).normal(size=(3, 4))
        w = np.random.default_rng(5).normal(size=(3, 4))
        report = finite_diff_check(
            lambda: T.tsum(T.mul(block(Tensor(x)), w)), block.param_dict()
        )
        assert report.ok, report.summary()


class TestEncoder:
    def test_visible_token_counts_and_dims(self):
        cfg = ModelConfig.tiny()
        enc = HierarchicalEncoder(cfg, np.random.default_rng(10))
        pyr, plan = tiny_pyramid(seed=3)
        outs = enc(pyr, plan)
        assert len(outs) == 2
        for i, st in enumerate(outs):
            scale = i + 1
            assert st.tokens.shape == (plan.visible[scale].size, cfg.dims[i])
            assert st.coords.shape == (plan.visible[scale].size, 3)
            np.testing.assert_array_equal(st.index, plan.visible[scale])

    def test_mu_zero_full_counts(self):
        cfg = ModelConfig.tiny()
        enc = HierarchicalEncoder(cfg, np.random.default_rng(11))
        pyr, plan = tiny_pyramid(seed=4, mu=0.0)
        outs = enc(pyr, plan)
        assert outs[0].tokens.shape == (16, 8)
        assert outs[1].tokens.shape == (8, 16)

    def test_deterministic_given_seed(self):
        cfg = ModelConfig.tiny()
        pyr, plan = tiny_pyramid(seed=5)
        a = HierarchicalEncoder(cfg, np.random.default_rng(12))(pyr, plan)
        b = HierarchicalEncoder(cfg, np.random.default_rng(12))(pyr, plan)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.tokens.data, sb.tokens.data)

    def test_masked_coordinates_do_not_leak(self):
        cfg = ModelConfig.tiny()
        enc = HierarchicalEncoder(cfg, np.random.default_rng(13))
        pyr, plan = tiny_pyramid(seed=6)
        base = [st.tokens.numpy() for st in enc(pyr, plan)]

        mutated = copy.deepcopy(pyr)
        rng = np.random.default_rng(14)
        # perturb masked center coordinates at every token scale
        for scale in (1, 2):
            msk = plan.masked[scale]
            mutated.points[scale][msk] += rng.normal(size=(msk.size, 3))
        # and raw points no visible scale-1 patch touches
        used = np.unique(pyr.neighbors[0][plan.visible[1]])
        free = np.setdiff1d(np.arange(pyr.size_at(0)), used)
        mutated.points[0][free] += rng.normal(size=(free.size, 3))

        after = [st.tokens.numpy() for st in enc(mutated, plan)]
        for x, y in zip(base, after):
            np.testing.assert_array_equal(x, y)

    def test_empty_visible_scale_rejected(self):
        cfg = ModelConfig.tiny()
        enc = HierarchicalEncoder(cfg, np.random.default_rng(15))
        pyr, _ = tiny_pyramid(seed=7)
        empty = MaskPlan(
            0.9,
            [None, np.arange(16), np.empty(0, dtype=np.int64)],
            [None, np.empty(0, dtype=np.int64), np.arange(8)],
        )
        with pytest.raises(ConfigError):
            enc(pyr, empty)

    def test_scale_count_mismatch(self):
        cfg = ModelConfig.tiny()
        enc = HierarchicalEncoder(cfg, np.random.default_rng(16))
        pts = np.random.default_rng(17).normal(size=(32, 3))
        pyr = build_scale_pyramid(pts, (16, 8, 4), (4, 4, 2))
        plan = mask_and_backproject(pyr, 0.0, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            enc(pyr, plan)


class TestTokenPropagator:
    def test_weights_convex(self):
        rng = np.random.default_rng(20)
        coarse = rng.normal(size=(10, 3))
        fine = rng.normal(size=(25, 3))
        idx, w = TokenPropagator.interpolation_weights(coarse, fine, 3)
        assert idx.shape == w.shape == (25, 3)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(25), atol=1e-12)

    def test_coincident_point_dominates(self):
        rng = np.random.default_rng(21)
        coarse = rng.normal(size=(6, 3))
        fine = np.concatenate([coarse[[2]], rng.normal(size=(4, 3))])
        _, w = TokenPropagator.interpolation_weights(coarse, fine, 3)
        assert w[0, 0] > 1.0 - 1e-6

    def test_constant_tokens_give_projected_constant(self):
        rng = np.random.default_rng(22)
        prop = TokenPropagator(4, 6, rng)
        v = rng.normal(size=4)
        tokens = Tensor(np.tile(v, (8, 1)))
        coarse = rng.normal(size=(8, 3))
        fine = rng.normal(size=(20, 3))
        out = prop(tokens, coarse, fine, 3).data
        expected = (T.matmul(Tensor(v[None, :]), prop.proj.weight).data + prop.proj.bias.data)
        np.testing.assert_allclose(out, np.tile(expected, (20, 1)), atol=1e-12)

    def test_k_clamped_to_coarse_count(self):
        rng = np.random.default_rng(23)
        prop = TokenPropagator(4, 4, rng)
        tokens = Tensor(rng.normal(size=(2, 4)))
        out = prop(tokens, rng.normal(size=(2, 3)), rng.normal(size=(5, 3)), 3)
        assert out.shape == (5, 4)

    def test_gradients(self):
        rng = np.random.default_rng(24)
        prop = TokenPropagator(4, 5, rng)
        tokens = T.param(rng.normal(size=(6, 4)))
        coarse = rng.normal(size=(6, 3))
        fine = rng.normal(size=(9, 3))
        w = rng.normal(size=(9, 5))
        params = dict(prop.param_dict(), tokens=tokens)
        report = finite_diff_check(
            lambda: T.tsum(T.mul(prop(tokens, coarse, fine, 3), w)), params
        )
        assert report.ok, report.summary()


class TestDecoder:
    def test_output_covers_every_scale2_position(self):
        cfg = ModelConfig.tiny()
        rng = np.random.default_rng(30)
        enc = HierarchicalEncoder(cfg, rng)
        dec = HierarchicalDecoder(cfg, rng)
        pyr, plan = tiny_pyramid(seed=8)
        out = dec(enc(pyr, plan), pyr, plan)
        assert out.tokens.shape == (pyr.size_at(2), cfg.dims[1])
        np.testing.assert_array_equal(
            np.sort(np.concatenate([out.visible_idx, out.masked_idx])),
            np.arange(pyr.size_at(2)),
        )

    def test_mask_token_reaches_masked_outputs(self):
        cfg = ModelConfig.tiny()
        rng = np.random.default_rng(31)
        enc = HierarchicalEncoder(cfg, rng)
        dec = HierarchicalDecoder(cfg, rng)
        pyr, plan = tiny_pyramid(seed=9)
        stages = enc(pyr, plan)
        before = dec(stages, pyr, plan).tokens.numpy()
        # non-uniform bump: a uniform one would be erased by layer norms
        dec.mask_token.data = dec.mask_token.data + np.random.default_rng(33).normal(
            size=dec.mask_token.shape
        )
        after = dec(stages, pyr, plan).tokens.numpy()
        msk = plan.masked[2]
        assert not np.allclose(before[msk], after[msk])

    def test_gradient_flows_to_mask_token(self):
        cfg = ModelConfig.tiny()
        rng = np.random.default_rng(32)
        model = MaskedAutoencoder(cfg, rng)
        pyr, plan = tiny_pyramid(seed=10)
        model.loss(pyr, plan).backward()
        g = model.decoder.mask_token.grad
        assert np.any(g != 0.0)


class TestPretrainLoss:
    def test_hand_value_single_center_offset(self):
        pts = np.random.default_rng(40).normal(size=(8, 3))
        pyr = build_scale_pyramid(pts, (4, 2), (1, 1))
        plan = mask_and_backproject(pyr, 0.5, np.random.default_rng(1))
        assert plan.masked[2].size == 1
        truth = gather_patches(pyr, 2, plan.masked[2])
        pred = Tensor(truth + np.array([1.0, 0.0, 0.0]))
        assert abs(pretrain_loss(pred, pyr, plan).item() - 2.0) < 1e-12

    def test_exact_prediction_zero_loss(self):
        pyr, plan = tiny_pyramid(seed=11)
        truth = gather_patches(pyr, 2, plan.masked[2])
        assert pretrain_loss(Tensor(truth), pyr, plan).item() == 0.0

    def test_nothing_masked_raises(self):
        pyr, plan = tiny_pyramid(seed=12, mu=0.0)
        with pytest.raises(ConfigError):
            pretrain_loss(Tensor(np.zeros((1, 4, 3))), pyr, plan)

    def test_shape_mismatch_raises(self):
        pyr, plan = tiny_pyramid(seed=13)
        with pytest.raises(ShapeError):
            pretrain_loss(Tensor(np.zeros((1, 2, 3))), pyr, plan)


class TestMaskedAutoencoder:
    def test_loss_scalar_and_backward_finite(self):
        cfg = ModelConfig.tiny()
        model = MaskedAutoencoder(cfg, np.random.default_rng(50))
        pyr, plan = tiny_pyramid(seed=14)
        loss = model.loss(pyr, plan)
        assert loss.shape == () and loss.item() >= 0.0
        loss.backward()
        for name, p in model.named_parameters():
            assert np.all(np.isfinite(p.grad)), name

    def test_prediction_shapes(self):
        cfg = ModelConfig.tiny()
        model = MaskedAutoencoder(cfg, np.random.default_rng(51))
        pyr, plan = tiny_pyramid(seed=15)
        rec = model.reconstruct(pyr, plan)
        assert rec.pred.shape == (plan.masked[2].size, cfg.ks[1], 3)
        assert rec.pred_zero is None

    def test_zero_scale_head(self):
        cfg = ModelConfig.tiny()
        cfg = ModelConfig(**{**cfg.as_dict(), "zero_scale_head": True})
        model = MaskedAutoencoder(cfg, np.random.default_rng(52))
        pyr, plan = tiny_pyramid(seed=16)
        rec = model.reconstruct(pyr, plan)
        assert rec.pred_zero.shape == (plan.masked[2].size, cfg.ks[0], 3)
        base = pretrain_loss(rec.pred, pyr, plan).item()
        extra = pretrain_loss(rec.pred_zero, pyr, plan, zero_scale=True).item()
        np.testing.assert_allclose(model.loss(pyr, plan).item(), base + extra, rtol=1e-12)

    def test_end_to_end_gradients_sampled(self):
        cfg = ModelConfig.tiny()
        model = MaskedAutoencoder(cfg, np.random.default_rng(53))
        pyr, plan = tiny_pyramid(seed=17)
        report = finite_diff_check(
            lambda: model.loss(pyr, plan),
            model.param_dict(),
            tol=1e-3,
            sample=1,
            rng=np.random.default_rng(54),
        )
        assert report.ok, report.summary()


class TestCloudClassifier:
    def test_feature_and_logit_shapes(self):
        cfg = ModelConfig.tiny()
        clf = CloudClassifier(cfg, 4, (16,), np.random.default_rng(60))
        pyr, _ = tiny_pyramid(seed=18, mu=0.0)
        feats = clf.features(pyr)
        assert feats.shape == (1, 2 * cfg.dims[-1])
        assert clf.logits(pyr).shape == (1, 4)

    def test_class_count_validated(self):
        with pytest.raises(ConfigError):
            CloudClassifier(ModelConfig.tiny(), 1, (8,), np.random.default_rng(61))
