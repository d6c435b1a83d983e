import copy
import re

import numpy as np
import pytest
from _oracles import COMPOSITES, chamfer_chain_reference, ffn_chain_reference, interpolation_weights_reference

from pamr import backbone
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
from pamr.gradcheck import finite_diff_check, pipeline_gradient_check
from pamr.geometry import (
    ScalePyramid,
    build_scale_pyramid,
    chamfer_l2_batched,
    gather_patches,
    knn,
    mask_and_backproject,
    masked_rows,
    stack_pack,
)
from pamr.tensor import Tensor


def tiny_pyramid(seed=0, n=32, mu=0.6):
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    pyr = build_scale_pyramid(pts[None], (16, 8), (4, 4))[0]
    plan = mask_and_backproject(pyr, mu, np.random.default_rng(seed + 1))
    return pyr, plan


def two_levels(fine, coarse):
    """A one-cloud pyramid of just the two levels a propagator reads."""
    return ScalePyramid([fine, coarse], [], [], [np.array([0, len(fine)]), np.array([0, len(coarse)])])


class TestAttention:
    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            MultiHeadAttention(10, 3, np.random.default_rng(0))


class TestTransformerBlock:
    def test_shape_preserved(self):
        rng = np.random.default_rng(2)
        block = TransformerBlock(8, 2, rng)
        x = Tensor(rng.normal(size=(7, 8)))
        assert block(x, (0, 7)).shape == (7, 8)

    def test_full_block_gradient(self):
        rng = np.random.default_rng(3)
        block = TransformerBlock(4, 2, rng)
        x = np.random.default_rng(4).normal(size=(3, 4))
        w = np.random.default_rng(5).normal(size=(3, 4))
        report = finite_diff_check(
            lambda: T.tsum(T.mul(block(Tensor(x), (0, 3)), w)), block.param_dict()
        )
        assert report.ok, report.summary()


class TestEncoder:
    def test_visible_token_counts_and_dims(self):
        cfg = ModelConfig.tiny()
        enc = HierarchicalEncoder(cfg, np.random.default_rng(10))
        pyr, plan = tiny_pyramid(seed=3)
        outs = enc(pyr, plan)
        assert len(outs) == 2
        for i, tokens in enumerate(outs):
            assert tokens.shape == (plan[i + 1].size, cfg.dims[i])

    def test_mu_zero_full_counts(self):
        cfg = ModelConfig.tiny()
        enc = HierarchicalEncoder(cfg, np.random.default_rng(11))
        pyr, plan = tiny_pyramid(seed=4, mu=0.0)
        outs = enc(pyr, plan)
        assert outs[0].shape == (16, 8)
        assert outs[1].shape == (8, 16)

    def test_deterministic_given_seed(self):
        cfg = ModelConfig.tiny()
        pyr, plan = tiny_pyramid(seed=5)
        a = HierarchicalEncoder(cfg, np.random.default_rng(12))(pyr, plan)
        b = HierarchicalEncoder(cfg, np.random.default_rng(12))(pyr, plan)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.data, sb.data)

    def test_masked_coordinates_do_not_leak(self):
        cfg = ModelConfig.tiny()
        enc = HierarchicalEncoder(cfg, np.random.default_rng(13))
        pyr, plan = tiny_pyramid(seed=6)
        base = [t.numpy() for t in enc(pyr, plan)]

        mutated = copy.deepcopy(pyr)
        rng = np.random.default_rng(14)
        # perturb masked center coordinates at every token scale
        for scale in (1, 2):
            msk = masked_rows(pyr, plan, scale)
            mutated.points[scale][msk] += rng.normal(size=(msk.size, 3))
        # and raw points no visible scale-1 patch touches
        used = np.unique(pyr.neighbors[0][plan[1]])
        free = np.setdiff1d(np.arange(pyr.size_at(0)), used)
        mutated.points[0][free] += rng.normal(size=(free.size, 3))

        after = [t.numpy() for t in enc(mutated, plan)]
        for x, y in zip(base, after):
            np.testing.assert_array_equal(x, y)

    def test_empty_visible_scale_rejected(self):
        cfg = ModelConfig.tiny()
        enc = HierarchicalEncoder(cfg, np.random.default_rng(15))
        pyr, _ = tiny_pyramid(seed=7)
        empty = [None, np.arange(16), np.empty(0, dtype=np.int64)]
        with pytest.raises(ConfigError):
            enc(pyr, empty)
        ok_pyr, ok_plan = tiny_pyramid(seed=8)
        with pytest.raises(ConfigError, match="no visible rows at scale 2 in cloud 1 of the pack") as err:
            enc(*stack_pack([ok_pyr, pyr], [ok_plan, empty]))
        # mask_and_backproject always leaves a visible row, so no mask ratio is the remedy
        assert "mask_ratio" not in str(err.value)

    def test_scale_count_mismatch(self):
        cfg = ModelConfig.tiny()
        enc = HierarchicalEncoder(cfg, np.random.default_rng(16))
        pts = np.random.default_rng(17).normal(size=(32, 3))
        pyr = build_scale_pyramid(pts[None], (16, 8, 4), (4, 4, 2))[0]
        plan = mask_and_backproject(pyr, 0.0, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            enc(pyr, plan)


class TestTokenPropagator:
    def test_weights_convex(self):
        rng = np.random.default_rng(20)
        coarse = rng.normal(size=(2, 10, 3))
        fine = rng.normal(size=(2, 25, 3))
        idx, w = TokenPropagator.interpolation_weights(coarse, fine, 3)
        assert idx.shape == w.shape == (2, 25, 3)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=2), np.ones((2, 25)), atol=1e-12)

    def test_coincident_point_dominates(self):
        rng = np.random.default_rng(21)
        coarse = rng.normal(size=(6, 3))
        fine = np.concatenate([coarse[[2]], rng.normal(size=(4, 3))])
        _, w = TokenPropagator.interpolation_weights(coarse[None], fine[None], 3)
        assert w[0, 0, 0] > 1.0 - 1e-6

    @pytest.mark.parametrize("ties", [False, True])
    def test_interpolation_weights_match_recomputed_distances(self, ties):
        # kNN's own squared distances give the weights a fresh difference
        # array gave, bit for bit, past and below the full-sort cutoff
        rng = np.random.default_rng(16)
        for n_coarse in (1, 2, 5, 32, 33, 80):
            coarse = rng.normal(size=(n_coarse, 3))
            fine = np.concatenate([rng.normal(size=(40, 3)), coarse[:4]])
            if ties:
                coarse, fine = np.round(coarse), np.round(2.0 * fine) / 2.0
            for k in (1, 3, 8):
                idx, weights = TokenPropagator.interpolation_weights(coarse[None], fine[None], k)
                # a k past the coarse set takes all of it
                assert idx.shape == (1, fine.shape[0], min(k, n_coarse))
                ref_idx, ref_weights = interpolation_weights_reference(coarse, fine, k)
                assert idx[0].tobytes() == ref_idx.tobytes()
                assert weights[0].tobytes() == ref_weights.tobytes()

    def test_constant_tokens_give_projected_constant(self):
        rng = np.random.default_rng(22)
        prop = TokenPropagator(4, 6, rng)
        v = rng.normal(size=4)
        tokens = Tensor(np.tile(v, (8, 1)))
        coarse = rng.normal(size=(8, 3))
        fine = rng.normal(size=(20, 3))
        out = prop(tokens, two_levels(fine, coarse), 0, 3).data
        expected = (T.matmul(Tensor(v[None, :]), prop.proj.weight).data + prop.proj.bias.data)
        np.testing.assert_allclose(out, np.tile(expected, (20, 1)), atol=1e-12)

    def test_k_clamped_to_coarse_count(self):
        rng = np.random.default_rng(23)
        prop = TokenPropagator(4, 4, rng)
        tokens = Tensor(rng.normal(size=(2, 4)))
        out = prop(tokens, two_levels(rng.normal(size=(5, 3)), rng.normal(size=(2, 3))), 0, 3)
        assert out.shape == (5, 4)

    @pytest.mark.parametrize("sizes", [(32, 16, 8), (96, 48, 40)])
    def test_a_pack_mixes_each_cloud_as_alone(self, sizes):
        # 8 coarse centers are sorted in full, 40 by kNN's partial selection
        rng = np.random.default_rng(25)
        pyramids = build_scale_pyramid(rng.normal(size=(3, 128, 3)), sizes, (4, 4, 2))
        pack, _ = stack_pack(pyramids)
        prop = TokenPropagator(4, 6, rng)
        tokens = rng.normal(size=(pack.size_at(3), 4))
        cuts = pack.offsets[3]
        alone = [prop(Tensor(tokens[lo:hi]), p, 2, 3).data for p, lo, hi in zip(pyramids, cuts[:-1], cuts[1:])]
        assert prop(Tensor(tokens), pack, 2, 3).data.tobytes() == np.concatenate(alone).tobytes()

    def test_gradients(self):
        rng = np.random.default_rng(24)
        prop = TokenPropagator(4, 5, rng)
        tokens = T.param(rng.normal(size=(6, 4)))
        coarse = rng.normal(size=(6, 3))
        fine = rng.normal(size=(9, 3))
        w = rng.normal(size=(9, 5))
        params = dict(prop.param_dict(), tokens=tokens)
        report = finite_diff_check(
            lambda: T.tsum(T.mul(prop(tokens, two_levels(fine, coarse), 0, 3), w)), params
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
        assert out.shape == (pyr.size_at(2), cfg.dims[1])

    def test_mask_token_reaches_masked_outputs(self):
        cfg = ModelConfig.tiny()
        rng = np.random.default_rng(31)
        enc = HierarchicalEncoder(cfg, rng)
        dec = HierarchicalDecoder(cfg, rng)
        pyr, plan = tiny_pyramid(seed=9)
        stages = enc(pyr, plan)
        before = dec(stages, pyr, plan).numpy()
        # non-uniform bump: a uniform one would be erased by layer norms
        dec.mask_token.data = dec.mask_token.data + np.random.default_rng(33).normal(
            size=dec.mask_token.shape
        )
        after = dec(stages, pyr, plan).numpy()
        msk = masked_rows(pyr, plan, 2)
        assert not np.allclose(before[msk], after[msk])

    def test_no_masked_top_centers_leaves_mask_token_gradient_zero(self):
        cfg = ModelConfig.tiny()
        rng = np.random.default_rng(34)
        enc, dec = HierarchicalEncoder(cfg, rng), HierarchicalDecoder(cfg, rng)
        pyr, plan = tiny_pyramid(seed=12, mu=0.0)
        assert masked_rows(pyr, plan, 2).size == 0
        stages = enc(pyr, plan)
        out = dec(stages, pyr, plan)
        assert out.shape == (pyr.size_at(2), cfg.dims[1])
        T.tsum(T.mul(out, rng.normal(size=out.shape))).backward()
        assert dec.mask_token.grad.tobytes() == np.zeros(cfg.dims[-1]).tobytes()
        assert np.any(enc.norms[-1].scale.grad != 0.0)

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
        pyr = build_scale_pyramid(pts[None], (4, 2), (1, 1))[0]
        plan = mask_and_backproject(pyr, 0.5, np.random.default_rng(1))
        assert masked_rows(pyr, plan, 2).size == 1
        truth = gather_patches(pyr, 2, masked_rows(pyr, plan, 2))
        pred = Tensor(truth + np.array([1.0, 0.0, 0.0]))
        assert abs(pretrain_loss(pred, pyr, plan).item() - 2.0) < 1e-12

    def test_exact_prediction_zero_loss(self):
        pyr, plan = tiny_pyramid(seed=11)
        truth = gather_patches(pyr, 2, masked_rows(pyr, plan, 2))
        assert pretrain_loss(Tensor(truth), pyr, plan).item() == 0.0

    def test_nothing_masked_raises(self):
        # the one empty-mask check is the model's, before the pack's forward
        pyr, plan = tiny_pyramid(seed=12, mu=0.0)
        ok_pyr, ok_plan = tiny_pyramid(seed=11)
        model = MaskedAutoencoder(ModelConfig.tiny(), np.random.default_rng(58))
        with pytest.raises(ConfigError, match="in cloud 1 of the pack; raise mask_ratio or lower ks"):
            model.loss(*stack_pack([ok_pyr, pyr], [ok_plan, plan]))

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
        pred, pred_zero = model.reconstruct(pyr, plan)
        assert pred.shape == (masked_rows(pyr, plan, 2).size, cfg.ks[1], 3)
        assert pred_zero is None

    def test_zero_scale_head(self):
        cfg = ModelConfig.tiny()
        cfg = ModelConfig(**{**cfg.as_dict(), "zero_scale_head": True})
        model = MaskedAutoencoder(cfg, np.random.default_rng(52))
        pyr, plan = tiny_pyramid(seed=16)
        pred, pred_zero = model.reconstruct(pyr, plan)
        assert pred_zero.shape == (masked_rows(pyr, plan, 2).size, cfg.ks[0], 3)
        base = pretrain_loss(pred, pyr, plan).item()
        extra = pretrain_loss(pred_zero, pyr, plan, zero_scale=True).item()
        np.testing.assert_allclose(model.loss(pyr, plan).item(), base + extra, rtol=1e-12)

    def test_fused_ops_match_their_composite_chains(self, monkeypatch):
        # one desk-scale cloud through the whole model, once with the fused
        # ops and once with the chains of elementary ops they replace
        cfg = ModelConfig(
            n_points=128, sizes=(32, 16), ks=(8, 8), dims=(16, 32), heads=2,
            encoder_blocks=1, decoder_blocks=1, la_window=3, la_groups=4,
        )
        pts = np.random.default_rng(55).normal(size=(128, 3))
        pyr = build_scale_pyramid(pts[None], cfg.sizes, cfg.ks)[0]
        plan = mask_and_backproject(pyr, 0.6, np.random.default_rng(56))

        def run():
            model = MaskedAutoencoder(cfg, np.random.default_rng(57))
            loss = model.loss(pyr, plan)
            loss.backward()
            return loss.item(), {n: p.grad for n, p in model.named_parameters()}

        loss, grads = run()
        for name, ref_op in COMPOSITES.items():
            monkeypatch.setattr(T, name, ref_op)
        monkeypatch.setattr(backbone, "chamfer_l2_batched", chamfer_chain_reference)
        ref_loss, ref_grads = run()
        assert loss == ref_loss
        scale = max(np.max(np.abs(g)) for g in ref_grads.values())
        for name, g in grads.items():
            assert np.max(np.abs(g - ref_grads[name])) <= 1e-12 * scale, name

    @pytest.mark.parametrize("n_clouds", [1, 3])
    def test_fused_ffn_is_its_chain_bitwise_on_a_pack(self, monkeypatch, n_clouds):
        # the loss and every parameter gradient of a pack, with the fused FFN
        # and with its five-op chain, over blocks whose input has two consumers
        cfg = ModelConfig(
            n_points=128, sizes=(32, 16), ks=(8, 8), dims=(16, 32), heads=2,
            encoder_blocks=2, decoder_blocks=1, la_window=3, la_groups=4,
        )
        rng = np.random.default_rng(58)
        pyramids = build_scale_pyramid(rng.normal(size=(n_clouds, 128, 3)), cfg.sizes, cfg.ks)
        pyr, plan = stack_pack(pyramids, [mask_and_backproject(p, 0.6, rng) for p in pyramids])

        def run():
            model = MaskedAutoencoder(cfg, np.random.default_rng(59))
            loss = model.loss(pyr, plan)
            loss.backward()
            return loss.item(), {n: p.grad for n, p in model.named_parameters()}

        loss, grads = run()
        monkeypatch.setattr(T, "ffn", ffn_chain_reference)
        ref_loss, ref_grads = run()
        assert loss == ref_loss
        for name, g in grads.items():
            np.testing.assert_array_equal(g, ref_grads[name], err_msg=name)

    def test_every_kernel_split_in_halves_gives_the_unsplit_bits(self, monkeypatch):
        # a desk pack's forward and backward with every linear, ffn and
        # attention kernel over the threshold: the loss, the outputs and every
        # parameter gradient are bitwise those of the unsplit run
        cfg = ModelConfig(
            n_points=128, sizes=(32, 16), ks=(8, 8), dims=(16, 32), heads=2,
            encoder_blocks=1, decoder_blocks=1, la_window=3, la_groups=4,
        )
        rng = np.random.default_rng(60)
        pyramids = build_scale_pyramid(rng.normal(size=(3, 128, 3)), cfg.sizes, cfg.ks)
        pyr, plan = stack_pack(pyramids, [mask_and_backproject(p, 0.6, rng) for p in pyramids])

        def run():
            model = MaskedAutoencoder(cfg, np.random.default_rng(61))
            pred, _ = model.reconstruct(pyr, plan)
            loss = pretrain_loss(pred, pyr, plan)
            loss.backward()
            stages = model.encoder(pyr, plan)
            outputs = [t.data.tobytes() for t in (loss, pred, model.decoder(stages, pyr, plan), *stages)]
            return outputs, {n: p.grad.tobytes() for n, p in model.named_parameters()}

        whole = run()
        pairs, pair = [], T._pair
        monkeypatch.setattr(T, "_PAIR_MNK", 0)
        monkeypatch.setattr(T, "_pair", lambda f, g: pairs.append(f) or pair(f, g))
        assert run() == whole
        assert pairs

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

    def test_pipeline_gradient_check_compares_every_live_parameter(self):
        # every entry within tol of its own analytic value: no floor under which
        # a near-zero gradient would be compared with zero instead
        report = pipeline_gradient_check()
        loose = [e.name for e in report.entries if not abs(e.analytic - e.numeric) < report.tol * abs(e.analytic)]
        assert not loose, f"{loose}\n{report.summary()}"


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


DESK = ModelConfig(
    n_points=128, sizes=(32, 16), ks=(8, 8), dims=(16, 32), heads=2,
    encoder_blocks=1, decoder_blocks=1, la_window=3, la_groups=4,
)
NETS = {
    "autoencoder": lambda cfg, rng: MaskedAutoencoder(cfg, rng),
    "classifier": lambda cfg, rng: CloudClassifier(cfg, 4, (16,), rng),
}


@pytest.mark.parametrize("net", NETS)
@pytest.mark.parametrize("cfg", [ModelConfig.tiny(), DESK, ModelConfig()], ids=["tiny", "desk", "default"])
def test_parameter_names_are_unique(cfg, net):
    """`param_dict` keys parameters by name, so checkpoints hold each once."""
    model = NETS[net](cfg, np.random.default_rng(0))
    names = [name for name, _ in model.named_parameters()]
    assert len(set(names)) == len(names) == len(model.param_dict())


@pytest.mark.parametrize("net", NETS)
def test_calling_a_model_directly_is_not_implemented(net):
    """Neither model defines `forward`: callers use `loss`, `reconstruct`, `features` or `logits`."""
    model = NETS[net](ModelConfig.tiny(), np.random.default_rng(0))
    pyr, plan = tiny_pyramid(seed=19)
    name = type(model).__name__
    with pytest.raises(NotImplementedError, match=f"^{name} has no forward$"):
        model(pyr, plan)


def _ones(*shape):
    return Tensor(np.ones(shape))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: T.concat([]), ShapeError, "concat needs at least one tensor"),
        (lambda: T.index_select(_ones(3, 2), np.array([0.0])), ShapeError, "index_select needs integer indices"),
        (lambda: T.amax(_ones(2, 3), axis=(0, 1)), ShapeError, "max/min reduction needs a single integer axis"),
        (lambda: T.conv1d_channel(_ones(4), np.zeros(3)), ShapeError,
         "conv1d_channel needs (..., C, L) input, got (4,)"),
        (lambda: T.group_norm(_ones(4), 1, np.ones(4), np.zeros(4)), ShapeError,
         "group_norm needs (..., C, L) input, got (4,)"),
        (lambda: T.group_norm(_ones(4, 2), 2, np.ones(3), np.zeros(3)), ShapeError,
         "affine params must have shape (4,)"),
        (lambda: T.layer_norm(_ones(2, 4), np.ones(3), np.zeros(4)), ShapeError,
         "affine params must have shape (4,)"),
        (lambda: knn(np.zeros((2, 3, 3)), np.zeros((1, 5, 3)), 2), ShapeError,
         "queries (2, 3, 3) and refs (1, 5, 3) must stack the same clouds"),
        (lambda: build_scale_pyramid(np.zeros((1, 8, 3)), (), ()), ConfigError, "a pyramid needs at least one scale"),
        (lambda: gather_patches(tiny_pyramid()[0], 0, np.arange(4)), ShapeError, "scale 0 outside 1..2"),
        (lambda: chamfer_l2_batched(np.zeros((2, 3, 3)), np.zeros((1, 3, 3))), ShapeError,
         "batch sizes disagree: 2 vs 1"),
        (lambda: chamfer_l2_batched(np.zeros((2, 3, 3)), np.zeros((2, 4, 3)), np.ones(3)), ShapeError,
         "need one weight per pair, 2, got shape (3,)"),
        (lambda: TokenPropagator(4, 2, np.random.default_rng(0))(
            _ones(3, 4), two_levels(np.zeros((5, 3)), np.zeros((4, 3))), 0, 2), ShapeError,
         "3 tokens for 4 coarse positions"),
    ],
    ids=["concat", "index_select", "amax", "conv1d_channel", "group_norm-rank", "group_norm-affine",
         "layer_norm-affine", "knn-stacks", "pyramid-scales", "gather_patches-scale", "chamfer-batch",
         "chamfer-weights", "TokenPropagator-tokens"],
)
def test_shape_checks_name_the_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
