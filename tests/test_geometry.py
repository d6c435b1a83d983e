import numpy as np
import pytest

from _oracles import (
    chamfer_chain_reference,
    chamfer_reference,
    fps_reference,
    fps_rowsum_reference,
    interpolation_weights_reference,
    knn_argsort_reference,
    knn_reference,
    pyramid_reference,
)
from pamr import tensor as T
from pamr.backbone import TokenPropagator
from pamr.config import ModelConfig
from pamr.data import SHAPE_KINDS, ShapeSpec, gen_shapes
from pamr.errors import ConfigError, MaskConsistencyError, NonFiniteError, ShapeError
from pamr.gradcheck import finite_diff_check
from pamr.geometry import (
    PointCloud,
    build_scale_pyramid,
    chamfer_l2_batched,
    fps,
    gather_patches,
    knn,
    mask_and_backproject,
    masked_rows,
    normalize_points,
    stack_pack,
    visible_positions,
)


def random_cloud(rng, n):
    return rng.normal(size=(n, 3))


class TestPointCloud:
    def test_validation(self):
        with pytest.raises(ShapeError):
            PointCloud(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            PointCloud(np.empty((0, 3)))
        with pytest.raises(ShapeError):
            PointCloud(np.array([[np.inf, 0, 0]]))

    def test_normalize_centers_and_scales(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 3)) * 4.0 + 2.5
        out = normalize_points(pts)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        radii = np.sqrt((out * out).sum(axis=1))
        assert radii.max() <= 1.0 + 1e-9
        np.testing.assert_allclose(radii.max(), 1.0, rtol=1e-12)

    def test_normalize_rejects_degenerate(self):
        with pytest.raises(ShapeError, match="^cannot normalize a cloud whose points all coincide$"):
            normalize_points(np.zeros((5, 3)))

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    def test_normalize_finite_extent_unchanged(self, scale):
        pts = np.random.default_rng(1).normal(size=(40, 3)) * scale
        centered = pts - pts.mean(axis=0)
        expected = centered / np.sqrt((centered * centered).sum(axis=1).max())
        assert normalize_points(pts).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("coord", [1e200, 1.7e308])
    def test_normalize_rejects_overflowing_extent(self, coord):
        pts = np.array([[coord, -coord, coord], [-coord, coord, -coord], [0.0, 0.0, 0.0]])
        # at 1.7e308 the centroid of the all-positive cloud overflows too
        for cloud in (pts, np.abs(pts)):
            with pytest.raises(NonFiniteError, match="overflows"):
                normalize_points(cloud)

    def test_label_coerced(self):
        c = PointCloud(np.ones((2, 3)), label=np.int64(3))
        assert c.label == 3 and isinstance(c.label, int)


class TestFPS:
    def test_matches_oracle_on_random_clouds(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 120))
            m = int(rng.integers(1, n + 1))
            pts = random_cloud(rng, n)
            np.testing.assert_array_equal(fps(pts[None], m)[0], fps_reference(pts, m))

    def test_square_corners(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        np.testing.assert_array_equal(fps(pts[None], 2)[0], [0, 3])

    def test_m_equals_n_gives_all_indices(self):
        rng = np.random.default_rng(11)
        pts = random_cloud(rng, 17)
        out = fps(pts[None], 17)[0]
        assert sorted(out.tolist()) == list(range(17))

    def test_duplicate_points_never_repicked(self):
        pts = np.zeros((6, 3))
        pts[3] = [1.0, 0, 0]
        out = fps(pts[None], 4)[0]
        assert len(set(out.tolist())) == 4

    def test_argument_errors(self):
        pts = np.ones((1, 4, 3))
        with pytest.raises(ShapeError):
            fps(pts, 5)
        with pytest.raises(ShapeError):
            fps(pts, 0)


class TestKNN:
    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            r = int(rng.integers(2, 80))
            q = int(rng.integers(1, 24))
            k = int(rng.integers(1, r + 1))
            refs = random_cloud(rng, r)
            queries = random_cloud(rng, q)
            np.testing.assert_array_equal(knn(queries[None], refs[None], k)[0][0], knn_reference(queries, refs, k))

    def test_self_query_returns_itself_first(self):
        rng = np.random.default_rng(21)
        refs = random_cloud(rng, 12)
        out = knn(refs[None, [4]], refs[None], 3)[0][0]
        assert out[0, 0] == 4

    def test_hand_case(self):
        out = knn(np.zeros((1, 1, 3)), np.array([[[0, 0, 0], [1, 0, 0], [2, 0, 0]]], dtype=float), 2)[0][0]
        np.testing.assert_array_equal(out, [[0, 1]])

    def test_tie_breaks_to_lower_index(self):
        refs = np.array([[1, 0, 0], [-1, 0, 0], [2, 0, 0]], dtype=float)
        out = knn(np.zeros((1, 1, 3)), refs[None], 2)[0][0]
        np.testing.assert_array_equal(out, [[0, 1]])

    def test_k_too_large(self):
        with pytest.raises(ShapeError):
            knn(np.zeros((1, 1, 3)), np.ones((1, 3, 3)), 4)


class TestStacksOnly:
    """FPS, kNN, the pyramid and the decoder's interpolation take stacks of
    clouds only; one cloud is a stack of one."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda pts: fps(pts, 4),
            lambda pts: knn(pts, pts, 2),
            lambda pts: knn(pts[None], pts, 2),
            lambda pts: build_scale_pyramid(pts, (8, 4), (2, 2)),
            lambda pts: TokenPropagator.interpolation_weights(pts, pts, 3),
        ],
        ids=["fps", "knn", "knn-refs", "build_scale_pyramid", "interpolation_weights"],
    )
    def test_one_cloud_without_its_stack_axis_is_a_shape_error(self, call):
        pts = random_cloud(np.random.default_rng(60), 16)
        with pytest.raises(ShapeError, match=r"must have shape \(C, N, 3\), got \(16, 3\)$"):
            call(pts)


class TestScalePyramid:
    def test_structure_and_invariants(self):
        rng = np.random.default_rng(30)
        for seed in range(10):
            pts = random_cloud(np.random.default_rng(seed), 64)
            pyr = build_scale_pyramid(pts[None], (16, 8), (4, 4))[0]
            assert pyr.num_scales == 2
            assert pyr.sizes == (64, 16, 8)
            for i in range(1, 3):
                np.testing.assert_array_equal(
                    pyr.points[i], pyr.points[i - 1][pyr.sample_idx[i - 1]]
                )
                nbr = pyr.neighbors[i - 1]
                assert nbr.shape == (pyr.sizes[i], 4)
                assert nbr.min() >= 0 and nbr.max() < pyr.sizes[i - 1]
                # every row holds distinct indices, nearest (itself) first
                for c in range(nbr.shape[0]):
                    assert len(set(nbr[c].tolist())) == 4
                    assert nbr[c, 0] == pyr.sample_idx[i - 1][c]
        del rng

    def test_single_scale_full_size(self):
        pts = np.random.default_rng(31).normal(size=(10, 3))
        pyr = build_scale_pyramid(pts[None], (10,), (1,))[0]
        assert sorted(pyr.sample_idx[0].tolist()) == list(range(10))
        np.testing.assert_array_equal(pyr.neighbors[0][:, 0], pyr.sample_idx[0])

    def test_config_errors(self):
        pts = np.random.default_rng(32).normal(size=(1, 20, 3))
        with pytest.raises(ConfigError):
            build_scale_pyramid(pts, (8, 8), (2, 2))
        with pytest.raises(ConfigError):
            build_scale_pyramid(pts, (30,), (2,))
        with pytest.raises(ConfigError):
            build_scale_pyramid(pts, (8, 4), (2,))
        with pytest.raises(ConfigError):
            build_scale_pyramid(pts, (8, 4), (2, 9))


class TestStackPack:
    def test_a_built_pyramid_is_a_pack_of_one(self):
        pyr = build_scale_pyramid(random_cloud(np.random.default_rng(33), 40)[None], (16, 8), (4, 4))[0]
        assert [o.tolist() for o in pyr.offsets] == [[0, 40], [0, 16], [0, 8]]

    def test_mismatched_packs_rejected(self):
        pts = random_cloud(np.random.default_rng(34), 32)
        two = build_scale_pyramid(pts[None], (16, 8), (4, 4))[0]
        three = build_scale_pyramid(pts[None], (16, 8, 4), (4, 4, 2))[0]
        plan = mask_and_backproject(two, 0.5, np.random.default_rng(35))
        with pytest.raises(ShapeError, match="of one scale count, got \\[2, 3\\]"):
            stack_pack([two, three])
        with pytest.raises(ShapeError, match="one plan per pyramid"):
            stack_pack([two, two], [plan])
        with pytest.raises(ShapeError, match="one plan per pyramid"):
            stack_pack([two], [plan, plan])
        with pytest.raises(ShapeError, match="one or more pyramids"):
            stack_pack([])


class TestFullSizeKernels:
    """The kernels against the former production kernels at the default
    model's sizes, on one normalized 2,048-point cloud of every kind."""

    CFG = ModelConfig()

    @pytest.mark.parametrize("kind", sorted(SHAPE_KINDS))
    def test_pyramid_and_interpolation_byte_identical(self, kind):
        (cloud,) = gen_shapes([ShapeSpec(kind, 2048, jitter=0.01, seed=7)])
        pts = normalize_points(cloud.points)
        pyr = build_scale_pyramid(pts[None], self.CFG.sizes, self.CFG.ks)[0]
        assert self.CFG.sizes == (512, 256, 64) and self.CFG.ks == (16, 8, 8)
        sample_idx, neighbors, levels = pyramid_reference(
            pts, self.CFG.sizes, self.CFG.ks, fps_rowsum_reference, knn_argsort_reference
        )
        for i in range(3):
            assert pyr.sample_idx[i].tobytes() == sample_idx[i].tobytes()
            assert pyr.neighbors[i].tobytes() == neighbors[i].tobytes()
            assert pyr.points[i + 1].tobytes() == levels[i + 1].tobytes()

        coarse, fine, k = pyr.points[3], pyr.points[2], self.CFG.interp_k
        idx, weights = TokenPropagator.interpolation_weights(coarse[None], fine[None], k)
        ref_idx, ref_weights = interpolation_weights_reference(coarse, fine, k)
        assert idx[0].tobytes() == ref_idx.tobytes()
        assert weights[0].tobytes() == ref_weights.tobytes()


class TestMasking:
    @staticmethod
    def check_plan(pyr, plan, mu):
        s = pyr.num_scales
        assert len(masked_rows(pyr, plan, s)) == int(np.floor(mu * pyr.size_at(s)))
        for i in range(1, s + 1):
            vis, msk = plan.visible[i], masked_rows(pyr, plan, i)
            assert np.all(np.diff(vis) > 0) and np.all(np.diff(msk) > 0)
            both = np.concatenate([vis, msk])
            np.testing.assert_array_equal(np.sort(both), np.arange(pyr.size_at(i)))
        for i in range(1, s):
            expected = np.unique(pyr.neighbors[i][plan.visible[i + 1]])
            np.testing.assert_array_equal(plan.visible[i], expected)

    def test_invariants_over_random_triples(self):
        rng = np.random.default_rng(40)
        for trial in range(20):
            pts = random_cloud(np.random.default_rng(trial), 96)
            pyr = build_scale_pyramid(pts[None], (32, 16, 8), (6, 4, 3))[0]
            mu = [0.5, 0.6, 0.7, 0.8, 0.9][trial % 5]
            plan = mask_and_backproject(pyr, mu, rng)
            self.check_plan(pyr, plan, mu)

    def test_mu_zero_everything_visible(self):
        pts = random_cloud(np.random.default_rng(41), 64)
        pyr = build_scale_pyramid(pts[None], (16, 8), (4, 4))[0]
        plan = mask_and_backproject(pyr, 0.0, np.random.default_rng(0))
        for i in (1, 2):
            np.testing.assert_array_equal(plan.visible[i], np.arange(pyr.size_at(i)))
            assert masked_rows(pyr, plan, i).size == 0

    def test_same_seed_same_plan(self):
        pts = random_cloud(np.random.default_rng(42), 64)
        pyr = build_scale_pyramid(pts[None], (16, 8), (4, 4))[0]
        a = mask_and_backproject(pyr, 0.6, np.random.default_rng(7))
        b = mask_and_backproject(pyr, 0.6, np.random.default_rng(7))
        for i in (1, 2):
            np.testing.assert_array_equal(a.visible[i], b.visible[i])
            np.testing.assert_array_equal(masked_rows(pyr, a, i), masked_rows(pyr, b, i))

    @pytest.mark.parametrize(
        "mu, draws", [(0.6, [8]), (0.1, []), (0.0, [])], ids=["masks", "rounds-to-0", "zero"]
    )
    def test_one_permutation_per_plan_that_masks_and_no_other_draw(self, mu, draws):
        pts = random_cloud(np.random.default_rng(44), 64)
        pyr = build_scale_pyramid(pts[None], (16, 8), (4, 4))[0]
        drawn, rng = [], np.random.default_rng(9)

        class OnlyPermutations:  # any other draw is an AttributeError
            def permutation(self, n):
                drawn.append(n)
                return rng.permutation(n)

        plan = mask_and_backproject(pyr, mu, OnlyPermutations())
        assert drawn == draws
        assert len(masked_rows(pyr, plan, 2)) == int(np.floor(mu * 8))

    def test_mu_domain(self):
        pts = random_cloud(np.random.default_rng(43), 32)
        pyr = build_scale_pyramid(pts[None], (8,), (2,))[0]
        with pytest.raises(ShapeError):
            mask_and_backproject(pyr, 1.0, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            mask_and_backproject(pyr, -0.1, np.random.default_rng(0))


class TestGatherPatches:
    def test_index_and_subtract_oracle(self):
        rng = np.random.default_rng(50)
        pts = random_cloud(rng, 48)
        pyr = build_scale_pyramid(pts[None], (12, 6), (4, 3))[0]
        for scale in (1, 2):
            got = gather_patches(pyr, scale, np.arange(pyr.size_at(scale)))
            idx = pyr.neighbors[scale - 1]
            for c in range(pyr.size_at(scale)):
                expected = pyr.points[scale - 1][idx[c]] - pyr.points[scale][c]
                np.testing.assert_array_equal(got[c], expected)

    def test_subset_and_self_zero(self):
        rng = np.random.default_rng(51)
        pts = random_cloud(rng, 48)
        pyr = build_scale_pyramid(pts[None], (12,), (4,))[0]
        subset = np.array([3, 7])
        got = gather_patches(pyr, 1, subset)
        assert got.shape == (2, 4, 3)
        # nearest neighbor of each center is itself: relative coordinate 0
        np.testing.assert_array_equal(got[:, 0, :], np.zeros((2, 3)))

    def test_translation_invariance(self):
        rng = np.random.default_rng(52)
        pts = random_cloud(rng, 48)
        pyr1 = build_scale_pyramid(pts[None], (12,), (4,))[0]
        pyr2 = build_scale_pyramid((pts + np.array([3.0, -2.0, 1.0]))[None], (12,), (4,))[0]
        every = np.arange(12)
        np.testing.assert_allclose(
            gather_patches(pyr1, 1, every), gather_patches(pyr2, 1, every), atol=1e-12
        )


class TestVisiblePositions:
    def test_positions_found(self):
        vis = np.array([2, 5, 9, 11])
        np.testing.assert_array_equal(visible_positions(vis, np.array([9, 2])), [2, 0])

    def test_missing_raises(self):
        with pytest.raises(MaskConsistencyError):
            visible_positions(np.array([2, 5]), np.array([3]))


class TestChamfer:
    def test_hand_values(self):
        one = chamfer_l2_batched(np.zeros((1, 1, 3)), np.array([[[1.0, 0.0, 0.0]]]))
        assert abs(one.item() - 2.0) < 1e-12
        two = chamfer_l2_batched(np.array([[[0.0, 0, 0], [2.0, 0, 0]]]), np.array([[[1.0, 0, 0]]]))
        assert abs(two.item() - 2.0) < 1e-12

    def test_identity_symmetry_translation(self):
        rng = np.random.default_rng(60)
        a, b = rng.normal(size=(1, 14, 3)), rng.normal(size=(1, 9, 3))
        assert chamfer_l2_batched(a, a).item() == 0.0
        ab, ba = chamfer_l2_batched(a, b).item(), chamfer_l2_batched(b, a).item()
        assert abs(ab - ba) < 1e-12
        t = np.array([0.3, -1.2, 0.7])
        shifted = chamfer_l2_batched(a + t, b + t).item()
        assert abs(shifted - ab) < 1e-9
        assert ab > 0.0

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            a, b = rng.normal(size=(8, 3)), rng.normal(size=(13, 3))
            got = chamfer_l2_batched(a[None], b[None]).item()
            assert abs(got - chamfer_reference(a, b)) < 1e-12

    def test_scaling_is_quadratic(self):
        rng = np.random.default_rng(62)
        a, b = rng.normal(size=(6, 3)), rng.normal(size=(7, 3))
        base = chamfer_l2_batched(a[None], b[None]).item()
        scaled = chamfer_l2_batched(3.0 * a[None], 3.0 * b[None]).item()
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)

    def test_gradient_wrt_pred(self):
        rng = np.random.default_rng(63)
        pred = T.param(rng.normal(size=(1, 5, 3)))
        truth = rng.normal(size=(1, 7, 3))
        report = finite_diff_check(lambda: chamfer_l2_batched(pred, truth), {"pred": pred})
        assert report.ok, report.summary()

    def test_batched_matches_mean_of_singles(self):
        rng = np.random.default_rng(64)
        pred = rng.normal(size=(4, 5, 3))
        truth = rng.normal(size=(4, 6, 3))
        singles = np.mean([chamfer_l2_batched(pred[i : i + 1], truth[i : i + 1]).item() for i in range(4)])
        batched = chamfer_l2_batched(pred, truth).item()
        np.testing.assert_allclose(batched, singles, rtol=1e-12)

    def test_batched_gradient(self):
        rng = np.random.default_rng(65)
        pred = T.param(rng.normal(size=(3, 4, 3)))
        truth = rng.normal(size=(3, 5, 3))
        report = finite_diff_check(lambda: chamfer_l2_batched(pred, truth), {"pred": pred})
        assert report.ok, report.summary()

    @pytest.mark.parametrize("case", ["random", "ties", "duplicates"])
    def test_loss_and_both_gradients_match_the_op_chain_bitwise(self, case):
        rng = np.random.default_rng(66)
        for m, a, b in [(1, 1, 1), (3, 1, 6), (4, 6, 1), (2, 5, 7), (5, 8, 8), (3, 16, 9)]:
            pred, truth = rng.normal(size=(m, a, 3)), rng.normal(size=(m, b, 3))
            if case == "ties":  # equal distances to several nearest points
                pred, truth = np.round(pred), np.round(truth)
            elif case == "duplicates":
                truth[:, -1], pred[:, -1] = truth[:, 0], pred[:, 0]
                pred[0, 0] = truth[0, 0]
            got, ref = [], []
            for fn, out in ((chamfer_l2_batched, got), (chamfer_chain_reference, ref)):
                p, t = T.param(pred), T.param(truth)
                loss = fn(p, t)
                loss.backward()
                out += [loss.data.tobytes(), p.grad.tobytes(), t.grad.tobytes()]
            assert got == ref, (m, a, b)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            chamfer_l2_batched(np.zeros((1, 0, 3)), np.ones((1, 2, 3)))
        with pytest.raises(ShapeError):
            chamfer_l2_batched(np.zeros((1, 2, 2)), np.ones((1, 2, 3)))
