import numpy as np
import pytest

from pamr import tensor as T
from pamr.embedding import (
    LocalAttentionGate,
    PatchTokenizer,
    PositionEmbedding,
    TokenMerger,
    fit_groups,
)
from pamr.errors import ConfigError, ShapeError
from pamr.gradcheck import finite_diff_check
from pamr.tensor import Tensor


def randomize(module, rng, scale=0.1):
    for _, p in module.named_parameters():
        p.data = rng.normal(size=p.shape) * scale


class TestLocalAttentionGate:
    def test_shape_preserved_on_reference_dims(self):
        rng = np.random.default_rng(0)
        gate = LocalAttentionGate(96, 5, 32)
        x = Tensor(rng.normal(size=(4, 96, 16)))
        assert gate(x).shape == (4, 96, 16)
        x2 = Tensor(rng.normal(size=(96, 7)))
        assert gate(x2).shape == (96, 7)

    def test_identity_at_zero_weights(self):
        rng = np.random.default_rng(1)
        gate = LocalAttentionGate(8, 3, 4)  # zero convs by construction
        x = Tensor(rng.normal(size=(2, 8, 5)))
        out = gate(x)
        np.testing.assert_array_equal(out.data, x.data)
        wx, wy = gate.gates(x)
        np.testing.assert_array_equal(wx.data, np.full_like(wx.data, 0.5))
        np.testing.assert_array_equal(wy.data, np.full_like(wy.data, 0.5))

    def test_gate_range_with_random_weights(self):
        for seed in range(5):
            gate = LocalAttentionGate(16, 5, 4)
            randomize(gate, np.random.default_rng(seed), scale=2.0)
            x = Tensor(np.random.default_rng(seed + 100).normal(size=(3, 16, 9)))
            wx, wy = gate.gates(x)
            total = wx.data + wy.data
            assert np.all(total > 0.0) and np.all(total < 2.0)

    def test_branch_toggles(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 8, 6)))
        avg_only = LocalAttentionGate(8, 3, 4, avg_branch=True, max_branch=False)
        randomize(avg_only, np.random.default_rng(0))
        wx, wy = avg_only.gates(x)
        assert wy is None
        np.testing.assert_array_equal(avg_only(x).data, x.data * wx.data)

        max_only = LocalAttentionGate(8, 3, 4, avg_branch=False, max_branch=True)
        randomize(max_only, np.random.default_rng(0))
        wx2, wy2 = max_only.gates(x)
        assert wx2 is None
        np.testing.assert_array_equal(max_only(x).data, x.data * wy2.data)

        with pytest.raises(ConfigError, match="^the gate needs its average or its max branch$"):
            LocalAttentionGate(8, 3, 4, avg_branch=False, max_branch=False)

    def test_branches_see_different_descriptors(self):
        rng = np.random.default_rng(4)
        gate = LocalAttentionGate(8, 3, 4)
        randomize(gate, np.random.default_rng(5))
        # force both branches through identical params: gates still differ
        for src, dst in [("avg_kernel", "max_kernel"), ("avg_scale", "max_scale"),
                         ("avg_shift", "max_shift")]:
            getattr(gate, dst).data = getattr(gate, src).data.copy()
        x = Tensor(rng.normal(size=(8, 6)))
        wx, wy = gate.gates(x)
        assert not np.array_equal(wx.data, wy.data)

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            LocalAttentionGate(8, 4, 4)  # even window
        with pytest.raises(ConfigError):
            LocalAttentionGate(8, 3, 5)  # 5 does not divide 8
        gate = LocalAttentionGate(8, 3, 4)
        with pytest.raises(ShapeError):
            gate(Tensor(np.ones((7, 4))))  # wrong channel count

    def test_gradients(self):
        gate = LocalAttentionGate(6, 3, 3)
        randomize(gate, np.random.default_rng(8))
        x = np.random.default_rng(9).normal(size=(2, 6, 5))
        w = np.random.default_rng(10).normal(size=(2, 6, 5))
        report = finite_diff_check(
            lambda: T.tsum(T.mul(gate(Tensor(x)), w)), gate.param_dict()
        )
        assert report.ok, report.summary()

    def test_fit_groups(self):
        assert fit_groups(96, 32) == 32
        assert fit_groups(48, 32) == 16
        assert fit_groups(8, 32) == 8
        assert fit_groups(7, 32) == 1


class TestPatchTokenizer:
    def test_output_shape(self):
        rng = np.random.default_rng(20)
        tok = PatchTokenizer(16, 3, 4, rng)
        patches = rng.normal(size=(10, 6, 3))
        assert tok(patches).shape == (10, 16)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        tok = PatchTokenizer(16, 3, 4, rng)
        patches = rng.normal(size=(5, 7, 3))
        perm = rng.permutation(7)
        base = tok(patches).data
        np.testing.assert_array_equal(tok(patches[:, perm, :]).data, base)
        # gates off the zero init: invariance holds to rounding
        randomize(tok, np.random.default_rng(22))
        a = tok(patches).data
        b = tok(patches[:, perm, :]).data
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(23)
        tok = PatchTokenizer(16, 3, 4, rng)
        randomize(tok, np.random.default_rng(24))
        patches = rng.normal(size=(4, 5, 3))
        doubled = np.concatenate([patches, patches], axis=1)
        np.testing.assert_allclose(tok(doubled).data, tok(patches).data, rtol=1e-12, atol=1e-14)

    def test_la_disabled_bypasses_gates(self):
        rng = np.random.default_rng(25)
        tok = PatchTokenizer(8, 3, 4, rng, la_enabled=False)
        assert not hasattr(tok, "gate_a")
        patches = rng.normal(size=(3, 4, 3))
        assert tok(patches).shape == (3, 8)

    def test_gradients(self):
        rng = np.random.default_rng(26)
        tok = PatchTokenizer(8, 3, 4, rng)
        randomize(tok, np.random.default_rng(27))
        patches = np.random.default_rng(28).normal(size=(3, 4, 3))
        w = np.random.default_rng(29).normal(size=(3, 8))
        report = finite_diff_check(
            lambda: T.tsum(T.mul(tok(patches), w)), tok.param_dict()
        )
        assert report.ok, report.summary()

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            PatchTokenizer(9, 3, 4, np.random.default_rng(0))


class TestTokenMerger:
    def test_shape_and_gather(self):
        rng = np.random.default_rng(30)
        merger = TokenMerger(8, 12, rng)
        tokens = Tensor(rng.normal(size=(20, 8)))
        rows = rng.integers(0, 20, size=(6, 4))
        assert merger(tokens, rows).shape == (6, 12)

    def test_gathered_permutation_invariance(self):
        rng = np.random.default_rng(31)
        merger = TokenMerger(8, 12, rng)
        tokens = Tensor(rng.normal(size=(20, 8)))
        rows = rng.integers(0, 20, size=(6, 5))
        base = merger(tokens, rows).data
        shuffled = rows[:, rng.permutation(5)]
        np.testing.assert_array_equal(merger(tokens, shuffled).data, base)

    def test_gradients_flow_to_tokens_and_params(self):
        rng = np.random.default_rng(32)
        merger = TokenMerger(6, 8, rng)
        tokens = T.param(rng.normal(size=(10, 6)))
        rows = rng.integers(0, 10, size=(4, 3))
        w = rng.normal(size=(4, 8))
        params = dict(merger.param_dict(), tokens=tokens)
        report = finite_diff_check(
            lambda: T.tsum(T.mul(merger(tokens, rows), w)), params
        )
        assert report.ok, report.summary()


class TestPositionEmbedding:
    def test_same_coords_same_rows(self):
        rng = np.random.default_rng(40)
        pos = PositionEmbedding(16, rng)
        coords = np.array([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5], [0.1, 0.2, 0.3]])
        out = pos(coords).data
        np.testing.assert_array_equal(out[0], out[2])
        assert out.shape == (3, 16)

    def test_gradients(self):
        rng = np.random.default_rng(41)
        pos = PositionEmbedding(8, rng)
        randomize(pos, np.random.default_rng(42))
        coords = np.random.default_rng(43).normal(size=(5, 3))
        w = np.random.default_rng(44).normal(size=(5, 8))
        report = finite_diff_check(lambda: T.tsum(T.mul(pos(coords), w)), pos.param_dict())
        assert report.ok, report.summary()


@pytest.mark.parametrize(
    "forward",
    [
        lambda rng: LocalAttentionGate(8, 3, 4).gates(Tensor(np.ones((7, 4)))),
        lambda rng: PatchTokenizer(8, 3, 4, rng)(np.ones((5, 4, 2))),
        lambda rng: TokenMerger(8, 12, rng)(Tensor(np.ones((20, 8))), np.zeros(6, dtype=np.int64)),
        lambda rng: PositionEmbedding(8, rng)(np.ones((5, 2))),
    ],
    ids=["LocalAttentionGate.gates", "PatchTokenizer", "TokenMerger", "PositionEmbedding"],
)
def test_a_forwards_wrong_input_array_is_a_shape_error(forward):
    """A constructor's bad value is a ConfigError; an input array of the wrong rank or width is a ShapeError."""
    with pytest.raises(ShapeError):
        forward(np.random.default_rng(0))
