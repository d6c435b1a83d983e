import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from _oracles import COMPOSITES, ffn_chain_reference

from pamr import tensor as T
from pamr.errors import NonFiniteError, PamrError, ShapeError
from pamr.gradcheck import op_gradient_suite
from pamr.tensor import Tensor


class TestConstruction:
    def test_float64_always(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert t.data.dtype == np.float64

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])

    def test_rejects_inf_from_op(self):
        with pytest.raises(NonFiniteError), np.errstate(divide="ignore"):
            T.div(Tensor([1.0]), Tensor([0.0]))

    def test_scalar_item(self):
        assert Tensor(3.5).item() == 3.5
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()


class TestBackwardBasics:
    def test_backward_needs_scalar(self):
        x = T.param(np.ones((2, 2)))
        y = T.mul(x, 2.0)
        with pytest.raises(ShapeError):
            y.backward()

    def test_simple_chain(self):
        x = T.param([2.0])
        y = T.add(T.mul(x, x), x)  # x^2 + x, dy/dx = 2x + 1
        T.tsum(y).backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_duplicate_parent(self):
        x = T.param([3.0])
        T.tsum(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_grad_accumulates_until_cleared(self):
        x = T.param([1.0])
        T.tsum(T.mul(x, 2.0)).backward()
        T.tsum(T.mul(x, 3.0)).backward()
        np.testing.assert_allclose(x.grad, [5.0])
        x.zero_grad()
        assert np.all(x.grad == 0.0)

    def test_unused_param_reads_zero_grad(self):
        x = T.param(np.ones(3))
        assert x.grad.shape == (3,)
        assert np.all(x.grad == 0.0)

    def test_forward_data_untouched_by_backward(self):
        x = T.param(np.arange(4.0))
        y = T.softmax(x, axis=0)
        before = y.numpy()
        T.tsum(T.mul(y, y)).backward()
        np.testing.assert_array_equal(y.data, before)

    def test_no_grad_blocks_recording(self):
        x = T.param([1.0, 2.0])
        with T.no_grad():
            y = T.mul(x, x)
        assert y._bwd is None

    def test_shared_subgraph_fan_out(self):
        x = T.param([1.5])
        h = T.mul(x, x)
        loss = T.add(T.tsum(h), T.tsum(T.mul(h, 3.0)))  # 4*x^2
        loss.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_backward_on_a_root_without_a_graph(self):
        p = T.param(3.0)
        T.mul(p, 5.0).backward()
        p.backward()  # d(p)/dp = 1 adds to the 5 already there
        assert p.grad == 6.0
        c = T.constant(2.0)
        c.backward()
        assert c.grad is None

    def test_consumers_sum_newest_first(self):
        # 0.1, 0.2 and 0.3 sum to different doubles in different orders
        assert (0.3 + 0.2) + 0.1 != (0.1 + 0.2) + 0.3
        x = T.param([1.0])
        h = T.mul(x, 1.0)  # interior, so x.grad is h's summed gradient
        c1, c2, c3 = T.mul(h, 0.1), T.mul(h, 0.2), T.mul(h, 0.3)
        T.tsum(T.add(T.add(c1, c2), c3)).backward()
        assert x.grad[0] == (0.3 + 0.2) + 0.1


class TestGraphRelease:
    def test_interior_nodes_freed_by_backward(self):
        x = T.param(np.arange(4.0))
        h = T.mul(x, x)
        dead_node, dead_data = weakref.ref(h), weakref.ref(h.data)
        loss = T.tsum(T.mul(h, 3.0))
        del h
        assert dead_node() is not None and dead_data() is not None
        loss.backward()
        assert dead_node() is None
        assert dead_data() is None
        np.testing.assert_array_equal(x.grad, 6.0 * np.arange(4.0))

    def test_interior_grad_reads_none_afterwards(self):
        x = T.param([2.0])
        h = T.mul(x, x)
        T.tsum(h).backward()
        assert h.grad is None
        assert h._bwd is T._consumed
        np.testing.assert_array_equal(h.data, [4.0])  # forward values stay readable

    def test_leaf_sums_two_graphs(self):
        x = T.param([1.0, -2.0])
        first = T.tsum(T.mul(x, x))
        second = T.tsum(T.mul(x, 5.0))
        first.backward()
        second.backward()
        np.testing.assert_array_equal(x.grad, [2.0 + 5.0, -4.0 + 5.0])

    def test_second_backward_raises_and_leaves_grads(self):
        x = T.param([1.5, 3.0])
        loss = T.tsum(T.mul(x, x))
        loss.backward()
        before = x.grad.copy()
        with pytest.raises(PamrError, match="consumed"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, before)

    def test_backward_through_a_consumed_node_raises(self):
        x, y = T.param([2.0]), T.param([1.0])
        h = T.mul(x, x)
        T.tsum(h).backward()
        before = x.grad.copy()
        with pytest.raises(PamrError, match="consumed"):
            T.tsum(T.add(T.mul(y, 4.0), h)).backward()
        np.testing.assert_array_equal(x.grad, before)
        assert np.all(y.grad == 0.0)

    def test_consumed_node_stays_usable_under_no_grad(self):
        x = T.param([2.0, -1.0])
        h = T.mul(x, x)
        T.tsum(h).backward()
        with T.no_grad():
            y = T.mul(h, 3.0)
        np.testing.assert_array_equal(h.data, [4.0, 1.0])
        np.testing.assert_array_equal(y.data, [12.0, 3.0])
        assert y._bwd is None

    def test_second_graph_over_a_shared_node_raises(self):
        x, y = T.param([2.0]), T.param([1.0])
        h = T.mul(x, x)
        first = T.tsum(T.mul(h, 2.0))
        second = T.tsum(T.add(T.mul(y, 4.0), h))  # recorded before h is consumed
        first.backward()
        before = x.grad.copy()
        with pytest.raises(PamrError, match="consumed"):
            second.backward()
        # the walk stops at h; y may already hold its share of the second graph
        np.testing.assert_array_equal(x.grad, before)

    def test_graph_dropped_without_backward_is_freed(self):
        x = T.param(np.arange(4.0))
        h = T.mul(x, x)
        loss = T.tsum(T.mul(h, 3.0))
        dead_node, dead_loss = weakref.ref(h), weakref.ref(loss)
        del h, loss
        assert dead_node() is None and dead_loss() is None
        assert np.all(x.grad == 0.0)


class TestPointwiseValues:
    def test_sigmoid_fixed_points(self):
        np.testing.assert_allclose(T.sigmoid(Tensor([0.0])).data, [0.5])
        out = T.sigmoid(Tensor([-30.0, 30.0])).data
        assert 0.0 < out[0] < 0.5 < out[1] < 1.0

    def test_gelu_anchors(self):
        out = T.gelu(Tensor([0.0])).data
        np.testing.assert_allclose(out, [0.0], atol=1e-15)
        # large positive passes through, large negative dies
        big = T.gelu(Tensor([8.0, -8.0])).data
        np.testing.assert_allclose(big[0], 8.0, rtol=1e-12)
        np.testing.assert_allclose(big[1], 0.0, atol=1e-12)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 7)) * 10)
        s = T.softmax(x, axis=-1).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), rtol=1e-12)
        assert np.all(s > 0)

    def test_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 5)))
        np.testing.assert_allclose(
            T.log_softmax(x, axis=-1).data,
            np.log(T.softmax(x, axis=-1).data),
            rtol=1e-12,
        )


class TestShapesAndGather:
    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_index_select_gathers_rows(self):
        src = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.index_select(src, np.array([[3, 0], [1, 1]]))
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out.data[0, 0], [9.0, 10.0, 11.0])

    def test_index_select_repeats_accumulate(self):
        src = T.param(np.ones((3, 2)))
        out = T.index_select(src, np.array([1, 1, 1]))
        T.tsum(out).backward()
        np.testing.assert_array_equal(src.grad, [[0, 0], [3, 3], [0, 0]])

    def test_index_select_bounds(self):
        src = Tensor(np.ones((3, 2)))
        with pytest.raises(ShapeError):
            T.index_select(src, np.array([3]))

    def test_concat_roundtrip_grads(self):
        a = T.param(np.ones((2, 3)))
        b = T.param(np.ones((1, 3)))
        out = T.concat([a, b])
        assert out.shape == (3, 3)
        T.tsum(T.mul(out, np.arange(9.0).reshape(3, 3))).backward()
        np.testing.assert_array_equal(a.grad, [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(b.grad, [[6, 7, 8]])

    def test_amax_tie_routes_to_first(self):
        x = T.param(np.array([[1.0, 5.0, 5.0]]))
        T.tsum(T.amax(x, axis=1)).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])


class TestConvAndNorms:
    def test_conv_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 5, 4)))
        out = T.conv1d_channel(x, Tensor([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(out.data, x.data)

    def test_conv_zero_pads_channel_ends(self):
        x = Tensor(np.ones((3, 2)))
        out = T.conv1d_channel(x, Tensor([1.0, 0.0, 0.0]))
        # window reaches one channel below: channel 0 sees the zero pad
        np.testing.assert_array_equal(out.data[0], [0.0, 0.0])
        np.testing.assert_array_equal(out.data[1:], np.ones((2, 2)))

    def test_conv_rejects_even_kernel(self):
        with pytest.raises(ShapeError):
            T.conv1d_channel(Tensor(np.ones((3, 2))), Tensor([1.0, 2.0]))

    def test_group_norm_statistics(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 8, 16)) * 10.0)
        ones, zeros = Tensor(np.ones(8)), Tensor(np.zeros(8))
        out = T.group_norm(x, 4, ones, zeros).data
        grouped = out.reshape(2, 4, 2 * 16)
        np.testing.assert_allclose(grouped.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(grouped.var(axis=-1), 1.0, atol=1e-6)

    def test_group_norm_constant_input_zeros(self):
        x = Tensor(np.full((4, 6), 7.0))
        out = T.group_norm(x, 2, Tensor(np.ones(4)), Tensor(np.zeros(4))).data
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_group_norm_divisibility(self):
        with pytest.raises(ShapeError):
            T.group_norm(Tensor(np.ones((5, 2))), 3, Tensor(np.ones(5)), Tensor(np.zeros(5)))

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 4, 32)) * 10.0)
        out = T.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)


class TestFusedOps:
    """Each fused op against the chain of elementary ops it replaces: the
    forward keeps the chain's arithmetic order, so values are bitwise equal;
    the closed-form backward sums differently, so gradients agree to a
    roundoff bound relative to the largest gradient entry."""

    def check(self, name, arrays, call):
        """`call(op, *inputs)` applies the fused op or its composite chain."""
        results = []
        for op in (getattr(T, name), COMPOSITES[name]):
            inputs = [T.param(a) for a in arrays]
            out = call(op, *inputs)
            T.tsum(T.mul(out, np.random.default_rng(99).normal(size=out.shape))).backward()
            results.append((out.data, [t.grad for t in inputs]))
        (got, got_grads), (ref, ref_grads) = results
        np.testing.assert_array_equal(got, ref)
        for g, r in zip(got_grads, ref_grads):
            assert g.shape == r.shape
            assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))

    def test_layer_norm(self):
        rng = np.random.default_rng(10)
        arrays = [rng.normal(size=(3, 5, 8)) * 4.0, rng.normal(size=8), rng.normal(size=8)]
        self.check("layer_norm", arrays, lambda op, x, s, b: op(x, s, b))

    @pytest.mark.parametrize("shape", [(6, 5), (2, 3, 6, 5)])
    def test_group_norm_with_and_without_leading_dims(self, shape):
        rng = np.random.default_rng(11)
        arrays = [rng.normal(size=shape) * 3.0, rng.normal(size=6), rng.normal(size=6)]
        self.check("group_norm", arrays, lambda op, x, s, b: op(x, 3, s, b))

    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention(self, heads):
        rng = np.random.default_rng(12)
        arrays = [rng.normal(size=(7, 6)) for _ in range(3)]
        self.check("attention", arrays, lambda op, q, k, v: op(q, k, v, heads, (0, 7)))

    @pytest.mark.parametrize("shape", [(5, 4), (3, 5, 4)])
    def test_linear(self, shape):
        rng = np.random.default_rng(13)
        arrays = [rng.normal(size=shape), rng.normal(size=(4, 6)), rng.normal(size=6)]
        self.check("linear", arrays, lambda op, x, w, b: op(x, w, b))

    def test_overflowing_variance_raises(self):
        # each entry is finite but its square is not: an unchecked variance
        # would be inf, and every row would silently normalize to zeros
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(2, 4, 6)) * 1e200)
        ones, zeros = Tensor(np.ones(6)), Tensor(np.zeros(6))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="variance"):
                T.layer_norm(x, ones, zeros)
            with pytest.raises(NonFiniteError, match="variance"):
                T.group_norm(T.transpose(x, (0, 2, 1)), 2, ones, zeros)

    def test_single_token_attends_to_itself(self):
        rng = np.random.default_rng(15)
        q, k, v = (Tensor(rng.normal(size=(1, 8))) for _ in range(3))
        np.testing.assert_array_equal(T.attention(q, k, v, 2, (0, 1)).data, v.data)

    def test_attention_weights_are_distributions(self):
        # with every value row equal, the output is that row scaled by each
        # row's weight sum, which must be one
        rng = np.random.default_rng(16)
        q, k = Tensor(rng.normal(size=(5, 8)) * 3.0), Tensor(rng.normal(size=(5, 8)) * 3.0)
        row = rng.normal(size=8)
        out = T.attention(q, k, Tensor(np.tile(row, (5, 1))), 2, (0, 5)).data
        np.testing.assert_allclose(out, np.tile(row, (5, 1)), rtol=1e-12)

    @pytest.mark.parametrize("threshold", [T._PAIR_MNK, 0], ids=["whole", "split"])
    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_each_cloud_of_a_pack_attends_bitwise_as_it_would_alone(self, heads, threshold, monkeypatch):
        # segments of 2, 1, 6 and 21 rows: the output and the q, k and v
        # gradients of each are bitwise those of the segment run alone
        rng = np.random.default_rng(17)
        q, k, v, weight = (rng.normal(size=(30, 6)) for _ in range(4))
        offsets = (0, 2, 3, 9, 30)
        monkeypatch.setattr(T, "_PAIR_MNK", threshold)

        def outputs_and_grads(lo, hi, cuts):
            inputs = [T.param(a[lo:hi]) for a in (q, k, v)]
            out = T.attention(*inputs, heads, cuts)
            T.tsum(T.mul(out, weight[lo:hi])).backward()
            arrays = [out.data] + [t.grad for t in inputs]
            assert all(a.flags.c_contiguous for a in arrays)
            return arrays

        pack = outputs_and_grads(0, 30, offsets)
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            for whole, alone in zip(pack, outputs_and_grads(lo, hi, (0, hi - lo))):
                assert whole[lo:hi].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("offsets", [(0, 2), (1, 3), (0, 2, 2, 3), (0, 3, 2, 3), ((0, 3),), (0, 1.5, 3)])
    def test_attention_offsets_must_rise_strictly_from_0_to_n(self, offsets):
        q = Tensor(np.ones((3, 4)))
        with pytest.raises(ShapeError, match="segment offsets must rise strictly from 0 to 3"):
            T.attention(q, q, q, 2, offsets)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.ones((3, 6))), Tensor(np.ones((3, 6))), Tensor(np.ones((3, 6))), 4, (0, 3))
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.ones((3, 6))), Tensor(np.ones((2, 6))), Tensor(np.ones((3, 6))), 2, (0, 3))
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones((3, 5))), Tensor(np.ones((4, 6))), Tensor(np.ones(6)))
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones((3, 4))), Tensor(np.ones((4, 6))), Tensor(np.ones(5)))


class TestFusedFfn:
    """The fused pre-norm FFN against the five-op chain it replaces: same
    output, same gradients of its input and six parameters, and the same
    error at the same stage, all bitwise."""

    @staticmethod
    def arrays(rng, lead, c, hidden):
        return [
            rng.normal(size=lead + (c,)) * 3.0,
            rng.normal(size=c),
            rng.normal(size=c),
            rng.normal(size=(c, hidden)) * 0.5,
            rng.normal(size=hidden),
            rng.normal(size=(hidden, c)) * 0.5,
            rng.normal(size=c),
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_output_and_gradients_equal_the_chain_bitwise(self, seed):
        rng = np.random.default_rng(200 + seed)
        lead = tuple(int(n) for n in rng.integers(1, 6, size=rng.integers(1, 4)))
        c, hidden = int(rng.integers(2, 9)), int(rng.integers(1, 17))
        arrays = self.arrays(rng, lead, c, hidden)
        weight = rng.normal(size=lead + (c,))
        results = []
        for op in (T.ffn, ffn_chain_reference):
            inputs = [T.param(a) for a in arrays]
            out = op(*inputs)
            T.tsum(T.mul(out, weight)).backward()
            results.append((out.data, [t.grad for t in inputs]))
        (got, got_grads), (ref, ref_grads) = results
        np.testing.assert_array_equal(got, ref)
        for g, r in zip(got_grads, ref_grads):
            np.testing.assert_array_equal(g, r)

    def big(self, c, value):
        # alternating signs, so each row's products add up instead of cancelling
        return np.where(np.arange(c) % 2 == 0, value, -value)

    def overflow_case(self, stage):
        rng = np.random.default_rng(210)
        c, hidden = 6, 8
        x, scale, shift, w1, b1, w2, b2 = self.arrays(rng, (4,), c, hidden)
        if stage == "layer_norm variance":
            x = x * 1e200
        elif stage == "layer_norm output":
            scale = np.full(c, 1.5e308)
        elif stage == "fc1":
            x = np.tile(self.big(c, 1.0), (4, 1))
            scale, shift = np.ones(c), np.zeros(c)
            w1 = np.tile(self.big(c, 1.5e308)[:, None], (1, hidden))
        elif stage == "fc2":
            w1, b1 = np.zeros((c, hidden)), np.full(hidden, 2.0)
            w2 = np.full((hidden, c), 1.5e308)
        else:  # the residual sum: equal features keep the variance at 0
            x = np.full((4, c), 1e300)
            w2, b2 = np.zeros((hidden, c)), np.full(c, np.finfo(np.float64).max)
        return x, scale, shift, w1, b1, w2, b2

    @pytest.mark.parametrize(
        "stage, message",
        [
            ("layer_norm variance", "layer_norm variance"),
            ("layer_norm output", "layer_norm output"),
            ("fc1", "linear output"),
            ("fc2", "linear output"),
            ("add", "add output"),
        ],
    )
    def test_overflow_raises_at_the_chains_stage(self, stage, message):
        arrays = self.overflow_case(stage)
        errors = []
        for op in (T.ffn, ffn_chain_reference):
            inputs = [T.param(a) for a in arrays]
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError) as err:
                op(*inputs)
            errors.append(str(err.value))
        assert errors[0] == errors[1] == f"non-finite values in {message}"

    def test_the_fc1_case_overflows_at_fc1(self, monkeypatch):
        # fc1 and fc2 raise the same message: the chain never reaching gelu
        # shows that the "fc1" case above stops at fc1
        arrays = self.overflow_case("fc1")
        monkeypatch.setattr(T, "gelu", lambda a: pytest.fail("gelu ran after fc1 overflowed"))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError, match="linear output"):
            ffn_chain_reference(*[T.param(a) for a in arrays])

    def test_shape_errors(self):
        x, scale, shift, w1, b1, w2, b2 = self.arrays(np.random.default_rng(211), (3,), 4, 8)
        for bad in ([x, scale[:3], shift, w1, b1, w2, b2], [x, scale, shift, w1, b1[:7], w2, b2],
                    [x, scale, shift, w1, b1, w2.T, b2], [x[:, :3], scale, shift, w1, b1, w2, b2]):
            with pytest.raises(ShapeError):
                T.ffn(*[Tensor(a) for a in bad])


class TestHelperThread:
    """Kernels of at least `_PAIR_MNK` multiply-adds hand half their work to
    one helper thread; with the threshold at 0 every kernel splits."""

    @staticmethod
    def outputs_and_grads(op, arrays, weight):
        inputs = [T.param(a) for a in arrays]
        out = op(*inputs)
        T.tsum(T.mul(out, weight)).backward()
        return [out.data.tobytes()] + [t.grad.tobytes() for t in inputs]

    def split_and_whole(self, monkeypatch, op, arrays, weight, threshold=0):
        whole = self.outputs_and_grads(op, arrays, weight)
        with monkeypatch.context() as m:
            m.setattr(T, "_PAIR_MNK", threshold)
            return self.outputs_and_grads(op, arrays, weight), whole

    # segments of 2, 1 and 6 rows of 6 channels: their scores take 24, 6 and
    # 216 multiply-adds, 246 in all. At a threshold of 246 the op splits,
    # though no segment alone would.
    @pytest.mark.parametrize(
        "heads, threshold",
        [pytest.param(h, t, id=f"{h}{tag}") for tag, t in (("", 0), ("-per-op", 246)) for h in (2, 3)],
    )
    def test_split_attention_is_bitwise_the_whole_over_several_segments(self, heads, threshold, monkeypatch):
        rng = np.random.default_rng(220)
        arrays = [rng.normal(size=(9, 6)) for _ in range(3)]
        caller, pair, on_helper = threading.current_thread(), T._pair, []

        def spy(f, g):
            def first_half():
                on_helper.append(threading.current_thread() is not caller)
                return f()

            return pair(first_half, g)

        def op(q, k, v):
            return T.attention(q, k, v, heads, (0, 2, 3, 9))

        monkeypatch.setattr(T, "_pair", spy)
        split, whole = self.split_and_whole(monkeypatch, op, arrays, rng.normal(size=(9, 6)), threshold)
        assert split == whole
        # one hand-off each for the scores, the softmax and the backward
        assert on_helper == [True] * 3

    @pytest.mark.parametrize("threshold", [T._PAIR_MNK, 0])
    def test_an_overflowing_score_in_a_later_segment_is_caught_on_the_caller(self, threshold, monkeypatch):
        # head 0 of the second segment overflows; at threshold 0 that head
        # runs on the helper, and the caller checks every segment's scores
        rng = np.random.default_rng(223)
        q, k, v = (rng.normal(size=(9, 4)) for _ in range(3))
        q[5, :2] = k[6, :2] = 1e200
        monkeypatch.setattr(T, "_PAIR_MNK", threshold)
        with warnings.catch_warnings(), np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^non-finite values in attention scores$"):
                T.attention(T.param(q), T.param(k), T.param(v), 2, (0, 3, 9))

    @pytest.mark.parametrize("lead", [(), (5,), (3, 5)])
    def test_split_linear_and_ffn_are_bitwise_the_whole(self, lead, monkeypatch):
        rng = np.random.default_rng(221)
        lin = [rng.normal(size=lead + (4,)), rng.normal(size=(4, 6)), rng.normal(size=6)]
        ffn = TestFusedFfn.arrays(rng, lead, 4, 8)
        for op, arrays, width in ((T.linear, lin, 6), (T.ffn, ffn, 4)):
            weight = rng.normal(size=lead + (width,))
            split, whole = self.split_and_whole(monkeypatch, op, arrays, weight)
            assert split == whole, op.__name__

    def test_an_overflow_on_the_helper_is_todays_error_on_the_caller(self, monkeypatch):
        # fc1's output is finite but its cube, inside the helper's gelu half,
        # overflows; fc2 then overflows. With the caller's errstate carried
        # to the helper the gelu overflow is ignored and the caller raises at
        # fc2, as the unsplit kernel does; without it, warnings as errors
        # would raise the helper's RuntimeWarning instead.
        c, hidden = 4, 8
        x = np.tile(np.where(np.arange(c) % 2 == 0, 1.0, -1.0), (6, 1))
        w1 = np.tile(np.where(np.arange(c) % 2 == 0, 1e120, -1e120)[:, None], (1, hidden))
        arrays = [x, np.ones(c), np.zeros(c), w1, np.zeros(hidden), np.full((hidden, c), 1e200), np.zeros(c)]
        errors = []
        for threshold in (T._PAIR_MNK, 0):
            monkeypatch.setattr(T, "_PAIR_MNK", threshold)
            with warnings.catch_warnings(), np.errstate(over="ignore"):
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteError) as err:
                    T.ffn(*[T.param(a) for a in arrays])
            errors.append(str(err.value))
        assert errors == ["non-finite values in linear output"] * 2

    def test_callers_on_several_threads_share_one_helper_and_keep_their_bits(self, monkeypatch):
        # four callers split kernels at once, with thread switches forced
        # often: each gets the unsplit bits, and they start one helper only
        rng = np.random.default_rng(222)
        arrays = [rng.normal(size=(9, 6)) for _ in range(3)]
        weight = rng.normal(size=(9, 6))

        def op(q, k, v):
            return T.attention(T.linear(q, np.eye(6), np.zeros(6)), k, v, 2, (0, 4, 9))

        whole = self.outputs_and_grads(op, arrays, weight)
        monkeypatch.setattr(T, "_PAIR_MNK", 0)
        monkeypatch.setattr(T, "_helper", None)
        results, helpers = [], []

        def caller():
            for _ in range(50):
                results.append(self.outputs_and_grads(op, arrays, weight))
                helpers.append(T._helper)

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
            if T._helper is not None:
                T._helper.shutdown()
        assert not any(t.is_alive() for t in callers)
        assert len(results) == 200 and all(r == whole for r in results)
        assert len({id(h) for h in helpers}) == 1

    def test_no_grad_in_one_thread_leaves_another_recording(self):
        x, w = Tensor(np.ones(3)), T.param(np.ones(3))
        stop = threading.Event()

        def toggle():
            while not stop.is_set():
                with T.no_grad():
                    time.sleep(0.0005)
                time.sleep(0.0005)

        other = threading.Thread(target=toggle)
        other.start()
        try:
            unrecorded = sum(T.tsum(T.mul(T.add(x, w), 2.0))._bwd is None for _ in range(2000))
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert unrecorded == 0


class TestGradientSuite:
    def test_every_op_passes_central_differences(self):
        reports = op_gradient_suite(seed=0)
        bad = {name: r.max_rel_err for name, r in reports.items() if not r.ok}
        assert not bad, f"ops failing finite differences: {bad}"

    def test_suite_covers_the_engine(self):
        # every public op needs an entry named after it (or `op_variant`),
        # so an op added without a finite-difference check fails here
        names = set(op_gradient_suite(seed=1))
        not_ops = {"Tensor", "constant", "param", "no_grad", "as_tensor"}
        for op in sorted(set(T.__all__) - not_ops):
            assert any(n == op or n.startswith(op + "_") for n in names), op
