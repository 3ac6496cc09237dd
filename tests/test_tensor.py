import numpy as np
import pytest

from priorfit import tensor as T
from gradcheck import check_op


def rng_for(seed):
    return np.random.default_rng(seed)


class TestForwardBasics:
    def test_matmul_identity(self):
        a = T.Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        eye = T.Tensor(np.eye(3)[:, :2])
        out = T.matmul(a, eye)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [4.0, 5.0]])

    def test_softmax_symmetry(self):
        z = T.Tensor([0.7, 0.7, 0.7, 0.7])
        np.testing.assert_allclose(T.softmax(z).data, [0.25] * 4)

    def test_scatter_add_hand_summed(self):
        # 0.2 and 0.3 land in segment 1, 0.5 in segment 0
        out = T.scatter_add(T.Tensor([[0.2, 0.3, 0.5]]), np.array([[1, 1, 0]]), 2)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_scatter_add_refuses_unbatched_index(self):
        # values (B, ..., k) need an index of shape (B, k)
        with pytest.raises(T.ShapeMismatch):
            T.scatter_add(T.Tensor(np.zeros((2, 3))), np.array([0, 1, 0]), 2)
        with pytest.raises(T.ShapeMismatch):
            T.scatter_add(T.Tensor(np.zeros((2, 3))), np.zeros((3, 3), dtype=int), 2)

    def test_dtype_scope_refuses_non_float(self):
        before = T.default_dtype()
        with pytest.raises(ValueError, match="unsupported"):
            with T.dtype_scope(np.float16):
                pass
        assert T.default_dtype() is before

    def test_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(T.ShapeMismatch) as ei:
            T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4,))))
        msg = str(ei.value)
        assert "add" in msg and "(2, 3)" in msg and "(4,)" in msg

    def test_suffix_broadcast_bias(self):
        x = T.Tensor(np.ones((2, 5, 3)))
        b = T.Tensor(np.array([1.0, 2.0, 3.0]))
        out = T.add(x, b)
        assert out.shape == (2, 5, 3)
        np.testing.assert_array_equal(out.data[1, 4], [2.0, 3.0, 4.0])

    def test_no_general_broadcast(self):
        with pytest.raises(T.ShapeMismatch):
            T.mul(T.Tensor(np.zeros((3, 1))), T.Tensor(np.zeros((3, 4))))

    def test_clip_boundary_values(self):
        out = T.clip(T.Tensor([-9.0, -4.0, 0.0, 4.0, 9.0]), -4.0, 4.0)
        np.testing.assert_array_equal(out.data, [-4.0, -4.0, 0.0, 4.0, 4.0])


class TestBackwardBasics:
    def test_sum_of_squares(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.mul(x, x))
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_log_softmax_identity(self):
        # d/dz of log softmax(z)[k] is softmax(z) - onehot(k)
        z = T.Tensor([0.3, -1.2, 2.0], requires_grad=True)
        k = 1
        with T.Tape() as tape:
            s = T.softmax(z)
            loss = T.log(s[k])
            tape.backward(loss)
        expected = -(s.data - np.eye(3)[k])
        np.testing.assert_allclose(z.grad, expected, rtol=1e-12)

    def test_non_scalar_root_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            y = T.mul(x, 2.0)
            with pytest.raises(T.ShapeMismatch):
                tape.backward(y)

    def test_off_tape_root_rejected(self):
        x = T.Tensor([1.0], requires_grad=True)
        tape = T.Tape()
        with tape:
            pass
        loss = T.sum_(x)  # recorded on no tape
        with pytest.raises(T.TensorError):
            tape.backward(loss)

    def test_accumulation_additive(self):
        # leaf gradients accumulate across tapes, one backward each
        x = T.Tensor([1.0, -2.0, 0.5], requires_grad=True)
        grads = []
        for _ in range(2):
            with T.Tape() as tape:
                tape.backward(T.sum_(T.mul(T.tanh(x), x)))
            grads.append(x.grad.copy())
        np.testing.assert_allclose(grads[1], 2.0 * grads[0], rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_gradient_names_primitive(self):
        x = T.Tensor([0.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.log(x))  # grad 1/0 -> inf
            with pytest.raises(T.GradientNaN) as ei:
                tape.backward(loss)
        assert ei.value.op == "log"

    def test_no_recording_without_tape(self):
        x = T.Tensor([1.0], requires_grad=True)
        out = T.tanh(x)
        assert out._producer is None and not out.requires_grad


class TestTapeLifetime:
    """The tape owns its graph: backward runs once, frees the nodes it has
    passed and writes gradients to leaves only; leaving the block frees the
    rest."""

    def test_backward_frees_every_node(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.mul(T.tanh(x), x))
            assert len(tape) == 3
            tape.backward(loss)
            assert len(tape) == 0

    def test_gradients_go_to_leaves_only(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            hidden = T.tanh(x)
            loss = T.sum_(T.mul(hidden, x))
            tape.backward(loss)
        assert x.grad is not None
        assert hidden.grad is None and loss.grad is None

    def test_second_backward_refused(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.tanh(x))
            tape.backward(loss)
            once = x.grad.copy()
            with pytest.raises(T.TensorError, match="once"):
                tape.backward(loss)
        np.testing.assert_array_equal(x.grad, once)

    def test_backward_after_the_block_refused(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.tanh(x))
        with pytest.raises(T.TensorError, match="once"):
            tape.backward(loss)
        assert x.grad is None

    def test_leaving_the_block_frees_nodes_without_backward(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.Tape() as tape:
            T.tanh(x)
            assert len(tape) == 1
        assert len(tape) == 0

    def test_leaving_the_block_by_exception_frees_nodes(self):
        x = T.Tensor([1.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.Tape() as tape:
                T.tanh(T.tanh(x))
                raise RuntimeError("forward failed")
        assert len(tape) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sweep_cut_short_frees_nodes_on_exit(self):
        x = T.Tensor([0.0], requires_grad=True)
        with pytest.raises(T.GradientNaN):
            with T.Tape() as tape:
                loss = T.sum_(T.tanh(T.log(x)))  # log's gradient 1/0 -> inf
                tape.backward(loss)
        assert len(tape) == 0


class TestGradOracle:
    """Every differentiable primitive against central finite differences."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("op,n_in", [
        (T.add, 2), (T.sub, 2), (T.mul, 2),
        (lambda a, b: T.div(a, T.add(T.mul(b, b), 1.0)), 2),
        (T.neg, 1), (T.tanh, 1), (T.sigmoid, 1),
        (T.gelu, 1), (T.softplus, 1), (T.softmax, 1),
        (lambda a: T.mean(a, axis=-1), 1),
        (lambda a: T.variance(a, axis=0), 1),
        (lambda a: T.sum_(a, axis=-1), 1),
        (lambda a: T.mean(a), 1),
        (lambda a: T.sqrt(T.add(T.mul(a, a), 0.3)), 1),
    ])
    def test_elementwise_and_reductions(self, op, n_in, seed):
        rng = rng_for(1000 + seed)
        rank = rng.integers(1, 4)
        shape = tuple(rng.integers(2, 5, size=rank))
        arrays = [rng.standard_normal(shape) for _ in range(n_in)]
        check_op(op, arrays, rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_log_positive_domain(self, seed):
        rng = rng_for(2000 + seed)
        arrays = [rng.uniform(0.5, 3.0, size=(3, 4))]
        check_op(T.log, arrays, rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_log1p_domain(self, seed):
        rng = rng_for(2100 + seed)
        arrays = [rng.uniform(-0.8, 2.0, size=(3, 4))]
        check_op(T.log1p, arrays, rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_relu_away_from_kink(self, seed):
        rng = rng_for(3000 + seed)
        x = rng.standard_normal((4, 3))
        x[np.abs(x) < 1e-3] = 0.5
        check_op(T.relu, [x], rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_clip_away_from_edges(self, seed):
        rng = rng_for(4000 + seed)
        x = rng.uniform(-3.0, 3.0, size=(5,))
        x[np.abs(np.abs(x) - 2.0) < 1e-3] = 0.0
        check_op(lambda a: T.clip(a, -2.0, 2.0), [x], rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_2d(self, seed):
        rng = rng_for(5000 + seed)
        m, k, n = rng.integers(2, 5, size=3)
        check_op(T.matmul, [rng.standard_normal((m, k)),
                            rng.standard_normal((k, n))], rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_matmul_batched(self, seed):
        rng = rng_for(5100 + seed)
        check_op(T.matmul, [rng.standard_normal((3, 4, 2)),
                            rng.standard_normal((2, 5))], rng)
        check_op(T.matmul, [rng.standard_normal((3, 4, 2)),
                            rng.standard_normal((3, 2, 5))], rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_layer_norm(self, seed):
        rng = rng_for(5200 + seed)
        x = rng.standard_normal((4, 6))
        gain = rng.uniform(0.5, 1.5, size=6)
        bias = rng.standard_normal(6)
        check_op(T.layer_norm, [x, gain, bias], rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_structural_ops(self, seed):
        rng = rng_for(5300 + seed)
        x = rng.standard_normal((3, 4, 5))
        check_op(lambda a: T.reshape(a, (12, 5)), [x], rng)
        check_op(lambda a: T.permute(a, (2, 0, 1)), [x], rng)
        check_op(T.swap_last, [x], rng)
        check_op(lambda a: a[1:, :, 2:4], [x], rng)
        check_op(lambda a, b: T.concat([a, b], axis=1),
                 [x, rng.standard_normal((3, 2, 5))], rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_gather_ops(self, seed):
        rng = rng_for(5400 + seed)
        x = rng.standard_normal((4, 6))
        idx = rng.integers(0, 6, size=5)
        check_op(lambda a: T.take(a, idx, axis=1), [x], rng)
        row_idx = rng.integers(0, 6, size=4)
        check_op(lambda a: T.take_along_last(a, row_idx), [x], rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_scatter_add_grad(self, seed):
        rng = rng_for(5500 + seed)
        v = rng.standard_normal((2, 3, 5))
        idx = rng.integers(0, 4, size=(2, 5))
        check_op(lambda a: T.scatter_add(a, idx, 4), [v], rng)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("key_count", [None, 3])  # None: all 5 rows
    def test_attention(self, seed, key_count):
        rng = rng_for(5700 + seed)
        d = 4
        arrays = [rng.standard_normal((2, 5, d))] + [
            rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(4)]
        check_op(lambda *a: T.attention(*a, 2, key_count or 5)[0], arrays, rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_min_max_unique_extrema(self, seed):
        rng = rng_for(5600 + seed)
        x = rng.permutation(np.linspace(-2.0, 2.0, 12)).reshape(3, 4)
        check_op(T.min_, [x], rng)
        check_op(T.max_, [x], rng)


class TestAttentionRefusals:
    @staticmethod
    def inputs(d=6):
        rng = rng_for(5800)
        return ([T.Tensor(rng.standard_normal((1, 4, d)), requires_grad=True)]
                + [T.Tensor(rng.standard_normal((d, d)), requires_grad=True)
                   for _ in range(4)])

    @pytest.mark.parametrize("heads", [0, 4])
    def test_heads_must_divide_the_width(self, heads):
        with pytest.raises(T.ShapeMismatch, match="attention"):
            T.attention(*self.inputs(), heads, 4)

    def test_weights_must_be_square_in_the_width(self):
        h, wq, wk, wv, wo = self.inputs()
        with pytest.raises(T.ShapeMismatch, match="attention"):
            T.attention(h, wq, wk, T.Tensor(np.zeros((6, 4))), wo, 2, 4)

    def test_cached_keys_refused_under_a_recording_tape(self):
        tensors = self.inputs()
        _, kv = T.attention(*tensors, 2, 4)
        T.attention(*tensors, 2, 4, kv)  # off the tape the cache serves
        with T.Tape():
            with pytest.raises(T.TensorError, match="no gradient"):
                T.attention(*tensors, 2, 4, kv)


class TestInPlaceSoftmax:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytewise_equal_to_three_temporaries(self, dtype):
        a = rng_for(5900).standard_normal((3, 5, 40)).astype(dtype) * 10
        for axis, x in ((-1, a), (1, a), (-1, a[:, :, 3:17])):
            shifted = x - x.max(axis=axis, keepdims=True)
            e = np.exp(shifted)
            want = e / e.sum(axis=axis, keepdims=True)
            got = T.softmax(T.Tensor(x, dtype=dtype), axis=axis).data
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestScatterRouting:
    @pytest.mark.parametrize("seed", range(10))
    def test_permutation_exact_routing(self, seed):
        # backward through scatter_add must deliver each segment's upstream
        # gradient to exactly its source positions
        rng = rng_for(seed)
        k, c = 8, 4
        idx = rng.integers(0, c, size=(1, k))
        v = T.Tensor(rng.standard_normal((1, k)), requires_grad=True)
        weights = rng.standard_normal((1, c))
        with T.Tape() as tape:
            out = T.scatter_add(v, idx, c)
            loss = T.sum_(T.mul(out, T.Tensor(weights)))
            tape.backward(loss)
        np.testing.assert_array_equal(v.grad, weights[0, idx])


class TestUpdateSteps:
    def test_ascend_single_step(self):
        p = T.Tensor([1.0], requires_grad=True)
        p.grad = np.array([2.0])
        T.ascend_step([p], lr=0.1, weight_decay=0.0)
        np.testing.assert_allclose(p.data, [1.2])

    def test_ascend_decay_only(self):
        p = T.Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.0])
        T.ascend_step([p], lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(p.data, [0.95])

    def test_missing_gradient_raises(self):
        p = T.Tensor([1.0], requires_grad=True)
        with pytest.raises(T.MissingGradient):
            T.ascend_step([p], lr=0.1)

    def test_joint_ascent_descent_one_backward(self):
        # one backward, two opposite step directions, both finite; matches
        # running two separate backward passes
        rng = rng_for(7)
        w1 = rng.standard_normal((3, 3))
        w2 = rng.standard_normal((3, 1))
        x = rng.standard_normal((4, 3))

        def run(joint):
            a = T.Tensor(w1.copy(), requires_grad=True)
            b = T.Tensor(w2.copy(), requires_grad=True)
            with T.Tape() as tape:
                h = T.tanh(T.matmul(T.Tensor(x), a))
                loss = T.mean(T.mul(T.matmul(h, b), T.matmul(h, b)))
                tape.backward(loss)
            if joint:
                T.ascend_step([a], lr=0.05)
                b.data = b.data - 0.05 * b.grad
            return a, b

        a1, b1 = run(joint=True)
        a2, b2 = run(joint=False)
        assert np.isfinite(a1.data).all() and np.isfinite(b1.data).all()
        np.testing.assert_allclose(a1.data, w1 + 0.05 * a2.grad)
        np.testing.assert_allclose(b1.data, w2 - 0.05 * b2.grad)

    def test_ascent_negates_descent_exactly(self):
        rng = rng_for(8)
        g = rng.standard_normal(5)
        pa = T.Tensor(np.zeros(5), requires_grad=True)
        pa.grad = g.copy()
        T.ascend_step([pa], lr=0.3)
        np.testing.assert_array_equal(pa.data, -(np.zeros(5) - 0.3 * g))


class TestCompositeGraphs:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_mlp_against_finite_differences(self, seed):
        rng = rng_for(6000 + seed)
        n, d, h = 5, 3, 4
        x = rng.standard_normal((n, d))
        w1 = rng.standard_normal((d, h)) / np.sqrt(d)
        b1 = rng.standard_normal(h) * 0.1
        w2 = rng.standard_normal((h, 2)) / np.sqrt(h)

        def net(xt, w1t, b1t, w2t):
            hdn = T.gelu(T.add(T.matmul(xt, w1t), b1t))
            out = T.softmax(T.matmul(hdn, w2t))
            return T.log(T.add(out, 1e-9))

        check_op(net, [x, w1, b1, w2], rng)
