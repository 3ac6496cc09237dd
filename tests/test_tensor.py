import math
import threading
import warnings

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

    def test_dtype_scope_is_per_thread(self):
        # B enters float64, A enters float32, B leaves: with one process-wide
        # default, B's exit would restore float64 under A's open scope
        b_in, a_in, b_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def a():
            b_in.wait(10)
            with T.dtype_scope(np.float32):
                a_in.set()
                b_out.wait(10)
                seen["a"] = T.default_dtype()

        def b():
            with T.dtype_scope(np.float64):
                b_in.set()
                a_in.wait(10)
                seen["b"] = T.default_dtype()
            b_out.set()

        threads = [threading.Thread(target=f) for f in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert seen == {"a": np.float32, "b": np.float64}
        assert T.default_dtype() is np.float64  # the main thread never entered

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
        check_op(lambda a: a[1:, :, 2:4], [x], rng)
        check_op(lambda a, b: T.concat([a, b], axis=1),
                 [x, rng.standard_normal((3, 2, 5))], rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_gather_ops(self, seed):
        rng = rng_for(5400 + seed)
        x = rng.standard_normal((4, 6))
        idx = np.array([1, 4, 1, 0, 1])  # repeats accumulate
        check_op(lambda a: a[:, idx], [x], rng)
        row_idx = rng.integers(0, 6, size=4)
        check_op(lambda a: a[np.arange(4), row_idx], [x], rng)

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
        x = rng.permutation(np.linspace(-2.0, 2.0, 12))
        check_op(lambda a: a[[int(np.argmin(a.data))]], [x], rng)
        check_op(lambda a: a[[int(np.argmax(a.data))]], [x], rng)


class TestIndexing:
    def test_repeated_index_accumulates(self):
        a = T.Tensor(np.arange(4.0), requires_grad=True)
        with T.Tape() as tape:
            tape.backward(T.sum_(a[[0, 0, 1]]))
        np.testing.assert_array_equal(a.grad, [2.0, 1.0, 0.0, 0.0])

    def test_basic_key_is_a_view(self):
        a = T.Tensor(np.arange(12.0).reshape(3, 4))
        assert np.shares_memory(a[1:, 2].data, a.data)

    def test_column_selection_matches_take_bytewise(self):
        # numpy returns a column selection Fortran-ordered, and a reduction
        # over that layout can differ from np.take's in the last bit
        x = rng_for(5900).standard_normal((3000, 40))
        cols = np.sort(rng_for(5901).choice(40, size=25, replace=False))
        out = T.Tensor(x)[:, cols].data
        assert out.flags.c_contiguous
        want = np.take(x, cols, axis=1)
        assert out.mean(axis=0).tobytes() == want.mean(axis=0).tobytes()


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

    def test_no_query_rows_against_cached_keys(self):
        tensors = self.inputs()
        _, kv = T.attention(*tensors, 2, 4)
        out, _ = T.attention(T.Tensor(np.zeros((1, 0, 6))), *tensors[1:], 2, 4, kv)
        assert out.shape == (1, 0, 6)

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


class TestGelu:
    """T.gelu is the tanh form; criterion 1 and TestGradOracle check its
    backward against finite differences."""

    @staticmethod
    def value_and_grad(x, dtype):
        t = T.Tensor(np.asarray(x, dtype=dtype), dtype=dtype, requires_grad=True)
        with T.Tape() as tape:
            out = T.gelu(t)
            tape.backward(T.sum_(out))
        return out.data, t.grad

    def test_tanh_closed_form_and_distance_to_exact(self):
        x = np.linspace(-8.0, 8.0, 16001)
        got = T.gelu(T.Tensor(x)).data
        closed = 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                          * (x + 0.044715 * x ** 3)))
        np.testing.assert_allclose(got, closed, rtol=1e-15, atol=1e-15)
        exact = np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
        assert np.abs(got - exact).max() <= 4.8e-4

    def test_float32_stays_float32(self):
        x = rng_for(6000).standard_normal((4, 7)).astype(np.float32)
        out, grad = self.value_and_grad(x, np.float32)
        assert out.dtype == np.float32 and grad.dtype == np.float32
        want, want_grad = self.value_and_grad(x, np.float64)
        np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("dtype, big", [(np.float32, 1e20), (np.float64, 1e200)])
    def test_finite_where_the_cube_overflows(self, dtype, big):
        x = [big, -big, np.finfo(dtype).max, -np.finfo(dtype).max, 30.0, -30.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, grad = self.value_and_grad(x, dtype)
        assert np.isfinite(out).all() and np.isfinite(grad).all()
        # gelu(x) -> x, gelu'(x) -> 1 as x -> inf; both -> 0 as x -> -inf
        np.testing.assert_array_equal(out, np.array(x, dtype=dtype) * [1, 0, 1, 0, 1, 0, 0])
        np.testing.assert_array_equal(grad, [1, 0, 1, 0, 1, 0, 0.5])


class TestSigmoid:
    @staticmethod
    def masked_formula(x):
        """The two-branch sigmoid by boolean masks, exp(-x) where x >= 0."""
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytewise_the_masked_formula(self, dtype):
        x = np.array([0.0, -0.0, 1e-40, -1e-40, 88.8, -88.8, 1e4, -1e4, np.nan],
                     dtype=dtype)
        x = np.concatenate([x, rng_for(6100).standard_normal(1000).astype(dtype) * 20])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = T._sigmoid_arr(x)
        assert got.dtype == dtype
        assert got.tobytes() == self.masked_formula(x).tobytes()


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

    # each output is a 1,500-term dot product with the one-hot, rounded in
    # the input dtype: float32 within a few ulps of the largest sum
    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("middle", [(), (3, 5)])
    def test_many_classes_against_a_float64_loop_sum(self, dtype, rtol, middle):
        rng = rng_for(7000)
        B, k, c = 2, 1500, 1000
        idx = rng.integers(0, c, size=(B, k))
        idx[:, :c] = rng.permutation(c)  # every segment filled
        v = rng.standard_normal((B,) + middle + (k,)).astype(dtype)
        want = np.zeros((B,) + middle + (c,))
        for b in range(B):
            np.add.at(np.moveaxis(want[b], -1, 0), idx[b], np.moveaxis(v[b], -1, 0))
        got = T.scatter_add(T.Tensor(v, dtype=dtype), idx, c).data
        assert got.dtype == dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.abs(want).max())


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
