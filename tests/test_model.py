import json

import numpy as np
import pytest

from priorfit import tensor as T
from priorfit.tensor import Tensor
from priorfit import model as model_module
from priorfit.model import Model, ModelConfig
from priorfit.prior import Dataset, CLASSIFICATION
from priorfit.train import _forward_episode_losses


def tiny_cfg(**kw):
    base = dict(d_model=16, n_blocks=2, n_heads=2, d_ff=24, feature_width=4)
    base.update(kw)
    return ModelConfig(**base)


def episode_arrays(rng, B=1, n=12, d=3, C=3, l=None):
    x = rng.standard_normal((B, n, d))
    labels = rng.integers(0, C, size=(B, n))
    while any(np.unique(labels[b][: (l or n // 2)]).size < 2 for b in range(B)):
        labels = rng.integers(0, C, size=(B, n))
    return x, labels


class TestEpisodeType:
    def test_split_bounds(self):
        # the episode loss is the one place a split is checked: at least one
        # context row and at least one scored row
        model = Model(tiny_cfg(), seed=0)
        ds = Dataset(X=Tensor(np.zeros((5, 2))), y_values=Tensor(np.zeros(5)),
                     y_labels=np.zeros(5, dtype=int),
                     cat_mask=np.zeros(2, dtype=bool), task=CLASSIFICATION)
        assert np.isfinite(_forward_episode_losses(model, [ds], 1, None).item())
        assert np.isfinite(_forward_episode_losses(model, [ds], 4, None).item())
        with pytest.raises(ValueError):
            _forward_episode_losses(model, [ds], 0, None)
        with pytest.raises(ValueError):
            _forward_episode_losses(model, [ds], 5, None)


class TestModelConfig:
    @pytest.mark.parametrize("heads,width", [(0, 16), (-2, 4)])
    def test_head_count_below_one_refused(self, heads, width):
        # n_heads=0 used to raise ZeroDivisionError and -2 heads were accepted
        with pytest.raises(ValueError, match="n_heads"):
            tiny_cfg(n_heads=heads, d_model=width)


class TestEmbedding:
    def test_narrow_input_zero_padded(self):
        m = Model(tiny_cfg(), seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 6, 2))
        padded = np.concatenate([x, np.zeros((1, 6, 2))], axis=-1)
        out = m.embed_features(Tensor(x))
        manual = padded @ m.params["embed/w"].data + m.params["embed/b"].data
        np.testing.assert_allclose(out.data, manual, atol=1e-12)

    def test_wide_input_clipped(self):
        m = Model(tiny_cfg(), seed=0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4, 9))
        out = m.embed_features(Tensor(x))
        ref = m.embed_features(Tensor(x[:, :, :4]))
        np.testing.assert_array_equal(out.data, ref.data)

    def test_zero_features_rejected(self):
        m = Model(tiny_cfg(), seed=0)
        with pytest.raises(ValueError):
            m.embed_features(Tensor(np.zeros((1, 3, 0))))

    def test_identical_rows_same_labels_identical_tokens(self):
        m = Model(tiny_cfg(), seed=0)
        x = np.tile(np.array([0.3, -1.0, 0.8, 0.1]), (1, 5, 1))
        y = np.ones((1, 5))
        toks = m.embed_episode(Tensor(x), Tensor(y), l=3)
        for i in range(1, 3):
            np.testing.assert_array_equal(toks.data[0, i], toks.data[0, 0])
        np.testing.assert_array_equal(toks.data[0, 4], toks.data[0, 3])

    def test_test_token_ignores_its_own_label(self):
        m = Model(tiny_cfg(), seed=0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 6, 4))
        y1 = rng.standard_normal((1, 6))
        y2 = y1.copy()
        y2[0, 4:] += 100.0
        a = m.embed_episode(Tensor(x), Tensor(y1), l=4)
        b = m.embed_episode(Tensor(x), Tensor(y2), l=4)
        np.testing.assert_array_equal(a.data, b.data)


class TestMaskedTransformer:
    def run_ctx(self, m, x, y, l):
        return m.transformer(m.embed_episode(Tensor(x), Tensor(y), l), l).data

    def test_empty_training_partition_rejected(self):
        m = Model(tiny_cfg(), seed=0)
        with pytest.raises(ValueError):
            m.transformer(Tensor(np.zeros((1, 4, 16))), 0)

    def test_test_row_permutation_equivariance(self):
        m = Model(tiny_cfg(), seed=7)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 10, 4))
        y = rng.standard_normal((1, 10))
        l = 6
        base = self.run_ctx(m, x, y, l)
        perm = rng.permutation(np.arange(l, 10))
        xp = x.copy()
        xp[0, l:] = x[0, perm]
        out = self.run_ctx(m, xp, y, l)
        np.testing.assert_allclose(out[0, l:], base[0, perm], rtol=0, atol=1e-9)
        np.testing.assert_allclose(out[0, :l], base[0, :l], rtol=0, atol=1e-9)

    def test_test_row_insertion_invariance(self):
        m = Model(tiny_cfg(), seed=8)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 9, 4))
        y = rng.standard_normal((1, 9))
        l = 5
        base = self.run_ctx(m, x, y, l)
        extra = np.concatenate([x, rng.standard_normal((1, 1, 4))], axis=1)
        ye = np.concatenate([y, np.zeros((1, 1))], axis=1)
        out = self.run_ctx(m, extra, ye, l)
        np.testing.assert_allclose(out[0, :9], base[0], rtol=0, atol=1e-9)

    def test_training_token_perturbation_reaches_test_rows(self):
        m = Model(tiny_cfg(), seed=9)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 8, 4))
        y = rng.standard_normal((1, 8))
        base = self.run_ctx(m, x, y, 5)
        xz = x.copy()
        xz[0, 2] = 0.0
        out = self.run_ctx(m, xz, y, 5)
        assert not np.allclose(out[0, 5:], base[0, 5:])


class TestMixtureHead:
    def predict(self, m, ctx, l, labels, C, rng=None):
        ctx = Tensor(ctx)
        return m.mixture_head(ctx[:, l:], m.mixture_keys(ctx[:, :l]), labels, C, rng).data

    def test_constant_logits_give_class_frequencies(self):
        m = Model(tiny_cfg(), seed=10)
        for name in ("mixture/weight_q", "mixture/weight_k",
                     "mixture/gate_q", "mixture/gate_k"):
            m.params[name].data = np.zeros_like(m.params[name].data)
        rng = np.random.default_rng(10)
        ctx = rng.standard_normal((1, 9, 16))
        labels = np.array([[0, 1, 1, 2, 1]])
        out = self.predict(m, ctx, 5, labels, 3)
        freq = np.array([1, 3, 1]) / 5.0
        np.testing.assert_allclose(out[0], np.tile(freq, (4, 1)), atol=1e-12)

    def test_single_training_row_is_certain(self):
        m = Model(tiny_cfg(), seed=11)
        rng = np.random.default_rng(11)
        ctx = rng.standard_normal((1, 5, 16))
        out = self.predict(m, ctx, 1, np.array([[0]]), 1)
        np.testing.assert_allclose(out, 1.0)

    def test_rows_are_simplex(self):
        m = Model(tiny_cfg(), seed=12)
        rng = np.random.default_rng(12)
        for trial in range(5):
            ctx = rng.standard_normal((2, 11, 16)) * 3
            labels = rng.integers(0, 4, size=(2, 7))
            out = self.predict(m, ctx, 7, labels, 4,
                               rng=np.random.default_rng(trial) if trial % 2 else None)
            assert np.all(out >= 0)
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_unseen_class_count_still_valid(self):
        # no parameter shape involves the class count
        m = Model(tiny_cfg(), seed=13)
        rng = np.random.default_rng(13)
        ctx = rng.standard_normal((1, 14, 16))
        labels = rng.integers(0, 5, size=(1, 9))
        labels[0, :5] = np.arange(5)
        out = self.predict(m, ctx, 9, labels, 5)
        assert out.shape == (1, 5, 5)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_label_alphabet_permutation_covariance(self):
        m = Model(tiny_cfg(), seed=14)
        rng = np.random.default_rng(14)
        ctx = rng.standard_normal((1, 10, 16))
        labels = rng.integers(0, 3, size=(1, 6))
        labels[0, :3] = [0, 1, 2]
        perm = np.array([2, 0, 1])
        base = self.predict(m, ctx, 6, labels, 3)
        permuted = self.predict(m, ctx, 6, perm[labels], 3)
        np.testing.assert_array_equal(permuted[:, :, perm], base)

    def test_gate_sampling_seeded(self):
        m = Model(tiny_cfg(), seed=15)
        rng = np.random.default_rng(15)
        ctx = rng.standard_normal((1, 8, 16))
        labels = np.array([[0, 1, 0, 1, 1]])
        a = self.predict(m, ctx, 5, labels, 2, rng=np.random.default_rng(99))
        b = self.predict(m, ctx, 5, labels, 2, rng=np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_low_temperature_near_binary_still_simplex(self):
        m = Model(tiny_cfg(gate_temperature=0.01), seed=16)
        rng = np.random.default_rng(16)
        ctx = rng.standard_normal((1, 9, 16))
        labels = np.array([[0, 1, 2, 0, 1, 2]])
        out = self.predict(m, ctx, 6, labels, 3, rng=np.random.default_rng(5))
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(out >= 0)

    def test_closed_gates_fall_back_to_ungated_weights(self, monkeypatch, caplog):
        m = Model(tiny_cfg(), seed=18)
        rng = np.random.default_rng(18)
        ctx = rng.standard_normal((1, 13, 16))
        labels = np.array([[0, 1, 2, 0, 1, 2, 0]])
        q, k = ctx[:, 7:], ctx[:, :7]

        def scores(qn, kn):
            p = {n: m.params[f"mixture/{n}"].data for n in (qn, kn)}
            return (q @ p[qn]) @ np.swapaxes(k @ p[kn], -1, -2) / np.sqrt(16)

        w = scores("weight_q", "weight_k")
        probs = np.exp(w - w.max(-1, keepdims=True))
        probs /= probs.sum(-1, keepdims=True)
        gated = probs / (1 + np.exp(-scores("gate_q", "gate_k")))
        open_out = self.predict(m, ctx, 7, labels, 3)
        monkeypatch.setattr(model_module, "_GATE_MASS_FLOOR", np.inf)
        ungated_out = self.predict(m, ctx, 7, labels, 3)
        monkeypatch.setattr(model_module, "_GATE_MASS_FLOOR", np.median(gated.sum(-1)))
        with caplog.at_level("WARNING", logger="priorfit.model"):
            out = self.predict(m, ctx, 7, labels, 3)

        starved = gated.sum(-1)[0] < np.median(gated.sum(-1))
        assert starved.sum() == 3
        assert "mixture head: 3 test rows with fully closed gates" in caplog.text
        np.testing.assert_array_equal(out[0, starved], ungated_out[0, starved])
        np.testing.assert_array_equal(out[0, ~starved], open_out[0, ~starved])
        ungated = np.stack([probs[..., labels[0] == c].sum(-1) for c in range(3)], -1)
        np.testing.assert_allclose(ungated_out, ungated / ungated.sum(-1, keepdims=True),
                                   rtol=0, atol=1e-12)
        assert not np.allclose(out[0, starved], open_out[0, starved])
        np.testing.assert_allclose(out.sum(-1), 1.0, rtol=0, atol=1e-12)

        leaf = Tensor(ctx, requires_grad=True)
        weights = Tensor(rng.standard_normal(out.shape))
        with T.Tape() as tape:
            loss = T.sum_(T.mul(m.mixture_head(leaf[:, 7:], m.mixture_keys(leaf[:, :7]),
                                               labels, 3), weights))
            tape.backward(loss)
        assert np.isfinite(leaf.grad).all()
        assert all(np.isfinite(m.params[f"mixture/{n}"].grad).all()
                   for n in ("weight_q", "weight_k", "gate_q", "gate_k"))

    def test_mixture_params_independent_of_class_budget(self):
        a = Model(tiny_cfg(max_classes=2), seed=17)
        b = Model(tiny_cfg(max_classes=50), seed=17)
        mix_a = {k: v.shape for k, v in a.params.items() if k.startswith("mixture/")}
        mix_b = {k: v.shape for k, v in b.params.items() if k.startswith("mixture/")}
        assert mix_a == mix_b
        assert a.params["dense_head/w"].shape != b.params["dense_head/w"].shape


class TestDenseHead:
    def test_cap_enforced_naming_both(self):
        m = Model(tiny_cfg(max_classes=4, head="dense"), seed=18)
        q_t = Tensor(np.zeros((1, 3, 16)))
        with pytest.raises(ValueError) as ei:
            m.dense_head(q_t, 7)
        assert "4" in str(ei.value) and "7" in str(ei.value)

    def test_full_width_softmax(self):
        m = Model(tiny_cfg(max_classes=4), seed=19)
        rng = np.random.default_rng(19)
        q_t = rng.standard_normal((1, 4, 16))
        out = m.dense_head(Tensor(q_t), 4)
        assert out.shape == (1, 4, 4)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_equal_logits_uniform(self):
        m = Model(tiny_cfg(max_classes=5), seed=20)
        m.params["dense_head/w"].data = np.zeros_like(m.params["dense_head/w"].data)
        out = m.dense_head(Tensor(np.random.default_rng(0).standard_normal((1, 3, 16))), 3)
        np.testing.assert_allclose(out.data, 1.0 / 3.0)


class TestGaussianHead:
    def test_sigma_strictly_positive(self):
        m = Model(tiny_cfg(), seed=21)
        q_t = np.random.default_rng(21).standard_normal((1, 4, 16)) * 50
        _, sigma = m.gaussian_head(Tensor(q_t))
        assert np.all(sigma.data > 0)

    def test_forward_regression_shapes(self):
        m = Model(tiny_cfg(), seed=22)
        rng = np.random.default_rng(22)
        states = m.transformer(m.embed_episode(Tensor(rng.standard_normal((2, 9, 3))),
                                               Tensor(rng.standard_normal((2, 9))), 5), 5)
        mu, sigma = m.gaussian_head(states[:, 5:])
        assert mu.shape == (2, 4) and sigma.shape == (2, 4)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        m = Model(tiny_cfg(head="dense", max_classes=6), seed=23)
        path = tmp_path / "model.ckpt"
        m.save(path, extra={"step": 17}, arrays={"adam/m": np.arange(4.0)})
        loaded, extra, aux = Model.load(path)
        assert extra == {"step": 17}
        assert loaded.cfg == m.cfg
        assert list(loaded.params) == list(m.params)
        for name in m.params:
            np.testing.assert_array_equal(loaded.params[name].data, m.params[name].data)
        np.testing.assert_array_equal(aux["adam/m"], np.arange(4.0))
        assert loaded.checksum() == m.checksum()

    @staticmethod
    def add_config_keys(path, **keys):
        """Rewrite the checkpoint at path with keys added to its header's
        config, as an older writer would have stored them."""
        with np.load(path) as z:
            payload = {k: z[k] for k in z.files}
        header = json.loads(bytes(payload["__header__"]).decode())
        header["config"].update(keys)
        payload["__header__"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **payload)

    def test_legacy_dense_embed_mode_loads(self, tmp_path):
        m = Model(tiny_cfg(), seed=27)
        m.save(tmp_path / "model.ckpt")
        self.add_config_keys(tmp_path / "model.ckpt", embed_mode="dense")
        loaded = Model.load(tmp_path / "model.ckpt")[0]
        assert loaded.cfg == m.cfg
        assert loaded.checksum() == m.checksum()

    @pytest.mark.parametrize("keys,match", [
        ({"embed_mode": "patch"}, "patch embedding, which was removed"),
        # ModelConfig(**config) used to surface an unknown key as a TypeError
        ({"patch_size": 4}, "unknown keys.*patch_size"),
    ])
    def test_config_it_cannot_build_refused(self, tmp_path, keys, match):
        Model(tiny_cfg(), seed=27).save(tmp_path / "model.ckpt")
        self.add_config_keys(tmp_path / "model.ckpt", **keys)
        with pytest.raises(ValueError, match=match):
            Model.load(tmp_path / "model.ckpt")

    def test_dtype_follows_parameters_and_refuses_a_mix(self, tmp_path):
        m = Model(tiny_cfg(), seed=26)
        assert m.dtype == np.float64
        for t in m.params.values():
            t.data = t.data.astype(np.float32)
        m.save(tmp_path / "model.ckpt")
        assert Model.load(tmp_path / "model.ckpt")[0].dtype == np.float32
        m.params["gauss/b"].data = m.params["gauss/b"].data.astype(np.float64)
        with pytest.raises(ValueError, match="float64: gauss/b"):
            m.dtype

    def test_missing_parameter_refused(self, tmp_path):
        # a parameter absent from the file used to keep its fresh value
        m = Model(tiny_cfg(), seed=27)
        del m.params["final_ln/gain"]
        m.save(tmp_path / "model.ckpt")
        with pytest.raises(ValueError, match="missing.*final_ln/gain"):
            Model.load(tmp_path / "model.ckpt")

    def test_unknown_parameter_refused(self, tmp_path):
        m = Model(tiny_cfg(), seed=28)
        m.params["extra/w"] = Tensor(np.ones(3), requires_grad=True)
        m.save(tmp_path / "model.ckpt")
        with pytest.raises(ValueError, match="unknown.*extra/w"):
            Model.load(tmp_path / "model.ckpt")

    def test_checksum_sensitive_to_any_parameter(self):
        m = Model(tiny_cfg(), seed=24)
        before = m.checksum()
        m.params["gauss/b"].data = m.params["gauss/b"].data + 1e-9
        assert m.checksum() != before


class TestForwardClassification:
    def test_batched_simplex_output(self):
        m = Model(tiny_cfg(), seed=25)
        rng = np.random.default_rng(25)
        B, n, d, C, l = 3, 10, 4, 3, 6
        x, labels = episode_arrays(rng, B=B, n=n, d=d, C=C, l=l)
        states = m.transformer(m.embed_episode(
            Tensor(x), Tensor(labels.astype(np.float64)), l), l)
        out = m.class_head(states[:, l:], m.mixture_keys(states[:, :l]), labels[:, :l], C)
        assert out.shape == (B, n - l, C)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(out.data >= 0)


def reference_attention(h, wq, wk, wv, wo, heads, key_count=None, kv=None):
    """The attention block as the primitive composition T.attention replaced,
    with kv a (k, v) pair of Tensors."""
    B, n, d = h.shape
    dh = d // heads

    def split(t):
        t = T.reshape(t, (B, t.shape[1], heads, dh))
        return T.permute(t, (0, 2, 1, 3))

    keys = h if key_count is None or kv is not None else h[:, :key_count]
    q = split(T.matmul(h, wq))
    k, v = kv or (split(T.matmul(keys, wk)), split(T.matmul(keys, wv)))
    scores = T.mul(T.matmul(q, T.permute(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    ctx = T.matmul(T.softmax(scores, axis=-1), v)
    ctx = T.reshape(T.permute(ctx, (0, 2, 1, 3)), (B, n, d))
    return T.matmul(ctx, wo), (k, v)


class TestAttentionMatchesComposition:
    """T.attention is bytewise the composition it replaced: forward output,
    cached keys and values, and every input gradient."""

    @staticmethod
    def inputs(dtype, B=2, n=7, d=12, seed=40):  # 1/sqrt(d / heads) inexact
        rng = np.random.default_rng(seed)
        return ([rng.standard_normal((B, n, d)).astype(dtype)]
                + [(rng.standard_normal((d, d)) / np.sqrt(d)).astype(dtype)
                   for _ in range(4)])

    # (input dtype, default dtype): float32 inputs under a float64 default
    # promote at the score scale, as T.mul did
    @pytest.mark.parametrize("dtype,default", [(np.float32, np.float32),
                                               (np.float64, np.float64),
                                               (np.float32, np.float64)])
    # None: the reference is full self-attention, T.attention names all rows
    @pytest.mark.parametrize("key_count", [None, 4])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_forward_and_gradients_bytewise(self, dtype, default, key_count, heads):
        arrays = self.inputs(dtype)
        proj = np.random.default_rng(41).standard_normal(arrays[0].shape).astype(dtype)
        results = []
        with T.dtype_scope(default):
            for op, keys in ((reference_attention, key_count),
                             (T.attention, key_count or arrays[0].shape[1])):
                tensors = [Tensor(a, requires_grad=True, dtype=a.dtype) for a in arrays]
                with T.Tape() as tape:
                    out, (k, v) = op(*tensors, heads, keys)
                    tape.backward(T.sum_(T.mul(out, Tensor(proj))))
                k, v = (t.data if isinstance(t, Tensor) else t for t in (k, v))
                results.append([out.data, k, v] + [t.grad for t in tensors])
        for want, got in zip(*results):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert results[1][0].dtype == default  # the output

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_cached_keys_and_values_bytewise(self, dtype, heads):
        h, *weights = self.inputs(dtype)
        with T.dtype_scope(dtype):
            context, queries = Tensor(h[:, :4]), Tensor(h[:, 4:])
            _, kv_ref = reference_attention(context, *weights, heads)
            want, _ = reference_attention(queries, *weights, heads, 4, kv_ref)
            _, kv = T.attention(context, *weights, heads, 4)
            got, kv_again = T.attention(queries, *weights, heads, 4, kv)
        assert all(a is b for a, b in zip(kv_again, kv))  # attended, not recomputed
        for a, b in zip(kv, kv_ref):
            assert a.tobytes() == b.data.tobytes()
        assert got.data.dtype == dtype and got.data.tobytes() == want.data.tobytes()

    def test_one_tape_node_per_call(self):
        tensors = [Tensor(a, requires_grad=True) for a in self.inputs(np.float64)]
        with T.Tape() as tape:
            T.attention(*tensors, 2, 4)
            assert len(tape) == 1
