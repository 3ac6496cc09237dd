import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from priorfit import tensor as T
from priorfit.agents import AgentConfig, AgentState
from priorfit.prior import (
    CLASSIFICATION,
    REGRESSION,
    Dataset,
    DiscretizerSpec,
    GeneratorHyperSpace,
    generate_dataset,
    hard_discretize,
    normalize_dataset,
    sample_generator,
    soft_discretize,
)
from gradcheck import finite_diff, rel_err


def random_spec(rng, cardinality=None, temperature=0.0):
    card = cardinality or int(rng.integers(2, 7))
    q = np.sort(rng.standard_normal(card - 1))
    while np.any(np.diff(q) <= 0):
        q = np.sort(rng.standard_normal(card - 1))
    return DiscretizerSpec(card, q, rng.permutation(card) + 1, temperature)


class TestHardDiscretize:
    def test_two_sides_of_single_quantile(self):
        spec = DiscretizerSpec(2, np.array([0.0]), np.array([1, 2]))
        out = hard_discretize(np.array([-10.0, 0.0, 10.0]), spec)
        np.testing.assert_array_equal(out, [1, 2, 2])

    def test_identity_perm_preserves_weak_ordering(self):
        rng = np.random.default_rng(0)
        col = np.sort(rng.standard_normal(50))
        spec = DiscretizerSpec(4, np.sort(rng.standard_normal(3)), np.array([1, 2, 3, 4]))
        out = hard_discretize(col, spec)
        assert np.all(np.diff(out) >= 0)

    def test_permuted_categories_share_multiset(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(80)
        q = np.sort(rng.standard_normal(3))
        ident = DiscretizerSpec(4, q, np.array([1, 2, 3, 4]))
        perm = np.array([3, 1, 4, 2])
        shuffled = DiscretizerSpec(4, q, perm)
        a = hard_discretize(col, ident)
        b = hard_discretize(col, shuffled)
        # ordering broken, but each category keeps its occupancy
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(b, perm[a - 1])
        assert sorted(np.bincount(a)[1:].tolist()) == sorted(np.bincount(b)[1:].tolist())

    def test_zero_variance_counts_quantiles_at_or_below_zero(self):
        spec = DiscretizerSpec(3, np.array([-0.5, 0.3]), np.array([1, 2, 3]))
        out = hard_discretize(np.full(5, 7.7), spec)
        # standardized value is 0; one quantile sits at or below it
        np.testing.assert_array_equal(out, np.full(5, 2))

    def test_rejects_non_finite(self):
        spec = DiscretizerSpec(2, np.array([0.0]), np.array([1, 2]))
        with pytest.raises(ValueError):
            hard_discretize(np.array([1.0, np.nan]), spec)


class TestSoftDiscretize:
    @pytest.mark.parametrize("seed", range(100))
    def test_zero_temperature_equals_hard(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, temperature=0.0)
        col = rng.standard_normal(int(rng.integers(4, 40)))
        soft = soft_discretize(T.Tensor(col), spec)
        hard = hard_discretize(col, spec)
        np.testing.assert_array_equal(soft.data, hard.astype(np.float64))

    @pytest.mark.parametrize("tau", [0.01, 0.1])
    @pytest.mark.parametrize("seed", range(20))
    def test_perturbation_bounded_by_tau_log2(self, tau, seed):
        rng = np.random.default_rng(100 + seed)
        spec = random_spec(rng, temperature=tau)
        col = rng.standard_normal(30)
        soft = soft_discretize(T.Tensor(col), spec)
        hard = hard_discretize(col, spec).astype(np.float64)
        gap = np.abs(soft.data - hard)
        assert np.all(gap <= tau * np.log(2.0) + 1e-12)
        assert np.all(soft.data - hard >= -1e-12)  # offset is non-negative

    def test_value_at_quantile_maps_to_base_exactly(self):
        col = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        sd = col.std()
        spec = DiscretizerSpec(2, np.array([1.0 / sd]), np.array([1, 2]), temperature=0.5)
        out = soft_discretize(T.Tensor(col), spec)
        # col[3] sits exactly on the unnormalized quantile: log term vanishes
        assert abs(out.data[3] - 2.0) <= 1e-12

    def test_equal_brackets_guarded(self):
        spec = DiscretizerSpec(3, np.array([-0.4, 0.4]), np.array([1, 2, 3]), temperature=0.1)
        out = soft_discretize(T.Tensor(np.full(6, 3.3)), spec)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("seed", range(15))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(200 + seed)
        spec = random_spec(rng, temperature=0.1)
        col = rng.standard_normal(12)
        # keep every value clear of its quantile crossings so the finite
        # difference stays on one branch
        mu, sd = col.mean(), col.std()
        qt = mu + sd * spec.quantiles
        for i in range(col.size):
            while np.min(np.abs(col[i] - qt)) < 1e-3:
                col[i] += 1e-2

        proj = rng.standard_normal(col.size)

        def scalar(arr):
            return float(np.sum(soft_discretize(T.Tensor(arr), spec).data * proj))

        x = T.Tensor(col, requires_grad=True)
        with T.Tape() as tape:
            out = soft_discretize(x, spec)
            loss = T.sum_(T.mul(out, T.Tensor(proj)))
            tape.backward(loss)
        fd = finite_diff(lambda a: scalar(a), [col], 0, h=1e-6)
        assert rel_err(x.grad, fd) <= 1e-4


class TestNormalize:
    def make(self, x, task=REGRESSION, y=None):
        n = x.shape[0]
        yv = T.Tensor(y if y is not None else np.zeros(n) + np.arange(n))
        return Dataset(X=T.Tensor(x), y_values=yv, y_labels=None,
                       cat_mask=np.zeros(x.shape[1], dtype=bool), task=task)

    def test_two_point_column(self):
        out = normalize_dataset(self.make(np.array([[0.0], [10.0]])))
        np.testing.assert_allclose(out.X.data, [[-1.0], [1.0]], atol=1e-9)

    def test_outlier_clipped_to_four(self):
        col = np.concatenate([np.linspace(-1, 1, 40), [100.0]])
        out = normalize_dataset(self.make(col[:, None]))
        assert out.X.data.max() == pytest.approx(4.0)
        assert np.all(np.abs(out.X.data) <= 4.0)

    def test_standardized_column_unchanged(self):
        rng = np.random.default_rng(3)
        col = rng.standard_normal(200)
        col = (col - col.mean()) / col.std()
        out = normalize_dataset(self.make(col[:, None]))
        np.testing.assert_allclose(out.X.data[:, 0], np.clip(col, -4, 4), atol=1e-6)

    def test_zero_variance_column_zeroed(self):
        out = normalize_dataset(self.make(np.full((8, 2), 3.14)))
        np.testing.assert_allclose(out.X.data, 0.0, atol=1e-9)

    def test_regression_response_normalized(self):
        y = np.array([0.0, 10.0, 20.0, 30.0])
        out = normalize_dataset(self.make(np.arange(4.0)[:, None], y=y))
        assert abs(out.y_values.data.mean()) <= 1e-9
        assert np.all(np.abs(out.y_values.data) <= 4.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_columns_bounded_and_centered(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 5))
        x = rng.standard_normal((n, d)) * rng.uniform(0.1, 50) + rng.uniform(-20, 20)
        out = normalize_dataset(self.make(x))
        assert np.all(np.abs(out.X.data) <= 4.0)
        unclipped = np.all(np.abs(out.X.data) < 4.0, axis=0)
        means = out.X.data.mean(axis=0)
        assert np.all(np.abs(means[unclipped]) <= 1e-9)


class TestDatasetTake:
    def make(self):
        x = np.arange(40.0).reshape(8, 5)
        return Dataset(X=T.Tensor(x, requires_grad=True),
                       y_values=T.Tensor(np.arange(8.0) / 2), y_labels=np.arange(8),
                       cat_mask=np.array([True, False, True, False, False]),
                       task=CLASSIFICATION, n_classes=8, missing_mask=x % 3 == 0)

    def test_rows_taken_before_columns(self):
        ds, rows, cols = self.make(), [5, 1, 2], [4, 0]
        out = ds.take(rows, cols)
        expected = ds.X.data[rows][:, cols]
        np.testing.assert_array_equal(out.X.data, expected)
        # the layout of a row selection followed by a column selection
        assert out.X.data.strides == expected.strides
        np.testing.assert_array_equal(out.y_labels, rows)
        np.testing.assert_array_equal(out.y_values.data, np.array(rows) / 2)
        np.testing.assert_array_equal(out.missing_mask, ds.missing_mask[rows][:, cols])

    def test_none_index_skipped(self):
        ds = self.make()
        whole = ds.take()
        assert whole.X.data is ds.X.data and whole.y_labels is ds.y_labels
        assert whole.X is not ds.X and whole.y_values is not ds.y_values
        assert not whole.X.requires_grad
        by_cols = ds.take(cols=[1])
        assert by_cols.y_labels is ds.y_labels and by_cols.n == ds.n
        by_rows = ds.take(rows=[3])
        assert by_rows.cat_mask is ds.cat_mask and by_rows.d == ds.d
        assert (by_rows.task, by_rows.n_classes) == (CLASSIFICATION, 8)

    def test_masks_follow_columns(self):
        ds = self.make()
        out = ds.take(cols=[2, 0, 3])
        np.testing.assert_array_equal(out.cat_mask, [True, True, False])
        np.testing.assert_array_equal(out.missing_mask, ds.missing_mask[:, [2, 0, 3]])
        np.testing.assert_array_equal(out.X.data, ds.X.data[:, [2, 0, 3]])


class TestDatasetMissingMask:
    def make(self, **kw):
        x = np.arange(12.0).reshape(4, 3)
        return Dataset(X=T.Tensor(x), y_values=T.Tensor(np.arange(4.0)),
                       y_labels=None, cat_mask=np.zeros(3, dtype=bool),
                       task=REGRESSION, **kw)

    def test_defaults_to_all_false_of_x_shape(self):
        mask = self.make().missing_mask
        assert mask.dtype == bool and mask.shape == (4, 3) and not mask.any()
        taken = self.make().take([2, 0], [1])
        assert taken.missing_mask.shape == (2, 1) and not taken.missing_mask.any()

    def test_row_shaped_mask_refused_naming_both_shapes(self):
        with pytest.raises(ValueError, match=r"missing_mask.*\(4, 3\).*\(3,\)"):
            self.make(missing_mask=np.array([True, False, False]))

    def test_non_bool_mask_refused(self):
        with pytest.raises(ValueError, match="float64"):
            self.make(missing_mask=np.zeros((4, 3)))


class TestSampleGenerator:
    def space(self, **kw):
        return GeneratorHyperSpace(**kw)

    def test_deterministic_in_seed(self):
        space = self.space()
        a = sample_generator(space, 42)
        b = sample_generator(space, 42)
        assert a.activation == b.activation and a.width == b.width
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa.data, wb.data)
        for ma, mb in zip(a.masks, b.masks):
            np.testing.assert_array_equal(ma, mb)
        np.testing.assert_array_equal(a.predictor_neurons, b.predictor_neurons)
        assert a.response_neuron == b.response_neuron

    def test_zero_dropout_gives_dense_masks(self):
        g = sample_generator(self.space(dropout=(0.0, 0.0)), 7)
        for m in g.masks:
            assert m.min() == 1.0

    def test_heavy_dropout_retention_rate(self):
        g = sample_generator(
            self.space(dropout=(0.9, 0.9), hidden_width=(100, 100), layer_count=(2, 2)), 11)
        edges = np.concatenate([m.reshape(-1) for m in g.masks])
        assert edges.size >= 10_000
        kept = edges.mean()
        assert 0.08 <= kept <= 0.12

    def test_degenerate_space_rejected(self):
        with pytest.raises(ValueError):
            self.space(hidden_width=(0, 4))
        with pytest.raises(ValueError):
            self.space(dropout=(0.2, 1.0))
        with pytest.raises(ValueError):
            self.space(feature_count=(5, 2))

    def test_negative_noise_scale_refused(self):
        # _mlp_readout adds noise only for a positive scale, so a negative
        # range would quietly mean no noise at all
        with pytest.raises(ValueError, match="noise_scale"):
            self.space(noise_scale=(-0.3, -0.1))

    @pytest.mark.parametrize("fraction", [(0.5, 0.2), (1.5, 2.0), (-0.5, -0.1)])
    def test_categorical_fraction_outside_unit_interval_refused(self, fraction):
        with pytest.raises(ValueError, match="categorical_fraction"):
            self.space(categorical_fraction=fraction)

    def test_zero_noise_and_full_fraction_allowed(self):
        space = self.space(noise_scale=(0.0, 0.0), categorical_fraction=(0.0, 1.0))
        sample_generator(space, 3)

    def test_selection_disjointness(self):
        for seed in range(25):
            g = sample_generator(self.space(), seed)
            assert g.response_neuron not in set(g.predictor_neurons.tolist())
            assert np.unique(g.predictor_neurons).size == g.feature_count


class TestGenerateDataset:
    def test_reproducible(self):
        g = sample_generator(GeneratorHyperSpace(), 5)
        a = generate_dataset(g, 5, seed=123)
        b = generate_dataset(g, 5, seed=123)
        np.testing.assert_array_equal(a.X.data, b.X.data)
        np.testing.assert_array_equal(a.y_values.data, b.y_values.data)

    def test_regression_mode(self):
        space = GeneratorHyperSpace(classification_prob=0.0)
        g = sample_generator(space, 9)
        ds = generate_dataset(g, 16, seed=0)
        assert ds.task == REGRESSION and ds.y_labels is None
        assert ds.y_values.data.dtype == np.float64
        assert np.unique(ds.y_values.data).size > 2

    def test_classification_labels_within_cardinality(self):
        space = GeneratorHyperSpace(class_count=(3, 3))
        for seed in range(10):
            g = sample_generator(space, seed)
            if g.task != CLASSIFICATION:
                continue
            ds = generate_dataset(g, 32, seed=seed)
            labels = set(ds.y_labels.tolist())
            assert labels <= {0, 1, 2}
            assert len(labels) >= 2

    def test_too_few_rows_rejected(self):
        g = sample_generator(GeneratorHyperSpace(), 2)
        with pytest.raises(ValueError):
            generate_dataset(g, 3, seed=0)

    def test_output_is_normalized(self):
        g = sample_generator(GeneratorHyperSpace(), 31)
        ds = generate_dataset(g, 64, seed=4)
        assert np.all(np.abs(ds.X.data) <= 4.0)
        assert not np.isnan(ds.X.data).any()

    def test_soft_mode_connects_to_weights(self):
        space = GeneratorHyperSpace(categorical_fraction=(0.5, 0.5))
        g = AgentState(AgentConfig(temperature=0.01), space, run_seed=13, slot=0).generator
        with T.Tape() as tape:
            ds = generate_dataset(g, 24, seed=1, soft=True)
            loss = T.mean(T.mul(ds.X, ds.X))
            tape.backward(loss)
        got = [w.grad is not None and np.abs(w.grad).sum() > 0 for w in g.weights]
        assert any(got)
