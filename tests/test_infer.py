import dataclasses

import numpy as np
import pytest

from priorfit.tensor import Tensor
from priorfit.model import Model, ModelConfig, Prediction
from priorfit.prior import CLASSIFICATION, REGRESSION, Dataset
from priorfit import infer
from priorfit.infer import (BatchPlan, aggregate_classification,
                            aggregate_regression, normalize_train_test,
                            permutation_ensemble, predict, subsample_features)


MODEL = Model(ModelConfig(d_model=16, n_blocks=1, n_heads=2, d_ff=24,
                          feature_width=4), seed=0)


def class_train(rng, n=20, d=3, C=3):
    labels = rng.integers(0, C, size=n)
    labels[:C] = np.arange(C)
    return Dataset(X=Tensor(rng.standard_normal((n, d))),
                   y_values=Tensor(labels.astype(float)), y_labels=labels,
                   cat_mask=np.zeros(d, dtype=bool), task=CLASSIFICATION)


def regr_train(rng, n=20, d=3):
    y = rng.standard_normal(n) * 3 + 1
    return Dataset(X=Tensor(rng.standard_normal((n, d))),
                   y_values=Tensor(y), y_labels=None,
                   cat_mask=np.zeros(d, dtype=bool), task=REGRESSION)


class TestNormalizeTrainTest:
    def test_train_statistics_only(self):
        train = np.array([[0.0], [10.0]])
        test = np.array([[5.0], [20.0]])
        tr, te = normalize_train_test(train, test)
        np.testing.assert_allclose(tr, [[-1.0], [1.0]])
        np.testing.assert_allclose(te, [[0.0], [3.0]])

    def test_clip_applies_to_test(self):
        tr, te = normalize_train_test(np.array([[0.0], [1.0]]),
                                      np.array([[100.0]]))
        assert te[0, 0] == 4.0

    def test_missing_imputed_to_zero_after_stats(self):
        train = np.array([[1.0, 5.0], [3.0, np.nan], [np.nan, 7.0]])
        missing = np.isnan(train)
        tr, te = normalize_train_test(train, train.copy(), missing, missing)
        assert not np.isnan(tr).any()
        assert tr[2, 0] == 0.0 and tr[1, 1] == 0.0
        # observed cells z-scored over observed entries only
        np.testing.assert_allclose(tr[0, 0], -1.0)

    def test_zero_variance_column_zeroed(self):
        tr, te = normalize_train_test(np.full((4, 1), 2.2), np.full((2, 1), 9.9))
        np.testing.assert_array_equal(tr, 0.0)
        np.testing.assert_array_equal(te, 0.0)


class TestSubsampleFeatures:
    def test_identity_at_budget(self):
        x = np.arange(20.0).reshape(2, 10)
        out, idx = subsample_features(x, budget=10)
        np.testing.assert_array_equal(out, x)
        np.testing.assert_array_equal(idx, np.arange(10))

    def test_above_budget_selects_distinct(self):
        rng = np.random.default_rng(0)
        x = np.zeros((3, 150))
        out, idx = subsample_features(x, budget=100, rng=rng)
        assert out.shape == (3, 100)
        assert np.unique(idx).size == 100

    def test_seeded_reproducible(self):
        x = np.zeros((2, 150))
        _, a = subsample_features(x, 100, np.random.default_rng(7))
        _, b = subsample_features(x, 100, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_needs_rng_above_budget(self):
        with pytest.raises(ValueError):
            subsample_features(np.zeros((2, 150)), budget=100)


class TestPredict:
    def test_checksum_unchanged_and_simplex(self):
        rng = np.random.default_rng(1)
        train = class_train(rng)
        before = MODEL.checksum()
        out = predict(MODEL, train, rng.standard_normal((6, 3)))
        assert MODEL.checksum() == before
        assert out.probs.shape == (6, 3)
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-6)

    def test_single_class_training_certain(self):
        rng = np.random.default_rng(2)
        labels = np.zeros(8, dtype=int)
        train = Dataset(X=Tensor(rng.standard_normal((8, 3))),
                        y_values=Tensor(labels.astype(float)), y_labels=labels,
                        cat_mask=np.zeros(3, dtype=bool), task=CLASSIFICATION)
        out = predict(MODEL, train, rng.standard_normal((4, 3)))
        np.testing.assert_allclose(out.probs, 1.0)
        np.testing.assert_array_equal(out.classes, [0])

    def test_duplicated_training_row_shifts_prediction(self):
        rng = np.random.default_rng(3)
        train = class_train(rng, n=12)
        test = rng.standard_normal((5, 3))
        base = predict(MODEL, train, test)
        dup_rows = np.concatenate([train.X.data, train.X.data[:1]])
        dup_labels = np.concatenate([train.y_labels, train.y_labels[:1]])
        dup = Dataset(X=Tensor(dup_rows), y_values=Tensor(dup_labels.astype(float)),
                      y_labels=dup_labels, cat_mask=train.cat_mask,
                      task=CLASSIFICATION)
        out = predict(MODEL, dup, test)
        assert not np.allclose(out.probs, base.probs)

    def test_zero_training_rows_rejected(self):
        ds = Dataset(X=Tensor(np.zeros((0, 3))), y_values=Tensor(np.zeros(0)),
                     y_labels=np.zeros(0, dtype=int),
                     cat_mask=np.zeros(3, dtype=bool), task=CLASSIFICATION)
        with pytest.raises(ValueError):
            predict(MODEL, ds, np.zeros((2, 3)))

    def test_classes_are_original_labels(self):
        rng = np.random.default_rng(4)
        labels = np.array([5, 9, 5, 9, 9, 5, 5, 9])
        train = Dataset(X=Tensor(rng.standard_normal((8, 3))),
                        y_values=Tensor(labels.astype(float)), y_labels=labels,
                        cat_mask=np.zeros(3, dtype=bool), task=CLASSIFICATION)
        out = predict(MODEL, train, rng.standard_normal((3, 3)))
        np.testing.assert_array_equal(out.classes, [5, 9])

    def test_wide_input_subsampled_with_shared_columns(self):
        rng = np.random.default_rng(5)
        n, d = 10, 30
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        train = Dataset(X=Tensor(rng.standard_normal((n, d))),
                        y_values=Tensor(labels.astype(float)), y_labels=labels,
                        cat_mask=np.zeros(d, dtype=bool), task=CLASSIFICATION)
        out = predict(MODEL, train, rng.standard_normal((4, d)),
                      feature_budget=8, feature_rng=np.random.default_rng(0))
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-6)

    def test_regression_outputs_in_original_units(self):
        rng = np.random.default_rng(6)
        train = regr_train(rng)
        out = predict(MODEL, train, rng.standard_normal((5, 3)))
        assert out.task == REGRESSION
        assert out.mu.shape == (5,) and np.all(out.sigma > 0)
        # normalized-space mu is clipped well inside +-4, so original units
        # must stay within the train target spread
        spread = np.abs(train.y_values.data - train.y_values.data.mean()).max()
        assert np.all(np.abs(out.mu - train.y_values.data.mean())
                      <= 4.5 * max(spread, 1.0))


class TestBatchPlan:
    def test_single_batch_when_under_cap(self):
        plan = BatchPlan.build(10, cap=3000)
        assert plan.ranges == [(0, 10)]
        np.testing.assert_allclose(plan.weights, [1.0])

    def test_weights_proportional_to_sizes(self):
        plan = BatchPlan.build(7, cap=3)
        assert plan.ranges == [(0, 3), (3, 6), (6, 7)]
        np.testing.assert_allclose(plan.weights, [3 / 7, 3 / 7, 1 / 7])
        assert plan.weights.sum() == pytest.approx(1.0)

    def test_shuffle_is_seeded(self):
        a = BatchPlan.build(20, cap=5, rng=np.random.default_rng(3))
        b = BatchPlan.build(20, cap=5, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a.order, b.order)


class TestAggregateClassification:
    def test_single_batch_equals_predict(self):
        rng = np.random.default_rng(7)
        train = class_train(rng, n=14)
        test = rng.standard_normal((4, 3))
        base = predict(MODEL, train, test)
        agg = aggregate_classification(MODEL, train, test,
                                       plan=BatchPlan.build(train.n))
        np.testing.assert_array_equal(agg.probs, base.probs)

    def test_identical_batches_fixed_point(self):
        rng = np.random.default_rng(8)
        half = class_train(rng, n=10)
        doubled = Dataset(
            X=Tensor(np.concatenate([half.X.data, half.X.data])),
            y_values=Tensor(np.concatenate([half.y_values.data] * 2)),
            y_labels=np.concatenate([half.y_labels] * 2),
            cat_mask=half.cat_mask, task=CLASSIFICATION)
        test = rng.standard_normal((5, 3))
        plan = BatchPlan.build(20, cap=10)  # order untouched: two equal halves
        agg = aggregate_classification(MODEL, doubled, test, plan=plan)
        single = predict(MODEL, half, test)
        np.testing.assert_allclose(agg.probs, single.probs, atol=1e-12)

    def test_hand_mixture(self, monkeypatch):
        scripted = [
            Prediction(task=CLASSIFICATION, probs=np.array([[1.0, 0.0]]),
                       classes=np.array([0, 1])),
            Prediction(task=CLASSIFICATION, probs=np.array([[0.0, 1.0]]),
                       classes=np.array([0, 1])),
        ]
        calls = iter(scripted)
        monkeypatch.setattr(infer, "_forward_prediction",
                            lambda *a, **k: next(calls))
        rng = np.random.default_rng(9)
        train = class_train(rng, n=3, C=2)
        plan = BatchPlan(order=np.arange(3), ranges=[(0, 2), (2, 3)],
                         weights=np.array([2 / 3, 1 / 3]))
        out = aggregate_classification(MODEL, train, np.zeros((1, 3)), plan=plan)
        np.testing.assert_allclose(out.probs, [[2 / 3, 1 / 3]])

    def test_rows_remain_convex(self):
        rng = np.random.default_rng(10)
        train = class_train(rng, n=21)
        plan = BatchPlan.build(21, cap=8, rng=np.random.default_rng(1))
        out = aggregate_classification(MODEL, train, rng.standard_normal((6, 3)),
                                       plan=plan)
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out.probs >= 0)


class TestAggregateRegression:
    def test_hand_case(self, monkeypatch):
        scripted = [
            Prediction(task=REGRESSION, mu=np.array([0.0]), sigma=np.array([1.0])),
            Prediction(task=REGRESSION, mu=np.array([5.0]), sigma=np.array([2.0])),
        ]
        calls = iter(scripted)
        monkeypatch.setattr(infer, "_forward_prediction",
                            lambda *a, **k: next(calls))
        rng = np.random.default_rng(11)
        train = regr_train(rng, n=4)
        plan = BatchPlan(order=np.arange(4), ranges=[(0, 2), (2, 4)],
                         weights=np.array([0.5, 0.5]))
        out = aggregate_regression(MODEL, train, np.zeros((1, 3)), plan=plan)
        np.testing.assert_allclose(out, [1.0])

    def test_equal_sigma_is_arithmetic_mean(self, monkeypatch):
        scripted = [
            Prediction(task=REGRESSION, mu=np.array([2.0, -1.0]),
                       sigma=np.array([0.5, 0.5])),
            Prediction(task=REGRESSION, mu=np.array([4.0, 3.0]),
                       sigma=np.array([0.5, 0.5])),
        ]
        calls = iter(scripted)
        monkeypatch.setattr(infer, "_forward_prediction",
                            lambda *a, **k: next(calls))
        rng = np.random.default_rng(12)
        train = regr_train(rng, n=4)
        plan = BatchPlan(order=np.arange(4), ranges=[(0, 2), (2, 4)],
                         weights=np.array([0.5, 0.5]))
        out = aggregate_regression(MODEL, train, np.zeros((2, 3)), plan=plan)
        np.testing.assert_allclose(out, [3.0, 1.0])

    def test_single_batch_is_identity(self):
        rng = np.random.default_rng(13)
        train = regr_train(rng, n=12)
        test = rng.standard_normal((3, 3))
        base = predict(MODEL, train, test)
        out = aggregate_regression(MODEL, train, test,
                                   plan=BatchPlan.build(train.n))
        np.testing.assert_allclose(out, base.mu)

    def test_estimate_within_member_range(self):
        rng = np.random.default_rng(14)
        train = regr_train(rng, n=18)
        test = rng.standard_normal((4, 3))
        plan = BatchPlan.build(18, cap=6, rng=np.random.default_rng(2))
        members = []
        for s, e in plan.ranges:
            sub = infer._take_rows(train, plan.order[s:e])
            members.append(predict(MODEL, sub, test).mu)
        members = np.stack(members)
        out = aggregate_regression(MODEL, train, test, plan=plan)
        assert np.all(out >= members.min(axis=0) - 1e-12)
        assert np.all(out <= members.max(axis=0) + 1e-12)


class TestPermutationEnsemble:
    def test_k1_equals_predict(self):
        rng = np.random.default_rng(15)
        train = class_train(rng, n=16)
        test = rng.standard_normal((5, 3))
        base = predict(MODEL, train, test)
        out = permutation_ensemble(MODEL, train, test, k=1,
                                   rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.probs, base.probs)

    def test_seeded_reproducible(self):
        rng = np.random.default_rng(16)
        train = class_train(rng, n=16)
        test = rng.standard_normal((5, 3))
        a = permutation_ensemble(MODEL, train, test, 4, np.random.default_rng(5))
        b = permutation_ensemble(MODEL, train, test, 4, np.random.default_rng(5))
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_member_variance_reported(self):
        rng = np.random.default_rng(17)
        train = class_train(rng, n=16)
        out = permutation_ensemble(MODEL, train, rng.standard_normal((5, 3)),
                                   4, np.random.default_rng(6))
        assert out.member_variance is not None and out.member_variance >= 0
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-6)

    def test_regression_moment_matching(self):
        rng = np.random.default_rng(18)
        train = regr_train(rng, n=16)
        out = permutation_ensemble(MODEL, train, rng.standard_normal((5, 3)),
                                   3, np.random.default_rng(7))
        assert np.all(out.sigma > 0)

    def test_k0_rejected(self):
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError):
            permutation_ensemble(MODEL, class_train(rng), np.zeros((1, 3)),
                                 0, np.random.default_rng(0))


def joint_forward(model, train, test_x):
    """The single masked pass over the concatenated train+test tokens, with
    predict's normalization and label coding: the reference for predict."""
    train_xn, test_xn = normalize_train_test(train.X.data, test_x)
    n_train, n_test = train_xn.shape[0], test_xn.shape[0]
    x = Tensor(np.concatenate([train_xn, test_xn])[None])
    if train.task == CLASSIFICATION:
        classes, train01 = np.unique(train.y_labels, return_inverse=True)
        y = np.concatenate([train01.astype(np.float64), np.zeros(n_test)])
        return model.forward_classification(x, Tensor(y[None]), n_train,
                                            train01[None], classes.size).data[0]
    y_raw = train.y_values.data
    y_norm = np.clip((y_raw - y_raw.mean()) / y_raw.std(), -4.0, 4.0)
    y = np.concatenate([y_norm, np.zeros(n_test)])
    mu, sigma = model.forward_regression(x, Tensor(y[None]), n_train)
    return np.stack([mu.data[0] * y_raw.std() + y_raw.mean(),
                     sigma.data[0] * y_raw.std()])


def predicted(model, train, test_x):
    out = predict(model, train, test_x)
    return out.probs if out.task == CLASSIFICATION else np.stack([out.mu, out.sigma])


@pytest.fixture
def encodes(monkeypatch):
    """An empty context cache, and a log of the context encodes that run."""
    monkeypatch.setattr(infer, "_encoded", (None, None))
    calls = []
    encode = Model.encode_context

    def counted(self, *args, **kwargs):
        calls.append(self)
        return encode(self, *args, **kwargs)

    monkeypatch.setattr(Model, "encode_context", counted)
    return calls


CHUNK = 4


class TestCachedChunkedPredict:
    """predict encodes the training context once and decodes test rows
    against it in QUERY_CHUNK slices; float64 results must equal the joint
    masked pass within 1e-12."""

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("n_test", [1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("variant", [{}, {"embed_mode": "patch"},
                                         {"head": "dense", "n_heads": 4}])
    def test_equals_joint_forward(self, monkeypatch, encodes, task, n_test, variant):
        monkeypatch.setattr(infer, "QUERY_CHUNK", CHUNK)
        base = dict(d_model=16, n_blocks=2, n_heads=2, d_ff=24, feature_width=2)
        model = Model(ModelConfig(**{**base, **variant}), seed=20)
        rng = np.random.default_rng(20 + n_test)
        train = class_train(rng, n=15) if task == CLASSIFICATION else regr_train(rng, n=15)
        test_x = rng.standard_normal((n_test, 3))
        np.testing.assert_allclose(predicted(model, train, test_x),
                                   joint_forward(model, train, test_x),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_warm_call_is_bit_identical_and_encodes_once(self, monkeypatch, encodes, task):
        monkeypatch.setattr(infer, "QUERY_CHUNK", CHUNK)
        rng = np.random.default_rng(21)
        train = class_train(rng) if task == CLASSIFICATION else regr_train(rng)
        test_x = rng.standard_normal((2 * CHUNK + 1, 3))
        cold = predicted(MODEL, train, test_x)
        warm = predicted(MODEL, train, test_x)
        other = predicted(MODEL, train, test_x[:3])
        assert len(encodes) == 1
        np.testing.assert_array_equal(warm, cold)
        np.testing.assert_allclose(other, joint_forward(MODEL, train, test_x[:3]),
                                   rtol=0, atol=1e-12)

    def test_context_cell_change_invalidates(self, encodes):
        rng = np.random.default_rng(22)
        train = class_train(rng)
        test_x = rng.standard_normal((5, 3))
        before = predicted(MODEL, train, test_x)
        train.X.data[4, 1] += 0.5
        after = predicted(MODEL, train, test_x)
        assert len(encodes) == 2
        assert not np.allclose(after, before)
        np.testing.assert_allclose(after, joint_forward(MODEL, train, test_x),
                                   rtol=0, atol=1e-12)

    def test_parameter_change_invalidates(self, encodes):
        model = Model(MODEL.cfg, seed=23)
        rng = np.random.default_rng(23)
        train = regr_train(rng)
        test_x = rng.standard_normal((5, 3))
        before = predicted(model, train, test_x)
        model.params["blocks/0/attn/wv"].data[0, 0] += 0.5
        after = predicted(model, train, test_x)
        assert len(encodes) == 2
        assert not np.allclose(after, before)
        np.testing.assert_allclose(after, joint_forward(model, train, test_x),
                                   rtol=0, atol=1e-12)

    def test_config_change_with_equal_parameters_invalidates(self, encodes):
        two = Model(MODEL.cfg, seed=24)
        four = Model(dataclasses.replace(MODEL.cfg, n_heads=4), seed=0)
        for name, t in two.params.items():
            four.params[name].data = t.data.copy()
        assert four.checksum() == two.checksum()
        rng = np.random.default_rng(24)
        train = class_train(rng)
        test_x = rng.standard_normal((5, 3))
        first = predicted(two, train, test_x)
        second = predicted(four, train, test_x)
        assert encodes == [two, four]
        assert not np.allclose(first, second)
        np.testing.assert_allclose(second, joint_forward(four, train, test_x),
                                   rtol=0, atol=1e-12)
