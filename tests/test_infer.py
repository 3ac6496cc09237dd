import dataclasses
import itertools
import os
import sys
import tempfile
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from priorfit import tensor as T
from priorfit.tensor import Tensor
from priorfit.model import Model, ModelConfig, Prediction
from priorfit.prior import CLASSIFICATION, REGRESSION, Dataset
from priorfit import infer
from priorfit.data_io import ingest_csv, ingest_features_with_schema
from priorfit.infer import (batch_rows, normalize_train_test, predict,
                            subsample_features)
from priorfit.seeding import NS_EVAL, derive_rng


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
        tr, te = normalize_train_test(train, test, np.zeros(train.shape, bool),
                                      np.zeros(test.shape, bool))
        np.testing.assert_allclose(tr, [[-1.0], [1.0]])
        np.testing.assert_allclose(te, [[0.0], [3.0]])

    def test_clip_applies_to_test(self):
        tr, te = normalize_train_test(np.array([[0.0], [1.0]]), np.array([[100.0]]),
                                      np.zeros((2, 1), bool), np.zeros((1, 1), bool))
        assert te[0, 0] == 4.0

    def test_missing_imputed_to_zero_after_stats(self):
        train = np.array([[1.0, 5.0], [3.0, np.nan], [np.nan, 7.0]])
        missing = np.isnan(train)
        tr, te = normalize_train_test(train, train.copy(), missing, missing)
        assert not np.isnan(tr).any()
        assert tr[2, 0] == 0.0 and tr[1, 1] == 0.0
        # observed cells z-scored over observed entries only
        np.testing.assert_allclose(tr[0, 0], -1.0)

    @pytest.mark.parametrize("column, missing", [
        ([2.2] * 4, [False] * 4),
        # the float std of these constant columns is 1.4e-17, not 0
        ([0.1] * 3, [False] * 3),
        ([0.1] * 7, [False] * 7),
        ([0.1, 0.1, 5.0, 0.1], [False, False, True, False]),
    ], ids=["2.2x4", "0.1x3", "0.1x7", "0.1x3-beside-missing"])
    def test_zero_variance_column_zeroed(self, column, missing):
        tr, te = normalize_train_test(np.array(column)[:, None], np.array([[0.3], [9.9]]),
                                      np.array(missing)[:, None], np.zeros((2, 1), bool))
        np.testing.assert_array_equal(tr, 0.0)
        np.testing.assert_array_equal(te, 0.0)

    @staticmethod
    def warning_silencing_normalization(train_x, test_x, train_missing, test_missing):
        """The formulation that silenced the all-missing column's nan-reduction
        warnings and mapped its nan mean and spread to 0."""
        masked = np.where(train_missing, np.nan, train_x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mu = np.nan_to_num(np.nanmean(masked, axis=0))
            sd = np.nan_to_num(np.nanstd(masked, axis=0))
            spread = (np.nanmax(masked, axis=0) > np.nanmin(masked, axis=0)) & (sd > 0)
        safe = np.where(spread, sd, 1.0)

        def scaled(x, missing):
            z = np.where(spread, np.clip((x - mu) / safe, -4.0, 4.0), 0.0)
            return np.nan_to_num(np.where(missing, 0.0, z))
        return scaled(train_x, train_missing), scaled(test_x, test_missing)

    @pytest.mark.parametrize("seed", range(20))
    def test_all_missing_column_warns_nothing_and_keeps_its_bytes(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 9)), 4
        train_x, test_x = rng.standard_normal((n, d)), rng.standard_normal((3, d))
        train_x[:, 2] = 0.1  # constant
        train_missing = rng.random((n, d)) < 0.4  # partly missing
        train_missing[:, 0] = True  # all missing
        test_missing = rng.random((3, d)) < 0.4
        train_x[train_missing], test_x[test_missing] = np.nan, np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            filters = list(warnings.filters)
            got = normalize_train_test(train_x, test_x, train_missing, test_missing)
            assert warnings.filters == filters
        want = self.warning_silencing_normalization(train_x, test_x, train_missing,
                                                    test_missing)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_overlapping_threads_warn_nothing_and_leave_filters(self, monkeypatch):
        """The second thread computes while the first has already returned; a
        warnings.catch_warnings inside the function would have restored the
        filters under the second and then leaked its own on the way out."""
        train = np.array([[np.nan, 1.0], [np.nan, 3.0]])
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        nanmean = np.nanmean

        def sequenced(*args, **kwargs):
            if threading.current_thread().name == "first":
                first_in.set()
                second_in.wait(10)
            elif not second_in.is_set():
                second_in.set()
                first_out.wait(10)
            return nanmean(*args, **kwargs)

        errors = []

        def normalize(done=None):
            try:
                normalize_train_test(train, train, np.isnan(train), np.isnan(train))
            except Exception as err:
                errors.append(err)
            if done is not None:
                done.set()

        monkeypatch.setattr(np, "nanmean", sequenced)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            filters = list(warnings.filters)
            first = threading.Thread(target=normalize, args=(first_out,), name="first")
            second = threading.Thread(target=normalize, name="second")
            first.start()
            first_in.wait(10)
            second.start()
            first.join(10)
            second.join(10)
            assert not first.is_alive() and not second.is_alive()
            assert errors == []
            assert warnings.filters == filters


class TestSubsampleFeatures:
    def test_identity_at_budget(self):
        x = np.arange(2.0 * infer.FEATURE_BUDGET).reshape(2, -1)
        idx = subsample_features(x.shape[1])
        np.testing.assert_array_equal(x[:, idx], x)
        np.testing.assert_array_equal(idx, np.arange(infer.FEATURE_BUDGET))

    def test_above_budget_selects_distinct(self):
        rng = np.random.default_rng(0)
        x = np.zeros((3, 150))
        idx = subsample_features(x.shape[1], rng=rng)
        assert x[:, idx].shape == (3, 100)
        assert np.unique(idx).size == 100

    def test_seeded_reproducible(self):
        a = subsample_features(150, np.random.default_rng(7))
        b = subsample_features(150, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_needs_rng_above_budget(self):
        with pytest.raises(ValueError):
            subsample_features(150)


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

    def test_wide_input_subsampled_with_shared_columns(self, monkeypatch):
        monkeypatch.setattr(infer, "FEATURE_BUDGET", 8)
        rng = np.random.default_rng(5)
        n, d = 10, 30
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        train = Dataset(X=Tensor(rng.standard_normal((n, d))),
                        y_values=Tensor(labels.astype(float)), y_labels=labels,
                        cat_mask=np.zeros(d, dtype=bool), task=CLASSIFICATION)
        out = predict(MODEL, train, rng.standard_normal((4, d)))
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


class TestBatchRows:
    def test_single_batch_when_under_cap(self, monkeypatch):
        assert batch_rows(10, np.random.default_rng(0)) == [None]
        # one batch keeps the given row order and draws nothing
        monkeypatch.setattr(infer, "BATCH_CAP", 10)
        rng = np.random.default_rng(3)
        assert batch_rows(10, rng) == [None]
        assert rng.random() == np.random.default_rng(3).random()

    def test_weights_proportional_to_sizes(self, monkeypatch):
        monkeypatch.setattr(infer, "BATCH_CAP", 3)
        rows = batch_rows(7, np.random.default_rng(0))
        assert [r.size for r in rows] == [3, 3, 1]
        np.testing.assert_array_equal(np.sort(np.concatenate(rows)), np.arange(7))
        # a batch's weight in the mixture is its share of the rows
        train = class_train(np.random.default_rng(4), n=7)
        onehot = [Prediction(task=CLASSIFICATION, probs=np.eye(3)[[k]],
                             classes=np.arange(3)) for k in range(3)]
        weights = infer._combine_batches(onehot, [train.take(r) for r in rows]).probs[0]
        np.testing.assert_allclose(weights, [3 / 7, 3 / 7, 1 / 7])
        assert weights.sum() == pytest.approx(1.0)

    def test_shuffle_is_seeded(self, monkeypatch):
        monkeypatch.setattr(infer, "BATCH_CAP", 5)
        a = batch_rows(20, np.random.default_rng(3))
        b = batch_rows(20, np.random.default_rng(3))
        np.testing.assert_array_equal(np.concatenate(a), np.concatenate(b))


def batch_order(n, seed=0):
    """The training rows of the batches predict draws for seed, batch after
    batch."""
    return np.concatenate(batch_rows(n, derive_rng(seed, NS_EVAL, 2)))


def scripted_forward(monkeypatch, scripted):
    calls = iter(scripted)
    monkeypatch.setattr(infer, "_forward_prediction", lambda *a, **k: next(calls))


class TestAggregateClassification:
    """predict over training sets above BATCH_CAP: per-batch class
    distributions mix by batch weight."""

    def test_single_batch_equals_predict(self, monkeypatch):
        rng = np.random.default_rng(7)
        train = class_train(rng, n=14)
        test = rng.standard_normal((4, 3))
        base = predict(MODEL, train, test)
        monkeypatch.setattr(infer, "BATCH_CAP", train.n)
        agg = predict(MODEL, train, test)
        np.testing.assert_array_equal(agg.probs, base.probs)

    def test_identical_batches_fixed_point(self, monkeypatch):
        monkeypatch.setattr(infer, "BATCH_CAP", 10)
        rng = np.random.default_rng(8)
        half = class_train(rng, n=10)
        order = batch_order(20)
        rows = np.empty(20, dtype=int)  # both batches predict draws hold half, in order
        rows[order] = np.tile(np.arange(10), 2)
        doubled = Dataset(
            X=Tensor(half.X.data[rows]), y_values=Tensor(half.y_values.data[rows]),
            y_labels=half.y_labels[rows], cat_mask=half.cat_mask,
            task=CLASSIFICATION)
        test = rng.standard_normal((5, 3))
        agg = predict(MODEL, doubled, test)
        single = predict(MODEL, half, test)
        np.testing.assert_allclose(agg.probs, single.probs, atol=1e-12)

    def test_hand_mixture(self, monkeypatch):
        scripted_forward(monkeypatch, [
            Prediction(task=CLASSIFICATION, probs=np.array([[1.0, 0.0]]),
                       classes=np.array([0, 1])),
            Prediction(task=CLASSIFICATION, probs=np.array([[0.0, 1.0]]),
                       classes=np.array([0, 1])),
        ])
        monkeypatch.setattr(infer, "BATCH_CAP", 2)  # batches of 2 and 1 rows
        rng = np.random.default_rng(9)
        train = class_train(rng, n=3, C=2)
        out = predict(MODEL, train, np.zeros((1, 3)))
        np.testing.assert_allclose(out.probs, [[2 / 3, 1 / 3]])

    def test_rows_remain_convex(self, monkeypatch):
        monkeypatch.setattr(infer, "BATCH_CAP", 8)
        rng = np.random.default_rng(10)
        train = class_train(rng, n=21)
        out = predict(MODEL, train, rng.standard_normal((6, 3)), seed=1)
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out.probs >= 0)



class TestAggregateRegression:
    """Above BATCH_CAP, Gaussian batches combine by inverse variance."""

    def test_hand_case(self, monkeypatch):
        scripted_forward(monkeypatch, [
            Prediction(task=REGRESSION, mu=np.array([0.0]), sigma=np.array([1.0])),
            Prediction(task=REGRESSION, mu=np.array([5.0]), sigma=np.array([2.0])),
        ])
        monkeypatch.setattr(infer, "BATCH_CAP", 2)
        rng = np.random.default_rng(11)
        train = regr_train(rng, n=4)
        out = predict(MODEL, train, np.zeros((1, 3)))
        np.testing.assert_allclose(out.mu, [1.0])
        np.testing.assert_allclose(out.sigma, [(1.0 + 0.25) ** -0.5])

    def test_equal_sigma_is_arithmetic_mean(self, monkeypatch):
        scripted_forward(monkeypatch, [
            Prediction(task=REGRESSION, mu=np.array([2.0, -1.0]),
                       sigma=np.array([0.5, 0.5])),
            Prediction(task=REGRESSION, mu=np.array([4.0, 3.0]),
                       sigma=np.array([0.5, 0.5])),
        ])
        monkeypatch.setattr(infer, "BATCH_CAP", 2)
        rng = np.random.default_rng(12)
        train = regr_train(rng, n=4)
        out = predict(MODEL, train, np.zeros((2, 3)))
        np.testing.assert_allclose(out.mu, [3.0, 1.0])

    def test_single_batch_is_identity(self, monkeypatch):
        rng = np.random.default_rng(13)
        train = regr_train(rng, n=12)
        test = rng.standard_normal((3, 3))
        base = predict(MODEL, train, test)
        monkeypatch.setattr(infer, "BATCH_CAP", train.n)
        out = predict(MODEL, train, test)
        np.testing.assert_allclose(out.mu, base.mu)

    def test_estimate_within_member_range(self, monkeypatch):
        monkeypatch.setattr(infer, "BATCH_CAP", 6)
        rng = np.random.default_rng(14)
        train = regr_train(rng, n=18)
        test = rng.standard_normal((4, 3))
        order = batch_order(18, seed=2)
        members = np.stack([predict(MODEL, train.take(order[s:s + 6]),
                                    test).mu for s in (0, 6, 12)])
        out = predict(MODEL, train, test, seed=2).mu
        assert np.all(out >= members.min(axis=0) - 1e-12)
        assert np.all(out <= members.max(axis=0) + 1e-12)


class TestPermutationEnsemble:
    def test_k1_equals_predict(self):
        rng = np.random.default_rng(15)
        train = class_train(rng, n=16)
        test = rng.standard_normal((5, 3))
        base = predict(MODEL, train, test)
        out = predict(MODEL, train, test, ensemble=1, seed=5)
        np.testing.assert_array_equal(out.probs, base.probs)

    def test_seeded_reproducible(self):
        rng = np.random.default_rng(16)
        train = class_train(rng, n=16)
        test = rng.standard_normal((5, 3))
        a = predict(MODEL, train, test, ensemble=4, seed=5)
        b = predict(MODEL, train, test, ensemble=4, seed=5)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_member_variance_reported(self):
        rng = np.random.default_rng(17)
        train = class_train(rng, n=16)
        out = predict(MODEL, train, rng.standard_normal((5, 3)), ensemble=4, seed=6)
        assert out.member_variance is not None and out.member_variance >= 0
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-6)

    def test_regression_moment_matching(self):
        rng = np.random.default_rng(18)
        train = regr_train(rng, n=16)
        out = predict(MODEL, train, rng.standard_normal((5, 3)), ensemble=3, seed=7)
        assert np.all(out.sigma > 0)

    def test_k0_rejected(self):
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError):
            predict(MODEL, class_train(rng), np.zeros((1, 3)), ensemble=0)


@pytest.fixture
def forwards(monkeypatch):
    """The training sets _forward_prediction is called with."""
    seen = []
    forward = infer._forward_prediction

    def counted(model, train, *args):
        seen.append(train)
        return forward(model, train, *args)

    monkeypatch.setattr(infer, "_forward_prediction", counted)
    return seen


class TestComposedPath:
    """Ensembling composes with batch aggregation and feature subsampling."""

    @pytest.mark.parametrize("make", [class_train, regr_train])
    def test_every_member_predicts_every_batch(self, monkeypatch, forwards, make):
        monkeypatch.setattr(infer, "BATCH_CAP", 8)
        rng = np.random.default_rng(30)
        train = make(rng, n=21)
        out = predict(MODEL, train, rng.standard_normal((4, 3)), ensemble=2)
        assert len(forwards) == 2 * 3
        assert sorted(t.n for t in forwards) == [5, 5, 8, 8, 8, 8]
        assert out.member_variance is not None

    def test_every_member_sees_the_feature_budget(self, monkeypatch, forwards):
        monkeypatch.setattr(infer, "FEATURE_BUDGET", 4)
        rng = np.random.default_rng(31)
        train = class_train(rng, n=12, d=9)
        out = predict(MODEL, train, rng.standard_normal((3, 9)), ensemble=2)
        assert len(forwards) == 2
        assert [t.d for t in forwards] == [4, 4]
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-6)

    def test_test_width_mismatch_rejected(self):
        rng = np.random.default_rng(32)
        with pytest.raises(ValueError, match="features"):
            predict(MODEL, class_train(rng), np.zeros((2, 4)), ensemble=2)


def joint_forward(model, train, test_x):
    """The single masked pass over the concatenated train+test tokens, with
    predict's normalization and label coding: the reference for predict."""
    train_xn, test_xn = normalize_train_test(train.X.data, test_x, train.missing_mask,
                                             np.zeros(test_x.shape, bool))
    n_train, n_test = train_xn.shape[0], test_xn.shape[0]
    x = Tensor(np.concatenate([train_xn, test_xn])[None])
    if train.task == CLASSIFICATION:
        classes, train01 = np.unique(train.y_labels, return_inverse=True)
        y = np.concatenate([train01.astype(np.float64), np.zeros(n_test)])
        states = model.transformer(model.embed_episode(x, Tensor(y[None]), n_train), n_train)
        return model.class_head(states[:, n_train:], model.mixture_keys(states[:, :n_train]),
                                train01[None], classes.size).data[0]
    y_raw = train.y_values.data
    y_norm = np.clip((y_raw - y_raw.mean()) / y_raw.std(), -4.0, 4.0)
    y = np.concatenate([y_norm, np.zeros(n_test)])
    states = model.transformer(model.embed_episode(x, Tensor(y[None]), n_train), n_train)
    mu, sigma = model.gaussian_head(states[:, n_train:])
    return np.stack([mu.data[0] * y_raw.std() + y_raw.mean(),
                     sigma.data[0] * y_raw.std()])


def predicted(model, train, test_x, **kwargs):
    out = predict(model, train, test_x, **kwargs)
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
# The base width truncates the three test features; feature_width=5 pads them.
VARIANTS = [{}, {"feature_width": 5}, {"head": "dense", "n_heads": 4}]


def variant_model(variant):
    base = dict(d_model=16, n_blocks=2, n_heads=2, d_ff=24, feature_width=2)
    return Model(ModelConfig(**{**base, **variant}), seed=20)


def float32_copy(model):
    """The model with its parameters rounded to float32."""
    copy = Model(model.cfg, seed=model.seed)
    for name, t in model.params.items():
        copy.params[name].data = t.data.astype(np.float32)
    return copy


class TestCachedChunkedPredict:
    """predict encodes the training context once and decodes test rows
    against it in QUERY_CHUNK slices; float64 results must equal the joint
    masked pass within 1e-12."""

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("n_test", [1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equals_joint_forward(self, monkeypatch, encodes, task, n_test, variant):
        monkeypatch.setattr(infer, "QUERY_CHUNK", CHUNK)
        model = variant_model(variant)
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


class TestPredictAtModelDtype:
    """predict runs the forward pass at the dtype of the model's parameters
    and leaves the process default dtype as it found it."""

    # float32 keeps about 7 significant digits and two blocks lose about one
    # more: probabilities hold to 1e-5 absolute, mu and sigma to 1e-4 of
    # their value or, for estimates near zero, of the target's deviation
    # (observed at most 2e-7 on probabilities; 2e-6 absolute, 7e-5 relative
    # on mu and sigma)
    PROB_ATOL = 1e-5
    GAUSS_RTOL = 1e-4

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_float32_copy_matches_float64(self, monkeypatch, encodes, task, variant):
        monkeypatch.setattr(infer, "QUERY_CHUNK", CHUNK)
        model = variant_model(variant)
        rng = np.random.default_rng(26)
        train = class_train(rng, n=15) if task == CLASSIFICATION else regr_train(rng, n=15)
        test_x = rng.standard_normal((CHUNK + 1, 3))
        full = predicted(model, train, test_x)
        half = predicted(float32_copy(model), train, test_x)
        assert len(encodes) == 2
        assert infer._encoded[1].mixture_keys["weight_k"].data.dtype == np.float32
        if task == CLASSIFICATION:
            np.testing.assert_allclose(half, full, rtol=0, atol=self.PROB_ATOL)
        else:
            np.testing.assert_allclose(half, full, rtol=self.GAUSS_RTOL,
                                       atol=self.GAUSS_RTOL * train.y_values.data.std())

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_large_offsets_normalize_before_the_cast(self, task):
        """Features and targets near 1e8, where float32 values lie 8 apart,
        are normalized in float64 before the pass: rounding them first would
        merge the ten training levels of a feature into two and coarsen the
        target's mean and deviation."""
        rng = np.random.default_rng(29)
        train = class_train(rng) if task == CLASSIFICATION else regr_train(rng)
        x = train.X.data.copy()
        x[:, 0] = 1e8 + np.arange(train.n) % 10
        train = dataclasses.replace(train, X=Tensor(x),
                                    y_values=Tensor(train.y_values.data + 1e8 * (task == REGRESSION)))
        test_x = rng.standard_normal((6, 3))
        test_x[:, 0] = 1e8 + np.arange(6) * 1.5
        full = predict(MODEL, train, test_x)
        half = predict(float32_copy(MODEL), train, test_x)
        if task == CLASSIFICATION:
            np.testing.assert_allclose(half.probs, full.probs, rtol=0, atol=self.PROB_ATOL)
        else:
            sd = train.y_values.data.std()
            np.testing.assert_allclose(half.mu, full.mu, rtol=0, atol=self.GAUSS_RTOL * sd)
            np.testing.assert_allclose(half.sigma, full.sigma, rtol=self.GAUSS_RTOL)

    @pytest.mark.parametrize("ensemble", [1, 2])
    def test_float32_outputs(self, monkeypatch, ensemble):
        monkeypatch.setattr(infer, "BATCH_CAP", 12)  # two batches
        rng = np.random.default_rng(27)
        model = float32_copy(MODEL)
        out = predict(model, class_train(rng), rng.standard_normal((7, 3)), ensemble=ensemble)
        assert out.probs.dtype == np.float64  # cast from the float32 head
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, rtol=0, atol=1e-6)
        out = predict(model, regr_train(rng), rng.standard_normal((7, 3)), ensemble=ensemble)
        assert out.mu.dtype == out.sigma.dtype == np.float64

    @pytest.mark.parametrize("default", [np.float32, np.float64])
    def test_default_dtype_restored(self, default):
        rng = np.random.default_rng(28)
        train = class_train(rng)
        models = [MODEL, float32_copy(MODEL)]
        capped = float32_copy(Model(dataclasses.replace(MODEL.cfg, head="dense",
                                                        max_classes=2), seed=0))
        with T.dtype_scope(default):
            for model in models:
                predict(model, train, rng.standard_normal((2, 3)))
                assert T.default_dtype() is default
                with pytest.raises(ValueError, match="features"):
                    predict(model, train, np.zeros((2, 4)))
                assert T.default_dtype() is default
            with pytest.raises(ValueError, match="capped"):  # refused inside the pass
                predict(capped, train, rng.standard_normal((2, 3)))
            assert T.default_dtype() is default


def decode_workers(monkeypatch, workers):
    monkeypatch.setattr(infer, "_idle_cpu_threads", lambda n_tasks: workers)


class TestMissingMasks:
    """A missing cell is a True in a bool mask shaped like its split; None
    means all False, and predict refuses what the masks cannot explain."""

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_absent_masks_equal_all_false_masks_bytewise(self, task, dtype):
        model = MODEL if dtype is np.float64 else float32_copy(MODEL)
        rng = np.random.default_rng(33)
        train = class_train(rng, n=30) if task == CLASSIFICATION else regr_train(rng, n=30)
        test_x = rng.standard_normal((9, 3))
        no_mask = predicted(model, train, test_x, ensemble=3, seed=4)
        false_test_mask = predicted(model, train, test_x, ensemble=3, seed=4,
                                    test_missing=np.zeros((9, 3), bool))
        masked_train = dataclasses.replace(train, missing_mask=np.zeros((30, 3), bool))
        false_train_mask = predicted(model, masked_train, test_x, ensemble=3, seed=4)
        assert false_test_mask.tobytes() == no_mask.tobytes()
        assert false_train_mask.tobytes() == no_mask.tobytes()

    def test_row_shaped_test_mask_refused(self):
        rng = np.random.default_rng(34)
        test_x = rng.standard_normal((5, 3))
        with pytest.raises(ValueError, match=r"test_missing.*\(5, 3\).*\(3,\)"):
            predict(MODEL, class_train(rng), test_x, np.array([True, False, False]))

    def test_non_bool_test_mask_refused(self):
        rng = np.random.default_rng(35)
        with pytest.raises(ValueError, match="int64"):
            predict(MODEL, class_train(rng), np.zeros((5, 3)), np.zeros((5, 3), np.int64))

    @pytest.mark.parametrize("split", ["training", "test"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_unmasked_non_finite_cell_refused_with_its_count(self, split, value):
        rng = np.random.default_rng(36)
        train, test_x = class_train(rng), rng.standard_normal((5, 3))
        x = train.X.data if split == "training" else test_x
        x[1, 2] = x[3, 0] = value
        with pytest.raises(ValueError, match=f"{split} rows have 2 non-finite cells"):
            predict(MODEL, train, test_x)

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_masked_cell_value_is_ignored(self, task):
        rng = np.random.default_rng(37)
        train = class_train(rng) if task == CLASSIFICATION else regr_train(rng)
        test_x = rng.standard_normal((5, 3))
        train_missing, test_missing = train.X.data < -1.0, test_x < -1.0
        outs = []
        for fill in (0.0, np.nan, -np.inf):
            x, tx = train.X.data.copy(), test_x.copy()
            x[train_missing], tx[test_missing] = fill, fill
            masked = dataclasses.replace(train, X=Tensor(x), missing_mask=train_missing)
            outs.append(predicted(MODEL, masked, tx, test_missing=test_missing))
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()


class TestConcurrentPredict:
    def test_encode_returns_its_own_context_when_another_thread_stores(
            self, monkeypatch):
        """Thread B stores its cache entry after thread A has stored its own
        and before A's _encode returns (a line trace on A's _encode frame
        holds A there); A's prediction must still use A's context."""
        rng = np.random.default_rng(41)
        train_a, train_b = class_train(rng), class_train(rng)
        test_x = rng.standard_normal((6, 3))
        serial = predicted(MODEL, train_a, test_x)
        monkeypatch.setattr(infer, "_encoded", (None, None))
        contexts, encode = [], Model.encode_context

        def recorded(self, *args):
            contexts.append(encode(self, *args))
            return contexts[-1]

        monkeypatch.setattr(Model, "encode_context", recorded)
        b_stored = threading.Event()

        def run_b():
            predict(MODEL, train_b, test_x)
            b_stored.set()

        def in_encode(frame, event, arg):
            if (event == "line" and not b_stored.is_set() and contexts
                    and infer._encoded[1] is contexts[0]):  # A's entry is stored
                b = threading.Thread(target=run_b)
                b.start()
                b.join(10)
            return in_encode

        def trace(frame, event, arg):
            return in_encode if frame.f_code is infer._encode.__code__ else None

        out = []

        def run_a():
            sys.settrace(trace)
            try:
                out.append(predicted(MODEL, train_a, test_x))
            finally:
                sys.settrace(None)

        a = threading.Thread(target=run_a)
        a.start()
        a.join(30)
        assert not a.is_alive()
        assert b_stored.is_set() and len(contexts) == 2
        assert out[0].tobytes() == serial.tobytes()

    def test_many_threads_switching_often_match_serial(self):
        """float32 and float64 models, classification and regression, each
        call with its own context, on more threads than cores."""
        rng = np.random.default_rng(42)
        models = [MODEL, float32_copy(MODEL)]
        jobs = [(models[i % 2], (class_train if i % 3 else regr_train)(rng),
                 rng.standard_normal((7, 3))) for i in range(12)]
        serial = [predicted(*job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                futures = [pool.submit(predicted, *job) for job in jobs]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [t.tobytes() for t in threaded] == [s.tobytes() for s in serial]


class TestThreadedDecode:
    """predict maps its QUERY_CHUNK decode chunks over _idle_cpu_threads
    threads: the bytes do not depend on the worker count, and every thread
    is joined before predict returns."""

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_test", [1, 256, 257, 1100])
    def test_bytes_independent_of_worker_count(self, monkeypatch, task, dtype, n_test):
        model = MODEL if dtype is np.float64 else float32_copy(MODEL)
        rng = np.random.default_rng(30)
        train = class_train(rng, n=40) if task == CLASSIFICATION else regr_train(rng, n=40)
        test_x = rng.standard_normal((n_test, 3))
        outputs = []
        for workers in (1, 2):
            decode_workers(monkeypatch, workers)
            outputs.append(predicted(model, train, test_x))
        assert outputs[0].dtype == np.float64
        assert outputs[0].tobytes() == outputs[1].tobytes()

    def test_bytes_hold_with_more_threads_than_cores_switching_often(self, monkeypatch):
        rng = np.random.default_rng(31)
        train = class_train(rng, n=40)
        test_x = rng.standard_normal((8 * infer.QUERY_CHUNK + 3, 3))
        decode_workers(monkeypatch, 1)
        serial = predicted(MODEL, train, test_x)
        decode_workers(monkeypatch, 9)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = predicted(MODEL, train, test_x)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.tobytes() == serial.tobytes()

    def test_no_thread_outlives_predict(self, monkeypatch):
        decode_workers(monkeypatch, 2)
        rng = np.random.default_rng(32)
        before = threading.active_count()
        predict(MODEL, regr_train(rng), rng.standard_normal((600, 3)))
        assert threading.active_count() == before

    def test_chunk_error_reaches_caller_and_threads_are_joined(self, monkeypatch):
        decode_workers(monkeypatch, 2)
        calls, decode = itertools.count(1), Model.decode

        def second_chunk_fails(self, x, context):
            if next(calls) == 2:
                raise RuntimeError("chunk decode failed")
            return decode(self, x, context)

        monkeypatch.setattr(Model, "decode", second_chunk_fails)
        rng = np.random.default_rng(33)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk decode failed"):
            predict(MODEL, class_train(rng), rng.standard_normal((600, 3)))
        assert threading.active_count() == before

    def test_refused_under_a_recording_tape(self):
        rng = np.random.default_rng(34)
        with T.Tape() as tape:
            with pytest.raises(T.TensorError, match="recording tape"):
                predict(MODEL, class_train(rng), rng.standard_normal((2, 3)))
            assert len(tape) == 0

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)

    @pytest.mark.parametrize("env, workers", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2),
        ({"GOTO_NUM_THREADS": "1"}, 2),
        ({"OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "one"}, 1),
        ({"OPENBLAS_NUM_THREADS": "1.0", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2"}, 1),
    ])
    def test_workers_are_the_cpus_blas_leaves_idle(self, monkeypatch, two_cpus, env, workers):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert infer._idle_cpu_threads(10) == workers

    def test_workers_capped_at_the_chunk_count(self, monkeypatch, two_cpus):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert infer._idle_cpu_threads(1) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert infer._idle_cpu_threads(3) == 3


COLUMN_KINDS = ("numeric", "constant", "categorical", "missing")
MISSING = ("", "NA", "?")


@st.composite
def csv_pair(draw):
    """A training CSV (target first) and a test CSV with ragged rows,
    constant, categorical and entirely missing columns, unseen test
    categories and 1-4 test lines."""
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=4)
                 .filter(lambda ks: any(k != "missing" for k in ks)))
    regression = draw(st.booleans())
    n_train = draw(st.integers(1, 12))
    n_test = draw(st.integers(1, 4))
    number = st.floats(-1e3, 1e3, allow_nan=False).map(repr)

    def cell(kind, test):
        if kind == "constant":
            return "2.5"
        if kind == "missing":
            return draw(st.sampled_from(MISSING))
        token = number if kind == "numeric" else st.sampled_from(
            ("u", "v", "w") + (("unseen",) if test else ()))
        return draw(st.one_of(token, st.sampled_from(MISSING)))

    def row(test):
        cells = [cell(k, test) for k in kinds]
        return cells[:draw(st.integers(0 if test else 1, len(cells)))]

    names = [f"f{j}" for j in range(len(kinds))]
    target = number if regression else st.sampled_from(("a", "b", "c"))
    train = [["y"] + names] + [[draw(target)] + row(False) for _ in range(n_train)]
    test = [names] + [row(True) for _ in range(n_test)]
    return regression, train, test


class TestIngestToPredict:
    @settings(max_examples=60, deadline=None)
    @given(data=csv_pair(), ensemble=st.integers(1, 2), cap=st.sampled_from((3, 3000)))
    def test_one_finite_row_per_test_line(self, data, ensemble, cap):
        regression, train_rows, test_rows = data
        observed = {j for r in train_rows[1:] for j, c in enumerate(r[1:]) if c not in MISSING}
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(infer, "BATCH_CAP", cap):
            paths = [Path(tmp) / "train.csv", Path(tmp) / "test.csv"]
            for path, rows in zip(paths, (train_rows, test_rows)):
                path.write_text("\n".join(",".join(r) for r in rows) + "\n")
            overrides = {"y": "numeric"} if regression else None
            if not observed:  # every feature column entirely missing: refused
                with pytest.raises(ValueError, match="no usable feature columns"):
                    ingest_csv(paths[0], "y", overrides)
                return
            train, schemas = ingest_csv(paths[0], "y", overrides)
            test_x, test_missing = ingest_features_with_schema(paths[1], schemas)
            out = predict(MODEL, train, test_x, test_missing, ensemble=ensemble)
        n_lines = len(test_rows) - 1
        if regression:
            assert out.mu.shape == (n_lines,) and np.isfinite(out.mu).all()
        else:
            assert out.probs.shape == (n_lines, out.classes.size)
            assert np.isfinite(out.probs).all()
            np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-6)
