"""Zero-shot prediction on real datasets.

A prediction is one forward pass with no parameter update (enforced with a
checksum around every entry point). Test rows are normalized with statistics
from the training rows only, so nothing leaks backward. Large training sets
are handled by batch aggregation: class probabilities mix in proportion to
batch size, regression batches combine through the inverse-variance
estimator. Wide datasets get a uniform feature subsample shared between
train and test, and predictions can be averaged over feature permutations.

Test rows attend only to training rows, so the pass runs in two phases that
together equal the joint masked pass: the training context is encoded once
(`Model.encode_context`), then test rows are decoded against it QUERY_CHUNK
rows at a time, so attention memory is O(QUERY_CHUNK x n_train). The last
encoded context stays in a one-entry cache keyed by the model checksum, the
model config, the default dtype and a blake2b digest of the normalized
training block and its label values with their shapes and dtypes. It holds
n_blocks x 2 x n_train x d_model floats of keys and values (plus the final
training states and the two mixture key projections, 3 x n_train x d_model).
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .model import EncodedContext, Model, Prediction, SIGMA_FLOOR
from .prior import CLASSIFICATION, REGRESSION, Dataset

log = logging.getLogger(__name__)

FEATURE_BUDGET = 100
BATCH_CAP = 3000
QUERY_CHUNK = 256


class ZeroUpdateViolation(RuntimeError):
    pass


@dataclass
class BatchPlan:
    """Contiguous batches over a seeded shuffle of the training rows, with
    weights proportional to batch size."""

    order: np.ndarray
    ranges: list[tuple[int, int]]
    weights: np.ndarray

    @classmethod
    def build(cls, n_train: int, cap: int = BATCH_CAP,
              rng: Optional[np.random.Generator] = None) -> "BatchPlan":
        if n_train < 1:
            raise ValueError("cannot plan batches over zero training rows")
        order = np.arange(n_train) if rng is None else rng.permutation(n_train)
        ranges = [(s, min(s + cap, n_train)) for s in range(0, n_train, cap)]
        sizes = np.array([e - s for s, e in ranges], dtype=np.float64)
        return cls(order=order, ranges=ranges, weights=sizes / sizes.sum())


def subsample_features(x: np.ndarray, budget: int = FEATURE_BUDGET,
                       rng: Optional[np.random.Generator] = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Uniform feature selection without replacement; identity when the
    feature count is within budget. Returns (matrix, selected indices) so the
    same selection can be applied to the other split."""
    d = x.shape[1]
    if d <= budget:
        return x, np.arange(d)
    if rng is None:
        raise ValueError("subsampling above the budget needs a seeded generator")
    idx = np.sort(rng.choice(d, size=budget, replace=False))
    return x[:, idx], idx


def _column_stats(x: np.ndarray, missing: Optional[np.ndarray]):
    if missing is None:
        mu = x.mean(axis=0)
        sd = x.std(axis=0)
        return mu, sd
    masked = np.where(missing, np.nan, x)
    with np.errstate(invalid="ignore"):
        mu = np.nanmean(masked, axis=0)
        sd = np.nanstd(masked, axis=0)
    return np.nan_to_num(mu), np.nan_to_num(sd)


def _apply_stats(x: np.ndarray, missing: Optional[np.ndarray],
                 mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    safe = np.where(sd > 0, sd, 1.0)
    z = np.clip((x - mu) / safe, -4.0, 4.0)
    z = np.where(sd > 0, z, 0.0)
    if missing is not None:
        z = np.where(missing, 0.0, z)
    return np.nan_to_num(z)


def normalize_train_test(train_x: np.ndarray, test_x: np.ndarray,
                         train_missing: Optional[np.ndarray] = None,
                         test_missing: Optional[np.ndarray] = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Z-score and clip both splits using training-row statistics only;
    missing cells are imputed to zero after normalization."""
    mu, sd = _column_stats(train_x, train_missing)
    return (_apply_stats(train_x, train_missing, mu, sd),
            _apply_stats(test_x, test_missing, mu, sd))


def _maybe_subsample(train: Dataset, test_x: np.ndarray,
                     test_missing: Optional[np.ndarray], budget: int,
                     rng: Optional[np.random.Generator]):
    if train.d <= budget:
        return train, test_x, test_missing
    _, idx = subsample_features(train.X.data, budget, rng)
    return (_take_columns(train, idx), test_x[:, idx],
            None if test_missing is None else test_missing[:, idx])


_encoded: tuple = (None, None)  # (key, EncodedContext) of the last encode


def _encode(model: Model, checksum: int, train_xn: np.ndarray,
            y_train: np.ndarray) -> EncodedContext:
    """The encoded training context, from the one-entry cache on a key hit."""
    global _encoded
    digest = hashlib.blake2b(digest_size=32)
    for a in (train_xn, y_train):
        digest.update(f"{a.shape}{a.dtype.str}".encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    key = (checksum, model.cfg, np.dtype(T.default_dtype()).str, digest.digest())
    if _encoded[0] != key:
        _encoded = (None, None)  # free the old entry before encoding
        _encoded = (key, model.encode_context(Tensor(train_xn[None]),
                                              Tensor(y_train[None])))
    return _encoded[1]


def _forward_prediction(model: Model, train: Dataset, test_x: np.ndarray,
                        test_missing: Optional[np.ndarray], checksum: int
                        ) -> Prediction:
    """Encode the training context (or take it from the cache; checksum is
    the caller's model checksum), then decode the test rows in chunks."""
    if train.n < 1:
        raise ValueError("prediction needs at least one training row")
    if test_x.shape[1] != train.d:
        raise ValueError(f"test rows have {test_x.shape[1]} features, "
                         f"training rows have {train.d}")
    train_xn, test_xn = normalize_train_test(
        train.X.data, test_x, train.missing_mask, test_missing)

    if train.task == CLASSIFICATION:
        classes, train01 = np.unique(train.y_labels, return_inverse=True)
        y_train = train01.astype(np.float64)
    else:
        y_raw = train.y_values.data
        y_mu, y_sd = y_raw.mean(), y_raw.std()
        scale = y_sd if y_sd > 0 else 1.0
        y_train = np.clip((y_raw - y_mu) / scale, -4.0, 4.0)
    context = _encode(model, checksum, train_xn, y_train)

    def decoded(head) -> list:  # head outputs, QUERY_CHUNK test rows at a time
        return [head(model.decode(Tensor(test_xn[None, s:s + QUERY_CHUNK]), context))
                for s in range(0, max(test_xn.shape[0], 1), QUERY_CHUNK)]

    if train.task == CLASSIFICATION:
        probs = decoded(lambda h: model.class_head(
            h, 0, train01[None], classes.size, keys=context.mixture_keys).data[0])
        return Prediction(task=CLASSIFICATION, probs=np.concatenate(probs),
                          classes=classes)
    parts = decoded(lambda h: [t.data[0] for t in model.gaussian_head(h, 0)])
    mu, sigma = (np.concatenate(p) for p in zip(*parts))
    return Prediction(task=REGRESSION, mu=mu * scale + y_mu, sigma=sigma * scale)


def _checked(model: Model, fn):
    """Run fn(checksum) and refuse if the parameters moved meanwhile."""
    before = model.checksum()
    out = fn(before)
    if model.checksum() != before:
        raise ZeroUpdateViolation("model parameters changed during prediction")
    return out


def predict(model: Model, train: Dataset, test_x: np.ndarray,
            test_missing: Optional[np.ndarray] = None,
            feature_budget: int = FEATURE_BUDGET,
            feature_rng: Optional[np.random.Generator] = None) -> Prediction:
    """Single forward pass over the full training context. Feature counts
    above the budget are uniformly subsampled, the same columns on both
    splits."""
    train, test_x, test_missing = _maybe_subsample(
        train, test_x, test_missing, feature_budget, feature_rng)
    return _checked(model, lambda checksum: _forward_prediction(
        model, train, test_x, test_missing, checksum))


def _take_columns(ds: Dataset, cols: np.ndarray) -> Dataset:
    return Dataset(
        X=Tensor(ds.X.data[:, cols]), y_values=ds.y_values, y_labels=ds.y_labels,
        cat_mask=ds.cat_mask[cols], task=ds.task, n_classes=ds.n_classes,
        missing_mask=None if ds.missing_mask is None else ds.missing_mask[:, cols])


def _take_rows(ds: Dataset, rows: np.ndarray) -> Dataset:
    return Dataset(
        X=Tensor(ds.X.data[rows]),
        y_values=Tensor(ds.y_values.data[rows]),
        y_labels=None if ds.y_labels is None else ds.y_labels[rows],
        cat_mask=ds.cat_mask, task=ds.task, n_classes=ds.n_classes,
        missing_mask=None if ds.missing_mask is None else ds.missing_mask[rows])


def aggregate_classification(model: Model, train: Dataset, test_x: np.ndarray,
                             plan: Optional[BatchPlan] = None,
                             test_missing: Optional[np.ndarray] = None
                             ) -> Prediction:
    """Mix per-batch class distributions with weights proportional to batch
    size. A single-batch plan reduces to plain prediction."""
    def run(checksum):
        p = plan or BatchPlan.build(train.n)
        classes = np.unique(train.y_labels)
        lookup = {c: i for i, c in enumerate(classes)}
        mixed = np.zeros((test_x.shape[0], classes.size))
        for (s, e), w in zip(p.ranges, p.weights):
            part = _forward_prediction(model, _take_rows(train, p.order[s:e]),
                                       test_x, test_missing, checksum)
            for j, c in enumerate(part.classes):
                mixed[:, lookup[c]] += w * part.probs[:, j]
        return Prediction(task=CLASSIFICATION, probs=mixed, classes=classes)

    return _checked(model, run)


def aggregate_regression(model: Model, train: Dataset, test_x: np.ndarray,
                         plan: Optional[BatchPlan] = None,
                         test_missing: Optional[np.ndarray] = None
                         ) -> np.ndarray:
    """Inverse-variance point estimate across batches."""
    def run(checksum):
        p = plan or BatchPlan.build(train.n)
        mus, sigmas, floors = [], [], []
        for s, e in p.ranges:
            sub = _take_rows(train, p.order[s:e])
            part = _forward_prediction(model, sub, test_x, test_missing, checksum)
            y_sd = sub.y_values.data.std()
            floors.append(SIGMA_FLOOR * (y_sd if y_sd > 0 else 1.0))
            mus.append(part.mu)
            sigmas.append(part.sigma)
        mu = np.stack(mus)
        sigma = np.stack(sigmas)
        inv_var = 1.0 / sigma ** 2
        weights = inv_var / inv_var.sum(axis=0)
        at_floor = sigma <= np.asarray(floors)[:, None] * (1 + 1e-9)
        floor_weight = np.where(at_floor, weights, 0.0).sum(axis=0)
        if np.any(floor_weight > 0.99):
            log.warning("inverse-variance aggregation dominated by floored "
                        "sigmas on %d test rows", int((floor_weight > 0.99).sum()))
        return (weights * mu).sum(axis=0)

    return _checked(model, run)


def permutation_ensemble(model: Model, train: Dataset, test_x: np.ndarray,
                         k: int, rng: np.random.Generator,
                         test_missing: Optional[np.ndarray] = None) -> Prediction:
    """Average predictions over k feature-column permutations (the first
    member is the identity). Gaussian members combine by moment matching."""
    if k < 1:
        raise ValueError("ensemble needs at least one member")

    def run(checksum):
        d = train.d
        members = [_forward_prediction(model, train, test_x, test_missing, checksum)]
        for _ in range(k - 1):
            cols = rng.permutation(d)
            members.append(_forward_prediction(
                model, _take_columns(train, cols), test_x[:, cols],
                None if test_missing is None else test_missing[:, cols], checksum))
        if train.task == CLASSIFICATION:
            stackp = np.stack([m.probs for m in members])
            return Prediction(task=CLASSIFICATION, probs=stackp.mean(axis=0),
                              classes=members[0].classes,
                              member_variance=float(stackp.var(axis=0).mean()))
        mus = np.stack([m.mu for m in members])
        sigmas = np.stack([m.sigma for m in members])
        mu = mus.mean(axis=0)
        second = (sigmas ** 2 + mus ** 2).mean(axis=0)
        return Prediction(task=REGRESSION, mu=mu,
                          sigma=np.sqrt(np.maximum(second - mu ** 2, SIGMA_FLOOR ** 2)),
                          member_variance=float(mus.var(axis=0).mean()))

    return _checked(model, run)
