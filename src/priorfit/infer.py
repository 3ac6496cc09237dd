"""Zero-shot prediction on real datasets.

A prediction is one forward pass per training batch and ensemble member,
with no parameter update (enforced with a checksum around `predict`, the one
entry point). Both splits are normalized with statistics of the observed
training cells only (`normalize_train_test`), so nothing leaks backward; a
missing cell is True in its split's bool mask (`prior.checked_mask`).
`predict` composes, in this order:

1. features above FEATURE_BUDGET are uniformly subsampled, the same columns
   on both splits (`subsample_features` draws the column indices);
2. the training rows are split into contiguous batches of at most BATCH_CAP
   over a seeded shuffle (`batch_rows` draws the row indices; one batch
   keeps the rows as given);
3. each of `ensemble` members predicts every batch under its own feature
   permutation (the first member keeps the identity order);
4. a member's batches combine: class probabilities mix in proportion to
   batch size, Gaussian batches through the inverse-variance estimator;
5. the members combine: class probabilities average, Gaussians moment-match.

Steps 1-3 each select with their own `Dataset.take` (columns, then rows,
then the permutation; the test arrays likewise). The order is part of the
numerics: a numpy column selection is Fortran-ordered, and the column means
of the two layouts can differ in the last bit.

Test rows attend only to training rows, so the pass runs in two phases that
together equal the joint masked pass: the training context is encoded once
(`Model.encode_context`), then test rows are decoded against it QUERY_CHUNK
rows at a time, so decode attention memory is O(QUERY_CHUNK x n_train).
Each block's attention (`tensor.attention`) holds one scores buffer, which
the scale, max-shift, exp and normalization overwrite in place, so the
encode peaks at one heads x n_train x n_train buffer. The last encoded
context stays in a one-entry cache keyed by the model checksum, the model
config, the default dtype and a blake2b digest of the normalized training
block and its label values with their shapes and dtypes. Its `kv` holds each
block's head-split key and value arrays, written once by the encode:
n_blocks x 2 x n_train x d_model floats (plus the two mixture key
projections of the training states, 2 x n_train x d_model).

The decode chunks fan out over `_map_on_idle_cpus`, on as many threads as
the usable CPUs the BLAS library leaves idle (`_idle_cpu_threads`: CPUs //
BLAS threads, at most one per chunk), and are concatenated in chunk order.
With BLAS threads not pinned, OpenBLAS takes every CPU and the decode stays
serial. The output bytes do not depend on the worker count: each chunk runs
the same ops on the same rows as in the serial loop, the context is encoded
before the fan-out and only read by the chunks, each attention call
softmaxes in its own scores buffer, and each chunk enters the model's dtype
scope itself, since a dtype scope is per thread (`tensor.dtype_scope`).
`predict` refuses to run under a recording tape, which the threads would
share. The pool is joined before `predict` returns, also when a chunk raises.

`predict` may run on several threads at once (`evaluate` scores its splits
so): it holds no process-global state but the context cache, and `_encode`
returns the entry it found or built, never one another thread stored since.
Two threads that miss the cache encode at the same time, so two contexts can
be in memory at once.

The forward pass runs at the model's parameter dtype (`Model.dtype`): the
encode and decode run with it as the default dtype, so inputs, padding, gate
masks, scalar constants and the cache key follow the checkpoint and a
float32 checkpoint runs float32 GEMMs. Subsetting, normalization and label
scaling before the pass and the combination of batches and members after it
stay float64, and so do the predictions. In float64 the result equals the
joint masked pass within 1e-12.
"""

from __future__ import annotations

import hashlib
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .model import EncodedContext, Model, Prediction, SIGMA_FLOOR
from .prior import CLASSIFICATION, REGRESSION, Dataset, checked_mask
from .seeding import NS_EVAL, derive_rng

log = logging.getLogger(__name__)

FEATURE_BUDGET = 100
BATCH_CAP = 3000
QUERY_CHUNK = 256


class ZeroUpdateViolation(RuntimeError):
    pass


def batch_rows(n: int, rng: np.random.Generator) -> list:
    """The training rows of each batch: contiguous runs of at most BATCH_CAP
    over a shuffle drawn from rng. A single batch is [None], all rows in the
    given order, and draws nothing from rng."""
    if n < 1:
        raise ValueError("cannot batch zero training rows")
    if n <= BATCH_CAP:
        return [None]
    order = rng.permutation(n)
    return [order[s:s + BATCH_CAP] for s in range(0, n, BATCH_CAP)]


def subsample_features(d: int, rng: Optional[np.random.Generator] = None
                       ) -> np.ndarray:
    """Sorted indices of FEATURE_BUDGET of the d columns, drawn uniformly
    without replacement; all columns when d is within budget."""
    if d <= FEATURE_BUDGET:
        return np.arange(d)
    if rng is None:
        raise ValueError("subsampling above the budget needs a seeded generator")
    return np.sort(rng.choice(d, size=FEATURE_BUDGET, replace=False))


def normalize_train_test(train_x: np.ndarray, test_x: np.ndarray,
                         train_missing: np.ndarray, test_missing: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Z-score and clip both splits with the observed training cells' mean and
    spread; every missing cell, and a column whose observed training cells
    are all equal (its float std can be a rounding residue above 0), become 0."""
    masked = np.where(train_missing, np.nan, train_x)
    masked[:, train_missing.all(axis=0)] = 0.0  # no observed cell: mean 0, no spread
    mu, sd = np.nanmean(masked, axis=0), np.nanstd(masked, axis=0)
    spread = (np.nanmax(masked, axis=0) > np.nanmin(masked, axis=0)) & (sd > 0)
    safe = np.where(spread, sd, 1.0)
    def scaled(x, missing):
        z = np.where(spread, np.clip((x - mu) / safe, -4.0, 4.0), 0.0)
        return np.nan_to_num(np.where(missing, 0.0, z))
    return scaled(train_x, train_missing), scaled(test_x, test_missing)


_encoded: tuple = (None, None)  # (key, EncodedContext) of the last encode


def _encode(model: Model, checksum: int, train_xn: np.ndarray,
            y_train: np.ndarray) -> EncodedContext:
    """The encoded training context, from the one-entry cache on a key hit.
    The entry is read once and returned from a local, so a thread gets the
    context it found or built even when another thread replaces the entry."""
    global _encoded
    digest = hashlib.blake2b(digest_size=32)
    for a in (train_xn, y_train):
        digest.update(f"{a.shape}{a.dtype.str}".encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    key = (checksum, model.cfg, np.dtype(T.default_dtype()).str, digest.digest())
    entry = _encoded
    if entry[0] != key:
        _encoded = entry = (None, None)  # free the old entry before encoding
        _encoded = entry = (key, model.encode_context(Tensor(train_xn[None]),
                                                      Tensor(y_train[None])))
    return entry[1]


def _idle_cpu_threads(n_tasks: int) -> int:
    """Threads that run n_tasks independent tasks: the usable CPUs the BLAS
    library leaves idle, at most one per task and at least one. BLAS threads
    are read as OpenBLAS reads them at load, from the first of these variables
    that holds a positive integer; with none, BLAS takes every usable CPU."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    blas = cpus
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:  # unset, or not an integer
            continue
        if threads > 0:
            blas = threads
            break
    return max(1, min(n_tasks, cpus // blas))


def _map_on_idle_cpus(fn, items) -> list:
    """[fn(item) for item in items], on _idle_cpu_threads threads; serial on
    the calling thread when that is one. Every thread is joined before the
    call returns, also when fn raises; then the items not yet started are
    dropped."""
    workers = _idle_cpu_threads(len(items))
    if workers == 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(workers) as pool:
        try:
            return list(pool.map(fn, items))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _forward_prediction(model: Model, train: Dataset, test_x: np.ndarray,
                        test_missing: np.ndarray, checksum: int
                        ) -> Prediction:
    """Encode the training context (or take it from the cache; checksum is
    the caller's model checksum), then decode the test rows in chunks at the
    model's dtype. Normalization runs before, in float64, and head outputs
    leave the pass as float64."""
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

    dtype = model.dtype
    with T.dtype_scope(dtype):
        context = _encode(model, checksum, train_xn, y_train)

        def decoded(head) -> list:  # head outputs, QUERY_CHUNK test rows at a time
            def chunk(s):
                with T.dtype_scope(dtype):  # a decode thread starts at float64
                    return head(model.decode(Tensor(test_xn[None, s:s + QUERY_CHUNK]),
                                             context))
            return _map_on_idle_cpus(chunk, range(0, max(test_xn.shape[0], 1), QUERY_CHUNK))

        if train.task == CLASSIFICATION:
            probs = decoded(lambda h: model.class_head(
                h, context.mixture_keys, train01[None], classes.size).data[0])
            return Prediction(task=CLASSIFICATION, classes=classes,
                              probs=np.concatenate(probs, dtype=np.float64))
        parts = decoded(lambda h: [t.data[0] for t in model.gaussian_head(h)])
    mu, sigma = (np.concatenate(p, dtype=np.float64) for p in zip(*parts))
    return Prediction(task=REGRESSION, mu=mu * scale + y_mu, sigma=sigma * scale)


def _combine_batches(parts: list[Prediction], batches: list[Dataset]
                     ) -> Prediction:
    """One member's prediction from its per-batch predictions: class
    distributions mix in proportion to batch size; Gaussians combine by
    inverse variance, sigma = (sum of sigma^-2)^-1/2."""
    if len(parts) == 1:
        return parts[0]
    if parts[0].task == CLASSIFICATION:
        classes = np.unique(np.concatenate([p.classes for p in parts]))
        mixed = np.zeros((parts[0].probs.shape[0], classes.size))
        sizes = np.array([b.n for b in batches], dtype=np.float64)
        for part, w in zip(parts, sizes / sizes.sum()):
            mixed[:, np.searchsorted(classes, part.classes)] += w * part.probs
        return Prediction(task=CLASSIFICATION, probs=mixed, classes=classes)
    mu = np.stack([p.mu for p in parts])
    sigma = np.stack([p.sigma for p in parts])
    inv_var = 1.0 / sigma ** 2
    share = inv_var / inv_var.sum(axis=0)
    floors = [SIGMA_FLOOR * (sd if sd > 0 else 1.0)
              for sd in (b.y_values.data.std() for b in batches)]
    at_floor = sigma <= np.asarray(floors)[:, None] * (1 + 1e-9)
    floor_share = np.where(at_floor, share, 0.0).sum(axis=0)
    if np.any(floor_share > 0.99):
        log.warning("inverse-variance aggregation dominated by floored "
                    "sigmas on %d test rows", int((floor_share > 0.99).sum()))
    return Prediction(task=REGRESSION, mu=(share * mu).sum(axis=0),
                      sigma=1.0 / np.sqrt(inv_var.sum(axis=0)))


def _combine_members(members: list[Prediction]) -> Prediction:
    """Average the ensemble members; Gaussian members combine by moment
    matching."""
    if len(members) == 1:
        return members[0]
    if members[0].task == CLASSIFICATION:
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


def predict(model: Model, train: Dataset, test_x: np.ndarray,
            test_missing: Optional[np.ndarray] = None, ensemble: int = 1,
            seed: int = 0) -> Prediction:
    """Zero-shot prediction of the test rows from the training rows.

    Features above FEATURE_BUDGET are subsampled (the same columns on both
    splits), the training rows are split into batches of at most BATCH_CAP,
    and each of `ensemble` members predicts every batch under its own column
    order (the first member keeps the identity). Each member's batches are
    combined, then the members. All draws derive from `seed`. A non-finite
    cell that its split's mask does not mark missing is refused."""
    if ensemble < 1:
        raise ValueError("ensemble needs at least one member")
    if T._ACTIVE_TAPE is not None:  # decode threads would record into it in no fixed order
        raise T.TensorError("predict refused under a recording tape")
    if test_x.shape[1] != train.d:
        raise ValueError(f"test rows have {test_x.shape[1]} features, "
                         f"training rows have {train.d}")
    test_missing = checked_mask(test_missing, test_x.shape, "test_missing")
    for split, x, missing in (("training", train.X.data, train.missing_mask),
                              ("test", test_x, test_missing)):
        if bad := int((~np.isfinite(x) & ~missing).sum()):
            raise ValueError(f"{split} rows have {bad} non-finite cells not marked missing")

    def columns(a, cols):  # a test array under the same column selection
        return a if cols is None else a[:, cols]

    if train.d > FEATURE_BUDGET:
        idx = subsample_features(train.d, derive_rng(seed, NS_EVAL, 3))
        train = train.take(cols=idx)
        test_x, test_missing = columns(test_x, idx), columns(test_missing, idx)
    batches = [train.take(rows)
               for rows in batch_rows(train.n, derive_rng(seed, NS_EVAL, 2))]
    permutations = derive_rng(seed, NS_EVAL, 1)
    orders = [None] + [permutations.permutation(train.d) for _ in range(ensemble - 1)]

    checksum = model.checksum()

    def member(cols) -> Prediction:
        x, missing = columns(test_x, cols), columns(test_missing, cols)
        return _combine_batches(
            [_forward_prediction(model, b.take(cols=cols), x, missing, checksum)
             for b in batches], batches)

    out = _combine_members([member(cols) for cols in orders])
    if model.checksum() != checksum:
        raise ZeroUpdateViolation("model parameters changed during prediction")
    return out
