"""Synthetic data generators: sparsified noisy random MLPs read out at
randomly selected neurons, with rank-based discretization of a subset of
columns and per-dataset normalization.

Generation runs through tensor ops so the same code path serves ordinary
generators (constants, nothing recorded) and adversarial agents (weights
require grad, generation recorded on the active tape). Discretization of a
column comes in two flavors:

* hard: the value's position among the column's unnormalized quantiles,
  sent through the spec's category permutation. Integer output.
* soft: the same base category plus a temperature-scaled log interpolation
  between the bracketing quantiles, differentiable w.r.t. the column
  everywhere except at quantile crossings.

Positions are counted on standardized values, which is equivalent to
counting against unnormalized quantiles when the column has spread and
degrades gracefully (count of quantile draws at or below zero) when it
does not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor

CLASSIFICATION = "classification"
REGRESSION = "regression"

_RETRY_CAP = 16
_STD_GUARD = 1e-12
_RATIO_GUARD = 1e-12


def _check_range(name, lo, hi, minimum=None):
    if lo > hi:
        raise ValueError(f"{name}: empty range ({lo}, {hi})")
    if minimum is not None and lo < minimum:
        raise ValueError(f"{name}: lower bound {lo} below minimum {minimum}")


@dataclass(frozen=True)
class GeneratorHyperSpace:
    """Distributions that a fresh generator instance is drawn from."""

    layer_count: tuple[int, int] = (2, 4)
    hidden_width: tuple[int, int] = (8, 24)
    activations: tuple[str, ...] = ("tanh", "relu", "gelu")
    dropout: tuple[float, float] = (0.0, 0.5)
    noise_scale: tuple[float, float] = (0.0, 0.2)
    feature_count: tuple[int, int] = (2, 6)
    class_count: tuple[int, int] = (2, 4)
    categorical_fraction: tuple[float, float] = (0.0, 0.3)
    cardinality: tuple[int, int] = (2, 6)
    classification_prob: float = 1.0

    def __post_init__(self):
        _check_range("layer_count", *self.layer_count, minimum=1)
        _check_range("hidden_width", *self.hidden_width, minimum=1)
        _check_range("feature_count", *self.feature_count, minimum=1)
        _check_range("class_count", *self.class_count, minimum=2)
        _check_range("cardinality", *self.cardinality, minimum=2)
        _check_range("dropout", *self.dropout)
        _check_range("noise_scale", *self.noise_scale, minimum=0.0)
        _check_range("categorical_fraction", *self.categorical_fraction, minimum=0.0)
        if self.categorical_fraction[1] > 1.0:
            raise ValueError("categorical_fraction must lie in [0, 1]")
        if not self.activations:
            raise ValueError("activations: empty choice set")
        if not (0.0 <= self.dropout[0] and self.dropout[1] < 1.0):
            raise ValueError("dropout probability must lie in [0, 1)")
        if not 0.0 <= self.classification_prob <= 1.0:
            raise ValueError("classification_prob must lie in [0, 1]")


@dataclass
class DiscretizerSpec:
    """Quantile thresholds, category permutation, and temperature for one column.

    `quantiles` are cardinality-1 sorted standard-normal draws, frozen when the
    owning generator is created. `perm` maps position p in 1..cardinality to
    the category value perm[p-1], itself in 1..cardinality.
    """

    cardinality: int
    quantiles: np.ndarray
    perm: np.ndarray
    temperature: float = 0.0

    def __post_init__(self):
        if self.cardinality < 2:
            raise ValueError("cardinality must be at least 2")
        q = np.asarray(self.quantiles, dtype=np.float64)
        if q.shape != (self.cardinality - 1,) or not np.all(np.diff(q) > 0):
            raise ValueError("quantiles must be strictly increasing, one fewer than cardinality")
        p = np.asarray(self.perm, dtype=np.intp)
        if sorted(p.tolist()) != list(range(1, self.cardinality + 1)):
            raise ValueError("perm must be a bijection on 1..cardinality")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        object.__setattr__(self, "quantiles", q)
        object.__setattr__(self, "perm", p)


@dataclass
class GeneratorInstance:
    """One frozen data-generating mechanism: a sparsified noisy MLP plus the
    neuron selections and discretizer specs read out of it."""

    weights: list[Tensor]
    biases: list[Tensor]
    masks: list[np.ndarray]
    activation: str
    noise_scales: list[float]
    width: int
    predictor_neurons: np.ndarray
    response_neuron: int
    feature_specs: dict[int, DiscretizerSpec]
    response_spec: Optional[DiscretizerSpec]
    task: str
    n_classes: Optional[int]
    seed: int = 0

    @property
    def feature_count(self) -> int:
        return len(self.predictor_neurons)

    def parameters(self) -> list[Tensor]:
        return list(self.weights) + list(self.biases)

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.parameters():
            p.requires_grad = flag

    def set_temperature(self, tau: float) -> None:
        for spec in self.feature_specs.values():
            spec.temperature = tau
        if self.response_spec is not None:
            self.response_spec.temperature = tau


def checked_mask(mask, shape: tuple, name: str) -> np.ndarray:
    """A missing-cell mask: bool, shaped like its feature block, all False
    when None. Any other dtype or shape is refused."""
    mask = np.zeros(shape, dtype=bool) if mask is None else np.asarray(mask)
    if mask.dtype != np.bool_ or mask.shape != shape:
        raise ValueError(f"{name} must be bool of shape {shape}, got {mask.dtype} {mask.shape}")
    return mask


@dataclass
class Dataset:
    """Predictor matrix plus response, the unit generators emit and the
    model consumes.

    y_values is what the label embedding sees (class index as float, possibly
    carrying the soft-discretization offset; z-scored target for regression).
    y_labels holds integer class labels for classification, None otherwise.
    missing_mask is True where a cell of X is missing (see checked_mask).
    """

    X: Tensor
    y_values: Tensor
    y_labels: Optional[np.ndarray]
    cat_mask: np.ndarray
    task: str
    n_classes: Optional[int] = None
    missing_mask: np.ndarray = None  # None builds the all-False default

    def __post_init__(self):
        self.missing_mask = checked_mask(self.missing_mask, self.X.shape, "missing_mask")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def take(self, rows=None, cols=None) -> "Dataset":
        """The rows, then the columns, named by two index arrays (None keeps
        all, without indexing), as fresh Tensors with no gradient. The masks
        and labels follow their rows and columns."""
        x, y = self.X.data, self.y_values.data
        labels, cat, missing = self.y_labels, self.cat_mask, self.missing_mask
        if rows is not None:
            x, y, missing = x[rows], y[rows], missing[rows]
            labels = None if labels is None else labels[rows]
        if cols is not None:
            x, cat, missing = x[:, cols], cat[cols], missing[:, cols]
        return replace(self, X=Tensor(x), y_values=Tensor(y), y_labels=labels,
                       cat_mask=cat, missing_mask=missing)


_ACTIVATIONS = {"tanh": T.tanh, "relu": T.relu, "gelu": T.gelu}


def sample_generator(space: GeneratorHyperSpace, seed: int) -> GeneratorInstance:
    """Draw a fresh generator instance; a pure function of (space, seed)."""
    rng = np.random.default_rng(seed)
    layers = int(rng.integers(space.layer_count[0], space.layer_count[1] + 1))
    width = int(rng.integers(space.hidden_width[0], space.hidden_width[1] + 1))
    activation = str(rng.choice(list(space.activations)))
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation '{activation}'")
    dropout = float(rng.uniform(*space.dropout))
    noise_scales = [float(rng.uniform(*space.noise_scale)) for _ in range(layers)]

    # neurons available for selection: response comes from the last layer,
    # predictors from the layers before it (same layer when depth is 1)
    pred_layers = list(range(layers - 1)) if layers > 1 else [0]
    pool = np.concatenate([np.arange(k * width, (k + 1) * width) for k in pred_layers])
    d_hi = min(space.feature_count[1], pool.size)
    if d_hi < space.feature_count[0]:
        raise ValueError(
            f"hyperspace too narrow: {pool.size} selectable neurons cannot host "
            f"{space.feature_count[0]} predictors")
    d_k = int(rng.integers(space.feature_count[0], d_hi + 1))

    task = CLASSIFICATION if rng.uniform() < space.classification_prob else REGRESSION
    n_classes = int(rng.integers(space.class_count[0], space.class_count[1] + 1)) \
        if task == CLASSIFICATION else None
    frac_cat = float(rng.uniform(*space.categorical_fraction))
    n_cat = int(round(frac_cat * d_k))

    def draw_spec(cardinality: int) -> DiscretizerSpec:
        q = np.sort(rng.standard_normal(cardinality - 1))
        while np.any(np.diff(q) <= 0):  # ties are measure-zero but guard anyway
            q = np.sort(rng.standard_normal(cardinality - 1))
        perm = rng.permutation(cardinality) + 1
        return DiscretizerSpec(cardinality, q, perm)

    feature_specs: dict[int, DiscretizerSpec] = {}
    cat_cols = rng.choice(d_k, size=n_cat, replace=False) if n_cat else np.array([], dtype=int)
    for col in sorted(int(c) for c in cat_cols):
        card = int(rng.integers(space.cardinality[0], space.cardinality[1] + 1))
        feature_specs[col] = draw_spec(card)
    response_spec = draw_spec(n_classes) if task == CLASSIFICATION else None

    weights, biases, masks = [], [], []
    for _ in range(layers):
        w = rng.standard_normal((width, width)) / np.sqrt(width)
        b = rng.standard_normal(width) * 0.1
        m = (rng.uniform(size=(width, width)) >= dropout).astype(np.float64)
        weights.append(Tensor(w))
        biases.append(Tensor(b))
        masks.append(m)

    predictors = rng.choice(pool, size=d_k, replace=False)
    last = np.arange((layers - 1) * width, layers * width)
    resp_pool = np.setdiff1d(last, predictors)
    response = int(rng.choice(resp_pool))

    return GeneratorInstance(
        weights=weights, biases=biases, masks=masks, activation=activation,
        noise_scales=noise_scales, width=width,
        predictor_neurons=np.sort(predictors), response_neuron=response,
        feature_specs=feature_specs, response_spec=response_spec,
        task=task, n_classes=n_classes, seed=seed)


def _mlp_readout(g: GeneratorInstance, inputs: np.ndarray,
                 noise: list[np.ndarray]) -> tuple[Tensor, Tensor]:
    """Run the MLP and gather the selected neurons as (X_raw, y_raw)."""
    act = _ACTIVATIONS[g.activation]
    z = Tensor(inputs)
    layer_outs = []
    for w, b, m, scale, eps in zip(g.weights, g.biases, g.masks, g.noise_scales, noise):
        z = act(T.add(T.matmul(z, T.mul(w, Tensor(m))), b))
        if scale > 0:
            z = T.add(z, Tensor(scale * eps))
        layer_outs.append(z)
    neurons = T.concat(layer_outs, axis=1)
    x_raw = T.take(neurons, g.predictor_neurons, axis=1)
    y_raw = T.reshape(T.take(neurons, np.array([g.response_neuron]), axis=1), (-1,))
    return x_raw, y_raw


def _positions(col: np.ndarray, spec: DiscretizerSpec) -> np.ndarray:
    """Position of each value among the spec's quantiles, in 1..cardinality."""
    mu = col.mean()
    sd = col.std()
    standardized = np.zeros_like(col) if sd == 0 else (col - mu) / sd
    return 1 + (standardized[:, None] >= spec.quantiles[None, :]).sum(axis=1)


def hard_discretize(col: np.ndarray, spec: DiscretizerSpec) -> np.ndarray:
    """Rank each value among the quantiles and permute; categories in 1..cardinality."""
    col = np.asarray(col, dtype=np.float64)
    if not np.isfinite(col).all():
        raise ValueError("hard_discretize: column contains non-finite values")
    return spec.perm[_positions(col, spec) - 1]


def soft_discretize(col: Tensor, spec: DiscretizerSpec) -> Tensor:
    """Differentiable discretization: base category plus a temperature-scaled
    log interpolation between the bracketing unnormalized quantiles.

    At temperature zero the output equals hard_discretize exactly. The
    interpolation ratio lies in [0, 1], so the perturbation never exceeds
    temperature * log(2). Equal brackets (zero-spread columns) are guarded
    with a small epsilon in the denominator.
    """
    if spec.temperature < 0:
        raise ValueError("temperature must be non-negative")
    pos = _positions(col.data, spec)
    base = spec.perm[pos - 1].astype(np.float64)

    mu = T.mean(col)
    sd = T.sqrt(T.add(T.variance(col), _STD_GUARD))
    q_tilde = T.add(mu, T.mul(sd, Tensor(spec.quantiles)))
    brackets = T.concat([
        T.reshape(T.min_(col), (1,)),
        q_tilde,
        T.reshape(T.max_(col), (1,)),
    ], axis=0)
    lower = T.take(brackets, pos - 1, axis=0)
    upper = T.take(brackets, pos, axis=0)
    ratio = T.div(T.sub(col, lower), T.add(T.sub(upper, lower), _RATIO_GUARD))
    return T.add(Tensor(base), T.mul(spec.temperature, T.log1p(ratio)))


def normalize_columns(x: Tensor) -> Tensor:
    """Z-score each column with population std, then clip to four deviations.

    Zero-variance columns come out as (numerical) zeros rather than erroring.
    """
    mu = T.mean(x, axis=0)
    sd = T.sqrt(T.add(T.variance(x, axis=0), _STD_GUARD))
    return T.clip(T.div(T.sub(x, mu), sd), -4.0, 4.0)


def normalize_dataset(d: Dataset) -> Dataset:
    """Normalize predictors (and the response, for regression) within the dataset."""
    if d.n < 2:
        raise ValueError("normalize_dataset needs at least 2 rows")
    x, y = normalize_columns(d.X), d.y_values
    if d.task == REGRESSION:
        y = T.reshape(normalize_columns(T.reshape(y, (-1, 1))), (-1,))
    return replace(d, X=x, y_values=y)


def generate_dataset(g: GeneratorInstance, n: int, seed: int,
                     soft: bool = False) -> Dataset:
    """Generate an n-row dataset from the instance; pure in (instance, n, seed).

    With soft=True the categorical columns (and the label-embedding values of
    the response) follow the differentiable discretization, keeping the
    dataset connected to the generator weights on the active tape.

    Classification draws that fail to produce two distinct labels are
    resampled with fresh inputs up to a retry cap.
    """
    if n < 4:
        raise ValueError("generate_dataset needs n >= 4")
    rng = np.random.default_rng(seed)
    for _ in range(_RETRY_CAP):
        inputs = rng.standard_normal((n, g.width))
        noise = [rng.standard_normal((n, g.width)) for _ in g.weights]
        x_raw, y_raw = _mlp_readout(g, inputs, noise)

        if g.feature_specs:
            cols = []
            for j in range(g.feature_count):
                cj = T.reshape(x_raw[:, j], (-1,))
                spec = g.feature_specs.get(j)
                if spec is None:
                    cols.append(cj)
                elif soft:
                    cols.append(soft_discretize(cj, spec))
                else:
                    cols.append(Tensor(hard_discretize(cj.data, spec).astype(np.float64)))
            x = T.stack(cols, axis=1)
        else:
            x = x_raw
        cat_mask = np.zeros(g.feature_count, dtype=bool)
        cat_mask[list(g.feature_specs)] = True

        if g.task == CLASSIFICATION:
            labels = hard_discretize(y_raw.data, g.response_spec) - 1
            if np.unique(labels).size < 2:
                continue
            if soft:
                y_values = T.sub(soft_discretize(y_raw, g.response_spec), 1.0)
            else:
                y_values = Tensor(labels.astype(np.float64))
            ds = Dataset(X=x, y_values=y_values, y_labels=labels, cat_mask=cat_mask,
                         task=CLASSIFICATION, n_classes=g.n_classes)
        else:
            ds = Dataset(X=x, y_values=y_raw, y_labels=None, cat_mask=cat_mask,
                         task=REGRESSION)
        return normalize_dataset(ds)
    raise RuntimeError(
        f"generator {g.seed}: response stayed single-class after {_RETRY_CAP} resamples")
