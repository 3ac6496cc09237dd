"""Prior-diversity diagnostics for collections of two-feature datasets.

The KL divergence between two dataset collections is estimated on pooled
points through smoothed 2-d histogram densities on the shared post-
normalization support. Predictor-response signal is summarized as the mean
absolute Pearson correlation per dataset, reported mean +/- std across the
collection.

The two collections compared are drawn here: ordinary generators, and one
adversarial agent recorded after each ascent against a model.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import tensor as T
from .agents import AgentConfig, AgentState, ascend_or_reset
from .model import Model
from .prior import (CLASSIFICATION, Dataset, GeneratorHyperSpace,
                    generate_dataset, sample_generator)
from .seeding import NS_EVAL, derive_seed
from .train import _forward_episode_losses

GRID_BINS = 64
GRID_EXTENT = 4.0
SMOOTHING = 1e-3


def histogram_density(points: np.ndarray, bins: int = GRID_BINS,
                      extent: float = GRID_EXTENT,
                      alpha: float = SMOOTHING) -> np.ndarray:
    """Normalized 2-d histogram with additive smoothing; points are clipped
    into the grid so no mass is dropped."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("density grid needs (n, 2) points")
    clipped = np.clip(points, -extent, extent)
    hist, _, _ = np.histogram2d(clipped[:, 0], clipped[:, 1], bins=bins,
                                range=[[-extent, extent], [-extent, extent]])
    hist = hist + alpha
    return hist / hist.sum()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    if p.shape != q.shape:
        raise ValueError(f"density grids disagree: {p.shape} vs {q.shape}")
    return float(np.sum(p * np.log(p / q)))


def pooled_points(collection: list[Dataset]) -> np.ndarray:
    for ds in collection:
        if ds.d != 2:
            raise ValueError("diversity diagnostics expect two-feature datasets")
    return np.concatenate([ds.X.data for ds in collection])


def pearson_signal(ds: Dataset) -> float:
    """Mean absolute correlation between each predictor column and the
    response; zero-spread columns contribute zero."""
    y = ds.y_labels if ds.task == CLASSIFICATION else ds.y_values.data
    y = np.asarray(y, dtype=np.float64)
    if y.std() == 0:
        return 0.0
    vals = []
    for j in range(ds.d):
        col = ds.X.data[:, j]
        if col.std() == 0:
            vals.append(0.0)
            continue
        vals.append(abs(float(np.corrcoef(col, y)[0, 1])))
    return float(np.mean(vals))


def prior_diversity_report(collection_a: list[Dataset],
                           collection_b: list[Dataset],
                           bins: int = GRID_BINS) -> dict:
    """KL estimates between the pooled point clouds, in both directions, plus
    per-collection Pearson stats and the two density grids."""
    grid_a = histogram_density(pooled_points(collection_a), bins=bins)
    grid_b = histogram_density(pooled_points(collection_b), bins=bins)
    pear_a = np.array([pearson_signal(ds) for ds in collection_a])
    pear_b = np.array([pearson_signal(ds) for ds in collection_b])
    return {
        "kl_ab": kl_divergence(grid_a, grid_b),
        "kl_ba": kl_divergence(grid_b, grid_a),
        "pearson_a": {"mean": float(pear_a.mean()), "std": float(pear_a.std())},
        "pearson_b": {"mean": float(pear_b.mean()), "std": float(pear_b.std())},
        "grid_a": grid_a,
        "grid_b": grid_b,
    }


def build_adversarial_collection(model: Model, space, agent_cfg: AgentConfig,
                                 run_seed: int, count: int, n_rows: int
                                 ) -> list[Dataset]:
    """Record the dataset an adversarial agent emits after each consecutive
    backpropagation against the model."""
    agent = AgentState(agent_cfg, space, run_seed, slot=0)
    out: list[Dataset] = []
    i = 0
    while len(out) < count:
        ep_seed = derive_seed(run_seed, NS_EVAL, 40, i)
        i += 1
        try:
            with T.Tape() as tape:
                ds = generate_dataset(agent.generator, n_rows, ep_seed, soft=True)
                loss = _forward_episode_losses(model, [ds], max(2, n_rows // 2), None)
                tape.backward(loss)
            ascend_or_reset(agent)
            T.zero_grads(model.parameters())
        except RuntimeError:
            agent.reset(reason="degenerate")
            continue
        except T.GradientNaN:
            T.zero_grads(model.parameters() + agent.parameters())
            agent.reset(reason="nan-gradients")
            continue
        out.append(ds.take())  # detached from the tape
        agent.maybe_reset()
    return out


def ordinary_collection(space, run_seed: int, namespace: int, count: int,
                        n_rows: int) -> list[Dataset]:
    out = []
    i = 0
    while len(out) < count:
        seed = derive_seed(run_seed, namespace, i)
        i += 1
        try:
            g = sample_generator(space, seed)
            out.append(generate_dataset(g, n_rows, derive_seed(run_seed, namespace, i, 1)))
        except RuntimeError:
            continue
    return out


def ordinary_vs_adversarial(model: Model, space: GeneratorHyperSpace,
                            agent_cfg: AgentConfig, run_seed: int, count: int,
                            n_rows: int) -> tuple[dict, dict[str, np.ndarray]]:
    """Two ordinary collections and one adversarial collection of count
    two-feature datasets each: the summary of KL and correlation stats, and
    the three density grids."""
    space = dataclasses.replace(space, feature_count=(2, 2))
    ordinary_a = ordinary_collection(space, run_seed, 41, count, n_rows)
    ordinary_b = ordinary_collection(space, run_seed, 42, count, n_rows)
    adversarial = build_adversarial_collection(model, space, agent_cfg, run_seed,
                                               count, n_rows)
    baseline = prior_diversity_report(ordinary_a, ordinary_b)
    shifted = prior_diversity_report(ordinary_a, adversarial)
    summary = {
        "datasets_per_collection": count,
        "rows_per_dataset": n_rows,
        "kl_ordinary_vs_ordinary": baseline["kl_ab"],
        "kl_ordinary_vs_adversarial": shifted["kl_ab"],
        "pearson_ordinary": baseline["pearson_a"],
        "pearson_adversarial": shifted["pearson_b"],
    }
    grids = {"ordinary_a": baseline["grid_a"], "ordinary_b": baseline["grid_b"],
             "adversarial": shifted["grid_b"]}
    return summary, grids
