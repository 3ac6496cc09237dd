"""Prior-diversity diagnostics for collections of two-feature datasets.

The KL divergence between two dataset collections is estimated on pooled
points through smoothed 2-d histogram densities on the shared post-
normalization support. Predictor-response signal is summarized as the mean
absolute Pearson correlation per dataset, reported mean +/- std across the
collection.
"""

from __future__ import annotations

import numpy as np

from .prior import CLASSIFICATION, Dataset

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
