"""Shared test utilities: brute-force oracles and small dataset builders."""

import numpy as np

from openevt.data import DistanceMetric, LabeledDataset, distances_to


def brute_knn(points: np.ndarray, q: np.ndarray, k: int, order: float = 2.0):
    """All-pairs scan oracle: k smallest (distance, index), ties by index.

    Selection (full scan + stable sort) is independent of the index; the
    metric itself is the package's definitional primitive, so values are
    comparable bit for bit.
    """
    d = distances_to(np.asarray(q, float), np.asarray(points, float),
                     DistanceMetric(order))
    idx = np.lexsort((np.arange(points.shape[0]), d))[:k]
    return d[idx], idx


def brute_dmin(points: np.ndarray, metric: DistanceMetric = DistanceMetric()) -> np.ndarray:
    """O(n^2) scan oracle for each point's nearest-other distance."""
    n = points.shape[0]
    out = np.empty(n)
    for i in range(n):
        d = distances_to(points[i], points, metric)
        d[i] = np.inf
        out[i] = d.min()
    return out


def pair_count_auc(unknownness, is_unknown) -> float:
    """Concordant-pair oracle with tie halving, as one integer division."""
    unknownness = np.asarray(unknownness, dtype=float)
    is_unknown = np.asarray(is_unknown, dtype=bool)
    pos = unknownness[is_unknown]
    neg = unknownness[~is_unknown]
    concordant = 0
    ties = 0
    for u in pos:
        concordant += int((u > neg).sum())
        ties += int((u == neg).sum())
    return (2 * concordant + ties) / (2 * len(pos) * len(neg))


def gaussian_blobs(seed, means, n_per=200, scale=1.0, p=None):
    """LabeledDataset of isotropic Gaussian classes at the given means."""
    rng = np.random.default_rng(seed)
    means = [np.asarray(m, dtype=float) for m in means]
    dim = p or means[0].shape[0]
    pts, labels = [], []
    for j, mu in enumerate(means):
        pts.append(rng.normal(size=(n_per, dim)) * scale + mu)
        labels += [f"c{j}"] * n_per
    return LabeledDataset(np.vstack(pts), labels)
