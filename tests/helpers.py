"""Shared test utilities: brute-force oracles and small dataset builders."""

import numpy as np

from openevt.data import DistanceMetric, LabeledDataset, distances_to
from openevt.harness import rng_from
from openevt.serialize import fit_model


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


def oletter_rep_oracle(data: LabeledDataset, train_count: int, seed: int,
                       rep: int, methods: dict, grids: dict) -> list:
    """One openness repetition by per-step slice sums: replays the draws
    (``choice`` of the known classes, then ``permutation`` of the rest),
    pools the test rows class by class and counts each step's true and
    false positives from the fitted models' flags. Returns, per step,
    (known classes, unknown classes included, {method: ((threshold, F),
    ...)})."""
    names = list(data.class_names)
    n_known = max(2, round(len(names) * 15 / 26))
    rng = rng_from(seed, "oletter", rep)
    known = [names[i] for i in rng.choice(len(names), size=n_known,
                                          replace=False)]
    rest = [c for c in names if c not in known]
    unknown_order = [rest[i] for i in rng.permutation(len(rest))]
    train = data.subset(np.arange(data.n) < train_count)
    train = train.subset(np.isin(train.labels, known))
    test_points = data.points[train_count:]
    test_labels = data.labels[train_count:]
    blocks = [test_points[np.isin(test_labels, known)]]
    blocks += [test_points[test_labels == c] for c in unknown_order]
    pool = np.vstack(blocks)
    n_known_test = blocks[0].shape[0]
    flags = {}
    for name, options in methods.items():
        model = fit_model(name, train, **options)
        flags[name] = model.flags(pool, grids[model.THRESHOLD])
    steps = []
    for m in range(len(blocks)):
        stop = sum(block.shape[0] for block in blocks[:m + 1])
        n_unknown = stop - n_known_test
        curves = {}
        for name, by_threshold in flags.items():
            curve = []
            for threshold, flag in by_threshold.items():
                fp = int(flag[:n_known_test].sum())
                tp = int(flag[n_known_test:stop].sum())
                f = (None if n_unknown == 0 else 0.0 if tp == 0
                     else 2 * tp / (2 * tp + fp + (n_unknown - tp)))
                curve.append((threshold, f))
            curves[name] = tuple(curve)
        steps.append((tuple(known), m, curves))
    return steps


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
