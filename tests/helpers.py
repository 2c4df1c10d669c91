"""Shared test utilities: brute-force oracles and small dataset builders."""

import threading

import numpy as np

from openevt import neighbors
from openevt.data import DistanceMetric, LabeledDataset, _minkowski, distances_to
from openevt.evt import (fit_weibull_rows, reversed_weibull_cdf,
                         reversed_weibull_fit, tail_stats)
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


def sorted_distances(points: np.ndarray, queries=None, order: float = 2.0):
    """Whole-matrix oracle extending :func:`brute_knn`: the distances from
    each query row to every point, each row sorted by (distance, index).
    Without ``queries``, from each point to every other one (n - 1 columns,
    the leave-one-out matrix)."""
    points = np.asarray(points, float)
    n = points.shape[0]
    rows = []
    for i, q in enumerate(points if queries is None else np.asarray(queries, float)):
        d, idx = distances_to(q, points, DistanceMetric(order)), np.arange(n)
        if queries is None:
            d, idx = np.delete(d, i), np.delete(idx, i)
        rows.append(d[np.lexsort((idx, d))])
    return np.array(rows)


def reference_model(kind: str, train: LabeledDataset, pool: np.ndarray,
                    grid, k: int, alpha: float = 0.05,
                    metric: DistanceMetric = DistanceMetric()) -> tuple:
    """One kind fitted and applied from full sorted distance matrices under
    ``metric``, no index: (fitted fields, {threshold: unknown flags on
    ``pool``}). gpdc and gevc take their defaults (gamma = 1/n, endpoint 0);
    evm takes k margins. Only the neighbour search is replaced: the
    statistics and the Weibull solver are the package's own."""
    n, p = train.points.shape
    loo = sorted_distances(train.points, order=metric.order)
    pooled = sorted_distances(train.points, pool, metric.order)
    if kind == "gpdc":
        gamma = 1.0 / n
        _, pxi, radius = tail_stats(loo[:, :k + 1], k, p, gamma, n - 1)
        coincident, q_pxi, q_radius = tail_stats(pooled[:, :k + 1], k, p, gamma, n)

        def thresholds(a):
            return [float(np.quantile(v[np.isfinite(v)], 1.0 - a / 2.0,
                                      method="higher")) for v in (pxi, radius)]

        flags = {}
        for a in grid:
            s, t = thresholds(a)
            flags[a] = ~coincident & ~((q_pxi < s) & (q_radius <= t))
        s, t = thresholds(alpha)
        return ({"pxi_stats": pxi, "radius_stats": radius,
                 "shape_threshold": s, "radius_threshold": t}, flags)
    if kind == "gevc":
        dmin = loo[:, 0]
        fitted = reversed_weibull_fit(-dmin[dmin > 0])
        w = reversed_weibull_cdf(fitted, -pooled[:, 0])
        return ({"dmin": dmin, "fitted": fitted,
                 "excluded_zeros": int((dmin == 0).sum())},
                {a: w < a for a in grid})
    pts, labels = train.points, train.labels
    margins = np.array([np.sort(distances_to(x, pts[labels != label], metric))[:k] / 2.0
                        for x, label in zip(pts, labels)])
    sigmas, alphas, _, _ = fit_weibull_rows(margins)
    d = np.array([distances_to(q, pts, metric) for q in pool])
    with np.errstate(over="ignore"):  # power overflows where W is 0, as in exact_psi
        psi = np.exp(-np.power(d / sigmas, alphas)).max(axis=1)
    return {"sigmas": sigmas, "alphas": alphas}, {delta: psi < delta for delta in grid}


def exact_psi(model, queries):
    """Unpruned evm psi: every training point's W at its ``_minkowski``
    distance, the same expression the model recomputes candidates with."""
    out = np.empty(queries.shape[0])
    for i, x in enumerate(queries):
        d = _minkowski(model.points - x, model.metric.order)
        with np.errstate(over="ignore"):
            out[i] = np.exp(-np.power(d / model.sigmas, model.alphas)).max()
    return out


def record_gathers(monkeypatch) -> list:
    """The sizes, in float64 elements, of every difference array that the
    neighbour module computes distances from, as ``_minkowski`` receives
    them, appended as they come."""
    sizes, minkowski = [], neighbors._minkowski
    monkeypatch.setattr(neighbors, "_minkowski", lambda diff, order: (
        sizes.append(diff.size), minkowski(diff, order))[1])
    return sizes


def scan_budget(rows, points, queries=None):
    """A ``BLOCK_ELEMENTS`` that cuts a Euclidean scan of ``queries`` (the
    points themselves if None) against ``points`` into blocks of ``rows``
    rows, whichever score dtype the scan takes."""
    operand = neighbors.score_operand(points if queries is None else queries,
                                      points)
    return rows * points.shape[0] * 2 * operand.itemsize


def in_thread(call):
    """``call()`` run in a thread other than the main one; its result."""
    out = []
    thread = threading.Thread(target=lambda: out.append(call()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and out, "the call failed or timed out"
    return out[0]


def index_state(ix):
    """Everything an insert may change, in comparable form."""
    return (ix.size, ix.points.tobytes(), ix.dmin_vector().tobytes(), ix._tree,
            ix._tree_size, ix.counters.snapshot())


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
