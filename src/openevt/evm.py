"""Extreme value machine baseline.

Each training point gets its own reversed Weibull (endpoint 0) fitted to
the k largest negated margin half-distances to points of other classes.
A query is known when the best of those per-point CDFs, evaluated at the
negated full distance to the corresponding training point, reaches the
probability threshold delta:

    psi(x0) = max_i W_i(-||x0 - x_i||),     known iff psi >= delta.

delta has no principled selection rule; it stays an explicit knob with no
default, and evaluation protocols rank by psi instead. The classifier
needs at least two training classes, since margins are defined across
classes. No model-reduction step is applied: all n per-point fits are kept.

Both hot paths use the exact kNN kernel's arithmetic: a class's margins
are a kNN query against an index over every other class, and psi comes
from exactly pruned GEMM scores (see :meth:`EvmModel.membership_batch`).
"""

import numpy as np

from .data import (EUCLIDEAN, KNOWN, UNKNOWN, DistanceMetric, LabeledDataset,
                   _minkowski, check_level)
from .errors import DataError, FitError, UsageError
from .evt import default_tail_count, fit_weibull_rows, refuse_overflow
from .neighbors import _EPS, NeighborIndex, block_scores, row_blocks
from .serialize import payload_array, payload_level, payload_number


class EvmModel:
    """Fitted extreme value machine; see :func:`fit`."""

    KIND = "evm"
    THRESHOLD = "delta"  # the decision parameter that :meth:`flags` sweeps

    def __init__(self, points: np.ndarray, sigmas: np.ndarray,
                 alphas: np.ndarray, k: int, delta: float | None,
                 metric: DistanceMetric):
        self._points = points
        self.sigmas = sigmas
        self.alphas = alphas
        self.k = k
        self.delta = delta
        self.metric = metric

    @property
    def n(self) -> int:
        return self._points.shape[0]

    @property
    def p(self) -> int:
        return self._points.shape[1]

    @property
    def points(self) -> np.ndarray:
        return self._points

    def membership_batch(self, points) -> np.ndarray:
        """psi for each row of an (m, p) array: bitwise the max over every
        training point of exp(-power(d / sigma, alpha)), d from ``distances_to``.

        W_i decreases in t_i = alpha_i (log d_i - log sigma_i), computed from
        the kernel's block scores with one log each. It is off by at most
        S + 6 eps |t| + 10 eps max|alpha log sigma| (log to 4 ulp), where
        S = max(scale) e / (s_min - e) for the score error e (the slack),
        and the exact W is within (max(alpha) (p + 4) + 4) eps of t. A point
        whose t exceeds the row's smallest by more than twice both bounds
        cannot hold the max, so only the rest are recomputed; a row with
        s_min <= e keeps every point. The constants carry extra margin.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.p:
            raise UsageError("points must be an (m, p) matrix matching the model")
        (n, p), order = self._points.shape, self.metric.order
        norms = (np.einsum("ij,ij->i", self._points, self._points)
                 if order == 2.0 else None)
        # t = scale log(score) - offset; the Euclidean score is d^2.
        scale = self.alphas / 2.0 if order == 2.0 else self.alphas
        offset = self.alphas * np.log(self.sigmas)
        fixed = _EPS * (24.0 * np.abs(offset).max()
                        + 2.0 * (self.alphas.max() * (p + 4) + 4.0))
        out = np.empty(points.shape[0])
        for block in row_blocks(points.shape[0], n, p):
            rows = points[block]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                score, slack = block_scores(rows, self._points, norms, order)
                s_min = score.min(axis=1)
                t = np.log(score, out=score)
                t *= scale
                t -= offset
                t_min = t.min(axis=1)
                c = (t_min + 8.0 * _EPS * np.abs(t_min) + fixed
                     + 2.0 * scale.max() * slack / (s_min - slack))
                limit = np.where(s_min > slack, c + 32.0 * _EPS * np.abs(c),
                                 np.inf)
                row, col = np.nonzero(~(t > limit[:, None]))
                d = _minkowski(self._points.take(col, axis=0)
                               - rows.take(row, axis=0), order)
                w = np.exp(-np.power(d / self.sigmas[col], self.alphas[col]))
            # every row keeps its smallest t, so each row has a candidate
            out[block] = np.maximum.reduceat(
                w, np.flatnonzero(np.diff(row, prepend=-1)))
        return out

    def unknownness(self, points) -> np.ndarray:
        """1 - psi, oriented like the other classifiers' ranking scores."""
        return 1.0 - self.membership_batch(points)

    def flags(self, points, grid) -> dict:
        """Unknown-decision masks for an (m, p) array at each delta of
        ``grid``."""
        psi = self.membership_batch(points)
        return {d: psi < d for d in grid}

    def summary(self) -> dict:
        """The fitted parameters, in the order the fit report prints them."""
        return {"k": self.k, "delta": self.delta}

    def evidence(self, points) -> dict:
        """Batch evidence for an (m, p) array, one array per output column:
        verdict, score and psi. The score is psi itself (higher means more
        known, unlike the other classifiers); requires delta to have been
        set."""
        if self.delta is None:
            raise UsageError(
                "no probability threshold set: fit or construct the model "
                "with an explicit delta to get binary decisions"
            )
        psi = self.membership_batch(points)
        return {"verdict": np.where(psi >= self.delta, KNOWN, UNKNOWN),
                "score": psi, "psi": psi}

    # -- serialization ----------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "points": self._points.tolist(),
            "sigmas": self.sigmas.tolist(),
            "alphas": self.alphas.tolist(),
            "k": self.k,
            "delta": self.delta,
        }

    @classmethod
    def from_payload(cls, payload: dict, metric: DistanceMetric) -> "EvmModel":
        delta = (None if payload.get("delta") is None
                 else payload_level(payload, "delta"))
        points = payload_array(payload, "points")
        n = points.shape[0]
        return cls(points, payload_array(payload, "sigmas", n),
                   payload_array(payload, "alphas", n),
                   payload_number(payload, "k", 1, n - 1, integer=True),
                   delta, metric)


def fit(data: LabeledDataset, k: int | None = None, delta: float | None = None,
        metric: DistanceMetric = EUCLIDEAN) -> EvmModel:
    """Fit one endpoint-0 reversed Weibull per training point on its k
    smallest cross-class margin half-distances, ascending.

    Requires at least two classes and k no bigger than the smallest
    cross-class sample. Fit failures name the offending training point.
    """
    if data.n_classes < 2:
        raise DataError(
            "the extreme value machine needs at least two training classes: "
            "margins are distances to other-class points"
        )
    n = data.n
    counts = np.bincount(data.label_ids, minlength=data.n_classes)
    max_cross = int(n - counts.max())
    if k is None:
        k = min(default_tail_count(n), max_cross)
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if k > max_cross:
        raise UsageError(
            f"k={k} exceeds the smallest cross-class sample ({max_cross}); "
            "every point needs k margin distances to other classes"
        )

    check_level(delta, "delta")
    ids, pts = data.label_ids, data.points
    margins = np.empty((n, k))
    for c in range(data.n_classes):
        own = ids == c
        others = NeighborIndex(pts[~own], metric)
        margins[own] = others.batch_k_smallest(pts[own], k) / 2.0

    zero_rows = np.flatnonzero(margins[:, 0] == 0)
    if zero_rows.size:
        i = int(zero_rows[0])
        raise FitError(
            f"zero margin distance at training point {i}: it coincides with "
            "a point of another class",
            diagnostics={"point": i},
        )
    refuse_overflow(margins, "margin")
    sigmas, alphas, ok, iters = fit_weibull_rows(margins)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise FitError(
            f"margin Weibull fit failed at training point {i}",
            diagnostics={"point": i, "iterations": int(iters[i]),
                         "k": k, "spread": float(np.ptp(margins[i]))},
        )
    return EvmModel(points=np.array(pts), sigmas=sigmas, alphas=alphas,
                    k=k, delta=delta, metric=metric)
