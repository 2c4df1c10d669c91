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
"""

import numpy as np

from .data import (EUCLIDEAN, KNOWN, UNKNOWN, DistanceMetric, LabeledDataset,
                   Verdict, as_batch, only_row)
from .errors import DataError, FitError, UsageError
from .evt import default_tail_count, fit_weibull_rows
from .serialize import payload_array

_BLOCK_ROWS = 256


def _cdist_metric(metric: DistanceMetric):
    if metric.order == 2.0:
        return {"metric": "euclidean"}
    if metric.order == 1.0:
        return {"metric": "cityblock"}
    return {"metric": "minkowski", "p": metric.order}


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

    def membership(self, x0) -> float:
        """psi(x0): the best per-point margin CDF value, in (0, 1]."""
        return float(self.membership_batch(as_batch(x0, self.p))[0])

    def membership_batch(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.p:
            raise UsageError("points must be an (m, p) matrix matching the model")
        out = np.empty(points.shape[0])
        for start in range(0, points.shape[0], _BLOCK_ROWS):
            block = points[start:start + _BLOCK_ROWS]
            out[start:start + _BLOCK_ROWS] = self._psi_rows(block)
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

    def score(self, x0) -> tuple:
        """Classify one point; returns (Verdict, psi), the single row of
        :meth:`evidence` on ``x0``."""
        row = only_row(self.evidence(as_batch(x0, self.p)))
        return Verdict(row["verdict"], row["score"], {"psi": row["psi"]}), row["psi"]

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

    def _psi_rows(self, block: np.ndarray) -> np.ndarray:
        from scipy.spatial.distance import cdist

        d = cdist(block, self._points, **_cdist_metric(self.metric))
        with np.errstate(over="ignore"):
            w = np.exp(-np.power(d / self.sigmas[None, :], self.alphas[None, :]))
        return w.max(axis=1)

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
        delta = payload.get("delta")
        points = payload_array(payload, "points")
        n = points.shape[0]
        return cls(
            points=points,
            sigmas=payload_array(payload, "sigmas", n),
            alphas=payload_array(payload, "alphas", n),
            k=int(payload["k"]),
            delta=None if delta is None else float(delta),
            metric=metric,
        )


def fit(data: LabeledDataset, k: int | None = None, delta: float | None = None,
        metric: DistanceMetric = EUCLIDEAN) -> EvmModel:
    """Fit one endpoint-0 reversed Weibull per training point on its k
    smallest cross-class margin half-distances.

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

    from scipy.spatial.distance import cdist

    ids = data.label_ids
    pts = data.points
    margins = np.empty((n, k))
    kw = _cdist_metric(metric)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        d = cdist(pts[start:stop], pts, **kw) / 2.0
        d[ids[start:stop, None] == ids[None, :]] = np.inf
        margins[start:stop] = np.partition(d, k - 1, axis=1)[:, :k]

    zero_rows = np.flatnonzero((margins == 0).any(axis=1))
    if zero_rows.size:
        i = int(zero_rows[0])
        raise FitError(
            f"zero margin distance at training point {i}: it coincides with "
            "a point of another class",
            diagnostics={"point": i},
        )
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
