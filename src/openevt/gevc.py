"""The GEV classifier: a hypothesis test on the nearest-neighbor distance.

Training computes every point's distance to its closest other training
point and fits a reversed Weibull with upper endpoint 0 to the negated
values (zero distances from duplicated points are excluded from the fit
sample). With ``free_endpoint`` the same solver also profiles the endpoint,
and a sample with no interior likelihood maximum raises FitError. A query
is rejected as unknown at level alpha when the fitted CDF evaluated at its
negated nearest distance falls below alpha, i.e. when the query sits
farther from the training set than all but a vanishing share of the
training points sit from each other.

The model updates in place: inserting a point revises only the nearest
distances it improves, which the index recomputes for the candidates of one
kd-tree ball query at p <= 9, and the Weibull refit is deferred until the
next score once more than ``REFIT_FRACTION`` of the entries have changed. The
deferred refit is lock-protected so concurrent scorers see either the old
or the new fit, never a partial one.
"""

import threading

import numpy as np

from .data import (EUCLIDEAN, KNOWN, UNKNOWN, DistanceMetric, LabeledDataset,
                   Verdict, as_batch, check_level, only_row)
from .errors import DataError, FitError, UsageError
from .evt import (ReversedWeibull, refuse_overflow, reversed_weibull_cdf,
                  reversed_weibull_fit, reversed_weibull_fit_free_endpoint)
from .neighbors import NeighborIndex
from .serialize import payload_array, payload_level, payload_number

# Deferred-refit trigger: fraction of nearest-distance entries that may
# change before the fitted distribution is considered stale.
REFIT_FRACTION = 0.01
_VERDICTS = np.array([KNOWN, UNKNOWN])  # indexed by the unknown decision


def _fit_dmin_sample(dmin: np.ndarray, free_endpoint: bool) -> tuple:
    refuse_overflow(dmin, "nearest-neighbor")
    positive = dmin[dmin > 0]
    excluded = int(dmin.shape[0] - positive.shape[0])
    if positive.shape[0] < 3:
        raise FitError(
            "need at least 3 strictly positive nearest-neighbor distances "
            f"(got {positive.shape[0]}, {excluded} duplicates excluded)",
            diagnostics={"n": int(dmin.shape[0]), "excluded": excluded},
        )
    fit_sample = (reversed_weibull_fit_free_endpoint if free_endpoint
                  else reversed_weibull_fit)
    return fit_sample(-positive), excluded


class GevcModel:
    """Fitted GEV classifier; see :func:`fit`. Reads are concurrency-safe,
    ``update`` requires exclusive access."""

    KIND = "gevc"
    THRESHOLD = "alpha"  # the decision parameter that :meth:`flags` sweeps

    def __init__(self, index: NeighborIndex, labels: list, alpha: float,
                 fitted: ReversedWeibull, excluded_zeros: int,
                 free_endpoint: bool = False):
        self._index = index
        self._labels = labels
        self.alpha = alpha
        self.free_endpoint = free_endpoint
        self._fitted = fitted
        self.excluded_zeros = excluded_zeros
        self._changed_since_fit = 0
        self._stale = False
        self._refit_lock = threading.Lock()

    @property
    def n(self) -> int:
        return self._index.size

    @property
    def p(self) -> int:
        return self._index.dimension

    @property
    def metric(self) -> DistanceMetric:
        return self._index.metric

    @property
    def index(self) -> NeighborIndex:
        return self._index

    @property
    def dmin(self) -> np.ndarray:
        """Current nearest-other-training-point distances."""
        return self._index.dmin_vector()

    @property
    def fitted(self) -> ReversedWeibull:
        """The reversed Weibull in force, refitting first if updates have
        left the cached one stale."""
        if self._stale:
            with self._refit_lock:
                if self._stale:
                    fitted, excluded = _fit_dmin_sample(
                        self._index.dmin_vector(), self.free_endpoint)
                    self._fitted = fitted
                    self.excluded_zeros = excluded
                    self._changed_since_fit = 0
                    self._stale = False
        return self._fitted

    def score(self, x0) -> tuple:
        """Classify one point; returns (Verdict, d0min), the single row of
        :meth:`evidence` on ``x0``.

        Unknown iff W(-d0min) < alpha, where d0min is the distance to the
        nearest training point; the verdict score is 1 - W(-d0min), which
        grows with unknownness.
        """
        row = only_row(self.evidence(as_batch(x0, self.p)))
        verdict = Verdict(row.pop("verdict"), row.pop("score"), row)
        return verdict, row["d0min"]

    def evidence(self, points) -> dict:
        """Batch evidence for an (m, p) array, one array per output column:
        verdict, score = 1 - W(-d0min), d0min and cdf = W(-d0min)."""
        fitted = self.fitted
        d0 = self._index.batch_k_smallest(points, 1)[:, 0]
        w = reversed_weibull_cdf(fitted, -d0)
        return {"verdict": _VERDICTS.take(w < self.alpha),
                "score": 1.0 - w, "d0min": d0, "cdf": w}

    def unknownness(self, points) -> np.ndarray:
        """Batch 1 - W(-d0min) for an (m, p) array of query points."""
        return self.evidence(points)["score"]

    def flags(self, points, grid) -> dict:
        """Unknown-decision masks for an (m, p) array at each alpha of
        ``grid``."""
        w = self.evidence(points)["cdf"]
        return {a: w < a for a in grid}

    def summary(self) -> dict:
        """The fitted parameters, in the order the fit report prints them."""
        fitted = self.fitted
        return {"alpha": self.alpha, "sigma": fitted.sigma,
                "weibull_alpha": fitted.alpha, "endpoint": fitted.endpoint,
                "excluded_zeros": self.excluded_zeros}

    def update(self, new_points) -> "GevcModel":
        """Insert (point, label) pairs, revising affected nearest distances.

        The Weibull refit is deferred to the next score when the cumulative
        changed fraction exceeds REFIT_FRACTION; an empty list is a no-op.
        Mutates and returns this model.
        """
        for x, label in new_points:
            changed = self._index.insert(x)
            self._labels.append(label)
            # The new point's own entry counts as changed too.
            self._changed_since_fit += len(changed) + 1
        if self._changed_since_fit > REFIT_FRACTION * self._index.size:
            self._stale = True
        return self

    # -- serialization ----------------------------------------------------

    def to_payload(self) -> dict:
        fitted = self.fitted
        return {
            "points": self._index.points.tolist(),
            "labels": self._labels,
            "alpha": self.alpha,
            "free_endpoint": self.free_endpoint,
            "dmin": self._index.dmin_vector().tolist(),
            "sigma": fitted.sigma,
            "weibull_alpha": fitted.alpha,
            "endpoint": fitted.endpoint,
            "excluded_zeros": self.excluded_zeros,
        }

    @classmethod
    def from_payload(cls, payload: dict, metric: DistanceMetric) -> "GevcModel":
        points = payload_array(payload, "points")
        n = points.shape[0]
        labels = payload.get("labels")
        if labels is None:
            labels = [None] * n
        if len(labels) != n:
            raise DataError(f"payload field 'labels' has {len(labels)} entries, "
                            f"expected {n} to match the points")
        # A nearest distance may overflow to inf but is never NaN or negative.
        dmin = payload_array(payload, "dmin", n, valid=lambda d: d >= 0)
        index = NeighborIndex(points, metric, dmin=dmin)
        fitted = ReversedWeibull(sigma=payload_number(payload, "sigma", 0.0),
                                 alpha=payload_number(payload, "weibull_alpha", 0.0),
                                 endpoint=payload_number(payload, "endpoint"))
        return cls(index, labels, payload_level(payload, "alpha"), fitted,
                   payload_number(payload, "excluded_zeros", 0, n, integer=True),
                   free_endpoint=bool(payload.get("free_endpoint", False)))


def fit(data: LabeledDataset, alpha: float = 0.05,
        metric: DistanceMetric = EUCLIDEAN,
        free_endpoint: bool = False) -> GevcModel:
    """Fit the classifier: nearest distances for every training point, then
    the reversed Weibull on their negations (endpoint fixed at 0 unless
    ``free_endpoint``)."""
    if data.n < 3:
        raise UsageError(f"need at least 3 training points, got {data.n}")
    check_level(alpha, "alpha")
    index = NeighborIndex(data.points, metric)
    fitted, excluded = _fit_dmin_sample(index.dmin_vector(), free_endpoint)
    return GevcModel(index, list(data.labels), alpha, fitted, excluded,
                     free_endpoint=free_endpoint)
