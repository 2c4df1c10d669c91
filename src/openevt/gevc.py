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
kd-tree ball query at p <= 9, and ``update`` refits the Weibull before it
returns once more than ``REFIT_FRACTION`` of them changed since the last
fit. Reads never write model state; ``update`` needs exclusive access.
"""

import numpy as np

from .data import (EUCLIDEAN, KNOWN, UNKNOWN, DistanceMetric, LabeledDataset,
                   Verdict, as_point, check_level)
from .errors import DataError, FitError, UsageError
from .evt import (ReversedWeibull, refuse_overflow, reversed_weibull_cdf,
                  reversed_weibull_fit, reversed_weibull_fit_free_endpoint)
from .neighbors import NeighborIndex
from .serialize import payload_array, payload_level, payload_number

# Refit trigger: fraction of nearest-distance entries that may change
# before ``update`` refits the distribution.
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
            diagnostics={"n": int(dmin.shape[0]), "excluded": excluded})
    fit_sample = (reversed_weibull_fit_free_endpoint if free_endpoint
                  else reversed_weibull_fit)
    return fit_sample(-positive), excluded


class GevcModel:
    """Fitted GEV classifier; see :func:`fit`. Reads never write model
    state; ``update`` requires exclusive access."""

    KIND = "gevc"
    THRESHOLD = "alpha"  # the decision parameter that :meth:`flags` sweeps

    def __init__(self, index: NeighborIndex, labels: list, alpha: float,
                 fitted: ReversedWeibull, excluded_zeros: int,
                 free_endpoint: bool = False):
        self.index = index
        self.p = index.dimension
        self.metric = index.metric
        self._labels = labels
        self.alpha = alpha
        self.free_endpoint = free_endpoint
        self.fitted = fitted
        self.excluded_zeros = excluded_zeros
        self._changed_since_fit = 0

    @property
    def n(self) -> int:
        return self.index.size

    @property
    def points(self) -> np.ndarray:
        return self.index.points

    @property
    def dmin(self) -> np.ndarray:
        """Current nearest-other-training-point distances."""
        return self.index.dmin_vector()

    def score(self, x0) -> tuple:
        """Classify one point; returns (Verdict, d0min), the single row of
        :meth:`evidence` on ``x0``.

        Unknown iff W(-d0min) < alpha, where d0min is the distance to the
        nearest training point; the verdict score is 1 - W(-d0min), which
        grows with unknownness.
        """
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (self.p,):  # the index's run checks finiteness
            raise UsageError(f"query has shape {x0.shape}, model is p={self.p}")
        d0 = self.index.batch_k_smallest(x0[None, :], 1)[0]
        d0, w = d0.item(), reversed_weibull_cdf(self.fitted, -d0).item()  # evidence's row
        return Verdict(UNKNOWN if w < self.alpha else KNOWN, 1.0 - w, {"d0min": d0, "cdf": w}), d0

    def evidence(self, points, distances=None) -> dict:
        """Batch evidence for an (m, p) array, one array per output column:
        verdict, score = 1 - W(-d0min), d0min and cdf = W(-d0min); d0min is
        column 0 of ``distances``, ascending rows, if given."""
        if distances is None:
            distances = self.index.batch_k_smallest(points, 1)
        d0 = distances[:, 0]
        w = reversed_weibull_cdf(self.fitted, -d0)
        return {"verdict": _VERDICTS.take(w < self.alpha),
                "score": 1.0 - w, "d0min": d0, "cdf": w}

    def unknownness(self, points, distances=None) -> np.ndarray:
        """Batch 1 - W(-d0min) for an (m, p) array of query points."""
        return self.evidence(points, distances)["score"]

    def flags(self, points, grid, distances=None) -> dict:
        """Unknown-decision masks for an (m, p) array at each alpha of
        ``grid``."""
        w = self.evidence(points, distances)["cdf"]
        return {a: w < a for a in grid}

    def summary(self) -> dict:
        """The fitted parameters, in the order the fit report prints them."""
        fitted = self.fitted
        return {"alpha": self.alpha, "sigma": fitted.sigma,
                "weibull_alpha": fitted.alpha, "endpoint": fitted.endpoint,
                "excluded_zeros": self.excluded_zeros}

    def update(self, new_points) -> "GevcModel":
        """Insert (point, label) pairs, revising affected nearest distances,
        and refit the Weibull once more than REFIT_FRACTION of them changed
        since the last fit. Mutates and returns this model. A malformed pair
        refuses the whole update; an overflowing point raises DataError after
        the pairs before it (and their refit); a failed refit raises FitError
        with the last fit in force, and the next update retries it."""
        pairs = [(as_point(x, self.p, f"update pair {i}"), label)
                 for i, (x, label) in enumerate(new_points)]
        try:
            for i, (x, label) in enumerate(pairs):
                try:
                    changed = self.index.insert(x)
                except DataError as exc:
                    raise DataError(f"update pair {i}: {exc}") from None
                self._labels.append(label)
                # The new point's own entry counts as changed too.
                self._changed_since_fit += len(changed) + 1
        finally:  # also after a refused pair, for the pairs before it
            if self._changed_since_fit > REFIT_FRACTION * self.index.size:
                self.fitted, self.excluded_zeros = _fit_dmin_sample(
                    self.index.dmin_vector(), self.free_endpoint)
                self._changed_since_fit = 0
        return self

    # -- serialization ----------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "labels": self._labels,
            "alpha": self.alpha,
            "free_endpoint": self.free_endpoint,
            "dmin": self.index.dmin_vector().tolist(),
            "sigma": self.fitted.sigma,
            "weibull_alpha": self.fitted.alpha,
            "endpoint": self.fitted.endpoint,
            "excluded_zeros": self.excluded_zeros,
        }

    @classmethod
    def from_payload(cls, payload: dict, metric: DistanceMetric, points) -> "GevcModel":
        """The model :meth:`to_payload` wrote, on the container's ``points``."""
        n = points.shape[0]
        labels = payload.get("labels")
        if labels is None:
            labels = [None] * n
        if not isinstance(labels, list) or len(labels) != n:
            raise DataError(f"payload field 'labels' is not a list of {n} "
                            "entries, one per point")
        free_endpoint = payload.get("free_endpoint", False)
        if not isinstance(free_endpoint, bool):
            raise DataError("payload field 'free_endpoint': expected true or "
                            f"false, got {free_endpoint!r}")
        # A nearest distance may overflow to inf but is never NaN or negative.
        dmin = payload_array(payload, "dmin", n, valid=lambda d: d >= 0)
        index = NeighborIndex(points, metric, dmin=dmin)
        fitted = ReversedWeibull(sigma=payload_number(payload, "sigma", 0.0),
                                 alpha=payload_number(payload, "weibull_alpha", 0.0, 1e18),
                                 endpoint=payload_number(payload, "endpoint"))
        return cls(index, labels, payload_level(payload, "alpha"), fitted,
                   payload_number(payload, "excluded_zeros", 0, n, integer=True),
                   free_endpoint=free_endpoint)


def fit(data: LabeledDataset, alpha: float = 0.05,
        metric: DistanceMetric = EUCLIDEAN, free_endpoint: bool = False,
        neighbours=None) -> GevcModel:
    """Fit the classifier: nearest distances for every training point, then
    the reversed Weibull on their negations (endpoint fixed at 0 unless
    ``free_endpoint``). ``neighbours`` (see :func:`openevt.gpdc.fit`) gives them
    as column 0 of its leave-one-out matrix (else UsageError), copied into the model's index."""
    if data.n < 3:
        raise UsageError(f"need at least 3 training points, got {data.n}")
    check_level(alpha, "alpha")
    d = neighbours and neighbours[1]
    if neighbours and (np.ndim(d) != 2 or d.shape[1] < 1):  # the index checks the rows
        raise UsageError(f"neighbours needs ({data.n}, >= 1) distances, got {np.shape(d)}")
    index = NeighborIndex(data.points, metric, dmin=d[:, 0] if neighbours else None)
    fitted, excluded = _fit_dmin_sample(index.dmin_vector(), free_endpoint)
    return GevcModel(index, list(data.labels), alpha, fitted, excluded,
                     free_endpoint=free_endpoint)
