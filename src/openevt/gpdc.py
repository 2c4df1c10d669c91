"""The GPD classifier: tail-shape test plus density-radius test, with
jackknife-calibrated decision thresholds.

Scoring a query point x0 against n training points runs five steps:

1. fetch the k+1 smallest distances from x0 through the neighbor index
   (a zero distance short-circuits to "known": x0 coincides with training);
2. estimate the tail shape xi_hat from the k largest negated distances,
   with the (k+1)-th as threshold;
3. reject as unknown if p * xi_hat >= s (the shape statistic concentrates
   near -1 for points inside the training support and near 0 outside it);
4. compute the ball radius -q_gamma containing roughly gamma of the
   training mass around x0;
5. reject as unknown if that radius exceeds t, otherwise accept as known.

The thresholds (s, t) are calibrated by leaving each training point out,
scoring it against the rest, and taking the (1 - alpha/2) empirical
quantiles of the two statistics, so that about alpha of the training data
would be self-flagged (a Bonferroni split of the type-I error across the
two tests). The jackknife statistics are cached on the model, which makes
recalibration at a new alpha free.
"""

import numpy as np

from .data import (EUCLIDEAN, KNOWN, UNKNOWN, DistanceMetric, LabeledDataset,
                   check_level)
from .errors import DataError, FitError, UsageError
from .evt import default_tail_count
from .neighbors import NeighborIndex
from .serialize import payload_array, payload_level, payload_number

REJECTED_SHAPE = "rejected_shape"
REJECTED_RADIUS = "rejected_radius"
ACCEPTED = "accepted"
COINCIDENT_KNOWN = "coincident_known"


def _quantile_thresholds(pxi_stats, radius_stats, alpha):
    level = 1.0 - alpha / 2.0
    return tuple(float(np.quantile(v[np.isfinite(v)], level, method="higher"))
                 for v in (pxi_stats, radius_stats))


def tail_stats(d: np.ndarray, k: int, p: int, gamma: float, n_ref: int):
    """Shape and radius statistics from (m, k+1) ascending distance rows:
    the vectorized Hill estimator (``evt.hill_shape`` is its scalar
    reference), scaled by p, and the ball radius it implies.

    ``n_ref`` is the number of training points the distances were measured
    against (n for external queries, n-1 inside the jackknife). Rows whose
    smallest distance is zero are coincident with training and get NaN
    statistics.
    """
    coincident = d[:, 0] == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = np.log(d[:, :k] / d[:, k:k + 1]).mean(axis=1)
        radius = d[:, k] * (n_ref * gamma / k) ** (-xi)
    pxi = np.where(coincident, np.nan, p * xi)
    radius = np.where(coincident, np.nan, radius)
    return coincident, pxi, radius


def _blank(values: np.ndarray, absent: np.ndarray) -> np.ndarray:
    """Object array of ``values`` with None where ``absent``."""
    out = values.astype(object)
    out[absent] = None
    return out


class GpdcModel:
    """Immutable fitted GPD classifier; see :func:`fit`."""

    KIND = "gpdc"
    THRESHOLD = "alpha"  # the decision parameter that :meth:`flags` sweeps

    def __init__(self, index: NeighborIndex, k: int, gamma: float,
                 alpha: float, pxi_stats: np.ndarray, radius_stats: np.ndarray):
        """``pxi_stats`` and ``radius_stats`` are the jackknife statistics
        (NaN marks training points coincident with another); the decision
        thresholds are their quantiles at ``alpha``."""
        self._index = index
        self.p = index.dimension
        self.n = index.size
        self.k = k
        self.gamma = gamma
        self.alpha = alpha
        self.pxi_stats = pxi_stats
        self.radius_stats = radius_stats
        self.shape_threshold, self.radius_threshold = _quantile_thresholds(
            pxi_stats, radius_stats, alpha)
        self._pxi_sorted = np.sort(pxi_stats[np.isfinite(pxi_stats)])
        self._radius_sorted = np.sort(radius_stats[np.isfinite(radius_stats)])

    # -- public surface -------------------------------------------------

    @property
    def metric(self) -> DistanceMetric:
        return self._index.metric

    @property
    def index(self) -> NeighborIndex:
        return self._index

    def decision_stats(self, points) -> tuple:
        """Batch statistics for an (m, p) array: (coincident, p_xi, radius)."""
        points = np.asarray(points, dtype=float)
        d = self._index.batch_k_smallest(points, self.k + 1)
        return tail_stats(d, self.k, self.p, self.gamma, self.n)

    def evidence(self, points) -> dict:
        """Batch evidence for an (m, p) array, one array per output column:
        verdict, score (see :meth:`unknownness`), xi_hat, p_xi, radius and
        the deciding stage. Statistics a row's stage did not reach are
        None: all three for coincident rows, the radius for rows rejected
        at the shape stage."""
        coincident, pxi, radius = self.decision_stats(points)
        unknown = self.decide(coincident, pxi, radius)
        shape = ~coincident & (pxi >= self.shape_threshold)
        return {
            "verdict": np.where(unknown, UNKNOWN, KNOWN),
            "score": self._ranks(coincident, pxi, radius),
            "xi_hat": _blank(pxi / self.p, coincident),
            "p_xi": _blank(pxi, coincident),
            "radius": _blank(radius, coincident | shape),
            "stage": np.where(coincident, COINCIDENT_KNOWN,
                              np.where(shape, REJECTED_SHAPE,
                                       np.where(unknown, REJECTED_RADIUS,
                                                ACCEPTED))),
        }

    def unknownness(self, points) -> np.ndarray:
        """Unknownness in [0, 1] for an (m, p) array: the worse of the two
        statistics' empirical ranks within the jackknife sample. 0 for
        coincident points, near 1 for points whose statistics exceed
        everything seen in calibration."""
        return self._ranks(*self.decision_stats(points))

    def decide(self, coincident, pxi, radius, alpha: float | None = None):
        """Vectorized decision rule at the model's (or a given) alpha."""
        if alpha is None:
            s, t = self.shape_threshold, self.radius_threshold
        else:
            check_level(alpha, "alpha")
            s, t = _quantile_thresholds(self.pxi_stats, self.radius_stats, alpha)
        # Known only when both tests pass: a statistic left undefined by
        # distances that overflow to inf passes neither.
        return ~coincident & ~((pxi < s) & (radius <= t))

    def flags(self, points, grid) -> dict:
        """Unknown-decision masks for an (m, p) array at each alpha of
        ``grid``, from one pass of distance work."""
        stats = self.decision_stats(points)
        return {a: self.decide(*stats, alpha=a) for a in grid}

    def summary(self) -> dict:
        """The fitted parameters, in the order the fit report prints them."""
        return {"k": self.k, "alpha": self.alpha, "gamma": self.gamma,
                "shape_threshold": self.shape_threshold,
                "radius_threshold": self.radius_threshold}

    # -- internals --------------------------------------------------------

    def _ranks(self, coincident, pxi, radius) -> np.ndarray:
        rs = np.searchsorted(self._pxi_sorted, pxi, side="right") \
            / self._pxi_sorted.shape[0]
        rt = np.searchsorted(self._radius_sorted, radius, side="right") \
            / self._radius_sorted.shape[0]
        return np.where(coincident, 0.0, np.maximum(rs, rt))

    # -- serialization ------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "points": self._index.points.tolist(),
            "k": self.k,
            "gamma": self.gamma,
            "alpha": self.alpha,
            "shape_threshold": self.shape_threshold,
            "radius_threshold": self.radius_threshold,
            "pxi_stats": self.pxi_stats.tolist(),
            "radius_stats": self.radius_stats.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict, metric: DistanceMetric) -> "GpdcModel":
        points = payload_array(payload, "points")
        n = points.shape[0]
        k = payload_number(payload, "k", 1, n - 2, integer=True)
        gamma = payload_number(payload, "gamma", 0.0, k / n)
        # NaN statistics mark coincident training points.
        stats = {field: payload_array(payload, field, n, valid=None)
                 for field in ("pxi_stats", "radius_stats")}
        for field, values in stats.items():
            if np.isfinite(values).sum() < 3:
                raise DataError(f"payload field {field!r} has fewer than 3 "
                                "finite entries")
        model = cls(NeighborIndex(points, metric), k, gamma,
                    payload_level(payload, "alpha"), *stats.values())
        for field in ("shape_threshold", "radius_threshold"):
            if payload_number(payload, field) != getattr(model, field):
                raise DataError(f"payload field {field!r} is not the quantile "
                                "of the stored statistics at the stored alpha")
        return model


def fit(data: LabeledDataset, k: int | None = None, gamma: float | None = None,
        alpha: float = 0.05, metric: DistanceMetric = EUCLIDEAN) -> GpdcModel:
    """Fit the classifier: build the index, run the leave-one-out
    calibration, and set the two decision thresholds for the target alpha.

    All classes are collapsed; labels are ignored. ``k`` defaults to the
    0.25% tail rule, ``gamma`` to 1/n.
    """
    n, p = data.n, data.p
    if k is None:
        k = default_tail_count(n)
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if n < k + 2:
        raise UsageError(f"need n >= k + 2 (n={n}, k={k})")
    check_level(alpha, "alpha")
    if gamma is None:
        if k < 2:
            raise UsageError(
                f"k={k} needs an explicit gamma: the default gamma = 1/n "
                f"needs k >= 2, or pass gamma < 1/n = {1.0 / n:g}")
        gamma = 1.0 / n
    if not (0.0 < gamma < k / n):
        raise UsageError(f"gamma must be in (0, k/n) = (0, {k / n:g}), got {gamma}")

    index = NeighborIndex(data.points, metric)
    # Leave-one-out pass: each training point scored against the other n-1.
    d = index.leave_one_out_smallest(k + 1)
    coincident, pxi, radius = tail_stats(d, k, p, gamma, n - 1)
    if np.isfinite(pxi).sum() < 3:
        raise FitError(
            "jackknife calibration degenerate: fewer than 3 training points "
            "with positive leave-one-out distances",
            diagnostics={"n": n, "coincident": int(coincident.sum())},
        )
    return GpdcModel(index, k, gamma, alpha, pxi, radius)
