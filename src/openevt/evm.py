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

Both hot paths are selections of the exact kNN kernel's neighbour pass,
so the protocols' shared pass serves them too: the margins are a labelled
kNN selection of the training pass, read in place (the fit halves sigma,
not its sample), and psi a visit of the block scores that recomputes only
the points exact bounds keep (see :meth:`EvmModel.membership_batch`).
"""

import numpy as np

from .data import EUCLIDEAN, KNOWN, UNKNOWN, DistanceMetric, LabeledDataset, check_level
from .errors import DataError, FitError, UsageError
from .evt import default_tail_count, fit_weibull_rows, refuse_overflow
from .neighbors import _EPS, NeighborIndex, gathered_distances, row_blocks, scan
from .serialize import payload_array, payload_level, payload_number


class EvmModel:
    """Fitted extreme value machine; see :func:`fit`."""

    KIND = "evm"
    THRESHOLD = "delta"  # the decision parameter that :meth:`flags` sweeps

    def __init__(self, points: np.ndarray, sigmas: np.ndarray,
                 alphas: np.ndarray, k: int, delta: float | None,
                 metric: DistanceMetric):
        self.points = points
        self.n, self.p = points.shape
        self.sigmas = sigmas
        self.alphas = alphas
        self.k = k
        self.delta = delta
        self.metric = metric

    def membership_batch(self, points) -> np.ndarray:
        """psi for each row of an (m, p) array: bitwise the max over every
        training point of exp(-power(d / sigma, alpha)), d from ``distances_to``.

        W_i decreases in t_i = alpha_i (log d_i - log sigma_i), computed from
        the kernel's block scores with one log each in their dtype, of
        epsilon eps (e for float64). With scale and offset rounded to it and
        the log to 4 ulp, t is off by at most S + 6 eps |t| + 10 eps
        max|alpha log sigma|, S = max(scale) e' / (s_min - e'), e' the slack
        (>= the score's error); the exact W is within (max(alpha) (p + 4) +
        4) e of t. A point whose t exceeds the row's smallest by more than
        twice both bounds cannot hold the max, so only the rest are
        recomputed; a row with s_min <= e' keeps every point. The constants
        carry extra margin, and the limit is rounded up to the dtype.
        """
        points = np.asarray(points, dtype=float)
        out = np.empty(points.shape[:1])  # scan refuses a bad shape or row
        scan(points, self.points, self.metric.order, self.psi_visitor(out))
        return out

    def psi_visitor(self, out: np.ndarray):
        """Scan visitor storing the psi of each block's rows in ``out``, from
        their scores against the training points (overwritten)."""
        order = self.metric.order
        # t = scale log(score) - offset; the Euclidean score is d^2.
        scale = self.alphas / 2.0 if order == 2.0 else self.alphas
        offset = self.alphas * np.log(self.sigmas)
        cast = {np.dtype(t): (scale.astype(t), offset.astype(t)) for t in (np.float32, float)}
        big, fixed = np.abs(offset).max(), 2 * _EPS * (self.alphas.max() * (self.p + 4) + 4)

        def visit(block, rows, score, slack):
            eps, (scale_as, offset_as) = np.finfo(score.dtype).eps, cast[score.dtype]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                s_min = score.min(axis=1)
                t = np.log(score, out=score)
                t *= scale_as
                t -= offset_as
                t_min = t.min(axis=1).astype(float)
                c = (t_min + 24.0 * eps * (np.abs(t_min) + big) + fixed
                     + 2.0 * scale.max() * slack / (s_min - slack))
                limit = np.nextafter(np.where(s_min > slack, c + 32.0 * eps * np.abs(c),
                                              np.inf).astype(score.dtype), np.inf)
                row, col = np.divmod(np.flatnonzero(~(t > limit[:, None])), self.n)
                d = np.empty(col.size)
                for part in row_blocks(col.size, 2, self.p):  # diff + query row
                    d[part] = gathered_distances(self.points, col[part],
                                                 rows.take(row[part], axis=0), order)
                w = np.exp(-np.power(d / self.sigmas[col], self.alphas[col]))
            # every row keeps its smallest t, so each row has a candidate
            out[block] = np.maximum.reduceat(w, np.flatnonzero(np.diff(row, prepend=-1)))
        return visit

    def unknownness(self, points, psi=None) -> np.ndarray:
        """1 - psi (``psi`` if given), oriented like the other classifiers."""
        return 1.0 - (self.membership_batch(points) if psi is None else psi)

    def flags(self, points, grid, psi=None) -> dict:
        """Unknown-decision masks for an (m, p) array at each delta of
        ``grid``; psi of the rows is ``psi`` if given."""
        if psi is None:
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
                "with an explicit delta to get binary decisions")
        psi = self.membership_batch(points)
        return {"verdict": np.where(psi >= self.delta, KNOWN, UNKNOWN),
                "score": psi, "psi": psi}

    # -- serialization ----------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "sigmas": self.sigmas.tolist(),
            "alphas": self.alphas.tolist(),
            "k": self.k,
            "delta": self.delta,
        }

    @classmethod
    def from_payload(cls, payload: dict, metric: DistanceMetric, points) -> "EvmModel":
        """The model :meth:`to_payload` wrote, on the container's ``points``."""
        delta = (None if payload.get("delta") is None
                 else payload_level(payload, "delta"))
        n = points.shape[0]
        return cls(points, payload_array(payload, "sigmas", n),
                   payload_array(payload, "alphas", n),
                   payload_number(payload, "k", 1, n - 1, integer=True),
                   delta, metric)


def fit(data: LabeledDataset, k: int | None = None, delta: float | None = None,
        metric: DistanceMetric = EUCLIDEAN, neighbours=None) -> EvmModel:
    """Fit one endpoint-0 reversed Weibull per training point on its k
    smallest cross-class margin half-distances, ascending.

    Requires at least two classes and k no bigger than the smallest
    cross-class sample. Fit failures name the offending training point.
    ``neighbours`` (see :func:`openevt.gpdc.fit`) gives (n, k or more) unhalved
    margins, else UsageError; the fit reads their first k in place and halves sigma.
    """
    if data.n_classes < 2:
        raise DataError(
            "the extreme value machine needs at least two training classes: "
            "margins are distances to other-class points")
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
            "every point needs k margin distances to other classes")

    check_level(delta, "delta")
    margins = (neighbours or NeighborIndex.training_pass(
        data.points, metric, 0, data.label_ids, k))[2]  # unhalved, read in place
    if np.ndim(margins) != 2 or margins.shape[0] != n or margins.shape[1] < k:
        raise UsageError(f"neighbours needs ({n}, >= {k}) margins, got {np.shape(margins)}")
    margins = margins[:, :k]
    zero_rows = np.flatnonzero(margins[:, 0] == 0)
    if zero_rows.size:
        i = int(zero_rows[0])
        raise FitError(
            f"zero margin distance at training point {i}: it coincides with "
            "a point of another class",
            diagnostics={"point": i})
    refuse_overflow(margins, "margin")
    # rows are scaled by their maximum: sigma / 2 is bitwise the fit of normal half-margins
    sigmas, alphas, ok, iters = fit_weibull_rows(margins)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise FitError(
            f"margin Weibull fit failed at training point {i}",
            diagnostics={"point": i, "iterations": int(iters[i]),
                         "k": k, "spread": float(np.ptp(margins[i])) / 2.0})
    return EvmModel(points=data.points, sigmas=sigmas / 2.0, alphas=alphas,
                    k=k, delta=delta, metric=metric)

