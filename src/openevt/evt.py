"""Extreme value primitives: the tail shape MLE and reversed-Weibull
fitting.

All the estimators here work on negated distances R = -D, which are bounded
above by zero. The shape estimator averages log-ratios of the k upper order
statistics to the threshold order statistic R_(n-k):

    xi_hat = (1/k) * sum_{i=1..k} log(R_(n+1-i) / u),    u = R_(n-k),

which is nonpositive by construction. The implied tail approximation above
the threshold and its quantile (``gpdc.tail_stats`` computes -q_gamma, the
ball radius) are

    P(-D > x) ~= (k/n) * (x/u)^(-1/xi_hat),     x in (u, 0),
    q_gamma    = u * (n*gamma/k)^(-xi_hat),     0 < gamma < k/n.

The reversed Weibull with a fixed upper endpoint b has CDF

    W(z) = exp{ -((b - z)/sigma)^alpha }   for z < b,   1 otherwise,

and is fitted by profile maximum likelihood: sigma has a closed form given
alpha, and alpha is found by a safeguarded Newton iteration. A free endpoint
is profiled by the same solver over candidates b > max z; a sample whose
likelihood has no interior maximum (shape <= 1) fails loudly with FitError.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, UsageError

# Default exceedance count: the 0.25% biggest negated distances, floored.
DEFAULT_TAIL_FRACTION = 0.0025
MIN_TAIL_COUNT = 10

WEIBULL_MAX_ITER = 200
WEIBULL_TOL = 1e-10
# Samples normalized by their row maximum are floored at this before taking
# logs, so that duplicate-point artifacts cannot inject -inf into the
# likelihood.
WEIBULL_FLOOR = 1e-300
# Free-endpoint candidates: max z + spread * 10^u, u on a grid over decades.
ENDPOINT_DECADES = (-8.0, 3.0)
ENDPOINT_GRID = 33
ENDPOINT_ROUNDS = 3


def tail_count(fraction: float, n: int) -> int:
    """Exceedance count for a tail fraction of n points: ceil(fraction * n), >= 1."""
    return max(1, int(math.ceil(fraction * n)))


def default_tail_count(n: int) -> int:
    """Default k for a sample of size n: max(10, ceil(0.0025 * n))."""
    return max(MIN_TAIL_COUNT, tail_count(DEFAULT_TAIL_FRACTION, n))


@dataclass(frozen=True)
class ShapeEstimate:
    """Tail-shape MLE for negated distances: xi_hat <= 0, threshold u < 0,
    k exceedances out of n, with the exceedances kept for reproducibility."""

    xi_hat: float
    k: int
    u: float
    n: int
    exceedances: np.ndarray


@dataclass(frozen=True)
class ReversedWeibull:
    """Reversed Weibull with fixed upper endpoint (default 0): scale sigma,
    shape alpha, both positive."""

    sigma: float
    alpha: float
    endpoint: float = 0.0


def hill_shape(R, k: int) -> ShapeEstimate:
    """Shape MLE from the k largest of the strictly negative values R.

    The threshold is the order statistic u = R_(n-k); the estimate is the
    mean log-ratio of the k exceedances to u. Zero or positive entries are
    rejected: callers must short-circuit coincident points first.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 1:
        raise UsageError("R must be a 1-d array of negated distances")
    n = R.shape[0]
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise UsageError(f"k must be a positive integer, got {k}")
    if k >= n:
        raise UsageError(f"k must be smaller than the sample size ({k} >= {n})")
    if np.any(R >= 0):
        raise UsageError("all values must be strictly negative")
    ordered = np.sort(R)
    u = float(ordered[n - k - 1])
    exceedances = ordered[n - k:]
    xi = float(np.mean(np.log(exceedances / u)))
    exceedances = np.array(exceedances)
    exceedances.setflags(write=False)
    return ShapeEstimate(xi_hat=xi, k=int(k), u=u, n=n, exceedances=exceedances)


def refuse_overflow(d: np.ndarray, what: str):
    """Raise FitError naming the first training point whose row of ``d``
    (an entry, or a row of entries, per training point) holds a distance
    that overflowed to inf: no Weibull fits such a sample."""
    rows = np.flatnonzero(np.isinf(d.reshape(d.shape[0], -1)).any(axis=1))
    if rows.size:
        i = int(rows[0])
        raise FitError(
            f"{what} distance overflows to inf at training point {i}: "
            "rescale the features to a smaller magnitude",
            diagnostics={"point": i})


def reversed_weibull_cdf(w: ReversedWeibull, z):
    """W(z): exp{-((endpoint - z)/sigma)^alpha} below the endpoint, else 1."""
    z_arr = np.asarray(z, dtype=float)
    # Clipping at 0 makes W exactly 1 from the endpoint on: 0^alpha = 0.
    scaled = np.maximum((w.endpoint - z_arr) / w.sigma, 0.0)
    with np.errstate(over="ignore"):
        vals = np.exp(-np.power(scaled, w.alpha))
    return float(vals) if z_arr.ndim == 0 else vals


def reversed_weibull_fit(z, endpoint: float = 0.0) -> ReversedWeibull:
    """Two-parameter MLE of (sigma, alpha) with the endpoint held fixed.

    The sample must lie strictly below the endpoint and contain at least 3
    values. A zero-spread sample has no MLE and raises FitError, as does
    hitting the iteration cap.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.shape[0] < 3:
        raise UsageError("need a 1-d sample of at least 3 values")
    if np.any(z >= endpoint):
        raise UsageError(f"all values must lie strictly below the endpoint {endpoint}")
    w = endpoint - z
    sigma, alpha, ok, iters = fit_weibull_rows(w[None, :])
    if not ok[0]:
        raise FitError(
            "reversed Weibull fit failed (zero spread or no convergence)",
            diagnostics={
                "n": int(z.shape[0]),
                "iterations": int(iters[0]),
                "min": float(w.min()),
                "max": float(w.max()),
                "last_alpha": float(alpha[0]),
            },
        )
    return ReversedWeibull(sigma=float(sigma[0]), alpha=float(alpha[0]),
                           endpoint=float(endpoint))


def reversed_weibull_fit_free_endpoint(z) -> ReversedWeibull:
    """Three-parameter variant: the endpoint b > max z is profiled out, each
    round's candidates fitted in one :func:`fit_weibull_rows` call. FitError
    where there is no MLE: no candidate fits (zero spread), the highest wins
    (no finite endpoint), or the lowest (shape <= 1, the likelihood unbounded
    as b nears max z; Smith, Biometrika 1985)."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.shape[0] < 3:
        raise UsageError("need a 1-d sample of at least 3 values")
    n, top, (lo, hi) = z.shape[0], z.max(), ENDPOINT_DECADES
    u, h = np.linspace(lo, hi, ENDPOINT_GRID), (hi - lo) / (ENDPOINT_GRID - 1)
    # Candidates that round onto max z, overflow or fail to converge drop out.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for round_ in range(ENDPOINT_ROUNDS + 1):
            b = top + (top - z.min()) * 10.0 ** u
            keep = (b > top) & np.isfinite(b - z.min())
            u, b = u[keep], b[keep]
            w = b[:, None] - z
            sigma, alpha, ok, _ = fit_weibull_rows(w)
            if not ok.any():
                raise FitError("free-endpoint Weibull fit failed: no candidate "
                               "endpoint above max z fits",
                               diagnostics={"n": n, "candidates": int(b.size)})
            loglik = n * (np.log(alpha) - alpha * np.log(sigma) - 1.0) \
                + (alpha - 1.0) * np.log(w).sum(axis=1)
            i = int(np.argmax(np.where(ok, loglik, -np.inf)))
            if round_ == 0 and i in (0, b.size - 1):
                reason = ("the likelihood grows as the endpoint nears max z"
                          if i == 0 else "no finite endpoint")
                raise FitError(f"free-endpoint Weibull fit failed: {reason}",
                               diagnostics={"n": n, "shape": float(alpha[i]),
                                            "endpoint_above_max": float(b[i] - top)})
            u, h = u[i] + np.linspace(-h, h, ENDPOINT_GRID), h * 2 / (ENDPOINT_GRID - 1)
    return ReversedWeibull(sigma=float(sigma[i]), alpha=float(alpha[i]),
                           endpoint=float(b[i]))


def fit_weibull_rows(w: np.ndarray):
    """Profile-likelihood Weibull MLE applied to each row of ``w``.

    Every row is an independent positive sample. Returns (sigma, alpha,
    converged, iterations) arrays. This is the single solver behind all
    endpoint-fixed fits in the package; per-row vectorization exists because
    some callers fit thousands of equally-sized samples at once.

    For a fixed alpha the scale has the closed form
    sigma = mean(w^alpha)^(1/alpha); substituting it into the log-likelihood
    leaves a one-dimensional score equation in alpha,

        S1(a)/S0(a) - 1/a - mean(log w) = 0,
        S0 = sum w^a,  S1 = sum w^a log w,

    solved by Newton steps with halving whenever a step would leave (0, inf).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise UsageError("w must be a 2-d array, one sample per row")
    if np.any(w <= 0):
        raise UsageError("all sample values must be positive")
    m, _ = w.shape
    # Scale invariance: normalize by the row maximum so w^alpha cannot
    # overflow, then floor; sigma is rescaled at the end.
    wmax = w.max(axis=1, keepdims=True)
    wn = np.maximum(w / wmax, WEIBULL_FLOOR)
    logw = np.log(wn)
    mean_log = logw.mean(axis=1)
    sd_log = logw.std(axis=1)

    degenerate = sd_log == 0.0
    # Moment-based starting value; pi/sqrt(6) is the standard deviation of
    # the Gumbel that log w follows under the Weibull model.
    alpha = np.where(degenerate, 1.0, (math.pi / math.sqrt(6.0)) / np.where(sd_log > 0, sd_log, 1.0))
    converged = np.zeros(m, dtype=bool)
    iterations = np.zeros(m, dtype=int)

    active = ~degenerate
    for it in range(WEIBULL_MAX_ITER):
        if not active.any():
            break
        a = alpha[active]
        wa = np.power(wn[active], a[:, None])
        s0 = wa.sum(axis=1)
        s1 = (wa * logw[active]).sum(axis=1)
        s2 = (wa * logw[active] ** 2).sum(axis=1)
        r1 = s1 / s0
        f = r1 - 1.0 / a - mean_log[active]
        fp = (s2 / s0 - r1 ** 2) + 1.0 / a ** 2
        step = f / fp
        new = a - step
        # Halve any step that would leave the positive half-line.
        bad = new <= 0
        while bad.any():
            step[bad] *= 0.5
            new = a - step
            bad = new <= 0
        done = np.abs(new - a) < WEIBULL_TOL
        idx = np.flatnonzero(active)
        alpha[idx] = new
        iterations[idx] += 1
        converged[idx[done]] = True
        active[idx[done]] = False

    sigma_n = np.power(np.power(wn, alpha[:, None]).mean(axis=1), 1.0 / alpha)
    sigma = sigma_n * wmax[:, 0]
    converged &= np.isfinite(alpha) & np.isfinite(sigma) & (alpha > 0) & (sigma > 0)
    return sigma, alpha, converged, iterations
