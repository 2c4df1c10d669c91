import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openevt import gpdc
from openevt.data import LabeledDataset
from openevt.errors import FitError, UsageError
from openevt.evt import (ReversedWeibull, default_tail_count,
                         fit_weibull_rows, hill_shape, reversed_weibull_cdf,
                         reversed_weibull_fit,
                         reversed_weibull_fit_free_endpoint, tail_stats)


def oracle_shape(R, k):
    """Independent one-line evaluation: mean log of the k largest over the
    (k+1)-th largest."""
    ordered = sorted(R)
    u = ordered[len(R) - k - 1]
    return sum(math.log(ordered[len(R) - i] / u) for i in range(1, k + 1)) / k


class TestHillShape:
    def test_hand_worked_example(self):
        est = hill_shape([-4.0, -2.0, -1.0], 2)
        assert est.u == -4.0
        assert est.xi_hat == pytest.approx(-1.039721, abs=1e-6)
        assert est.k == 2 and est.n == 3

    def test_exceedances_equal_to_threshold_give_zero(self):
        est = hill_shape([-1.0, -1.0, -1.0, -1.0], 3)
        assert est.u == -1.0
        assert est.xi_hat == 0.0

    def test_rejects_nonnegative_values(self):
        with pytest.raises(UsageError):
            hill_shape([-1.0, 0.0, -2.0], 1)
        with pytest.raises(UsageError):
            hill_shape([-1.0, 0.5, -2.0], 1)

    def test_rejects_nan_like_a_nonnegative_value(self):
        # NaN compares false both ways, so it is neither negative nor >= 0
        for R in ([-1.0, np.nan, -2.0, -3.0], [np.nan] * 4):
            with pytest.raises(UsageError, match="strictly negative"):
                hill_shape(R, 1)

    def test_rejects_k_too_large(self):
        with pytest.raises(UsageError):
            hill_shape([-1.0, -2.0], 2)

    def test_estimate_reproducible_from_exceedances(self):
        rng = np.random.default_rng(0)
        R = -rng.uniform(0.1, 5.0, size=50)
        est = hill_shape(R, 12)
        again = np.log(est.exceedances / est.u).mean()
        assert est.xi_hat == again

    def test_nonpositive_always(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            R = -rng.uniform(1e-6, 100.0, size=rng.integers(3, 40))
            k = int(rng.integers(1, len(R)))
            assert hill_shape(R, k).xi_hat <= 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        vals=st.lists(st.floats(min_value=1e-6, max_value=1e6),
                      min_size=2, max_size=50),
        k_seed=st.integers(min_value=0, max_value=1_000_000),
    )
    def test_oracle_equivalence(self, vals, k_seed):
        R = [-v for v in vals]
        k = 1 + k_seed % (len(R) - 1) if len(R) > 1 else 1
        est = hill_shape(R, k)
        assert est.xi_hat == pytest.approx(oracle_shape(R, k), abs=1e-12)

    def test_uniform_square_interior_point(self):
        # 20000 uniform samples on the unit square, fixed interior query,
        # k = 200: the shape settles near -1/p = -0.5.
        rng = np.random.default_rng(123)
        pts = rng.uniform(0.0, 1.0, size=(20_000, 2))
        q = np.array([0.45, 0.55])
        d = np.sqrt(((pts - q) ** 2).sum(axis=1))
        est = hill_shape(-d, 200)
        assert -0.65 <= est.xi_hat <= -0.35

    def test_hill_curve(self):
        # The hill plot's k sweep: tail_stats on the first k+1 distances of
        # one row is hill_shape's estimate at each k.
        rng = np.random.default_rng(2)
        d = np.sort(rng.uniform(0.5, 3.0, size=100))
        for k in (5, 10, 20):
            _, pxi, _ = tail_stats(d[None, :k + 1], k, 1, 0.001, 100)
            assert pxi[0] == hill_shape(-d, k).xi_hat


def tail_row(xi: float, u: float, k: int) -> np.ndarray:
    """An ascending (1, k+1) distance row whose Hill estimate is ``xi`` and
    whose threshold distance is -u: k equal exceedances at -u * e^xi."""
    return np.array([[-u * math.exp(xi)] * k + [-u]])


def radius(xi: float, u: float, k: int, n: int, gamma: float) -> float:
    """The ball radius -q_gamma that tail_stats computes (p = 1)."""
    return float(tail_stats(tail_row(xi, u, k), k, 1, gamma, n)[2][0])


def survival(xi: float, u: float, k: int, n: int, x: float) -> float:
    """Closed-form P(-D > x) = (k/n) (x/u)^(-1/xi) of the GPD tail."""
    return (k / n) * (x / u) ** (-1.0 / xi)


class TestGpdTail:
    """The GPD tail's closed forms, checked on the radius -q_gamma that
    ``tail_stats`` computes."""

    def test_survival_formula(self):
        # P(-D > -0.25) = 0.00625 for xi=-0.5, u=-1, k=100, n=1000, so the
        # radius at gamma = 0.00625 is 0.25.
        assert radius(-0.5, -1.0, 100, 1000, 0.00625) == pytest.approx(0.25)

    def test_continuity_at_threshold(self):
        # gamma -> k/n puts the quantile at the threshold u.
        r = radius(-0.4, -2.0, 50, 500, (50 / 500) * (1 - 1e-12))
        assert r == pytest.approx(2.0, rel=1e-9)

    def test_monotone_nonincreasing(self):
        # More tail mass (larger gamma) never shrinks the ball.
        gammas = np.linspace(1e-6, 40 / 400 * (1 - 1e-9), 500)
        radii = [radius(-0.7, -3.0, 40, 400, g) for g in gammas]
        assert all(a <= b for a, b in zip(radii, radii[1:]))

    def test_quantile_formula(self):
        assert radius(-0.5, -0.5, 100, 1000, 1 / 1000) == pytest.approx(0.05)

    def test_quantile_collapses_to_threshold_as_xi_vanishes(self):
        for xi in (-1e-3, -1e-6, 0.0):
            assert radius(xi, -0.8, 100, 1000, 1 / 1000) == pytest.approx(
                0.8, rel=1e-2)

    def test_quantile_survival_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            xi, u = -rng.uniform(0.05, 1.5), -rng.uniform(0.1, 5.0)
            k, n = int(rng.integers(2, 100)), int(rng.integers(200, 5000))
            gamma = rng.uniform(0.01, 0.99) * k / n
            _, xi_hat, r = tail_stats(tail_row(xi, u, k), k, 1, gamma, n)
            assert survival(xi_hat[0], u, k, n, -r[0]) == pytest.approx(
                gamma, rel=1e-12)

    def test_quantile_domain_error(self):
        # gamma must lie in (0, k/n); the fit refuses anything else.
        data = LabeledDataset(np.random.default_rng(0).normal(size=(100, 2)),
                              ["a"] * 100)
        with pytest.raises(UsageError):
            gpdc.fit(data, k=10, gamma=0.2)  # gamma >= k/n
        with pytest.raises(UsageError):
            gpdc.fit(data, k=10, gamma=0.0)


@pytest.mark.parametrize("refused,message", [
    (lambda: hill_shape([[-1.0, -2.0, -3.0]], 1), "1-d array"),
    (lambda: hill_shape([-1.0, -2.0, -3.0], 1.0), "positive integer, got 1.0"),
    (lambda: reversed_weibull_fit_free_endpoint([-1.0, -2.0]), "at least 3 values"),
    (lambda: fit_weibull_rows(np.ones(4)), "2-d array"),
    (lambda: fit_weibull_rows(np.array([[1.0, 0.0, 2.0]])), "must be positive"),
    (lambda: fit_weibull_rows(np.array([[1.0, -2.0, 2.0]])), "must be positive"),
], ids=["hill-2-d", "hill-float-k", "free-endpoint-2-values", "weibull-1-d",
        "weibull-zero", "weibull-negative"])
def test_refused_with_usage_error(refused, message):
    with pytest.raises(UsageError, match=message):
        refused()


class TestReversedWeibullCdf:
    def test_endpoint_value(self):
        w = ReversedWeibull(sigma=2.0, alpha=1.5)
        assert reversed_weibull_cdf(w, 0.0) == 1.0
        assert reversed_weibull_cdf(w, 1.0) == 1.0

    def test_unit_argument(self):
        w = ReversedWeibull(sigma=2.0, alpha=1.5)
        assert reversed_weibull_cdf(w, -2.0) == pytest.approx(math.exp(-1))

    def test_monotone_on_grid(self):
        w = ReversedWeibull(sigma=0.7, alpha=2.3, endpoint=0.0)
        zs = np.linspace(-30.0, 1.0, 1000)
        vals = reversed_weibull_cdf(w, zs)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] >= 0.0 and vals[-1] == 1.0

    def test_zero_where_the_power_overflows(self):
        # ((0 - z) / 1) ** 5e4 overflows at z = -2: W is exactly 0, unwarned
        w = ReversedWeibull(sigma=1.0, alpha=5e4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reversed_weibull_cdf(w, -2.0) == 0.0
            vals = reversed_weibull_cdf(w, np.array([-2.0, -1e300, -1.0, -0.5]))
        assert vals.tolist() == [0.0, 0.0, math.exp(-1.0), 1.0]

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 60.0, 5e4, 1e12, 9e17, 1e20])
    def test_equals_the_unbounded_power(self, alpha):
        # the same arithmetic with the power left to overflow, bit for bit; from
        # alpha = 1e18 no cap exists (the double after 1 overflows past 3.2e18)
        w = ReversedWeibull(sigma=0.7, alpha=alpha, endpoint=0.25)
        scaled = np.concatenate([np.geomspace(1e-300, 1e300, 2001), [0.0, 1.0, np.inf],
                                 1.0 + np.arange(-50, 51) * np.finfo(float).eps])
        z = w.endpoint - scaled * w.sigma
        with np.errstate(over="ignore"):
            want = np.exp(-np.power(np.maximum((w.endpoint - z) / w.sigma, 0.0), alpha))
        with np.errstate(over="ignore" if alpha >= 1e18 else "raise"):
            assert reversed_weibull_cdf(w, z).tobytes() == want.tobytes()


class TestReversedWeibullFit:
    def test_recovers_known_parameters(self):
        rng = np.random.default_rng(0)
        w = 2.0 * rng.weibull(1.5, size=5000)
        fit = reversed_weibull_fit(-w, endpoint=0.0)
        assert 1.8 <= fit.sigma <= 2.2
        assert 1.35 <= fit.alpha <= 1.65

    def test_exponential_case(self):
        rng = np.random.default_rng(3)
        w = rng.exponential(scale=1.7, size=20_000)
        fit = reversed_weibull_fit(-w, endpoint=0.0)
        assert fit.alpha == pytest.approx(1.0, abs=0.05)
        assert fit.sigma == pytest.approx(1.7, rel=0.05)

    def test_zero_spread_fails(self):
        with pytest.raises(FitError):
            reversed_weibull_fit(np.full(50, -2.0))

    def test_values_at_endpoint_rejected(self):
        with pytest.raises(UsageError):
            reversed_weibull_fit(np.array([-1.0, 0.0, -2.0]))

    def test_too_few_samples(self):
        with pytest.raises(UsageError):
            reversed_weibull_fit(np.array([-1.0, -2.0]))

    def test_sample_refit_round_trip(self):
        # Draw from a fitted CDF and refit: parameters within 10%.
        rng = np.random.default_rng(8)
        truth = ReversedWeibull(sigma=1.3, alpha=2.4, endpoint=0.0)
        u = rng.uniform(size=10_000)
        z = -truth.sigma * (-np.log(u)) ** (1.0 / truth.alpha)
        refit = reversed_weibull_fit(z, endpoint=0.0)
        assert abs(refit.sigma - truth.sigma) / truth.sigma < 0.10
        assert abs(refit.alpha - truth.alpha) / truth.alpha < 0.10

    def test_nonzero_endpoint(self):
        rng = np.random.default_rng(9)
        w = 0.8 * rng.weibull(3.0, size=8000)
        fit = reversed_weibull_fit(5.0 - w, endpoint=5.0)
        assert fit.endpoint == 5.0
        assert fit.sigma == pytest.approx(0.8, rel=0.1)
        assert fit.alpha == pytest.approx(3.0, rel=0.1)

    def test_row_solver_matches_single(self):
        rng = np.random.default_rng(10)
        w = 1.5 * rng.weibull(2.0, size=(6, 200))
        sigma, alpha, ok, _ = fit_weibull_rows(w)
        assert ok.all()
        for i in range(6):
            single = reversed_weibull_fit(-w[i], endpoint=0.0)
            assert single.sigma == pytest.approx(sigma[i], rel=1e-9)
            assert single.alpha == pytest.approx(alpha[i], rel=1e-9)

    def test_scale_equivariant_down_to_the_floor(self):
        # The floor applies after normalising by the sample maximum, so a
        # sample scaled to 1e-305 fits the same shape.
        w = np.random.default_rng(0).weibull(2.0, 2000)
        scales = (1.0, 1e-290, 1e-300, 1e-305)
        fits = [reversed_weibull_fit(-c * w) for c in scales]
        for c, fit in zip(scales, fits):
            assert fit.alpha == pytest.approx(fits[0].alpha, rel=1e-12)
            assert fit.sigma / c == pytest.approx(fits[0].sigma, rel=1e-12)

    def test_large_alpha_sample(self):
        # Tight samples (tiny coefficient of variation) still converge.
        rng = np.random.default_rng(11)
        w = 8.0 + 0.05 * rng.standard_normal(2000)
        fit = reversed_weibull_fit(-w, endpoint=0.0)
        assert fit.alpha > 50


def test_free_endpoint_variant():
    rng = np.random.default_rng(12)
    w = 2.0 * rng.weibull(1.8, size=8000)
    fit = reversed_weibull_fit_free_endpoint(3.0 - w)
    assert fit.endpoint == pytest.approx(3.0, abs=0.2)
    assert fit.sigma == pytest.approx(2.0, rel=0.2)
    with pytest.raises(FitError):
        reversed_weibull_fit_free_endpoint(np.full(10, -1.0))


def weibull_loglik(z, fit):
    """Reversed-Weibull log-likelihood of z, computed independently."""
    t = (fit.endpoint - z) / fit.sigma
    return float(np.sum(np.log(fit.alpha / fit.sigma) + (fit.alpha - 1) * np.log(t)
                        - t ** fit.alpha))


def regular_sample(seed):
    """Seeded reversed-Weibull sample with shape in (1.1, 6), where the
    three-parameter MLE is regular."""
    rng = np.random.default_rng(seed)
    shape, n = rng.uniform(1.1, 6.0), int(rng.integers(20, 2000))
    scale, loc = 10.0 ** rng.uniform(-2, 2), rng.uniform(-50, 50)
    return loc - scale * rng.weibull(shape, size=n)


def assert_finite(fit):
    assert all(math.isfinite(v) for v in (fit.sigma, fit.alpha, fit.endpoint))


class TestFreeEndpoint:
    @pytest.mark.parametrize("seed", range(12))
    def test_likelihood_matches_or_beats_scipy(self, seed):
        from scipy.stats import weibull_max

        z = regular_sample(seed)
        shape, loc, scale = weibull_max.fit(z)
        try:
            fit = reversed_weibull_fit_free_endpoint(z)
        except FitError as exc:
            # A small sample can look Gumbel: the likelihood then rises with
            # the endpoint, and scipy's endpoint runs off as well.
            assert "no finite endpoint" in str(exc)
            assert loc - z.max() > 1e3 * (z.max() - z.min())
            return
        assert_finite(fit)
        assert fit.endpoint > z.max() and fit.sigma > 0 and fit.alpha > 0
        oracle = weibull_loglik(z, ReversedWeibull(scale, shape, loc))
        assert weibull_loglik(z, fit) >= oracle - 1e-9 * abs(oracle)

    @pytest.mark.parametrize("name,z", [
        ("shape 0.8", -np.random.default_rng(1).weibull(0.8, size=2000)),
        ("two-valued", np.array([-1.0] * 10 + [-2.0] * 10)),
        ("3-point", np.array([-1.0, -2.0, -3.5])),
        ("near-degenerate", np.array([-1.0] * 99 + [-1.0 - 1e-12])),
    ])
    def test_nonregular_samples_fail_at_the_lower_edge(self, name, z):
        with pytest.raises(FitError, match="nears max z") as exc:
            reversed_weibull_fit_free_endpoint(z)
        diag = exc.value.diagnostics
        assert diag["n"] == z.shape[0]
        assert 0 < diag["shape"] < 1
        # the lowest candidate, or the first float above max z
        ulp = np.nextafter(z.max(), np.inf) - z.max()
        assert 0 < diag["endpoint_above_max"] <= max(1e-7 * (z.max() - z.min()), ulp)

    def test_no_finite_endpoint(self):
        z = np.random.default_rng(3).exponential(size=500)
        with pytest.raises(FitError, match="no finite endpoint") as exc:
            reversed_weibull_fit_free_endpoint(z)
        assert exc.value.diagnostics["n"] == 500

    @pytest.mark.parametrize("z", [np.full(10, -1.0), np.array([1.0, np.nan, 2.0]),
                                   np.array([1.0, np.inf, 2.0]),
                                   np.array([-1e308, 1e308, 0.0])])
    def test_no_representable_candidate(self, z):
        with pytest.raises(FitError, match="no candidate endpoint") as exc:
            reversed_weibull_fit_free_endpoint(z)
        assert exc.value.diagnostics == {"n": z.shape[0], "candidates": 0}

    def test_location_offset_shifts_the_fit(self):
        rng = np.random.default_rng(12)
        z = 3.0 - 2.0 * rng.weibull(1.8, size=2000)
        fit = reversed_weibull_fit_free_endpoint(z)
        shifted = reversed_weibull_fit_free_endpoint(z + 1e8)
        assert_finite(shifted)
        assert shifted.sigma == pytest.approx(fit.sigma, rel=1e-6)
        assert shifted.alpha == pytest.approx(fit.alpha, rel=1e-6)
        assert shifted.endpoint - 1e8 == pytest.approx(fit.endpoint, rel=1e-6)


def test_default_tail_count_rule():
    assert default_tail_count(100) == 10
    assert default_tail_count(4000) == 10
    assert default_tail_count(8800) == 22
    assert default_tail_count(20_000) == 50


def test_shape_consistency_interior_point_smoke():
    # p * xi_hat near -1 for an interior query; tighter runs live in the
    # acceptance suite.
    n, p = 2000, 3
    k = math.ceil(n ** 0.6)
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(n, p))
    d = np.sqrt(((pts - np.zeros(p)) ** 2).sum(axis=1))
    est = hill_shape(-d, k)
    assert abs(p * est.xi_hat + 1.0) < 0.45


def test_shape_vanishes_for_separated_point_smoke():
    n = 2000
    k = math.ceil(n ** 0.6)
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(n, 2))
    q = np.array([200.0, 0.0])
    d = np.sqrt(((pts - q) ** 2).sum(axis=1))
    est = hill_shape(-d, k)
    assert abs(est.xi_hat) < 0.05
