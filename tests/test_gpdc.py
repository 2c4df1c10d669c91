import numpy as np
import pytest

from helpers import gaussian_blobs
from openevt import gpdc
from openevt.data import LabeledDataset
from openevt.errors import FitError, UsageError
from openevt.gpdc import (ACCEPTED, COINCIDENT_KNOWN, REJECTED_RADIUS,
                          REJECTED_SHAPE)
from openevt.serialize import load_model, save_model


@pytest.fixture(scope="module")
def blobs():
    return gaussian_blobs(0, [(0.0, 0.0), (10.0, 0.0)], n_per=300)


@pytest.fixture(scope="module")
def model(blobs):
    return gpdc.fit(blobs, k=20, alpha=0.05)


class TestFit:
    def test_self_flag_fraction_bounded(self, model, blobs):
        cal = model.calibration
        finite = np.isfinite(cal.pxi_stats)
        flagged = finite & ((cal.pxi_stats >= model.shape_threshold)
                            | (cal.radius_stats > model.radius_threshold))
        assert flagged.mean() <= 0.05 + 1.0 / blobs.n

    def test_alpha_one_flags_most_points(self, blobs):
        m = gpdc.fit(blobs, k=20, alpha=1.0)
        cal = m.calibration
        flagged = (cal.pxi_stats >= m.shape_threshold) \
            | (cal.radius_stats > m.radius_threshold)
        assert flagged.mean() > 0.5

    def test_refit_deterministic(self, blobs):
        a = gpdc.fit(blobs, k=20, alpha=0.05)
        b = gpdc.fit(blobs, k=20, alpha=0.05)
        assert a.shape_threshold == b.shape_threshold
        assert a.radius_threshold == b.radius_threshold

    def test_preconditions(self, blobs):
        with pytest.raises(UsageError):
            gpdc.fit(blobs, k=blobs.n - 1)
        with pytest.raises(UsageError):
            gpdc.fit(blobs, k=20, alpha=0.0)
        with pytest.raises(UsageError):
            gpdc.fit(blobs, k=20, gamma=0.5)  # gamma >= k/n

    def test_all_identical_points_degenerate(self):
        data = LabeledDataset(np.zeros((30, 2)), ["a"] * 30)
        with pytest.raises(FitError):
            gpdc.fit(data, k=5)

    def test_default_k_rule(self, blobs):
        m = gpdc.fit(blobs)
        assert m.k == 10  # max(10, ceil(0.0025 * 600))

    def test_gamma_default(self, model, blobs):
        assert model.gamma == 1.0 / blobs.n

    def test_k1_needs_explicit_gamma(self, blobs):
        # the default gamma = 1/n lies outside (0, k/n) when k = 1
        with pytest.raises(UsageError, match=r"k=1 .*k >= 2.*gamma < 1/n"):
            gpdc.fit(blobs, k=1)
        m = gpdc.fit(blobs, k=1, gamma=0.5 / blobs.n)
        assert (m.k, m.gamma) == (1, 0.5 / blobs.n)


class TestScore:
    def test_training_point_is_coincident_known(self, model, blobs):
        verdict, ev = model.score(blobs.points[0])
        assert verdict.label == "known"
        assert ev.stage == COINCIDENT_KNOWN
        assert ev.radius is None
        assert verdict.score == 0.0

    def test_far_point_rejected_at_shape_stage(self, model):
        verdict, ev = model.score(np.array([500.0, 500.0]))
        assert verdict.is_unknown
        assert ev.stage == REJECTED_SHAPE
        assert ev.radius is None
        assert ev.p_xi >= model.shape_threshold
        assert abs(ev.xi_hat) < 0.1

    def test_interior_point_accepted(self, model):
        verdict, ev = model.score(np.array([0.3, -0.2]))
        assert verdict.label == "known"
        assert ev.stage == ACCEPTED
        assert -0.9 < ev.xi_hat < -0.2  # near -1/p = -0.5
        assert ev.radius is not None

    def test_dimension_mismatch(self, model):
        with pytest.raises(UsageError):
            model.score(np.array([0.0, 0.0, 0.0]))

    def test_decision_consistency(self, model):
        rng = np.random.default_rng(5)
        pts = np.vstack([rng.normal(size=(100, 2)),
                         rng.normal(size=(50, 2)) * 8 + 20])
        s, t = model.shape_threshold, model.radius_threshold
        for x in pts:
            verdict, ev = model.score(x)
            if ev.stage == COINCIDENT_KNOWN:
                continue
            coincident, pxi, radius = model.decision_stats(x[None, :])
            expected = (pxi[0] >= s) or (radius[0] > t)
            assert verdict.is_unknown == expected

    def test_radius_stage_reachable(self, model):
        # A point in a moderate-density gap: shape can look fine while the
        # density ball is too large. Scan a segment between the blobs.
        found = False
        for frac in np.linspace(0.25, 0.75, 11):
            x = np.array([10.0 * frac, 0.0])
            verdict, ev = model.score(x)
            if ev.stage == REJECTED_RADIUS:
                found = True
                assert verdict.is_unknown
                assert ev.radius > model.radius_threshold
        assert found

    def test_score_issues_exactly_k_plus_1_distance_queries(self, model):
        before = model.index.counters.snapshot()
        model.score(np.array([1.0, 1.0]))
        after = model.index.counters.snapshot()
        assert after[1] - before[1] == model.k + 1
        assert after[0] - before[0] == 1


class TestContinuousScore:
    """The continuous score of one point is ``unknownness`` on a one-row
    batch."""

    @staticmethod
    def one(model, x0):
        return float(model.unknownness(np.asarray(x0, dtype=float)[None, :])[0])

    def test_coincident_scores_zero(self, model, blobs):
        assert self.one(model, blobs.points[3]) == 0.0

    def test_far_point_scores_near_one(self, model):
        assert self.one(model, [500.0, 500.0]) > 0.99

    def test_monotone_along_ray(self, blobs):
        m = gpdc.fit(blobs, k=20, alpha=0.05)
        radii = np.arange(2.0, 13.0, 1.0)
        scores = [self.one(m, [0.0, r]) for r in radii]
        assert all(b >= a for a, b in zip(scores, scores[1:]))

    def test_matches_batch_unknownness(self, model):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(40, 2)) * 4
        batch = model.unknownness(pts)
        single = np.array([self.one(model, x) for x in pts])
        np.testing.assert_array_equal(batch, single)
        # the per-row score of a verdict is the same number
        assert model.score(pts[0])[0].score == batch[0]


class TestRecalibration:
    """Thresholds at another alpha are the quantiles of the stored
    leave-one-out statistics, which do not depend on alpha."""

    @staticmethod
    def quantiles(model, alpha):
        level = 1.0 - alpha / 2.0
        cal = model.calibration
        return tuple(float(np.quantile(v[np.isfinite(v)], level, method="higher"))
                     for v in (cal.pxi_stats, cal.radius_stats))

    def test_thresholds_move_with_alpha(self, model, blobs):
        strict = gpdc.fit(blobs, k=20, alpha=0.5)
        assert strict.shape_threshold <= model.shape_threshold
        assert strict.radius_threshold <= model.radius_threshold
        assert strict.alpha == 0.5
        assert (strict.shape_threshold, strict.radius_threshold) == \
            self.quantiles(model, 0.5)

    def test_stats_are_reused(self, model, blobs):
        other = gpdc.fit(blobs, k=20, alpha=0.1)
        np.testing.assert_array_equal(other.calibration.pxi_stats,
                                      model.calibration.pxi_stats)
        np.testing.assert_array_equal(other.calibration.radius_stats,
                                      model.calibration.radius_stats)
        # decide() at a given alpha uses the same stored-statistic quantiles
        stats = model.decision_stats(np.random.default_rng(8).normal(size=(60, 2)) * 4)
        np.testing.assert_array_equal(model.decide(*stats, alpha=0.1),
                                      other.decide(*stats))

    def test_decide_refuses_alpha_outside_unit_interval(self, model):
        stats = model.decision_stats(np.zeros((1, 2)))
        for alpha in (0.0, 1.5, float("nan")):
            with pytest.raises(UsageError, match=r"alpha must be in \(0, 1\]"):
                model.decide(*stats, alpha=alpha)
        assert model.decide(*stats, alpha=1.0).shape == (1,)

    def test_same_alpha_same_thresholds(self, model):
        assert (model.shape_threshold, model.radius_threshold) == \
            self.quantiles(model, model.alpha)


def test_type_one_error_quick(blobs, model):
    rng = np.random.default_rng(77)
    half = rng.integers(0, 2, size=1000)
    fresh = rng.normal(size=(1000, 2)) + np.array([[0.0, 0.0], [10.0, 0.0]])[half]
    coincident, pxi, radius = model.decision_stats(fresh)
    rate = model.decide(coincident, pxi, radius).mean()
    assert rate <= 0.05 + 2 * np.sqrt(0.05 / 1000)


def test_serialization_round_trip(model, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "gpdc"
    loaded = back.model
    assert loaded.shape_threshold == model.shape_threshold
    assert loaded.radius_threshold == model.radius_threshold
    rng = np.random.default_rng(8)
    for x in rng.normal(size=(10, 2)) * 6:
        v1, e1 = model.score(x)
        v2, e2 = loaded.score(x)
        assert v1.label == v2.label and v1.score == v2.score
        assert e1.stage == e2.stage

