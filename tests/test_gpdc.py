import numpy as np
import pytest

from helpers import gaussian_blobs
from openevt import gpdc
from openevt.cli import main
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
        finite = np.isfinite(model.pxi_stats)
        flagged = finite & ((model.pxi_stats >= model.shape_threshold)
                            | (model.radius_stats > model.radius_threshold))
        assert flagged.mean() <= 0.05 + 1.0 / blobs.n

    def test_alpha_one_flags_most_points(self, blobs):
        m = gpdc.fit(blobs, k=20, alpha=1.0)
        flagged = (m.pxi_stats >= m.shape_threshold) \
            | (m.radius_stats > m.radius_threshold)
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


def one_row(model, x0) -> dict:
    """The evidence of one point: ``evidence`` on a one-row array."""
    evidence = model.evidence(np.asarray(x0, dtype=float)[None, :])
    return {name: values[0] for name, values in evidence.items()}


class TestScore:
    def test_training_point_is_coincident_known(self, model, blobs):
        row = one_row(model, blobs.points[0])
        assert row["verdict"] == "known"
        assert row["stage"] == COINCIDENT_KNOWN
        assert row["radius"] is None
        assert row["score"] == 0.0

    def test_far_point_rejected_at_shape_stage(self, model):
        row = one_row(model, [500.0, 500.0])
        assert row["verdict"] == "unknown"
        assert row["stage"] == REJECTED_SHAPE
        assert row["radius"] is None
        assert row["p_xi"] >= model.shape_threshold
        assert abs(row["xi_hat"]) < 0.1

    def test_interior_point_accepted(self, model):
        row = one_row(model, [0.3, -0.2])
        assert row["verdict"] == "known"
        assert row["stage"] == ACCEPTED
        assert -0.9 < row["xi_hat"] < -0.2  # near -1/p = -0.5
        assert row["radius"] is not None

    def test_dimension_mismatch(self, model):
        with pytest.raises(UsageError):
            model.evidence(np.zeros((1, 3)))

    def test_decision_consistency(self, model):
        rng = np.random.default_rng(5)
        pts = np.vstack([rng.normal(size=(100, 2)),
                         rng.normal(size=(50, 2)) * 8 + 20])
        s, t = model.shape_threshold, model.radius_threshold
        for x in pts:
            row = one_row(model, x)
            if row["stage"] == COINCIDENT_KNOWN:
                continue
            coincident, pxi, radius = model.decision_stats(x[None, :])
            expected = (pxi[0] >= s) or (radius[0] > t)
            assert (row["verdict"] == "unknown") == expected

    def test_radius_stage_reachable(self, model):
        # A point in a moderate-density gap: shape can look fine while the
        # density ball is too large. Scan a segment between the blobs.
        found = False
        for frac in np.linspace(0.25, 0.75, 11):
            row = one_row(model, [10.0 * frac, 0.0])
            if row["stage"] == REJECTED_RADIUS:
                found = True
                assert row["verdict"] == "unknown"
                assert row["radius"] > model.radius_threshold
        assert found

    def test_score_issues_exactly_k_plus_1_distance_queries(self, model):
        before = model.index.counters.snapshot()
        one_row(model, [1.0, 1.0])
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
        # the score column of the evidence is the same number
        assert one_row(model, pts[0])["score"] == batch[0]


class TestRecalibration:
    """Thresholds at another alpha are the quantiles of the stored
    leave-one-out statistics, which do not depend on alpha."""

    @staticmethod
    def quantiles(model, alpha):
        level = 1.0 - alpha / 2.0
        return tuple(float(np.quantile(v[np.isfinite(v)], level, method="higher"))
                     for v in (model.pxi_stats, model.radius_stats))

    def test_thresholds_move_with_alpha(self, model, blobs):
        strict = gpdc.fit(blobs, k=20, alpha=0.5)
        assert strict.shape_threshold <= model.shape_threshold
        assert strict.radius_threshold <= model.radius_threshold
        assert strict.alpha == 0.5
        assert (strict.shape_threshold, strict.radius_threshold) == \
            self.quantiles(model, 0.5)

    def test_stats_are_reused(self, model, blobs):
        other = gpdc.fit(blobs, k=20, alpha=0.1)
        np.testing.assert_array_equal(other.pxi_stats, model.pxi_stats)
        np.testing.assert_array_equal(other.radius_stats, model.radius_stats)
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
    queries = np.random.default_rng(8).normal(size=(10, 2)) * 6
    e1, e2 = model.evidence(queries), loaded.evidence(queries)
    for name in ("verdict", "score", "stage"):
        np.testing.assert_array_equal(e1[name], e2[name])


@pytest.mark.parametrize("p", [2, 16])
def test_overflowing_distances_are_unknown(p, tmp_path):
    # distances to these rows overflow to inf, so the tail shape is NaN
    # (log inf/inf); a row whose statistics are undefined passes neither test
    rng = np.random.default_rng(0)
    m = gpdc.fit(LabeledDataset(rng.normal(size=(300, p)), ["a"] * 300), k=10)
    assert (m.index._tree is not None) == (p == 2)
    far = np.zeros((2, p))
    far[0, 0], far[1] = 1e160, 1e300
    evidence = m.evidence(far)
    assert evidence["verdict"].tolist() == ["unknown"] * 2
    assert evidence["stage"].tolist() == [REJECTED_RADIUS] * 2
    assert m.flags(far, [m.alpha])[m.alpha].all()
    model_file, points_csv, out = (tmp_path / "m.json", tmp_path / "far.csv",
                                   tmp_path / "scores.csv")
    save_model(m, model_file)
    np.savetxt(points_csv, far, delimiter=",")
    assert main(["score", "--model", str(model_file), "--test", str(points_csv),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")]
    assert [(r[1], r[-1]) for r in rows[1:]] == [("unknown", REJECTED_RADIUS)] * 2


def test_fits_a_training_set_whose_distances_overflow():
    # the far point's leave-one-out statistics are NaN and drop out of the
    # thresholds; gevc and evm refuse this set (see their tests)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(300, 2))
    pts[17] = [1e160, 0.0]
    m = gpdc.fit(LabeledDataset(pts, ["a"] * 300), k=10)
    assert np.isnan(m.pxi_stats[17])
    assert np.isfinite([m.shape_threshold, m.radius_threshold]).all()
