import numpy as np
import pytest

from helpers import brute_dmin, gaussian_blobs
from openevt import gevc
from openevt.data import LabeledDataset
from openevt.errors import FitError, UsageError
from openevt.evt import reversed_weibull_cdf
from openevt.serialize import load_model, save_model


@pytest.fixture(scope="module")
def blob():
    return gaussian_blobs(1, [(0.0, 0.0)], n_per=800)


@pytest.fixture(scope="module")
def model(blob):
    return gevc.fit(blob, alpha=0.05)


class TestFit:
    def test_dmin_matches_definition(self, model, blob):
        np.testing.assert_array_equal(model.dmin, brute_dmin(blob.points))

    def test_fitted_median_tracks_empirical(self):
        # empirical-CDF check: the fitted distribution puts probability
        # 0.5 +/- 0.05 at the empirical median of the negated distances
        data = gaussian_blobs(2, [(0.0, 0.0)], n_per=5000)
        m = gevc.fit(data)
        empirical = np.median(-m.dmin)
        assert abs(reversed_weibull_cdf(m.fitted, empirical) - 0.5) <= 0.05

    def test_unit_grid_degenerate(self):
        xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        data = LabeledDataset(pts, ["a"] * 100)
        with pytest.raises(FitError):
            gevc.fit(data)

    def test_duplicates_excluded_from_fit(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(60, 2))
        pts = np.vstack([pts, pts[0], pts[1]])  # two exact duplicates
        data = LabeledDataset(pts, ["a"] * 62)
        m = gevc.fit(data)
        assert m.excluded_zeros == 4
        assert (m.dmin == 0).sum() == 4

    def test_overflowing_distance_names_point(self):
        # the far point's nearest-neighbor distance overflows to inf
        pts = np.random.default_rng(0).normal(size=(300, 2))
        pts[17] = [1e160, 0.0]
        with pytest.raises(FitError, match="overflow.*training point 17"):
            gevc.fit(LabeledDataset(pts, ["a"] * 300))

    def test_too_small(self):
        with pytest.raises(UsageError):
            gevc.fit(LabeledDataset([[0.0], [1.0]], ["a", "a"]))

    def test_alpha_validation(self, blob):
        # one rule for every decision level: (0, 1]
        for alpha in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(UsageError, match=r"alpha must be in \(0, 1\]"):
                gevc.fit(blob, alpha=alpha)
        assert gevc.fit(blob, alpha=1.0).alpha == 1.0


class TestScore:
    def test_coincident_point_known(self, model, blob):
        verdict, d0 = model.score(blob.points[0])
        assert d0 == 0.0
        assert verdict.label == "known"
        assert verdict.score == 0.0  # W(0) = 1

    def test_far_point_unknown(self, model, blob):
        far = blob.points[0] + 10.0 * model.dmin.max()
        verdict, d0 = model.score(far)
        assert verdict.is_unknown
        assert verdict.evidence["cdf"] < 1e-6

    def test_alpha_one_rejects_all_but_coincident(self, blob):
        m = gevc.fit(blob, alpha=1.0)
        assert m.score(blob.points[0])[0].label == "known"  # W(0) = 1
        for x in (blob.points[0] + 1e-3, np.array([1e4, 1e4])):
            verdict, _ = m.score(x)
            assert verdict.label == "unknown"

    def test_score_monotone_in_d0min(self, model):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(100, 2)) * 3
        d0s = np.array([model.score(x)[1] for x in pts])
        scores = np.array([model.score(x)[0].score for x in pts])
        order = np.argsort(d0s)
        assert np.all(np.diff(scores[order]) >= 0)

    def test_one_nearest_neighbor_query(self, model):
        before = model.index.counters.snapshot()
        model.score(np.array([0.5, 0.5]))
        after = model.index.counters.snapshot()
        assert after[0] - before[0] == 1
        assert after[1] - before[1] == 1

    def test_one_nearest_neighbor_query_after_updates(self, blob):
        # also with pending inserts and a deferred refit due, which reads
        # the kept nearest distances without a query
        model = gevc.fit(blob, alpha=0.05)
        rng = np.random.default_rng(3)
        model.update([(x, "c0") for x in rng.normal(size=(40, 2))])
        assert model._stale and model.index.size > model.index._tree_size
        before = model.index.counters.snapshot()
        model.score(np.array([0.5, 0.5]))
        after = model.index.counters.snapshot()
        assert after[0] - before[0] == 1
        assert after[1] - before[1] == 1

    def test_dimension_mismatch(self, model):
        with pytest.raises(UsageError):
            model.score(np.array([0.0, 0.0, 0.0]))

    def test_verdict_score_is_one_minus_cdf(self, model):
        x = np.array([2.5, -1.0])
        verdict, d0 = model.score(x)
        w = reversed_weibull_cdf(model.fitted, -d0)
        assert verdict.score == 1.0 - w


class TestUpdate:
    def test_empty_update_is_noop(self, blob):
        m = gevc.fit(blob)
        fitted_before = m.fitted
        assert m.update([]) is m
        assert m.fitted is fitted_before

    def test_incremental_equals_batch(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(300, 3))
        extra = rng.normal(size=(100, 3)) * 1.2
        m = gevc.fit(LabeledDataset(base, ["a"] * 300))
        m.update([(x, "a") for x in extra])
        m.score(np.zeros(3))  # trigger the deferred refit
        batch = gevc.fit(LabeledDataset(np.vstack([base, extra]), ["a"] * 400))
        np.testing.assert_array_equal(m.dmin, batch.dmin)
        assert m.fitted.sigma == pytest.approx(batch.fitted.sigma, rel=1e-6)
        assert m.fitted.alpha == pytest.approx(batch.fitted.alpha, rel=1e-6)

    def test_refit_deferred_until_score(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(200, 2))
        m = gevc.fit(LabeledDataset(base, ["a"] * 200))
        before = m._fitted
        m.update([(rng.normal(size=2), "a") for _ in range(30)])
        assert m._stale
        assert m._fitted is before  # not refit yet
        m.score(np.zeros(2))
        assert not m._stale
        assert m._fitted is not before

    def test_insert_into_dense_cluster_lowers_own_dmin(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(500, 2)) * 0.3
        m = gevc.fit(LabeledDataset(base, ["a"] * 500))
        median_before = np.median(m.dmin)
        m.update([(np.array([0.01, -0.02]), "a")])
        assert m.dmin[-1] < median_before

    def test_duplicate_update_excluded_after_refit(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(120, 2))
        m = gevc.fit(LabeledDataset(base, ["a"] * 120))
        m.update([(base[1].copy(), "a")])
        m._stale = True  # force refit on next access regardless of fraction
        assert m.fitted is not None
        assert m.excluded_zeros == 2
        assert m.dmin[1] == 0.0


def test_concurrent_scoring_during_lazy_refit():
    # scorers racing into a stale model must all see a complete fit
    import threading

    rng = np.random.default_rng(20)
    base = rng.normal(size=(400, 2))
    m = gevc.fit(LabeledDataset(base, ["a"] * 400))
    m.update([(x, "a") for x in rng.normal(size=(20, 2))])
    assert m._stale
    queries = rng.normal(size=(50, 2)) * 2
    results = [None] * 8
    errors = []

    def worker(slot):
        try:
            results[slot] = [m.score(q)[0].label for q in queries]
        except Exception as exc:  # surface failures to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(r == results[0] for r in results)
    assert not m._stale


def test_serialization_round_trip(model, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "gevc"
    loaded = back.model
    assert loaded.fitted == model.fitted
    np.testing.assert_array_equal(loaded.dmin, model.dmin)
    rng = np.random.default_rng(9)
    for x in rng.normal(size=(10, 2)) * 4:
        v1, d1 = model.score(x)
        v2, d2 = loaded.score(x)
        assert (v1.label, v1.score, d1) == (v2.label, v2.score, d2)


def test_type_one_error_band():
    train = gaussian_blobs(10, [(0.0, 0.0), (6.0, 0.0)], n_per=1000)
    rng = np.random.default_rng(11)
    half = rng.integers(0, 2, size=2000)
    fresh = rng.normal(size=(2000, 2)) + np.array([[0.0, 0.0], [6.0, 0.0]])[half]
    for alpha in (0.05, 0.1):
        m = gevc.fit(train, alpha=alpha)
        w = 1.0 - m.unknownness(fresh)
        rate = float((w < alpha).mean())
        assert alpha / 2 <= rate <= 2 * alpha


def test_free_endpoint_flag():
    data = gaussian_blobs(12, [(0.0, 0.0)], n_per=600)
    m = gevc.fit(data, free_endpoint=True)
    assert np.isfinite(m.fitted.endpoint)
    assert m.fitted.endpoint > np.max(-m.dmin[m.dmin > 0])
    assert np.isfinite(m.fitted.sigma) and m.fitted.sigma > 0
    verdict, _ = m.score(np.array([40.0, 40.0]))
    assert verdict.is_unknown
