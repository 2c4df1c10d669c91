import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_dmin, gaussian_blobs
from openevt import gevc
from openevt.data import EUCLIDEAN, LabeledDataset
from openevt.errors import DataError, FitError, UsageError
from openevt.evt import reversed_weibull_cdf
from openevt.neighbors import NeighborIndex
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

    def test_pass_of_other_data_refused(self, blob):
        # 50 points handed an 80-row pass: its nearest distances are not theirs
        data = LabeledDataset(blob.points[:50], blob.labels[:50])
        shared = NeighborIndex.training_pass(blob.points[:80], EUCLIDEAN, 1)
        with pytest.raises(UsageError, match=r"dmin must have shape \(50,\), got \(80,\)"):
            gevc.fit(data, neighbours=shared)

    def test_pass_without_leave_one_out_refused(self, blob):
        # a pass built for evm alone (width 0) has margins but no nearest distances
        data = LabeledDataset(blob.points[:50], ["a", "b"] * 25)
        shared = NeighborIndex.training_pass(data.points, EUCLIDEAN, 0, data.label_ids, 5)
        with pytest.raises(UsageError) as refused:
            gevc.fit(data, neighbours=shared)
        assert str(refused.value) == "neighbours needs (50, >= 1) distances, got ()"

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

    @pytest.mark.parametrize("jitter", [10.0 ** e for e in range(-13, -4)])
    def test_jittered_grid_fits_at_huge_shapes(self, jitter):
        # a 20 x 20 unit grid plus Gaussian jitter j has shape about 1.165 / j:
        # up to 1e13, where adjacent doubles near it lie far more than the
        # absolute step tolerance apart, Newton still stops and fits
        xs, ys = np.meshgrid(np.arange(20.0), np.arange(20.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        pts += np.random.default_rng(0).normal(size=pts.shape) * jitter
        fitted = gevc.fit(LabeledDataset(pts, ["a"] * 400)).fitted
        assert np.isfinite([fitted.sigma, fitted.alpha]).all()
        assert fitted.alpha == pytest.approx(1.165 / jitter, rel=0.01)

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
        # also with pending inserts, right after update refit from the kept
        # nearest distances
        model = gevc.fit(blob, alpha=0.05)
        first = model.fitted
        rng = np.random.default_rng(3)
        model.update([(x, "c0") for x in rng.normal(size=(40, 2))])
        assert model.fitted != first
        assert model.index.size > model.index._tree_size
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
        batch = gevc.fit(LabeledDataset(np.vstack([base, extra]), ["a"] * 400))
        np.testing.assert_array_equal(m.dmin, batch.dmin)
        assert m.fitted == batch.fitted
        assert m.excluded_zeros == batch.excluded_zeros

    def test_refit_runs_inside_update(self, monkeypatch):
        # the solver is called through the module global, so it can be counted
        samples = []
        solve = gevc.reversed_weibull_fit
        monkeypatch.setattr(gevc, "reversed_weibull_fit",
                            lambda s: samples.append(s.size) or solve(s))

        def read_all(m):
            m.score(np.zeros(2))
            m.evidence(np.ones((3, 2)))
            m.summary(), m.to_payload()

        rng = np.random.default_rng(6)
        base = rng.normal(size=(200, 2))
        m = gevc.fit(LabeledDataset(base, ["a"] * 200))
        first = m.fitted
        # a far point changes only its own entry: 1 of 201 is not due
        m.update([(np.array([50.0, 50.0]), "a")])
        read_all(m)
        assert samples == [200] and m.fitted is first
        m.update([(x, "a") for x in rng.normal(size=(30, 2))])
        assert samples == [200, 231]
        read_all(m)  # reads never refit
        assert samples == [200, 231]
        batch = gevc.fit(LabeledDataset(m.index.points, ["a"] * m.n))
        assert m.fitted == batch.fitted and m.fitted != first

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
        first = m.fitted
        # the duplicate zeroes its own and base[1]'s entry: 2 of 121 entries
        # changed, past REFIT_FRACTION, so update refits
        assert 2 > gevc.REFIT_FRACTION * 121
        m.update([(base[1].copy(), "a")])
        assert m.fitted != first
        assert m.excluded_zeros == 2
        assert m.dmin[1] == 0.0


@pytest.mark.parametrize("p", [2, 12])
def test_updates_never_write_the_datasets_points(p):
    # the model's index shares the dataset's matrix until its first update;
    # a stream across a tree rebuild leaves that matrix bitwise as it was
    rng = np.random.default_rng(21)
    data = LabeledDataset(rng.normal(size=(200, p)), ["a"] * 200)
    before = data.points.tobytes()
    model = gevc.fit(data)
    assert np.shares_memory(model.points, data.points)
    model.update((x, "b") for x in rng.normal(size=(80, p)))
    assert model.index.scans or model.index._tree_size > 200  # a tree rebuilt
    assert data.points.tobytes() == before
    assert not np.shares_memory(model.points, data.points)
    np.testing.assert_array_equal(model.points[:200], data.points)


def test_concurrent_scoring_after_update_matches_serial():
    # update refits before it returns, and 8 threads scoring the updated
    # model, switching often, match a serial replay of the same updates
    import sys
    import threading

    rng = np.random.default_rng(20)
    base = rng.normal(size=(400, 2))
    extra = rng.normal(size=(20, 2))
    queries = rng.normal(size=(50, 2)) * 2

    def updated():
        m = gevc.fit(LabeledDataset(base, ["a"] * 400))
        first = m.fitted
        m.update([(x, "a") for x in extra])
        assert m.fitted != first
        return m

    replay = updated()
    want = [replay.score(q) for q in queries]
    m = updated()
    fitted, dmin = m.fitted, m.dmin
    results = [None] * 8
    errors = []

    def worker(slot):
        try:
            results[slot] = [m.score(q) for q in queries]
        except Exception as exc:  # surface failures to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert all(r == want for r in results)
    assert m.fitted is fitted
    np.testing.assert_array_equal(m.dmin, dmin)


def test_serialization_round_trip(model, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert back.model.KIND == "gevc"
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


def _model_state(m):
    """Everything an update may change, in comparable form."""
    return (m.n, m.fitted, m.excluded_zeros, m.index.points.tobytes(),
            m.dmin.tobytes(), list(m.to_payload()["labels"]),
            m.index.counters.snapshot())


@pytest.mark.parametrize("p", [2, 16])
def test_update_checks_every_pair_before_inserting(p, tmp_path):
    # a malformed pair anywhere refuses the whole update with nothing changed
    m = gevc.fit(gaussian_blobs(13, [np.zeros(p)], n_per=200))
    before = _model_state(m)
    nan, inf = np.full(p, 0.5), np.full(p, 0.5)
    nan[-1], inf[0] = np.nan, -np.inf
    ok = np.full(p, 0.25)
    for bad in (nan, inf, np.zeros(p + 1), np.zeros((1, p)), 1.0):
        with pytest.raises(UsageError, match="update pair 1 must be .* finite"):
            m.update((x, label) for x, label in [(ok, "a"), (bad, "b")])
        assert _model_state(m) == before
    m.update([(ok, "a")])
    save_model(m, tmp_path / "m.model")
    assert load_model(tmp_path / "m.model").model.n == 201


@pytest.mark.parametrize("p", [2, 16])
def test_overflowing_update_is_refused_and_model_still_scores(p, tmp_path):
    rng = np.random.default_rng(14)
    m = gevc.fit(LabeledDataset(rng.normal(size=(300, p)), ["a"] * 300))
    far = np.zeros(p)
    far[0] = 1e160  # every distance from it overflows
    before = _model_state(m)
    with pytest.raises(DataError, match="update pair 0: .*overflows to inf"):
        m.update([(far, "far")])
    assert _model_state(m) == before
    # the pairs before a refused one stay, and so does the refit they made due
    near = rng.normal(size=(10, p))
    with pytest.raises(DataError, match="update pair 10"):
        m.update([(x, "a") for x in near] + [(far, "far")])
    batch = gevc.fit(LabeledDataset(m.index.points, ["a"] * m.n))
    assert m.n == 310 and m.fitted == batch.fitted != before[1]
    assert m.score(near[0])[1] == 0.0
    save_model(m, tmp_path / "m.model")
    assert load_model(tmp_path / "m.model").model.fitted == m.fitted


def test_failed_refit_keeps_last_fit_and_next_update_retries():
    rng = np.random.default_rng(15)
    base = rng.normal(size=(30, 2))
    m = gevc.fit(LabeledDataset(base, ["a"] * 30))
    first = m.fitted
    # a duplicate of every point leaves no positive nearest distance
    with pytest.raises(FitError, match="at least 3 strictly positive"):
        m.update((x, "a") for x in base)
    assert m.n == 60 and (m.dmin == 0).all()
    assert m.fitted is first and m.excluded_zeros == 0
    verdict, d0 = m.score(base[3] + 10.0)  # the last good fit still scores
    assert verdict.is_unknown and d0 > 0
    m.update([(x, "b") for x in rng.normal(size=(20, 2)) + 20.0])
    batch = gevc.fit(LabeledDataset(m.index.points, ["a"] * 80))
    assert m.fitted == batch.fitted
    assert m.excluded_zeros == batch.excluded_zeros == 60


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([2, 12]),
    n=st.integers(min_value=20, max_value=80),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.lists(st.tuples(st.sampled_from(["ok", "nan", "shape", "overflow"]),
                             st.integers(min_value=1, max_value=6),
                             st.integers(min_value=0, max_value=6)),
                   max_size=8),
)
def test_updates_with_refused_points_equal_batch_fit(p, n, seed, steps):
    # p=2 inserts through the tree, p=12 through the scan
    rng = np.random.default_rng(seed)
    accepted = [rng.normal(size=(n, p))]
    m = gevc.fit(LabeledDataset(accepted[0], ["a"] * n))
    refused = {"nan": np.full(p, np.nan), "shape": np.zeros(p + 1),
               "overflow": np.full(p, 1e160)}
    for kind, size, at in steps:
        batch = rng.normal(size=(size, p))
        pairs = [(x, "a") for x in batch]
        if kind == "ok":
            m.update(pairs)
            accepted.append(batch)
            continue
        at = min(at, size)
        pairs.insert(at, (refused[kind], "a"))
        with pytest.raises(DataError if kind == "overflow" else UsageError,
                           match=f"update pair {at}"):
            m.update(pairs)
        if kind == "overflow":  # the pairs before it were inserted
            accepted.append(batch[:at])
    final = rng.normal(size=(3, p))
    assert 3 > gevc.REFIT_FRACTION * (m.n + 3)  # so the last update refits
    m.update([(x, "a") for x in final])
    points = np.vstack(accepted + [final])
    batch = gevc.fit(LabeledDataset(points, ["a"] * points.shape[0]))
    assert m.index.points.tobytes() == points.tobytes()
    assert m.dmin.tobytes() == batch.dmin.tobytes()
    assert m.fitted == batch.fitted
    assert m.excluded_zeros == batch.excluded_zeros
    queries = np.vstack([rng.normal(size=(20, p)) * 2.0, points[:5]])
    want, got = batch.evidence(queries), m.evidence(queries)
    for key in want:
        assert want[key].tobytes() == got[key].tobytes(), key
