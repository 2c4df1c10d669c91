import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (exact_psi, gaussian_blobs, in_thread, pair_count_auc,
                     record_gathers, reference_model, scan_budget)
from openevt import evm, gevc, gpdc, neighbors
from openevt.data import EUCLIDEAN, DistanceMetric, LabeledDataset, _minkowski
from openevt.errors import DataError, FitError, UsageError
from openevt.harness import fit_methods, generate_toy
from openevt.serialize import load_model, save_model


@pytest.fixture(scope="module")
def separated():
    # two unit-diameter clouds at mutual distance >= 2: margins all positive
    return gaussian_blobs(0, [(0.0, 0.0), (4.0, 0.0)], n_per=120, scale=0.25)


@pytest.fixture(scope="module")
def model(separated):
    return evm.fit(separated, k=15, delta=0.5)


class TestFit:
    def test_well_separated_classes_fit(self, model):
        assert model.n == 240
        assert np.all(model.sigmas > 0) and np.all(model.alphas > 0)

    def test_keeps_the_datasets_read_only_points(self, separated, model):
        # no copy of the training points, fitted alone or through fit_methods
        (shared, _), = fit_methods(separated, [("evm", {"k": 15})], separated.points[:5])
        for fitted in (model, shared):
            assert fitted.points is separated.points
            assert not fitted.points.flags.writeable

    def test_pass_that_does_not_fit_the_data_refused(self, separated):
        # margins need n rows and k columns: five would fit a k = 5 model
        # that records k = 10
        pts, labels = separated.points, separated.label_ids
        narrow = neighbors.NeighborIndex.training_pass(pts, EUCLIDEAN, 0, labels, 5)
        short = neighbors.NeighborIndex.training_pass(pts[::2], EUCLIDEAN, 0, labels[::2], 10)
        no_margins = neighbors.NeighborIndex.training_pass(pts, EUCLIDEAN, 11)
        for shared, got in ((narrow, r"\(240, 5\)"), (short, r"\(120, 10\)"),
                            (no_margins, r"\(\)")):
            with pytest.raises(UsageError, match=rf"neighbours needs \(240, >= 10\) "
                                                 rf"margins, got {got}"):
                evm.fit(separated, k=10, neighbours=shared)

    def test_single_class_unsupported(self):
        data = gaussian_blobs(1, [(0.0, 0.0)], n_per=50)
        with pytest.raises(DataError, match="two training classes"):
            evm.fit(data, k=5)

    def test_k_exceeding_cross_class_sample(self, separated):
        with pytest.raises(UsageError, match="cross-class"):
            evm.fit(separated, k=121)

    def test_cross_class_duplicate_names_point(self):
        pts = np.vstack([np.zeros((5, 2)), np.zeros((1, 2)),
                         np.ones((5, 2)) * 3])
        data = LabeledDataset(pts, ["a"] * 5 + ["b"] * 6)
        with pytest.raises(FitError, match="training point 0"):
            evm.fit(data, k=2)

    @pytest.mark.parametrize("delta", [float("nan"), 0.0, -1.0, 1.5, float("inf")])
    def test_delta_outside_unit_interval_refused(self, separated, delta):
        with pytest.raises(UsageError, match="delta"):
            evm.fit(separated, k=15, delta=delta)

    def test_overflowing_margins_name_point(self):
        # a point whose distances to the other class overflow to inf has no
        # margin sample to fit
        pts = np.random.default_rng(0).normal(size=(300, 2))
        pts[17] = [1e160, 0.0]
        data = LabeledDataset(pts, ["a"] * 150 + ["b"] * 150)
        with pytest.raises(FitError, match="overflow.*training point 17"):
            evm.fit(data, k=5)

    def test_toy_scale_fits_all_converge(self):
        train, _ = generate_toy(0)
        m = evm.fit(train, k=20)
        assert m.n == 600
        assert np.all(np.isfinite(m.sigmas)) and np.all(np.isfinite(m.alphas))


class TestScore:
    def test_training_point_is_known_for_any_delta(self, separated):
        m = evm.fit(separated, k=15, delta=1.0)
        evidence = m.evidence(separated.points[:1])
        assert evidence["psi"][0] == 1.0
        assert evidence["verdict"][0] == "known"

    def test_far_point_unknown(self, model):
        evidence = model.evidence(np.array([[1000.0, 1000.0]]))
        assert evidence["psi"][0] < 1e-12
        assert evidence["verdict"][0] == "unknown"

    def test_psi_in_unit_interval(self, model):
        rng = np.random.default_rng(2)
        psis = model.membership_batch(rng.normal(size=(200, 2)) * 5)
        assert np.all(psis >= 0.0) and np.all(psis <= 1.0)
        near = model.membership_batch(rng.normal(size=(50, 2)) * 0.5)
        assert np.all(near > 0.0)

    def test_monotone_radially(self, model):
        # moving away from all training points at once: psi nonincreasing
        center = np.array([2.0, 0.0])
        direction = np.array([0.0, 1.0])
        psis = [model.membership_batch((center + r * direction)[None, :])[0]
                for r in np.arange(2.0, 30.0, 2.0)]
        assert all(a >= b for a, b in zip(psis, psis[1:]))

    def test_no_delta_raises_on_binary_decision(self, separated):
        m = evm.fit(separated, k=15)
        assert m.delta is None
        with pytest.raises(UsageError, match="delta"):
            m.evidence(np.zeros((1, 2)))
        # ranking still available without delta
        assert 0.0 <= m.membership_batch(np.zeros((1, 2)))[0] <= 1.0

    def test_dimension_mismatch(self, model):
        with pytest.raises(UsageError):
            model.membership_batch(np.zeros((1, 3)))


@pytest.fixture(scope="module")
def toy():
    return generate_toy(1)


class TestMisleadingGeometry:
    """The unknown cluster sits nearer the isolated class than the other
    known classes do, collecting an unjustified margin premium."""

    def test_unknowns_scored_known_at_moderate_delta(self, toy):
        train, test = toy
        m = evm.fit(train, k=20, delta=0.5)
        unknown_pts = test.points[test.is_unknown]
        psi = m.membership_batch(unknown_pts)
        assert (psi >= 0.5).mean() > 0.5  # most unknowns pass as known

    def test_auc_ordering_against_tail_classifiers(self, toy):
        train, test = toy
        is_unknown = test.is_unknown
        auc_evm = pair_count_auc(
            evm.fit(train, k=20).unknownness(test.points), is_unknown)
        auc_gpdc = pair_count_auc(
            gpdc.fit(train, k=20, alpha=0.05).unknownness(test.points), is_unknown)
        auc_gevc = pair_count_auc(
            gevc.fit(train, alpha=0.05).unknownness(test.points), is_unknown)
        assert auc_evm < min(auc_gpdc, auc_gevc)
        assert auc_gpdc > 0.97 and auc_gevc > 0.97


def test_default_k_capped_by_cross_class(separated):
    m = evm.fit(separated)
    assert 1 <= m.k <= separated.n - 120


def test_serialization_round_trip(model, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert back.model.KIND == "evm"
    loaded = back.model
    assert loaded.delta == model.delta and loaded.k == model.k
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(20, 2)) * 3
    np.testing.assert_array_equal(loaded.membership_batch(pts),
                                  model.membership_batch(pts))


# -- the exact-kernel paths against brute-force references ---------------------


def brute_margins(data, k, order):
    """Each point's k smallest cross-class half-distances, sorted."""
    pts, ids = data.points, data.label_ids
    return np.array([np.sort(_minkowski(pts[ids != ids[i]] - x, order))[:k] / 2.0
                     for i, x in enumerate(pts)])


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([2, 16, 30]),
    order=st.sampled_from([2.0, 1.0, 3.0]),
    offset=st.sampled_from([0.0, 1e4, 1e8]),
    duplicates=st.booleans(),
    n_per=st.integers(min_value=6, max_value=25),
    k=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    shuffled=st.booleans(),
)
# a margin row of spread 1.9e-5, whose Weibull shape (about 1.3e6) once kept
# Newton's absolute step test from ever passing
@example(p=30, order=3.0, offset=0.0, duplicates=True, n_per=6, k=3, seed=5,
         shuffled=False)
def test_exact_paths_match_brute_force(p, order, offset, duplicates, n_per, k,
                                       seed, shuffled):
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=3.0, size=(3, p))
    pts = np.vstack([m + rng.normal(size=(n_per, p)) for m in means])
    if duplicates:
        # one repeat per class: fewer than k copies keep every margin
        # sample's spread positive
        pts[1::n_per] = pts[::n_per]
    pts += offset
    labels = np.repeat(["a", "b", "c"], n_per)
    if shuffled:  # classes interleaved, not in contiguous blocks of rows
        perm = rng.permutation(pts.shape[0])
        pts, labels = pts[perm], labels[perm]
    data = LabeledDataset(pts, labels)
    metric = DistanceMetric(order)
    seen, solve = [], evm.fit_weibull_rows
    with pytest.MonkeyPatch.context() as mp:
        # blocks of 7 rows in the Euclidean margin scan (and in psi's, when
        # its far rows do not move it to float64), and of 7 n / (n - class
        # size) rows in the kd-tree's margin queries, whose indexes hold
        # fewer points; Minkowski scan blocks keep the tree's rule
        mp.setattr(neighbors, "BLOCK_ELEMENTS", 7 * data.n * p if order != 2.0
                   else scan_budget(7, data.points))
        mp.setattr(evm, "fit_weibull_rows",
                   lambda w: (seen.append(w), solve(w))[1])
        model = evm.fit(data, k=k, metric=metric)
        # the solver sees the unhalved margins, and the fit halves sigma
        np.testing.assert_array_equal(seen[0], 2.0 * brute_margins(data, k, order))
        far = means[:2] + offset + 1e150
        near = pts[rng.choice(data.n, 12)] + rng.normal(size=(12, p))
        queries = np.vstack([pts[:5], near, far])
        psi = model.membership_batch(queries)
        assert model.membership_batch(np.empty((0, p))).shape == (0,)
    np.testing.assert_array_equal(psi, exact_psi(model, queries))
    assert np.all(psi[:5] == 1.0)  # a training point: d = 0
    assert np.all(psi[-2:] == 0.0)  # every W underflows


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("p", [16, 30])
def test_split_scan_margins_and_psi_in_any_thread(p, workers, monkeypatch):
    # blocks of 7 rows split across the patched thread count (see
    # test_neighbors); integer coordinates at p = 16 tie, with a repeat
    rng = np.random.default_rng(p)
    if p == 16:
        pts = rng.integers(0, 9, size=(90, p)).astype(float)
        pts[40] = pts[30]  # same class: fewer than k copies
    else:
        pts = rng.normal(size=(90, p))
    data = LabeledDataset(pts, np.repeat(["a", "b", "c"], 30))
    pool = np.vstack([pts[:10], pts[50:70] + rng.integers(-1, 2, size=(20, p))])
    monkeypatch.setattr(neighbors, "BLOCK_ELEMENTS", scan_budget(7, pts))
    monkeypatch.setattr(neighbors, "SCAN_THREADS", workers)
    seen, solve = [], evm.fit_weibull_rows
    monkeypatch.setattr(evm, "fit_weibull_rows",
                        lambda w: (seen.append(w), solve(w))[1])

    def fitted():
        model = evm.fit(data, k=5)
        return model, model.membership_batch(pool)

    (model, psi), (other, other_psi) = fitted(), in_thread(fitted)
    fields, _ = reference_model("evm", data, pool, (), 5)
    for margins in seen:  # unhalved
        np.testing.assert_array_equal(margins, 2.0 * brute_margins(data, 5, 2.0))
    for m in (model, other):
        np.testing.assert_array_equal(m.sigmas, fields["sigmas"])
        np.testing.assert_array_equal(m.alphas, fields["alphas"])
    np.testing.assert_array_equal(psi, exact_psi(model, pool))
    np.testing.assert_array_equal(other_psi, psi)


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_split_psi_and_margins_match_brute_force(offset, monkeypatch):
    # Tie-heavy 0/1 rows (a row repeated within each class) at p = 30, in
    # 6-row float32 scan blocks, or 3-row float64 ones at a 1e8 offset: the
    # margins' masked selection at k = 40 and psi, which at a 1e8 offset
    # keeps every point, gather at least 3 n p differences a block, beyond
    # the patched BLOCK_ELEMENTS, so both must split.
    rng = np.random.default_rng(11)
    pts = rng.integers(0, 2, size=(90, 30)).astype(float) + offset
    pts[[1, 2, 31, 32]] = pts[[0, 0, 30, 30]]
    data = LabeledDataset(pts, np.repeat(["a", "b", "c"], 30))
    (n, p), budget = pts.shape, 3 * pts.shape[0] * 16
    monkeypatch.setattr(neighbors, "BLOCK_ELEMENTS", budget)
    sizes = record_gathers(monkeypatch)
    margins = neighbors.Knn(40, labels=data.label_ids)
    neighbors.NeighborIndex(pts).run(pts, [margins])
    np.testing.assert_array_equal(margins.distances / 2.0, brute_margins(data, 40, 2.0))
    model = evm.EvmModel(pts, rng.uniform(1.0, 3.0, n), rng.uniform(1.0, 4.0, n),
                         5, None, DistanceMetric())
    queries = np.vstack([pts[:4], pts[40:52] + rng.integers(-1, 2, size=(12, p))])
    np.testing.assert_array_equal(model.membership_batch(queries),
                                  exact_psi(model, queries))
    assert max(sizes) <= budget < 3 * (n - 30) * p


def test_zero_margin_names_first_coinciding_point():
    # point 4 (class "b") duplicates point 1 (class "a"): both get a zero
    # margin, from different class queries, and the lower index is named
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 3.0], [5.0, 5.0],
                    [1.0, 1.0], [6.0, 5.0], [5.0, 7.0], [7.0, 7.0]])
    data = LabeledDataset(pts, ["a"] * 3 + ["b"] * 5)
    with pytest.raises(FitError, match="training point 1") as info:
        evm.fit(data, k=2)
    assert info.value.diagnostics == {"point": 1}


@pytest.mark.parametrize("fill", ["inf", "nan", "same-class-finite"])
def test_masked_margins_never_admit_same_class(fill):
    # Scores that decide nothing (inf or NaN everywhere, or finite only
    # for same-class points) make every point a candidate, yet a same-class
    # point, here a duplicate at distance 0, never enters a margin row,
    # whether each class holds contiguous rows or the classes interleave;
    # the labelled selection leaves the scores as they are.
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(30, 12))
    pts[1::10] = pts[::10]
    labels = np.repeat(["a", "b", "c"], 10)
    for perm in (np.arange(30), rng.permutation(30)):
        data = LabeledDataset(pts[perm], labels[perm])
        same = data.label_ids[:, None] == data.label_ids
        score = {"inf": np.full((30, 30), np.inf),
                 "nan": np.full((30, 30), np.nan),
                 "same-class-finite": np.where(same, 0.0, np.inf)}[fill]
        margins, before = neighbors.Knn(5, labels=data.label_ids,
                                        distances=np.empty((30, 5))), score.copy()
        neighbors.NeighborIndex(data.points)._scan_select(
            margins, slice(0, 30), data.points, score, 0.0)
        np.testing.assert_array_equal(margins.distances / 2.0, brute_margins(data, 5, 2.0))
        np.testing.assert_array_equal(score, before)


def test_overflowing_margins_name_point_on_the_scan():
    # p = 30: the GEMM scores of the far point overflow (inf - inf = NaN)
    pts = np.random.default_rng(0).normal(size=(300, 30))
    pts[17, 0] = 1e160
    data = LabeledDataset(pts, ["a"] * 150 + ["b"] * 150)
    with pytest.raises(FitError, match="overflow.*training point 17"):
        evm.fit(data, k=5)


@pytest.mark.parametrize("p", [16, 30])
def test_near_ties_survive_gemm_rounding(p):
    # Each query has two training points whose distances differ by about
    # 1e-9 relative, far below the GEMM score's rounding in float64 at a 1e4
    # offset and in float32 at none, so the scores alone misorder them in
    # many rows: only the slack keeps the true nearest (and so the larger
    # W) a candidate.
    for offset, dtype in ((1e4, np.float64), (0.0, np.float32)):
        rng = np.random.default_rng(p)
        queries = rng.normal(size=(40, p)) + offset
        v = rng.normal(size=(40, p)) * 0.2
        twin = 1.0 + rng.uniform(-1e-9, 1e-9, size=(40, 1))
        pts = np.vstack([queries + v, queries - v * twin,
                         rng.normal(size=(20, p)) + offset])
        n = pts.shape[0]
        assert neighbors.score_operand(queries, pts).dtype == dtype
        model = evm.EvmModel(pts, np.ones(n), np.full(n, 2.0), k=3, delta=None,
                             metric=DistanceMetric())
        np.testing.assert_array_equal(model.membership_batch(queries),
                                      exact_psi(model, queries))
