import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_dmin, brute_knn
from openevt import neighbors
from openevt.data import DistanceMetric, distances_to
from openevt.errors import UsageError
from openevt.neighbors import NeighborIndex


def test_k_smallest_by_inspection():
    ix = NeighborIndex(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]]))
    got = ix.k_smallest_distances(np.array([0.1, 0.0]), 2)
    assert got[0][1] == 0 and got[0][0] == pytest.approx(0.1)
    assert got[1][1] == 1 and got[1][0] == pytest.approx(0.9)


def test_query_at_training_point():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    ix = NeighborIndex(pts)
    got = ix.k_smallest_distances(pts[1], 1)
    assert got == [(0.0, 1)]


def test_k_larger_than_n_rejected():
    ix = NeighborIndex(np.array([[0.0], [1.0]]))
    with pytest.raises(UsageError):
        ix.k_smallest_distances(np.array([0.5]), 3)


def test_dimension_mismatch_rejected():
    ix = NeighborIndex(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(UsageError):
        ix.k_smallest_distances(np.array([0.0, 0.0, 0.0]), 1)
    with pytest.raises(UsageError):
        ix.insert(np.array([0.0]))


def test_random_matches_brute_force():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(200, 3))
    ix = NeighborIndex(pts)
    for _ in range(20):
        q = rng.normal(size=3)
        got = ix.k_smallest_distances(q, 15)
        d_exp, i_exp = brute_knn(pts, q, 15)
        assert [g[1] for g in got] == i_exp.tolist()
        np.testing.assert_allclose([g[0] for g in got], d_exp, rtol=0, atol=0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    p=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
    grid=st.booleans(),
)
def test_property_exactness_vs_brute(n, p, k, seed, grid):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    # Integer grids force distance ties, which must resolve by index.
    pts = (rng.integers(0, 3, size=(n, p)).astype(float) if grid
           else rng.normal(size=(n, p)))
    q = (rng.integers(0, 3, size=p).astype(float) if grid
         else rng.normal(size=p))
    ix = NeighborIndex(pts)
    got = ix.k_smallest_distances(q, k)
    d_exp, i_exp = brute_knn(pts, q, k)
    assert [g[1] for g in got] == i_exp.tolist()
    np.testing.assert_array_equal([g[0] for g in got], d_exp)


def test_manhattan_and_minkowski_queries():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(80, 4))
    for metric in (DistanceMetric.manhattan(), DistanceMetric.minkowski(3.0)):
        ix = NeighborIndex(pts, metric)
        q = rng.normal(size=4)
        got = ix.k_smallest_distances(q, 10)
        d_exp, i_exp = brute_knn(pts, q, 10, order=metric.order)
        assert [g[1] for g in got] == i_exp.tolist()
        np.testing.assert_allclose([g[0] for g in got], d_exp, atol=0)


def test_flat_fallback_above_dimension_limit():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(100, 25))
    ix = NeighborIndex(pts)
    assert ix._tree is None
    q = rng.normal(size=25)
    got = ix.k_smallest_distances(q, 7)
    d_exp, i_exp = brute_knn(pts, q, 7)
    assert [g[1] for g in got] == i_exp.tolist()


class TestNearestWithinTraining:
    def test_two_points(self):
        ix = NeighborIndex(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert ix.nearest_within_training(0) == (5.0, 1)

    def test_duplicates(self):
        ix = NeighborIndex(np.array([[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]]))
        d, j = ix.nearest_within_training(0)
        assert d == 0.0 and j == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(500, 4))
        ix = NeighborIndex(pts)
        dmin = ix.dmin_vector()
        np.testing.assert_array_equal(dmin, brute_dmin(pts))
        for i in (0, 123, 499):
            d, j = ix.nearest_within_training(i)
            assert d == dmin[i]


class TestInsert:
    def test_far_outlier_changes_nothing(self):
        ix = NeighborIndex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert ix.insert(np.array([100.0, 100.0])) == []

    def test_duplicate_insert(self):
        ix = NeighborIndex(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]))
        changed = ix.insert(np.array([5.0, 0.0]))
        assert changed == [1]
        assert ix.dmin_vector()[1] == 0.0
        assert ix.dmin_vector()[3] == 0.0

    def test_sequential_inserts_match_batch(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(150, 3))
        extra = rng.normal(size=(100, 3))
        ix = NeighborIndex(base)
        ix.dmin_vector()  # materialize before inserting
        for x in extra:
            changed = ix.insert(x)
            d_new = np.sqrt(((ix.points[:-1] - x) ** 2).sum(axis=1))
            # change-set is exactly the strictly-improved entries
            assert set(changed) <= set(range(ix.size - 1))
        allpts = np.vstack([base, extra])
        np.testing.assert_array_equal(ix.dmin_vector(), brute_dmin(allpts))

    def test_queries_stay_exact_with_pending_buffer(self):
        rng = np.random.default_rng(10)
        base = rng.normal(size=(50, 2))
        ix = NeighborIndex(base)
        ix.dmin_vector()
        pts = [base]
        for x in rng.normal(size=(30, 2)):
            ix.insert(x)
            pts.append(x[None, :])
        allpts = np.vstack(pts)
        q = rng.normal(size=2)
        got = ix.k_smallest_distances(q, 12)
        d_exp, i_exp = brute_knn(allpts, q, 12)
        assert [g[1] for g in got] == i_exp.tolist()

    def test_insert_reports_exact_change_set(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=(40, 2))
        ix = NeighborIndex(base)
        before = ix.dmin_vector()
        x = rng.normal(size=2)
        changed = ix.insert(x)
        d = np.sqrt(((base - x) ** 2).sum(axis=1))
        assert changed == np.flatnonzero(d < before).tolist()


def test_query_cost_sublinear_smoke():
    # smoke benchmark, not a hard contract: per-query time on uniform data
    # should grow clearly slower than the 16x size ratio
    import time

    rng = np.random.default_rng(15)
    times = {}
    for n in (2000, 32000):
        pts = rng.uniform(size=(n, 3))
        ix = NeighborIndex(pts)
        queries = rng.uniform(size=(300, 3))
        ix.k_smallest_distances(queries[0], 10)  # warm up
        t0 = time.perf_counter()
        for q in queries:
            ix.k_smallest_distances(q, 10)
        times[n] = time.perf_counter() - t0
    ratio = times[32000] / times[2000]
    print(f"per-query time ratio at 16x points: {ratio:.2f}")
    assert ratio < 16.0


def test_counters_track_queries_and_distances():
    ix = NeighborIndex(np.random.default_rng(1).normal(size=(30, 2)))
    q0, d0 = ix.counters.snapshot()
    ix.k_smallest_distances(np.zeros(2), 5)
    assert ix.counters.snapshot() == (q0 + 1, d0 + 5)
    ix.k_smallest_distances(np.zeros(2), 1)
    assert ix.counters.snapshot() == (q0 + 2, d0 + 6)


def test_leave_one_out_matches_manual():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(60, 3))
    ix = NeighborIndex(pts)
    loo = ix.leave_one_out_smallest(5)
    for i in (0, 17, 59):
        # distances_to is the definitional metric (see helpers.brute_knn);
        # the selection below is independent of the index
        d = distances_to(pts[i], pts)
        d[i] = np.inf
        np.testing.assert_array_equal(loo[i], np.sort(d)[:5])


def _self_excluding_case(case):
    """(index, all points) for the leave-one-out and nearest-other checks.
    The grid and insert cases run on the tree (p = 4 and 2) and on the
    blocked scan (p = 16)."""
    rng = np.random.default_rng(16)
    if case == "p2_float":
        pts = rng.normal(size=(300, 2))
    elif case in ("p4_grid_duplicates", "p16_grid_duplicates"):
        p = 4 if case == "p4_grid_duplicates" else 16
        pts = rng.integers(0, 3, size=(300, p)).astype(float)
        # one point duplicated more than k+1 times (k=5 below)
        pts[rng.choice(300, size=11, replace=False)] = pts[7]
    elif case == "p30_flat":
        pts = rng.normal(size=(200, 30))
    else:  # inserts, with duplicates across the initial and inserted points
        p = 2 if case == "pending_inserts" else 16
        base = rng.integers(0, 6, size=(200, p)).astype(float)
        ix = NeighborIndex(base)
        extra = rng.integers(0, 6, size=(40, p)).astype(float)
        for x in extra:
            ix.insert(x)
        if case == "pending_inserts":
            assert ix._tree_size < ix.size
        return ix, np.vstack([base, extra])
    return NeighborIndex(pts), pts


@pytest.mark.parametrize(
    "case", ["p2_float", "p4_grid_duplicates", "p16_grid_duplicates",
             "p30_flat", "pending_inserts", "p16_inserts"])
def test_self_excluding_views_match_brute_force(case, monkeypatch):
    ix, pts = _self_excluding_case(case)
    n, p = pts.shape
    assert (ix._tree is not None) == (p < 16)
    # blocks of 7 rows: the last block is partial
    monkeypatch.setattr(neighbors, "BLOCK_ELEMENTS", 7 * n * p)
    tree, tree_size = ix._tree, ix._tree_size
    k = 5
    loo = ix.leave_one_out_smallest(k)
    dmin = ix.dmin_vector()
    assert ix._tree is tree and ix._tree_size == tree_size
    expected = np.empty((pts.shape[0], k))
    for i, x in enumerate(pts):
        d = distances_to(x, pts)
        d[i] = np.inf
        expected[i] = np.sort(d)[:k]
        # the lowest index wins a tie for nearest
        assert ix.nearest_within_training(i) == (d.min(), int(np.argmin(d)))
    np.testing.assert_array_equal(loo, expected)
    np.testing.assert_array_equal(dmin, brute_dmin(pts))
    np.testing.assert_array_equal(dmin, loo[:, 0])


def _brute_rows(points, queries, k, order, exclude=None):
    """``brute_knn`` for each query row; an excluded index is left out of
    its row's scan."""
    everything = np.arange(points.shape[0])
    dist, idx = [], []
    for i, q in enumerate(queries):
        keep = everything if exclude is None else np.delete(everything, exclude[i])
        d, j = brute_knn(points[keep], q, k, order)
        dist.append(d)
        idx.append(keep[j])
    return np.array(dist), np.array(idx)


def _scan_case(case):
    """(points, queries, metric) above the dimension limit."""
    rng = np.random.default_rng(31)
    if case == "offset_1e8":
        # ||q||^2 - 2 q.y + ||y||^2 cancels: scores are off by far more
        # than the distances between neighbours
        pts = rng.normal(size=(120, 30)) + 1e8
        return pts, pts[:23] + rng.normal(size=(23, 30)), DistanceMetric()
    if case == "grid_repeats":
        pts = rng.integers(0, 3, size=(120, 12)).astype(float)
        # repeated more than k+1 times for k = 1 and 9 below
        pts[rng.choice(120, size=12, replace=False)] = pts[5]
        queries = np.vstack([pts[5], rng.integers(0, 3, size=(22, 12))])
        return pts, queries.astype(float), DistanceMetric()
    pts = rng.normal(size=(120, 20))
    order = {"manhattan": 1.0, "minkowski3": 3.0}[case]
    return pts, rng.normal(size=(23, 20)), DistanceMetric(order)


@pytest.mark.parametrize("case", ["offset_1e8", "grid_repeats", "manhattan",
                                  "minkowski3"])
def test_blocked_scan_matches_brute_force(case, monkeypatch):
    pts, queries, metric = _scan_case(case)
    (n, p), order = pts.shape, metric.order
    ix = NeighborIndex(pts, metric)
    assert ix._tree is None
    # blocks of 7 rows, so 23 query rows and n = 120 end in a partial block
    monkeypatch.setattr(neighbors, "BLOCK_ELEMENTS", 7 * n * p)
    for k in (1, 9, n - 1):
        for rows in (queries, queries[:1]):
            got = ix._knn(rows, k)
            expected = _brute_rows(pts, rows, k, order)
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])
        got = ix._knn(pts, k, exclude=np.arange(n))
        expected = _brute_rows(pts, pts, k, order, exclude=np.arange(n))
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])


@pytest.mark.parametrize("p", [2, 16])
def test_overflowing_distances_tie_by_index(p):
    # every distance between distinct points overflows to inf, so each
    # point's nearest others are the lowest other indices
    pts = np.zeros((5, p))
    pts[:, 0] = [3e200, -1e200, 1e200, -3e200, 5e200]
    ix = NeighborIndex(pts)
    assert (ix._tree is not None) == (p == 2)
    n = pts.shape[0]
    for k in (1, 3):
        got = ix._knn(pts, k, exclude=np.arange(n))
        expected = _brute_rows(pts, pts, k, 2.0, exclude=np.arange(n))
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
    assert ix.nearest_within_training(0) == (np.inf, 1)


@pytest.mark.parametrize("p", [2, 16])
def test_minkowski_overflow_is_silent(p):
    # q = 3 distances of 1e150 overflow to inf, which is the right answer;
    # neither the tree nor the scan path may warn about it
    pts = np.random.default_rng(0).normal(size=(40, p))
    ix = NeighborIndex(pts, DistanceMetric(3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = ix.batch_k_smallest(np.full((2, p), 1e150), 3)
        far = distances_to(np.full(p, 1e150), pts, DistanceMetric(3.0))
    assert np.isinf(d).all() and np.isinf(far).all()
