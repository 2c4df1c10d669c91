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


def _row(ix, q, k, exclude=None):
    """(distances, indices) of one query row through ``_knn``, the query
    behind every neighbour view; ``exclude`` is a one-element list."""
    dist, idx = ix._knn(np.asarray(q, dtype=float)[None, :], k, exclude)
    return dist[0], idx[0]


def _assert_brute(got, points, q, k, order=2.0):
    d_exp, i_exp = brute_knn(points, q, k, order)
    np.testing.assert_array_equal(got[1], i_exp)
    np.testing.assert_array_equal(got[0], d_exp)


def test_k_smallest_by_inspection():
    ix = NeighborIndex(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]]))
    dist, idx = _row(ix, [0.1, 0.0], 2)
    assert idx.tolist() == [0, 1]
    assert dist.tolist() == pytest.approx([0.1, 0.9])


def test_query_at_training_point():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    ix = NeighborIndex(pts)
    dist, idx = _row(ix, pts[1], 1)
    assert (dist.tolist(), idx.tolist()) == ([0.0], [1])


def test_k_larger_than_n_rejected():
    ix = NeighborIndex(np.array([[0.0], [1.0]]))
    with pytest.raises(UsageError):
        ix.batch_k_smallest(np.array([[0.5]]), 3)


def test_dimension_mismatch_rejected():
    ix = NeighborIndex(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(UsageError):
        ix.batch_k_smallest(np.zeros((1, 3)), 1)
    with pytest.raises(UsageError):
        ix.insert(np.array([0.0]))


def test_random_matches_brute_force():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(200, 3))
    ix = NeighborIndex(pts)
    for _ in range(20):
        q = rng.normal(size=3)
        _assert_brute(_row(ix, q, 15), pts, q, 15)


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
    _assert_brute(_row(NeighborIndex(pts), q, k), pts, q, k)


def test_manhattan_and_minkowski_queries():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(80, 4))
    for metric in (DistanceMetric.manhattan(), DistanceMetric.minkowski(3.0)):
        ix = NeighborIndex(pts, metric)
        q = rng.normal(size=4)
        _assert_brute(_row(ix, q, 10), pts, q, 10, metric.order)


def test_flat_fallback_above_dimension_limit():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(100, 25))
    ix = NeighborIndex(pts)
    assert ix._tree is None
    q = rng.normal(size=25)
    _assert_brute(_row(ix, q, 7), pts, q, 7)


class TestNearestWithinTraining:
    """One-row queries that exclude the row's own stored point."""

    def test_two_points(self):
        ix = NeighborIndex(np.array([[0.0, 0.0], [3.0, 4.0]]))
        dist, idx = _row(ix, ix.points[0], 1, exclude=[0])
        assert (dist.tolist(), idx.tolist()) == ([5.0], [1])

    def test_duplicates(self):
        ix = NeighborIndex(np.array([[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]]))
        dist, idx = _row(ix, ix.points[0], 1, exclude=[0])
        assert (dist.tolist(), idx.tolist()) == ([0.0], [1])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(500, 4))
        ix = NeighborIndex(pts)
        dmin = ix.dmin_vector()
        np.testing.assert_array_equal(dmin, brute_dmin(pts))
        for i in (0, 123, 499):
            dist, _ = _row(ix, pts[i], 1, exclude=[i])
            assert dist[0] == dmin[i]


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
        # 100 inserts into 150 points: on the tree (p = 2) the pending buffer
        # passes REBUILD_MIN, so the stream crosses a rebuild; a far outlier
        # before it is then one of the tree points listed beside the ball.
        for p in (2, 12):
            rng = np.random.default_rng(9)
            base = rng.normal(size=(150, p))
            extra = rng.normal(size=(100, p))
            extra[10] = base[3]  # a duplicate of a stored point
            extra[20] = extra[5]  # and of an inserted one
            extra[30] = 1e3
            ix = NeighborIndex(base)
            assert (ix._tree is not None) == (p == 2)
            _assert_inserts_exact(ix, base, extra)
            assert (ix._tree_size > 150) == (p == 2)

    def test_queries_stay_exact_with_pending_buffer(self):
        rng = np.random.default_rng(10)
        base = rng.normal(size=(50, 2))
        ix = NeighborIndex(base)
        ix.dmin_vector()
        pts = [base]
        for x in rng.normal(size=(30, 2)):
            ix.insert(x)
            pts.append(x[None, :])
        q = rng.normal(size=2)
        _assert_brute(_row(ix, q, 12), np.vstack(pts), q, 12)

    def test_insert_reports_exact_change_set(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=(40, 2))
        ix = NeighborIndex(base)
        before = ix.dmin_vector()
        x = rng.normal(size=2)
        changed = ix.insert(x)
        d = np.sqrt(((base - x) ** 2).sum(axis=1))
        assert changed == np.flatnonzero(d < before).tolist()


def _assert_inserts_exact(ix, base, extra):
    """Insert ``extra`` one by one: each change set is exactly the stored
    points whose nearest distance the new point strictly improves, and the
    final nearest distances are those of a batch fit."""
    stored = base
    for x in extra:
        before = ix.dmin_vector()
        changed = ix.insert(x)
        improved = np.flatnonzero(distances_to(x, stored, ix.metric) < before)
        assert changed == improved.tolist()
        stored = np.vstack([stored, x])
    np.testing.assert_array_equal(ix.dmin_vector(), brute_dmin(stored, ix.metric))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    p=st.sampled_from([1, 2, 3, 12]),
    inserts=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=10_000),
    grid=st.booleans(),
)
def test_property_inserts_match_brute_force(n, p, inserts, seed, grid):
    # integer grids make duplicates and tied nearest distances
    rng = np.random.default_rng(seed)
    draw = ((lambda m: rng.integers(0, 3, size=(m, p)).astype(float)) if grid
            else (lambda m: rng.normal(size=(m, p))))
    base = draw(n)
    _assert_inserts_exact(NeighborIndex(base), base, draw(inserts))


@pytest.mark.parametrize("order", [1.0, 3.0])
def test_minkowski_inserts_match_brute_force(order):
    # the ball's slack covers the tree's rounding in every Minkowski order
    rng = np.random.default_rng(23)
    base, extra = rng.normal(size=(120, 3)), rng.normal(size=(90, 3))
    _assert_inserts_exact(NeighborIndex(base, DistanceMetric(order)), base, extra)


@pytest.mark.parametrize("grid", [False, True])
def test_one_row_k_nearest_with_many_pending(grid, monkeypatch):
    # 500 pending inserts are candidates of every row; on the integer grid
    # many rows tie at the kth distance, and the lowest indices must win
    monkeypatch.setattr(neighbors, "REBUILD_MIN", 10**6)
    rng = np.random.default_rng(17)
    draw = ((lambda m: rng.integers(0, 6, size=(m, 2)).astype(float)) if grid
            else (lambda m: rng.normal(size=(m, 2))))
    base, extra = draw(2000), draw(500)
    ix = NeighborIndex(base)
    for x in extra:
        ix.insert(x)
    assert ix.size - ix._tree_size == 500
    stored = np.vstack([base, extra])
    for q in draw(20):
        for k in (2, 5, 40):
            dist, idx = ix._knn(q[None, :], k)
            d_exp, i_exp = brute_knn(stored, q, k)
            np.testing.assert_array_equal(dist[0], d_exp)
            np.testing.assert_array_equal(idx[0], i_exp)
            np.testing.assert_array_equal(ix.batch_k_smallest(q[None, :], k)[0],
                                          d_exp)


def test_insert_cost_sublinear_smoke():
    # smoke benchmark, not a hard contract: on the tree path an insert
    # searches the ball of the points it can improve, so its time on
    # uniform data should grow clearly slower than the 16x size ratio
    import time

    rng = np.random.default_rng(19)
    times = {}
    for n in (2000, 32000):
        ix = NeighborIndex(rng.uniform(size=(n, 2)))
        inserts = rng.uniform(size=(300, 2))
        ix.insert(inserts[0])  # warm up; materializes the nearest distances
        t0 = time.perf_counter()
        for x in inserts[1:]:
            ix.insert(x)
        times[n] = time.perf_counter() - t0
    ratio = times[32000] / times[2000]
    print(f"per-insert time ratio at 16x points: {ratio:.2f}")
    assert ratio < 16.0


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
        ix.batch_k_smallest(queries[:1], 10)  # warm up
        t0 = time.perf_counter()
        for q in queries:
            ix.batch_k_smallest(q[None, :], 10)
        times[n] = time.perf_counter() - t0
    ratio = times[32000] / times[2000]
    print(f"per-query time ratio at 16x points: {ratio:.2f}")
    assert ratio < 16.0


def test_counters_track_queries_and_distances():
    ix = NeighborIndex(np.random.default_rng(1).normal(size=(30, 2)))
    q0, d0 = ix.counters.snapshot()
    ix.batch_k_smallest(np.zeros((1, 2)), 5)
    assert ix.counters.snapshot() == (q0 + 1, d0 + 5)
    ix.batch_k_smallest(np.zeros((1, 2)), 1)
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
    expected = _brute_rows(pts, pts, k, 2.0, exclude=np.arange(n))
    for i, x in enumerate(pts):
        # one-row queries: the lowest index wins a tie
        got = _row(ix, x, k, exclude=[i])
        np.testing.assert_array_equal(got[0], expected[0][i])
        np.testing.assert_array_equal(got[1], expected[1][i])
    np.testing.assert_array_equal(loo, expected[0])
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
    dist, idx = _row(ix, pts[0], 1, exclude=[0])
    assert (dist.tolist(), idx.tolist()) == ([np.inf], [1])


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
