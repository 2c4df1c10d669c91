import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_dmin, brute_knn, exact_psi, in_thread, index_state,
                     record_gathers, scan_budget, sorted_distances)
import openevt
from openevt import neighbors
from openevt.data import DistanceMetric, _minkowski, distances_to
from openevt.errors import DataError, UsageError
from openevt.evm import EvmModel
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


@pytest.mark.parametrize("points", [np.empty((0, 2)), np.zeros(3)], ids=["no-rows", "1-d"])
def test_index_needs_a_non_empty_point_matrix(points):
    with pytest.raises(UsageError, match=r"non-empty \(n, p\) point matrix"):
        NeighborIndex(points)


@pytest.mark.parametrize("dmin", [np.ones(10), np.ones(80), np.ones((50, 1))],
                         ids=["short", "long", "2-d"])
def test_index_refuses_a_dmin_of_the_wrong_shape(dmin):
    # one entry per point, else an insert later reads past the vector
    points = np.random.default_rng(3).normal(size=(50, 2))
    with pytest.raises(UsageError, match=r"dmin must have shape \(50,\), got \("):
        NeighborIndex(points, dmin=dmin)
    assert NeighborIndex(points, dmin=np.ones(50)).dmin_vector().tolist() == [1.0] * 50


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
    for metric in (DistanceMetric(1.0), DistanceMetric(3.0)):
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


@pytest.mark.parametrize("p", [2, 25])
def test_bare_visit_sees_every_query_row(p):
    # on the kd-tree as on the scan, a bare visit of a pass takes every
    # query row's scores against every stored point once, beside a kNN
    # selection or alone
    pts = np.random.default_rng(7).normal(size=(60, p))
    ix, seen = NeighborIndex(pts), []
    assert ix.scans == (p > neighbors.TREE_DIMENSION_LIMIT)

    def visit(block, rows, score, slack):
        assert score.shape == (rows.shape[0], 60)
        seen.extend(range(block.start, block.start + rows.shape[0]))
    ix.leave_one_out_smallest(3, [visit])
    ix.batch_k_smallest(pts[:20], 3, [visit])
    ix.run(pts[:10], [visit])
    assert seen == list(range(60)) + list(range(20)) + list(range(10))


@pytest.mark.parametrize("p", [2, 30])
def test_one_pass_of_knn_margins_and_a_visit(p, monkeypatch):
    # A leave-one-out kNN selection, a labelled one (evm's margins) and a
    # visit share one pass over integer points with many distance ties, in
    # blocks of 7 rows, and equal brute force. The visit, listed first,
    # sees the scores of a scan alone: kNN selections leave them as they
    # are. Only the unlabelled selection counts.
    rng = np.random.default_rng(p)
    pts = np.round(rng.normal(size=(90, p)) * 2.0)
    labels = rng.integers(0, 3, size=90)
    n = pts.shape[0]
    monkeypatch.setattr(neighbors, "BLOCK_ELEMENTS", scan_budget(7, pts))
    ix = NeighborIndex(pts)
    assert ix.scans == (p > neighbors.TREE_DIMENSION_LIMIT)

    def record(into):
        def visit(block, rows, score, slack):
            into[block] = score
        return visit
    seen, alone = np.empty((n, n)), np.empty((n, n))
    loo, margins = neighbors.Knn(6, np.arange(n)), neighbors.Knn(5, labels=labels)
    ix.run(pts, [record(seen), loo, margins])
    neighbors.scan(pts, pts, 2.0, record(alone))
    assert seen.tobytes() == alone.tobytes()
    expected = _brute_rows(pts, pts, 6, 2.0, exclude=np.arange(n))
    np.testing.assert_array_equal(loo.distances, expected[0])
    np.testing.assert_array_equal(loo.indices, expected[1])
    cross = [np.sort(distances_to(x, pts[labels != label]))[:5]
             for x, label in zip(pts, labels)]
    np.testing.assert_array_equal(margins.distances, np.array(cross))
    assert margins.indices is None
    assert ix.counters.snapshot() == (n, 6 * n)


@pytest.mark.parametrize("p", [2, 30])
@pytest.mark.parametrize("width,margin_width", [(6, 5), (6, 0), (0, 5)])
def test_training_pass_equals_brute_force(p, width, margin_width):
    # the pass every fit starts from: an index over the points, their
    # leave-one-out matrix (None at width 0) and their unhalved distances to
    # other labels (None at margin width 0), from one run
    rng = np.random.default_rng(p)
    pts = np.round(rng.normal(size=(90, p)) * 2.0)
    labels = rng.integers(0, 3, size=90)
    ix, loo, margins = NeighborIndex.training_pass(pts, DistanceMetric(), width,
                                                   labels, margin_width)
    assert ix.points.tobytes() == pts.tobytes()
    if width:
        expected = _brute_rows(pts, pts, width, 2.0, exclude=np.arange(90))[0]
        np.testing.assert_array_equal(loo, expected)
    else:
        assert loo is None
    if margin_width:
        cross = [np.sort(distances_to(x, pts[labels != label]))[:margin_width]
                 for x, label in zip(pts, labels)]
        np.testing.assert_array_equal(margins, np.array(cross))
    else:
        assert margins is None
    assert ix.counters.snapshot() == ((90, 90 * width) if width else (0, 0))


@pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-300, 1e-310, 1e-320])
@pytest.mark.parametrize("order", [1.0, 1.5, 2.0, 3.0, 8.0, 100.0])
def test_subnormal_tree_distances_match_brute_force(order, scale):
    # points and queries scaled toward and into the subnormal range, where
    # scipy's tree distances lose bits and the coordinates collapse into
    # ties: the kd-tree's selections still equal brute force by
    # distances_to, ties broken by index
    rng = np.random.default_rng(int(order * 10))
    pts, queries = rng.normal(size=(80, 3)) * scale, rng.normal(size=(12, 3)) * scale
    n, metric = pts.shape[0], DistanceMetric(order)
    ix = NeighborIndex(pts, metric)
    assert not ix.scans
    dist, idx = ix._knn(queries, 5)
    expected = _brute_rows(pts, queries, 5, order)
    np.testing.assert_array_equal(dist, expected[0])
    np.testing.assert_array_equal(idx, expected[1])
    np.testing.assert_array_equal(
        ix.leave_one_out_smallest(4),
        _brute_rows(pts, pts, 4, order, exclude=np.arange(n))[0])


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


class _CountingTree:
    """A kd-tree that counts its ``query`` calls."""

    def __init__(self, tree):
        self.tree, self.queries = tree, 0

    def query(self, *args, **kwargs):
        self.queries += 1
        return self.tree.query(*args, **kwargs)


@pytest.mark.parametrize("pending", [0, 30])
def test_one_row_query_asks_the_tree_once_unless_tied(pending):
    # an untied row's probe lies beyond its kth distance after one query; a
    # row on an integer grid whose kth and (k+1)th distances tie asks again
    rng = np.random.default_rng(29)
    cases = [(rng.normal(size=(400, 2)), rng.normal(size=2), False),
             (rng.integers(0, 6, size=(400, 2)).astype(float), np.array([2.0, 3.0]), True)]
    k = 4
    for base, q, tied in cases:
        ix = NeighborIndex(base)
        for x in rng.normal(size=(pending, 2)):
            ix.insert(x)
        assert ix.size - ix._tree_size == pending
        ix._tree = counting = _CountingTree(ix._tree)
        got = _row(ix, q, k)
        assert counting.queries > 1 if tied else counting.queries == 1
        _assert_brute(got, ix.points, q, k)
        assert (brute_knn(ix.points, q, k + 1)[0][k] == got[0][-1]) == tied


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
    monkeypatch.setattr(neighbors, "BLOCK_ELEMENTS",
                        scan_budget(7, pts) if ix.scans else 7 * n * p)
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
    if case == "near_ties":
        # each query's two nearest points lie at distances about 1e-9
        # relative apart, far below the float32 scores' rounding
        queries = rng.normal(size=(23, 20))
        v = rng.normal(size=(23, 20)) * 0.2
        twin = 1.0 + rng.uniform(-1e-9, 1e-9, size=(23, 1))
        pts = np.vstack([queries + v, queries - v * twin, rng.normal(size=(74, 20))])
        return pts, queries, DistanceMetric()
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
                                  "minkowski3", "near_ties"])
def test_blocked_scan_matches_brute_force(case, monkeypatch):
    pts, queries, metric = _scan_case(case)
    (n, p), order = pts.shape, metric.order
    ix = NeighborIndex(pts, metric)
    assert ix._tree is None
    # blocks of 7 rows, so 23 query rows and n = 120 end in a partial block
    # (Minkowski scan blocks keep the tree's rule)
    monkeypatch.setattr(neighbors, "BLOCK_ELEMENTS", 7 * n * p if order != 2.0
                        else scan_budget(7, pts, queries))
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


@pytest.mark.parametrize("p", [10, 16, 30])
@pytest.mark.parametrize("case", ["offset_0", "offset_1e4", "offset_1e8",
                                  "grid_repeats"])
def test_scores_within_their_error_bound(case, p):
    # Every GEMM score lies within its bound of the exact squared distance of
    # its float64 inputs: (p + 2) eps M + p e M / 2, plus 1.5 eps M from the
    # rounding to float32, with M = ||q||^2 + max ||y||^2 exactly, eps the
    # score's epsilon and e float64's. The slack covers what selection needs:
    # twice that, twice the recomputed square's (p + 2) e M, and the roots'
    # 4 e M (block_scores derives both). Centred points score in float32,
    # offset ones in float64.
    rng = np.random.default_rng(p)
    if case == "grid_repeats":
        pts = rng.integers(0, 4, size=(30, p)).astype(float)
        pts[10:20] = pts[0]
        queries = np.vstack([pts[:6], rng.integers(0, 4, size=(6, p))])
    else:
        offset = float(case.split("_")[1])
        pts = rng.normal(size=(30, p)) + offset
        queries = np.vstack([pts[:6], rng.normal(size=(6, p)) + offset])
    blocks = []
    neighbors.scan(queries, pts, 2.0, lambda block, rows, score, slack:
                   blocks.append((block, score.dtype, score.astype(float), slack)))
    exact_pts = [[Fraction(v) for v in y] for y in pts]
    top = max(sum(v * v for v in y) for y in exact_pts)
    e = Fraction(np.finfo(float).eps)
    for block, dtype, score, slack in blocks:
        assert dtype == (np.float32 if case in ("offset_0", "grid_repeats")
                         else np.float64)
        eps = Fraction(float(np.finfo(dtype).eps))
        error = (p + 2) * eps + p * e / 2 + (3 * eps / 2 if dtype == np.float32 else 0)
        need = 2 * error + 2 * (p + 2) * e + 4 * e
        for q, row, row_slack in zip(queries[block], score, slack):
            q = [Fraction(v) for v in q]
            big_m = sum(v * v for v in q) + top
            assert Fraction(row_slack) >= need * big_m
            for y, s in zip(exact_pts, row):
                exact = sum((a - b) ** 2 for a, b in zip(q, y))
                assert abs(Fraction(s) - exact) <= error * big_m


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2])
def test_kth_score_plus_slack_rounded_up(dtype, k):
    # A point scored exactly at its row's kth score plus the slack is a
    # candidate, in either dtype; one a few steps of the dtype above is not
    at = dtype(0.7)
    steps = [at]
    for _ in range(3):
        steps.append(np.nextafter(steps[-1], dtype(np.inf)))
    score = np.array([[0.0] * k + steps], dtype)
    cand = neighbors.scan_candidates(score, np.array([float(at)]), k)
    assert k in cand[0] and k + 3 not in cand[0]


def _chunk_case(case):
    """(points, queries, labels, k) at p = 12, laid out against the chunks
    of :func:`neighbors.scan_candidates`: columns j, j + c, j + 2c, ... of
    the first s c, where s = min(8, n // 4k) (at least 1) and c = n // s."""
    rng = np.random.default_rng(12)
    if case == "class_ordered":  # four classes stored one after another
        labels = np.repeat(np.arange(4), 60)
        pts = rng.normal(size=(240, 12)) + 3.0 * labels[:, None]
        return pts, rng.normal(size=(23, 12)) + 3.0 * rng.integers(0, 4, (23, 1)), labels, 7
    if case == "packed_chunks":
        # the point of rank r from the origin (at radius 1 + r) sits in
        # chunk r // s, so a query near the origin finds its nearest s to a
        # chunk: the loosest bound, the kth of the minima at rank (k-1) s
        n, k, s = 200, 6, 8
        ranks = np.arange(n)
        ways = rng.normal(size=(n, 12))
        pts = np.empty((n, 12))
        pts[ranks % s * (n // s) + ranks // s] = (
            ways / np.linalg.norm(ways, axis=1, keepdims=True) * (1.0 + ranks[:, None]))
        return pts, rng.normal(size=(23, 12)) * 0.01, ranks % 3, k
    if case == "tail_nearest":  # n mod s = 3: the nearest sit in the tail columns
        pts = rng.normal(size=(203, 12))
        pts[200:] = 20.0 + rng.normal(size=(3, 12)) * 0.1
        return pts, 20.0 + rng.normal(size=(23, 12)) * 0.1, rng.integers(0, 3, 203), 5
    if case == "few_columns":  # n < 4k: one chunk per column
        return (rng.normal(size=(30, 12)), rng.normal(size=(23, 12)),
                np.repeat(np.arange(3), 10), 9)
    if case == "complement_in_few_chunks":
        # class 1 fills chunks 0-2 only (s = 8, c = 25): a class-0 row's
        # unmasked minima are finite in 3 < k chunks, so its bound is inf
        labels = np.zeros(200, int)
        labels[(np.arange(8)[:, None] * 25 + np.arange(3)).ravel()] = 1
        pts = rng.normal(size=(200, 12)) + 2.0 * labels[:, None]
        return pts, rng.normal(size=(23, 12)), labels, 5
    # overflowing_scores: a point and a query at ±1e160 score inf and NaN
    pts, queries = rng.normal(size=(120, 12)), rng.normal(size=(23, 12))
    pts[17, 0], queries[4, 0] = 1e160, -1e160
    return pts, queries, rng.integers(0, 3, 120), 6


@pytest.mark.parametrize("case,offset", [
    *((case, offset) for case in ("class_ordered", "packed_chunks", "tail_nearest",
                                  "few_columns", "complement_in_few_chunks")
      for offset in (0.0, 1e5)), ("overflowing_scores", 0.0)])
def test_chunk_bound_keeps_selections_exact(case, offset, monkeypatch):
    # The kth chunk minimum only bounds each row's kth score, so the kNN,
    # leave-one-out and labelled selections equal brute force (ties by
    # index) in every stored order, in float32 scores (centred points) and
    # float64 ones (offset or overflowing), in blocks of 7 rows.
    pts, queries, labels, k = _chunk_case(case)
    pts, queries = pts + offset, queries + offset
    n = pts.shape[0]
    dtype = np.float32 if offset == 0.0 and case != "overflowing_scores" else np.float64
    assert neighbors.score_operand(queries, pts).dtype == dtype
    assert neighbors.score_operand(pts, pts).dtype == dtype
    if case == "packed_chunks":  # loose, but within k s candidates a row
        score, slack = neighbors.block_scores(
            queries, pts, neighbors.score_operand(queries, pts), 2.0, np.empty((23, n), dtype))
        found = (neighbors.scan_candidates(score, slack, k) < n).sum(axis=1)
        assert ((k < found) & (found <= k * 8)).all(), found
    if case == "complement_in_few_chunks":  # every class-1 point, for every class-0 row
        score, slack = neighbors.block_scores(
            pts, pts, neighbors.score_operand(pts, pts), 2.0, np.empty((n, n), dtype))
        masked = labels[:, None] == labels
        found = (neighbors.scan_candidates(score, slack, k, masked) < n).sum(axis=1)
        assert (found[labels == 0] == 24).all()
    monkeypatch.setattr(neighbors, "BLOCK_ELEMENTS", scan_budget(7, pts))
    ix = NeighborIndex(pts)
    assert ix.scans
    for rows in (queries, queries[:1]):
        got, expected = ix._knn(rows, k), _brute_rows(pts, rows, k, 2.0)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
    got = ix._knn(pts, k, exclude=np.arange(n))
    expected = _brute_rows(pts, pts, k, 2.0, exclude=np.arange(n))
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_array_equal(got[1], expected[1])
    margins = neighbors.Knn(k, labels=labels)
    ix.run(pts, [margins])
    np.testing.assert_array_equal(margins.distances, np.array(
        [np.sort(distances_to(x, pts[labels != label]))[:k] for x, label in zip(pts, labels)]))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), n=st.integers(1, 400),
       k=st.integers(1, 40), dtype=st.sampled_from([np.float32, np.float64]),
       masked=st.booleans(), grid=st.booleans(), special=st.booleans())
def test_chunk_minima_bound_the_kth_score(seed, m, n, k, dtype, masked, grid, special):
    # For any scores, k and mask that leaves k points a row, the kth least
    # of the row's minima over interleaved chunks (computed here, NaN last)
    # is at least its kth score, and scan_candidates holds every unmasked
    # point within the slack of that kth score, and none past the bound
    rng = np.random.default_rng(seed)
    k = min(k, n)
    score = (rng.integers(0, 6, (m, n)) if grid else rng.normal(size=(m, n))).astype(dtype)
    if special:  # as an overflowing GEMM row scores
        score[rng.random((m, n)) < 0.1] = np.inf
        score[rng.random((m, n)) < 0.05] = np.nan
    mask = None
    if masked:
        mask = rng.random((m, n)) < rng.uniform()
        mask[np.arange(m)[:, None], np.argsort(rng.random((m, n)), axis=1)[:, :k]] = False
    slack = rng.uniform(0.0, 2.0, m) * rng.integers(0, 2)
    cand = neighbors.scan_candidates(score, slack, k, mask)
    s = max(1, min(8, n // (4 * k)))
    c = n // s
    for i in range(m):
        free = np.ones(n, bool) if mask is None else ~mask[i]
        row = np.where(free, score[i].astype(float), np.inf)
        kth = np.sort(row)[k - 1]
        if k == 1 and mask is None:  # the row's least score, NaN if any is
            bound = row.min()
        else:
            bound = np.sort([row[j:s * c:c].min() for j in range(c)])[k - 1]
        assert np.isnan(bound) or bound >= kth
        got = set(cand[i][cand[i] < n].tolist())
        need = free & (np.isnan(row) | (row <= kth + slack[i]))
        assert set(np.flatnonzero(need).tolist()) <= got
        with np.errstate(invalid="ignore"):  # NaN bound: every unmasked point
            limit = np.nextafter(dtype(bound + slack[i]), dtype(np.inf))
            allowed = free & ~(score[i] > limit)
        assert got <= set(np.flatnonzero(allowed).tolist())


@pytest.mark.parametrize("case,dtype", [
    ("spread", np.float32), ("offset_1e8", np.float64),
    ("far_outlier", np.float64), ("near_1e20", np.float64),
    ("near_1e-21", np.float64), ("far_queries", np.float64),
    ("zero_spread", np.float64)])
def test_score_dtype_chosen_from_the_norms(case, dtype):
    # float32 scores only where their slack stays small against the points'
    # spread and no operand, product or score overflows or underflows; in
    # either dtype every view equals brute force, without a warning
    rng = np.random.default_rng(41)
    pts = rng.normal(size=(300, 20))
    queries = pts[:30] + rng.normal(size=(30, 20))
    if case == "offset_1e8":
        pts, queries = pts + 1e8, queries + 1e8
    elif case == "far_outlier":
        pts[7, 3] = 1e4
    elif case.startswith("near_"):
        scale = float(case.split("_")[1])
        pts, queries = pts * scale, queries * scale
    elif case == "far_queries":
        queries[3] = 1e20
    elif case == "zero_spread":
        pts, queries = np.ones_like(pts), np.ones_like(queries)
    n = pts.shape[0]
    for rows in (queries, pts):  # the far queries' rows set their scan alone
        got = set()
        neighbors.scan(rows, pts, 2.0, lambda block, rows, score, *_: got.add(score.dtype))
        assert got == {np.dtype(np.float32 if case == "far_queries" and rows is pts
                                else dtype)}
    ix = NeighborIndex(pts)
    for k in (1, 7):
        for rows, exclude in ((queries, None), (pts, np.arange(n))):
            got = ix._knn(rows, k, exclude)
            expected = _brute_rows(pts, rows, k, 2.0, exclude)
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])
    neighbors.scan(np.empty((0, 20)), pts, 2.0, None)  # no block, so no visit
    assert ix.batch_k_smallest(np.empty((0, 20)), 3).shape == (0, 3)


def _split_case(p):
    """(points, queries) above the dimension limit: at p = 16 integer ties
    and a row repeated more than k+1 times, at p = 30 Gaussian points."""
    rng = np.random.default_rng(p)
    if p == 16:
        pts = rng.integers(0, 3, size=(150, p)).astype(float)
        pts[rng.choice(150, size=9, replace=False)] = pts[4]
    else:
        pts = rng.normal(size=(150, p))
    return pts, pts[:40] + rng.integers(-1, 2, size=(40, p))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("p", [16, 30])
def test_split_scan_matches_brute_force_in_any_thread(p, workers, monkeypatch):
    # blocks of 7 rows split across the patched thread count, so that a
    # 1-CPU machine splits them too; from another thread they all run there
    pts, queries = _split_case(p)
    n, k = pts.shape[0], 6
    budget = scan_budget(7, pts)
    assert scan_budget(7, pts, queries) == budget  # one dtype for both scans
    monkeypatch.setattr(neighbors, "BLOCK_ELEMENTS", budget)
    monkeypatch.setattr(neighbors, "SCAN_THREADS", workers)

    def views(barrier=None):
        ix, seen = NeighborIndex(pts), []

        def visitor():  # the threads that run one scan's blocks
            seen.append(set())

            def visit(block, rows, score, slack):
                seen[-1].add((threading.get_ident(), threading.active_count()))
                if barrier is not None and block.start < 7 * workers:
                    # a worker holds its first block until every worker has
                    # taken one, so each takes one of the first round
                    barrier.wait()
            return visit
        caller = (threading.get_ident(), threading.active_count())
        return (ix.leave_one_out_smallest(k, [visitor()]),
                ix.batch_k_smallest(queries, k, [visitor()]), ix.dmin_vector(),
                caller, seen)

    *split, caller, seen = views(threading.Barrier(workers, timeout=60))
    assert [len({ident for ident, _ in scan}) for scan in seen] == [workers] * 2
    expected = (_brute_rows(pts, pts, k, 2.0, exclude=np.arange(n))[0],
                _brute_rows(pts, queries, k, 2.0)[0], brute_dmin(pts))
    *serial, caller, seen = in_thread(views)
    assert seen == [{caller}] * 2  # every block in the calling thread, no other
    for got, other, want in zip(split, serial, expected):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(other, want)


@pytest.mark.parametrize("blas,share", [
    ({}, "one"), ({"OPENBLAS_NUM_THREADS": "1"}, "all"),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, "all")])
def test_scan_threads_leave_a_threaded_blas_its_cpus(blas, share):
    # BLAS's default runs each product on every CPU: one scan thread; one
    # BLAS thread per product (0 means unset): one scan thread per CPU
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(openevt.__file__).parent.parent),
                    env.get("PYTHONPATH")) if p)
    code = "from openevt import neighbors as n; print(n.SCAN_THREADS, n._CPUS)"
    threads, cpus = map(int, subprocess.run(
        [sys.executable, "-c", code], env={**env, **blas}, capture_output=True,
        text=True, check=True, timeout=60).stdout.split())
    assert threads == (cpus if share == "all" else 1)


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_split_scan_raises_a_visit_error_after_joining(failing, monkeypatch):
    # the failing threads raise at their first block and the others sleep
    # at each, so a caller that did not join would leave threads running
    pts = _split_case(30)[0]
    monkeypatch.setattr(neighbors, "BLOCK_ELEMENTS", scan_budget(7, pts))
    monkeypatch.setattr(neighbors, "SCAN_THREADS", 3)
    before = threading.active_count()

    def visit(block, rows, score, slack):
        in_caller = threading.current_thread() is threading.main_thread()
        if in_caller == (failing == "caller"):
            raise ArithmeticError(f"in the {failing}")
        time.sleep(0.01)
    with pytest.raises(ArithmeticError, match=f"in the {failing}"):
        NeighborIndex(pts).leave_one_out_smallest(3, [visit])
    assert threading.active_count() == before


@pytest.mark.parametrize("n,p,rows", [
    (500, 10, 262), (6000, 16, 21), (2250, 16, 58), (2250, 17, 58),
    (2250, 30, 58), (300, 64, 436)])
def test_scan_blocks_sized_by_their_scores(n, p, rows):
    # a Euclidean scan block holds 1 MiB of scores, whatever p: ``rows`` rows
    # of float64 scores (coincident points), about twice as many of float32
    # (spread points); a Minkowski block keeps the tree's rule, whose
    # differences fill BLOCK_ELEMENTS
    rows32, rows64 = {500: 524, 6000: 43, 2250: 116, 300: 873}[n], rows
    spread = np.random.default_rng(n).normal(size=(n, p))
    for points, rows, order, dtype in (
            (spread, rows32, 2.0, np.float32), (np.zeros((n, p)), rows64, 2.0, float),
            (spread, neighbors.BLOCK_ELEMENTS // (n * p), 1.0, float)):
        queries = points[np.arange(2 * rows + 1) % n]
        sizes = {}
        neighbors.scan(queries, points, order, lambda block, block_rows, score,
                       *scratch: sizes.update({block.start: (len(block_rows), score.dtype)}))
        assert [sizes[start] for start in sorted(sizes)] == [
            (rows, dtype), (rows, dtype), (1, dtype)]
        row_bytes = n * np.dtype(dtype).itemsize
        assert order != 2.0 or rows * row_bytes <= 1 << 20 < (rows + 1) * row_bytes


@pytest.mark.parametrize("order", [2.0, 1.0])
def test_split_gathers_match_brute_force(order, monkeypatch):
    # Tie-heavy 0/1 rows, a row repeated 20 times and k up to n - 1 give
    # candidate matrices as wide as the index. Patched to 6-row float32
    # scan blocks (1-row Manhattan ones), whose gathers (at least 3 n p
    # elements) exceed BLOCK_ELEMENTS, every selection and (Manhattan) score
    # gather must split to stay within it.
    rng = np.random.default_rng(5)
    pts = rng.integers(0, 2, size=(90, 30)).astype(float)
    pts[rng.choice(90, size=20, replace=False)] = pts[3]
    queries = np.vstack([pts[3], rng.integers(0, 2, size=(12, 30))])
    (n, p), budget = pts.shape, 3 * pts.shape[0] * 16
    assert scan_budget(6, pts) == budget
    monkeypatch.setattr(neighbors, "BLOCK_ELEMENTS", budget)
    sizes = record_gathers(monkeypatch)
    ix = NeighborIndex(pts, DistanceMetric(order))
    for k in (1, 9, n - 1):
        got = ix._knn(queries, k)
        expected = _brute_rows(pts, queries, k, order)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
        got = ix._knn(pts, k, exclude=np.arange(n))
        expected = _brute_rows(pts, pts, k, order, exclude=np.arange(n))
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
    assert max(sizes) <= budget < 3 * (n - 1) * p


def test_gather_peaks_within_their_bound(monkeypatch):
    # Two scan threads from the main thread, each holding a score buffer,
    # a few score-sized index and distance arrays, and one gather within
    # BLOCK_ELEMENTS: the tie-saturated leave-one-out (every
    # point a candidate of every row, float64 scores), one of two coincident
    # clusters (the row's own cluster a candidate, float32 scores) and evm's
    # psi at a 1e8 offset (every point kept) stay within that, sized by a
    # float64 block's scores, and equal their brute-force results.
    monkeypatch.setattr(neighbors, "SCAN_THREADS", 2)
    sizes = record_gathers(monkeypatch)
    (n, p), k, rng = (2250, 30), 23, np.random.default_rng(7)
    scores = neighbors.BLOCK_ELEMENTS // (16 * n) * n
    bound = 2 * 8 * (neighbors.BLOCK_ELEMENTS + 7.5 * scores)
    ties, clusters = np.zeros((n, p)), np.zeros((n, p))
    clusters[::2] = 1.0
    assert scan_budget(1, ties) == 2 * scan_budget(1, clusters)  # float64, float32
    far = rng.normal(size=(n, p)) + 1e8
    model = EvmModel(far, rng.uniform(1.0, 2.0, n), rng.uniform(1.0, 4.0, n),
                     5, None, DistanceMetric())
    queries = far[:1300] + rng.normal(size=(1300, p))
    expected, peaks = [sorted_distances(points)[:, :k] for points in (ties, clusters)], []
    tracemalloc.start()
    try:
        for points, want in zip((ties, clusters), expected):
            tracemalloc.reset_peak()
            loo = NeighborIndex(points).leave_one_out_smallest(k)
            peaks.append(tracemalloc.get_traced_memory()[1])
            np.testing.assert_array_equal(loo, want)
            del loo
        tracemalloc.reset_peak()
        psi = model.membership_batch(queries)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) <= bound + expected[0].nbytes, [peak / 2**20 for peak in peaks]
    assert max(sizes) <= neighbors.BLOCK_ELEMENTS
    np.testing.assert_array_equal(psi, exact_psi(model, queries))


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
    # q = 3 distances beyond the largest double overflow to inf, which is
    # the right answer; neither the tree nor the scan path may warn about
    # it. At 1e150 only the powers would overflow: the distance is finite.
    pts = np.random.default_rng(0).normal(size=(40, p))
    ix = NeighborIndex(pts, DistanceMetric(3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = ix.batch_k_smallest(np.full((2, p), 1.5e308), 3)
        far = distances_to(np.full(p, 1.5e308), pts, DistanceMetric(3.0))
        near = ix.batch_k_smallest(np.full((2, p), 1e150), 3)
    assert np.isinf(d).all() and np.isinf(far).all()
    np.testing.assert_allclose(near, 1e150 * p ** (1 / 3), rtol=1e-14)


def test_minkowski_rows_scaled_against_under_and_overflow():
    origin = np.zeros((1, 2))
    # 0.4^1000 underflows, but the distance is not a duplicate's 0
    assert distances_to([0.3, 0.4], origin, DistanceMetric(1e3)).tolist() == [0.4]
    # (4e200)^3 overflows, but the distance is finite
    big = distances_to([3e200, 4e200], origin, DistanceMetric(3.0))[0]
    assert big == pytest.approx(91 ** (1 / 3) * 1e200, rel=1e-14)
    for order in (1.0, 2.0, 3.0, 1e3):  # a zero row is a duplicate's 0
        assert distances_to([0.3, 0.4], np.array([[0.3, 0.4]]),
                            DistanceMetric(order)).tolist() == [0.0]
    # q = 1 and q = 2 keep their own unscaled arithmetic
    diff = np.random.default_rng(5).normal(size=(50, 7)) * 1e3
    assert (_minkowski(diff, 2.0).tobytes()
            == np.sqrt(np.einsum("ij,ij->i", diff, diff)).tobytes())
    assert _minkowski(diff, 1.0).tobytes() == np.abs(diff).sum(axis=1).tobytes()


@pytest.mark.parametrize("order", [3.0, 7.5])
@pytest.mark.parametrize("integer", [False, True])
def test_tree_and_scan_agree_at_minkowski_orders(order, integer, monkeypatch):
    # the tree proposes by scipy's unscaled p-norm, the scan by the scaled
    # one; both select by distances_to, so every view is bitwise equal
    rng = np.random.default_rng(int(order * 10) + integer)
    if integer:  # many exact ties, broken by index
        pts = rng.integers(0, 5, size=(400, 4)).astype(float)
    else:
        pts = rng.normal(size=(400, 4)) * [1e-3, 1.0, 10.0, 1e3]
    queries = np.vstack([pts[:5], pts[5:35] + rng.normal(size=(30, 4))])
    results = []
    for limit in (neighbors.TREE_DIMENSION_LIMIT, 0):
        monkeypatch.setattr(neighbors, "TREE_DIMENSION_LIMIT", limit)
        ix = NeighborIndex(pts, DistanceMetric(order))
        assert ix.scans == (limit == 0)
        dist, idx = ix._knn(queries, 7)
        results.append([dist.tobytes(), idx.tobytes(),
                        ix.leave_one_out_smallest(6).tobytes(),
                        ix.dmin_vector().tobytes()])
    assert results[0] == results[1]
    for q, row in zip(queries, idx):
        np.testing.assert_array_equal(row, brute_knn(pts, q, 7, order)[1])


@pytest.mark.parametrize("x,accepted", [
    ([1e160, 0.0], False),    # the tree's ball query overflows
    ([0.0, 2e154], False),    # every squared distance overflows
    ([-1e154, 0.0], True),    # nearest 1e154; the ball into the far set overflows
    ([1e154, 1e154], True),   # nearest 1e154, to the far set
    ([0.5, 0.5], True),
])
def test_overflowing_insert_refused_alike_by_tree_and_scan(x, accepted, monkeypatch):
    # an insert whose nearest distance overflows raises and changes
    # nothing; the tree path accepts and refuses what the scan path does
    rng = np.random.default_rng(31)
    base = np.vstack([rng.normal(size=(150, 2)),
                      rng.normal(size=(150, 2)) + [1e154, 0.0]])
    results = []
    for limit in (neighbors.TREE_DIMENSION_LIMIT, 0):
        monkeypatch.setattr(neighbors, "TREE_DIMENSION_LIMIT", limit)
        ix = NeighborIndex(base)
        assert (ix._tree is None) == (limit == 0)
        before = index_state(ix)
        try:
            results.append((ix.insert(x), ix.dmin_vector().tobytes()))
        except DataError as exc:
            assert "overflows to inf" in str(exc)
            assert index_state(ix) == before
            results.append(None)
    assert results[0] == results[1]
    assert (results[0] is not None) == accepted


@pytest.mark.parametrize("bad", [[np.nan, 0.0], [0.0, np.inf], [1.0, 2.0, 3.0]])
def test_insert_refuses_malformed_point(bad):
    ix = NeighborIndex(np.random.default_rng(2).normal(size=(50, 2)))
    before = index_state(ix)
    with pytest.raises(UsageError, match="must be 2 finite coordinates"):
        ix.insert(bad)
    assert index_state(ix) == before


@pytest.mark.parametrize("p", [2, 16])
def test_non_finite_query_row_named(p):
    ix = NeighborIndex(np.random.default_rng(3).normal(size=(60, p)))
    queries = np.zeros((4, p))
    for value in (np.nan, np.inf, -np.inf):
        queries[2, p - 1] = value
        with pytest.raises(UsageError, match=f"query row 2, column {p - 1}"):
            ix.batch_k_smallest(queries, 3)
    assert ix.counters.snapshot() == (0, 0)  # a refused query counts nothing


@pytest.mark.parametrize("p", [2, 30])
def test_run_refuses_bad_query_rows_on_either_path(p):
    # the kd-tree (p = 2) names a refused row as the scan (p = 30) does,
    # instead of letting scipy's bare ValueError out; evm's psi, a scan of
    # its own on either path, refuses with the same messages
    ix = NeighborIndex(np.random.default_rng(4).normal(size=(60, p)))
    assert ix.scans == (p > neighbors.TREE_DIMENSION_LIMIT)
    model = EvmModel(ix.points, np.ones(60), np.ones(60), 3, 0.5, DistanceMetric(2.0))
    queries = np.zeros((5, p))
    queries[3, 1] = np.nan
    for refuse in (lambda q: ix.run(q, [neighbors.Knn(3)]),
                   model.membership_batch, model.evidence):
        with pytest.raises(UsageError, match="non-finite coordinate at query row 3, column 1"):
            refuse(queries)
        for bad in (np.zeros((5, p + 1)), np.zeros((5, p - 1)), np.zeros(p)):
            with pytest.raises(UsageError, match=rf"queries must be \(m, {p}\), got \("):
                refuse(bad)
    assert ix.counters.snapshot() == (0, 0)


def test_labelled_knn_with_a_one_point_complement():
    # one class of a single point: every other row's class complement is an
    # index of that one point, whose tree returns one column as a vector
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(40, 2))
    labels = np.zeros(40, dtype=int)
    labels[17] = 1
    ix = NeighborIndex(pts)
    assert not ix.scans
    knn = neighbors.Knn(1, labels=labels)
    ix.run(pts, [knn])
    want = [brute_knn(pts[labels != labels[i]], pts[i], 1)[0] for i in range(40)]
    assert knn.distances.tobytes() == np.array(want).tobytes()
    assert knn.indices is None


@pytest.mark.parametrize("p", [2, 30])
def test_run_refuses_a_knn_it_cannot_fill(p):
    # k must lie in [1, the points a row may select]: n, n - 1 with an
    # excluded index, n less the largest class with labels; the kd-tree and
    # the scan refuse alike, before any work, with the message of the
    # convenience methods
    ix = NeighborIndex(np.random.default_rng(6).normal(size=(20, p)))
    assert ix.scans == (p > neighbors.TREE_DIMENSION_LIMIT)
    labels = np.repeat([0, 1], [6, 14])
    before = index_state(ix)
    for knn, top in [(neighbors.Knn(21), 20), (neighbors.Knn(0), 20),
                     (neighbors.Knn(20, np.arange(20)), 19),
                     (neighbors.Knn(0, np.arange(20)), 19),
                     (neighbors.Knn(7, labels=labels), 6),
                     (neighbors.Knn(14, labels=labels), 6)]:
        with pytest.raises(UsageError, match=rf"k must be in \[1, {top}\], got {knn.k}$"):
            ix.run(ix.points, [knn])
        assert knn.distances is None
    assert index_state(ix) == before  # its counters among it
    for knn in (neighbors.Knn(20), neighbors.Knn(19, np.arange(20)),
                neighbors.Knn(6, labels=labels)):
        ix.run(ix.points, [knn])
        assert np.isfinite(knn.distances).all()


@pytest.mark.parametrize("p", [2, 30])
def test_one_point_index_has_no_nearest_other(p):
    ix = NeighborIndex(np.zeros((1, p)))
    assert ix.dmin_vector().tolist() == [np.inf]
    with pytest.raises(UsageError, match=r"k must be in \[1, 0\], got 1"):
        ix.leave_one_out_smallest(1)
    assert ix.insert(np.ones(p)) == [0]
    np.testing.assert_array_equal(ix.dmin_vector(), brute_dmin(ix.points))


@pytest.mark.parametrize("p", [2, 30])
def test_non_finite_stored_point_refused(p):
    # the kd-tree (p = 2) does not let scipy's ValueError out, and the scan
    # (p = 30) does not call a stored point a query row later
    pts = np.random.default_rng(7).normal(size=(30, p))
    for value in (np.nan, np.inf, -np.inf):
        pts[7, 1] = value
        with pytest.raises(UsageError, match="non-finite coordinate at stored point 7, column 1"):
            NeighborIndex(pts)
