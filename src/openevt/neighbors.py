"""Exact k-nearest-neighbor search with incremental insertion.

The index is backed by a kd-tree (scipy's cKDTree) for dimensions up to
``TREE_DIMENSION_LIMIT`` and falls back to a vectorized flat scan above
that, where space partitioning stops paying off. Inserted points go into a
pending buffer that is scanned exactly and merged into query results; the
tree is rebuilt once the buffer grows past an amortization threshold.
Results are exact and deterministic: every distance is recomputed with
:func:`~openevt.data.distances_to`, and equal distances are broken by
training index.

The index also maintains, lazily, the vector of nearest-neighbor distances
within the training set (each point's distance to its closest other point),
because insertions must report exactly which of those entries improved.

Concurrency: the kNN queries (``k_smallest_distances``,
``batch_k_smallest``, ``nearest_within_training``) never rebuild the tree,
but their ``QueryCounters`` increments are not atomic, so concurrent
readers may undercount. ``leave_one_out_smallest`` and the first
``dmin_vector`` call, which materializes the nearest-distance vector, fold
pending inserts into the tree. ``insert`` requires exclusive access.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .data import EUCLIDEAN, DistanceMetric, distances_to
from .errors import UsageError

# Above this dimension a kd-tree degenerates to a near-linear scan with
# extra overhead, so the flat path is used instead.
TREE_DIMENSION_LIMIT = 20

# Rebuild the tree when the pending buffer exceeds
# max(REBUILD_MIN, REBUILD_FRACTION * tree size).
REBUILD_MIN = 64
REBUILD_FRACTION = 0.25


@dataclass
class QueryCounters:
    """Instrumentation: kNN query rows issued and the neighbor distances
    they looked up (k per row)."""

    queries: int = 0
    distances: int = 0

    def snapshot(self) -> tuple:
        return (self.queries, self.distances)


class NeighborIndex:
    """Exact nearest-neighbor structure over n points of dimension p."""

    def __init__(self, points, metric: DistanceMetric = EUCLIDEAN, labels=None,
                 dmin=None):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise UsageError("index needs a non-empty (n, p) point matrix")
        self._points = pts
        self._metric = metric
        self._labels = list(labels) if labels is not None else None
        self._tree = None
        self._tree_size = 0
        self._use_tree = pts.shape[1] <= TREE_DIMENSION_LIMIT
        self._dmin = None if dmin is None else np.array(dmin, dtype=float)
        self.counters = QueryCounters()
        if self._use_tree:
            self._rebuild()

    # -- basic properties ---------------------------------------------------

    @property
    def size(self) -> int:
        return self._points.shape[0]

    @property
    def dimension(self) -> int:
        return self._points.shape[1]

    @property
    def metric(self) -> DistanceMetric:
        return self._metric

    @property
    def points(self) -> np.ndarray:
        """Read-only view of the stored points."""
        view = self._points.view()
        view.setflags(write=False)
        return view

    def label(self, i: int):
        return None if self._labels is None else self._labels[i]

    # -- queries ------------------------------------------------------------

    def k_smallest_distances(self, q, k: int) -> list:
        """The k smallest distances from ``q`` to stored points, ascending.

        Returns a list of ``(distance, index)`` pairs; ties are broken by
        index. ``k`` must not exceed the current size.
        """
        q = self._check_point(q)
        self._check_k(k)
        dist, idx = self._knn(q[None, :], k)
        return list(zip(dist[0].tolist(), idx[0].tolist()))

    def batch_k_smallest(self, queries: np.ndarray, k: int) -> np.ndarray:
        """(m, k) matrix of the k smallest distances for each query row."""
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.dimension:
            raise UsageError("queries must be an (m, p) matrix matching the index")
        self._check_k(k)
        return self._knn(queries, k)[0]

    def nearest_within_training(self, i: int) -> tuple:
        """Closest other training point to stored point ``i``: (distance, index)."""
        if self.size < 2:
            raise UsageError("need at least 2 points for within-training neighbors")
        if not (0 <= i < self.size):
            raise UsageError(f"index {i} out of range [0, {self.size})")
        # Point i is at distance 0 from itself, so the nearest other point
        # is whichever of the two closest is not i.
        dist, idx = self._knn(self._points[i][None, :], 2)
        j = 1 if idx[0, 0] == i else 0
        return (float(dist[0, j]), int(idx[0, j]))

    def dmin_vector(self) -> np.ndarray:
        """Per-point distance to the closest other stored point."""
        self._ensure_dmin()
        return np.array(self._dmin)

    # -- mutation -----------------------------------------------------------

    def insert(self, x, label=None) -> list:
        """Add a point; returns the indices whose within-training nearest
        distance strictly improved, in ascending index order."""
        x = self._check_point(x)
        self._ensure_dmin()
        d = distances_to(x, self._points, self._metric)
        changed = np.flatnonzero(d < self._dmin)
        self._dmin[changed] = d[changed]
        own = float(d.min())
        self._points = np.vstack([self._points, x[None, :]])
        self._dmin = np.append(self._dmin, own)
        if self._labels is not None:
            self._labels.append(label)
        if self._use_tree:
            pending = self.size - self._tree_size
            if pending > max(REBUILD_MIN, REBUILD_FRACTION * self._tree_size):
                self._rebuild()
        return [int(i) for i in changed]

    # -- internals ----------------------------------------------------------

    def _check_point(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.ndim != 1 or q.shape[0] != self.dimension:
            raise UsageError(
                f"dimension mismatch: query has shape {q.shape}, "
                f"index dimension is {self.dimension}"
            )
        return q

    def _check_k(self, k: int):
        if not (1 <= k <= self.size):
            raise UsageError(f"k must be in [1, {self.size}], got {k}")

    def _rebuild(self):
        self._tree = cKDTree(self._points)
        self._tree_size = self.size

    def _flush(self):
        """Fold any pending inserts into the tree."""
        if self._tree is None or self._tree_size < self.size:
            self._rebuild()

    def _knn(self, queries: np.ndarray, k: int) -> tuple:
        """Exact (m, k) distances and indices of each query row's k nearest
        stored points, ascending with ties broken by index.

        Below the dimension limit the tree proposes candidates: a closed
        ball at each row's kth tree distance catches every tied point, and
        the pending inserts are scanned too. Above it every point is a
        candidate. Either way the distances are recomputed with
        ``distances_to``.
        """
        m = queries.shape[0]
        self.counters.queries += m
        self.counters.distances += m * k
        dist = np.empty((m, k))
        idx = np.empty((m, k), dtype=int)
        if self._use_tree:
            order = self._metric.order
            kt = min(k, self._tree_size)
            d_tree, _ = self._tree.query(queries, k=kt, p=order)
            # nextafter guards against last-ulp disagreement between the
            # tree's distances and distances_to.
            radius = np.nextafter(d_tree.reshape(m, kt)[:, -1], np.inf)
            balls = self._tree.query_ball_point(queries, radius, p=order,
                                                return_sorted=True)
            pending = np.arange(self._tree_size, self.size)
        else:
            everything = np.arange(self.size)
        for i in range(m):
            if self._use_tree:
                cand = np.concatenate([np.asarray(balls[i], dtype=int), pending])
                d = distances_to(queries[i], self._points[cand], self._metric)
            else:
                cand = everything
                d = distances_to(queries[i], self._points, self._metric)
            # Candidates are in index order, so ordering by (distance,
            # position) breaks ties by index.
            if k == 1:
                top = np.argmin(d, keepdims=True)
            else:
                # The k smallest and every candidate tied with the kth.
                near = np.flatnonzero(d <= np.partition(d, k - 1)[k - 1])
                top = near[np.lexsort((near, d[near]))[:k]]
            dist[i], idx[i] = d[top], cand[top]
        return dist, idx

    def _ensure_dmin(self):
        if self._dmin is not None:
            return
        if self.size < 2:
            self._dmin = np.full(self.size, np.inf)
            return
        self._dmin = self._bulk_dmin()

    def _bulk_dmin(self) -> np.ndarray:
        # Distance values are always recomputed with distances_to so that
        # batch materialization and incremental insert updates agree bitwise.
        out = np.empty(self.size)
        if self._use_tree:
            self._flush()
            d2, _ = self._tree.query(self._points, k=2, p=self._metric.order)
            radius = np.nextafter(d2[:, 1], np.inf)
            balls = self._tree.query_ball_point(self._points, radius,
                                                p=self._metric.order)
            for i in range(self.size):
                cand = [j for j in balls[i] if j != i]
                vals = distances_to(self._points[i], self._points[cand],
                                    self._metric)
                out[i] = vals.min()
            return out
        for i in range(self.size):
            d = distances_to(self._points[i], self._points, self._metric)
            d[i] = np.inf
            out[i] = d.min()
        return out

    def leave_one_out_smallest(self, k: int) -> np.ndarray:
        """(n, k) matrix: for each stored point, the k smallest distances to
        the other stored points, ascending. Used for jackknife calibration."""
        n = self.size
        if k > n - 1:
            raise UsageError(f"k must be <= {n - 1}, got {k}")
        if self._use_tree:
            self._flush()
            d, idx = self._tree.query(self._points, k=k + 1, p=self._metric.order)
            out = np.empty((n, k))
            rows = np.arange(n)
            self_pos = np.argmax(idx == rows[:, None], axis=1)
            has_self = idx[rows, self_pos] == rows
            # Points duplicated more than k+1 times may not see their own
            # index among the hits; drop the last column instead (all the
            # kept distances are zero in that case).
            self_pos = np.where(has_self, self_pos, k)
            for i in range(n):
                out[i] = np.delete(d[i], self_pos[i])
            return out
        out = np.empty((n, k))
        for i in range(n):
            d = distances_to(self._points[i], self._points, self._metric)
            d[i] = np.inf
            part = np.partition(d, k - 1)[:k]
            out[i] = np.sort(part)
        return out
