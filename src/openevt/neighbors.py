"""Exact k-nearest-neighbor search with incremental insertion.

The index is backed by a kd-tree (scipy's cKDTree) for dimensions up to
``TREE_DIMENSION_LIMIT`` and falls back to a vectorized flat scan above
that, where space partitioning stops paying off. Inserted points go into a
pending buffer that is scanned exactly and merged into query results; the
tree is rebuilt once the buffer grows past an amortization threshold.
Results are exact and deterministic: every distance is recomputed with
:func:`~openevt.data.distances_to`, and equal distances are broken by
training index.

Every neighbour view is one query, ``_knn``. The leave-one-out distances
and the nearest-other-point vector are that query over the stored points
with each point excluded from its own row, so calibration and external
queries share one arithmetic. The index keeps the nearest-other-point
vector because insertions must report exactly which of its entries
improved.

Concurrency: no query folds pending inserts into the tree; only ``insert``
rebuilds it, and ``insert`` requires exclusive access. The first
``dmin_vector`` call still materializes the nearest-other-point vector
lazily, a write from a read path: concurrent first calls each compute it
and store equal arrays. ``QueryCounters`` increments are not atomic, so
concurrent readers may undercount.
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
    they returned (k per row). Every view counts, fits included: a gpdc
    fit adds (n, n(k+1)) and a gevc fit (n, n)."""

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
        dist, idx = self._knn(self._points[i][None, :], 1, exclude=[i])
        return (float(dist[0, 0]), int(idx[0, 0]))

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

    def _knn(self, queries: np.ndarray, k: int, exclude=None) -> tuple:
        """Exact (m, k) distances and indices of each query row's k nearest
        stored points, ascending with ties broken by index. ``exclude``
        names one stored index per row that is never a candidate.

        Below the dimension limit the tree proposes candidates: every tree
        point within the closed ball at a row's kth tree distance (the
        (k+1)th when a point is excluded), plus the pending inserts. The
        tree is asked for one more hit as a probe: a row whose probe lies
        beyond the ball has no tie at the kth distance, so its tree hits
        hold its whole ball. Tied rows ask again for twice as many hits
        until their probe clears the ball or every tree point is a hit.
        Above the limit every point is a candidate. Either way the
        distances are recomputed with ``distances_to``.
        """
        m = queries.shape[0]
        self.counters.queries += m
        self.counters.distances += m * k
        dist = np.empty((m, k))
        idx = np.empty((m, k), dtype=int)
        if self._use_tree:
            order, size = self._metric.order, self._tree_size
            need = min(k + (exclude is not None), size)
            probe = min(need + 1, size)
            d_tree, hits = self._tree.query(queries, k=probe, p=order)
            d_tree, hits = d_tree.reshape(m, probe), hits.reshape(m, probe)
            # nextafter guards against last-ulp disagreement between the
            # tree's distances and distances_to.
            radius = np.nextafter(d_tree[:, need - 1], np.inf)
            hits = list(hits)
            tied = np.flatnonzero(d_tree[:, -1] <= radius)
            while tied.size and probe < size:
                probe = min(2 * probe, size)
                d_tree, more = self._tree.query(queries[tied], k=probe, p=order)
                for row, h in zip(tied.tolist(), more):
                    hits[row] = h
                tied = tied[d_tree[:, -1] <= radius[tied]]
            pending = np.arange(size, self.size)
        else:
            everything = np.arange(self.size)
        for i in range(m):
            if self._use_tree:
                cand = np.sort(hits[i])
                if pending.size:
                    cand = np.concatenate([cand, pending])
                d = distances_to(queries[i], self._points[cand], self._metric)
                if exclude is not None:
                    d[cand == exclude[i]] = np.inf
            else:
                cand = everything
                d = distances_to(queries[i], self._points, self._metric)
                if exclude is not None:
                    d[exclude[i]] = np.inf
            # Candidates are in index order, so ordering by (distance,
            # position) breaks ties by index.
            if k == 1:
                top = d.argmin(keepdims=True)
            else:
                # The k smallest and every candidate tied with the kth.
                near = (d <= np.partition(d, k - 1)[k - 1]).nonzero()[0]
                top = near[np.lexsort((near, d[near]))[:k]]
            dist[i], idx[i] = d[top], cand[top]
        return dist, idx

    def _ensure_dmin(self):
        if self._dmin is not None:
            return
        if self.size < 2:
            self._dmin = np.full(self.size, np.inf)
            return
        self._dmin = self._knn(self._points, 1,
                               exclude=np.arange(self.size))[0][:, 0]

    def leave_one_out_smallest(self, k: int) -> np.ndarray:
        """(n, k) matrix: for each stored point, the k smallest distances to
        the other stored points, ascending. Used for jackknife calibration."""
        n = self.size
        if not (1 <= k <= n - 1):
            raise UsageError(f"k must be in [1, {n - 1}], got {k}")
        return self._knn(self._points, k, exclude=np.arange(n))[0]
