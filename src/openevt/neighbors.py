"""Exact k-nearest-neighbor search with incremental insertion.

Every neighbour view is one query, ``_knn``, run over blocks of query rows
in two steps. First a candidate source proposes, for each row, a set of
stored points sure to hold its k nearest:

- up to ``TREE_DIMENSION_LIMIT`` (p = 9, the crossover measured below) a
  kd-tree (scipy's cKDTree, imported on the first tree build, so the scan
  path never loads scipy) proposes the row's closed ball at its kth tree
  distance, plus the pending inserts that the tree does not hold yet;
- above it, the block is scored against every stored point with the GEMM
  form of the squared Euclidean distance, ||q||^2 - 2 q.y + ||y||^2, and
  every point scored within a slack of 4 (p + 4) eps (||q||^2 + max
  ||y||^2) of the row's kth score is a candidate (exact brute-force
  k-selection by GEMM, Johnson, Douze & Jegou, *Billion-scale similarity
  search with GPUs*, sections 3-4). The slack bounds the rounding of both
  the score and the recomputed distance in any summation order, so a
  point that belongs in the k nearest can never score outside it. For
  other Minkowski orders the scores are the exact distances and the slack
  is 0.

Then one selection step recomputes each candidate's distance with the
arithmetic of :func:`~openevt.data.distances_to` and keeps each row's
first k in (distance, index) order. Results are therefore exact and
deterministic whichever source proposed the candidates, however BLAS
summed the scores, and at coordinate offsets where the GEMM form cancels:
the scores only decide which distances are recomputed.

The leave-one-out distances and the nearest-other-point vector dmin are
that query over the stored points with each point excluded from its own
row, so calibration and external queries share one arithmetic. An insert
of x reports exactly which dmin entries improve, its reverse nearest
neighbours y, d(x, y) < dmin(y) (Korn & Muthukrishnan, SIGMOD 2000). The
scan path proposes every point. The tree proposes its closed ball around x
at a reach r (the REBUILD_MIN-th largest tree dmin after a rebuild; stored
dmin only fall), widened by a relative 4 (p + 4) eps against its rounding,
the tree points whose dmin exceeded r, and the pending points, which the
rebuild rule below keeps few as every query recomputes them.

Concurrency: no query folds pending inserts into the tree; only ``insert``
rebuilds it, and ``insert`` requires exclusive access. The first
``dmin_vector`` call still materializes the nearest-other-point vector
lazily, a write from a read path: concurrent first calls each compute it
and store equal arrays. ``QueryCounters`` increments are not atomic, so
concurrent readers may undercount.
"""

from dataclasses import dataclass

import numpy as np

from .data import EUCLIDEAN, DistanceMetric, _minkowski
from .errors import UsageError

# The kd-tree proposes candidates up to this dimension and the blocked scan
# above it. Measured on a 2-core x86 VM (OpenBLAS, one thread) for
# leave-one-out at k=17, the nearest-other vector and 2,000 queries at k=16,
# with 6,000 and 15,000 Gaussian points and 6,000 integer points: from p=10
# the scan won all nine; at p=9 it lost the nearest-other vector and the
# queries at 15,000 points. CHANGES.md has the table.
TREE_DIMENSION_LIMIT = 9

# A block of query rows holds at most this many float64 elements of
# candidate differences (rows x stored points x dimension, the worst case
# when every point is a candidate), which also bounds its score matrix.
BLOCK_ELEMENTS = 1 << 21

# Rebuild the tree when the pending buffer exceeds max(REBUILD_MIN,
# REBUILD_FRACTION * tree size); 1/32 is from the table in CHANGES.md.
REBUILD_MIN = 64
REBUILD_FRACTION = 1 / 32

_EPS = np.finfo(float).eps


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

    def __init__(self, points, metric: DistanceMetric = EUCLIDEAN, dmin=None):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise UsageError("index needs a non-empty (n, p) point matrix")
        # _points and _dmin are views of the filled prefix of their buffers.
        self._points = self._point_buffer = pts
        self._metric = metric
        self._tree = None
        self._tree_size = 0
        self._dmin = self._dmin_buffer = (
            None if dmin is None else np.array(dmin, dtype=float))
        self.counters = QueryCounters()
        if pts.shape[1] <= TREE_DIMENSION_LIMIT:
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

    # -- queries ------------------------------------------------------------

    def batch_k_smallest(self, queries: np.ndarray, k: int) -> np.ndarray:
        """(m, k) matrix of the k smallest distances for each query row."""
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.dimension:
            raise UsageError("queries must be an (m, p) matrix matching the index")
        if not (1 <= k <= self.size):
            raise UsageError(f"k must be in [1, {self.size}], got {k}")
        return self._knn(queries, k)[0]

    def dmin_vector(self) -> np.ndarray:
        """Per-point distance to the closest other stored point."""
        self._ensure_dmin()
        return np.array(self._dmin)

    # -- mutation -----------------------------------------------------------

    def insert(self, x) -> list:
        """Add a point; returns the indices whose within-training nearest
        distance strictly improved, in ascending index order."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise UsageError(f"dimension mismatch: point has shape {x.shape}, "
                             f"index dimension is {self.dimension}")
        self._ensure_dmin()
        n, size = self.size, self._tree_size
        if self._tree is None:
            cand, reach = np.arange(n), np.inf
        else:
            if self._far is None:  # first insert since the tree was built
                self._reach = np.sort(self._dmin[:size])[-min(REBUILD_MIN, size)]
                self._far = np.flatnonzero(self._dmin[:size] > self._reach).tolist()
            reach = self._reach
            ball = self._tree.query_ball_point(
                x, reach * (1.0 + 4.0 * (self.dimension + 4) * _EPS),
                p=self._metric.order, return_sorted=False)
            ball.extend(self._far)
            ball.extend(range(size, n))
            cand = np.fromiter(ball, np.intp, len(ball))
        d = _minkowski(self._points.take(cand, axis=0) - x, self._metric.order)
        improved = d < self._dmin.take(cand)
        changed = cand[improved]
        self._dmin[changed] = d[improved]
        nearest = d.min(initial=np.inf)
        if not nearest <= reach:  # every point within reach is a candidate
            nearest = self._knn(x[None, :], 1)[0][0, 0]
        self._point_buffer = _append(self._point_buffer, n, x)
        self._dmin_buffer = _append(self._dmin_buffer, n, nearest)
        self._points = self._point_buffer[:n + 1]
        self._dmin = self._dmin_buffer[:n + 1]
        pending = n + 1 - size
        if self._tree is not None and pending > max(REBUILD_MIN, REBUILD_FRACTION * size):
            self._rebuild()
        return sorted(set(changed.tolist()))  # far points in the ball repeat

    # -- internals ----------------------------------------------------------

    def _rebuild(self):
        from scipy.spatial import cKDTree

        self._tree = cKDTree(self._points)
        self._tree_size = self.size
        self._far = None

    def _knn(self, queries: np.ndarray, k: int, exclude=None) -> tuple:
        """Exact (m, k) distances and indices of each query row's k nearest
        stored points, ascending with ties broken by index. ``exclude``
        names one stored index per row that is never a candidate."""
        m, (n, p) = queries.shape[0], self._points.shape
        self.counters.queries += m
        self.counters.distances += m * k
        if exclude is not None:
            exclude = np.asarray(exclude)
        norms = None
        if self._tree is None and self._metric.order == 2.0:
            norms = np.einsum("ij,ij->i", self._points, self._points)
        if m == 0:
            return np.empty((0, k)), np.empty((0, k), np.intp)
        parts = []
        for block in row_blocks(m, n, p):
            rows = queries[block]
            skip = None if exclude is None else exclude[block]
            if self._tree is not None:
                cand, padded = self._tree_candidates(rows, k, skip)
            else:
                cand, padded = self._scan_candidates(rows, k, skip, norms), True
            parts.append(self._select(rows, cand, k, skip, padded))
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(col) for col in zip(*parts))

    def _tree_candidates(self, queries, k, exclude) -> tuple:
        """(candidate matrix, whether padded) from the tree and pending inserts.

        A row's candidates are every tree point within the closed ball at
        its kth tree distance (the (k+1)th when a point is excluded). The
        tree is asked for one more hit as a probe: a row whose probe lies
        beyond the ball has no tie at the kth distance, so its hits hold
        its whole ball. Tied rows ask again for twice as many hits until
        their probe clears the ball; a row that would ask for every tree
        point takes them all.
        """
        m, size, order = queries.shape[0], self._tree_size, self._metric.order
        need = min(k + (exclude is not None), size)
        probe = min(need + 1, size)
        d_tree, cand = self._tree.query(queries, k=probe, p=order)
        if probe == 1:  # the tree returns one column as a vector
            d_tree, cand = d_tree.reshape(m, 1), cand.reshape(m, 1)
        # nextafter guards against last-ulp disagreement between the tree's
        # distances and distances_to.
        radius = np.nextafter(d_tree[:, need - 1], np.inf)
        # The tree reports a point at an infinite distance as the missing
        # index size, so a probe at inf counts as tied too.
        last = d_tree[:, -1]
        tied = ((last <= radius) | (last == np.inf)).nonzero()[0]
        padded = tied.size > 0
        while tied.size:
            probe = min(2 * probe, size)
            cand = np.pad(cand, ((0, 0), (0, probe - cand.shape[1])),
                          constant_values=self.size)
            if probe == size:
                cand[tied] = np.arange(size)
                break
            d_tree, cand[tied] = self._tree.query(
                queries.take(tied, axis=0), k=probe, p=order)
            last = d_tree[:, -1]
            tied = tied[(last <= radius[tied]) | (last == np.inf)]
        cand.sort(axis=1)
        if size < self.size:
            pending = np.arange(size, self.size)[None].repeat(m, axis=0)
            cand = np.concatenate([cand, pending], axis=1)
        return cand, padded

    def _scan_candidates(self, queries, k, exclude, norms) -> np.ndarray:
        """Candidate matrix from scoring every stored point.

        With ``norms`` the score is the GEMM form of :func:`block_scores`.
        A point y that belongs in a row's k nearest ranks no later than
        some point z among the row's k best scored, so y's score exceeds
        the kth score by at most twice both errors plus the root's and the
        threshold's own rounding, about (4p + 13) eps M: within the slack.
        An undefined (NaN) score or threshold makes the point a candidate.
        """
        m, n = queries.shape[0], self.size
        score, slack = block_scores(queries, self._points, norms,
                                    self._metric.order)
        if exclude is not None:
            score[np.arange(m), exclude] = np.inf
        if k == 1:
            kth = score.min(axis=1)
        else:
            kth = np.partition(score, k - 1, axis=1)[:, k - 1]
        hit = ~(score > (kth + slack)[:, None])
        counts = hit.sum(axis=1)
        rows, cols = np.divmod(np.flatnonzero(hit), n)
        cand = np.full((m, counts.max()), n)
        cand[rows, np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]] = cols
        return cand

    def _select(self, queries, cand, k, exclude, padded) -> tuple:
        """Each row's k nearest candidates, as (m, k) distances and indices.

        ``cand`` is an (m, c) matrix of stored indices, if ``padded`` padded
        with the index ``size``; every row starts with a real candidate,
        holds at least k besides its excluded index, and lists them in
        ascending order. Each distance is recomputed with the arithmetic of
        ``distances_to``, and every row is ordered by (distance, index),
        padding last.
        """
        n, p = self._points.shape
        if exclude is not None:
            cand[cand == exclude[:, None]] = n
            cand.sort(axis=1)
        # take() gathers rows several times faster than fancy indexing.
        diff = self._points.take(cand, axis=0, mode="clip") - queries[:, None, :]
        d = _minkowski(diff.reshape(-1, p), self._metric.order).reshape(cand.shape)
        if padded or exclude is not None:
            d[cand == n] = np.inf
        if k == 1:
            # the first minimum has the lowest index, even when all are inf
            top = d.argmin(axis=1, keepdims=True)
        else:
            top = np.lexsort((cand, d), axis=1)[:, :k]
        top += np.arange(0, d.size, d.shape[1])[:, None]
        return d.take(top), cand.take(top)

    def _ensure_dmin(self):
        if self._dmin is None:
            self._dmin = self._dmin_buffer = self._knn(
                self._points, 1, exclude=np.arange(self.size))[0][:, 0]

    def leave_one_out_smallest(self, k: int) -> np.ndarray:
        """(n, k) matrix: for each stored point, the k smallest distances to
        the other stored points, ascending. Used for jackknife calibration."""
        n = self.size
        if not (1 <= k <= n - 1):
            raise UsageError(f"k must be in [1, {n - 1}], got {k}")
        return self._knn(self._points, k, exclude=np.arange(n))[0]


def row_blocks(m: int, n: int, p: int) -> list:
    """Slices of m query rows into blocks within ``BLOCK_ELEMENTS``: no row
    has more than n candidates of p differences each."""
    step = max(1, BLOCK_ELEMENTS // (n * p))
    return [slice(lo, lo + step) for lo in range(0, m, step)]


def block_scores(queries, points, norms, order: float) -> tuple:
    """(m, n) scores of query rows against ``points``, and each row's slack.

    With ``norms`` (the points' squared norms; Euclidean only) a score is
    ||q||^2 - 2 q.y + ||y||^2. In any summation order it lies within
    (p + 2) eps M of the exact squared distance, M = ||q||^2 + max ||y||^2,
    and so does the square ``distances_to`` takes the root of; the slack is
    4 (p + 4) eps M. Otherwise the scores are ``distances_to``'s, slack 0.
    """
    (m, p), n = queries.shape, points.shape[0]
    if norms is None:
        diff = points[None, :, :] - queries[:, None, :]
        return _minkowski(diff.reshape(-1, p), order).reshape(m, n), 0.0
    q_norms = np.einsum("ij,ij->i", queries, queries)
    with np.errstate(over="ignore", invalid="ignore"):
        score = queries @ points.T
        score *= -2.0
        score += q_norms[:, None]
        score += norms
    return score, 4.0 * (p + 4) * _EPS * (q_norms + norms.max())


def _append(buffer: np.ndarray, n: int, row) -> np.ndarray:
    """Store ``row`` at position ``n`` of ``buffer``, whose first n rows
    are filled; a full buffer is first copied into one of twice the
    capacity. Returns the buffer that holds the row."""
    if n == buffer.shape[0]:
        grown = np.empty((2 * n,) + buffer.shape[1:])
        grown[:n] = buffer
        buffer = grown
    buffer[n] = row
    return buffer
