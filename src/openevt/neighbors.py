"""Exact k-nearest-neighbor search with incremental insertion.

Every neighbour view is a :class:`Knn` selection of a pass over blocks of
query rows, in two steps. First a candidate source proposes, for each row,
a set of stored points sure to hold its k nearest:

- up to ``TREE_DIMENSION_LIMIT`` (p = 9, the crossover measured below) a
  kd-tree (scipy's cKDTree, imported on the first tree build, so the scan
  path never loads scipy) proposes the row's closed ball at its kth tree
  distance, plus the pending inserts that the tree does not hold yet;
- above it, the block is scored against every stored point by one GEMM,
  [-2q, 1, ||q||^2] . [y; ||y||^2; 1] = ||q - y||^2 in exact arithmetic,
  in float32 where that is safe, and every point scored within the slack
  (derived in :func:`block_scores`) of a bound on the row's kth score is a
  candidate (exact two-level k-selection by GEMM, Johnson, Douze & Jegou,
  *Billion-scale similarity search with GPUs*, sections 3-4). For other
  Minkowski orders the scores are the exact distances and the slack is 0.

Then one selection step recomputes each candidate's distance with the
arithmetic of :func:`~openevt.data.distances_to` and keeps each row's
first k in (distance, index) order. Results are therefore exact and
deterministic whichever source proposed the candidates, however BLAS
summed the scores, and at coordinate offsets where the GEMM form cancels:
the scores only decide which distances are recomputed. A pass
(:meth:`NeighborIndex.run`) also hands a scan's scores to bare visits.

The leave-one-out distances and the nearest-other-point vector dmin are
that query over the stored points with each point excluded from its own
row, so calibration and external queries share one arithmetic. An insert
of x reports exactly which dmin entries improve, its reverse nearest
neighbours y, d(x, y) < dmin(y) (Korn & Muthukrishnan, SIGMOD 2000), from
distances recomputed by :func:`gathered_distances`. The scan path proposes
every point. The tree proposes its closed ball around x at a reach r (the
REBUILD_MIN-th largest tree dmin after a rebuild; stored dmin only fall),
widened by a relative 4 (p + 4) eps against its rounding, the tree points
whose dmin exceeded r, and the pending points, which the rebuild rule
below keeps few as every query recomputes them (every point if x lies
beyond r of these or scipy refuses the ball as overflowing).

Concurrency: reads never change the points, the tree or a computed dmin;
``insert`` needs exclusive access. The first ``dmin_vector`` call computes
dmin lazily (gevc at fit; concurrent first calls store equal arrays), and
``QueryCounters`` increments are not atomic, so concurrent readers may
undercount. A scan called from the main thread splits its blocks across
``SCAN_THREADS`` threads, the caller among them (one per CPU when BLAS
runs each product on one thread); called from any other thread, such as
the protocols' workers, it runs every block in that thread. Each worker
keeps one score buffer for the call; ``BLOCK_ELEMENTS`` bounds its rows
and, on its own, each gather of differences (see its comment).
"""

import os
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import EUCLIDEAN, DistanceMetric, _minkowski, as_point, check_finite
from .errors import DataError, UsageError

# The kd-tree proposes candidates up to this dimension and the blocked scan
# above it. Measured on a 2-core x86 VM (OpenBLAS, one thread) for
# leave-one-out at k=17, the nearest-other vector and 2,000 queries at k=16,
# with 6,000 and 15,000 Gaussian points and 6,000 integer points: from p=10
# the scan won all nine; at p=9 it lost the nearest-other vector and the
# queries at 15,000 points. CHANGES.md has the table.
TREE_DIMENSION_LIMIT = 9

# A tree block, and each gather of candidate differences on its own, holds at
# most this many float64 elements (rows x candidates x p). A Euclidean scan
# block holds a sixteenth of their bytes in scores, 1 MiB: 2^18 in float32.
BLOCK_ELEMENTS = 1 << 21

# A scan called from the main thread splits its blocks across this many
# threads: the CPUs the process may run on over the threads BLAS gives each
# product (the first of these variables set, else every CPU). Two scan
# threads on a two-thread BLAS measured slower than one.
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_BLAS_THREADS = [int(v) for v in (os.environ.get(name, "") for name in (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS",
    "OMP_NUM_THREADS")) if v.isdigit() and int(v)]
SCAN_THREADS = max(1, _CPUS // (_BLAS_THREADS + [_CPUS])[0])

# Rebuild the tree when the pending buffer exceeds max(REBUILD_MIN,
# REBUILD_FRACTION * tree size); 1/32 is from the table in CHANGES.md.
REBUILD_MIN = 64
REBUILD_FRACTION = 1 / 32

_EPS = np.finfo(float).eps


@dataclass
class QueryCounters:
    """Instrumentation: query rows of unlabelled kNN selections and the
    distances they returned (k per row): (n, n(k+1)) for a gpdc fit, (n, n)
    for a gevc fit, (n, nK) and (m, mK) for ``fit_methods``' passes of width K."""

    queries: int = 0
    distances: int = 0

    def snapshot(self) -> tuple:
        return (self.queries, self.distances)


@dataclass
class Knn:
    """A selection of :meth:`NeighborIndex.run`: each row's k nearest stored
    points in (distance, index) order, as (m, k) ``distances`` and, without
    labels, ``indices``. No row selects its ``exclude`` index or, given
    ``labels`` instead (one per stored point, which are the rows), a point of its label."""

    k: int
    exclude: np.ndarray | None = None
    labels: np.ndarray | None = None
    distances: np.ndarray | None = None
    indices: np.ndarray | None = None

    def __post_init__(self):
        if self.labels is not None:  # a narrow mask compare
            self.labels = self.labels.astype(np.min_scalar_type(self.labels.max()))


class NeighborIndex:
    """Exact nearest-neighbor structure over n points of dimension p."""

    def __init__(self, points, metric: DistanceMetric = EUCLIDEAN, dmin=None):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise UsageError("index needs a non-empty (n, p) point matrix")
        check_finite(pts, "stored point")
        # _points and _dmin are views of the filled prefix of their buffers.
        self._points = self._point_buffer = pts
        self._metric = metric
        self._tree, self._tree_size = None, 0
        self._dmin = self._dmin_buffer = (
            None if dmin is None else np.array(dmin, dtype=float))
        if dmin is not None and self._dmin.shape != pts.shape[:1]:
            raise UsageError(f"dmin must have shape ({len(pts)},), got {self._dmin.shape}")
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
    def scans(self) -> bool:
        """Whether queries score every stored point (no kd-tree)."""
        return self._tree is None

    @property
    def points(self) -> np.ndarray:
        """Read-only view of the stored points."""
        view = self._points.view()
        view.setflags(write=False)
        return view

    # -- queries ------------------------------------------------------------

    def batch_k_smallest(self, queries: np.ndarray, k: int, selections=()) -> np.ndarray:
        """(m, k) matrix of the k smallest distances for each query row, in
        one :meth:`run` with ``selections``."""
        return self._knn(queries, k, selections=selections)[0]

    def run(self, queries: np.ndarray, selections) -> None:
        """One pass of (m, p) ``queries``: each :class:`Knn` of ``selections``
        fills its outputs, and each bare visit takes every block of a
        :func:`scan`. A scan hands each block to the kNN selections, which
        leave its scores as they are, then to the visits, which may overwrite
        them. On the kd-tree a kNN selection queries the tree (with labels,
        an index over each label's complement), and only the visits scan.
        A k out of range, wrong-width queries or a non-finite row raise UsageError."""
        knns = [sel for sel in selections if isinstance(sel, Knn)]
        for sel in knns:  # O(1) without labels, as one-row queries run it
            top = (self.size - (sel.exclude is not None) if sel.labels is None
                   else self.size - np.bincount(sel.labels).max())
            if not 1 <= sel.k <= top:
                raise UsageError(f"k must be in [1, {top}], got {sel.k}")
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.dimension:
            raise UsageError(f"queries must be (m, {self.dimension}), got {queries.shape}")
        (m, p), n = queries.shape, self.size
        for sel in knns:
            if not self.scans and sel.labels is None:  # the tree's, in row blocks
                try:
                    if m * n * p <= BLOCK_ELEMENTS:  # one block: the call's own arrays
                        sel.distances, sel.indices = self._tree_select(queries, sel.k, sel.exclude)
                    else:
                        sel.distances, sel.indices = map(np.concatenate, zip(*(
                            self._tree_select(queries[b], sel.k, None if sel.exclude is None
                                              else sel.exclude[b]) for b in row_blocks(m, n, p))))
                except ValueError:  # the kd-tree refused a row: name it
                    check_finite(queries, "query row")
                    raise
                continue
            sel.distances = np.empty((m, sel.k))
            sel.indices = None if sel.labels is not None else np.empty((m, sel.k), np.intp)
            for label in () if self.scans else np.unique(sel.labels):
                own = sel.labels == label
                sel.distances[own] = NeighborIndex(self._points[~own], self._metric
                                                   ).batch_k_smallest(queries[own], sel.k)
        steps = [partial(self._scan_select, sel) for sel in knns] if self.scans else []
        if steps or len(knns) < len(selections):  # a scan: the kNN steps, then the visits
            steps += [sel for sel in selections if not isinstance(sel, Knn)]
            scan(queries, self._points, self._metric.order,
                 lambda *block: [step(*block) for step in steps])
        for sel in knns:
            if sel.labels is None:  # a refused query counts nothing
                self.counters.queries += m
                self.counters.distances += m * sel.k

    @classmethod
    def training_pass(cls, points, metric, width, labels=None, margin_width=0) -> tuple:
        """(index over ``points``, their (n, ``width``) leave-one-out matrix or
        None at width 0, their unhalved (n, ``margin_width``) distances to other
        ``labels`` or None) from one :meth:`run`: the pass every fit starts from."""
        index = cls(points, metric)
        margins = [Knn(margin_width, labels=labels)] if margin_width else []
        d = (index.leave_one_out_smallest(width, margins) if width
             else index.run(points, margins))
        return index, d, margins[0].distances if margins else None

    def dmin_vector(self) -> np.ndarray:
        """Per-point distance to the closest other stored point."""
        self._ensure_dmin()
        return np.array(self._dmin)

    # -- mutation -----------------------------------------------------------

    def insert(self, x) -> list:
        """Add a point; returns the indices whose within-training nearest
        distance strictly improved, ascending. A point at an inf nearest
        distance raises DataError and changes nothing."""
        x = as_point(x, self.dimension)
        self._ensure_dmin()
        n, size = self.size, self._tree_size
        if self.scans:
            cand, reach = np.arange(n), np.inf
        else:
            if self._far is None:  # first insert since the tree was built
                self._reach = np.sort(self._dmin[:size])[-min(REBUILD_MIN, size)]
                self._far = np.flatnonzero(self._dmin[:size] > self._reach).tolist()
            reach = self._reach
            try:
                ball = self._tree.query_ball_point(
                    x, reach * (1.0 + 4.0 * (self.dimension + 4) * _EPS),
                    p=self._metric.order, return_sorted=False)
            except ValueError:  # scipy refuses a ball whose distances overflow
                ball, reach = [], -np.inf
            ball.extend(self._far)
            ball.extend(range(size, n))
            cand = np.fromiter(ball, np.intp, len(ball))
        d = gathered_distances(self._points, cand, x, self._metric.order)
        nearest = d.min(initial=np.inf)
        if not nearest <= reach:  # only the reach was searched
            cand = np.arange(n)
            d = gathered_distances(self._points, cand, x, self._metric.order)
            nearest = d.min()
        if nearest == np.inf:
            raise DataError("the point's nearest distance overflows to inf: "
                            "rescale the features to a smaller magnitude")
        improved = d < self._dmin.take(cand)
        changed = cand[improved]
        self._dmin[changed] = d[improved]
        self._point_buffer = _append(self._point_buffer, n, x)
        self._dmin_buffer = _append(self._dmin_buffer, n, nearest)
        self._points, self._dmin = self._point_buffer[:n + 1], self._dmin_buffer[:n + 1]
        pending, self._pending = n + 1 - size, np.arange(size, n + 1)[None] if size else None
        if not self.scans and pending > max(REBUILD_MIN, REBUILD_FRACTION * size):
            self._rebuild()
        return sorted(set(changed.tolist()))  # far points in the ball repeat

    # -- internals ----------------------------------------------------------

    def _rebuild(self):
        from scipy.spatial import cKDTree
        self._tree, self._tree_size, self._far = cKDTree(self._points), self.size, None

    def _knn(self, queries: np.ndarray, k: int, exclude=None, selections=()) -> tuple:
        """The k nearest stored points of each row, as (m, k) distances and indices."""
        knn = Knn(k, None if exclude is None else np.asarray(exclude))
        self.run(queries, [knn, *selections])
        return knn.distances, knn.indices

    def _scan_select(self, sel, block, rows, score, slack):
        """``sel``'s rows ``block`` from their scores, an excluded one inf for it alone."""
        masked = None if sel.labels is None else sel.labels[block, None] == sel.labels
        skip = None if sel.exclude is None else sel.exclude[block]
        at = np.s_[:0] if skip is None else (np.arange(len(rows)), skip)  # [:0]: none
        kept, score[at] = score[at], np.inf
        cand = scan_candidates(score, slack, sel.k, masked)
        score[at] = kept
        sel.distances[block], indices = self._select(rows, cand, sel.k, skip)
        if sel.indices is not None:
            sel.indices[block] = indices

    def _tree_select(self, queries, k, exclude) -> tuple:
        """:meth:`_select` of candidates from the tree and the pending inserts.

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
        # k = [1] asks for the 1st hit as a column, where k = 1 returns a vector
        d_tree, cand = self._tree.query(queries, k=probe if probe > 1 else [1], p=order)
        # A relative 4 (p + 4) eps, as for an insert's reach, covers the tree's
        # rounding against distances_to's: several ulps at p = 9 or q = 1.5.
        radius = d_tree[:, need - 1] * (1.0 + 4.0 * (self.dimension + 4) * _EPS)
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
        if size < self.size:  # insert keeps the pending indices
            cand = np.concatenate([cand, self._pending.repeat(m, axis=0)], axis=1)
        return self._select(queries, cand, k, exclude, padded)

    def _select(self, queries, cand, k, exclude=None, padded=True) -> tuple:
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
        if cand.size * p <= BLOCK_ELEMENTS:
            d = gathered_distances(self._points, cand, queries[:, None, :], self._metric.order)
        else:  # gathers of row blocks within BLOCK_ELEMENTS
            d = np.empty(cand.shape)
            for block in row_blocks(*cand.shape, p):
                d[block] = gathered_distances(self._points, cand[block],
                                              queries[block, None, :], self._metric.order)
        if padded or exclude is not None:
            d[cand == n] = np.inf
        # k = 1: the first minimum has the lowest index, even when all are inf
        top = (d.argmin(axis=1, keepdims=True) if k == 1
               else np.lexsort((cand, d), axis=1)[:, :k])
        if len(top) > 1:  # flat indices; a lone row's are its columns
            top += np.arange(0, d.size, d.shape[1])[:, None]
        return d.take(top), cand.take(top)

    def _ensure_dmin(self):
        if self._dmin is None:  # a lone point has no other: inf
            self._dmin = self._dmin_buffer = np.full(1, np.inf) if self.size == 1 else (
                self._knn(self._points, 1, exclude=np.arange(self.size))[0][:, 0])

    def leave_one_out_smallest(self, k: int, selections=()) -> np.ndarray:
        """(n, k) matrix of each stored point's k smallest distances to the
        other stored points, ascending, in one :meth:`run` with ``selections``."""
        return self._knn(self._points, k, np.arange(self.size), selections)[0]


def row_blocks(m: int, n: int, p: int) -> list:
    """Slices of m query rows into blocks within ``BLOCK_ELEMENTS``: no row
    has more than n candidates of p differences each."""
    step = max(1, BLOCK_ELEMENTS // (n * p))
    return [slice(lo, lo + step) for lo in range(0, m, step)]


def gathered_distances(points, cols, queries, order: float) -> np.ndarray:
    """``distances_to``'s distances of ``points[cols]`` (indices past the end
    clipped) to ``queries`` broadcast against them, from one gather."""
    # take() gathers rows several times faster than fancy indexing.
    diff = points.take(cols, axis=0, mode="clip")
    diff -= queries
    return _minkowski(diff.reshape(-1, points.shape[1]), order).reshape(cols.shape)


def scan(queries, points, order: float, visit):
    """``visit(block, rows, score, slack)`` for each block of query rows with
    its :func:`block_scores` against ``points``, which the visit may
    overwrite. The module docstring says which threads run the blocks.
    Wrong-width or non-finite queries raise UsageError."""
    if queries.ndim != 2 or queries.shape[1] != points.shape[1]:
        raise UsageError(f"queries must be (m, {points.shape[1]}), got {queries.shape}")
    check_finite(queries, "query row")
    (m, p), n = queries.shape, points.shape[0]
    operand = None if order != 2.0 else score_operand(queries, points)
    dtype = float if operand is None else operand.dtype
    # Minkowski scores come from one gather of differences, as a tree block's
    blocks = row_blocks(m, n, p if operand is None else 2 * operand.itemsize)
    errors = []
    split = len(blocks) > 1 and threading.current_thread() is threading.main_thread()
    workers = min(SCAN_THREADS, len(blocks)) if split else 1
    # each worker takes the lowest block left until it takes its own None
    tasks = deque([*blocks, *[None] * workers])

    def work():
        out = None
        try:
            for block in iter(tasks.popleft, None):
                rows = queries[block]
                if out is None:  # the largest block this worker runs
                    out = np.empty((len(rows), n), dtype)
                score, slack = block_scores(rows, points, operand, order, out)
                visit(block, rows, score, slack)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(1, workers)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def scan_candidates(score, slack, k: int, masked=None) -> np.ndarray:
    """Candidate matrix, padded with the index n, of a block's
    :func:`block_scores`, which it leaves as they are: each point scored
    within its row's slack of a bound on the row's kth score, or at a NaN
    score or threshold. A ``masked`` point (an (m, n) mask that leaves k per
    row) is never a candidate. Past k = 1 unmasked, the bound is the kth least
    of the row's unmasked minima over c >= k chunks j, j + c, ... of s <= 8
    points: scores of k distinct points, so at least the row's kth score."""
    m, n = score.shape
    if k == 1 and masked is None:
        kth = score.min(axis=1)
    else:  # the kth of the chunk minima (+inf for a chunk wholly masked)
        s = max(1, min(8, n // (4 * k)))
        shape = (m, s, n // s)
        minima = np.minimum.reduce(
            score[:, :n - n % s].reshape(shape), axis=1, initial=np.inf,
            where=True if masked is None else ~masked[:, :n - n % s].reshape(shape))
        minima.partition(k - 1, axis=1)
        kth = minima[:, k - 1]
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, so a candidate
        # rounded up to the score's dtype, the threshold only adds candidates
        limit = np.nextafter((kth + slack).astype(score.dtype), np.inf)
        hit = ~(score > limit[:, None])
    if masked is not None:
        hit &= ~masked
    flat = np.flatnonzero(hit)
    counts = np.diff(np.searchsorted(flat, np.arange(n, m * n + 1, n)), prepend=0)
    cand = np.full((m, counts.max()), n)
    cand[np.arange(cand.shape[1]) < counts[:, None]] = np.remainder(flat, n, out=flat)
    return cand


def score_operand(queries, points) -> np.ndarray:
    """The points' columns [y; ||y||^2; 1] for :func:`block_scores`, norms
    from float64: float32 where every M lies in [1e-20, 1e30), so no
    operand, product or score overflows or underflows, and 1024 float32
    slacks at the largest M are below the points' total variance, so the
    slack admits few candidates; else float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", points, points)
        top = norms.max() + np.einsum("ij,ij->i", queries, queries).max(initial=0.0)
        spread = norms.mean() - np.square(points.mean(axis=0)).sum()
        dtype = np.float32 if (1e-20 <= norms.max() and top < 1e30 and 1024 * (
            2 * points.shape[1] + 8) * np.finfo(np.float32).eps * top < spread) else float
    return np.vstack([points.T, norms, np.ones(len(norms))], dtype=dtype)


def block_scores(queries, points, operand, order: float, out) -> tuple:
    """(m, n) scores of query rows against ``points``, and each row's slack.

    With ``operand`` (:func:`score_operand`; Euclidean only) a score, in
    ``out``'s first m rows, is the row [-2q, 1, ||q||^2] times it in its
    dtype, of epsilon eps (e for float64). With M = ||q||^2 + max ||y||^2,
    the p + 2 products sum to at most 2M in magnitude, so in any order the
    score errs by (p + 2) eps M, plus p e M / 2 from the float64 norms and,
    in float32, 1.5 eps M from rounding the operands (doubling is exact).
    The square that ``distances_to`` roots errs by (p + 2) e M. A point y
    among a row's k nearest ranks no later than some z among its k best
    scored, so y's score exceeds the kth by at most twice both errors plus
    the roots' 4 e M. With eps M + 2 e M for second-order terms, float32
    underflow and its own rounding, the slack is (2p + 5 (+ 3 in float32))
    eps M + (3p + 10) e M: 5 (p + 3) e M in float64. Otherwise the scores
    are ``distances_to``'s, slack 0.
    """
    (m, p), n = queries.shape, points.shape[0]
    if operand is None:
        cols = np.broadcast_to(np.arange(n), (m, n))
        return gathered_distances(points, cols, queries[:, None, :], order), 0.0
    eps = np.finfo(operand.dtype).eps
    rounding = 3.0 * eps if operand.dtype == np.float32 else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        q_norms = np.einsum("ij,ij->i", queries, queries)
        rows = np.column_stack([-2.0 * queries, np.ones(m), q_norms])
        score = np.matmul(rows.astype(operand.dtype, copy=False), operand, out=out[:m])
        return score, (((2 * p + 5) * eps + rounding + (3 * p + 10) * _EPS)
                       * (q_norms + operand[p].max()))


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
