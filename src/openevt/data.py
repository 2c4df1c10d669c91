"""Dataset model, distance semantics, shared result types and the input
file reader.

A :class:`LabeledDataset` is an immutable (points, labels) pair; classifiers
treat the label set as opaque strings and collapse it when they need a single
"known" class.  Distances default to Euclidean but Manhattan and general
Minkowski norms are supported everywhere.
"""

import csv
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import DataError, UsageError

KNOWN = "known"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class DistanceMetric:
    """A Minkowski-family metric identified by its order ``q`` (q >= 1)."""

    order: float = 2.0

    def __post_init__(self):
        if not (self.order >= 1.0):
            raise UsageError(f"Minkowski order must be >= 1, got {self.order}")

    @classmethod
    def euclidean(cls) -> "DistanceMetric":
        return cls(2.0)

    @classmethod
    def manhattan(cls) -> "DistanceMetric":
        return cls(1.0)

    @classmethod
    def minkowski(cls, q: float) -> "DistanceMetric":
        return cls(float(q))

    @classmethod
    def parse(cls, text: str) -> "DistanceMetric":
        """Parse ``"euclidean"``, ``"manhattan"`` or ``"minkowski:Q"``."""
        name = text.strip().lower()
        if name == "euclidean":
            return cls.euclidean()
        if name == "manhattan":
            return cls.manhattan()
        if name.startswith("minkowski:"):
            try:
                return cls.minkowski(float(name.split(":", 1)[1]))
            except ValueError:
                raise UsageError(f"bad Minkowski order in metric {text!r}") from None
        raise UsageError(f"unknown metric {text!r}")

    @property
    def name(self) -> str:
        if self.order == 2.0:
            return "euclidean"
        if self.order == 1.0:
            return "manhattan"
        return f"minkowski:{self.order:g}"


EUCLIDEAN = DistanceMetric.euclidean()


def distances_to(q, points: np.ndarray, metric: DistanceMetric = EUCLIDEAN) -> np.ndarray:
    """Vector of distances from query ``q`` to every row of ``points``."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or q.shape[0] != points.shape[1]:
        raise UsageError(
            f"dimension mismatch: query has {q.shape[0] if q.ndim == 1 else q.shape} "
            f"coordinates, points have {points.shape[1]}"
        )
    return _minkowski(points - q[None, :], metric.order)


def _minkowski(diff: np.ndarray, order: float) -> np.ndarray:
    if order == 2.0:
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if order == 1.0:
        return np.abs(diff).sum(axis=1)
    # Overflow to inf is the correct distance; no warning is wanted for it.
    with np.errstate(over="ignore"):
        return np.power(np.power(np.abs(diff), order).sum(axis=1), 1.0 / order)


@dataclass(frozen=True)
class Verdict:
    """Outcome of scoring one point: ``label`` is ``"known"``/``"unknown"``,
    ``score`` is a classifier-specific finite statistic (see each classifier's
    docs for its orientation), ``evidence`` a classifier-specific record."""

    label: str
    score: float
    evidence: Any = None

    @property
    def is_unknown(self) -> bool:
        return self.label == UNKNOWN


def check_level(value, name: str):
    """Refuse a decision level outside (0, 1]: the alpha of gpdc and gevc and
    the delta of evm, for which None means unset."""
    if value is not None and not (0.0 < value <= 1.0):
        raise UsageError(f"{name} must be in (0, 1], got {value}")


def as_batch(x0, p: int) -> np.ndarray:
    """One query point as a (1, p) batch, so that per-point scoring runs the
    batch path."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.shape[0] != p:
        raise UsageError(
            f"dimension mismatch: query has shape {x0.shape}, model is p={p}"
        )
    return x0[None, :]


def only_row(columns: dict) -> dict:
    """The one row of a dict of one-row evidence arrays, as Python scalars."""
    return {name: values.item() for name, values in columns.items()}


class LabeledDataset:
    """Immutable training corpus: an (n, p) float matrix plus n class labels.

    Labels are opaque strings; internally they are mapped to dense integer
    ids in lexicographic order. Points are validated to be finite and of a
    common dimension p >= 1, with n >= 2.
    """

    def __init__(self, points, labels):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2:
            raise UsageError("points must be a 2-d array of shape (n, p)")
        n, p = pts.shape
        if p < 1:
            raise UsageError("points must have dimension p >= 1")
        if n < 2:
            raise UsageError(f"need at least 2 points, got {n}")
        if not np.all(np.isfinite(pts)):
            bad = np.argwhere(~np.isfinite(pts))[0]
            raise UsageError(f"non-finite coordinate at row {bad[0]}, column {bad[1]}")
        labels = np.array([str(l) for l in labels], dtype=object)
        if labels.shape != (n,):
            raise UsageError(f"need exactly {n} labels, got {labels.shape}")
        names, ids = np.unique(labels, return_inverse=True)
        pts.setflags(write=False)
        labels.setflags(write=False)
        ids.setflags(write=False)
        self._points = pts
        self._labels = labels
        self._label_ids = ids
        self._class_names = tuple(str(c) for c in names)

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def label_ids(self) -> np.ndarray:
        """Dense integer ids aligned with :attr:`class_names`."""
        return self._label_ids

    @property
    def class_names(self) -> tuple:
        return self._class_names

    @property
    def n(self) -> int:
        return self._points.shape[0]

    @property
    def p(self) -> int:
        return self._points.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self._class_names)

    def subset(self, mask) -> "LabeledDataset":
        mask = np.asarray(mask)
        return LabeledDataset(self._points[mask], self._labels[mask])

    def restrict_to_classes(self, names: Sequence[str]) -> "LabeledDataset":
        keep = set(names)
        mask = np.array([l in keep for l in self._labels], dtype=bool)
        if not mask.any():
            raise UsageError(f"no rows with labels in {sorted(keep)}")
        return self.subset(mask)

    def __repr__(self):
        return f"LabeledDataset(n={self.n}, p={self.p}, classes={self.n_classes})"


def read_table(path, delimiter: str | None = ",", header: bool | None = None,
               label_column: str = "none", width: int | None = None) -> tuple:
    """The one reader behind every input file: (points, labels), an (m, p)
    float array of the feature cells ((0, 0) when the file has no data rows)
    and the m label cells (None when ``label_column`` is "none").

    Blank rows are skipped; ``delimiter=None`` splits a line on commas if it
    has one, otherwise on whitespace. ``header=None`` takes the first row for
    a header when one of its feature cells is not a number. Every data row
    must have ``width`` fields (default: those of the first data row).
    Diagnostics name the file line and the feature column.
    """
    layout = {"none": (slice(None), None), "first": (slice(1, None), 0),
              "last": (slice(None, -1), -1)}.get(label_column)
    if layout is None:
        raise UsageError(
            f"label_column must be 'none', 'first' or 'last', got {label_column!r}"
        )
    feats, label = layout
    with open(path, newline="") as fh:
        rows = [(line, cells) for line, cells in _split_lines(fh, delimiter)
                if any(cells)]
    if header is None and rows:
        header = _floats(rows[0][1][feats]) is None
    if header:
        rows = rows[1:]
    labels = None if label is None else [cells[label] for _, cells in rows]
    if not rows:
        return np.empty((0, 0)), labels
    width = width or len(rows[0][1])
    for line, cells in rows:
        if len(cells) != width:
            raise DataError(
                f"{path}: row {line} has {len(cells)} fields, expected {width}")
    points = _floats([cells[feats] for _, cells in rows])
    if points is None:
        line, c, cell = next((line, c, cell) for line, cells in rows
                             for c, cell in enumerate(cells[feats], start=1)
                             if _floats(cell) is None)
        raise DataError(
            f"{path}: row {line}, column {c}: non-numeric value {cell!r}")
    if not np.isfinite(points).all():
        r, c = np.argwhere(~np.isfinite(points))[0]
        line, cells = rows[r]
        raise DataError(f"{path}: row {line}, column {c + 1}: "
                        f"non-finite value {cells[feats][c]!r}")
    return points, labels


def _split_lines(fh, delimiter):
    """(file line number, stripped cells) for each line of ``fh``."""
    if delimiter is None:
        for line, text in enumerate(fh, start=1):
            cells = text.split(",") if "," in text else text.split()
            yield line, [c.strip() for c in cells]
        return
    reader = csv.reader(fh, delimiter=delimiter)
    for cells in reader:
        yield reader.line_num, [c.strip() for c in cells]


def _floats(cells):
    """A cell, or a (nested) list of cells, parsed as floats the way
    ``float()`` parses each; None if any cell is not a number."""
    try:
        return np.array(cells).astype(float)
    except ValueError:
        return None


def load_dataset_csv(
    path,
    label_column: str = "last",
    delimiter: str = ",",
    header: bool | None = None,
) -> LabeledDataset:
    """Read one observation per row from a delimited text file.

    ``label_column`` selects the first or last field as the class label; all
    other fields must parse as finite numbers. See :func:`read_table` for
    blank rows, header detection and diagnostics.
    """
    if label_column not in ("first", "last"):
        raise UsageError(f"label_column must be 'first' or 'last', got {label_column!r}")
    points, labels = read_table(path, delimiter, header, label_column)
    if not labels:
        raise DataError(f"{path}: file contains no data rows")
    try:
        return LabeledDataset(points, labels)
    except UsageError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_points_csv(
    path,
    delimiter: str = ",",
    header: bool | None = None,
    label_column: str = "none",
) -> np.ndarray:
    """Read unlabeled feature rows; ``label_column`` may name a column
    ("first"/"last") to skip. Returns an (m, p) array, (0, 0) for a file
    with no data rows."""
    return read_table(path, delimiter, header, label_column)[0]


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine transform fitted on training data (mean/scale)."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, points: np.ndarray) -> "Standardizer":
        mean = points.mean(axis=0)
        scale = points.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        return cls(mean=mean, scale=scale)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return (pts - self.mean) / self.scale
