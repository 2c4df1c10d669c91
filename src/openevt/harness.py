"""Synthetic data generation, metrics, and the experimental protocols.

Three protocols are provided at desk scale:

* ``toy``: one fixed two-dimensional problem, drawn per seed. Three known
  Gaussian classes (two near each other, one isolated) and an unknown
  class that is well separated from everything but closest to the
  isolated known class. This is the geometry on which margin-based scoring
  hands the unknown cluster an unjustified premium while the distance-tail
  classifiers are unaffected.
* ``oletter``: sample a set of known classes, fit on their training rows,
  then sweep openness by adding the held-out classes' test rows one class
  at a time; F-measure (unknown = positive class) is reported over a grid
  of decision thresholds. Runs on a reduced synthetic surrogate by default
  and on the real 26-class letter file when supplied.
* ``thyroid``: binary novelty detection with a single known class; ROC/AUC
  per method, with a tail-fraction sweep for the GPD classifier.

The protocols fit every kind under one metric through ``fit_methods``: one
``NeighborIndex.training_pass``, the builder of a fit alone, handed to each
kind's ``fit`` as ``neighbours``, then a pool pass, each one list of
selections. A k-column kNN result is bitwise the prefix of a wider one, so
one kNN selection at the widest width serves gpdc (k+1 columns) and gevc
(column 0, in an index of its own on the shared points until an update).
evm's widest margins join the training pass as a labelled selection, which
each evm reads in place, and every evm's psi the pool pass as a visit.

All randomness flows from one seed through named substreams, and protocol
repetitions own independent streams keyed by (seed, rep).
"""

import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import EUCLIDEAN, LabeledDataset, load_dataset_csv, read_table
from .errors import DataError, UsageError
from .evt import default_tail_count, tail_count
from .neighbors import NeighborIndex
from .serialize import fit_model, model_kinds

DEFAULT_ALPHA_GRID = (0.01, 0.05, 0.1, 0.2)
DEFAULT_DELTA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
THYROID_TAIL_FRACTIONS = (0.0025, 0.01, 0.025, 0.05, 0.10)
THYROID_UNKNOWN_CLASSES = ("1", "2")  # the paper's class mapping
THYROID_KNOWN_CLASSES = ("3",)


def rng_from(seed: int, *keys) -> np.random.Generator:
    """Named substream of the master seed; strings are hashed stably."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for key in keys:
        if isinstance(key, str):
            entropy.append(zlib.crc32(key.encode()))
        else:
            entropy.append(int(key) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


# ---------------------------------------------------------------------------
# synthetic data


# The toy problem: label, mean and standard deviation of each known class,
# the unknown class's mean and standard deviation, and the points per class
# and split. Two known classes sit next to each other, the third is
# isolated, and the unknown cluster lies nearest the isolated class. The
# exact parameters are this package's choice; only the geometry counts.
TOY_KNOWN = (("c0", (0.0, 0.0), 1.0), ("c1", (5.0, 0.0), 1.0),
             ("c2", (0.0, -14.0), 1.0))
TOY_UNKNOWN = ((7.0, -14.0), 1.5)
TOY_COUNT = 200


@dataclass(frozen=True)
class EvalSet:
    """Evaluation pool: points plus whether each comes from a known class."""

    points: np.ndarray
    is_known: np.ndarray

    @property
    def is_unknown(self) -> np.ndarray:
        return ~self.is_known


def generate_toy(seed: int = 0) -> tuple:
    """Deterministic (train, test) draw of the toy problem: 600 training
    points and 800 test points, the last 200 of them unknown."""
    def draw(rng, mean, sd):
        return rng.standard_normal((TOY_COUNT, len(mean))) * sd + mean

    train, test = [], []
    for j, (_, mean, sd) in enumerate(TOY_KNOWN):
        train.append(draw(rng_from(seed, "toy-train", j), mean, sd))
        test.append(draw(rng_from(seed, "toy-test", j), mean, sd))
    test.append(draw(rng_from(seed, "toy-unknown"), *TOY_UNKNOWN))
    labels = [label for label, _, _ in TOY_KNOWN for _ in range(TOY_COUNT)]
    is_known = np.arange(len(test) * TOY_COUNT) < len(train) * TOY_COUNT
    return (LabeledDataset(np.vstack(train), labels),
            EvalSet(points=np.vstack(test), is_known=is_known))


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class RocCurve:
    """ROC points from (0,0) to (1,1) plus the exact trapezoidal AUC."""

    points: tuple
    auc: float


def roc_auc(scores) -> RocCurve:
    """ROC over (unknownness, is_unknown) pairs, unknown = positive class.

    Ties are handled by the diagonal segments of the curve, so the AUC
    equals the tie-averaged pair-concordance statistic; the integration is
    done in integer counts and divided once, keeping it exact.
    """
    pairs = list(scores)
    if not pairs:
        raise UsageError("need at least one scored point")
    score = np.array([float(s) for s, _ in pairs])
    is_pos = np.array([bool(u) for _, u in pairs])
    n_pos = int(is_pos.sum())
    n_neg = len(pairs) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UsageError("ROC needs both known and unknown points")
    order = np.argsort(-score, kind="stable")
    score, is_pos = score[order], is_pos[order]
    # True and false positives down to each distinct score: one curve
    # point per tie group.
    ends = np.flatnonzero(np.append(score[1:] != score[:-1], True))
    tp = np.cumsum(is_pos)[ends]
    fp = ends + 1 - tp
    # Twice the area, in integer count units.
    num = int(np.diff(fp, prepend=0) @ (tp + np.append(0, tp[:-1])))
    points = [(0.0, 0.0), *zip((fp / n_neg).tolist(), (tp / n_pos).tolist())]
    return RocCurve(points=tuple(points), auc=num / (2 * n_pos * n_neg))


def f_measure(tp: int, fp: int, fn: int) -> float:
    """F-measure 2tp / (2tp + fp + fn) for unknown-detection (unknown =
    positive class), the harmonic mean of precision and recall; 0 when there
    is no true positive."""
    return 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)


def fit_methods(train: LabeledDataset, methods, pool: np.ndarray,
                optional: bool = False) -> list:
    """Fit each (kind, options) of ``methods`` on ``train`` in order through
    :func:`~openevt.serialize.fit_model`, each handed as ``neighbours`` the one
    training pass built before any fit, and return (model, keyword arguments of its
    scoring calls on ``pool``: the pool pass's kNN matrix, or an evm's psi, a visit
    of it) per method; with ``optional``, (None, None) where the fit rejects the data.
    The methods share one metric, else UsageError. Every fit runs before the pool pass."""
    methods, n = list(methods), train.n
    metrics = {options.get("metric", EUCLIDEAN) for _, options in methods}
    if len(metrics) > 1:
        raise UsageError(f"fit_methods takes one metric, got {sorted(m.name for m in metrics)}")
    ks = {kind: max([0, *(opts.get("k") or default_tail_count(n)
                          for kd, opts in methods if kd == kind)])
          for kind in ("gpdc", "evm")}  # the widest k, defaults included
    reads_columns = any(kind != "evm" for kind, _ in methods)
    width = min(ks["gpdc"] + 1, n - 1) if reads_columns else 0  # 0: evm reads no column
    margin_width = min(ks["evm"], n - np.bincount(train.label_ids).max())
    shared = NeighborIndex.training_pass(train.points, *metrics, width,
                                         train.label_ids, margin_width)
    models = []
    for kind, options in methods:
        try:  # the shared pass replaces any "neighbours" option
            models.append(fit_model(kind, train, **{**options, "neighbours": shared}))
        except DataError:
            if not optional:
                raise
            models.append(None)
    psi = {i: np.empty(len(pool)) for i, m in enumerate(models) if m and m.KIND == "evm"}
    visits = [models[i].psi_visitor(out) for i, out in psi.items()]
    pooled = (shared[0].batch_k_smallest(pool, width, visits) if width
              else shared[0].run(pool, visits))
    return [(model, model and ({"psi": psi[i]} if i in psi else {"distances": pooled}))
            for i, model in enumerate(models)]


def rank_methods(train: LabeledDataset, test: EvalSet, methods) -> tuple:
    """(models, ROC curves of ``test`` ranked by unknownness, keyword
    arguments of their scoring calls), one entry per (kind, options) of
    ``methods``, from one :func:`fit_methods` call; None where the fit
    rejects the data."""
    fitted = fit_methods(train, methods, test.points, optional=True)
    curves = [model and roc_auc(zip(model.unknownness(test.points, **scoring),
                                    test.is_unknown)) for model, scoring in fitted]
    models, scorings = zip(*fitted)
    return models, curves, scorings


# ---------------------------------------------------------------------------
# toy protocol


@dataclass(frozen=True)
class ToyResult:
    curves: dict
    test: EvalSet
    xi_hat: np.ndarray  # tail-shape estimate per test point (NaN if coincident)


def run_toy_protocol(seed: int = 0, k: int = 20,
                     alpha: float = 0.05) -> ToyResult:
    train, test = generate_toy(seed)
    models, curves, scorings = rank_methods(
        train, test, [(kind, {"k": k, "alpha": alpha}) for kind in model_kinds()])
    # xi from the pool query that ranked the pool; gpdc is the first kind
    _, pxi, _ = models[0].decision_stats(test.points, **scorings[0])
    return ToyResult(curves=dict(zip(model_kinds(), curves)), test=test, xi_hat=pxi / train.p)


# ---------------------------------------------------------------------------
# openness protocol


@dataclass(frozen=True)
class OpennessStep:
    """One protocol step: F-measure per method over the threshold grid at a
    given number of included unknown classes. ``f_measures`` maps method ->
    tuple of (threshold, f) pairs; f is None at the closed-set step, where
    unknown recall is undefined."""

    rep: int
    known_classes: tuple
    n_unknown_classes: int
    f_measures: dict


def synthetic_openset_surrogate(n_classes: int = 8, train_per_class: int = 60,
                                test_per_class: int = 40, p: int = 4,
                                seed: int = 0) -> tuple:
    """Gaussian stand-in with the openness protocol's structure. Returns
    (data, train_count): the first train_count rows are the training split."""
    rng = rng_from(seed, "surrogate")
    means = rng.normal(scale=5.0, size=(n_classes, p))
    per_class = train_per_class + test_per_class
    rows = rng.standard_normal((n_classes, per_class, p)) + means[:, None]
    labels = np.repeat([f"class{j:02d}" for j in range(n_classes)], per_class)
    # All training rows come first, then all test rows, each in class order.
    is_train = np.tile(np.arange(per_class) < train_per_class, n_classes)
    order = np.concatenate([np.flatnonzero(is_train), np.flatnonzero(~is_train)])
    return (LabeledDataset(rows.reshape(-1, p)[order], labels[order]),
            n_classes * train_per_class)


def run_oletter(data: LabeledDataset, methods: dict | None = None,
                reps: int = 5, seed: int = 0, train_count: int | None = None,
                alphas=DEFAULT_ALPHA_GRID, deltas=DEFAULT_DELTA_GRID,
                jobs: int = 1) -> list:
    """Openness sweep: per repetition, sample known classes, fit on their
    training rows, then include the remaining classes' test rows one class
    at a time, recording F-measure curves over the threshold grid."""
    if min(reps, jobs) < 1:
        raise UsageError(f"reps and jobs must be >= 1, got reps={reps}, jobs={jobs}")
    j_classes = data.n_classes
    n_known = 15 if j_classes >= 26 else max(2, round(j_classes * 15 / 26))
    if n_known >= j_classes:
        raise UsageError(
            f"need 2 <= known classes < total classes ({j_classes}), got {n_known}")
    if train_count is None:
        train_count = int(0.75 * data.n)
    if not (0 < train_count < data.n):
        raise UsageError(f"train_count must split the data, got {train_count}")
    if methods is None:
        full_scale = j_classes >= 26
        methods = {
            "gpdc": {"k": 22 if full_scale else None},
            "gevc": {},
            "evm": {"k": 75 if full_scale else None},
        }

    is_train = np.arange(data.n) < train_count
    test_points = data.points[train_count:]
    test_ids = data.label_ids[train_count:]
    names = np.array(data.class_names, dtype=object)
    # With test rows of every class, each step past the closed set adds
    # unknown rows, so its F-measure is defined.
    missing = names[np.bincount(test_ids, minlength=j_classes) == 0]
    if missing.size:
        raise DataError(f"the test split holds no rows of class {missing[0]!r}")
    grids = {"alpha": alphas, "delta": deltas}

    def one_rep(rep: int) -> list:
        rng = rng_from(seed, "oletter", rep)
        known = rng.choice(j_classes, size=n_known, replace=False)
        unknown_order = rng.permutation(np.setdiff1d(np.arange(j_classes), known))
        known_classes = tuple(names[known])
        train = data.subset(is_train & np.isin(data.label_ids, known))

        # Pool rows by class rank (0 known, m for the m-th unknown class),
        # file order within a class: step m's pool is its first stops[m] rows.
        class_rank = np.zeros(j_classes, dtype=int)
        class_rank[unknown_order] = np.arange(1, unknown_order.size + 1)
        ranks = class_rank[test_ids]
        pool_points = test_points[np.argsort(ranks, kind="stable")]
        stops = np.cumsum(np.bincount(ranks))
        n_unknown = (stops - stops[0]).tolist()
        curves = {}  # method -> per threshold, its (threshold, F) at each step
        fitted = fit_methods(train, methods.items(), pool_points)
        for name, (model, scoring) in zip(methods, fitted):
            curves[name] = []
            for thr, flag in model.flags(pool_points, grids[model.THRESHOLD],
                                         **scoring).items():
                flagged = np.cumsum(flag)[stops - 1]
                fp, tp = int(flagged[0]), (flagged - flagged[0]).tolist()
                curves[name].append([(thr, None if n == 0 else f_measure(t, fp, n - t))
                                     for t, n in zip(tp, n_unknown)])
        return [OpennessStep(rep=rep, known_classes=known_classes,
                             n_unknown_classes=m,
                             f_measures={name: tuple(curve[m] for curve in per_threshold)
                                         for name, per_threshold in curves.items()})
                for m in range(len(n_unknown))]

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return [step for steps in pool.map(one_rep, range(reps))
                for step in steps]


# ---------------------------------------------------------------------------
# binary novelty protocol


def run_thyroid_protocol(train: LabeledDataset, test: EvalSet,
                         fractions=THYROID_TAIL_FRACTIONS,
                         alpha: float = 0.05) -> tuple:
    """(curves of every kind at its default k, by kind; the GPD classifier's
    (fraction, k, auc) across tail sizes) from one :func:`fit_methods` call.
    A swept k is at least 2, the smallest k the default gamma = 1/n allows."""
    kinds = tuple(model_kinds())
    ks = [max(2, tail_count(frac, train.n)) for frac in fractions]
    curves = rank_methods(train, test, [(kind, {"alpha": alpha}) for kind in kinds]
                          + [("gpdc", {"k": k, "alpha": alpha}) for k in ks])[1]
    return (dict(zip(kinds, curves)),
            [(float(frac), k, curve.auc)
             for frac, k, curve in zip(fractions, ks, curves[len(kinds):])])


# ---------------------------------------------------------------------------
# dataset loaders


def load_letter(path) -> LabeledDataset:
    """UCI letter format: letter label first, 16 integer features."""
    data = load_dataset_csv(path, label_column="first", delimiter=",",
                            header=False)
    if data.p != 16:
        raise DataError(f"{path}: expected 16 features, found {data.p}")
    return data


def load_thyroid(path) -> tuple:
    """Clinical screening format: whitespace- or comma-separated numeric
    rows, 21 features plus a trailing class column (a trailing "." is
    dropped). Returns (points, is_unknown) with the THYROID_*_CLASSES mapping."""
    points, labels = read_table(path, delimiter=None, header=False,
                                label_column="last", width=22)
    if not labels:
        raise DataError(f"{path}: no data rows")
    mapped = THYROID_UNKNOWN_CLASSES + THYROID_KNOWN_CLASSES
    classes = [label.rstrip(".") for label in labels]
    unmapped = [c for c in classes if c not in mapped]
    if unmapped:
        raise DataError(f"{path}: unmapped class {unmapped[0]!r}")
    return points, np.array([c in THYROID_UNKNOWN_CLASSES for c in classes])


def thyroid_split(points: np.ndarray, is_unknown: np.ndarray, seed: int = 0,
                  test_known: int = 250) -> tuple:
    """All unknown rows plus ``test_known`` sampled known rows form the test
    set; the remaining known rows train. Returns (train, test)."""
    known_idx = np.flatnonzero(~is_unknown)
    unknown_idx = np.flatnonzero(is_unknown)
    if not 1 <= test_known < known_idx.size:
        raise UsageError(
            f"test_known must be in [1, {known_idx.size} known rows), got {test_known}")
    if unknown_idx.size == 0:
        raise UsageError("no unknown rows after class mapping")
    rng = rng_from(seed, "thyroid-split")
    sampled = rng.choice(known_idx, size=test_known, replace=False)
    train_idx = np.setdiff1d(known_idx, sampled)
    train = LabeledDataset(points[train_idx], ["known"] * train_idx.size)
    test_idx = np.concatenate([sampled, unknown_idx])
    test = EvalSet(points=points[test_idx],
                   is_known=~is_unknown[test_idx])
    return train, test
