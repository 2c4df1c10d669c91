"""Synthetic data generation, metrics, and the experimental protocols.

Three protocols are provided at desk scale:

* ``toy``: three known Gaussian classes (two near each other, one isolated)
  plus an unknown class that is well separated from everything but closest
  to the isolated known class. This is the geometry on which margin-based
  scoring hands the unknown cluster an unjustified premium while the
  distance-tail classifiers are unaffected.
* ``oletter``: sample a set of known classes, fit on their training rows,
  then sweep openness by adding the held-out classes' test rows one class
  at a time; F-measure (unknown = positive class) is reported over a grid
  of decision thresholds. Runs on a reduced synthetic surrogate by default
  and on the real 26-class letter file when supplied.
* ``thyroid``: binary novelty detection with a single known class; ROC/AUC
  per method, with a tail-fraction sweep for the GPD classifier.

All randomness flows from one seed through named substreams, and protocol
repetitions own independent streams keyed by (seed, rep).
"""

import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .data import LabeledDataset, load_dataset_csv, read_table
from .errors import DataError, UsageError
from .evt import tail_count
from .serialize import fit_model, model_kinds

DEFAULT_ALPHA_GRID = (0.01, 0.05, 0.1, 0.2)
DEFAULT_DELTA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
THYROID_TAIL_FRACTIONS = (0.0025, 0.01, 0.025, 0.05, 0.10)


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


@dataclass(frozen=True)
class GaussianBlob:
    """One class: a Gaussian with per-split sample counts."""

    label: str
    mean: tuple
    cov: tuple
    train_count: int = 0
    test_count: int = 0

    def chol(self) -> np.ndarray:
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        try:
            return np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise UsageError(
                f"class {self.label!r}: covariance is not positive definite"
            ) from None

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        mean = np.asarray(self.mean, dtype=float)
        return rng.standard_normal((count, mean.shape[0])) @ self.chol().T + mean


@dataclass(frozen=True)
class ToyConfig:
    known: tuple
    unknown: GaussianBlob
    seed: int = 0

    def validate(self):
        if not self.known:
            raise UsageError("need at least one known class")
        for blob in self.known:
            if blob.train_count < 1 or blob.test_count < 1:
                raise UsageError(f"class {blob.label!r}: counts must be >= 1")
            blob.chol()
        if self.unknown.test_count < 1:
            raise UsageError("unknown class needs test_count >= 1")
        self.unknown.chol()


def default_toy_config(seed: int = 0) -> ToyConfig:
    """Reconstruction of the misleading-geometry toy problem: two known
    classes near each other, a third isolated far away, and the unknown
    cluster separated from all training data but nearest to the isolated
    class. 600 training and 800 test points. The exact Gaussian parameters
    are this package's choice; only the geometry is meaningful."""
    eye = ((1.0, 0.0), (0.0, 1.0))
    wide = ((2.25, 0.0), (0.0, 2.25))
    return ToyConfig(
        known=(
            GaussianBlob("c0", (0.0, 0.0), eye, 200, 200),
            GaussianBlob("c1", (5.0, 0.0), eye, 200, 200),
            GaussianBlob("c2", (0.0, -14.0), eye, 200, 200),
        ),
        unknown=GaussianBlob("unknown", (7.0, -14.0), wide, 0, 200),
        seed=seed,
    )


@dataclass(frozen=True)
class EvalSet:
    """Evaluation pool: points plus whether each comes from a known class."""

    points: np.ndarray
    is_known: np.ndarray

    @property
    def is_unknown(self) -> np.ndarray:
        return ~self.is_known


def generate_toy(cfg: ToyConfig) -> tuple:
    """Deterministic (train, test) draw for a toy configuration."""
    cfg.validate()
    train_pts, train_labels, test_pts, known_flags = [], [], [], []
    for j, blob in enumerate(cfg.known):
        rng = rng_from(cfg.seed, "toy-train", j)
        train_pts.append(blob.sample(rng, blob.train_count))
        train_labels += [blob.label] * blob.train_count
        rng = rng_from(cfg.seed, "toy-test", j)
        test_pts.append(blob.sample(rng, blob.test_count))
        known_flags += [True] * blob.test_count
    rng = rng_from(cfg.seed, "toy-unknown")
    test_pts.append(cfg.unknown.sample(rng, cfg.unknown.test_count))
    known_flags += [False] * cfg.unknown.test_count
    train = LabeledDataset(np.vstack(train_pts), train_labels)
    test = EvalSet(points=np.vstack(test_pts),
                   is_known=np.array(known_flags, dtype=bool))
    return train, test


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
    items = [(float(s), bool(u)) for s, u in scores]
    if not items:
        raise UsageError("need at least one scored point")
    n_pos = sum(1 for _, u in items if u)
    n_neg = len(items) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UsageError("ROC needs both known and unknown points")
    items.sort(key=lambda t: -t[0])
    points = [(0.0, 0.0)]
    tp = fp = 0
    num = 0  # twice the area, in integer count units
    for _, group in groupby(items, key=lambda t: t[0]):
        flags = [u for _, u in group]
        g_tp = sum(flags)
        g_fp = len(flags) - g_tp
        num += g_fp * (tp + (tp + g_tp))
        tp += g_tp
        fp += g_fp
        points.append((fp / n_neg, tp / n_pos))
    return RocCurve(points=tuple(points), auc=num / (2 * n_pos * n_neg))


def f_measure(tp: int, fp: int, fn: int) -> float:
    """F-measure 2tp / (2tp + fp + fn) for unknown-detection (unknown =
    positive class), the harmonic mean of precision and recall; 0 when there
    is no true positive."""
    return 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)


def _fit_and_rank(train: LabeledDataset, test: EvalSet,
                  kinds=tuple(model_kinds()), **options) -> tuple:
    """Fit each kind on ``train`` with the options it takes and take the ROC
    of ``test`` ranked by unknownness. Returns (models, curves) by kind; both
    are None for a kind whose fit rejects the training data (the margin
    baseline needs two classes)."""
    models, curves = {}, {}
    for name in kinds:
        try:
            models[name] = fit_model(name, train, **options)
        except DataError:
            models[name] = curves[name] = None
            continue
        unknownness = models[name].unknownness(test.points)
        curves[name] = roc_auc(zip(unknownness, test.is_unknown))
    return models, curves


# ---------------------------------------------------------------------------
# toy protocol


@dataclass(frozen=True)
class ToyResult:
    curves: dict
    test: EvalSet
    xi_hat: np.ndarray  # tail-shape estimate per test point (NaN if coincident)


def run_toy_protocol(cfg: ToyConfig, k: int = 20,
                     alpha: float = 0.05) -> ToyResult:
    train, test = generate_toy(cfg)
    models, curves = _fit_and_rank(train, test, k=k, alpha=alpha)
    _, pxi, _ = models["gpdc"].decision_stats(test.points)
    return ToyResult(curves=curves, test=test, xi_hat=pxi / train.p)


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
    rows, labels = [], []
    means = rng.normal(scale=5.0, size=(n_classes, p))
    per_class = train_per_class + test_per_class
    for j in range(n_classes):
        rows.append(rng.standard_normal((per_class, p)) + means[j])
        labels += [f"class{j:02d}"] * per_class
    data = LabeledDataset(np.vstack(rows), labels)
    # Reorder so all training rows come first, preserving class order.
    is_train = np.tile(np.arange(per_class) < train_per_class, n_classes)
    order = np.concatenate([np.flatnonzero(is_train), np.flatnonzero(~is_train)])
    return (LabeledDataset(data.points[order], data.labels[order]),
            n_classes * train_per_class)


def run_oletter(data: LabeledDataset, methods: dict | None = None,
                reps: int = 5, seed: int = 0, train_count: int | None = None,
                alphas=DEFAULT_ALPHA_GRID, deltas=DEFAULT_DELTA_GRID,
                jobs: int = 1) -> list:
    """Openness sweep: per repetition, sample known classes, fit on their
    training rows, then include the remaining classes' test rows one class
    at a time, recording F-measure curves over the threshold grid."""
    j_classes = data.n_classes
    n_known = 15 if j_classes >= 26 else max(2, round(j_classes * 15 / 26))
    if n_known < 2 or n_known >= j_classes:
        raise UsageError(
            f"need 2 <= known classes < total classes ({j_classes}), got {n_known}"
        )
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

    train_rows = data.subset(np.arange(data.n) < train_count)
    test_points = data.points[train_count:]
    test_labels = data.labels[train_count:]
    names = np.array(data.class_names, dtype=object)
    grids = {"alpha": alphas, "delta": deltas}

    def one_rep(rep: int) -> list:
        rng = rng_from(seed, "oletter", rep)
        known = names[rng.choice(j_classes, size=n_known, replace=False)]
        rest = np.array([c for c in names if c not in set(known)], dtype=object)
        unknown_order = rest[rng.permutation(rest.shape[0])]
        train = train_rows.restrict_to_classes(known)

        known_set = set(known)
        test_known_mask = np.array([l in known_set for l in test_labels])
        pool_points = [test_points[test_known_mask]]
        pool_counts = [int(test_known_mask.sum())]
        for c in unknown_order:
            mask = test_labels == c
            pool_points.append(test_points[mask])
            pool_counts.append(int(mask.sum()))
        all_points = np.vstack(pool_points)

        # Per-method threshold flags for every pooled point, computed once.
        flags = {}
        for name, kwargs in methods.items():
            model = fit_model(name, train, **kwargs)
            flags[name] = model.flags(all_points, grids[model.THRESHOLD])

        steps = []
        n_known_test = pool_counts[0]
        bounds = np.cumsum(pool_counts)
        for m in range(len(unknown_order) + 1):
            stop = bounds[m]
            n_unknown_test = int(stop - n_known_test)
            f_per_method = {}
            for name in methods:
                curve = []
                for thr, flag in flags[name].items():
                    if n_unknown_test == 0:
                        curve.append((thr, None))
                        continue
                    fp = int(flag[:n_known_test].sum())
                    tp = int(flag[n_known_test:stop].sum())
                    curve.append((thr, f_measure(tp, fp, n_unknown_test - tp)))
                f_per_method[name] = tuple(curve)
            steps.append(OpennessStep(rep=rep, known_classes=tuple(known),
                                      n_unknown_classes=m,
                                      f_measures=f_per_method))
        return steps

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            all_steps = list(pool.map(one_rep, range(reps)))
    else:
        all_steps = [one_rep(r) for r in range(reps)]
    return [step for rep_steps in all_steps for step in rep_steps]


# ---------------------------------------------------------------------------
# binary novelty protocol


def run_binary_novelty(train: LabeledDataset, test: EvalSet,
                       alpha: float = 0.05) -> dict:
    """ROC per method on a known-only training set; a method whose fit
    rejects the training data (the margin baseline needs two classes) is
    reported as None."""
    return _fit_and_rank(train, test, alpha=alpha)[1]


def gpdc_tail_fraction_sweep(train: LabeledDataset, test: EvalSet,
                             fractions=THYROID_TAIL_FRACTIONS,
                             alpha: float = 0.05) -> list:
    """(fraction, k, auc) for the GPD classifier across tail sizes."""
    out = []
    for frac in fractions:
        k = tail_count(frac, train.n)
        curve = _fit_and_rank(train, test, ("gpdc",), k=k, alpha=alpha)[1]["gpdc"]
        out.append((float(frac), k, curve.auc))
    return out


# ---------------------------------------------------------------------------
# dataset loaders


def load_letter(path) -> LabeledDataset:
    """UCI letter format: letter label first, 16 integer features."""
    data = load_dataset_csv(path, label_column="first", delimiter=",",
                            header=False)
    if data.p != 16:
        raise DataError(f"{path}: expected 16 features, found {data.p}")
    return data


def load_thyroid(path, unknown_classes=("1", "2"), known_classes=("3",)) -> tuple:
    """Clinical screening format: whitespace- or comma-separated numeric
    rows, 21 features plus a trailing class column (a trailing "." is
    dropped). Returns (points, is_unknown) with the class mapping applied."""
    points, labels = read_table(path, delimiter=None, header=False,
                                label_column="last", width=22)
    if not labels:
        raise DataError(f"{path}: no data rows")
    unknown = {str(c): False for c in known_classes}
    unknown.update({str(c): True for c in unknown_classes})
    classes = [label.rstrip(".") for label in labels]
    unmapped = [c for c in classes if c not in unknown]
    if unmapped:
        raise DataError(f"{path}: unmapped class {unmapped[0]!r}")
    return points, np.array([unknown[c] for c in classes], dtype=bool)


def thyroid_split(points: np.ndarray, is_unknown: np.ndarray, seed: int = 0,
                  test_known: int = 250) -> tuple:
    """All unknown rows plus ``test_known`` sampled known rows form the test
    set; the remaining known rows train. Returns (train, test)."""
    known_idx = np.flatnonzero(~is_unknown)
    unknown_idx = np.flatnonzero(is_unknown)
    if known_idx.size <= test_known:
        raise UsageError(
            f"need more than {test_known} known rows, got {known_idx.size}"
        )
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
