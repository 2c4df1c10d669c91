"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The binary-novelty criterion on the real clinical dataset runs only when
the environment variable OPENEVT_THYROID points at the data file; it is
skipped otherwise.
"""

import math
import os
import time

import numpy as np
import pytest

from helpers import pair_count_auc
from openevt import gevc, gpdc
from openevt.data import LabeledDataset
from openevt.evt import fit_weibull_rows, hill_shape
from openevt.harness import (THYROID_TAIL_FRACTIONS, generate_toy,
                             load_thyroid, rng_from, roc_auc,
                             run_thyroid_protocol, run_toy_protocol,
                             thyroid_split)


def report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} {description}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def interior_shape_stat(rng, n, p, k, uniform: bool) -> float:
    """p * xi_hat for an interior query against a fresh cloud."""
    if uniform:
        pts = rng.uniform(0.0, 1.0, size=(n, p))
        q = np.full(p, 0.5)
    else:
        pts = rng.standard_normal((n, p))
        q = np.zeros(p)
    d = np.sqrt(((pts - q) ** 2).sum(axis=1))
    d = np.sort(d)[:k + 1]
    return p * float(np.log(d[:k] / d[k]).mean())


def test_criterion_01_shape_mle_oracle():
    """hill_shape equals a direct evaluation of the estimator formula."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 60))
        r = -rng.uniform(1e-4, 1e4, size=n)
        k = int(rng.integers(1, n))
        est = hill_shape(r, k)
        ordered = sorted(r.tolist())
        u = ordered[n - k - 1]
        direct = sum(math.log(ordered[n - i] / u) for i in range(1, k + 1)) / k
        worst = max(worst, abs(est.xi_hat - direct))
    elapsed = time.perf_counter() - t0
    report(1, "shape MLE matches direct formula evaluation (1000 inputs)",
           worst <= 1e-12 and elapsed < 1.0,
           f"worst |diff|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_interior_consistency():
    """p * xi_hat concentrates at -1 for interior points; error shrinks
    with the sample size."""
    reps = 100
    ok_all = True
    details = []
    for p in (1, 2, 3, 5):
        stats = {}
        for n in (2_000, 20_000):
            k = math.ceil(n ** 0.6)
            vals = np.empty(reps)
            for r in range(reps):
                rng = rng_from(1000 + p, "consistency", n, r)
                vals[r] = interior_shape_stat(rng, n, p, k, uniform=(r % 2 == 0))
            stats[n] = vals
        within = float((np.abs(stats[20_000] + 1.0) <= 0.2).mean())
        mae_small = float(np.abs(stats[2_000] + 1.0).mean())
        mae_large = float(np.abs(stats[20_000] + 1.0).mean())
        ok = within >= 0.90 and mae_large < mae_small
        ok_all &= ok
        details.append(f"p={p}: within 0.2 {within:.0%}, "
                       f"mae {mae_small:.3f}->{mae_large:.3f}")
    report(2, "interior shape statistic consistent as -1 across dimensions",
           ok_all, "; ".join(details))


def test_criterion_03_separated_point_shape_vanishes():
    """xi_hat collapses to zero for queries far outside the support."""
    n, p = 20_000, 2
    k = math.ceil(n ** 0.6)
    reps = 100
    hits = 0
    worst = 0.0
    for r in range(reps):
        rng = rng_from(2000, "separated", r)
        pts = rng.standard_normal((n, p))
        center = pts.mean(axis=0)
        radius = np.sqrt(((pts - center) ** 2).sum(axis=1)).max()
        q = center + np.array([10.0 * radius, 0.0])  # >= 5x the diameter
        d = np.sort(np.sqrt(((pts - q) ** 2).sum(axis=1)))[:k + 1]
        xi = float(np.log(d[:k] / d[k]).mean())
        worst = max(worst, abs(xi))
        hits += abs(xi) <= 0.1
    report(3, "distant query point drives the shape statistic to zero",
           hits >= 0.95 * reps, f"{hits}/{reps} within 0.1, worst {worst:.4f}")


def test_criterion_04_normal_approximation():
    """Sampling distribution of the shape statistic: mean near -1 and the
    root-k standardized spread near unit variance."""
    n, p, reps = 2_000, 2, 500
    k = math.ceil(n ** 0.6)
    vals = np.empty(reps)
    for r in range(reps):
        rng = rng_from(3000, "sampling", r)
        vals[r] = interior_shape_stat(rng, n, p, k, uniform=False)
    mean = float(vals.mean())
    z_var = float((math.sqrt(k) * (vals + 1.0)).var(ddof=1))
    ok = -1.15 <= mean <= -0.85 and 0.6 <= z_var <= 1.6
    report(4, "shape statistic approximately normal with mean -1, unit "
              "variance after root-k standardization",
           ok, f"mean={mean:.3f}, standardized var={z_var:.3f}")


def test_criterion_05_toy_experiment_ordering():
    """Misleading-geometry toy problem: the tail classifiers stay near
    perfect while the margin baseline degrades."""
    t0 = time.perf_counter()
    aucs = {"evm": [], "gpdc": [], "gevc": []}
    wins = 0
    for seed in range(20):
        res = run_toy_protocol(seed, k=20, alpha=0.05)
        auc = {name: curve.auc for name, curve in res.curves.items()}
        for name in aucs:
            aucs[name].append(auc[name])
        wins += auc["evm"] < min(auc["gpdc"], auc["gevc"])
    elapsed = time.perf_counter() - t0
    means = {name: float(np.mean(v)) for name, v in aucs.items()}
    ok = (means["gpdc"] >= 0.97 and means["gevc"] >= 0.97
          and means["evm"] <= 0.92 and wins >= 18 and elapsed < 60.0)
    report(5, "toy AUC ordering over 20 seeds (margin baseline degraded)",
           ok, f"evm={means['evm']:.3f} gpdc={means['gpdc']:.3f} "
               f"gevc={means['gevc']:.3f}, ordering {wins}/20, {elapsed:.1f}s")


def test_criterion_06_type_one_error_control():
    """Jackknife-calibrated thresholds keep the false-unknown rate at the
    target level on fresh known draws."""
    n_test = 2_000
    rng = rng_from(4000, "typeI")
    means = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, -14.0]])
    train_pts = np.vstack([rng.standard_normal((667, 2)) + m for m in means])
    labels = sum([[f"c{j}"] * 667 for j in range(3)], [])
    train = LabeledDataset(train_pts, labels)
    comp = rng.integers(0, 3, size=n_test)
    fresh = rng.standard_normal((n_test, 2)) + means[comp]
    model = gpdc.fit(train, k=20, alpha=0.05)
    coincident, pxi, radius = model.decision_stats(fresh)
    ok = True
    details = []
    for alpha in (0.01, 0.05, 0.1):
        rate = float(model.decide(coincident, pxi, radius, alpha=alpha).mean())
        bound = alpha + 2.0 * math.sqrt(alpha / n_test)
        ok &= rate <= bound
        details.append(f"alpha={alpha}: {rate:.4f}<={bound:.4f}")
    report(6, "false-unknown rate within the calibrated bound", ok,
           "; ".join(details))


def test_criterion_07_incremental_equals_batch():
    """100 inserts then refit reproduce the from-scratch fit."""
    rng = rng_from(5000, "incremental")
    base = rng.standard_normal((400, 3))
    extra = rng.standard_normal((100, 3)) * 1.3
    model = gevc.fit(LabeledDataset(base, ["a"] * 400))
    model.update([(x, "a") for x in extra])  # refits before it returns
    batch = gevc.fit(LabeledDataset(np.vstack([base, extra]), ["a"] * 500))
    dmin_equal = bool(np.array_equal(model.dmin, batch.dmin))
    fit_equal = model.fitted == batch.fitted
    report(7, "incremental update equals batch refit after 100 inserts",
           dmin_equal and fit_equal,
           f"dmin identical={dmin_equal}, fit identical={fit_equal}")


def test_criterion_08_weibull_recovery():
    """Endpoint-0 Weibull MLE recovers known parameters."""
    reps, n = 100, 10_000
    sigma_t, alpha_t = 2.0, 1.5
    rng = rng_from(6000, "weibull")
    samples = sigma_t * rng.weibull(alpha_t, size=(reps, n))
    sigma, alpha, ok_fit, _ = fit_weibull_rows(samples)
    good = (ok_fit
            & (np.abs(sigma - sigma_t) / sigma_t <= 0.10)
            & (np.abs(alpha - alpha_t) / alpha_t <= 0.10))
    hits = int(good.sum())
    report(8, "Weibull MLE within 10% of truth (sigma=2, alpha=1.5, n=1e4)",
           hits >= 95, f"{hits}/{reps} replicates")


thyroid_path = os.environ.get("OPENEVT_THYROID")


@pytest.mark.skipif(thyroid_path is None,
                    reason="set OPENEVT_THYROID to the clinical data file")
def test_criterion_09_thyroid_bands():
    """Real clinical screening data: AUC inside the reported bands and flat
    across tail sizes."""
    points, is_unknown = load_thyroid(thyroid_path)
    train, test = thyroid_split(points, is_unknown, seed=0)
    gevc_model = gevc.fit(train, alpha=0.05)
    gevc_auc = roc_auc(zip(gevc_model.unknownness(test.points),
                           test.is_unknown)).auc
    sweep = run_thyroid_protocol(train, test, THYROID_TAIL_FRACTIONS)[1]
    aucs = [a for _, _, a in sweep]
    best = max(aucs)
    flat = max(aucs) - min(aucs)
    ok = (0.88 <= best <= 0.96 and 0.85 <= gevc_auc <= 0.94 and flat <= 0.05)
    report(9, "clinical novelty AUC bands and tail-size stability", ok,
           f"gpdc best={best:.3f}, gevc={gevc_auc:.3f}, spread={flat:.3f}")


def test_criterion_10_roc_pair_counting_oracle():
    """ROC/AUC equals brute-force concordant-pair counting exactly."""
    rng = np.random.default_rng(7000)
    ok = True
    for trial in range(200):
        n = int(rng.integers(2, 201))
        ties = trial % 2 == 0
        scores = (rng.integers(0, 5, size=n).astype(float) if ties
                  else rng.normal(size=n))
        flags = rng.integers(0, 2, size=n).astype(bool)
        flags[0], flags[-1] = True, False
        ok &= roc_auc(zip(scores, flags)).auc == pair_count_auc(scores, flags)
    report(10, "ROC AUC equals pair-counting oracle exactly (200 instances)", ok)


def test_criterion_11_complexity_contracts():
    """Scoring cost through the index: k+1 distances per GPD query, one
    nearest-neighbor lookup per GEV query."""
    train, test = generate_toy(0)
    gpdc_model = gpdc.fit(train, k=20, alpha=0.05)
    gevc_model = gevc.fit(train, alpha=0.05)
    queries = test.points[:25]

    before = gpdc_model.index.counters.snapshot()
    for q in queries:
        gpdc_model.evidence(q[None, :])
    after = gpdc_model.index.counters.snapshot()
    gpdc_ok = (after[0] - before[0] == len(queries)
               and after[1] - before[1] == len(queries) * (gpdc_model.k + 1))

    before = gevc_model.index.counters.snapshot()
    for q in queries:
        gevc_model.evidence(q[None, :])
    after = gevc_model.index.counters.snapshot()
    gevc_ok = (after[0] - before[0] == len(queries)
               and after[1] - before[1] == len(queries))

    report(11, "instrumented scoring cost: k+1 distances (gpdc), one "
               "nearest-neighbor query (gevc)", gpdc_ok and gevc_ok,
           f"gpdc per-score distances={gpdc_model.k + 1}, gevc=1")
