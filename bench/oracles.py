"""Independent numpy brute-force checks of openevt's outputs.

Every check recomputes distances from the benchmark's own copy of the
inputs by direct differences, never through openevt, and compares with a
relative tolerance of 1e-9. Each function returns a list of mismatch
descriptions; an empty list means the outputs agree. A verdict is not
checked when the recomputed statistic lies within the tolerance of its
threshold, where either side of the decision is correct.
"""

import csv
import hashlib
import math

import numpy as np

REL_TOL = 1e-9


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def brute_distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(m, n) Euclidean distances from each query to each point."""
    out = np.empty((queries.shape[0], points.shape[0]))
    for i in range(0, queries.shape[0], 16):
        diff = queries[i:i + 16, None, :] - points[None, :, :]
        out[i:i + 16] = np.sqrt((diff * diff).sum(axis=2))
    return out


def read_score_csv(path) -> list:
    """Rows of an ``openevt score`` output as dicts of strings."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _num(text: str):
    return None if text == "" else float(text)


def check_gpdc_rows(train: np.ndarray, queries: np.ndarray, rows: list,
                    payload: dict) -> list:
    k, gamma = int(payload["k"]), float(payload["gamma"])
    s, t = float(payload["shape_threshold"]), float(payload["radius_threshold"])
    n, p = train.shape
    bad = []
    dist = brute_distances(train, queries)
    for q, row in enumerate(rows):
        where = f"gpdc row {row['row']}"
        d = np.sort(np.partition(dist[q], k)[:k + 1])
        pxi, radius = _num(row["p_xi"]), _num(row["radius"])
        if d[0] == 0.0:
            if row["stage"] != "coincident_known" or row["verdict"] != "known":
                bad.append(f"{where}: coincident point scored {row['stage']}")
            continue
        xi = float(np.log(d[:k] / d[k]).mean())
        want_pxi = p * xi
        want_radius = float(d[k] * (n * gamma / k) ** (-xi))
        if pxi is None or not close(pxi, want_pxi):
            bad.append(f"{where}: p_xi {pxi} != {want_pxi}")
            continue
        if radius is not None and not close(radius, want_radius):
            bad.append(f"{where}: radius {radius} != {want_radius}")
        if close(want_pxi, s) or close(want_radius, t):
            continue
        if want_pxi >= s:
            stage = "rejected_shape"
        elif want_radius > t:
            stage = "rejected_radius"
        else:
            stage = "accepted"
        verdict = "known" if stage == "accepted" else "unknown"
        if row["stage"] != stage or row["verdict"] != verdict:
            bad.append(f"{where}: {row['verdict']}/{row['stage']} != "
                       f"{verdict}/{stage}")
    return bad


def check_gevc_rows(train: np.ndarray, queries: np.ndarray, rows: list,
                    payload: dict) -> list:
    sigma, shape = float(payload["sigma"]), float(payload["weibull_alpha"])
    level = float(payload["alpha"])
    bad = []
    d0 = brute_distances(train, queries).min(axis=1)
    for q, row in enumerate(rows):
        where = f"gevc row {row['row']}"
        want_cdf = 1.0 if d0[q] == 0.0 else math.exp(-(d0[q] / sigma) ** shape)
        got_d0, got_cdf = float(row["d0min"]), float(row["cdf"])
        if not close(got_d0, float(d0[q])):
            bad.append(f"{where}: d0min {got_d0} != {d0[q]}")
        if not close(got_cdf, want_cdf):
            bad.append(f"{where}: cdf {got_cdf} != {want_cdf}")
        if not close(float(row["score"]), 1.0 - want_cdf):
            bad.append(f"{where}: score {row['score']} != 1 - cdf")
        if not close(want_cdf, level):
            verdict = "unknown" if want_cdf < level else "known"
            if row["verdict"] != verdict:
                bad.append(f"{where}: verdict {row['verdict']} != {verdict}")
    return bad


def check_dmin(stored: np.ndarray, sample: np.ndarray, dmin: np.ndarray) -> list:
    """``dmin[i]`` must be stored point i's distance to its closest other
    stored point, for each i in ``sample``."""
    dist = brute_distances(stored, stored[sample])
    dist[np.arange(sample.shape[0]), sample] = np.inf
    want = dist.min(axis=1)
    return [f"dmin[{i}] {dmin[i]} != {w}"
            for i, w in zip(sample.tolist(), want) if not close(dmin[i], w)]


def check_nearest(stored: np.ndarray, queries: np.ndarray, got: list) -> list:
    want = brute_distances(stored, queries).min(axis=1)
    return [f"query {q}: d0min {g} != {w}"
            for q, (g, w) in enumerate(zip(got, want)) if not close(g, w)]


def check_protocol(steps: list, expected_steps: int) -> list:
    bad = []
    if len(steps) != expected_steps:
        bad.append(f"{len(steps)} protocol steps, expected {expected_steps}")
    for step in steps:
        for method, curve in step.f_measures.items():
            for threshold, f in curve:
                where = f"rep {step.rep} step {step.n_unknown_classes} {method}@{threshold}"
                if f is None:
                    if step.n_unknown_classes != 0:
                        bad.append(f"{where}: missing F-measure")
                elif not 0.0 <= f <= 1.0:
                    bad.append(f"{where}: F-measure {f} outside [0, 1]")
    return bad
