"""Smoke-sized self-test of the benchmark harness.

Run from the repository root: python3 -m pytest bench/tests
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_self_time_arithmetic():
    S = spans.Span
    tree = [
        S(1, "op.fit", 0.0, 10.0, None, "main"),
        S(2, "gpdc.fit", 1.0, 4.0, 1, "main"),
        S(3, "gevc.fit", 3.0, 6.0, 1, "worker"),   # overlaps span 2
        S(4, "neighbors.loo", 2.0, 3.0, 2, "main"),  # grandchild of 1
        S(5, "evm.fit", 9.0, 12.0, 1, "main"),     # runs past its parent
    ]
    kids = spans.children_of(tree)
    # Children of span 1 cover [1, 6] and [9, 10]: 6 of its 10 seconds.
    assert spans.self_time(tree[0], kids) == pytest.approx(4.0)
    assert spans.self_time(tree[1], kids) == pytest.approx(2.0)
    assert spans.self_time(tree[3], kids) == pytest.approx(1.0)
    metrics = spans.layer_metrics(tree)
    assert metrics["trace.unattributed_s"] == pytest.approx(4.0)
    assert metrics["gpdc.fit_self_s"] == pytest.approx(2.0)
    assert metrics["neighbors.loo_s"] == pytest.approx(1.0)
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_worker_busy_share():
    S = spans.Span
    tree = [
        S(1, "harness.run_oletter", 0.0, 10.0, None, "main"),
        S(2, "gpdc.fit", 0.0, 6.0, 1, "w1"),
        S(3, "gevc.fit", 5.0, 10.0, 1, "w1"),  # overlaps span 2 by 1 s
        S(4, "gpdc.fit", 0.0, 4.0, 1, "w2"),
    ]
    metrics = spans.layer_metrics(tree, jobs=2)
    assert metrics["harness.worker_busy_share"] == pytest.approx(14.0 / 20.0)


def _corrupt(path, column):
    """Scale one checked row's ``column`` by 1 + 1e-6; returns its row id."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.DictReader([line for line in lines if not line.startswith("#")]))
    target = next(r for r in rows if r[column] != "")
    target[column] = repr(float(target[column]) * (1 + 1e-6))
    with open(path, "w", newline="") as fh:
        fh.writelines(comments)
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return target["row"]


def test_oracle_flags_corrupted_score_rows(tmp_path):
    ctx = workloads.Context(tmp_path, {"PYTHONPATH": str(ROOT / "src")}, 5)
    letter = workloads.Letter16(ctx, {"train": 300, "score": 40, "checked": 40})
    result = letter.run_pass()
    assert result.failed == 0, result.errors
    assert letter.check() == []
    row = _corrupt(tmp_path / "gpdc_scores.csv", "p_xi")
    bad = letter.check()
    assert len(bad) == 1 and f"gpdc row {row}:" in bad[0]
    letter.run_pass()
    row = _corrupt(tmp_path / "gevc_scores.csv", "d0min")
    bad = letter.check()
    assert len(bad) == 1 and f"gevc row {row}:" in bad[0]


def test_stream_oracles_flag_wrong_distances():
    rng = np.random.default_rng(0)
    stored = rng.normal(size=(50, 2))
    sample = np.arange(0, 50, 5)
    dist = oracles.brute_distances(stored, stored)
    np.fill_diagonal(dist, np.inf)
    dmin = dist.min(axis=1)
    assert oracles.check_dmin(stored, sample, dmin) == []
    dmin[10] *= 1 + 1e-6
    assert len(oracles.check_dmin(stored, sample, dmin)) == 1
    queries = rng.normal(size=(5, 2))
    got = list(oracles.brute_distances(stored, queries).min(axis=1))
    assert oracles.check_nearest(stored, queries, got) == []
    got[2] += 1e-3
    assert len(oracles.check_nearest(stored, queries, got)) == 1
