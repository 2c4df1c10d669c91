"""Scoring one point is each classifier's batch evidence on a one-row
array (and gevc's ``score`` is that row): one-row and batch rows must agree
bit for bit, including at distance ties, on both the tree and the
blocked-scan (no tree) path and with pending inserts in the index."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import brute_knn
from openevt import evm, gevc, gpdc
from openevt.data import DistanceMetric, LabeledDataset
from openevt.errors import FitError
from openevt.evt import hill_shape
from openevt.gpdc import tail_stats
from openevt.neighbors import NeighborIndex
from openevt.serialize import fit_model


def _dataset(case):
    rng = np.random.default_rng(21)
    if case in ("p4_integer_ties", "p16_integer_ties"):
        # Small integer grid: many equal distances at the kth neighbor, plus
        # duplicated rows (copied with their label, so evm margins stay > 0).
        # (a wider grid at p=4 keeps the nearest distances spread out)
        p, top = (4, 8) if case == "p4_integer_ties" else (16, 4)
        pts = rng.integers(0, top, size=(400, p)).astype(float)
        labels = np.where(pts[:, 0] < top // 2, "a", "b")
        src = rng.choice(400, size=20, replace=False)
        pts[:20], labels[:20] = pts[src], labels[src]
        queries = np.vstack([rng.integers(0, top, size=(40, p)).astype(float),
                             pts[:10]])
        return LabeledDataset(pts, labels), queries
    p = {"p2_tree": 2, "p30_flat": 30}[case]
    pts = np.vstack([rng.normal(size=(150, p)), rng.normal(size=(150, p)) + 4.0])
    labels = ["a"] * 150 + ["b"] * 150
    queries = np.vstack([rng.normal(size=(40, p)) * 3.0, pts[:10]])
    return LabeledDataset(pts, labels), queries


# The integer-tie case runs on the tree (p=4) and on the blocked scan (p=16).
CASES = ("p2_tree", "p4_integer_ties", "p16_integer_ties", "p30_flat")
ON_TREE = {"p2_tree": True, "p4_integer_ties": True, "p16_integer_ties": False,
           "p30_flat": False}


def _gevc_with_pending():
    rng = np.random.default_rng(22)
    model = gevc.fit(LabeledDataset(rng.normal(size=(300, 2)), ["a"] * 300))
    model.update([(x, "a") for x in rng.normal(size=(30, 2)) * 1.5])
    assert model.index._tree_size < model.index.size  # inserts still pending
    queries = np.vstack([rng.normal(size=(40, 2)) * 2.0,
                         model.index.points[-10:]])
    return model, queries


def _rows(evidence):
    m = len(evidence["verdict"])
    return [{name: values[i:i + 1].item() for name, values in evidence.items()}
            for i in range(m)]


def _check_one_row_evidence(model, queries):
    """Each query's one-row ``evidence`` equals its row of the batch; returns
    the batch."""
    evidence = model.evidence(queries)
    for i, x in enumerate(queries):
        row = model.evidence(x[None, :])
        assert row.keys() == evidence.keys()
        for name, values in evidence.items():
            np.testing.assert_array_equal(row[name], values[i:i + 1])
    return evidence


@pytest.mark.parametrize("case", CASES)
def test_gpdc_score_is_row_of_evidence(case):
    data, queries = _dataset(case)
    model = gpdc.fit(data, k=10)
    assert (model.index._tree is not None) == ON_TREE[case]
    evidence = _check_one_row_evidence(model, queries)
    assert set(evidence["stage"]) >= {gpdc.COINCIDENT_KNOWN}
    np.testing.assert_array_equal(model.unknownness(queries), evidence["score"])


def _check_gevc(model, queries):
    evidence = _check_one_row_evidence(model, queries)
    for x, row in zip(queries, _rows(evidence)):
        verdict, d0 = model.score(x)
        assert (verdict.label, verdict.score, d0) == (
            row["verdict"], row["score"], row["d0min"])
        assert verdict.evidence == {"d0min": row["d0min"], "cdf": row["cdf"]}
    np.testing.assert_array_equal(model.unknownness(queries), evidence["score"])


@pytest.mark.parametrize("case", CASES)
def test_gevc_score_is_row_of_evidence(case):
    data, queries = _dataset(case)
    model = gevc.fit(data)
    assert (model.index._tree is not None) == ON_TREE[case]
    _check_gevc(model, queries)


def test_gevc_score_is_row_of_evidence_with_pending_inserts():
    model, queries = _gevc_with_pending()
    _check_gevc(model, queries)
    # the pending rows are found: each re-scored insert is at distance 0
    assert np.all(model.evidence(queries[-10:])["d0min"] == 0.0)


@pytest.mark.parametrize("case", CASES)
def test_evm_score_is_row_of_evidence(case):
    data, queries = _dataset(case)
    model = evm.fit(data, k=10, delta=0.5)
    evidence = _check_one_row_evidence(model, queries)
    for x, psi in zip(queries, evidence["psi"]):
        assert model.membership_batch(x[None, :])[0] == psi


@pytest.mark.parametrize("kind", ["gpdc", "gevc", "evm"])
@pytest.mark.parametrize("case", ["p2_tree", "p16_integer_ties"])
def test_flags_at_own_threshold_equal_verdicts(kind, case):
    data, queries = _dataset(case)
    queries = np.vstack([queries, queries[:20] + 3.0])  # some far outside
    model = fit_model(kind, data, k=10, delta=0.5)
    own = getattr(model, model.THRESHOLD)
    flags = model.flags(queries, [own])[own]
    unknown = model.evidence(queries)["verdict"] == "unknown"
    assert flags.dtype == bool and unknown.any() and not unknown.all()
    np.testing.assert_array_equal(flags, unknown)


def test_evidence_counters_follow_the_complexity_contract():
    data, queries = _dataset("p2_tree")
    m = queries.shape[0]
    model = gpdc.fit(data, k=10)
    before = model.index.counters.snapshot()
    model.evidence(queries)
    after = model.index.counters.snapshot()
    assert (after[0] - before[0], after[1] - before[1]) == (m, m * (model.k + 1))

    model, queries = _gevc_with_pending()
    m = queries.shape[0]
    before = model.index.counters.snapshot()
    model.evidence(queries)
    after = model.index.counters.snapshot()
    assert (after[0] - before[0], after[1] - before[1]) == (m, m)


@pytest.mark.parametrize("case", CASES)
def test_fit_counters_follow_the_complexity_contract(case):
    data, _ = _dataset(case)
    n = data.n
    model = gpdc.fit(data, k=10)
    assert model.index.counters.snapshot() == (n, n * (model.k + 1))
    model = gevc.fit(data)
    assert model.index.counters.snapshot() == (n, n)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=15, max_value=70),
    p=st.sampled_from([1, 2, 5, 16, 25]),
    k=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=10_000),
    grid=st.booleans(),
    manhattan=st.booleans(),
)
def test_calibration_equals_scoring_against_the_others(n, p, k, seed, grid,
                                                         manhattan):
    """A training point's jackknife statistics (gpdc) and nearest-other
    distance (gevc) are those of scoring it against an index of the other
    n-1 points, bit for bit."""
    k = min(k, n - 2)
    rng = np.random.default_rng(seed)
    # Integer grids force ties and duplicates at the kth distance.
    pts = (rng.integers(0, 6, size=(n, p)).astype(float) if grid
           else rng.normal(size=(n, p)))
    metric = DistanceMetric.manhattan() if manhattan else DistanceMetric()
    data = LabeledDataset(pts, ["a"] * n)
    try:
        gpdc_model = gpdc.fit(data, k=k, metric=metric)
        gevc_model = gevc.fit(data, metric=metric)
    except FitError:
        assume(False)
    for i in rng.choice(n, size=4, replace=False):
        others = NeighborIndex(np.delete(pts, i, axis=0), metric)
        d = others.batch_k_smallest(pts[i][None, :], k + 1)
        _, pxi, radius = tail_stats(d, k, p, gpdc_model.gamma, n - 1)
        np.testing.assert_array_equal(pxi[0], gpdc_model.pxi_stats[i])
        np.testing.assert_array_equal(radius[0], gpdc_model.radius_stats[i])
        assert others.batch_k_smallest(pts[i][None, :], 1)[0, 0] == \
            gevc_model.dmin[i]


def test_batch_query_after_inserts_does_not_rebuild_tree():
    rng = np.random.default_rng(23)
    base = rng.integers(0, 5, size=(200, 3)).astype(float)
    ix = NeighborIndex(base)
    ix.dmin_vector()
    extra = rng.integers(0, 5, size=(40, 3)).astype(float)
    for x in extra:
        ix.insert(x)
    tree, tree_size = ix._tree, ix._tree_size
    assert tree_size < ix.size
    queries = rng.integers(0, 5, size=(25, 3)).astype(float)
    got = ix.batch_k_smallest(queries, 12)
    assert ix._tree is tree and ix._tree_size == tree_size
    allpts = np.vstack([base, extra])
    for q, row in zip(queries, got):
        np.testing.assert_array_equal(row, brute_knn(allpts, q, 12)[0])
        # duplicates across the tree and the pending buffer: lower index wins
        for k in (1, 12):
            single = ix._knn(q[None, :], k)[1][0]
            np.testing.assert_array_equal(single, brute_knn(allpts, q, k)[1])


@pytest.mark.parametrize("p", [2, 30])
@pytest.mark.parametrize("k", [1, 9])
def test_batch_rows_equal_single_queries(p, k):
    rng = np.random.default_rng(24)
    pts = rng.integers(0, 3, size=(120, p)).astype(float)
    queries = rng.integers(0, 3, size=(15, p)).astype(float)
    ix = NeighborIndex(pts)
    batch = ix.batch_k_smallest(queries, k)
    for q, row in zip(queries, batch):
        dist, idx = ix._knn(q[None, :], k)
        np.testing.assert_array_equal(idx[0], brute_knn(pts, q, k)[1])
        np.testing.assert_array_equal(row, dist[0])


def test_tail_stats_matches_scalar_hill_estimator():
    rng = np.random.default_rng(25)
    d = np.sort(rng.uniform(0.5, 3.0, size=(20, 31)), axis=1)
    for k in (5, 12, 30):
        _, pxi, _ = tail_stats(d[:, :k + 1], k, 3, 0.001, 500)
        for row, value in zip(d, pxi / 3):
            assert value == pytest.approx(hill_shape(-row[:k + 1], k).xi_hat,
                                          rel=1e-12)
