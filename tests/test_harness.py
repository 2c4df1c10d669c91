import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pair_count_auc
from openevt.data import LabeledDataset
from openevt.errors import DataError, UsageError
from openevt.harness import (GaussianBlob, EvalSet, ToyConfig,
                             default_toy_config, f_measure, generate_toy,
                             gpdc_tail_fraction_sweep, load_letter,
                             load_thyroid, rng_from, roc_auc,
                             run_binary_novelty, run_oletter,
                             run_toy_protocol, synthetic_openset_surrogate,
                             thyroid_split)


def test_rng_substreams_deterministic_and_distinct():
    a = rng_from(7, "x", 1).standard_normal(4)
    b = rng_from(7, "x", 1).standard_normal(4)
    c = rng_from(7, "x", 2).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


class TestToyGeneration:
    def test_deterministic_under_seed(self):
        t1, s1 = generate_toy(default_toy_config(5))
        t2, s2 = generate_toy(default_toy_config(5))
        np.testing.assert_array_equal(t1.points, t2.points)
        np.testing.assert_array_equal(s1.points, s2.points)

    def test_counts_and_composition(self):
        train, test = generate_toy(default_toy_config(0))
        assert train.n == 600 and train.n_classes == 3
        assert test.points.shape == (800, 2)
        assert int(test.is_unknown.sum()) == 200

    def test_unknown_nearest_to_isolated_class(self):
        # the defining geometry: the unknown cluster is separated from all
        # training data but closest to the isolated known class
        cfg = default_toy_config(0)
        train, test = generate_toy(cfg)
        u_mean = np.asarray(cfg.unknown.mean)
        class_dists = {b.label: np.linalg.norm(u_mean - np.asarray(b.mean))
                       for b in cfg.known}
        assert min(class_dists, key=class_dists.get) == "c2"
        # separation: unknown points are far from training relative to the
        # training set's own nearest-neighbor spacing
        from openevt.neighbors import NeighborIndex
        ix = NeighborIndex(train.points)
        d0 = ix.batch_k_smallest(test.points[test.is_unknown], 1)[:, 0]
        assert np.median(d0) > 5 * np.median(ix.dmin_vector())

    def test_zero_variance_rejected(self):
        bad = ToyConfig(
            known=(GaussianBlob("a", (0.0,), ((0.0,),), 10, 10),),
            unknown=GaussianBlob("u", (5.0,), ((1.0,),), 0, 10),
        )
        with pytest.raises(UsageError):
            generate_toy(bad)

    def test_counts_validated(self):
        bad = ToyConfig(
            known=(GaussianBlob("a", (0.0,), ((1.0,),), 0, 10),),
            unknown=GaussianBlob("u", (5.0,), ((1.0,),), 0, 10),
        )
        with pytest.raises(UsageError):
            generate_toy(bad)


class TestRocAuc:
    def test_perfect_separation(self):
        curve = roc_auc([(0.9, True), (0.8, True), (0.2, False), (0.1, False)])
        assert curve.auc == 1.0

    def test_all_tied(self):
        assert roc_auc([(0.5, True), (0.5, False)]).auc == 0.5

    def test_hand_case(self):
        curve = roc_auc([(0.9, True), (0.8, False), (0.7, True), (0.1, False)])
        assert curve.auc == 0.75

    def test_single_label_rejected(self):
        with pytest.raises(UsageError):
            roc_auc([(0.5, True), (0.3, True)])

    def test_curve_shape(self):
        curve = roc_auc([(0.9, True), (0.8, False), (0.7, True), (0.1, False)])
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        fprs = [p[0] for p in curve.points]
        tprs = [p[1] for p in curve.points]
        assert all(b >= a for a, b in zip(fprs, fprs[1:]))
        assert all(b >= a for a, b in zip(tprs, tprs[1:]))

    def test_auc_equals_trapezoid_of_points(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=60)
        flags = rng.integers(0, 2, size=60).astype(bool)
        flags[:2] = [True, False]
        curve = roc_auc(zip(scores, flags))
        pts = np.array(curve.points)
        trap = np.trapezoid(pts[:, 1], pts[:, 0])
        assert curve.auc == pytest.approx(trap, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=200),
        seed=st.integers(min_value=0, max_value=10_000),
        ties=st.booleans(),
    )
    def test_matches_pair_counting_exactly(self, n, seed, ties):
        rng = np.random.default_rng(seed)
        scores = (rng.integers(0, 4, size=n).astype(float) if ties
                  else rng.normal(size=n))
        flags = rng.integers(0, 2, size=n).astype(bool)
        flags[0] = True
        flags[-1] = False
        assert roc_auc(zip(scores, flags)).auc == pair_count_auc(scores, flags)


class TestFMeasure:
    def test_all_correct(self):
        assert f_measure(tp=2, fp=0, fn=0) == 1.0

    def test_no_positives_predicted(self):
        assert f_measure(tp=0, fp=0, fn=1) == 0.0

    def test_hand_counts(self):
        assert f_measure(tp=3, fp=1, fn=1) == pytest.approx(0.75)


class TestToyProtocol:
    def test_aucs_and_xi(self):
        res = run_toy_protocol(default_toy_config(0))
        aucs = {name: curve.auc for name, curve in res.curves.items()}
        assert set(aucs) == {"evm", "gpdc", "gevc"}
        assert aucs["gpdc"] > 0.97 and aucs["gevc"] > 0.97
        assert aucs["evm"] < min(aucs["gpdc"], aucs["gevc"])
        # shape estimates separate: known near -1/2, unknown near 0
        known_xi = np.nanmean(res.xi_hat[res.test.is_known])
        unknown_xi = np.nanmean(res.xi_hat[res.test.is_unknown])
        assert known_xi < -0.35
        assert unknown_xi > -0.2

    def test_deterministic(self):
        a = run_toy_protocol(default_toy_config(3))
        b = run_toy_protocol(default_toy_config(3))
        assert a.curves == b.curves


class TestOletter:
    def test_surrogate_smoke(self):
        data, train_count = synthetic_openset_surrogate(seed=1)
        steps = run_oletter(data, reps=1, seed=1, train_count=train_count)
        by_m = {}
        for step in steps:
            by_m.setdefault(step.n_unknown_classes, step)
        assert 0 in by_m
        # closed-set step: F absent for every threshold
        for curve in by_m[0].f_measures.values():
            assert all(f is None for _, f in curve)
        # widest openness: F defined and in [0, 1]
        widest = by_m[max(by_m)]
        for name, curve in widest.f_measures.items():
            assert all(f is None or 0.0 <= f <= 1.0 for _, f in curve)
            assert any(f is not None for _, f in curve)

    def test_known_unknown_classes_disjoint(self):
        data, train_count = synthetic_openset_surrogate(seed=2)
        steps = run_oletter(data, reps=2, seed=2, train_count=train_count)
        for step in steps:
            assert len(set(step.known_classes)) == len(step.known_classes)

    def test_reps_have_independent_streams(self):
        data, train_count = synthetic_openset_surrogate(seed=3)
        steps = run_oletter(data, reps=2, seed=3, train_count=train_count)
        knowns = {s.rep: s.known_classes for s in steps}
        assert len(knowns) == 2

    def test_parallel_jobs_match_serial(self):
        data, train_count = synthetic_openset_surrogate(seed=4)
        serial = run_oletter(data, reps=2, seed=4, jobs=1, train_count=train_count)
        parallel = run_oletter(data, reps=2, seed=4, jobs=2, train_count=train_count)
        assert [s.f_measures for s in serial] == [s.f_measures for s in parallel]

    def test_paper_scale_defaults(self):
        # 26-class surrogate: default ks switch to the full-protocol values
        data, train_count = synthetic_openset_surrogate(
            n_classes=26, train_per_class=40, test_per_class=10, p=6, seed=5)
        steps = run_oletter(data, reps=1, seed=5, train_count=train_count,
                            alphas=(0.05,), deltas=(0.5,))
        assert any(s.n_unknown_classes == 11 for s in steps)
        step = steps[0]
        assert len(step.known_classes) == 15

    def test_insufficient_classes(self):
        data, train_count = synthetic_openset_surrogate(n_classes=2, seed=6)
        with pytest.raises(UsageError):
            run_oletter(data, reps=1, seed=6, train_count=train_count)


@pytest.fixture(scope="module")
def problem():
    rng = rng_from(9, "novelty")
    train = LabeledDataset(rng.normal(size=(1200, 5)), ["known"] * 1200)
    test_pts = np.vstack([rng.normal(size=(250, 5)),
                          rng.normal(size=(250, 5)) + 2.0])
    is_known = np.array([True] * 250 + [False] * 250)
    return train, EvalSet(points=test_pts, is_known=is_known)


class TestBinaryNovelty:

    def test_evm_unsupported_single_class(self, problem):
        train, test = problem
        curves = run_binary_novelty(train, test)
        assert curves["evm"] is None
        assert curves["gpdc"].auc > 0.9
        assert curves["gevc"].auc > 0.9

    def test_tail_fraction_sweep(self, problem):
        train, test = problem
        sweep = gpdc_tail_fraction_sweep(train, test,
                                         fractions=(0.0025, 0.01, 0.05))
        assert [f for f, _, _ in sweep] == [0.0025, 0.01, 0.05]
        for _, k, auc in sweep:
            assert k >= 1 and 0.0 <= auc <= 1.0
        aucs = [a for _, _, a in sweep]
        assert max(aucs) - min(aucs) < 0.05  # flat in the tail size


class TestLoaders:
    def test_letter_format(self, tmp_path):
        f = tmp_path / "letter.data"
        rng = np.random.default_rng(0)
        lines = []
        for i in range(60):
            feats = rng.integers(0, 16, size=16)
            lines.append(chr(ord("A") + i % 3) + "," +
                         ",".join(str(v) for v in feats))
        f.write_text("\n".join(lines) + "\n")
        data = load_letter(f)
        assert data.p == 16 and data.n == 60
        assert data.n_classes == 3

    def test_letter_wrong_width(self, tmp_path):
        f = tmp_path / "letter.data"
        f.write_text("A,1,2,3\nB,4,5,6\n")
        with pytest.raises(DataError):
            load_letter(f)

    def test_thyroid_loader(self, tmp_path):
        f = tmp_path / "ann.data"
        rng = np.random.default_rng(1)
        lines = []
        for i in range(30):
            feats = rng.uniform(size=21)
            cls = [1, 2, 3][i % 3]
            lines.append(" ".join(f"{v:.4f}" for v in feats) + f" {cls}")
        f.write_text("\n".join(lines) + "\n")
        points, is_unknown = load_thyroid(f)
        assert points.shape == (30, 21)
        assert int(is_unknown.sum()) == 20  # classes 1 and 2

    def test_thyroid_unmapped_class(self, tmp_path):
        f = tmp_path / "ann.data"
        f.write_text(" ".join(["0.1"] * 21) + " 9\n")
        with pytest.raises(DataError, match="unmapped"):
            load_thyroid(f)

    def test_thyroid_split(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(400, 3))
        is_unknown = np.zeros(400, dtype=bool)
        is_unknown[:50] = True
        train, test = thyroid_split(points, is_unknown, seed=0, test_known=100)
        assert train.n == 250  # 350 known - 100 sampled
        assert test.points.shape[0] == 150
        assert int(test.is_unknown.sum()) == 50

    def test_thyroid_split_needs_enough_knowns(self):
        points = np.zeros((60, 2))
        is_unknown = np.zeros(60, dtype=bool)
        is_unknown[:30] = True
        with pytest.raises(UsageError):
            thyroid_split(points, is_unknown, test_known=250)
