import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (index_state, oletter_rep_oracle, pair_count_auc,
                     reference_model)
from openevt import evm, gevc, gpdc, harness
from openevt.cli import main
from openevt.data import DistanceMetric, LabeledDataset
from openevt.errors import DataError, FitError, OpenEvtError, UsageError
from openevt.evt import tail_count
from openevt.harness import (DEFAULT_ALPHA_GRID, DEFAULT_DELTA_GRID,
                             THYROID_KNOWN_CLASSES, THYROID_UNKNOWN_CLASSES,
                             TOY_KNOWN, TOY_UNKNOWN, EvalSet, f_measure,
                             fit_methods, generate_toy, load_letter,
                             load_thyroid, rank_methods, rng_from, roc_auc,
                             run_oletter, run_thyroid_protocol,
                             run_toy_protocol, synthetic_openset_surrogate,
                             thyroid_split)
from openevt.neighbors import TREE_DIMENSION_LIMIT, NeighborIndex
from openevt.serialize import fit_model, model_kinds


def test_rng_substreams_deterministic_and_distinct():
    a = rng_from(7, "x", 1).standard_normal(4)
    b = rng_from(7, "x", 1).standard_normal(4)
    c = rng_from(7, "x", 2).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


class TestToyGeneration:
    def test_deterministic_under_seed(self):
        t1, s1 = generate_toy(5)
        t2, s2 = generate_toy(5)
        np.testing.assert_array_equal(t1.points, t2.points)
        np.testing.assert_array_equal(s1.points, s2.points)

    def test_counts_and_composition(self):
        train, test = generate_toy(0)
        assert train.n == 600 and train.n_classes == 3
        assert test.points.shape == (800, 2)
        assert int(test.is_unknown.sum()) == 200

    def test_unknown_nearest_to_isolated_class(self):
        # the defining geometry: the unknown cluster is separated from all
        # training data but closest to the isolated known class
        train, test = generate_toy(0)
        u_mean = np.asarray(TOY_UNKNOWN[0])
        class_dists = {label: np.linalg.norm(u_mean - np.asarray(mean))
                       for label, mean, _ in TOY_KNOWN}
        assert min(class_dists, key=class_dists.get) == "c2"
        # separation: unknown points are far from training relative to the
        # training set's own nearest-neighbor spacing
        from openevt.neighbors import NeighborIndex
        ix = NeighborIndex(train.points)
        d0 = ix.batch_k_smallest(test.points[test.is_unknown], 1)[:, 0]
        assert np.median(d0) > 5 * np.median(ix.dmin_vector())


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
        kind=st.sampled_from(["distinct", "ties", "signed_zeros"]),
    )
    def test_matches_pair_counting_exactly(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        scores = {"distinct": lambda: rng.normal(size=n),
                  "ties": lambda: rng.integers(0, 4, size=n).astype(float),
                  # -0.0 and 0.0 are one tie group
                  "signed_zeros": lambda: rng.choice([-0.0, 0.0, 1.0], size=n),
                  }[kind]()
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
        res = run_toy_protocol(0)
        aucs = {name: curve.auc for name, curve in res.curves.items()}
        assert set(aucs) == {"evm", "gpdc", "gevc"}
        assert aucs["gpdc"] > 0.97 and aucs["gevc"] > 0.97
        assert aucs["evm"] < min(aucs["gpdc"], aucs["gevc"])
        # shape estimates separate: known near -1/2, unknown near 0
        known_xi = np.nanmean(res.xi_hat[res.test.is_known])
        unknown_xi = np.nanmean(res.xi_hat[res.test.is_unknown])
        assert known_xi < -0.35
        assert unknown_xi > -0.2

    def test_xi_from_the_shared_pool_query(self, monkeypatch):
        # xi_hat comes from the pool query that ranked the pool, so the one
        # index the harness builds counts the 600-row leave-one-out pass and
        # the 800-row pool once each, at width k + 1 = 21
        made = []

        class Recording(NeighborIndex):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(harness, "NeighborIndex", Recording)
        run_toy_protocol(0)
        assert [ix.counters.snapshot() for ix in made] == [(1400, 29400)]

    def test_deterministic(self):
        a = run_toy_protocol(3)
        b = run_toy_protocol(3)
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_steps_match_slice_sum_oracle(self, jobs):
        data, train_count = synthetic_openset_surrogate(seed=8)
        steps = run_oletter(data, reps=2, seed=8, train_count=train_count,
                            jobs=jobs)
        # the default method table below 26 classes
        methods = {"gpdc": {"k": None}, "gevc": {}, "evm": {"k": None}}
        grids = {"alpha": DEFAULT_ALPHA_GRID, "delta": DEFAULT_DELTA_GRID}
        want = [(rep, *step) for rep in range(2) for step in
                oletter_rep_oracle(data, train_count, 8, rep, methods, grids)]
        got = [(s.rep, s.known_classes, s.n_unknown_classes, s.f_measures)
               for s in steps]
        assert got == want
        assert [list(s.f_measures) for s in steps] == [list(methods)] * len(steps)
        # Python scalars only, so that a step's repr is stable
        for s in steps:
            assert type(s.n_unknown_classes) is int
            assert all(type(c) is str for c in s.known_classes)
            for curve in s.f_measures.values():
                assert all(type(t) is float and (f is None or type(f) is float)
                           for t, f in curve)

    def test_paper_scale_defaults(self):
        # 26-class surrogate: default ks switch to the full-protocol values
        data, train_count = synthetic_openset_surrogate(
            n_classes=26, train_per_class=40, test_per_class=10, p=6, seed=5)
        steps = run_oletter(data, reps=1, seed=5, train_count=train_count,
                            alphas=(0.05,), deltas=(0.5,))
        assert any(s.n_unknown_classes == 11 for s in steps)
        step = steps[0]
        assert len(step.known_classes) == 15

    def test_class_without_test_rows_rejected(self):
        data, train_count = synthetic_openset_surrogate(seed=7)
        last = data.labels[-1]
        keep = (np.arange(data.n) < train_count) | (data.labels != last)
        with pytest.raises(DataError, match=last):
            run_oletter(data.subset(keep), reps=1, seed=7,
                        train_count=train_count)

    def test_insufficient_classes(self):
        data, train_count = synthetic_openset_surrogate(n_classes=2, seed=6)
        with pytest.raises(UsageError):
            run_oletter(data, reps=1, seed=6, train_count=train_count)


class TestFitContract:
    """``serialize.fit_parameters`` looks each kind's ``fit`` up at the call,
    so a wrapper installed on a model module's ``fit`` sees every fit of
    every protocol. ``fit_methods`` builds one training pass per call, before
    any fit, and hands each fit of the call that same tuple as ``neighbours``."""

    @pytest.fixture
    def record(self, monkeypatch):
        record = SimpleNamespace(fits=[], passes=[])
        for module in (gpdc, gevc, evm):
            @functools.wraps(module.fit)
            def counted(*args, _kind=module.__name__.split(".")[-1],
                        _real=module.fit, **kwargs):
                record.fits.append((_kind, kwargs.get("neighbours")))
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, "fit", counted)
        build = NeighborIndex.training_pass

        def counted_pass(*args, **kwargs):
            record.passes.append(build(*args, **kwargs))
            return record.passes[-1]
        monkeypatch.setattr(NeighborIndex, "training_pass", staticmethod(counted_pass))
        return record

    @staticmethod
    def received(record) -> list:
        """Per training pass built, the kinds whose fit was handed that very
        tuple, in order; a fit handed anything else fails."""
        assert all(isinstance(built[0], NeighborIndex) for built in record.passes)
        got = [[] for _ in record.passes]
        for kind, neighbours in record.fits:
            same = [built is neighbours for built in record.passes]
            assert any(same), f"{kind} was handed {neighbours!r}, not a pass built"
            got[same.index(True)].append(kind)
        return got

    def test_run_toy_protocol(self, record):
        run_toy_protocol(0)
        assert self.received(record) == [["gpdc", "gevc", "evm"]]

    def test_run_oletter(self, record):
        # one pass per repetition, each handed to that repetition's fits
        data, train_count = synthetic_openset_surrogate(seed=1)
        run_oletter(data, reps=2, seed=1, train_count=train_count, jobs=2)
        assert sorted(map(sorted, self.received(record))) == [["evm", "gevc", "gpdc"]] * 2

    def test_run_thyroid_protocol(self, record, problem):
        # evm refuses the one known class, but its fit was still called,
        # with the pass that the fits before it read
        train, test = problem
        run_thyroid_protocol(train, test, (0.01, 0.05))
        assert self.received(record) == [["gpdc", "gevc", "evm", "gpdc", "gpdc"]]

    def test_two_metrics_refused_before_any_fit(self, record, monkeypatch):
        # one call fits under one metric: a second is refused before any fit
        # runs or any index is made; the default is Euclidean
        made, init = [], NeighborIndex.__init__
        monkeypatch.setattr(NeighborIndex, "__init__", lambda ix, *args, **kwargs: (
            made.append(args), init(ix, *args, **kwargs))[1])
        train, pool = TestSharedNeighbourPass.case(30)
        with pytest.raises(UsageError, match=r"one metric, got \['euclidean', 'manhattan'\]"):
            fit_methods(train, [("gpdc", {"k": 6}),
                                ("gevc", {"metric": DistanceMetric(1.0)})], pool)
        assert record.fits == record.passes == made == []
        fit_methods(train, [("gpdc", {"k": 6, "metric": DistanceMetric(2.0)}),
                            ("gevc", {})], pool)
        assert self.received(record) == [["gpdc", "gevc"]] and len(made) == 2

    @pytest.mark.parametrize("p", [2, 30])
    def test_neighbours_option_never_replaces_the_pass(self, p):
        def foreign(metric):
            raise AssertionError("a method option reached the fit")
        train, pool = TestSharedNeighbourPass.case(p)
        methods = TestSharedNeighbourPass.METHODS
        want = fit_methods(train, methods, pool)
        got = fit_methods(train, [(kind, {**options, "neighbours": foreign})
                                  for kind, options in methods], pool)
        for (a, a_scoring), (b, b_scoring) in zip(want, got):
            assert a.points.tobytes() == b.points.tobytes()
            assert a.to_payload() == b.to_payload()
            assert a_scoring.keys() == b_scoring.keys()
            for key in a_scoring:
                assert a_scoring[key].tobytes() == b_scoring[key].tobytes()


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
        gpdc_curve, gevc_curve, evm_curve = rank_methods(
            train, test, [("gpdc", {}), ("gevc", {}), ("evm", {})])[1]
        assert evm_curve is None
        assert gpdc_curve.auc > 0.9
        assert gevc_curve.auc > 0.9

    def test_tail_fraction_sweep(self, problem):
        train, test = problem
        sweep = run_thyroid_protocol(train, test, (0.0025, 0.01, 0.05))[1]
        assert [f for f, _, _ in sweep] == [0.0025, 0.01, 0.05]
        for _, k, auc in sweep:
            assert k >= 1 and 0.0 <= auc <= 1.0
        aucs = [a for _, _, a in sweep]
        assert max(aucs) - min(aucs) < 0.05  # flat in the tail size


class TestSharedNeighbourPass:
    """fit_methods fits gpdc and gevc from one leave-one-out pass and one
    pool query at the widest width they need. Every kind must equal a fit
    from full sorted distance matrices bit for bit, alone or shared."""

    METHODS = [("gpdc", {"k": 6, "alpha": 0.05}), ("gevc", {"alpha": 0.05}),
               ("evm", {"k": 8})]
    GRIDS = {"alpha": DEFAULT_ALPHA_GRID, "delta": DEFAULT_DELTA_GRID}

    @staticmethod
    def case(p):
        """Three classes and a pool: p=2 runs on the kd-tree, p=16 on
        integers with distance ties and one row repeated 9 times (beyond
        gpdc's k+1 = 7), p=30 on the blocked scan. A label follows from the
        coordinates, so repeated rows share it and evm margins stay > 0."""
        rng = np.random.default_rng(p)
        if p == 16:
            pts = rng.integers(0, 4, size=(240, p)).astype(float)
            pts[:9] = pts[9]
            pool = np.vstack([rng.integers(0, 4, size=(40, p)), pts[:12]])
        else:
            pts = rng.normal(size=(240, p)) + np.repeat(
                rng.normal(scale=3.0, size=(3, p)), 80, axis=0)
            pool = np.vstack([rng.normal(size=(40, p)) * 3.0, pts[:12]])
        labels = np.where(pts[:, 0] < np.median(pts[:, 0]), "a",
                          np.where(pts[:, 1] < np.median(pts[:, 1]), "b", "c"))
        return LabeledDataset(pts, labels), pool.astype(float)

    ORDERS = [(order, p) for order in (2.0, 1.0, 1.5) for p in (2, 16, 30)]

    @pytest.mark.parametrize("order,p", ORDERS, ids=[
        str(p) if order == 2.0 else f"q{order:g}-{p}" for order, p in ORDERS])
    def test_every_kind_equals_whole_model_reference(self, order, p):
        # Minkowski orders, the non-integer 1.5 among them, run through
        # every kind's fit and evidence on the tree and on the scan
        train, pool = self.case(p)
        metric = DistanceMetric(order)
        methods = [(kind, {**options, "metric": metric}) for kind, options in self.METHODS]
        if (order, p) == (1.0, 16):
            # integer points at q = 1: some point's 8 nearest other-class
            # distances tie, and evm refuses them shared as alone
            with pytest.raises(FitError, match="margin Weibull fit failed") as shared_error:
                fit_methods(train, methods, pool)
            with pytest.raises(FitError) as alone_error:
                fit_model("evm", train, **methods[2][1])
            assert str(shared_error.value) == str(alone_error.value)
            assert shared_error.value.diagnostics == alone_error.value.diagnostics
            methods = methods[:2]
        self.assert_kinds_equal_reference(train, pool, methods, metric)

    def assert_kinds_equal_reference(self, train, pool, methods, metric):
        """Each kind of ``methods``, fitted alone and through one
        fit_methods call, equals reference_model in fields and flags, bit
        for bit."""
        shared = list(fit_methods(train, methods, pool))
        for (kind, options), (model, scoring) in zip(methods, shared):
            grid = self.GRIDS[model.THRESHOLD]
            fields, flags = reference_model(kind, train, pool, grid,
                                            options.get("k"), metric=metric)
            alone = fit_model(kind, train, **options)
            for fitted, got in ((alone, alone.flags(pool, grid)),
                                (model, model.flags(pool, grid, **scoring))):
                for name, want in fields.items():
                    value = getattr(fitted, name)
                    if isinstance(want, np.ndarray):
                        assert value.tobytes() == want.tobytes(), (kind, name)
                    else:
                        assert value == want, (kind, name)
                assert list(got) == list(flags)
                for threshold, want in flags.items():
                    assert got[threshold].tobytes() == want.tobytes(), kind

    @settings(max_examples=30, deadline=None)
    @given(order=st.floats(1.0, 8.0), p=st.sampled_from([2, 30]),
           seed=st.integers(0, 2**32 - 1), n_per=st.integers(8, 20))
    # evm's largest margin shape here is about 1,122, so the oracle's psi
    # overflows in power for far pool rows, where W is 0
    @example(order=4.75, p=30, seed=2_590_350_278, n_per=17)
    def test_drawn_minkowski_orders_equal_reference(self, order, p, seed, n_per):
        # a hypothesis-drawn q through every kind's fit and evidence, alone
        # and shared, on the kd-tree (p = 2) and the scan (p = 30); a kind
        # that refuses the set alone is refused alike by fit_methods
        rng = np.random.default_rng(seed)
        pts = np.repeat(rng.normal(scale=3.0, size=(3, p)), n_per, axis=0)
        pts += rng.normal(size=pts.shape)
        train = LabeledDataset(pts, np.repeat(["a", "b", "c"], n_per))
        pool = np.vstack([rng.normal(scale=3.0, size=(10, p)), pts[::n_per]])
        metric = DistanceMetric(order)
        methods = [(kind, {**options, "metric": metric}) for kind, options in
                   [("gpdc", {"k": 4}), ("gevc", {}), ("evm", {"k": 5})]]
        for kind, options in list(methods):
            try:
                fit_model(kind, train, **options)
            except OpenEvtError as exc:
                with pytest.raises(type(exc)) as shared:
                    fit_methods(train, [(kind, options)], pool)
                assert str(shared.value) == str(exc)
                assert (getattr(shared.value, "diagnostics", None)
                        == getattr(exc, "diagnostics", None))
                methods.remove((kind, options))
        self.assert_kinds_equal_reference(train, pool, methods, metric)

    @pytest.mark.parametrize("p", [2, 30])
    def test_shared_pass_counts_once(self, p):
        # The leave-one-out pass and the pool pass count their kNN rows and
        # columns, at gpdc's width, once on the index that ran them. evm's
        # margins, a labelled selection, and its psi, a visit, count nothing
        # on it, on the kd-tree as on the scan, so the counts are those of
        # gpdc and gevc alone.
        train, pool = self.case(p)
        (g, _), (v, _), (_, e_scoring) = fit_methods(train, self.METHODS, pool)
        rows = train.n + pool.shape[0]  # the leave-one-out pass, then the pool
        assert g.index.counters.snapshot() == (rows, rows * (g.k + 1))
        assert v.index.counters.snapshot() == (0, 0)
        assert set(e_scoring) == {"psi"}
        (alone, _), _ = fit_methods(train, self.METHODS[:2], pool)
        assert alone.index.counters.snapshot() == g.index.counters.snapshot()

    @pytest.mark.parametrize("p", [2, 16, 30])
    @pytest.mark.parametrize("methods", [
        [("gpdc", {"k": 12}), ("evm", {"k": 7}), ("gevc", {})],
        [("evm", {"k": 8})],
        [("evm", {"k": 11}), ("gpdc", {"k": 6}), ("evm", {"k": 6})],
    ], ids=["narrower-than-gpdc", "alone", "two-evm"])
    def test_evm_equals_reference_at_any_width(self, p, methods):
        # A k-column margin row is the prefix of the pass's widest one. At
        # every p each evm of a call takes its psi from the pool pass.
        train, pool = self.case(p)
        grid = DEFAULT_DELTA_GRID
        fitted = fit_methods(train, methods, pool)
        for (kind, options), (model, scoring) in zip(methods, fitted):
            if kind != "evm":
                continue
            assert set(scoring) == {"psi"}
            fields, flags = reference_model("evm", train, pool, grid, options["k"])
            alone = fit_model("evm", train, **options)
            for fitted_model, got in ((alone, alone.flags(pool, grid)),
                                      (model, model.flags(pool, grid, **scoring))):
                for name, want in fields.items():
                    assert getattr(fitted_model, name).tobytes() == want.tobytes(), name
                assert list(got) == list(flags)
                for delta, want in flags.items():
                    assert got[delta].tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [2, 16, 30])
    def test_evm_alone_does_the_neighbour_work_of_its_fit(self, p, monkeypatch):
        # without gpdc or gevc no fit reads a kNN column, so fit_methods
        # selects none: no leave-one-out pass and no pool query, only the
        # class queries of evm's margins on the kd-tree, as evm.fit does
        train, pool = self.case(p)
        calls = []
        for name in ("leave_one_out_smallest", "batch_k_smallest"):
            def spy(index, *args, _name=name, _real=getattr(NeighborIndex, name),
                    **kwargs):
                result = _real(index, *args, **kwargs)
                calls.append((_name, result.shape))
                return result
            monkeypatch.setattr(NeighborIndex, name, spy)
        alone = evm.fit(train, k=8)
        alone.unknownness(pool)
        expected, calls[:] = list(calls), []
        (model, scoring), = fit_methods(train, [("evm", {"k": 8})], pool)
        model.unknownness(pool, **scoring)
        assert calls == expected
        assert (not calls) == (p > TREE_DIMENSION_LIMIT)

    @pytest.mark.parametrize("p", [2, 30])
    def test_cross_class_duplicate_refused_alike(self, p):
        # a point repeated in another class has a zero margin: the shared
        # fit names the same point as the fit alone
        train, pool = self.case(p)
        labels = train.labels
        j = int(np.flatnonzero(labels != labels[5])[3])
        pts = np.array(train.points)
        pts[j] = pts[5]
        dup = LabeledDataset(pts, labels)
        with pytest.raises(FitError) as alone:
            evm.fit(dup, k=8)
        with pytest.raises(FitError) as shared:
            fit_methods(dup, self.METHODS, pool)
        assert alone.value.diagnostics == {"point": min(5, j)}
        assert str(shared.value) == str(alone.value)
        assert shared.value.diagnostics == alone.value.diagnostics

    @pytest.mark.parametrize("p", [16, 30])
    def test_one_class_leaves_evm_out(self, p):
        train, pool = self.case(p)
        one = LabeledDataset(train.points, ["known"] * train.n)
        test = EvalSet(points=pool, is_known=np.arange(pool.shape[0]) >= 40)
        kinds = ("gpdc", "gevc", "evm")
        models, curves, _ = rank_methods(one, test, [(kind, {"k": 6}) for kind in kinds])
        assert models[2] is None and curves[2] is None
        for kind, curve in zip(kinds[:2], curves):
            alone = fit_model(kind, one, k=6)
            assert curve == roc_auc(zip(alone.unknownness(pool),
                                        test.is_unknown))

    def test_one_class_raises_evm_error_unless_optional(self):
        train, pool = self.case(2)
        one = LabeledDataset(train.points, ["known"] * train.n)
        with pytest.raises(DataError) as alone:
            fit_model("evm", one, k=8)
        with pytest.raises(DataError) as shared:
            fit_methods(one, self.METHODS, pool)
        assert "two training classes" in str(shared.value)
        assert str(shared.value) == str(alone.value)

    @pytest.mark.parametrize("p", [2, 30])
    def test_gevc_update_leaves_gpdc_alone(self, p):
        train, pool = self.case(p)
        (g, g_scoring), (v, _), _ = fit_methods(train, self.METHODS, pool)
        assert g.index is not v.index

        def gpdc_state():
            flags = [g.flags(pool, DEFAULT_ALPHA_GRID, **scoring)
                     for scoring in (g_scoring, {})]
            return (g.index.points.tobytes(), g.pxi_stats.tobytes(),
                    g.radius_stats.tobytes(),
                    [f.tobytes() for by_alpha in flags for f in by_alpha.values()])

        before = gpdc_state()
        # enough inserts for a tree rebuild and a Weibull refit
        rng = np.random.default_rng(p)
        v.update([(x, "a") for x in rng.normal(size=(80, p)) * 2.0])
        assert v.n == train.n + 80
        assert gpdc_state() == before

    @pytest.mark.parametrize("p", [2, 16, 30])
    def test_flags_leave_every_index_unchanged(self, p):
        train, pool = self.case(p)
        fitted = list(fit_methods(train, self.METHODS, pool))
        indexes = [model.index for model, _ in fitted if model.KIND != "evm"]
        before = [index_state(ix) for ix in indexes]
        for _ in range(2):
            for model, scoring in fitted:
                model.flags(pool, self.GRIDS[model.THRESHOLD], **scoring)
        assert [index_state(ix) for ix in indexes] == before

    def test_sweep_rows_equal_separate_fits(self, problem):
        train, test = problem
        sweep = run_thyroid_protocol(train, test, (0.0005, 0.01, 0.05))[1]
        assert [k for _, k, _ in sweep] == [2, 12, 60]
        for _, k, auc in sweep:
            model = fit_model("gpdc", train, k=k, alpha=0.05)
            assert auc == roc_auc(zip(model.unknownness(test.points),
                                      test.is_unknown)).auc

    @settings(max_examples=60, deadline=None)
    @given(coincident=st.booleans(), seed=st.integers(0, 2**32 - 1),
           n_per=st.integers(3, 25), k=st.integers(2, 6),
           integer=st.booleans(), shuffled=st.booleans())
    def test_adversarial_fits_match_standalone(self, coincident, seed, n_per,
                                               k, integer, shuffled):
        # p = 1 draws, or a p = 3 set whose first class is one point
        # repeated: each kind fits as it does alone, with finite thresholds,
        # or the first refusal in kind order surfaces unchanged; the rows of
        # a class are contiguous or interleaved with the others'
        rng = np.random.default_rng(seed)
        p = 3 if coincident else 1
        pts = rng.normal(scale=3.0, size=(3 * n_per, p))
        if integer:
            pts = np.round(pts)
        if coincident:
            pts[:n_per] = pts[0]
        labels = np.repeat(["a", "b", "c"], n_per)
        if shuffled:
            perm = rng.permutation(3 * n_per)
            pts, labels = pts[perm], labels[perm]
        train = LabeledDataset(pts, labels)
        test = EvalSet(points=rng.normal(scale=3.0, size=(20, p)),
                       is_known=np.arange(20) < 10)
        options = {"k": k, "alpha": 0.05}
        want, error = {}, None
        for kind in model_kinds():
            try:
                want[kind] = fit_model(kind, train, **options)
            except DataError:
                want[kind] = None
            except (FitError, UsageError) as exc:
                error = exc
                break
        if error is not None:
            with pytest.raises(type(error)) as info:
                rank_methods(train, test, [(kind, options) for kind in model_kinds()])
            assert str(info.value) == str(error)
            assert (getattr(info.value, "diagnostics", None)
                    == getattr(error, "diagnostics", None))
            return
        models, curves, _ = rank_methods(train, test, [(kind, options) for kind in want])
        assert len(models) == len(want) == len(model_kinds())
        for kind, model, curve in zip(want, models, curves):
            finite = {"gpdc": lambda m: [m.shape_threshold, m.radius_threshold],
                      "gevc": lambda m: [m.fitted.sigma, m.fitted.alpha],
                      "evm": lambda m: np.concatenate([m.sigmas, m.alphas])}[kind]
            assert np.isfinite(finite(model)).all(), kind
            assert model.summary() == want[kind].summary()
            alone = roc_auc(zip(want[kind].unknownness(test.points),
                                test.is_unknown))
            assert curve == alone


def test_thyroid_protocol_makes_one_pass(tmp_path, monkeypatch, capsys):
    # the kinds at their default k and the tail-fraction sweep share one
    # leave-one-out pass, at the widest swept k + 1
    widths, run = [], NeighborIndex.leave_one_out_smallest
    monkeypatch.setattr(NeighborIndex, "leave_one_out_smallest", lambda ix, k, selections=():
                        (widths.append(k), run(ix, k, selections))[1])
    rng = np.random.default_rng(5)
    lines = [" ".join(f"{v:.5f}" for v in rng.uniform(size=21)) + " 3"
             for _ in range(700)]
    lines += [" ".join(f"{v:.5f}" for v in rng.uniform(size=21) + 0.9) + " 1"
              for _ in range(60)]
    f = tmp_path / "ann.data"
    f.write_text("\n".join(lines) + "\n")
    rc = main(["benchmark", "--protocol", "thyroid", "--data", str(f),
               "--test-known", "100"])
    assert rc == 0, capsys.readouterr().err
    assert widths == [tail_count(0.10, 600) + 1]


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
        assert (THYROID_UNKNOWN_CLASSES, THYROID_KNOWN_CLASSES) == (("1", "2"),
                                                                  ("3",))

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


@pytest.mark.parametrize("refused,message", [
    (lambda: roc_auc([]), "need at least one scored point"),
    (lambda: run_oletter(synthetic_openset_surrogate(seed=1)[0], reps=1, train_count=0),
     "train_count must split the data, got 0"),
    (lambda: thyroid_split(np.zeros((60, 2)), np.zeros(60, dtype=bool), test_known=10),
     "no unknown rows after class mapping"),
], ids=["roc-of-nothing", "oletter-train-count", "thyroid-without-unknowns"])
def test_refused_with_usage_error(refused, message):
    with pytest.raises(UsageError, match=message):
        refused()
