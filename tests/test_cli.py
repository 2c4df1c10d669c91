import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import openevt
from openevt import gevc
from openevt.cli import PROTOCOLS, _build_parser, main
from openevt.data import DistanceMetric, LabeledDataset
from openevt.harness import generate_toy, load_letter, run_oletter
from openevt.serialize import fit_model, load_model


def write_csv(path, points, labels=None):
    with open(path, "w") as fh:
        for i, row in enumerate(points):
            cells = [repr(float(v)) for v in row]
            if labels is not None:
                cells.append(str(labels[i]))
            fh.write(",".join(cells) + "\n")


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("toy")
    train, test = generate_toy(3)
    train_csv = tmp / "train.csv"
    write_csv(train_csv, train.points, train.labels)
    test_csv = tmp / "test.csv"
    write_csv(test_csv, test.points)
    return tmp, train_csv, test_csv, train, test


def test_fit_gevc_happy_path(toy_files, capsys):
    tmp, train_csv, _, _, _ = toy_files
    out = tmp / "gevc.model"
    rc = main(["fit", "--method", "gevc", "--train", str(train_csv),
               "--alpha", "0.05", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    lines = dict(l.split("=", 1) for l in capsys.readouterr().out.splitlines())
    assert lines["method"] == "gevc"
    assert lines["n"] == "600"
    assert lines["p"] == "2"
    assert lines["classes"] == "3"


def test_fit_missing_file_is_usage_error(capsys):
    rc = main(["fit", "--method", "gevc", "--train", "/no/such/file.csv",
               "--out", "/tmp/never.model"])
    assert rc == 2
    assert "file not found" in capsys.readouterr().err


def test_fit_evm_single_class_is_data_error(tmp_path, capsys):
    rng = np.random.default_rng(0)
    f = tmp_path / "one.csv"
    write_csv(f, rng.normal(size=(40, 2)), ["only"] * 40)
    rc = main(["fit", "--method", "evm", "--train", str(f), "--k", "5",
               "--out", str(tmp_path / "x.model")])
    assert rc == 3
    assert "two training classes" in capsys.readouterr().err


def test_fit_degenerate_is_fit_error(tmp_path, capsys):
    f = tmp_path / "flat.csv"
    write_csv(f, np.zeros((30, 2)), ["a"] * 30)
    rc = main(["fit", "--method", "gevc", "--train", str(f),
               "--out", str(tmp_path / "x.model")])
    assert rc == 4


@pytest.mark.parametrize("method,flag", [
    ("gpdc", "--delta"), ("gpdc", "--free-endpoint"),
    ("gevc", "--k"), ("gevc", "--tail-fraction"), ("gevc", "--gamma"),
    ("gevc", "--delta"),
    ("evm", "--alpha"), ("evm", "--gamma"), ("evm", "--free-endpoint"),
])
def test_fit_refuses_flags_the_kind_does_not_take(toy_files, tmp_path, capsys,
                                                   method, flag):
    _, train_csv, _, _, _ = toy_files
    value = {"--k": ["20"], "--tail-fraction": ["0.01"], "--alpha": ["0.05"],
             "--gamma": ["0.001"], "--delta": ["0.5"], "--free-endpoint": []}[flag]
    out = tmp_path / "m.model"
    rc = main(["fit", "--method", method, "--train", str(train_csv),
               "--out", str(out), flag, *value])
    assert rc == 2
    assert f"{flag} does not apply to {method} models" in capsys.readouterr().err
    assert not out.exists()


def test_fit_refuses_config_values_the_kind_does_not_take(toy_files, tmp_path,
                                                          capsys):
    _, train_csv, _, _, _ = toy_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=0.5\n")
    rc = main(["fit", "--config", str(cfg), "--method", "gpdc",
               "--train", str(train_csv), "--out", str(tmp_path / "m.model")])
    assert rc == 2
    assert "--delta does not apply to gpdc models" in capsys.readouterr().err


@pytest.mark.parametrize("method,flag,shown", [
    ("gpdc", ["--gamma", "0.001"], "gamma=0.001"),
    ("gevc", ["--free-endpoint", "--alpha", "0.1"], "alpha=0.1"),
    ("evm", ["--delta", "0.5", "--tail-fraction", "0.05"], "k=30"),
])
def test_fit_accepts_flags_the_kind_takes(toy_files, tmp_path, capsys, method,
                                          flag, shown):
    _, train_csv, _, _, _ = toy_files
    rc = main(["fit", "--method", method, "--train", str(train_csv),
               "--out", str(tmp_path / "m.model"), *flag])
    assert rc == 0
    assert shown in capsys.readouterr().out.splitlines()


@pytest.fixture(scope="module")
def gpdc_model(toy_files):
    tmp, train_csv, _, _, _ = toy_files
    out = tmp / "gpdc.model"
    rc = main(["fit", "--method", "gpdc", "--train", str(train_csv),
               "--k", "20", "--out", str(out)])
    assert rc == 0
    return out


class TestScore:

    def test_score_writes_evidence_columns(self, toy_files, gpdc_model):
        tmp, _, test_csv, _, _ = toy_files
        out = tmp / "scores.csv"
        rc = main(["score", "--model", str(gpdc_model), "--test", str(test_csv),
                   "--out", str(out)])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "row,verdict,score,xi_hat,p_xi,radius,stage"
        assert len(lines) == 1 + 800

    def test_score_deterministic_bytes(self, toy_files, gpdc_model):
        tmp, _, test_csv, _, _ = toy_files
        a, b = tmp / "a.csv", tmp / "b.csv"
        for out in (a, b):
            rc = main(["score", "--model", str(gpdc_model),
                       "--test", str(test_csv), "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_self_scoring_rate_bounded(self, toy_files, gpdc_model, capsys):
        # scoring the training file against its own model at alpha=0.05
        tmp, train_csv, _, train, _ = toy_files
        out = tmp / "self.csv"
        rc = main(["score", "--model", str(gpdc_model),
                   "--test", str(train_csv), "--label-column", "last",
                   "--out", str(out)])
        assert rc == 0
        stdout = dict(l.split("=", 1)
                      for l in capsys.readouterr().out.splitlines())
        # training points are coincident with themselves: all known
        assert stdout["unknown"] == "0"
        # fresh draws from the same distribution stay near alpha
        fresh_csv = tmp / "fresh.csv"
        _, fresh = generate_toy(301)
        write_csv(fresh_csv, fresh.points[fresh.is_known])
        rc = main(["score", "--model", str(gpdc_model),
                   "--test", str(fresh_csv), "--out", str(tmp / "f.csv")])
        assert rc == 0
        stdout = dict(l.split("=", 1)
                      for l in capsys.readouterr().out.splitlines())
        n = int(stdout["rows"])
        rate = int(stdout["unknown"]) / n
        assert rate <= 0.05 + 2 * np.sqrt(0.05 / n)

    def test_empty_test_file(self, toy_files, gpdc_model):
        tmp, _, _, _, _ = toy_files
        empty = tmp / "empty.csv"
        empty.write_text("")
        out = tmp / "empty_scores.csv"
        rc = main(["score", "--model", str(gpdc_model), "--test", str(empty),
                   "--out", str(out)])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines == ["row,verdict,score,xi_hat,p_xi,radius,stage"]

    def test_dimension_mismatch(self, toy_files, gpdc_model, tmp_path):
        bad = tmp_path / "bad.csv"
        write_csv(bad, np.zeros((3, 5)))
        rc = main(["score", "--model", str(gpdc_model), "--test", str(bad),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_hill_plot_emission(self, toy_files, gpdc_model):
        tmp, _, test_csv, _, _ = toy_files
        hill = tmp / "hill.csv"
        rc = main(["score", "--model", str(gpdc_model), "--test", str(test_csv),
                   "--out", str(tmp / "s2.csv"), "--hill-plot-out", str(hill)])
        assert rc == 0
        lines = [l for l in hill.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "row,k,xi_hat"
        assert len(lines) > 800  # several k values per row


def test_score_evm_requires_delta(toy_files, capsys):
    tmp, train_csv, test_csv, _, _ = toy_files
    model = tmp / "evm.model"
    rc = main(["fit", "--method", "evm", "--train", str(train_csv),
               "--k", "20", "--out", str(model)])
    assert rc == 0
    # no delta anywhere: binary decisions are refused
    rc = main(["score", "--model", str(model), "--test", str(test_csv),
               "--out", str(tmp / "e1.csv")])
    assert rc == 2
    assert "delta" in capsys.readouterr().err
    # delta supplied at score time
    rc = main(["score", "--model", str(model), "--test", str(test_csv),
               "--delta", "0.5", "--out", str(tmp / "e2.csv")])
    assert rc == 0
    lines = [l for l in (tmp / "e2.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "row,verdict,score,psi"
    assert len(lines) == 801


def test_score_echoes_delta_only_when_given(toy_files):
    # the delta stored at fit time is not a score option: no delta line
    tmp, train_csv, test_csv, _, _ = toy_files
    model = tmp / "evm_fit_delta.model"
    assert main(["fit", "--method", "evm", "--train", str(train_csv), "--k", "20",
                 "--delta", "0.5", "--out", str(model)]) == 0
    runs = {}
    for name, extra in (("without", []), ("with", ["--delta", "0.2"])):
        out = tmp / f"delta_{name}.csv"
        assert main(["score", "--model", str(model), "--test", str(test_csv),
                     "--out", str(out), *extra]) == 0
        runs[name] = out.read_text().splitlines()
    comments = {name: [l for l in text if l.startswith("#")] for name, text in runs.items()}
    assert not any(l.startswith("# delta") for l in comments["without"])
    assert comments["with"] == [*comments["without"][:-1], "# delta=0.2",
                                comments["without"][-1]]  # before model-kind


@pytest.mark.parametrize("delta", ["nan", "0", "-1", "2", "inf"])
def test_evm_delta_outside_unit_interval_is_usage_error(toy_files, capsys, delta):
    tmp, train_csv, test_csv, _, _ = toy_files
    model = tmp / f"evm_delta_{delta}.model"
    rc = main(["fit", "--method", "evm", "--train", str(train_csv), "--k", "20",
               "--delta", delta, "--out", str(model)])
    assert rc == 2 and not model.exists()
    assert "delta must be in (0, 1]" in capsys.readouterr().err
    assert main(["fit", "--method", "evm", "--train", str(train_csv),
                 "--k", "20", "--out", str(model)]) == 0
    rc = main(["score", "--model", str(model), "--test", str(test_csv),
               "--delta", delta, "--out", str(tmp / "e3.csv")])
    assert rc == 2
    assert "delta must be in (0, 1]" in capsys.readouterr().err


def test_fit_and_score_keep_an_exact_minkowski_order(toy_files, tmp_path, capsys):
    # an order of more than six significant digits reaches the model file,
    # the fit report and the scores whole: scoring runs under the fit's order
    _, train_csv, test_csv, train, test = toy_files
    model, out = tmp_path / "m.model", tmp_path / "s.csv"
    assert main(["fit", "--method", "gevc", "--train", str(train_csv),
                 "--metric", "minkowski:1.2345678", "--out", str(model)]) == 0
    assert "metric=minkowski:1.2345678" in capsys.readouterr().out.splitlines()
    assert load_model(model).model.metric == DistanceMetric(1.2345678)
    assert main(["score", "--model", str(model), "--test", str(test_csv),
                 "--out", str(out)]) == 0
    evidence = gevc.fit(train, metric=DistanceMetric(1.2345678)).evidence(test.points)
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == ["row", *evidence]
    for j, column in enumerate(evidence.values(), start=1):
        assert [r[j] for r in rows[1:]] == [
            v if isinstance(v, str) else repr(v) for v in column.tolist()]


@pytest.mark.parametrize("method", ["gpdc", "gevc", "evm"])
def test_score_of_an_overflowing_manhattan_row_is_silent(method, tmp_path):
    # a Manhattan distance past the largest double is inf, the right answer:
    # the scores are the in-memory model's, and neither command writes to
    # stderr (they run in a fresh interpreter, under the default warning
    # filters, so an overflow warning would be printed there)
    rng = np.random.default_rng(0)
    train = LabeledDataset(rng.normal(size=(200, 2)) * 1e300, np.repeat(["a", "b"], 100))
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    write_csv(train_csv, train.points, train.labels)
    write_csv(test_csv, [[1.7e308, 1.7e308]])
    model, out = tmp_path / "m.model", tmp_path / "s.csv"
    delta = ["--delta", "0.5"] if method == "evm" else []
    env = {**os.environ, "PYTHONPATH": str(Path(openevt.__file__).resolve().parent.parent)}
    for args in (["fit", "--method", method, "--metric", "manhattan", "--train",
                  str(train_csv), "--out", str(model), *delta],
                 ["score", "--model", str(model), "--test", str(test_csv), "--out", str(out)]):
        proc = subprocess.run([sys.executable, "-m", "openevt.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
    evidence = fit_model(method, train, metric=DistanceMetric(1.0), delta=0.5
                         ).evidence(np.full((1, 2), 1.7e308))
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows == [["row", *evidence], ["0", *(
        v if isinstance(v, str) else repr(v) for v in (c.tolist()[0] for c in evidence.values()))]]
    assert rows[1][1] == "unknown"


def test_fit_refuses_k_with_tail_fraction(toy_files, tmp_path, capsys):
    _, train_csv, _, _, _ = toy_files
    out = tmp_path / "m.model"
    rc = main(["fit", "--method", "gpdc", "--train", str(train_csv), "--k", "5",
               "--tail-fraction", "0.1", "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert "pass either --k or --tail-fraction, not both" in capsys.readouterr().err


def test_score_refuses_delta_for_a_gpdc_model(toy_files, gpdc_model, tmp_path, capsys):
    _, _, test_csv, _, _ = toy_files
    out = tmp_path / "s.csv"
    rc = main(["score", "--model", str(gpdc_model), "--test", str(test_csv),
               "--delta", "0.5", "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert "--delta only applies to evm models" in capsys.readouterr().err


def test_score_standardized_model(toy_files):
    tmp, train_csv, test_csv, _, _ = toy_files
    model = tmp / "std.model"
    rc = main(["fit", "--method", "gevc", "--train", str(train_csv),
               "--standardize", "--out", str(model)])
    assert rc == 0
    loaded = load_model(model)
    assert loaded.standardizer is not None
    rc = main(["score", "--model", str(model), "--test", str(test_csv),
               "--out", str(tmp / "std_scores.csv")])
    assert rc == 0


def test_fit_standardize_overflow_is_data_error(tmp_path, capsys):
    pts = np.random.default_rng(4).normal(size=(300, 2))
    pts[17] = [1e160, 0.0]
    f = tmp_path / "far.csv"
    write_csv(f, pts, ["a"] * 300)
    out = tmp_path / "far.model"
    rc = main(["fit", "--method", "gevc", "--train", str(f), "--standardize",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3 and not out.exists()
    assert "feature column 1" in err and "Warning" not in err



def test_hill_plot_refused_for_gevc_before_any_output(toy_files, tmp_path,
                                                       capsys):
    tmp, train_csv, test_csv, _, _ = toy_files
    model = tmp / "gevc_hill.model"
    assert main(["fit", "--method", "gevc", "--train", str(train_csv),
                 "--out", str(model)]) == 0
    out, hill = tmp_path / "scores.csv", tmp_path / "hill.csv"
    rc = main(["score", "--model", str(model), "--test", str(test_csv),
               "--out", str(out), "--hill-plot-out", str(hill)])
    assert rc == 2
    assert "--hill-plot-out only applies to gpdc" in capsys.readouterr().err
    assert not out.exists() and not hill.exists()


def test_hill_plot_ladder_within_kmax_of_small_model(tmp_path, capsys):
    # n = 5 caps the ladder at kmax = 4, below the ladder's usual start of 5
    rng = np.random.default_rng(8)
    train, test = tmp_path / "five.csv", tmp_path / "fresh.csv"
    write_csv(train, rng.normal(size=(5, 2)), ["a"] * 5)
    write_csv(test, rng.normal(size=(3, 2)))
    model, hill = tmp_path / "five.model", tmp_path / "hill.csv"
    assert main(["fit", "--method", "gpdc", "--train", str(train), "--k", "2",
                 "--out", str(model)]) == 0
    rc = main(["score", "--model", str(model), "--test", str(test),
               "--out", str(tmp_path / "s.csv"), "--hill-plot-out", str(hill)])
    assert rc == 0
    rows = [l.split(",") for l in hill.read_text().splitlines()
            if not l.startswith("#")][1:]
    assert [(r[0], r[1]) for r in rows] == [("0", "4"), ("1", "4"), ("2", "4")]
    assert all(np.isfinite(float(r[2])) for r in rows)


@pytest.mark.parametrize("metric", ["minkowski:inf", "minkowski:nan"])
def test_fit_refuses_bad_minkowski_order(toy_files, tmp_path, capsys, metric):
    _, train_csv, _, _, _ = toy_files
    out = tmp_path / "m.model"
    rc = main(["fit", "--method", "gevc", "--train", str(train_csv),
               "--metric", metric, "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert "Minkowski order" in capsys.readouterr().err

@pytest.mark.parametrize("field,value", [("mean", "x"), ("scale", 0.0)])
def test_score_refuses_tampered_standardizer(toy_files, field, value, capsys):
    tmp, train_csv, test_csv, _, _ = toy_files
    model = tmp / "tampered_std.model"
    assert main(["fit", "--method", "gevc", "--train", str(train_csv),
                 "--standardize", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["standardize"][field][0] = value
    model.write_text(json.dumps(doc))
    rc = main(["score", "--model", str(model), "--test", str(test_csv),
               "--out", str(tmp / "tampered_std.csv")])
    assert rc == 3
    assert repr(field) in capsys.readouterr().err


def check_roc_files(prefix, aucs):
    """One ``<prefix>.<method>.csv`` per method with a printed AUC, running
    from (0, 0) to (1, 1) with the printed AUC as its trapezoid area."""
    written = sorted(f.name for f in prefix.parent.glob(prefix.name + ".*.csv"))
    assert written == sorted(f"{prefix.name}.{m}.csv" for m in aucs)
    for method, auc in aucs.items():
        lines = [l for l in (prefix.parent / f"{prefix.name}.{method}.csv")
                 .read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "fpr,tpr"
        assert lines[1] == "0.0,0.0" and lines[-1] == "1.0,1.0"
        fpr, tpr = np.array([l.split(",") for l in lines[1:]], dtype=float).T
        area = float(((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2).sum())
        assert area == pytest.approx(auc, rel=0, abs=1e-12)


class TestBenchmark:
    def test_toy_protocol(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        xi = tmp_path / "xi.csv"
        rc = main(["benchmark", "--protocol", "toy", "--seed", "7",
                   "--out", str(out), "--emit-xi", str(xi),
                   "--roc-out", str(tmp_path / "roc")])
        assert rc == 0
        stdout = capsys.readouterr().out
        values = dict(l.split("=", 1) for l in stdout.splitlines())
        assert float(values["auc.gpdc"]) > 0.97
        assert float(values["auc.gevc"]) > 0.97
        assert {"auc.evm", "auc.gpdc", "auc.gevc"} <= set(values)
        check_roc_files(tmp_path / "roc", {m: float(values[f"auc.{m}"])
                                           for m in ("evm", "gpdc", "gevc")})
        xi_lines = [l for l in xi.read_text().splitlines()
                    if not l.startswith("#")]
        assert xi_lines[0] == "row,xi_hat,is_known"
        assert len(xi_lines) == 801

    def test_toy_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc = main(["benchmark", "--protocol", "toy", "--seed", "9",
                       "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_oletter_surrogate(self, tmp_path):
        out = tmp_path / "ol.csv"
        rc = main(["benchmark", "--protocol", "oletter", "--seed", "2",
                   "--reps", "2", "--jobs", "1", "--out", str(out)])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "rep,unknown_classes,method,threshold,f_measure"
        assert len(lines) > 10

    @pytest.mark.parametrize("flag", ["--reps", "--jobs"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_oletter_refuses_non_positive_counts(self, flag, value, capsys):
        rc = main(["benchmark", "--protocol", "oletter", flag, value])
        assert rc == 2
        assert f"{flag[2:]}={value}" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas,message", [
        ("a,b", "--alphas: expected a comma-separated list of numbers"),
        (",", "--alphas: empty list")])
    def test_oletter_refuses_bad_alphas(self, alphas, message, capsys):
        rc = main(["benchmark", "--protocol", "oletter", "--alphas", alphas])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_oletter_letter_file_takes_the_default_split(self, tmp_path):
        # a letter-format file of fewer than 20,000 rows trains on its first 75%
        rng = np.random.default_rng(11)
        f = tmp_path / "letter.data"
        f.write_text("".join(
            chr(ord("A") + i % 4) + "," + ",".join(map(str, rng.integers(0, 16, 16))) + "\n"
            for i in range(240)))
        out = tmp_path / "ol.csv"
        assert main(["benchmark", "--protocol", "oletter", "--data", str(f),
                     "--seed", "3", "--reps", "1", "--out", str(out)]) == 0
        steps = run_oletter(load_letter(f), reps=1, seed=3, train_count=180)
        want = [f"{s.rep},{s.n_unknown_classes},{method},{threshold!r},"
                + ("" if value is None else repr(value))
                for s in steps for method, curve in sorted(s.f_measures.items())
                for threshold, value in curve]
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[1:] == want

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["benchmark", "--protocol", "mystery"])

    @pytest.mark.parametrize("flag", ["--unknown-classes", "--known-classes"])
    def test_thyroid_class_mapping_is_fixed(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--protocol", "thyroid", flag, "1"])
        assert exc.value.code == 2

    def test_thyroid_requires_data(self, capsys):
        rc = main(["benchmark", "--protocol", "thyroid"])
        assert rc == 2

    def test_thyroid_synthetic_file(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        f = tmp_path / "ann.data"
        lines = []
        for _ in range(700):
            feats = rng.uniform(size=21)
            lines.append(" ".join(f"{v:.5f}" for v in feats) + " 3")
        for _ in range(60):
            feats = rng.uniform(size=21) + 0.9
            lines.append(" ".join(f"{v:.5f}" for v in feats) + " 1")
        f.write_text("\n".join(lines) + "\n")
        out = tmp_path / "thy.csv"
        rc = main(["benchmark", "--protocol", "thyroid", "--data", str(f),
                   "--test-known", "100", "--out", str(out),
                   "--gpdc-tail-fractions", "0.01,0.05",
                   "--roc-out", str(tmp_path / "roc")])
        assert rc == 0
        values = dict(l.split("=", 1)
                      for l in capsys.readouterr().out.splitlines())
        assert values["auc.evm"] == "unsupported"
        assert float(values["auc.gpdc"]) > 0.8
        assert float(values["auc.gevc"]) > 0.8
        # no curve file for the unsupported evm
        check_roc_files(tmp_path / "roc", {m: float(values[f"auc.{m}"])
                                           for m in ("gpdc", "gevc")})


    def test_thyroid_default_sweep_on_few_known_rows(self, tmp_path, capsys):
        # 400 known rows leave 150 to train: the 0.25% fraction rounds up to
        # k = 1, which the sweep raises to 2, the smallest k the default
        # gamma = 1/n allows
        rng = np.random.default_rng(6)
        f = tmp_path / "ann.data"
        lines = [" ".join(f"{v:.5f}" for v in rng.uniform(size=21)) + " 3"
                 for _ in range(400)]
        lines += [" ".join(f"{v:.5f}" for v in rng.uniform(size=21) + 0.9) + " 2"
                  for _ in range(40)]
        f.write_text("\n".join(lines) + "\n")
        out = tmp_path / "thy.csv"
        rc = main(["benchmark", "--protocol", "thyroid", "--data", str(f),
                   "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l.startswith("gpdc,auc_vs_k,")]
        assert [(r[2], r[3]) for r in rows] == [
            ("0.0025", "2"), ("0.01", "2"), ("0.025", "4"), ("0.05", "8"),
            ("0.1", "15")]


# The flags each protocol reads besides --seed, --out and --config, as the
# README lists them.
PROTOCOL_FLAGS = {
    "toy": {"k", "alpha", "emit_xi", "roc_out"},
    "oletter": {"data", "reps", "jobs", "alphas", "deltas"},
    "thyroid": {"data", "alpha", "test_known", "gpdc_tail_fractions", "roc_out"},
}
FLAG_VALUES = {"data": "data.csv", "k": "5", "alpha": "0.05", "reps": "2",
               "jobs": "1", "alphas": "0.1", "deltas": "0.5", "emit_xi": "xi.csv",
               "roc_out": "roc", "gpdc_tail_fractions": "0.01", "test_known": "100"}


def _benchmark_flags() -> set:
    actions = _build_parser()[1]["benchmark"]._actions
    return {a.dest for a in actions if a.option_strings} - {
        "help", "config", "seed", "protocol", "out"}


def test_every_benchmark_flag_is_read_by_a_protocol():
    reads = {name: {*echoed, *unechoed} for name, (_, echoed, unechoed) in PROTOCOLS.items()}
    assert reads == PROTOCOL_FLAGS
    assert set().union(*reads.values()) == _benchmark_flags()


@pytest.mark.parametrize("protocol,flag", [
    (protocol, flag) for protocol, reads in PROTOCOL_FLAGS.items()
    for flag in sorted(_benchmark_flags() - reads)])
def test_benchmark_refuses_flags_its_protocol_does_not_read(tmp_path, capsys,
                                                            monkeypatch, protocol, flag):
    monkeypatch.chdir(tmp_path)  # the file-valued flags name files in tmp_path
    option = "--" + flag.replace("_", "-")
    rc = main(["benchmark", "--protocol", protocol, "--out", "out.csv",
               option, FLAG_VALUES[flag]])
    assert rc == 2
    assert f"{option} does not apply to the {protocol} protocol" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_benchmark_names_the_first_unread_flag_in_parser_order(capsys):
    rc = main(["benchmark", "--protocol", "toy", "--alphas", "notanumber", "--reps", "0",
               "--test-known", "-5", "--gpdc-tail-fractions", "zz"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --reps does not apply to the toy protocol\n"


@pytest.mark.parametrize("protocol,line,option", [
    ("toy", "reps=3", "--reps"), ("oletter", "emit_xi=xi.csv", "--emit-xi"),
    ("thyroid", "alphas=0.1", "--alphas")])
def test_benchmark_refuses_config_values_its_protocol_does_not_read(
        tmp_path, capsys, monkeypatch, protocol, line, option):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(f"model=unread.model\n{line}\n")
    rc = main(["benchmark", "--config", "run.cfg", "--protocol", protocol,
               "--out", "out.csv"])
    assert rc == 2
    assert f"{option} does not apply to the {protocol} protocol" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]


def _thyroid_file(path, known=700, unknown=60):
    rng = np.random.default_rng(5)
    lines = [" ".join(f"{v:.5f}" for v in rng.uniform(size=21)) + " 3"
             for _ in range(known)]
    lines += [" ".join(f"{v:.5f}" for v in rng.uniform(size=21) + 0.9) + " 1"
              for _ in range(unknown)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("test_known", ["-5", "0", "700"])
def test_thyroid_test_known_outside_the_known_rows_is_usage_error(
        tmp_path, capsys, test_known):
    rc = main(["benchmark", "--protocol", "thyroid", "--test-known", test_known,
               "--data", _thyroid_file(tmp_path / "ann.data"),
               "--out", str(tmp_path / "thy.csv")])
    assert rc == 2
    assert (f"test_known must be in [1, 700 known rows), got {test_known}"
            in capsys.readouterr().err)
    assert not (tmp_path / "thy.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["--protocol", "oletter", "--deltas", "7,-3"], "--deltas must be in (0, 1], got 7.0"),
    (["--protocol", "oletter", "--alphas", "0.1,0"], "--alphas must be in (0, 1], got 0.0"),
    (["--protocol", "oletter", "--alphas", "nan"], "--alphas must be in (0, 1], got nan"),
    (["--protocol", "thyroid", "--gpdc-tail-fractions", "0,-1"],
     "--gpdc-tail-fractions must be in (0, 1], got 0.0"),
    (["--protocol", "thyroid", "--gpdc-tail-fractions", "0.01,1.5"],
     "--gpdc-tail-fractions must be in (0, 1], got 1.5"),
], ids=["deltas", "alphas-zero", "alphas-nan", "fractions-zero", "fractions-above-one"])
def test_benchmark_levels_outside_unit_interval_are_usage_errors(
        tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    data = ["--data", _thyroid_file(tmp_path / "ann.data")] if "thyroid" in argv else []
    rc = main(["benchmark", *argv, *data, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["gpdc", "evm"])
@pytest.mark.parametrize("fraction", ["-1", "0", "1.5", "nan"])
def test_fit_tail_fraction_outside_unit_interval_is_usage_error(
        toy_files, tmp_path, capsys, method, fraction):
    _, train_csv, _, _, _ = toy_files
    out = tmp_path / "m.model"
    rc = main(["fit", "--method", method, "--train", str(train_csv),
               "--tail-fraction", fraction, "--out", str(out)])
    assert rc == 2
    assert (f"--tail-fraction must be in (0, 1], got {float(fraction)}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("protocol=toy\nseed=11\nk=20\n")
    rc = main(["benchmark", "--config", str(cfg), "--protocol", "toy"])
    assert rc == 0
    from_file = capsys.readouterr().out
    rc = main(["benchmark", "--protocol", "toy", "--seed", "11", "--k", "20"])
    assert rc == 0
    from_flags = capsys.readouterr().out
    assert from_file == from_flags  # file values really apply
    # explicit flag overrides the file value
    rc = main(["benchmark", "--config", str(cfg), "--protocol", "toy",
               "--seed", "12"])
    assert rc == 0
    overridden = capsys.readouterr().out
    assert overridden != from_file


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not_a_real_option=1\n")
    rc = main(["benchmark", "--config", str(cfg), "--protocol", "toy"])
    assert rc == 2


def test_config_file_skips_comments_and_other_commands_keys(tmp_path, capsys):
    # a "#" line and a blank line are skipped, and "model", a key of score,
    # is ignored by benchmark; a line without "=" is a usage error
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# toy run\n\nseed=11\nmodel=unread.model\n")
    assert main(["benchmark", "--config", str(cfg), "--protocol", "toy"]) == 0
    from_file = capsys.readouterr().out
    assert main(["benchmark", "--protocol", "toy", "--seed", "11"]) == 0
    assert capsys.readouterr().out == from_file
    cfg.write_text("seed=11\nk 20\n")
    assert main(["benchmark", "--config", str(cfg), "--protocol", "toy"]) == 2
    assert f"{cfg}: line 2: expected key=value" in capsys.readouterr().err


def _one_row_train(tmp_path, toy_files):
    f = tmp_path / "one.csv"
    write_csv(f, [[0.0, 1.0]], ["a"])
    return ["fit", "--method", "gevc", "--train", str(f), "--out", str(tmp_path / "m.model")]


def _model_without_sigma(tmp_path, toy_files):
    _, train_csv, test_csv, _, _ = toy_files
    model = tmp_path / "gevc.model"
    assert main(["fit", "--method", "gevc", "--train", str(train_csv),
                 "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    del doc["payload"]["sigma"]
    model.write_text(json.dumps(doc))
    return ["score", "--model", str(model), "--test", str(test_csv),
            "--out", str(tmp_path / "s.csv")]


def _empty_thyroid(tmp_path, toy_files):
    f = tmp_path / "ann.data"
    f.write_text("\n\n")
    return ["benchmark", "--protocol", "thyroid", "--data", str(f)]


@pytest.mark.parametrize("case,message", [
    (_one_row_train, "need at least 2 points, got 1"),
    (_model_without_sigma, "payload field 'sigma' is missing"),
    (_empty_thyroid, "no data rows"),
], ids=["one-row-train", "model-without-sigma", "empty-thyroid"])
def test_refused_input_files_are_data_errors(case, message, toy_files, tmp_path, capsys):
    argv = case(tmp_path, toy_files)
    capsys.readouterr()
    assert main(argv) == 3
    assert message in capsys.readouterr().err


def test_config_file_switch_takes_true_or_false(toy_files, tmp_path, capsys):
    _, train_csv, _, _, _ = toy_files
    cfg = tmp_path / "run.cfg"
    fit = ["fit", "--config", str(cfg), "--method", "gevc",
           "--train", str(train_csv), "--out", str(tmp_path / "m.model")]
    for value, shown in (("false", "false"), ("0", None), ("True", "true")):
        cfg.write_text(f"standardize={value}\n")
        rc = main(fit)
        captured = capsys.readouterr()
        if shown is None:
            assert rc == 2
            assert "standardize takes true or false" in captured.err
        else:
            assert rc == 0
            assert f"standardize={shown}" in captured.out.splitlines()


def test_config_file_values_checked_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("header=maybe\n")
    with pytest.raises(SystemExit) as exc:
        main(["score", "--config", str(cfg), "--model", "m", "--test", "t",
              "--out", "o"])
    assert exc.value.code == 2
    assert "invalid choice: 'maybe'" in capsys.readouterr().err
    cfg.write_text("k=twenty\n")
    with pytest.raises(SystemExit) as exc:
        main(["benchmark", "--config", str(cfg), "--protocol", "toy"])
    assert exc.value.code == 2
    assert "invalid int value: 'twenty'" in capsys.readouterr().err
