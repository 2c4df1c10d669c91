import numpy as np
import pytest

from openevt.cli import main
from openevt.harness import default_toy_config, generate_toy
from openevt.serialize import load_model


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
    train, test = generate_toy(default_toy_config(3))
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
        _, fresh = generate_toy(default_toy_config(301))
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

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["benchmark", "--protocol", "mystery"])

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
