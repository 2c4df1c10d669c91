import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from openevt.data import (DistanceMetric, LabeledDataset, Standardizer,
                          Verdict, distances_to, load_dataset_csv,
                          load_points_csv, read_table)
from openevt.errors import DataError, UsageError


def distance(a, b, metric=DistanceMetric(2.0)):
    """One distance through the package's distance arithmetic."""
    return float(distances_to(np.asarray(a, dtype=float),
                              np.asarray([b], dtype=float), metric)[0])


def test_distance_345_triangle():
    assert distance((0, 0), (3, 4)) == 5.0


def test_distance_identity():
    assert distance((1, 1), (1, 1)) == 0.0


def test_distance_manhattan_unit_steps():
    assert distance((0, 0, 0), (1, 1, 1), DistanceMetric(1.0)) == 3.0


def test_distance_minkowski():
    d = distance((0, 0), (1, 1), DistanceMetric(3.0))
    assert d == pytest.approx(2 ** (1 / 3))


def test_distance_symmetry():
    rng = np.random.default_rng(0)
    for metric in (DistanceMetric(2.0), DistanceMetric(1.0),
                   DistanceMetric(3.5)):
        for _ in range(50):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            assert distance(a, b, metric) == distance(b, a, metric)


def test_distance_dimension_mismatch():
    with pytest.raises(UsageError):
        distance((0, 0), (1, 2, 3))


def test_metric_parse():
    assert DistanceMetric.parse("euclidean").order == 2.0
    assert DistanceMetric.parse("Manhattan").order == 1.0
    assert DistanceMetric.parse("minkowski:2.5").order == 2.5
    with pytest.raises(UsageError):
        DistanceMetric.parse("cosine")
    with pytest.raises(UsageError):
        DistanceMetric(0.5)
    # an infinite order put every distance at 1.0, a point's own included
    for text in ("minkowski:inf", "Minkowski:Infinity", "minkowski:nan"):
        with pytest.raises(UsageError, match="Minkowski order must be finite"):
            DistanceMetric.parse(text)


@given(st.floats(1.0, 1e6))
def test_metric_name_parses_back_to_its_order(q):
    metric = DistanceMetric(q)
    assert DistanceMetric.parse(metric.name) == metric
    if q not in (1.0, 2.0) and float(f"{q:g}") == q:  # the short form stays
        assert metric.name == f"minkowski:{q:g}"


def test_metric_names():
    assert [DistanceMetric(q).name for q in (2.0, 1.0, 1.5, 3.0, 1.2345678, 1e6)] == [
        "euclidean", "manhattan", "minkowski:1.5", "minkowski:3",
        "minkowski:1.2345678", "minkowski:1e+06"]


def test_verdict_flags():
    assert Verdict("unknown", 0.9).is_unknown
    assert not Verdict("known", 0.1).is_unknown


class TestLabeledDataset:
    def test_basic(self):
        data = LabeledDataset([[0, 0], [1, 1], [2, 2]], ["b", "a", "b"])
        assert data.n == 3 and data.p == 2
        assert data.class_names == ("a", "b")
        assert data.label_ids.tolist() == [1, 0, 1]
        assert np.sum(data.labels == "b") == 2

    def test_rejects_nan(self):
        with pytest.raises(UsageError):
            LabeledDataset([[0, np.nan], [1, 1]], ["a", "b"])

    def test_rejects_inf(self):
        with pytest.raises(UsageError):
            LabeledDataset([[0, np.inf], [1, 1]], ["a", "b"])

    def test_needs_two_points(self):
        with pytest.raises(UsageError):
            LabeledDataset([[0, 0]], ["a"])

    def test_label_count_mismatch(self):
        with pytest.raises(UsageError):
            LabeledDataset([[0, 0], [1, 1]], ["a"])

    def test_immutable(self):
        data = LabeledDataset([[0, 0], [1, 1]], ["a", "b"])
        with pytest.raises(ValueError):
            data.points[0, 0] = 5.0


# refused before any file is opened: the paths are never read
@pytest.mark.parametrize("refused,message", [
    (lambda: LabeledDataset([0.0, 1.0], ["a", "b"]), "must be a 2-d array"),
    (lambda: LabeledDataset(np.empty((2, 0)), ["a", "b"]), "dimension p >= 1"),
    (lambda: read_table("never-read.csv", label_column="middle"),
     "label_column must be 'none', 'first' or 'last', got 'middle'"),
    (lambda: load_dataset_csv("never-read.csv", label_column="none"),
     "label_column must be 'first' or 'last', got 'none'"),
], ids=["1-d-points", "zero-width-points", "table-label-column",
        "dataset-label-column"])
def test_refused_with_usage_error(refused, message):
    with pytest.raises(UsageError, match=message):
        refused()


class TestCsv:
    def test_roundtrip_last_label(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0,a\n3.0,4.0,b\n")
        data = load_dataset_csv(f)
        assert data.n == 2 and data.p == 2
        assert data.labels.tolist() == ["a", "b"]

    def test_first_label_and_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("label,x,y\na,1.0,2.0\nb,3.0,4.0\n")
        data = load_dataset_csv(f, label_column="first")
        assert data.n == 2
        assert data.points[0].tolist() == [1.0, 2.0]

    def test_non_numeric_diagnostics(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0,a\n3.0,oops,b\n")
        with pytest.raises(DataError, match=r"row 2.*column 2.*'oops'"):
            load_dataset_csv(f)

    def test_diagnostics_name_the_file_line(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2,a\n\n\n3,oops,b\n")
        with pytest.raises(DataError, match=r"row 4, column 2: .*'oops'"):
            load_dataset_csv(f)
        f.write_text("x,y\n\n1,2\n\n3,4,5\n")
        with pytest.raises(DataError, match="row 5 has 3 fields, expected 2"):
            load_points_csv(f)
        f.write_text("\n1,2,a\n3,-inf,b\n")
        with pytest.raises(DataError, match=r"row 3, column 2: non-finite"):
            load_dataset_csv(f)

    def test_parses_like_float(self, tmp_path):
        # The whole-file parse gives the bits float() gives each cell.
        rng = np.random.default_rng(7)
        scale = 10.0 ** rng.integers(-300, 300, 62)
        values = (rng.standard_normal(62) * scale).tolist()
        cells = ["1_000", ".5", "-0", "1e-320", *map(repr, values),
                 *("%.6g" % v for v in values)]
        rows = [cells[i:i + 8] for i in range(0, len(cells), 8)]
        f = tmp_path / "d.csv"
        f.write_text("".join(",".join(row) + "\n" for row in rows))
        expected = np.array([[float(c) for c in row] for row in rows])
        assert load_points_csv(f).tobytes() == expected.tobytes()

    def test_edge_cells_parse_like_float(self, tmp_path):
        # cells that np.loadtxt refuses (the first two), and cells padded
        # with whitespace, which float() ignores and labels lose
        cells = ["1_000", "\u0661\u0662", " 3 ", "+.5", "5.", "\xa07\xa0"]
        f = tmp_path / "d.csv"
        f.write_text(",".join(cells) + ", a \n" + ",".join(cells[::-1]) + ",b\n")
        data = load_dataset_csv(f)
        expected = np.array([[float(c) for c in cells],
                             [float(c) for c in cells[::-1]]])
        assert data.points.tobytes() == expected.tobytes()
        assert data.labels.tolist() == ["a", "b"]
        f.write_text("1,1e400,a\n")
        with pytest.raises(DataError, match=r"row 1, column 2: non-finite value '1e400'"):
            load_dataset_csv(f)

    def test_padded_cells_quoted_stripped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2,a\n3, oops ,b\n")
        with pytest.raises(DataError, match=r"row 2, column 2: non-numeric value 'oops'$"):
            load_dataset_csv(f)
        f.write_text("1,2,a\n3,\t-inf ,b\n")
        with pytest.raises(DataError, match=r"row 2, column 2: non-finite value '-inf'$"):
            load_dataset_csv(f)

    def test_whitespace_rows_skipped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2,a\n   \n , ,\t\n3,4,b\n")
        data = load_dataset_csv(f)
        assert data.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0,a\n3.0,inf,b\n")
        with pytest.raises(DataError, match="non-finite"):
            load_dataset_csv(f)

    def test_custom_delimiter(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("1.0;2.0;a\n3.0;4.0;b\n")
        data = load_dataset_csv(f, delimiter=";")
        assert data.n == 2

    def test_ragged_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0,a\n3.0,b\n")
        with pytest.raises(DataError, match="row 2"):
            load_dataset_csv(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(DataError):
            load_dataset_csv(f)

    def test_points_csv_empty(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        assert load_points_csv(f).shape == (0, 0)

    def test_points_csv_label_skip(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0,a\n3.0,4.0,b\n")
        pts = load_points_csv(f, label_column="last")
        assert pts.shape == (2, 2)
        assert pts[1].tolist() == [3.0, 4.0]


def test_standardizer():
    rng = np.random.default_rng(1)
    x = rng.normal(loc=5.0, scale=3.0, size=(500, 3))
    std = Standardizer.fit(x)
    z = std.apply(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_standardizer_overflow_names_feature_column():
    x = np.random.default_rng(2).normal(size=(300, 3))
    x[7, 1] = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="feature column 2"):
            Standardizer.fit(x)


def test_standardizer_finite_statistics_unchanged():
    # finite statistics are numpy's own mean and std, bit for bit
    rng = np.random.default_rng(3)
    for scale in (1.0, 1e-150, 1e150):
        x = rng.normal(loc=2.0, size=(200, 4)) * scale
        std = Standardizer.fit(x)
        assert std.mean.tobytes() == x.mean(axis=0).tobytes()
        assert std.scale.tobytes() == x.std(axis=0).tobytes()


def test_standardizer_constant_feature():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    std = Standardizer.fit(x)
    z = std.apply(x)
    assert np.all(np.isfinite(z))
