import json

import numpy as np
import pytest

from helpers import gaussian_blobs
from openevt import evm, gevc, gpdc
from openevt.data import LabeledDataset
from openevt.errors import DataError
from openevt.serialize import load_model, save_model


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("ser") / "m.model"
    save_model(gevc.fit(gaussian_blobs(0, [(0.0, 0.0)], n_per=50)), path)
    return path


def test_container_header(model_path):
    doc = json.loads(model_path.read_text())
    assert doc["format"] == "openevt-model"
    assert doc["version"] == 1
    assert doc["kind"] == "gevc"
    assert doc["metric"] == "euclidean"


def test_not_json(tmp_path):
    f = tmp_path / "x.model"
    f.write_text("definitely not json {")
    with pytest.raises(DataError, match="not a valid model file"):
        load_model(f)


def test_wrong_format(tmp_path):
    f = tmp_path / "x.model"
    f.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(DataError, match="container"):
        load_model(f)


def test_wrong_version(model_path, tmp_path):
    doc = json.loads(model_path.read_text())
    doc["version"] = 99
    f = tmp_path / "x.model"
    f.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="version"):
        load_model(f)


def test_unknown_kind(model_path, tmp_path):
    doc = json.loads(model_path.read_text())
    doc["kind"] = "mystery"
    f = tmp_path / "x.model"
    f.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="kind"):
        load_model(f)


def test_failed_encode_leaves_existing_file_intact(model_path, tmp_path,
                                                   monkeypatch):
    f = tmp_path / "m.model"
    f.write_bytes(model_path.read_bytes())
    model = load_model(f).model
    monkeypatch.setattr(model, "to_payload", lambda: {"points": {1, 2}})
    with pytest.raises(TypeError):
        save_model(model, f)
    assert f.read_bytes() == model_path.read_bytes()


def test_gevc_labels_kept_through_load_save_and_update(model_path, tmp_path):
    f = tmp_path / "m.model"
    save_model(load_model(model_path).model, f)
    assert f.read_bytes() == model_path.read_bytes()
    # a file without labels saves one null per point, then the updates' labels
    doc = json.loads(model_path.read_text())
    n = len(doc["payload"].pop("labels"))
    f.write_text(json.dumps(doc))
    model = load_model(f).model
    model.update([(np.zeros(2), "new")])
    save_model(model, f)
    assert json.loads(f.read_text())["payload"]["labels"] == [None] * n + ["new"]


# -- load(save(m)) round trip -------------------------------------------------

def _with_duplicates(data: LabeledDataset) -> LabeledDataset:
    """Repeat a few rows so some jackknife statistics are NaN (coincident)."""
    rows = [0, 0, 1, 1, 1, 2]
    return LabeledDataset(np.vstack([data.points, data.points[rows]]),
                          list(data.labels) + [data.labels[i] for i in rows])


def _gpdc_blocked():
    data = gaussian_blobs(1, [np.zeros(16)], n_per=150)
    model = gpdc.fit(data, k=8)
    assert model._index._tree is None
    return model


def _gpdc_tree():
    model = gpdc.fit(_with_duplicates(gaussian_blobs(2, [(0.0, 0.0)], n_per=150)),
                     k=8)
    assert model._index._tree is not None
    assert np.isnan(model.pxi_stats).any()
    return model


def _gevc_updated():
    model = gevc.fit(gaussian_blobs(3, [(0.0, 0.0), (4.0, 0.0)], n_per=100))
    rng = np.random.default_rng(3)
    model.update((x, "new") for x in rng.normal(size=(12, 2)) * 3.0)
    index = model.index
    assert index.size > index._tree_size and model._stale
    return model


def _evm_delta():
    return evm.fit(gaussian_blobs(4, [np.zeros(4), np.full(4, 3.0)], n_per=60),
                   k=10, delta=0.5)


def _bits(column: np.ndarray):
    """A column's exact content; object columns hold floats and None."""
    if column.dtype == object:
        return [x.hex() if isinstance(x, float) else x for x in column.tolist()]
    return column.tobytes()


@pytest.mark.parametrize("build", [_gpdc_blocked, _gpdc_tree, _gevc_updated,
                                   _evm_delta],
                         ids=["gpdc_p16_blocked", "gpdc_p2_tree",
                              "gevc_pending_refit", "evm_delta"])
def test_round_trip_evidence_bitwise(build, tmp_path):
    model = build()
    f = tmp_path / "m.model"
    save_model(model, f)
    loaded = load_model(f).model
    stored = json.loads(f.read_text())["payload"]["points"][:20]
    rng = np.random.default_rng(5)
    queries = np.vstack([stored, rng.normal(size=(30, model.p)) * 2.0])
    want, got = model.evidence(queries), loaded.evidence(queries)
    assert want.keys() == got.keys()
    for key in want:
        assert want[key].dtype == got[key].dtype, key
        assert _bits(want[key]) == _bits(got[key]), key
    save_model(loaded, tmp_path / "again.model")
    assert (tmp_path / "again.model").read_bytes() == f.read_bytes()


# -- payload validation on load -----------------------------------------------

@pytest.fixture(scope="module")
def saved_docs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("docs")
    data = gaussian_blobs(6, [(0.0, 0.0), (3.0, 3.0)], n_per=40)
    docs = {}
    for model in (gpdc.fit(data, k=5), gevc.fit(data), evm.fit(data, k=5)):
        save_model(model, tmp / "m.model")
        docs[model.KIND] = json.loads((tmp / "m.model").read_text())
    return docs


TAMPERED = [
    ("gpdc", "points", lambda v: [[float("nan")] + v[0][1:]] + v[1:]),
    ("gpdc", "points", lambda v: [row[0] for row in v]),
    ("gpdc", "pxi_stats", lambda v: v[:-1]),
    ("gpdc", "radius_stats", lambda v: v + [1.0]),
    ("gevc", "points", lambda v: v[:3] + [v[3][:1]] + v[4:]),
    ("gevc", "dmin", lambda v: v[:-1]),
    ("gevc", "dmin", lambda v: [float("nan")] + v[1:]),
    ("gevc", "labels", lambda v: v[:-1]),
    ("evm", "points", lambda v: [[float("inf")] + v[0][1:]] + v[1:]),
    ("evm", "sigmas", lambda v: v + v[:1]),
    ("evm", "alphas", lambda v: v[1:]),
    ("evm", "delta", lambda v: 1.5),
    ("evm", "delta", lambda v: float("nan")),
    ("evm", "delta", lambda v: -1.0),
    ("gpdc", "alpha", lambda v: 0.0),
    ("gpdc", "alpha", lambda v: None),
    ("gevc", "alpha", lambda v: 0.0),
    ("gevc", "alpha", lambda v: "high"),
    ("evm", "delta", lambda v: 1.0 + 1e-9),
    # scalar fields: type and range (the saved docs hold n = 80 points)
    ("gevc", "sigma", lambda v: "x"),
    ("gevc", "sigma", lambda v: -1.0),
    ("gevc", "weibull_alpha", lambda v: 0.0),
    ("gevc", "endpoint", lambda v: float("inf")),
    ("gevc", "excluded_zeros", lambda v: -1),
    ("gevc", "excluded_zeros", lambda v: 81),
    ("gevc", "excluded_zeros", lambda v: 0.5),
    ("gpdc", "k", lambda v: 0),
    ("gpdc", "k", lambda v: 1000),
    ("gpdc", "k", lambda v: 79),
    ("gpdc", "gamma", lambda v: "x"),
    ("gpdc", "gamma", lambda v: 0.0),
    ("gpdc", "gamma", lambda v: 5 / 80),
    ("evm", "k", lambda v: 0),
    ("evm", "k", lambda v: 80),
    # gpdc thresholds are the quantiles of the stored statistics
    ("gpdc", "shape_threshold", lambda v: v + 1e-9),
    ("gpdc", "radius_threshold", lambda v: v * 2.0),
    ("gpdc", "radius_threshold", lambda v: None),
    ("gpdc", "pxi_stats", lambda v: [float("nan")] * (len(v) - 2) + v[-2:]),
    ("gpdc", "radius_stats", lambda v: [None] * len(v)),
]


@pytest.mark.parametrize("kind,field,tamper", TAMPERED,
                         ids=[f"{k}-{f}-{i}" for i, (k, f, _) in enumerate(TAMPERED)])
def test_tampered_payload_names_field_and_path(saved_docs, tmp_path, kind,
                                               field, tamper):
    doc = json.loads(json.dumps(saved_docs[kind]))
    doc["payload"][field] = tamper(doc["payload"][field])
    f = tmp_path / "tampered.model"
    f.write_text(json.dumps(doc))
    with pytest.raises(DataError) as info:
        load_model(f)
    message = str(info.value)
    assert message.startswith(str(f)) and repr(field) in message


# each field holds one finite entry per feature, and the scale is positive
STANDARDIZE_TAMPERED = [
    ("mean", lambda v: ["x"] + v[1:]),
    ("scale", lambda v: [0.0] + v[1:]),
    ("mean", lambda v: v[:-1]),
]


@pytest.mark.parametrize("field,tamper", STANDARDIZE_TAMPERED,
                         ids=[f"{f}-{i}" for i, (f, _) in
                              enumerate(STANDARDIZE_TAMPERED)])
def test_tampered_standardizer_names_field_and_path(saved_docs, tmp_path,
                                                    field, tamper):
    doc = json.loads(json.dumps(saved_docs["gevc"]))
    block = {"mean": [0.5, -0.5], "scale": [2.0, 3.0]}
    f = tmp_path / "standardized.model"
    f.write_text(json.dumps(dict(doc, standardize=block)))
    loaded = load_model(f).standardizer
    assert loaded.mean.tolist() == block["mean"]
    assert loaded.scale.tolist() == block["scale"]
    block[field] = tamper(block[field])
    f.write_text(json.dumps(dict(doc, standardize=block)))
    with pytest.raises(DataError) as info:
        load_model(f)
    message = str(info.value)
    assert message.startswith(str(f))
    assert f"standardize field {field!r}" in message


def test_missing_payload_field_names_path(saved_docs, tmp_path):
    doc = json.loads(json.dumps(saved_docs["gevc"]))
    del doc["payload"]["dmin"]
    f = tmp_path / "missing.model"
    f.write_text(json.dumps(doc))
    with pytest.raises(DataError) as info:
        load_model(f)
    assert str(info.value) == f"{f}: payload field 'dmin' is missing"
