"""Model persistence: one self-describing JSON container for all three
classifier kinds, with a versioned header and an optional stored feature
standardizer applied by the CLI at scoring time."""

import json
from dataclasses import dataclass

import numpy as np

from .data import DistanceMetric, Standardizer
from .errors import DataError

FORMAT_NAME = "openevt-model"
FORMAT_VERSION = 1


@dataclass
class ModelFile:
    kind: str
    model: object
    standardizer: Standardizer | None


def payload_array(payload: dict, field: str, rows: int | None = None,
                  valid=np.isfinite) -> np.ndarray:
    """``payload[field]`` as a float array: the (n, p) point matrix when
    ``rows`` is None, otherwise a vector of ``rows`` entries. Every entry must
    pass ``valid`` (None skips the value check). Raises DataError naming the
    field."""
    try:
        arr = np.array(payload[field], dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"payload field {field!r} is not a numeric array") from None
    if rows is None:
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DataError(f"payload field {field!r} has shape {arr.shape}, "
                            "expected a non-empty (n, p) matrix")
    elif arr.shape != (rows,):
        raise DataError(f"payload field {field!r} has shape {arr.shape}, "
                        f"expected ({rows},) to match the points")
    if valid is not None and not valid(arr).all():
        raise DataError(f"payload field {field!r} holds invalid values "
                        "(non-finite or out of range)")
    return arr


def _registry():
    from .evm import EvmModel
    from .gevc import GevcModel
    from .gpdc import GpdcModel

    return {cls.KIND: cls for cls in (GpdcModel, GevcModel, EvmModel)}


def save_model(model, path, standardizer: Standardizer | None = None) -> None:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": model.KIND,
        "metric": model.metric.name,
        "payload": model.to_payload(),
    }
    if standardizer is not None:
        doc["standardize"] = {
            "mean": standardizer.mean.tolist(),
            "scale": standardizer.scale.tolist(),
        }
    text = json.dumps(doc) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_model(path) -> ModelFile:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a valid model file ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise DataError(f"{path}: not an {FORMAT_NAME} container")
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported container version {doc.get('version')!r}"
        )
    kind = doc.get("kind")
    registry = _registry()
    if kind not in registry:
        raise DataError(f"{path}: unknown model kind {kind!r}")
    metric = DistanceMetric.parse(doc["metric"])
    try:
        model = registry[kind].from_payload(doc["payload"], metric)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{path}: payload field {exc} is missing") from None
    standardizer = None
    if doc.get("standardize") is not None:
        standardizer = Standardizer(
            mean=np.array(doc["standardize"]["mean"], dtype=float),
            scale=np.array(doc["standardize"]["scale"], dtype=float),
        )
    return ModelFile(kind=kind, model=model, standardizer=standardizer)
