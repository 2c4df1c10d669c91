"""The model kinds and their persistence: the one mapping from kind to
model class, fitting by kind, and one self-describing JSON container for
all three classifier kinds, with a versioned header and an optional stored
feature standardizer applied by the CLI at scoring time."""

import inspect
import json
import sys
from dataclasses import dataclass

import numpy as np

from .data import DistanceMetric, Standardizer, check_level
from .errors import DataError, UsageError

FORMAT_NAME = "openevt-model"
FORMAT_VERSION = 1


@dataclass
class ModelFile:
    kind: str
    model: object
    standardizer: Standardizer | None


def payload_array(payload: dict, field: str, rows: int | None = None,
                  valid=np.isfinite, block: str = "payload") -> np.ndarray:
    """``payload[field]`` as a float array: the (n, p) point matrix when
    ``rows`` is None, otherwise a vector of ``rows`` entries. Every entry must
    pass ``valid`` (None skips the value check). Raises DataError naming the
    field and the ``block`` of the model file that holds it."""
    name = f"{block} field {field!r}"
    try:
        arr = np.array(payload[field], dtype=float)
    except KeyError:
        raise DataError(f"{name} is missing") from None
    except (TypeError, ValueError):
        raise DataError(f"{name} is not a numeric array") from None
    if rows is None:
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DataError(f"{name} has shape {arr.shape}, "
                            "expected a non-empty (n, p) matrix")
    elif arr.shape != (rows,):
        raise DataError(f"{name} has shape {arr.shape}, "
                        f"expected ({rows},) to match the points")
    if valid is not None and not valid(arr).all():
        raise DataError(f"{name} holds invalid values "
                        "(non-finite or out of range)")
    return arr


def payload_level(payload: dict, field: str) -> float:
    """``payload[field]`` as a decision level in (0, 1]; raises DataError
    naming the field."""
    try:
        value = float(payload[field])
        check_level(value, field)
    except (TypeError, ValueError, UsageError) as exc:
        raise DataError(f"payload field {field!r}: {exc}") from None
    return value


def payload_number(payload: dict, field: str, low=-np.inf, high=np.inf,
                   integer: bool = False):
    """``payload[field]`` as a float in the open interval (low, high), or
    with ``integer`` as an int in the closed interval [low, high]; raises
    DataError naming the field."""
    try:
        value = float(payload[field])
    except (TypeError, ValueError):
        value = np.nan
    if integer and value.is_integer() and low <= value <= high:
        return int(value)
    if not integer and low < value < high:
        return value
    expected = (f"an integer in [{low}, {high}]" if integer
                else f"a number in ({low:g}, {high:g})")
    raise DataError(f"payload field {field!r}: expected {expected}, "
                    f"got {payload[field]!r}")


def model_kinds() -> dict:
    """Model kind -> model class; the one place that lists the kinds."""
    from .evm import EvmModel
    from .gevc import GevcModel
    from .gpdc import GpdcModel

    return {cls.KIND: cls for cls in (GpdcModel, GevcModel, EvmModel)}


def fit_parameters(kind: str) -> tuple:
    """The ``fit`` of ``kind`` and the names of its parameters. ``fit`` is
    looked up on the model's module at each call, so a wrapper installed on
    it sees every fit."""
    kinds = model_kinds()
    if kind not in kinds:
        raise UsageError(f"unknown method {kind!r} (expected {', '.join(kinds)})")
    fit = sys.modules[kinds[kind].__module__].fit
    return fit, inspect.signature(fit).parameters


def fit_model(kind: str, data, **options):
    """Fit a model of ``kind`` on ``data``, passing the options that the
    kind's ``fit`` takes and dropping the rest, so that one set of options
    serves every kind."""
    fit, accepted = fit_parameters(kind)
    return fit(data, **{k: v for k, v in options.items() if k in accepted})


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
    kinds = model_kinds()
    if kind not in kinds:
        raise DataError(f"{path}: unknown model kind {kind!r}")
    metric = DistanceMetric.parse(doc["metric"])
    block = doc.get("standardize")
    try:
        model = kinds[kind].from_payload(doc["payload"], metric)
        standardizer = None if block is None else Standardizer(
            mean=payload_array(block, "mean", model.p, block="standardize"),
            scale=payload_array(block, "scale", model.p, block="standardize",
                                valid=lambda s: np.isfinite(s) & (s > 0)))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{path}: payload field {exc} is missing") from None
    return ModelFile(kind=kind, model=model, standardizer=standardizer)
