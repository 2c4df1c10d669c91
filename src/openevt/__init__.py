"""Kernel-free open-set classification with extreme value theory.

Two classifiers decide whether a query point could have been generated by
the training distribution using only distances to the training set: one
tests the tail shape of the negated distances together with a density-ball
radius, the other tests the query's nearest-neighbor distance against a
reversed Weibull fitted to the training set's own nearest-neighbor
distances. A per-point margin baseline (the extreme value machine) is
included for comparison, along with an evaluation harness and a CLI.
"""

from .data import (EUCLIDEAN, KNOWN, UNKNOWN, DistanceMetric, LabeledDataset,
                   Standardizer, Verdict, load_dataset_csv)
from .errors import DataError, FitError, OpenEvtError, UsageError
from .evt import (ReversedWeibull, ShapeEstimate, default_tail_count,
                  hill_shape, reversed_weibull_cdf, reversed_weibull_fit,
                  reversed_weibull_fit_free_endpoint)
from .neighbors import NeighborIndex
from .serialize import load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DistanceMetric",
    "EUCLIDEAN",
    "FitError",
    "KNOWN",
    "LabeledDataset",
    "NeighborIndex",
    "OpenEvtError",
    "ReversedWeibull",
    "ShapeEstimate",
    "Standardizer",
    "UNKNOWN",
    "UsageError",
    "Verdict",
    "default_tail_count",
    "hill_shape",
    "load_dataset_csv",
    "load_model",
    "reversed_weibull_cdf",
    "reversed_weibull_fit",
    "reversed_weibull_fit_free_endpoint",
    "save_model",
    "__version__",
]
