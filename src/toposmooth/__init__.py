"""Persistence-guided smoothing of 1D series.

Smooths a series by removing low-amplitude extrema pairs found by a
sublevel-set sweep and reconstructing the gaps with isotonic regression;
ships five conventional smoothing baselines and an entropy-calibrated,
task-based benchmark that ranks all methods.
"""

from .evaluate import (
    DEFAULT_METHODS,
    EvaluationError,
    EvaluationResult,
    FitLine,
    SweepPoint,
    auc,
    default_grids,
    evaluate_series,
    fit_line,
    rank_methods,
    sweep,
)
from .filters import (
    cutoff_filter,
    douglas_peucker,
    gaussian_filter,
    median_filter,
    uniform_subsample,
)
from .io import load_csv, write_pairs_csv, write_report_json, write_series_csv
from .metrics import (
    approx_entropy,
    bottleneck,
    norm_l1,
    norm_linf,
    wasserstein1,
)
from .persistence import ExtremaPair, PersistenceDiagram, diagram_of
from .series import Extrema, TimeSeries, classify_extrema
from .simplify import Fraction, Threshold, isotonic_fit, select_pairs, simplify
from .synth import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_METHODS",
    "EvaluationError",
    "EvaluationResult",
    "Extrema",
    "ExtremaPair",
    "FitLine",
    "Fraction",
    "PersistenceDiagram",
    "SweepPoint",
    "Threshold",
    "TimeSeries",
    "approx_entropy",
    "auc",
    "bottleneck",
    "classify_extrema",
    "cutoff_filter",
    "default_grids",
    "diagram_of",
    "douglas_peucker",
    "evaluate_series",
    "fit_line",
    "gaussian_filter",
    "generate_synthetic",
    "isotonic_fit",
    "load_csv",
    "median_filter",
    "norm_l1",
    "norm_linf",
    "rank_methods",
    "select_pairs",
    "simplify",
    "sweep",
    "uniform_subsample",
    "wasserstein1",
    "write_pairs_csv",
    "write_report_json",
    "write_series_csv",
]
