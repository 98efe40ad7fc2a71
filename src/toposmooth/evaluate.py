"""Task-based comparison of smoothing methods.

Each method's smoothing parameter is swept over a grid; every smoothed
output is scored against the original series with four measures (l1 and
l-infinity residual norms, 1-Wasserstein and bottleneck diagram
distances) and calibrated by the approximate entropy of the output.
Per (method, measure) a least-squares line of measure against entropy is
fitted; methods are ranked by the area under the clamped line over the
entropy range shared by all methods, smallest area first. The overall
rank of a method is the mean of its four per-measure ranks.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .filters import (
    cutoff_filter,
    douglas_peucker,
    gaussian_filter,
    median_filter,
    uniform_subsample,
)
from .metrics import approx_entropy, bottleneck, norm_l1, norm_linf, wasserstein1
from .persistence import diagram_of
from .series import TimeSeries, require_valid, sample_std
from .simplify import Fraction, Threshold, simplify

METRIC_NAMES = ("l1", "linf", "w1", "bottleneck")


class Method(NamedTuple):
    """A smoothing method: how to apply it, its parameter kind, its grid.

    Calling the entry coerces and checks the parameter, then applies the
    method. ``grid(n, value_range, levels)`` gives the default sweep, light
    to heavy smoothing; a method without one is not in ``DEFAULT_METHODS``.
    """

    name: str
    kind: type
    apply: Callable[[TimeSeries, float], TimeSeries]
    grid: Callable[[int, float, int], list[float]] | None = None

    def __call__(self, series: TimeSeries, param) -> TimeSeries:
        value = float(param)
        # Errors name the method as --method spells it.
        name = self.name.replace("_", "-")
        if not math.isfinite(value):
            raise ValueError(f"{name} parameter must be finite, got {value}")
        if self.kind is int:
            if not value.is_integer():
                raise ValueError(f"{name} parameter must be an integer, got {value}")
            return self.apply(series, int(value))
        return self.apply(series, value)


# The apply functions look the filters up as module globals at call time,
# so a filter replaced in this namespace (to trace or time it) is the one called.
METHODS = {
    m.name: m
    for m in (
        Method(
            "topological",
            float,
            lambda s, q: simplify(s, Fraction(q)),
            lambda n, span, levels: [float(q) for q in np.linspace(0.05, 0.95, levels)],
        ),
        Method("topological_threshold", float, lambda s, t: simplify(s, Threshold(t))),
        Method(
            "median",
            int,
            lambda s, w: median_filter(s, w),
            lambda n, span, levels: [float(3 + 4 * i) for i in range(levels)],
        ),
        Method(
            "gaussian",
            float,
            lambda s, sig: gaussian_filter(s, sig),
            lambda n, span, levels: [float(g) for g in np.geomspace(0.5, 64.0, levels)],
        ),
        # Tops out at n//4 rather than the no-op n//2: keeping the full
        # spectrum reproduces the input exactly, which is not a smoothing level.
        Method(
            "cutoff",
            int,
            lambda s, k: cutoff_filter(s, k),
            lambda n, span, levels: sorted(
                {float(max(1, round(k))) for k in np.geomspace(max(1, n // 4), 1, levels)},
                reverse=True,
            ),
        ),
        Method(
            "subsample",
            int,
            lambda s, st: uniform_subsample(s, st),
            lambda n, span, levels: sorted(
                {float(round(x)) for x in np.geomspace(2, min(128, n // 2), levels)}
            ),
        ),
        Method(
            "douglas_peucker",
            float,
            lambda s, e: douglas_peucker(s, e),
            lambda n, span, levels: [
                float(f * span) for f in np.geomspace(0.01, 0.9, levels)
            ],
        ),
    )
}

DEFAULT_METHODS = tuple(name for name, m in METHODS.items() if m.grid is not None)


class EvaluationError(RuntimeError):
    """Raised when a dataset cannot be evaluated (with a diagnostic)."""


@dataclass(frozen=True)
class SweepPoint:
    method: str
    parameter: float
    entropy: float
    l1: float
    linf: float
    w1: float
    bottleneck: float

    def metric(self, name: str) -> float:
        return {
            "l1": self.l1,
            "linf": self.linf,
            "w1": self.w1,
            "bottleneck": self.bottleneck,
        }[name]


@dataclass(frozen=True)
class FitLine:
    slope: float
    intercept: float
    domain: tuple[float, float]

    def value_at(self, e: float) -> float:
        return self.slope * e + self.intercept


@dataclass(frozen=True)
class MethodRank:
    method: str
    auc: float | None
    rank: int
    unrankable: bool = False


@dataclass(frozen=True)
class RankReport:
    dataset: str
    methods: tuple[str, ...]
    per_metric: dict[str, tuple[MethodRank, ...]]
    overall: dict[str, float]
    shared_domain: tuple[float, float]


def default_grids(n: int, value_range: float, levels: int = 12) -> dict[str, list[float]]:
    """Per-method parameter grids covering light to heavy smoothing."""
    return {name: METHODS[name].grid(n, value_range, levels) for name in DEFAULT_METHODS}


def sweep(
    series: TimeSeries,
    method: str,
    grid: list[float],
    m: int = 2,
    r: float | None = None,
) -> tuple[list[SweepPoint], list[str]]:
    """One SweepPoint per grid parameter; failures are recorded, not raised.

    ``r`` is the entropy tolerance, fixed from the original series for the
    whole sweep so entropy values are comparable across methods.
    """
    require_valid(series)
    if not grid:
        raise ValueError("parameter grid must be non-empty")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if r is None:
        r = 0.2 * sample_std(series.values)
    apply = METHODS[method]
    original_diagram = diagram_of(series)

    points: list[SweepPoint] = []
    failures: list[str] = []
    for param in grid:
        try:
            smoothed = apply(series, param)
            smoothed_diagram = diagram_of(smoothed)
            points.append(
                SweepPoint(
                    method=method,
                    parameter=float(param),
                    entropy=approx_entropy(smoothed, m=m, r=r),
                    l1=norm_l1(series, smoothed),
                    linf=norm_linf(series, smoothed),
                    w1=wasserstein1(original_diagram, smoothed_diagram),
                    bottleneck=bottleneck(original_diagram, smoothed_diagram),
                )
            )
        except (ValueError, ArithmeticError) as exc:
            failures.append(f"{method} parameter {param!r}: {exc}")
    return points, failures


def fit_line(points: list[tuple[float, float]]) -> FitLine:
    """Ordinary least-squares line through (entropy, metric) points."""
    if len(points) < 2:
        raise EvaluationError(f"need >= 2 points to fit, got {len(points)}")
    xs = np.asarray([p[0] for p in points], dtype=np.float64)
    ys = np.asarray([p[1] for p in points], dtype=np.float64)
    if np.all(xs == xs[0]):
        raise EvaluationError("degenerate fit: all entropy values equal")
    x_mean, y_mean = float(xs.mean()), float(ys.mean())
    sxx = float(np.sum((xs - x_mean) ** 2))
    sxy = float(np.sum((xs - x_mean) * (ys - y_mean)))
    slope = sxy / sxx
    return FitLine(
        slope=slope,
        intercept=y_mean - slope * x_mean,
        domain=(float(xs.min()), float(xs.max())),
    )


def auc(fit: FitLine, shared_domain: tuple[float, float]) -> float:
    """Integral of max(line, 0) over the shared entropy range, analytic."""
    e0, e1 = shared_domain
    if not e0 < e1:
        raise EvaluationError(f"empty integration domain [{e0}, {e1}]")

    def antiderivative(x: float) -> float:
        return 0.5 * fit.slope * x * x + fit.intercept * x

    y0, y1 = fit.value_at(e0), fit.value_at(e1)
    if y0 >= 0 and y1 >= 0:
        return antiderivative(e1) - antiderivative(e0)
    if y0 <= 0 and y1 <= 0:
        return 0.0
    root = -fit.intercept / fit.slope
    if y0 < 0:  # negative then positive
        return antiderivative(e1) - antiderivative(root)
    return antiderivative(root) - antiderivative(e0)


def rank_methods(
    dataset: str,
    aucs: dict[str, dict[str, float | None]],
    shared_domain: tuple[float, float],
) -> RankReport:
    """Per-metric ranks (ascending AUC, ties by name) and their average.

    ``aucs`` maps metric name -> method -> AUC, with ``None`` marking a
    method that could not be ranked on that metric; such methods receive
    rank ``#methods + 1`` there.
    """
    methods = sorted({m for per in aucs.values() for m in per})
    if len(methods) < 2:
        raise EvaluationError(f"need >= 2 methods to rank, got {len(methods)}")
    per_metric: dict[str, tuple[MethodRank, ...]] = {}
    totals = {m: 0.0 for m in methods}
    for metric in METRIC_NAMES:
        per = aucs[metric]
        rankable = sorted(
            (m for m in methods if per.get(m) is not None),
            key=lambda m: (per[m], m),
        )
        entries = []
        for pos, m in enumerate(rankable, start=1):
            entries.append(MethodRank(m, per[m], pos))
            totals[m] += pos
        for m in methods:
            if per.get(m) is None:
                entries.append(MethodRank(m, None, len(methods) + 1, unrankable=True))
                totals[m] += len(methods) + 1
        per_metric[metric] = tuple(sorted(entries, key=lambda e: (e.rank, e.method)))
    overall = {m: totals[m] / len(METRIC_NAMES) for m in methods}
    return RankReport(
        dataset=dataset,
        methods=tuple(methods),
        per_metric=per_metric,
        overall=overall,
        shared_domain=shared_domain,
    )


@dataclass(frozen=True)
class EvaluationResult:
    report: RankReport
    sweep_points: dict[str, tuple[SweepPoint, ...]]
    fits: dict[tuple[str, str], FitLine]
    failures: tuple[str, ...]


def evaluate_series(
    series: TimeSeries,
    m: int = 2,
    r_factor: float = 0.2,
) -> EvaluationResult:
    """Full sweep -> fit -> AUC -> rank pipeline for one dataset.

    Sweeps every method of ``DEFAULT_METHODS`` over its default grid.
    """
    require_valid(series)
    std = sample_std(series.values)
    if std == 0:
        raise EvaluationError("series is constant; entropy calibration undefined")
    r = r_factor * std
    value_range = float(np.max(series.values) - np.min(series.values))
    grids = default_grids(len(series), value_range)
    methods = sorted(DEFAULT_METHODS)

    all_points: dict[str, tuple[SweepPoint, ...]] = {}
    failures: list[str] = []
    fits: dict[tuple[str, str], FitLine] = {}
    domains: list[tuple[float, float]] = []
    unrankable: set[str] = set()
    for method in methods:
        points, fails = sweep(series, method, grids[method], m=m, r=r)
        failures.extend(fails)
        all_points[method] = tuple(sorted(points, key=lambda p: p.parameter))
        try:
            for metric in METRIC_NAMES:
                fits[(method, metric)] = fit_line(
                    [(p.entropy, p.metric(metric)) for p in points]
                )
            domains.append(fits[(method, "l1")].domain)
        except EvaluationError as exc:
            unrankable.add(method)
            failures.append(f"{method}: {exc}")

    if not domains:
        raise EvaluationError("no method produced a usable entropy sweep")
    e0 = max(d[0] for d in domains)
    e1 = min(d[1] for d in domains)
    if not e0 < e1:
        raise EvaluationError(
            f"entropy ranges of the methods do not overlap (intersection [{e0}, {e1}])"
        )

    aucs: dict[str, dict[str, float | None]] = {name: {} for name in METRIC_NAMES}
    for method in methods:
        for metric in METRIC_NAMES:
            if method in unrankable:
                aucs[metric][method] = None
            else:
                aucs[metric][method] = auc(fits[(method, metric)], (e0, e1))

    report = rank_methods(series.label or "series", aucs, (e0, e1))
    return EvaluationResult(
        report=report,
        sweep_points=all_points,
        fits=fits,
        failures=tuple(failures),
    )
