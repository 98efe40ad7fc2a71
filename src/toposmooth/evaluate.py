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
import os
import pickle
import signal
import sys
import threading
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
from .metrics import (
    DEFAULT_M,
    DEFAULT_R_FACTOR,
    approx_entropy,
    bottleneck,
    check_entropy_arguments,
    entropy_tolerance,
    norm_l1,
    norm_linf,
    wasserstein1,
)
from .persistence import diagram_of
from .series import TimeSeries, real_argument
from .simplify import Fraction, Threshold, simplify

METRIC_NAMES = ("l1", "linf", "w1", "bottleneck")
GRID_LEVELS = 12  # grid points before cutoff and subsample merge duplicates


class Method(NamedTuple):
    """A smoothing method: how to apply it, its parameter kind, its grid.

    Calling the entry coerces and checks the parameter, then applies the
    method. ``grid(n, value_range)`` gives the default sweep, light to
    heavy smoothing; a method without one is not in ``DEFAULT_METHODS``.
    """

    name: str
    kind: type
    apply: Callable[[TimeSeries, float], TimeSeries]
    grid: Callable[[int, float], list[float]] | None = None

    def __call__(self, series: TimeSeries, param) -> TimeSeries:
        # Errors name the method as --method spells it.
        name = self.name.replace("_", "-")
        value = float(real_argument(f"{name} parameter", param))
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
            lambda n, span: [float(q) for q in np.linspace(0.05, 0.95, GRID_LEVELS)],
        ),
        Method("topological_threshold", float, lambda s, t: simplify(s, Threshold(t))),
        Method(
            "median",
            int,
            lambda s, w: median_filter(s, w),
            lambda n, span: [float(3 + 4 * i) for i in range(GRID_LEVELS)],
        ),
        Method(
            "gaussian",
            float,
            lambda s, sig: gaussian_filter(s, sig),
            lambda n, span: [float(g) for g in np.geomspace(0.5, 64.0, GRID_LEVELS)],
        ),
        # Tops out at n//4 rather than the no-op n//2: keeping the full
        # spectrum reproduces the input exactly, which is not a smoothing level.
        Method(
            "cutoff",
            int,
            lambda s, k: cutoff_filter(s, k),
            lambda n, span: sorted(
                {
                    float(max(1, round(k)))
                    for k in np.geomspace(max(1, n // 4), 1, GRID_LEVELS)
                },
                reverse=True,
            ),
        ),
        Method(
            "subsample",
            int,
            lambda s, st: uniform_subsample(s, st),
            lambda n, span: sorted(
                {float(round(x)) for x in np.geomspace(2, min(128, n // 2), GRID_LEVELS)}
            ),
        ),
        Method(
            "douglas_peucker",
            float,
            lambda s, e: douglas_peucker(s, e),
            lambda n, span: [float(f * span) for f in np.geomspace(0.01, 0.9, GRID_LEVELS)],
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


@dataclass(frozen=True)
class FitLine:
    slope: float
    intercept: float
    domain: tuple[float, float]

    def value_at(self, e: float) -> float:
        return self.slope * e + self.intercept


def default_grids(n: int, value_range: float) -> dict[str, list[float]]:
    """Per-method parameter grids covering light to heavy smoothing."""
    return {name: METHODS[name].grid(n, value_range) for name in DEFAULT_METHODS}


# Queue tokens are one-byte group numbers, at most 256 of them, all written
# before the fork: 256 bytes fit any pipe, so the writer never blocks, and
# every read is whole. Longer lists group points.
_QUEUE_TOKENS = 256


def _may_fork() -> bool:
    # A fork copies only the calling thread; another thread's locks would
    # stay held in the child, so a process with more threads scores alone.
    return (
        sys.platform == "linux"
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _score_points(
    series: TimeSeries, grids: dict[str, list[float]], m: int, r: float
) -> dict[str, tuple[list[SweepPoint], list[str]]]:
    """Per method of ``grids``, its SweepPoints and failures, in grid order.

    ``m`` and ``r`` are checked, against the length too, before any fork.
    A parameter the method cannot apply gives a failure message. The caller
    and, where ``_may_fork``, one forked child pull points from one queue
    and score each in full; the child sends back each result as it is done.
    The caller scores every point whose result did not come back, so a
    child that dies costs time, never a value, and any error is raised by
    the caller's own scoring.
    """
    check_entropy_arguments(m, r, len(series))
    # Every method's points share one queue, so neither process waits at
    # the end of a method's sweep.
    jobs = [(method, param) for method, grid in grids.items() for param in grid]
    original_diagram = diagram_of(series)

    def score(index: int) -> SweepPoint | str:
        method, param = jobs[index]
        try:
            smoothed = METHODS[method](series, param)
            smoothed_diagram = diagram_of(smoothed)
        except (ValueError, ArithmeticError) as exc:
            return f"{method} parameter {param!r}: {exc}"
        return SweepPoint(
            method,
            float(param),
            approx_entropy(smoothed, m=m, r=r),
            norm_l1(series, smoothed),
            norm_linf(series, smoothed),
            wasserstein1(original_diagram, smoothed_diagram),
            bottleneck(original_diagram, smoothed_diagram),
        )

    group = math.ceil(len(jobs) / _QUEUE_TOKENS)

    def pull():
        while token := os.read(queue, 1):
            start = token[0] * group
            yield from range(start, min(start + group, len(jobs)))

    results: list[SweepPoint | str | None] = [None] * len(jobs)
    child, back = 0, None
    queue, queue_end = os.pipe()
    try:
        with open(queue_end, "wb") as tokens:
            tokens.write(bytes(range(math.ceil(len(jobs) / group))))
        if _may_fork():
            returned, sent = os.pipe()
            child = os.fork()
            if child == 0:
                # The child sends back each result it scores and leaves by
                # os._exit whatever happens, so it never runs the caller's
                # code. Once the caller is gone, the result pipe has no
                # reader, so the next flush raises and the child ends.
                status = 1
                try:
                    os.close(returned)
                    with open(sent, "wb") as out:
                        for index in pull():
                            pickle.dump((index, score(index)), out)
                            out.flush()
                    status = 0
                finally:
                    os._exit(status)
            os.close(sent)
            back = open(returned, "rb")
        for index in pull():
            results[index] = score(index)
        while back is not None:
            try:
                index, result = pickle.load(back)
            except (EOFError, pickle.UnpicklingError):
                break  # the end, or a record cut short by the child's death
            results[index] = result
    except BaseException:
        if child:
            os.kill(child, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        if back is not None:
            back.close()
        if child:
            os.waitpid(child, 0)
    scored = {method: ([], []) for method in grids}
    for k, (method, _) in enumerate(jobs):
        result = score(k) if results[k] is None else results[k]
        scored[method][isinstance(result, str)].append(result)  # failures second
    return scored


def sweep(
    series: TimeSeries,
    method: str,
    grid: list[float],
    m: int = DEFAULT_M,
    r: float | None = None,
) -> tuple[list[SweepPoint], list[str]]:
    """One SweepPoint per grid parameter the method can apply.

    A parameter it cannot apply is recorded as a failure. ``r``, fixed
    from the original series so entropies compare across methods, defaults
    to ``entropy_tolerance(series, DEFAULT_R_FACTOR)``. A constant series,
    a bad ``m`` or ``r`` or too short a series raises before any scoring.

    On Linux with two CPUs and no other Python thread, the points are
    shared with one forked child process (see ``_score_points``); the
    values are those of scoring each point in turn.
    """
    if not grid:
        raise ValueError("parameter grid must be non-empty")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if r is None:
        r = entropy_tolerance(series, DEFAULT_R_FACTOR)
    return _score_points(series, {method: grid}, m, r)[method]


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
    aucs: dict[str, dict[str, float | None]],
) -> tuple[dict[str, dict[str, dict]], dict[str, float]]:
    """Per-metric ranks (ascending AUC, ties by name) and their average.

    ``aucs`` maps metric name -> method -> AUC, with ``None`` marking a
    method that could not be ranked on that metric; such methods receive
    rank ``#methods + 1`` there. Returns ``(ranks, overall)``: ``ranks``
    maps metric -> method -> ``{"auc", "rank", "unrankable"}``, and
    ``overall`` maps method -> mean rank.
    """
    methods = sorted({m for per in aucs.values() for m in per})
    if len(methods) < 2:
        raise EvaluationError(f"need >= 2 methods to rank, got {len(methods)}")
    ranks: dict[str, dict[str, dict]] = {}
    for metric in METRIC_NAMES:
        per = aucs[metric]
        ranked = sorted((m for m in methods if per.get(m) is not None), key=lambda m: (per[m], m))
        position = {m: pos for pos, m in enumerate(ranked, start=1)}
        ranks[metric] = {
            m: {
                "auc": per.get(m),
                "rank": position.get(m, len(methods) + 1),
                "unrankable": m not in position,
            }
            for m in methods
        }
    overall = {
        m: sum(ranks[metric][m]["rank"] for metric in METRIC_NAMES) / len(METRIC_NAMES)
        for m in methods
    }
    return ranks, overall


@dataclass(frozen=True)
class EvaluationResult:
    dataset: str
    ranks: dict[str, dict[str, dict]]
    overall: dict[str, float]
    shared_domain: tuple[float, float]
    sweep_points: dict[str, tuple[SweepPoint, ...]]
    fits: dict[tuple[str, str], FitLine]
    failures: tuple[str, ...]


def evaluate_series(
    series: TimeSeries,
    m: int = DEFAULT_M,
    r_factor: float = DEFAULT_R_FACTOR,
) -> EvaluationResult:
    """Full sweep -> fit -> AUC -> rank pipeline for one dataset.

    Sweeps every method of ``DEFAULT_METHODS`` over its default grid, with
    the same points, values and failures as calling ``sweep`` per method.
    """
    r = entropy_tolerance(series, r_factor)
    value_range = float(np.max(series.values) - np.min(series.values))
    grids = default_grids(len(series), value_range)
    scored = _score_points(series, dict(sorted(grids.items())), m, r)

    all_points: dict[str, tuple[SweepPoint, ...]] = {}
    failures: list[str] = []
    fits: dict[tuple[str, str], FitLine] = {}
    for method, (points, fails) in scored.items():
        failures.extend(fails)
        all_points[method] = tuple(sorted(points, key=lambda p: p.parameter))
        # The four fits share the method's entropies and its domain, so they
        # all succeed or all fail; a method is rankable iff its fits exist.
        try:
            for metric in METRIC_NAMES:
                fits[(method, metric)] = fit_line(
                    [(p.entropy, getattr(p, metric)) for p in points]
                )
        except EvaluationError as exc:
            failures.append(f"{method}: {exc}")

    if not fits:
        raise EvaluationError("no method produced a usable entropy sweep")
    e0 = max(f.domain[0] for f in fits.values())
    e1 = min(f.domain[1] for f in fits.values())
    if not e0 < e1:
        raise EvaluationError(
            f"entropy ranges of the methods do not overlap (intersection [{e0}, {e1}])"
        )

    aucs = {
        metric: {
            name: auc(fits[(name, metric)], (e0, e1)) if (name, metric) in fits else None
            for name in scored
        }
        for metric in METRIC_NAMES
    }

    ranks, overall = rank_methods(aucs)
    return EvaluationResult(
        dataset=series.label or "series",
        ranks=ranks,
        overall=overall,
        shared_domain=(e0, e1),
        sweep_points=all_points,
        fits=fits,
        failures=tuple(failures),
    )
