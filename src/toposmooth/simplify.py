"""Topology-guided smoothing: drop low-persistence pairs, refit isotonically.

Removing an extrema pair flattens the series between the surviving
anchors. Anchors are the extrema of every retained pair, the essential
(global) minimum, and both boundary samples; between consecutive anchors
the output is the least-squares monotone fit of the input segment, clipped
into the interval spanned by the anchor values with the anchor values
restored exactly. Keeping the essential minimum anchored is what makes the
diagram of the output exactly the retained pairs and a zero threshold the
identity.

The segments that need a refit are concatenated and fitted together:
``isotonic_fit`` takes their starts as a keyword, pools only within a
segment, and runs once per batch of whole segments, so the per-call cost
is paid per batch rather than per segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .persistence import ExtremaPair, PersistenceDiagram, diagram_of
from .series import TimeSeries, real_argument


@dataclass(frozen=True)
class Threshold:
    """Remove every pair with persistence strictly below ``value``."""

    value: float

    def __post_init__(self) -> None:
        if not (real_argument("threshold", self.value) >= 0.0):
            raise ValueError(f"threshold must be >= 0, got {self.value}")


@dataclass(frozen=True)
class Fraction:
    """Remove the ``floor(q * m)`` least persistent of the m pairs."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 <= real_argument("fraction", self.value) <= 1.0):
            raise ValueError(f"fraction must be in [0, 1], got {self.value}")


SimplifyPolicy = Threshold | Fraction

# Samples refitted per isotonic_fit call in simplify, which holds three
# Python lists (samples, means, weights) of up to this many entries. On
# perfbench's smooth_topo_n131072 (seed 7, two 8 s runs, 2-CPU Xeon),
# 2**14-sample batches kept the peak RSS at 66.0 MB, while one batch of
# every segment raised it to 76.0-76.1 MB and was no faster, and one call
# per segment held 65.1-65.2 MB but ran 6.6-7 times slower.
# The fit does not depend on it.
_PAV_SAMPLES = 2**14


def _retained(diagram: PersistenceDiagram, policy: SimplifyPolicy) -> np.ndarray:
    """Boolean mask over the diagram's pairs: True where the policy keeps the pair."""
    persistence = diagram.persistence
    keep = np.ones(len(diagram), dtype=bool)
    if isinstance(policy, Threshold):
        # The pairs are sorted by persistence, so the removed ones are a prefix.
        keep[: np.searchsorted(persistence, policy.value, "left")] = False
    elif isinstance(policy, Fraction):
        # Remove the first `cut` pairs in (persistence, width, birth) order.
        # Equal-persistence pairs can nest; the narrower (inner) interval
        # must be removed first or flattening the outer one would destroy a
        # retained pair. Nesting implies p_inner <= p_outer, so ordering
        # ties by interval width keeps every rank prefix structurally
        # removable. The pairs are sorted by persistence, ties by birth, so
        # only the tie group at the cut needs ordering, and a stable sort
        # by width keeps its births in order.
        cut = math.floor(policy.value * len(diagram))
        if cut:
            first = int(np.searchsorted(persistence, persistence[cut - 1], "left"))
            ties = slice(first, int(np.searchsorted(persistence, persistence[cut - 1], "right")))
            width = np.abs(diagram.death_index[ties] - diagram.birth_index[ties])
            keep[:first] = False
            keep[first + np.argsort(width, kind="stable")[: cut - first]] = False
    else:
        raise TypeError(f"unknown policy {policy!r}")
    return keep


def select_pairs(
    diagram: PersistenceDiagram, policy: SimplifyPolicy
) -> tuple[tuple[ExtremaPair, ...], tuple[ExtremaPair, ...]]:
    """Split the pairs into (retained, removed) objects, kept only until perfbench reads columns.

    Both halves keep the diagram's order: ascending persistence, ties by
    ascending birth index.
    """
    keep = _retained(diagram, policy)
    pairs = diagram.pairs
    return tuple(compress(pairs, keep.tolist())), tuple(compress(pairs, (~keep).tolist()))


def isotonic_fit(values, *, starts=None) -> np.ndarray:
    """Least-squares non-decreasing fit (pool-adjacent-violators, O(n)).

    With ``starts`` (increasing integer indices, the first 0), each run of
    samples from one start to the next is fitted on its own: no pool
    crosses a start. Without it the whole sequence is one run.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("isotonic_fit expects a non-empty 1D sequence")
    if not np.isfinite(x).all():
        raise ValueError("isotonic_fit expects finite values")
    bounds = np.append(np.asarray([0] if starts is None else starts), len(x))
    if bounds.dtype.kind != "i" or bounds[0] != 0 or np.any(np.diff(bounds) <= 0):
        raise ValueError("starts must be integers increasing from 0 below the length")
    bounds = bounds.tolist()
    samples = x.tolist()
    # Stack of blocks (mean, weight); merge while the tail violates order.
    # Each run opens with a weightless -inf block, which no sample pools
    # into and np.repeat drops, so pools stay inside their run.
    means: list[float] = []
    weights: list[int] = []
    # Bound methods save an attribute lookup per sample in the hot loop.
    push_mean, push_weight, pop_mean, pop_weight = (
        means.append, weights.append, means.pop, weights.pop
    )
    for a, b in zip(bounds[:-1], bounds[1:]):
        push_mean(-math.inf)
        push_weight(0)
        for m in samples[a:b]:
            w = 1
            while means[-1] > m:
                pm, pw = pop_mean(), pop_weight()
                m = (m * w + pm * pw) / (w + pw)
                w += pw
            push_mean(m)
            push_weight(w)
    return np.repeat(means, weights)


def _refit(
    values: np.ndarray, left: np.ndarray, length: np.ndarray, starts: np.ndarray, out: np.ndarray
) -> None:
    """Write into ``out`` the monotone fit of each segment, all in one pass.

    Segment k is the ``length[k]`` samples from ``left[k]`` and begins at
    ``starts[k]`` in the segments' concatenation. A falling segment is the
    negated non-decreasing fit of its negation (negation is exact).
    """
    index = np.arange(int(length.sum())) + np.repeat(left - starts, length)
    lo, hi = values[left], values[left + length - 1]
    sign = np.repeat(np.where(lo <= hi, 1.0, -1.0), length)
    fitted = sign * isotonic_fit(sign * values[index], starts=starts)
    # Clip into the anchors' interval with the bounds in the order Python's
    # min(lo, hi) and max(lo, hi) pick them, keeping a sample equal to a
    # bound as it is: np.clip with array bounds would return the bound's
    # signed zero instead.
    lower = np.repeat(np.where(hi < lo, hi, lo), length)
    upper = np.repeat(np.where(hi > lo, hi, lo), length)
    fitted = np.where(fitted < lower, lower, np.where(fitted > upper, upper, fitted))
    fitted[starts] = lo
    fitted[starts + length - 1] = hi
    # Adjacent segments share an anchor; both write its own value there.
    out[index] = fitted


def simplify(series: TimeSeries, policy: SimplifyPolicy) -> TimeSeries:
    """Smooth a series by removing extrema pairs selected by ``policy``.

    The output has the input's length and positions, equals the input at
    every anchor, and is monotone between consecutive anchors (direction
    set by the anchor values).
    """
    diagram = diagram_of(series)
    keep = _retained(diagram, policy)
    values = series.values
    ends = [0, len(values) - 1, diagram.essential_min_index]
    retained = (diagram.birth_index[keep], diagram.death_index[keep])
    anchors = np.unique(np.concatenate((ends, *retained)))
    # A segment already monotone toward its end anchor is its own fit: PAV
    # pools nothing, and the clip and the pinned ends change nothing. Count
    # the steps against each segment's direction to find the others.
    falls = np.concatenate(([0], np.cumsum(values[1:] < values[:-1])))
    rises = np.concatenate(([0], np.cumsum(values[1:] > values[:-1])))
    left, right = anchors[:-1], anchors[1:]
    against = np.where(
        values[left] <= values[right], falls[right] - falls[left], rises[right] - rises[left]
    )
    left, length = left[against > 0], (right - left + 1)[against > 0]
    out = np.array(values, dtype=np.float64)
    # Refit whole segments, at most _PAV_SAMPLES samples a batch (a longer
    # segment is a batch of its own), each at its offset in the
    # concatenation of its batch.
    ends_at = np.cumsum(length)
    starts = ends_at - length
    first = 0
    while first < len(left):
        stop = int(np.searchsorted(ends_at, starts[first] + _PAV_SAMPLES, "right"))
        batch = slice(first, max(stop, first + 1))
        _refit(values, left[batch], length[batch], starts[batch] - starts[first], out)
        first = batch.stop
    return series.with_values(out)
