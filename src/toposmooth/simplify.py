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
is paid per batch rather than per segment. A batch of many short runs,
as a ``Fraction`` leaves on a long series, is pooled with numpy in
lockstep across its runs; the others go through a Python loop, one
sample at a time. Both paths make the same float operations, so the fit
does not depend on the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .persistence import ExtremaPair, PersistenceDiagram, diagram_of, sort_keys
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

# Samples refitted per isotonic_fit call in simplify, which holds its
# samples, means and weights as Python lists or flat arrays of up to this
# many entries. With the lockstep kernel, the eight seed-7 operations of
# perfbench's smooth_topo_n131072 run in one process (2-CPU Xeon) peaked
# at 51.1 MB of RSS in 2**14-sample batches and at 58.8-58.9 MB in one
# batch of every segment. The fit does not depend on it.
_PAV_SAMPLES = 2**14
# isotonic_fit pools runs of at most _LOCKSTEP_LENGTH samples in lockstep
# when it has at least _LOCKSTEP_RUNS of them. On the batches of seed-7
# n=131072 series (2-CPU Xeon), lockstep broke even with the loop at
# 256-512 such runs of Fraction(0.5) and 512 of Fraction(0.8), and took
# 0.4-0.7 of its time at 1024. The fit does not depend on them.
_LOCKSTEP_LENGTH = 64
_LOCKSTEP_RUNS = 512


def _retained(diagram: PersistenceDiagram, policy: SimplifyPolicy) -> np.ndarray:
    """Boolean mask over the diagram's pairs: True where the policy keeps the pair."""
    keep = np.ones(len(diagram), dtype=bool)
    if isinstance(policy, Threshold):
        # The pairs are sorted by persistence, so the removed ones are a prefix.
        keep[: np.searchsorted(diagram.persistence, policy.value, "left")] = False
    elif isinstance(policy, Fraction):
        # Remove the first `cut` pairs in (persistence, width, birth) order,
        # persistence being the two keys of sort_keys. Equal-persistence
        # pairs can nest; the narrower (inner) interval must be removed
        # first or flattening the outer one would destroy a retained pair.
        # Nesting implies p_inner <= p_outer, so ordering ties by interval
        # width keeps every rank prefix structurally removable. The pairs
        # are sorted by both keys, ties by birth, so only the tie group at
        # the cut needs ordering, and a stable sort by width keeps its
        # births in order. Each key is sorted, so the pairs equal in both
        # are where the two keys' tie ranges meet.
        cut = math.floor(policy.value * len(diagram))
        if cut:
            keys = sort_keys(diagram.birth_value, diagram.death_value)
            first = max(int(np.searchsorted(k, k[cut - 1], "left")) for k in keys)
            ties = slice(first, min(int(np.searchsorted(k, k[cut - 1], "right")) for k in keys))
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
    crosses a start. Without it the whole sequence is one run. The values
    must be finite integers or floats; bools, strings and complex numbers
    are refused.
    """
    x = np.asarray(values)
    if x.dtype.kind not in "iuf":
        raise ValueError(f"isotonic_fit expects real numbers, got dtype {x.dtype}")
    x = x.astype(np.float64, copy=False)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("isotonic_fit expects a non-empty 1D sequence")
    if not np.isfinite(x).all():
        raise ValueError("isotonic_fit expects finite values")
    starts = np.asarray([0] if starts is None else starts)
    integral = starts.dtype.kind in "iu"
    # int64 before the length is appended, which would make unsigned starts
    # float64; an unsigned start of 2**63 or more wraps negative and is refused.
    bounds = np.append(starts.astype(np.int64, copy=False) if integral else starts, len(x))
    if not integral or starts.ndim != 1 or bounds[0] != 0 or np.any(np.diff(bounds) <= 0):
        raise ValueError("starts must be integers increasing from 0 below the length")
    length = np.diff(bounds)
    short = length <= _LOCKSTEP_LENGTH
    if np.count_nonzero(short) < _LOCKSTEP_RUNS:
        fit = _pav_loop(x, bounds.tolist())
    else:
        fit = np.empty_like(x)
        lock = np.repeat(short, length)
        fit[lock] = _pav_lockstep(x[lock], length[short])
        rest = np.concatenate(([0], np.cumsum(length[~short])))
        fit[~lock] = _pav_loop(x[~lock], rest.tolist())
    bad = np.flatnonzero(~np.isfinite(fit))
    if len(bad):
        # m * w + pm * pw overflowed. Scaling by a power of two is exact
        # away from subnormals, so refit those runs scaled down.
        for k in np.unique(np.searchsorted(bounds, bad, "right") - 1).tolist():
            a, b = int(bounds[k]), int(bounds[k + 1])
            fit[a:b] = _pav_loop(x[a:b] * 2.0**-64, [0, b - a]) * 2.0**64
    return fit


def _pav_loop(x: np.ndarray, bounds: list[int]) -> np.ndarray:
    """The fit of each run from one bound to the next, one sample at a time."""
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


def _pav_lockstep(x: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The loop's fit of consecutive runs of ``length`` samples, all runs at once.

    Step t pushes sample t of every run longer than t, then pools each run
    whose stack top is above its new block, with the loop's operations.
    """
    # Run k's stack is a slice of the flat arrays that opens with a -inf
    # block of weight 0 at slot k plus the run's offset in x; a popped
    # block's weight is zeroed, so np.repeat drops it as the loop's pop does.
    # Taken longest first, the runs longer than t are the first active[t].
    order = np.argsort(-length, kind="stable")
    start = (np.cumsum(length) - length)[order]
    top = start + order
    means = np.full(len(x) + len(length), -np.inf)
    weights = np.zeros(len(means), dtype=np.int64)
    active = np.searchsorted(-length[order], -np.arange(length[order[0]]), "left")
    # isotonic_fit refits a run whose sums overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, k in enumerate(active.tolist()):
            tops = top[:k]
            m = x[start[:k] + t]
            w = np.ones(k, dtype=np.int64)
            pool = np.flatnonzero(means[tops] > m)
            while len(pool):
                at = tops[pool]
                pm, pw = means[at], weights[at]
                weights[at] = 0
                m[pool] = (m[pool] * w[pool] + pm * pw) / (w[pool] + pw)
                w[pool] += pw
                tops[pool] = at - 1
                pool = pool[means[at - 1] > m[pool]]
            tops += 1
            means[tops] = m
            weights[tops] = w
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
    # Marking the anchors gives them sorted and once each, with no sort.
    mark = np.zeros(len(values), dtype=bool)
    mark[[0, len(values) - 1, diagram.essential_min_index]] = True
    mark[diagram.birth_index[keep]] = True
    mark[diagram.death_index[keep]] = True
    anchors = np.flatnonzero(mark)
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
