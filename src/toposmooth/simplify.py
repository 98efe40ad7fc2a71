"""Topology-guided smoothing: drop low-persistence pairs, refit isotonically.

Removing an extrema pair flattens the series between the surviving
anchors. Anchors are the extrema of every retained pair, the essential
(global) minimum, and both boundary samples; between consecutive anchors
the output is the least-squares monotone fit of the input segment, clipped
into the interval spanned by the anchor values with the anchor values
restored exactly. Keeping the essential minimum anchored is what makes the
diagram of the output exactly the retained pairs and a zero threshold the
identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .persistence import ExtremaPair, PersistenceDiagram, diagram_of
from .series import TimeSeries


@dataclass(frozen=True)
class Threshold:
    """Remove every pair with persistence strictly below ``value``."""

    value: float

    def __post_init__(self) -> None:
        if not (self.value >= 0.0):
            raise ValueError(f"threshold must be >= 0, got {self.value}")


@dataclass(frozen=True)
class Fraction:
    """Remove the ``floor(q * m)`` least persistent of the m pairs."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"fraction must be in [0, 1], got {self.value}")


SimplifyPolicy = Threshold | Fraction


def _retained(diagram: PersistenceDiagram, policy: SimplifyPolicy) -> np.ndarray:
    """Boolean mask over the diagram's pairs: True where the policy keeps the pair."""
    persistence = diagram.persistence
    keep = np.ones(len(diagram), dtype=bool)
    if isinstance(policy, Threshold):
        # The pairs are sorted by persistence, so the removed ones are a prefix.
        keep[: np.searchsorted(persistence, policy.value, "left")] = False
    elif isinstance(policy, Fraction):
        # Equal-persistence pairs can nest; the narrower (inner) interval
        # must be removed first or flattening the outer one would destroy a
        # retained pair. Nesting implies p_inner <= p_outer, so ordering
        # ties by interval width keeps every rank prefix structurally
        # removable.
        width = np.abs(diagram.death_index - diagram.birth_index)
        ranked = np.lexsort((diagram.birth_index, width, persistence))
        keep[ranked[: math.floor(policy.value * len(diagram))]] = False
    else:
        raise TypeError(f"unknown policy {policy!r}")
    return keep


def select_pairs(
    diagram: PersistenceDiagram, policy: SimplifyPolicy
) -> tuple[tuple[ExtremaPair, ...], tuple[ExtremaPair, ...]]:
    """Split the diagram's pairs into (retained, removed) under a policy.

    Both halves keep the diagram's order: ascending persistence, ties by
    ascending birth index.
    """
    keep = _retained(diagram, policy)
    pairs = diagram.pairs
    return tuple(compress(pairs, keep.tolist())), tuple(compress(pairs, (~keep).tolist()))


def isotonic_fit(values) -> np.ndarray:
    """Least-squares non-decreasing fit (pool-adjacent-violators, O(n))."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("isotonic_fit expects a non-empty 1D sequence")
    # Stack of blocks (mean, weight); merge while the tail violates order.
    means: list[float] = []
    weights: list[int] = []
    for m in x.tolist():
        w = 1
        while means and means[-1] > m:
            pm, pw = means.pop(), weights.pop()
            m = (m * w + pm * pw) / (w + pw)
            w += pw
        means.append(m)
        weights.append(w)
    return np.repeat(means, weights)


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
    out = np.array(values, dtype=np.float64)
    for a, b in zip(left[against > 0].tolist(), right[against > 0].tolist()):
        seg = values[a : b + 1]
        lo, hi = float(values[a]), float(values[b])
        # A falling segment is the negated non-decreasing fit of its negation;
        # negation is exact.
        sign = 1.0 if lo <= hi else -1.0
        fitted = sign * isotonic_fit(sign * seg)
        np.clip(fitted, min(lo, hi), max(lo, hi), out=fitted)
        fitted[0], fitted[-1] = lo, hi
        out[a : b + 1] = fitted
    return series.with_values(out)
