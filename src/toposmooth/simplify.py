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

import bisect
import math
from dataclasses import dataclass

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


def _removal_rank(pair: ExtremaPair) -> tuple[float, int, int]:
    # Equal-persistence pairs can nest; the narrower (inner) interval must
    # be removed first or flattening the outer one would destroy a
    # retained pair. Nesting implies p_inner <= p_outer, so ordering ties
    # by interval width keeps every rank prefix structurally removable.
    width = abs(pair.death_index - pair.birth_index)
    return (pair.persistence, width, pair.birth_index)


def select_pairs(
    diagram: PersistenceDiagram, policy: SimplifyPolicy
) -> tuple[tuple[ExtremaPair, ...], tuple[ExtremaPair, ...]]:
    """Split the diagram's pairs into (retained, removed) under a policy.

    Both halves keep the diagram's order: ascending persistence, ties by
    ascending birth index.
    """
    pairs = diagram.pairs
    if isinstance(policy, Threshold):
        # The pairs are sorted by persistence, so the removed ones are a prefix.
        cut = bisect.bisect_left(pairs, policy.value, key=lambda p: p.persistence)
        return pairs[cut:], pairs[:cut]
    if isinstance(policy, Fraction):
        ranked = sorted(range(len(pairs)), key=lambda i: _removal_rank(pairs[i]))
        drop = set(ranked[: math.floor(policy.value * len(pairs))])
        return (
            tuple(p for i, p in enumerate(pairs) if i not in drop),
            tuple(p for i, p in enumerate(pairs) if i in drop),
        )
    raise TypeError(f"unknown policy {policy!r}")


def isotonic_fit(values) -> np.ndarray:
    """Least-squares non-decreasing fit (pool-adjacent-violators, O(n))."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("isotonic_fit expects a non-empty 1D sequence")
    # Stack of blocks (mean, weight); merge while the tail violates order.
    means: list[float] = []
    weights: list[int] = []
    for v in x:
        m, w = float(v), 1
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
    diagram = diagram_of(series)  # validates
    retained, _ = select_pairs(diagram, policy)
    anchors = sorted(
        {0, len(series) - 1, diagram.essential_min_index}
        | {i for p in retained for i in (p.birth_index, p.death_index)}
    )

    values = series.values
    out = np.array(values, dtype=np.float64)
    for left, right in zip(anchors, anchors[1:]):
        if right - left < 2:
            continue
        seg = values[left : right + 1]
        lo, hi = float(values[left]), float(values[right])
        # A falling segment is the negated non-decreasing fit of its negation;
        # negation is exact.
        sign = 1.0 if lo <= hi else -1.0
        fitted = sign * isotonic_fit(sign * seg)
        np.clip(fitted, min(lo, hi), max(lo, hi), out=fitted)
        fitted[0], fitted[-1] = lo, hi
        out[left : right + 1] = fitted
    return series.with_values(out)
