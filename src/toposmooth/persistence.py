"""Sublevel-set persistence of a 1D series.

Sweeping a threshold upward through the sample values, each local minimum
creates a connected component of the sublevel set and each interior local
maximum merges exactly two of them. At a merge, the component whose
minimum has the larger value (ties: larger index, i.e. the component
created later in the sweep) dies and is paired with the merging maximum;
its persistence is the peak-to-peak amplitude ``death - birth``. The
component of the global minimum never dies and is reported separately as
the essential record rather than as a pair.

The sweep runs on the extrema alone: non-extremal samples are removed
after classification. Long sequences of extrema are first paired in
whole-array rounds: a maximum lower than both neighbouring maxima merges
two components that are already complete, so every such maximum pairs at
once, in a few numpy passes. When a round would pair too few of the
maxima left, a Python loop over the rest, lowest first, finishes the
sweep. A round runs only if it pairs a fixed share of the maxima left, so
the rounds together cost O(m) for m extrema (on noisy series the first
rounds pair about a third each), and the loop sorts and merges what is
left in O(m log m). With the O(n) classification, the diagram costs
O(n + m log m).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .series import TimeSeries, classify_extrema


@dataclass(frozen=True)
class ExtremaPair:
    """A (local minimum, local maximum) pair, kept only until perfbench reads columns."""

    birth_index: int
    death_index: int
    birth_value: float
    death_value: float

    @property
    def persistence(self) -> float:
        return self.death_value - self.birth_value


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """All finite pairs of a series plus the essential (never-dying) record.

    The pairs are four parallel columns sorted by ascending persistence,
    ties by ascending birth index. ``essential_min_index`` is the index of
    the global minimum, whose component survives the whole sweep.
    """

    birth_index: np.ndarray
    death_index: np.ndarray
    birth_value: np.ndarray
    death_value: np.ndarray
    essential_min_index: int

    def __len__(self) -> int:
        return len(self.birth_index)

    @property
    def persistence(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # +inf past the float range, as in diagram_of
            return self.death_value - self.birth_value

    @cached_property
    def pairs(self) -> tuple[ExtremaPair, ...]:
        """The pairs as ExtremaPair objects, built once on demand, for perfbench only."""
        columns = (self.birth_index, self.death_index, self.birth_value, self.death_value)
        return tuple(map(ExtremaPair, *(c.tolist() for c in columns)))

    def finite_points(self) -> np.ndarray:
        """(birth_value, death_value) coordinates of the finite pairs, shape (m, 2)."""
        return np.column_stack((self.birth_value, self.death_value))


# A round is a few numpy passes over the extrema left; the loop is a Python
# step per pair. A round runs on at least _ROUND_MIN maxima, and only if it
# pairs at least 1/_ROUND_SHARE of them; the loop pairs the rest. On
# the seed-7 synthetics (2-CPU Xeon) the loop was faster at n = 1024 (about
# 340 maxima) and rounds from n = 4096 (about 1360); at n = 131072 shares
# of 1/8 to 1/64 timed alike, while 1/4 left the random walk's envelope to
# the loop and ran up to twice as slow. The pairs do not depend on either.
_ROUND_MIN = 1024
_ROUND_SHARE = 16


def _loop(value: np.ndarray) -> np.ndarray:
    """Pair the maxima of ``value`` one at a time, lowest (value, position) first.

    ``value`` holds minima at its even positions and maxima at its odd
    ones. Each component of the sublevel set spans an interval of
    positions [a, b] with minima at both ends, and the maximum at j joins
    the interval ending at j - 1 with the interval starting at j + 1. Both
    neighbours are lower minima, so they are already swept. Each interval
    keeps its other end and the position of its minimum at both of its
    ends.

    Returns, for each position, the position of the maximum that the
    minimum there dies at, or -1.
    """
    # A stable sort by value keeps equal maxima in position order.
    maxima = (2 * np.argsort(value[1::2], kind="stable") + 1).tolist()
    value = value.tolist()
    other_end = list(range(len(value)))
    lowest = other_end.copy()
    death = [-1] * len(value)
    for j in maxima:
        a, b = other_end[j - 1], other_end[j + 1]
        left, right = lowest[j - 1], lowest[j + 1]
        # Larger (value, position) key dies: the elder component survives.
        # The left minimum has the smaller position, so it dies only when higher.
        living, dead = (right, left) if value[left] > value[right] else (left, right)
        death[dead] = j
        other_end[a], other_end[b] = b, a
        lowest[a] = lowest[b] = living
    return np.array(death, dtype=np.intp)


def _sweep(value: np.ndarray, is_min: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs-only sweep over the extremum slots.

    Boundary maxima never join two components and are dropped, so minima
    and interior maxima alternate. A round pairs every maximum whose
    (value, slot) key is below those of both neighbouring maxima (an end
    of the sequence counts as higher). Every maximum paired so far between
    two neighbouring maxima was below both, so the minimum left between
    them is the lowest of the component they bound, and a maximum below
    both of its neighbours joins two components that no other maximum
    will change first. Like the loop, it pairs with the higher of its two
    minima (the right one on a tie), and both leave the sequence. The
    maxima of one round are never neighbours, so their triples are
    disjoint. No round runs on fewer than ``_ROUND_MIN`` maxima, so a short
    sequence goes to the loop whole; the loop pairs what the rounds leave.
    Slots increase with sample index, so (value, slot) orders like (value, index).

    Returns (maximum slots, dying slots), ordered by dying slot.
    """
    first = 0 if is_min[0] else 1
    value = value[first : len(value) - (not is_min[-1])]
    death = np.full(len(value), -1, dtype=np.intp)
    mins = np.arange(0, len(value), 2)
    maxs = mins[:-1] + 1
    bottom, top = value[mins], value[maxs]
    while len(top) >= _ROUND_MIN:
        # Equal maxima: the left one has the smaller key.
        low = np.ones(len(top), dtype=bool)
        np.less(top[1:], top[:-1], out=low[1:])
        low[:-1] &= top[:-1] <= top[1:]
        merging = np.flatnonzero(low)
        if len(merging) * _ROUND_SHARE < len(top):
            break
        dead = merging + (bottom[merging] <= bottom[merging + 1])
        death[mins[dead]] = maxs[merging]
        alive = np.ones(len(mins), dtype=bool)
        alive[dead] = False
        mins, bottom = mins[alive], bottom[alive]
        np.logical_not(low, out=low)
        maxs, top = maxs[low], top[low]
    sequence = np.empty(2 * len(mins) - 1, dtype=np.intp)
    sequence[0::2], sequence[1::2] = mins, maxs
    tail = _loop(value[sequence])
    dying = np.flatnonzero(tail >= 0)
    death[sequence[dying]] = sequence[tail[dying]]
    dying = np.flatnonzero(death >= 0)
    return death[dying] + first, dying + first


def diagram_of(values) -> PersistenceDiagram:
    """Persistence diagram of a series or of raw values.

    A constant series has no finite pairs; its single plateau is the
    essential record.
    """
    series = values if isinstance(values, TimeSeries) else TimeSeries(values)
    extrema = classify_extrema(series)
    values = series.values
    maxima, dying = _sweep(values[extrema.index], extrema.is_min)
    birth, death = extrema.index[dying], extrema.index[maxima]
    birth_value, death_value = values[birth], values[death]
    # Finite values more than the float range apart have persistence +inf,
    # which is the intended value, so numpy need not warn about it. The
    # pairs come in birth order and births are unique, so a stable sort by
    # persistence orders ties by birth.
    with np.errstate(over="ignore"):
        order = np.argsort(death_value - birth_value, kind="stable")
    # The first global minimum starts its run, so it is the collapsed index.
    return PersistenceDiagram(
        birth[order], death[order], birth_value[order], death_value[order], int(np.argmin(values))
    )
