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
after classification. Many extrema are first paired in whole-array
rounds: a maximum lower than both neighbouring maxima merges two
components that are already complete, so every such maximum pairs at
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

    The pairs are four parallel columns sorted by ascending persistence
    (those whose persistence overflowed by their true persistence, see
    ``sort_keys``), ties by ascending birth index. ``essential_min_index``
    is the index of the global minimum, whose component survives the
    whole sweep.
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
        with np.errstate(over="ignore"):  # +inf past the float range, as in sort_keys
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


def _loop(bottom: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Pair the maxima ``top`` one at a time, lowest (value, position) first.

    Maximum j lies between minima ``bottom[j]`` and ``bottom[j + 1]``.
    Each component of the sublevel set is a run of minima [a, b], and
    maximum j joins the run ending at j with the run starting at j + 1.
    Both neighbours are lower minima, so they are already swept. Each run
    keeps its other end and its lowest minimum at both of its ends.

    Returns, for each maximum, the minimum that dies at it.
    """
    # A stable sort by value keeps equal maxima in position order.
    maxima = np.argsort(top, kind="stable").tolist()
    bottom = bottom.tolist()
    other_end = list(range(len(bottom)))
    lowest = other_end.copy()
    dying = [0] * len(maxima)
    for j in maxima:
        a, b = other_end[j], other_end[j + 1]
        left, right = lowest[j], lowest[j + 1]
        # Larger (value, position) key dies: the elder component survives.
        # The left minimum has the smaller position, so it dies only when higher.
        living, dying[j] = (right, left) if bottom[left] > bottom[right] else (left, right)
        other_end[a], other_end[b] = b, a
        lowest[a] = lowest[b] = living
    return np.array(dying, dtype=np.intp)


def _sweep(value: np.ndarray, is_min: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs-only sweep over the extremum slots.

    Boundary maxima never join two components and are dropped, so minima
    and interior maxima alternate. They are held as two columns, the
    minima and the maxima between them. A round pairs every maximum whose
    (value, slot) key is below those of both neighbouring maxima (an end
    of the column counts as higher). Every maximum paired so far between
    two neighbouring maxima was below both, so the minimum left between
    them is the lowest of the component they bound, and a maximum below
    both of its neighbours joins two components that no other maximum
    will change first. Like the loop, it pairs with the higher of its two
    minima (the right one on a tie), and both leave their columns. The
    maxima of one round are never neighbours, so their triples are
    disjoint. No round runs on fewer than ``_ROUND_MIN`` maxima, so short
    columns go to the loop whole; the loop pairs what the rounds leave.
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
    death[mins[_loop(bottom, top)]] = maxs
    dying = np.flatnonzero(death >= 0)
    return death[dying] + first, dying + first


def sort_keys(birth_value: np.ndarray, death_value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs' order: persistence, then half of it where it overflowed.

    Finite values more than the float range apart have persistence +inf,
    which is the intended value, so numpy need not warn about it. Halving
    such values is exact and their difference cannot overflow, so the
    second key orders those pairs by their true persistence; it is 0
    wherever the persistence is finite.
    """
    with np.errstate(over="ignore"):
        persistence = death_value - birth_value
    return persistence, np.where(np.isinf(persistence), death_value / 2 - birth_value / 2, 0.0)


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
    # The pairs come in birth order and births are unique, so a stable sort
    # by the keys orders ties by birth.
    persistence, half = sort_keys(birth_value, death_value)
    order = np.lexsort((half, persistence))
    # The first global minimum starts its run, so it is the collapsed index.
    return PersistenceDiagram(
        birth[order], death[order], birth_value[order], death_value[order], int(np.argmin(values))
    )
