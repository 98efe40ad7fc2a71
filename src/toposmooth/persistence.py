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
after classification, so the cost is O(n) to classify plus
O(m log m) to sort and merge m extrema.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .series import TimeSeries, classify_extrema


@dataclass(frozen=True)
class ExtremaPair:
    """A (local minimum, local maximum) pair with finite persistence."""

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
        """The pairs as objects holding Python ints and floats, built once on demand."""
        columns = (self.birth_index, self.death_index, self.birth_value, self.death_value)
        return tuple(map(ExtremaPair, *(c.tolist() for c in columns)))

    def finite_points(self) -> np.ndarray:
        """(birth_value, death_value) coordinates of the finite pairs, shape (m, 2)."""
        return np.column_stack((self.birth_value, self.death_value))


def _sweep(value: np.ndarray, is_min: np.ndarray) -> tuple[list[int], list[int]]:
    """Pairs-only sweep over the extremum slots.

    Kinds alternate, so each component of the sublevel set spans an
    interval of slots [a, b] with minima at both ends, and the interior
    maximum at slot j joins the interval ending at j - 1 with the interval
    starting at j + 1. Both neighbours are lower minima, so they are
    already swept; boundary maxima never join two components and are
    skipped. Each interval keeps its other end and the slot of its
    minimum at both of its ends. Slots increase with sample index, so
    (value, slot) orders like (value, index).

    Returns the merges in sweep order as (maximum slots, dying slots).
    """
    interior = np.flatnonzero(~is_min[1:-1]) + 1
    # A stable sort by value keeps equal maxima in slot order.
    maxima = interior[np.argsort(value[interior], kind="stable")].tolist()
    value = value.tolist()
    other_end = list(range(len(value)))
    lowest = other_end.copy()
    dying = []
    for j in maxima:
        a, b = other_end[j - 1], other_end[j + 1]
        left, right = lowest[j - 1], lowest[j + 1]
        # Larger (value, slot) key dies: the elder component survives. The
        # left minimum has the smaller slot, so it dies only when higher.
        living, dead = (right, left) if value[left] > value[right] else (left, right)
        dying.append(dead)
        other_end[a], other_end[b] = b, a
        lowest[a] = lowest[b] = living
    return maxima, dying


def diagram_of(values) -> PersistenceDiagram:
    """Persistence diagram of a series or of raw values.

    A constant series has no finite pairs; its single plateau is the
    essential record.
    """
    series = values if isinstance(values, TimeSeries) else TimeSeries(values)
    extrema = classify_extrema(series)
    values = series.values
    maxima, dying = _sweep(values[extrema.index], extrema.is_min)
    birth = extrema.index[np.array(dying, dtype=np.intp)]
    death = extrema.index[np.array(maxima, dtype=np.intp)]
    birth_value, death_value = values[birth], values[death]
    # Finite values more than the float range apart have persistence +inf,
    # which is the intended value, so numpy need not warn about it.
    with np.errstate(over="ignore"):
        order = np.lexsort((birth, death_value - birth_value))
    # The first global minimum starts its run, so it is the collapsed index.
    return PersistenceDiagram(
        birth[order], death[order], birth_value[order], death_value[order], int(np.argmin(values))
    )
