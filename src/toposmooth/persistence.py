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

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .series import ExtremumKind, ExtremumRecord, TimeSeries, classify_extrema


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


@dataclass(frozen=True)
class PersistenceDiagram:
    """All finite pairs of a series plus the essential (never-dying) record.

    ``pairs`` is sorted by ascending persistence, ties by ascending
    birth index. ``essential_min_index`` is the index of the global
    minimum, whose component survives the whole sweep.
    """

    pairs: tuple[ExtremaPair, ...]
    essential_min_index: int

    def finite_points(self) -> tuple[tuple[float, float], ...]:
        """(birth_value, death_value) coordinates of the finite pairs."""
        return tuple((p.birth_value, p.death_value) for p in self.pairs)


def _sweep(
    values: np.ndarray, extrema: list[ExtremumRecord]
) -> Iterator[tuple[int, int]]:
    """Pairs-only sweep over the extremum slots.

    Kinds alternate, so each component of the sublevel set spans an
    interval of slots [a, b] with minima at both ends, and the interior
    maximum at slot j joins the interval ending at j - 1 with the interval
    starting at j + 1. Both neighbours are lower minima, so they are
    already swept; boundary maxima never join two components and are
    skipped. Each interval keeps its other end and the slot of its
    minimum at both of its ends. Slots increase with sample index, so
    (value, slot) orders like (value, index).

    Yields the merges in sweep order, each as (maximum slot, dying slot).
    """
    k = len(extrema)
    value = values[[rec.index for rec in extrema]].tolist()
    other_end = list(range(k))
    lowest = other_end.copy()
    maxima = sorted(
        (j for j in range(1, k - 1) if extrema[j].kind is ExtremumKind.LOCAL_MAX),
        key=lambda j: (value[j], j),
    )
    for j in maxima:
        a, b = other_end[j - 1], other_end[j + 1]
        left, right = lowest[j - 1], lowest[j + 1]
        # Larger (value, index) key dies: elder component survives.
        if (value[left], left) > (value[right], right):
            dying, living = left, right
        else:
            dying, living = right, left
        other_end[a], other_end[b] = b, a
        lowest[a] = lowest[b] = living
        yield j, dying


def diagram_of(values) -> PersistenceDiagram:
    """Persistence diagram of a series or of raw values.

    A constant series has no finite pairs; its single plateau is the
    essential record.
    """
    if isinstance(values, TimeSeries):
        series = values
    else:
        series = TimeSeries(np.asarray(values, dtype=np.float64))
    extrema = classify_extrema(series)  # validates
    values = series.values
    pairs = []
    for j, dying in _sweep(values, extrema):
        birth, death = extrema[dying].index, extrema[j].index
        pairs.append(ExtremaPair(birth, death, float(values[birth]), float(values[death])))
    pairs.sort(key=lambda p: (p.persistence, p.birth_index))
    # The first global minimum starts its run, so it is the collapsed index.
    return PersistenceDiagram(tuple(pairs), int(np.argmin(values)))
