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

import enum
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .series import (
    ExtremumKind,
    ExtremumRecord,
    TimeSeries,
    classify_extrema,
)


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


class NodeKind(enum.Enum):
    LEAF = "leaf"
    MERGE = "merge"
    ROOT = "root"


@dataclass(frozen=True)
class MergeTreeNode:
    node_id: int
    f_value: float
    sample_index: int
    kind: NodeKind
    parent: int | None
    children: tuple[int, ...]
    paired_leaf: int | None = None


@dataclass(frozen=True)
class MergeTree:
    """Component-merge structure of the sweep, kept as an inspectable artifact."""

    nodes: tuple[MergeTreeNode, ...]

    def leaves(self) -> tuple[MergeTreeNode, ...]:
        return tuple(n for n in self.nodes if n.kind is NodeKind.LEAF)

    def merges(self) -> tuple[MergeTreeNode, ...]:
        return tuple(n for n in self.nodes if n.kind is NodeKind.MERGE)


def _sweep(
    values: np.ndarray, extrema: list[ExtremumRecord]
) -> Iterator[tuple[int, int, int, int]]:
    """Pairs-only sweep over the extremum slots.

    Kinds alternate, so each component of the sublevel set spans an
    interval of slots [a, b] with minima at both ends, and the interior
    maximum at slot j joins the interval ending at j - 1 with the interval
    starting at j + 1. Both neighbours are lower minima, so they are
    already swept; boundary maxima never join two components and are
    skipped. Each interval keeps its other end and the slot of its
    minimum at both of its ends. Slots increase with sample index, so
    (value, slot) orders like (value, index).

    Yields the merges in sweep order, each as (maximum slot, new interval
    start, new interval end, dying slot).
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
        yield j, a, b, dying


def _diagram(
    values: np.ndarray,
    extrema: list[ExtremumRecord],
    merges: Iterable[tuple[int, int, int, int]],
) -> PersistenceDiagram:
    """The merges' pairs, by ascending persistence, ties by birth index."""
    pairs = []
    for j, _, _, dying in merges:
        birth, death = extrema[dying].index, extrema[j].index
        pairs.append(ExtremaPair(birth, death, float(values[birth]), float(values[death])))
    pairs.sort(key=lambda p: (p.persistence, p.birth_index))
    # The first global minimum starts its run, so it is the collapsed index.
    return PersistenceDiagram(tuple(pairs), int(np.argmin(values)))


def _merge_tree(
    values: np.ndarray,
    extrema: list[ExtremumRecord],
    merges: list[tuple[int, int, int, int]],
) -> MergeTree:
    """Replay the sweep's merges as a tree; node ids follow the sweep order."""
    merge_at = {m[0]: m for m in merges}
    order = sorted(
        range(len(extrema)), key=lambda s: (values[extrema[s].index], extrema[s].index)
    )
    rows: list[tuple] = []  # (f_value, sample_index, kind, children, paired_leaf)
    top = [0] * len(extrema)  # newest node of the interval, kept at both ends
    leaf = [0] * len(extrema)
    for s in order:
        rec = extrema[s]
        f = float(values[rec.index])
        if rec.kind is ExtremumKind.LOCAL_MIN:
            top[s] = leaf[s] = len(rows)
            rows.append((f, rec.index, NodeKind.LEAF, (), None))
        elif s in merge_at:
            _, a, b, dying = merge_at[s]
            rows.append((f, rec.index, NodeKind.MERGE, (top[a], top[b]), leaf[dying]))
            top[a] = top[b] = len(rows) - 1
    # Every minimum lies below the last merge, so the newest node spans all.
    g = int(np.argmax(values))
    rows.append((float(values[g]), g, NodeKind.ROOT, (len(rows) - 1,), None))

    parent: list[int | None] = [None] * len(rows)
    for nid, row in enumerate(rows):
        for child in row[3]:
            parent[child] = nid
    return MergeTree(
        nodes=tuple(
            MergeTreeNode(nid, f, idx, kind, parent[nid], children, paired)
            for nid, (f, idx, kind, children, paired) in enumerate(rows)
        )
    )


def compute_persistence(series: TimeSeries) -> tuple[PersistenceDiagram, MergeTree]:
    """Persistence diagram and merge tree of a series.

    A constant series has no finite pairs; the single plateau is the
    essential record and the tree degenerates to one leaf under the root.
    """
    extrema = classify_extrema(series)  # validates
    merges = list(_sweep(series.values, extrema))
    diagram = _diagram(series.values, extrema, merges)
    return diagram, _merge_tree(series.values, extrema, merges)


def diagram_of(values) -> PersistenceDiagram:
    """Persistence diagram of raw values; no merge tree is built."""
    if isinstance(values, TimeSeries):
        series = values
    else:
        series = TimeSeries(np.asarray(values, dtype=np.float64))
    extrema = classify_extrema(series)  # validates
    return _diagram(series.values, extrema, _sweep(series.values, extrema))
