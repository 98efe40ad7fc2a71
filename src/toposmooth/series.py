"""Series representation and extremum classification.

A series is a function on the path graph of its sample indices: the values
carry all of the topology, while optional x-positions only matter for
geometry (interpolation and plotting). Runs of equal values ("plateaus")
are collapsed to a single extremum anchored at the leftmost index of the
run, which keeps the downstream pairing deterministic.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

import numpy as np


def _readonly(a, name: str) -> np.ndarray:
    a = np.atleast_1d(a)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"invalid series: {name} must be real numbers, got dtype {a.dtype}")
    a = np.array(a, dtype=np.float64, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A finite ordered sequence of real sample values.

    Every instance is valid: the constructor raises ``ValueError`` unless
    the values are 1-D, at least two and all finite, and any positions are
    1-D, finite, one per value and strictly increasing.

    Attributes
    ----------
    values : np.ndarray
        Sample values, one per vertex of the (implicit) path graph.
    positions : np.ndarray or None
        Optional strictly increasing x-coordinates, one per sample.
        ``None`` means the default grid 0, 1, 2, ...
    label : str
        Free-form identifier carried through smoothing and reports.
    """

    values: np.ndarray
    positions: np.ndarray | None = None
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _readonly(self.values, "values"))
        if self.positions is not None:
            object.__setattr__(self, "positions", _readonly(self.positions, "positions"))
        require_valid(self)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def xs(self) -> np.ndarray:
        """Positions, defaulting to the integer sample grid."""
        if self.positions is not None:
            return self.positions
        return np.arange(len(self), dtype=np.float64)

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """A copy of this series with new values but the same positions/label."""
        return TimeSeries(values, self.positions, self.label)


@dataclass(frozen=True, eq=False)
class Extrema:
    """The local extrema of a series as columns, in increasing index order.

    Each extremum may stand for a run of equal values. ``index`` is the
    leftmost index of its run and ``is_min`` tells a minimum from a maximum.
    """

    index: np.ndarray
    is_min: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


def _violations(series: TimeSeries) -> list[tuple[Sequence, Callable[..., str]]]:
    """Each kind of invariant violation as (its items, the message of one item).

    Kinds come in report order and items in index order, so the violations
    can be counted from the items and their messages formatted on demand.
    """
    values = series.values
    if values.ndim != 1:
        return [([values.shape], lambda shape: f"values shape {shape} is not 1-D")]
    n = len(values)
    groups: list[tuple[Sequence, Callable[..., str]]] = [
        ([n] if n < 2 else [], lambda k: f"length {k} < 2"),
        (
            np.flatnonzero(~np.isfinite(values)),
            lambda i: f"non-finite value {float(values[i])} at index {int(i)}",
        ),
    ]
    if series.positions is not None:
        pos = series.positions
        if pos.ndim != 1:
            groups.append(([pos.shape], lambda shape: f"positions shape {shape} is not 1-D"))
            return groups
        groups.append(
            (
                [len(pos)] if len(pos) != n else [],
                lambda k: f"positions count {k} != values count {n}",
            )
        )
        bad_pos = np.flatnonzero(~np.isfinite(pos))
        groups.append((bad_pos, lambda i: f"non-finite position at index {int(i)}"))
        if len(pos) >= 2 and not len(bad_pos):
            groups.append(
                (
                    np.flatnonzero(pos[1:] <= pos[:-1]) + 1,
                    lambda i: f"positions not strictly increasing at index {int(i)}",
                )
            )
    return groups


def require_valid(series: TimeSeries) -> None:
    """Raise ``ValueError`` naming the first five violations if the series is invalid.

    Only those five messages are formatted; the rest are counted.
    """
    groups = _violations(series)
    total = sum(len(items) for items, _ in groups)
    if total:
        first = islice((message(i) for items, message in groups for i in items), 5)
        more = f"; and {total - 5} more" if total > 5 else ""
        raise ValueError("invalid series: " + "; ".join(first) + more)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Start indices of the maximal runs of equal values."""
    # Comparing neighbours, unlike subtracting them, cannot overflow.
    return np.concatenate(([0], np.flatnonzero(values[1:] != values[:-1]) + 1))


def classify_extrema(series: TimeSeries) -> Extrema:
    """All local extrema of a series, in increasing index order.

    Plateaus are collapsed to a single extremum anchored at the leftmost
    index of the run. The first sample is a local minimum iff its value is
    <= the next distinct value (mirrored at the last sample), so the first
    and last extrema are always boundary extrema and kinds strictly
    alternate. A constant series yields one boundary minimum spanning the
    whole series.
    """
    values = series.values
    starts = _run_starts(values)
    if len(starts) == 1:
        is_min = np.array([True])
    else:
        # A run is an extremum where the direction changes across it; each
        # boundary run counts as a change. It is a minimum iff the series
        # rises after it.
        run_values = values[starts]
        rising = run_values[1:] > run_values[:-1]  # run j -> j+1 strictly rises or falls
        before = np.concatenate(([not rising[0]], rising))
        after = np.concatenate((rising, [not rising[-1]]))
        runs = np.flatnonzero(before != after)
        starts, is_min = starts[runs], after[runs]
    return Extrema(starts, is_min)


def sample_std(values: np.ndarray) -> float:
    """Sample standard deviation (ddof=1) of a valid series' values."""
    # Finite values near the float limit overflow the sum (to a NaN
    # deviation) or the squared deviations (to inf). That is refused here,
    # in one error, and numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(np.std(np.asarray(values, dtype=np.float64), ddof=1))
    if not np.isfinite(std):
        raise ValueError("sample standard deviation overflowed (values too large for float64)")
    return std


def integer_argument(name: str, value) -> int:
    """``value`` as a Python int if it is a Python or numpy integer, else a ValueError.

    A float is refused even when integral, and a bool is refused too, so
    no argument is silently truncated.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real_argument(name: str, value):
    """``value`` itself if it is a real number, numpy's included, else a ValueError.

    A bool and a numeric string are refused, so neither is taken as a number,
    and so is a number that no float holds, such as the int ``10**400``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} must lie within the float range") from None
    return value
