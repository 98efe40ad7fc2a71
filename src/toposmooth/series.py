"""Series representation and extremum classification.

A series is a function on the path graph of its sample indices: the values
carry all of the topology, while optional x-positions only matter for
geometry (interpolation and plotting). Runs of equal values ("plateaus")
are collapsed to a single extremum anchored at the leftmost index of the
run, which keeps the downstream pairing deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ExtremumKind(enum.Enum):
    LOCAL_MIN = "min"
    LOCAL_MAX = "max"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A finite ordered sequence of real sample values.

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
        object.__setattr__(self, "values", _readonly(np.atleast_1d(self.values)))
        if self.positions is not None:
            object.__setattr__(self, "positions", _readonly(np.atleast_1d(self.positions)))

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


@dataclass(frozen=True)
class ExtremumRecord:
    """One local extremum, possibly representing a run of equal values.

    ``index`` is the leftmost index of the run; ``plateau_span`` is the
    inclusive index range of equal values the extremum stands for.
    """

    index: int
    kind: ExtremumKind
    is_boundary: bool
    plateau_span: tuple[int, int]


def validate(series: TimeSeries) -> list[str]:
    """Collect every invariant violation of a series.

    Returns an empty list when the series is valid. Violations are data,
    not failures: callers that need a hard guarantee use
    :func:`require_valid`.
    """
    problems: list[str] = []
    values = series.values
    n = len(values)
    if n < 2:
        problems.append(f"length {n} < 2")
    bad = np.flatnonzero(~np.isfinite(values))
    for i in bad:
        problems.append(f"non-finite value {float(values[i])} at index {int(i)}")
    if series.positions is not None:
        pos = series.positions
        if len(pos) != n:
            problems.append(f"positions count {len(pos)} != values count {n}")
        bad_pos = np.flatnonzero(~np.isfinite(pos))
        for i in bad_pos:
            problems.append(f"non-finite position at index {int(i)}")
        if len(pos) >= 2 and np.all(np.isfinite(pos)):
            nondec = np.flatnonzero(np.diff(pos) <= 0)
            for i in nondec:
                problems.append(
                    f"positions not strictly increasing at index {int(i) + 1}"
                )
    return problems


def require_valid(series: TimeSeries) -> None:
    """Raise ``ValueError`` listing all violations if the series is invalid."""
    problems = validate(series)
    if problems:
        raise ValueError("invalid series: " + "; ".join(problems))


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices (inclusive) of maximal runs of equal values."""
    change = np.flatnonzero(np.diff(values) != 0) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change - 1, [len(values) - 1]))
    return starts, ends


def classify_extrema(series: TimeSeries) -> list[ExtremumRecord]:
    """All local extrema of a series, in increasing index order.

    Plateaus are collapsed to a single record anchored at the leftmost
    index of the run. The first sample is a local minimum iff its value is
    <= the next distinct value (mirrored at the last sample), so the first
    and last records are always boundary extrema and kinds strictly
    alternate. A constant series yields one boundary minimum spanning the
    whole series.
    """
    require_valid(series)
    values = series.values
    starts, ends = _runs(values)
    last = len(values) - 1
    if len(starts) == 1:
        return [ExtremumRecord(0, ExtremumKind.LOCAL_MIN, True, (0, last))]

    # A run is an extremum where the direction changes across it; each
    # boundary run counts as a change. It is a minimum iff the series rises
    # after it.
    rising = np.diff(values[starts]) > 0  # run j -> j+1 strictly rises or falls
    before = np.concatenate(([not rising[0]], rising))
    after = np.concatenate((rising, [not rising[-1]]))
    runs = np.flatnonzero(before != after)
    kind = {True: ExtremumKind.LOCAL_MIN, False: ExtremumKind.LOCAL_MAX}
    return [
        ExtremumRecord(lo, kind[is_min], lo == 0 or hi == last, (lo, hi))
        for lo, hi, is_min in zip(
            starts[runs].tolist(), ends[runs].tolist(), after[runs].tolist()
        )
    ]


def sample_std(values: np.ndarray) -> float:
    """Sample standard deviation (ddof=1) used for entropy tolerances."""
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values, dtype=np.float64), ddof=1))
