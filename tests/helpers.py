"""Shared strategies and random generators for the test suite."""

from __future__ import annotations

import importlib
from contextlib import contextmanager

import numpy as np
from hypothesis import strategies as st

from toposmooth import persistence

# Small-integer series are plateau- and tie-rich, which is where the
# topology is hardest; float series cover the generic case.
int_series = st.lists(st.integers(0, 4), min_size=2, max_size=32).map(
    lambda xs: [float(x) for x in xs]
)
# Rounded to 2 decimals so that order and equality relations survive the
# float arithmetic of shifts and rescalings applied in property tests.
float_series = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False, width=32).map(
        lambda v: round(v, 2)
    ),
    min_size=2,
    max_size=32,
)
any_series = st.one_of(int_series, float_series)
# Runs of repeated small integers: long plateaus and many equal extrema.
plateau_series = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 5)), min_size=2, max_size=12
).map(lambda runs: [float(v) for v, k in runs for _ in range(k)])
# Unrounded floats: the generic case, with no ties.
normal_series = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), min_size=2, max_size=64
)

diagram_points = st.lists(
    st.tuples(
        st.floats(-10.0, 10.0, allow_nan=False).map(lambda v: round(v, 2)),
        st.floats(0.05, 10.0, allow_nan=False).map(lambda v: round(v, 2)),
    ).map(lambda bd: (bd[0], bd[0] + bd[1])),
    min_size=0,
    max_size=4,
)
# Integer points from a small range: duplicate points, equal candidate
# costs, and touching intervals whose l1 cross cost equals pa + pb.
tie_rich_diagram_points = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(1, 3)).map(
        lambda bp: (float(bp[0]), float(bp[0] + bp[1]))
    ),
    min_size=0,
    max_size=4,
)


PAIR_COLUMNS = ("birth_index", "death_index", "birth_value", "death_value")


def diagram_rows(diagram, *columns, where=slice(None)) -> list[tuple]:
    """The named columns of a diagram's pairs as rows of Python numbers.

    Rows keep the diagram's order; ``where`` (a boolean mask or a slice)
    selects some of them. ``persistence`` is a column too.
    """
    return list(zip(*(getattr(diagram, name)[where].tolist() for name in columns)))


def random_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Mixed-style random series: smooth, noisy, or coarsely quantized."""
    style = rng.integers(0, 3)
    if style == 0:
        return rng.integers(0, 5, n).astype(np.float64)
    if style == 1:
        return np.round(rng.normal(0.0, 2.0, n) * 2.0) / 2.0
    return rng.normal(0.0, 2.0, n)


def random_diagram(rng: np.random.Generator, max_points: int = 5) -> list[tuple[float, float]]:
    k = int(rng.integers(0, max_points + 1))
    out = []
    for _ in range(k):
        b = float(np.round(rng.uniform(-5, 5), 2))
        p = float(np.round(rng.uniform(0.05, 6), 2))
        out.append((b, b + p))
    return out


# How diagram_of's sweep splits its work between whole-array rounds and
# the loop, as (_ROUND_MIN, _ROUND_SHARE): as shipped; the loop alone;
# rounds until no maximum is left; and rounds from the first maximum,
# handed over to the loop once a round would pair fewer than half of the
# maxima left.
SWEEP_MODES = {
    "default": (persistence._ROUND_MIN, persistence._ROUND_SHARE),
    "loop_only": (2**62, 1),
    "all_rounds": (1, 2**62),
    "handover": (1, 2),
}


@contextmanager
def sweep_mode(name: str):
    """Run diagram_of's sweep in one of ``SWEEP_MODES`` inside the block."""
    saved = persistence._ROUND_MIN, persistence._ROUND_SHARE
    persistence._ROUND_MIN, persistence._ROUND_SHARE = SWEEP_MODES[name]
    try:
        yield
    finally:
        persistence._ROUND_MIN, persistence._ROUND_SHARE = saved


# The package's ``simplify`` attribute is the function, not the module.
_simplify = importlib.import_module("toposmooth.simplify")

# The run length up to which isotonic_fit pools a run in lockstep rather
# than through the loop (_LOCKSTEP_LENGTH): as shipped; every run in
# lockstep; and every run through the loop.
PAV_MODES = {
    "default": _simplify._LOCKSTEP_LENGTH,
    "lockstep_all": 2**62,
    "loop_only": 0,
}


@contextmanager
def pav_mode(name: str):
    """Run isotonic_fit in one of ``PAV_MODES`` inside the block."""
    saved = _simplify._LOCKSTEP_LENGTH
    _simplify._LOCKSTEP_LENGTH = PAV_MODES[name]
    try:
        yield
    finally:
        _simplify._LOCKSTEP_LENGTH = saved
