import itertools

import numpy as np
import pytest
from helpers import any_series
from hypothesis import given
from oracles import classify_by_neighbours

from toposmooth import TimeSeries, classify_extrema
from toposmooth import series as series_module


def rows(values):
    """The extrema of a series as (index, "min"/"max") tuples."""
    ex = classify_extrema(TimeSeries(values))
    assert len(ex) == len(ex.index) == len(ex.is_min)
    kinds = ["min" if is_min else "max" for is_min in ex.is_min.tolist()]
    return list(zip(ex.index.tolist(), kinds))


def oracle_rows(values):
    return [row[:2] for row in classify_by_neighbours(values)]


def test_classify_alternating_example():
    assert rows([1, 5, 2, 4, 0, 3]) == [
        (0, "min"),
        (1, "max"),
        (2, "min"),
        (3, "max"),
        (4, "min"),
        (5, "max"),
    ]


def test_classify_monotone_has_only_boundaries():
    assert rows([1, 2, 3]) == [(0, "min"), (2, "max")]


def test_classify_plateau_collapses_to_leftmost():
    assert rows([0, 1, 1, 0]) == [(0, "min"), (1, "max"), (3, "min")]


def test_classify_constant_series_single_boundary_min():
    assert rows([5, 5, 5]) == [(0, "min")]


def test_classify_rejects_short_series():
    with pytest.raises(ValueError):
        classify_extrema(TimeSeries([1.0]))


@given(any_series)
def test_classify_matches_neighbour_comparison_oracle(values):
    assert rows(values) == oracle_rows(values)


def test_classify_matches_oracle_exhaustively():
    # Every series of length 2-7 over {0, 1, 2, 3}: 21,840 in all.
    for n in range(2, 8):
        for values in itertools.product(range(4), repeat=n):
            assert rows(values) == oracle_rows(values), values


@given(any_series)
def test_classify_alternates_and_flags_boundaries(values):
    records = rows(values)
    arr = np.asarray(values)
    # The first extremum is the first sample; the last one's run reaches the end.
    assert records[0][0] == 0
    assert np.all(arr[records[-1][0] :] == arr[records[-1][0]])
    for a, b in zip(records, records[1:]):
        assert a[1] != b[1]
        # After the plateau of a, samples lie strictly between a and b.
        lo, hi = sorted((arr[a[0]], arr[b[0]]))
        segment = arr[a[0] : b[0]]
        between = segment[np.cumprod(segment == segment[0]) == 0]
        assert np.all(between > lo) and np.all(between < hi)


@pytest.mark.parametrize(
    "values,positions,message",
    [
        ([1, 2, 3], None, None),
        ([1, 2, 3], [0.0, 0.5, 2.0], None),
        ([1.0], None, "length 1 < 2"),
        (
            [1.0, np.nan, np.inf],
            None,
            "non-finite value nan at index 1; non-finite value inf at index 2",
        ),
        ([1, 2, 3], [0, 1], "positions count 2 != values count 3"),
        ([1, 2, 3], [0, np.inf, 2], "non-finite position at index 1"),
        (np.zeros((3, 2)), None, "values shape (3, 2) is not 1-D"),
        (np.zeros((3, 2)), [0, 1, 2], "values shape (3, 2) is not 1-D"),
        ([1, 2, 3], np.zeros((3, 1)), "positions shape (3, 1) is not 1-D"),
        (
            [1, 2, 3],
            [5, 5, 4],
            "positions not strictly increasing at index 1; "
            "positions not strictly increasing at index 2",
        ),
    ],
)
def test_timeseries_is_valid_by_construction(values, positions, message):
    if message is None:
        assert len(TimeSeries(values, positions)) == len(values)
        return
    with pytest.raises(ValueError) as info:
        TimeSeries(values, positions)
    assert str(info.value) == f"invalid series: {message}"


def test_with_values_refuses_non_finite_values():
    series = TimeSeries([1.0, 2.0, 3.0], positions=[0.0, 1.0, 3.0])
    with pytest.raises(ValueError) as info:
        series.with_values([1.0, np.inf, np.nan])
    assert str(info.value) == (
        "invalid series: non-finite value inf at index 1; non-finite value nan at index 2"
    )


def test_require_valid_names_the_first_five_problems():
    with pytest.raises(ValueError) as info:
        TimeSeries(np.full(1000, np.nan))
    message = str(info.value)
    assert message.startswith("invalid series: non-finite value nan at index 0; ")
    assert message.endswith("non-finite value nan at index 4; and 995 more")


def test_require_valid_formats_only_five_of_many_problems(monkeypatch):
    values = np.zeros(10**6)
    values[::2] = np.nan
    formatted = []
    violations = series_module._violations

    def counting_violations(series):
        def counted(message):
            def format_one(i):
                formatted.append(i)
                return message(i)

            return format_one

        return [(items, counted(message)) for items, message in violations(series)]

    monkeypatch.setattr(series_module, "_violations", counting_violations)
    with pytest.raises(ValueError) as info:
        TimeSeries(values)
    first = "; ".join(f"non-finite value nan at index {i}" for i in range(0, 10, 2))
    assert str(info.value) == f"invalid series: {first}; and 499995 more"
    assert len(formatted) == 5

