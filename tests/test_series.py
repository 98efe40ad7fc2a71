import itertools

import numpy as np
import pytest
from helpers import any_series
from hypothesis import given
from oracles import classify_by_neighbours

from toposmooth import TimeSeries, classify_extrema, validate
from toposmooth import series as series_module
from toposmooth.series import require_valid


def rows(values):
    """The extrema of a series as (index, "min"/"max", is_boundary, span) tuples."""
    ex = classify_extrema(TimeSeries(values))
    assert len(ex) == len(ex.index) == len(ex.is_min) == len(ex.is_boundary) == len(ex.span)
    return [
        (i, "min" if is_min else "max", boundary, tuple(span))
        for i, is_min, boundary, span in zip(
            ex.index.tolist(), ex.is_min.tolist(), ex.is_boundary.tolist(), ex.span.tolist()
        )
    ]


def test_classify_alternating_example():
    assert [r[:3] for r in rows([1, 5, 2, 4, 0, 3])] == [
        (0, "min", True),
        (1, "max", False),
        (2, "min", False),
        (3, "max", False),
        (4, "min", False),
        (5, "max", True),
    ]


def test_classify_monotone_has_only_boundaries():
    assert [r[:3] for r in rows([1, 2, 3])] == [(0, "min", True), (2, "max", True)]


def test_classify_plateau_collapses_to_leftmost():
    assert [(i, kind, span) for i, kind, _, span in rows([0, 1, 1, 0])] == [
        (0, "min", (0, 0)),
        (1, "max", (1, 2)),
        (3, "min", (3, 3)),
    ]


def test_classify_constant_series_single_boundary_min():
    assert rows([5, 5, 5]) == [(0, "min", True, (0, 2))]


def test_classify_rejects_short_series():
    with pytest.raises(ValueError):
        classify_extrema(TimeSeries([1.0]))


@given(any_series)
def test_classify_matches_neighbour_comparison_oracle(values):
    assert rows(values) == classify_by_neighbours(values)


def test_classify_matches_oracle_exhaustively():
    # Every series of length 2-7 over {0, 1, 2, 3}: 21,840 in all.
    for n in range(2, 8):
        for values in itertools.product(range(4), repeat=n):
            assert rows(values) == classify_by_neighbours(values), values


@given(any_series)
def test_classify_alternates_and_flags_boundaries(values):
    records = rows(values)
    assert records[0][2] and records[-1][2]
    for a, b in zip(records, records[1:]):
        assert a[1] != b[1]
        assert not b[2] or b is records[-1]
    # Interior non-extremal samples lie strictly between neighbouring extrema.
    arr = np.asarray(values)
    for a, b in zip(records, records[1:]):
        lo, hi = sorted((arr[a[0]], arr[b[0]]))
        between = arr[a[3][1] + 1 : b[3][0]]
        assert np.all(between > lo) and np.all(between < hi)


@given(any_series)
def test_plateau_spans_hold_constant_values(values):
    arr = np.asarray(values)
    for index, _, _, (lo, hi) in rows(values):
        assert lo <= index <= hi
        assert np.all(arr[lo : hi + 1] == arr[index])


def test_validate_ok():
    assert validate(TimeSeries([1, 2, 3])) == []


def test_validate_short():
    problems = validate(TimeSeries([1.0]))
    assert any("length" in p for p in problems)


def test_validate_positions_not_increasing():
    problems = validate(TimeSeries([1, 2], positions=[5, 5]))
    assert any("strictly increasing" in p for p in problems)


def test_validate_non_finite():
    problems = validate(TimeSeries([1.0, np.nan, np.inf]))
    assert problems == ["non-finite value nan at index 1", "non-finite value inf at index 2"]


def test_require_valid_names_the_first_five_problems():
    with pytest.raises(ValueError) as info:
        require_valid(TimeSeries(np.full(1000, np.nan)))
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
        require_valid(TimeSeries(values))
    first = "; ".join(f"non-finite value nan at index {i}" for i in range(0, 10, 2))
    assert str(info.value) == f"invalid series: {first}; and 499995 more"
    assert len(formatted) == 5


def test_validate_position_count_mismatch():
    problems = validate(TimeSeries([1, 2, 3], positions=[0, 1]))
    assert any("count" in p for p in problems)
