import itertools

import numpy as np
import pytest
from helpers import any_series
from hypothesis import given
from oracles import classify_by_neighbours

from toposmooth import ExtremumKind, TimeSeries, classify_extrema, validate


def kinds(records):
    return [r.kind for r in records]


def test_classify_alternating_example():
    records = classify_extrema(TimeSeries([1, 5, 2, 4, 0, 3]))
    assert [(r.index, r.kind, r.is_boundary) for r in records] == [
        (0, ExtremumKind.LOCAL_MIN, True),
        (1, ExtremumKind.LOCAL_MAX, False),
        (2, ExtremumKind.LOCAL_MIN, False),
        (3, ExtremumKind.LOCAL_MAX, False),
        (4, ExtremumKind.LOCAL_MIN, False),
        (5, ExtremumKind.LOCAL_MAX, True),
    ]


def test_classify_monotone_has_only_boundaries():
    records = classify_extrema(TimeSeries([1, 2, 3]))
    assert [(r.index, r.kind, r.is_boundary) for r in records] == [
        (0, ExtremumKind.LOCAL_MIN, True),
        (2, ExtremumKind.LOCAL_MAX, True),
    ]


def test_classify_plateau_collapses_to_leftmost():
    records = classify_extrema(TimeSeries([0, 1, 1, 0]))
    assert [(r.index, r.kind, r.plateau_span) for r in records] == [
        (0, ExtremumKind.LOCAL_MIN, (0, 0)),
        (1, ExtremumKind.LOCAL_MAX, (1, 2)),
        (3, ExtremumKind.LOCAL_MIN, (3, 3)),
    ]


def test_classify_constant_series_single_boundary_min():
    records = classify_extrema(TimeSeries([5, 5, 5]))
    assert len(records) == 1
    rec = records[0]
    assert rec.kind is ExtremumKind.LOCAL_MIN
    assert rec.is_boundary
    assert rec.plateau_span == (0, 2)


def test_classify_rejects_short_series():
    with pytest.raises(ValueError):
        classify_extrema(TimeSeries([1.0]))


@given(any_series)
def test_classify_matches_neighbour_comparison_oracle(values):
    records = classify_extrema(TimeSeries(values))
    expected = classify_by_neighbours(values)
    got = [
        (r.index, r.kind.value, r.is_boundary, r.plateau_span) for r in records
    ]
    assert got == expected


def test_classify_matches_oracle_exhaustively():
    # Every series of length 2-7 over {0, 1, 2, 3}: 21,840 in all.
    for n in range(2, 8):
        for values in itertools.product(range(4), repeat=n):
            got = [
                (r.index, r.kind.value, r.is_boundary, r.plateau_span)
                for r in classify_extrema(TimeSeries(values))
            ]
            assert got == classify_by_neighbours(values), values


@given(any_series)
def test_classify_alternates_and_flags_boundaries(values):
    records = classify_extrema(TimeSeries(values))
    assert records[0].is_boundary and records[-1].is_boundary
    for a, b in zip(records, records[1:]):
        assert a.kind is not b.kind
        assert not b.is_boundary or b is records[-1]
    # Interior non-extremal samples lie strictly between neighbouring extrema.
    arr = np.asarray(values)
    for a, b in zip(records, records[1:]):
        lo, hi = sorted((arr[a.index], arr[b.index]))
        between = arr[a.plateau_span[1] + 1 : b.plateau_span[0]]
        assert np.all(between > lo) and np.all(between < hi)


@given(any_series)
def test_plateau_spans_hold_constant_values(values):
    arr = np.asarray(values)
    for r in classify_extrema(TimeSeries(values)):
        lo, hi = r.plateau_span
        assert lo <= r.index <= hi
        assert np.all(arr[lo : hi + 1] == arr[r.index])


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


def test_validate_position_count_mismatch():
    problems = validate(TimeSeries([1, 2, 3], positions=[0, 1]))
    assert any("count" in p for p in problems)
