import numpy as np
import pytest
from helpers import any_series
from hypothesis import given, settings
from oracles import sublevel_pairs

from toposmooth import TimeSeries, classify_extrema, diagram_of
from toposmooth.series import ExtremumKind


def pair_tuples(diagram):
    return sorted(
        (p.birth_index, p.death_index, p.birth_value, p.death_value)
        for p in diagram.pairs
    )


def assert_matches_oracle(values):
    diagram = diagram_of(values)
    expected_pairs, expected_essential = sublevel_pairs(values)
    assert pair_tuples(diagram) == sorted(expected_pairs)
    assert diagram.essential_min_index == expected_essential


def test_six_point_example():
    # Oracle-derived: the two interior maxima pair with the two higher
    # minima; the global minimum at index 4 is essential.
    d = diagram_of([1, 5, 2, 4, 0, 3])
    assert [(p.birth_index, p.death_index, p.persistence) for p in d.pairs] == [
        (2, 3, 2.0),
        (0, 1, 4.0),
    ]
    assert d.essential_min_index == 4
    assert_matches_oracle([1, 5, 2, 4, 0, 3])


def test_four_point_example():
    d = diagram_of([0, 2, 1, 3])
    assert [(p.birth_index, p.death_index, p.persistence) for p in d.pairs] == [
        (2, 1, 1.0)
    ]
    assert d.essential_min_index == 0
    assert_matches_oracle([0, 2, 1, 3])


def test_monotone_has_no_pairs():
    d = diagram_of([3, 2, 1])
    assert d.pairs == ()
    assert d.essential_min_index == 2


def test_constant_series_has_no_pairs():
    d = diagram_of([5, 5, 5])
    assert d.pairs == ()
    assert d.essential_min_index == 0


def test_equal_minima_tie_breaks_to_larger_index():
    # Both boundary minima sit at 0; the later-created component dies.
    d = diagram_of([0, 1, 0])
    assert [(p.birth_index, p.death_index, p.persistence) for p in d.pairs] == [
        (2, 1, 1.0)
    ]
    assert d.essential_min_index == 0


def test_two_equal_peaks():
    d = diagram_of([0, 4, 0, 4, 0])
    assert sorted(p.persistence for p in d.pairs) == [4.0, 4.0]
    assert len(d.pairs) == 2
    assert d.essential_min_index == 0


def test_rejects_invalid_series():
    with pytest.raises(ValueError):
        diagram_of([1.0])
    with pytest.raises(ValueError):
        diagram_of([1.0, np.nan])


def test_pairs_sorted_by_persistence_then_birth():
    d = diagram_of([0, 3, 1, 4, 2, 5, 0, 6])
    keys = [(p.persistence, p.birth_index) for p in d.pairs]
    assert keys == sorted(keys)


@settings(max_examples=300)
@given(any_series)
def test_matches_sublevel_tracker_oracle(values):
    assert_matches_oracle(values)


@given(any_series)
def test_pair_count_is_minima_minus_one(values):
    d = diagram_of(values)
    minima = [
        r for r in classify_extrema(TimeSeries(values)) if r.kind is ExtremumKind.LOCAL_MIN
    ]
    assert len(d.pairs) == len(minima) - 1


@given(any_series)
def test_translation_and_scale_equivariance(values):
    base = diagram_of(values)
    shifted = diagram_of([v + 7.5 for v in values])
    assert [(p.birth_index, p.death_index) for p in shifted.pairs] == [
        (p.birth_index, p.death_index) for p in base.pairs
    ]
    assert np.allclose(
        [p.birth_value for p in shifted.pairs],
        [p.birth_value + 7.5 for p in base.pairs],
    )
    scaled = diagram_of([v * 3.0 for v in values])
    assert {(p.birth_index, p.death_index) for p in scaled.pairs} == {
        (p.birth_index, p.death_index) for p in base.pairs
    }
    assert np.allclose(
        sorted(p.persistence for p in scaled.pairs),
        sorted(3.0 * p.persistence for p in base.pairs),
    )
    assert shifted.essential_min_index == base.essential_min_index
    assert scaled.essential_min_index == base.essential_min_index


@given(any_series)
def test_pair_intervals_are_laminar(values):
    d = diagram_of(values)
    intervals = [
        (min(p.birth_index, p.death_index), max(p.birth_index, p.death_index))
        for p in d.pairs
    ]
    for a in intervals:
        for b in intervals:
            if a is b:
                continue
            disjoint = a[1] < b[0] or b[1] < a[0]
            nested = (a[0] <= b[0] and b[1] <= a[1]) or (b[0] <= a[0] and a[1] <= b[1])
            assert disjoint or nested


@given(any_series)
def test_no_index_reused_and_strict_amplitude(values):
    d = diagram_of(values)
    seen = set()
    for p in d.pairs:
        assert p.birth_value < p.death_value
        assert p.persistence > 0
        assert p.birth_index != p.death_index
        assert p.birth_index not in seen and p.death_index not in seen
        seen.update((p.birth_index, p.death_index))


def test_complexity_dominated_by_extrema():
    # 10^6 samples, ~10^3 extrema: classification is vectorized and the
    # sweep touches only the extrema, so this must be fast.
    import time

    n = 1_000_000
    t = np.linspace(0.0, 500.0 * 2.0 * np.pi, n)
    series = TimeSeries(np.sin(t))
    start = time.perf_counter()
    diagram = diagram_of(series)
    elapsed = time.perf_counter() - start
    assert len(diagram.pairs) >= 450
    assert elapsed < 10.0
