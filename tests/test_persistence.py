import functools

import numpy as np
import pytest
from helpers import PAIR_COLUMNS, SWEEP_MODES, any_series, diagram_rows, sweep_mode
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sublevel_pairs

from toposmooth import TimeSeries, classify_extrema, diagram_of, generate_synthetic


def pair_tuples(diagram):
    return sorted(diagram_rows(diagram, *PAIR_COLUMNS))


def assert_matches_oracle(values):
    diagram = diagram_of(values)
    expected_pairs, expected_essential = sublevel_pairs(values)
    assert pair_tuples(diagram) == sorted(expected_pairs)
    assert diagram.essential_min_index == expected_essential


def test_six_point_example():
    # Oracle-derived: the two interior maxima pair with the two higher
    # minima; the global minimum at index 4 is essential.
    d = diagram_of([1, 5, 2, 4, 0, 3])
    assert diagram_rows(d, "birth_index", "death_index", "persistence") == [
        (2, 3, 2.0),
        (0, 1, 4.0),
    ]
    assert d.essential_min_index == 4
    assert_matches_oracle([1, 5, 2, 4, 0, 3])


def test_four_point_example():
    d = diagram_of([0, 2, 1, 3])
    assert diagram_rows(d, "birth_index", "death_index", "persistence") == [
        (2, 1, 1.0)
    ]
    assert d.essential_min_index == 0
    assert_matches_oracle([0, 2, 1, 3])


def test_monotone_has_no_pairs():
    d = diagram_of([3, 2, 1])
    assert diagram_rows(d, *PAIR_COLUMNS) == []
    assert d.essential_min_index == 2


def test_constant_series_has_no_pairs():
    d = diagram_of([5, 5, 5])
    assert diagram_rows(d, *PAIR_COLUMNS) == []
    assert d.essential_min_index == 0


def test_equal_minima_tie_breaks_to_larger_index():
    # Both boundary minima sit at 0; the later-created component dies.
    d = diagram_of([0, 1, 0])
    assert diagram_rows(d, "birth_index", "death_index", "persistence") == [
        (2, 1, 1.0)
    ]
    assert d.essential_min_index == 0


def test_two_equal_peaks():
    d = diagram_of([0, 4, 0, 4, 0])
    assert sorted(d.persistence.tolist()) == [4.0, 4.0]
    assert len(d) == 2
    assert d.essential_min_index == 0


def test_rejects_invalid_series():
    with pytest.raises(ValueError):
        diagram_of([1.0])
    with pytest.raises(ValueError):
        diagram_of([1.0, np.nan])


def test_pairs_sorted_by_persistence_then_birth():
    d = diagram_of([0, 3, 1, 4, 2, 5, 0, 6])
    keys = diagram_rows(d, "persistence", "birth_index")
    assert keys == sorted(keys)


@settings(max_examples=300)
@given(any_series)
def test_matches_sublevel_tracker_oracle(values):
    assert_matches_oracle(values)


@settings(max_examples=300)
@given(any_series, st.sampled_from(["all_rounds", "handover"]))
def test_rounds_match_sublevel_tracker_oracle(values, mode):
    with sweep_mode(mode):
        assert_matches_oracle(values)


def zigzag(n: int, slope: float) -> np.ndarray:
    """Alternating 0, 1 on a line: every maximum is above (or below) the last."""
    return np.arange(n) % 2 + slope * np.arange(n)


@functools.cache
def long_series() -> dict:
    rising, falling = zigzag(5001, 0.01), zigzag(5001, -0.01)
    sine = generate_synthetic("noisy_sine", 131072, 7).values
    cases = {
        "rising_zigzag": rising,
        "falling_zigzag": falling,
        "v_shape": np.concatenate((falling, rising[1:])),
        "tent": np.concatenate((rising, falling[1:] + falling[0] - rising[-1])),
        "rounded_noisy_sine": np.round(sine),
    }
    for kind in ("spike_train", "noisy_sine", "random_walk"):
        cases[kind] = generate_synthetic(kind, 131072, 7).values
    return cases


@pytest.mark.parametrize("case", sorted(long_series()))
def test_rounds_equal_the_loop_on_long_series(case):
    # The zigzags pair one maximum per round, at an end of the sequence or
    # (the V and the tent) in its middle, so by default they stay on the
    # loop. The noisy n=131072 series pair about a third of their maxima
    # per round at first, and by default the loop takes over midway.
    values = long_series()[case]
    with sweep_mode("loop_only"):
        expected = diagram_of(values)
    for mode in SWEEP_MODES:
        with sweep_mode(mode):
            got = diagram_of(values)
        for column in PAIR_COLUMNS:
            a, b = getattr(expected, column), getattr(got, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (mode, column)
        assert got.essential_min_index == expected.essential_min_index


@given(any_series)
def test_pair_count_is_minima_minus_one(values):
    d = diagram_of(values)
    minima = int(np.count_nonzero(classify_extrema(TimeSeries(values)).is_min))
    assert len(d) == minima - 1


@given(any_series)
def test_pairs_are_the_columns_as_python_numbers(values):
    d = diagram_of(values)
    columns = (d.birth_index, d.death_index, d.birth_value, d.death_value)
    assert len(d) == len(d.pairs) and all(len(c) == len(d) for c in columns)
    assert [tuple(c[i] for c in columns) for i in range(len(d))] == [
        (p.birth_index, p.death_index, p.birth_value, p.death_value) for p in d.pairs
    ]
    for p in d.pairs:
        assert type(p.birth_index) is int and type(p.death_index) is int
        assert type(p.birth_value) is float and type(p.death_value) is float
    assert d.pairs is d.pairs
    points = d.finite_points()
    assert points.shape == (len(d), 2)
    assert points.tolist() == [[p.birth_value, p.death_value] for p in d.pairs]


@given(any_series)
def test_translation_and_scale_equivariance(values):
    base = diagram_of(values)
    shifted = diagram_of([v + 7.5 for v in values])
    ends = ("birth_index", "death_index")
    assert diagram_rows(shifted, *ends) == diagram_rows(base, *ends)
    assert np.allclose(shifted.birth_value, base.birth_value + 7.5)
    scaled = diagram_of([v * 3.0 for v in values])
    assert set(diagram_rows(scaled, *ends)) == set(diagram_rows(base, *ends))
    assert np.allclose(np.sort(scaled.persistence), np.sort(3.0 * base.persistence))
    assert shifted.essential_min_index == base.essential_min_index
    assert scaled.essential_min_index == base.essential_min_index


@given(any_series)
def test_pair_intervals_are_laminar(values):
    d = diagram_of(values)
    intervals = [(min(b, e), max(b, e)) for b, e in diagram_rows(d, "birth_index", "death_index")]
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
    for birth, death, birth_value, death_value, persistence in diagram_rows(
        d, *PAIR_COLUMNS, "persistence"
    ):
        assert birth_value < death_value
        assert persistence > 0
        assert birth != death
        assert birth not in seen and death not in seen
        seen.update((birth, death))


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
    assert len(diagram) >= 450
    assert elapsed < 10.0
