import numpy as np
import pytest
from helpers import any_series, float_series, int_series, normal_series
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cutoff_direct,
    douglas_peucker_greedy,
    gaussian_direct,
    interp_direct,
    median_direct,
    median_unclamped,
)

from toposmooth import (
    TimeSeries,
    cutoff_filter,
    douglas_peucker,
    gaussian_filter,
    median_filter,
    uniform_subsample,
)
from toposmooth.evaluate import METHODS
from toposmooth.filters import douglas_peucker_indices

ALL_FILTERS = [
    lambda s: median_filter(s, 3),
    lambda s: gaussian_filter(s, 1.5),
    lambda s: cutoff_filter(s, 2),
    lambda s: uniform_subsample(s, 3),
    lambda s: douglas_peucker(s, 0.5),
]


class TestMedian:
    def test_spike_removed(self):
        out = median_filter(TimeSeries([0, 10, 0, 0]), 3)
        assert np.array_equal(out.values, [0, 0, 0, 0])

    def test_window_one_identity(self):
        series = TimeSeries([3, 1, 4, 1, 5])
        assert np.array_equal(median_filter(series, 1).values, series.values)

    def test_rejects_even_or_nonpositive_window(self):
        series = TimeSeries([1, 2, 3])
        with pytest.raises(ValueError):
            median_filter(series, 2)
        with pytest.raises(ValueError):
            median_filter(series, 0)

    @given(any_series, st.integers(0, 4))
    def test_matches_direct_oracle(self, values, half):
        window = 2 * half + 1
        out = median_filter(TimeSeries(values), window)
        assert np.allclose(out.values, median_direct(values, window))

    @given(
        st.lists(st.integers(0, 4).map(float), min_size=2, max_size=11)
        | st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=11),
        st.data(),
    )
    def test_window_wider_than_series_is_exact(self, values, data):
        # Windows beyond 2n - 1 are computed with radius n - 1.
        window = data.draw(st.integers(0, 2 * len(values)).map(lambda h: 2 * h + 1))
        out = median_filter(TimeSeries(values), window)
        assert out.values.tobytes() == median_unclamped(values, window).tobytes()


class TestGaussian:
    # 1e-200 and 5e-324 square to 0; at 1e-160 1/(2 sigma^2) overflows.
    @pytest.mark.parametrize("sigma", [0.0, 1e-200, 5e-324, 1e-160])
    def test_sigma_zero_identity(self, sigma):
        series = TimeSeries([3, 1, 4, 1, 5])
        assert np.array_equal(gaussian_filter(series, sigma).values, series.values)

    def test_constant_unchanged(self):
        out = gaussian_filter(TimeSeries([2.5] * 9), 3.0)
        assert np.allclose(out.values, 2.5, atol=1e-12)

    def test_impulse_response_matches_kernel(self):
        # Center weight of the sigma=1 kernel, radius 3, renormalized.
        out = gaussian_filter(TimeSeries([0, 0, 1, 0, 0]), 1.0)
        k = np.exp(-np.arange(-3, 4) ** 2 / 2.0)
        k /= k.sum()
        assert abs(out.values[2] - k[3]) < 1e-12
        assert abs(k[3] - 0.3990502796524549) < 1e-12

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            gaussian_filter(TimeSeries([1, 2]), -0.5)

    @given(float_series, st.floats(0.2, 4.0, allow_nan=False))
    def test_matches_direct_oracle(self, values, sigma):
        out = gaussian_filter(TimeSeries(values), sigma)
        assert np.allclose(out.values, gaussian_direct(values, sigma), atol=1e-9)


class TestCutoff:
    def test_constant_keep_zero_unchanged(self):
        out = cutoff_filter(TimeSeries([4.0] * 8), 0)
        assert np.allclose(out.values, 4.0, atol=1e-9)

    def test_full_spectrum_identity(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, 16)
        out = cutoff_filter(TimeSeries(values), 8)
        assert np.allclose(out.values, values, atol=1e-9)

    def test_single_tone_removed(self):
        values = np.cos(2 * np.pi * 2 * np.arange(8) / 8)
        out = cutoff_filter(TimeSeries(values), 1)
        assert np.max(np.abs(out.values)) < 1e-9

    def test_rejects_negative_keep(self):
        with pytest.raises(ValueError):
            cutoff_filter(TimeSeries([1, 2]), -1)

    @given(float_series, st.integers(0, 8))
    @settings(max_examples=40)
    def test_matches_direct_dft_oracle(self, values, keep):
        out = cutoff_filter(TimeSeries(values), keep)
        assert np.allclose(out.values, cutoff_direct(values, keep), atol=1e-7)


class TestSubsample:
    def test_stride_one_identity(self):
        series = TimeSeries([3, 1, 4, 1, 5])
        assert np.array_equal(uniform_subsample(series, 1).values, series.values)

    def test_linear_data_exact(self):
        out = uniform_subsample(TimeSeries([0, 1, 2, 3, 4]), 2)
        assert np.allclose(out.values, [0, 1, 2, 3, 4])

    def test_last_index_always_kept(self):
        out = uniform_subsample(TimeSeries([0, 2, 0, 2, 0, 2]), 2)
        assert np.allclose(out.values, [0, 0, 0, 0, 0, 2])

    def test_interpolates_in_position_space(self):
        series = TimeSeries([0.0, 1.0, 2.0, 4.0], positions=[0.0, 1.0, 2.0, 10.0])
        out = uniform_subsample(series, 3)
        assert np.allclose(out.values, [0.0, 0.4, 0.8, 4.0])

    @given(float_series, st.integers(1, 8))
    def test_matches_interp_oracle(self, values, stride):
        out = uniform_subsample(TimeSeries(values), stride)
        n = len(values)
        kept = sorted(set(range(0, n, stride)) | {n - 1})
        expected = interp_direct(range(n), kept, [values[i] for i in kept])
        assert np.allclose(out.values, expected)
        assert np.array_equal(out.values[kept], np.asarray(values)[kept])


class TestDouglasPeucker:
    def test_triangle_example(self):
        series = TimeSeries([0, 0, 1, 0, 0])
        assert douglas_peucker_indices(series, 0.5) == [0, 2, 4]
        out = douglas_peucker(series, 0.5)
        assert np.allclose(out.values, [0, 0.5, 1, 0.5, 0])

    def test_collinear_keeps_endpoints_only(self):
        series = TimeSeries([0, 1, 2, 3])
        assert douglas_peucker_indices(series, 0.1) == [0, 3]
        assert np.allclose(douglas_peucker(series, 0.1).values, [0, 1, 2, 3])

    def test_epsilon_zero_zero_residual(self):
        rng = np.random.default_rng(11)
        values = rng.normal(0, 1, 40)
        out = douglas_peucker(TimeSeries(values), 0.0)
        assert np.max(np.abs(out.values - values)) == 0.0

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            douglas_peucker(TimeSeries([1, 2]), -0.1)

    @given(float_series, st.floats(0.0, 5.0, allow_nan=False))
    def test_residual_bounded_by_epsilon(self, values, epsilon):
        out = douglas_peucker(TimeSeries(values), epsilon)
        assert np.max(np.abs(out.values - np.asarray(values))) <= epsilon + 1e-12

    @settings(max_examples=300)
    @given(
        st.one_of(int_series, float_series, normal_series).flatmap(
            lambda values: st.tuples(
                st.just(values),
                st.none()
                | st.lists(st.integers(1, 3), min_size=len(values), max_size=len(values))
                | st.lists(
                    st.floats(0.01, 10.0, allow_nan=False),
                    min_size=len(values),
                    max_size=len(values),
                ),
            )
        ),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 5.0, allow_nan=False),
    )
    def test_segment_splits_equal_global_greedy(self, data, epsilon):
        # Integer values and steps make equal residuals in and across segments.
        values, steps = data
        positions = None if steps is None else np.cumsum(steps, dtype=np.float64)
        series = TimeSeries(values, positions=positions)
        assert douglas_peucker_indices(series, epsilon) == douglas_peucker_greedy(
            values, series.xs, epsilon
        )

    def test_kept_points_nest_as_epsilon_decreases(self):
        rng = np.random.default_rng(5)
        series = TimeSeries(rng.normal(0, 1, 60))
        previous: set[int] = set()
        for epsilon in (2.0, 1.0, 0.5, 0.25, 0.0):
            kept = set(douglas_peucker_indices(series, epsilon))
            assert previous <= kept
            previous = kept


@pytest.mark.parametrize("apply", ALL_FILTERS)
def test_length_and_positions_preserved(apply):
    series = TimeSeries(
        [0.0, 3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0],
        positions=[0, 1, 2, 3, 5, 8, 13, 21, 34],
        label="fib",
    )
    out = apply(series)
    assert len(out) == len(series)
    assert np.array_equal(out.positions, series.positions)
    assert out.label == series.label


@pytest.mark.parametrize("apply", ALL_FILTERS)
def test_constants_map_to_themselves(apply):
    series = TimeSeries([7.25] * 12)
    out = apply(series)
    assert np.allclose(out.values, 7.25, atol=1e-9)


@pytest.mark.parametrize(
    "apply,name,value",
    [
        (median_filter, "window", 3.0),
        (median_filter, "window", True),
        (cutoff_filter, "keep_frequencies", 2.0),
        (uniform_subsample, "stride", 2.0),
        (uniform_subsample, "stride", True),
    ],
)
def test_integer_parameter_refuses_float_and_bool(apply, name, value):
    with pytest.raises(ValueError) as info:
        apply(TimeSeries([0.0, 3.0, 1.0, 4.0, 1.0, 5.0]), value)
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("apply", [median_filter, cutoff_filter, uniform_subsample])
def test_numpy_integer_parameter_keeps_every_bit(apply):
    series = TimeSeries(np.random.default_rng(6).normal(0.0, 1.0, 40))
    expected = apply(series, 3).values
    for value in (np.int64(3), np.uint8(3)):
        assert apply(series, value).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("param", [True, "3", np.True_])
def test_method_refuses_bool_and_string_parameters(param):
    with pytest.raises(ValueError) as info:
        METHODS["median"](TimeSeries([0.0, 3.0, 1.0, 4.0, 1.0, 5.0]), param)
    assert str(info.value) == f"median parameter must be a real number, got {param!r}"
