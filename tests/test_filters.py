import numpy as np
import pytest
from helpers import any_series, float_series
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cutoff_direct, gaussian_direct, interp_direct, median_direct

from toposmooth import (
    TimeSeries,
    cutoff_filter,
    douglas_peucker,
    gaussian_filter,
    median_filter,
    uniform_subsample,
)
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
