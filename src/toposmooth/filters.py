"""Five conventional smoothing baselines, one scalar parameter each.

All filters preserve length and positions. Subsampled and piecewise-linear
outputs are densified back to full length by interpolation so that every
method's output can be compared pointwise against the input.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .series import TimeSeries, require_valid


def median_filter(series: TimeSeries, window: int) -> TimeSeries:
    """Sliding median with replicate padding; ``window`` must be odd >= 1."""
    require_valid(series)
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be an odd integer >= 1, got {window}")
    if window == 1:
        return series.with_values(series.values)
    radius = window // 2
    padded = np.pad(series.values, radius, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, window)
    return series.with_values(np.median(windows, axis=1))


def gaussian_filter(series: TimeSeries, sigma: float) -> TimeSeries:
    """Convolution with a discrete Gaussian kernel, replicate padding.

    Kernel radius is ceil(3*sigma); weights exp(-k^2 / (2 sigma^2)) are
    renormalized to sum to 1, so constants pass through unchanged.
    ``sigma`` = 0 returns the input, as does a sigma whose square underflows
    to 0.
    """
    require_valid(series)
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma**2 == 0:
        return series.with_values(series.values)
    radius = math.ceil(3.0 * sigma)
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    # Below sigma ~ 5e-155 the off-centre exponents overflow to -inf, whose
    # exp is the exact limit 0.
    with np.errstate(over="ignore"):
        weights = np.exp(-(k**2) / (2.0 * sigma**2))
    weights /= weights.sum()
    padded = np.pad(series.values, radius, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * radius + 1)
    return series.with_values(windows @ weights)


def cutoff_filter(series: TimeSeries, keep_frequencies: int) -> TimeSeries:
    """Low-pass DFT filter: keep DC and bins 1..keep, zero the rest."""
    require_valid(series)
    if keep_frequencies < 0:
        raise ValueError(f"keep_frequencies must be >= 0, got {keep_frequencies}")
    n = len(series)
    spectrum = np.fft.rfft(series.values)
    spectrum[keep_frequencies + 1 :] = 0.0
    return series.with_values(np.fft.irfft(spectrum, n=n))


def uniform_subsample(series: TimeSeries, stride: int) -> TimeSeries:
    """Keep every ``stride``-th sample (and the last), interpolate between."""
    require_valid(series)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    n = len(series)
    kept = list(range(0, n, stride))
    if kept[-1] != n - 1:
        kept.append(n - 1)
    xs = series.xs
    return series.with_values(np.interp(xs, xs[kept], series.values[kept]))


def douglas_peucker_indices(series: TimeSeries, epsilon: float) -> list[int]:
    """Sample indices kept by greedy polyline simplification.

    Starting from the two boundary points, repeatedly insert the sample
    with the largest absolute vertical residual against the current
    piecewise-linear reconstruction (ties: smallest index) until that
    residual is <= ``epsilon``.
    """
    require_valid(series)
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    values = series.values
    xs = series.xs
    n = len(values)
    kept = [0, n - 1]
    while len(kept) < n:
        recon = np.interp(xs, xs[kept], values[kept])
        residual = np.abs(values - recon)
        residual[kept] = 0.0
        worst = int(np.argmax(residual))
        if residual[worst] <= epsilon:
            break
        bisect.insort(kept, worst)
    return kept


def douglas_peucker(series: TimeSeries, epsilon: float) -> TimeSeries:
    """Greedy polyline simplification, densified back to full length."""
    kept = douglas_peucker_indices(series, epsilon)
    xs = series.xs
    return series.with_values(np.interp(xs, xs[kept], series.values[kept]))
