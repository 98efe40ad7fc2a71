"""Five conventional smoothing baselines, one scalar parameter each.

All filters preserve length and positions. Subsampled and piecewise-linear
outputs are densified back to full length by interpolation so that every
method's output can be compared pointwise against the input.
"""

from __future__ import annotations

import math

import numpy as np

from .series import TimeSeries, integer_argument


def median_filter(series: TimeSeries, window: int) -> TimeSeries:
    """Sliding median with replicate padding; ``window`` must be odd >= 1.

    A window wider than 2n - 1 gives the same output as 2n - 1: every such
    window holds the whole series, so its median lies between the first and
    last values, and widening it adds one copy of each, keeping that median.
    """
    window = integer_argument("window", window)
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be an odd integer >= 1, got {window}")
    radius = min(window // 2, len(series) - 1)
    padded = np.pad(series.values, radius, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * radius + 1)
    return series.with_values(np.median(windows, axis=1))


def gaussian_filter(series: TimeSeries, sigma: float) -> TimeSeries:
    """Convolution with a discrete Gaussian kernel, replicate padding.

    Kernel radius is ceil(3*sigma); weights exp(-k^2 / (2 sigma^2)) are
    renormalized to sum to 1, so constants pass through unchanged.
    ``sigma`` = 0 returns the input, as does a sigma whose square underflows
    to 0.
    """
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


# Values near the float limit overflow to a non-finite output, which the
# returned series refuses with one error; numpy need not warn first.
@np.errstate(over="ignore", invalid="ignore")
def cutoff_filter(series: TimeSeries, keep_frequencies: int) -> TimeSeries:
    """Low-pass DFT filter: keep DC and bins 1..keep, zero the rest."""
    keep_frequencies = integer_argument("keep_frequencies", keep_frequencies)
    if keep_frequencies < 0:
        raise ValueError(f"keep_frequencies must be >= 0, got {keep_frequencies}")
    n = len(series)
    spectrum = np.fft.rfft(series.values)
    spectrum[keep_frequencies + 1 :] = 0.0
    return series.with_values(np.fft.irfft(spectrum, n=n))


def uniform_subsample(series: TimeSeries, stride: int) -> TimeSeries:
    """Keep every ``stride``-th sample (and the last), interpolate between."""
    stride = integer_argument("stride", stride)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    n = len(series)
    kept = list(range(0, n, stride))
    if kept[-1] != n - 1:
        kept.append(n - 1)
    xs = series.xs
    return series.with_values(np.interp(xs, xs[kept], series.values[kept]))


# Near the float limit a residual can overflow to inf, which is above any
# epsilon and correctly keeps its sample; numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def douglas_peucker_indices(series: TimeSeries, epsilon: float) -> list[int]:
    """Sample indices kept by greedy polyline simplification.

    Starting from the two boundary points, repeatedly insert the sample
    with the largest absolute vertical residual against the current
    piecewise-linear reconstruction (ties: smallest index) until that
    residual is <= ``epsilon``.

    A residual depends only on the kept points on either side, so each
    segment is split at its own worst sample instead; the kept set is the same.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    values = series.values
    xs = series.xs
    n = len(values)
    kept = [0, n - 1]
    stack = [(0, n - 1)]
    while stack:
        left, right = stack.pop()
        if right - left < 2:
            continue
        inner, ends = slice(left + 1, right), [left, right]
        residual = np.abs(values[inner] - np.interp(xs[inner], xs[ends], values[ends]))
        worst = int(np.argmax(residual))
        if residual[worst] > epsilon:
            worst += left + 1
            kept.append(worst)
            stack += [(left, worst), (worst, right)]
    return sorted(kept)


def douglas_peucker(series: TimeSeries, epsilon: float) -> TimeSeries:
    """Greedy polyline simplification, densified back to full length."""
    kept = douglas_peucker_indices(series, epsilon)
    xs = series.xs
    return series.with_values(np.interp(xs, xs[kept], series.values[kept]))
