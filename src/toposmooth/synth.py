"""Deterministic synthetic datasets for benchmarking and tests.

Three desk-scale signal characters: sparse large spikes over small noise,
a low-frequency sinusoid plus noise, and a random walk. Identical
(kind, n, seed) always reproduces the identical series.
"""

from __future__ import annotations

import numpy as np

from .series import TimeSeries, integer_argument

KINDS = ("spike_train", "noisy_sine", "random_walk")

SPIKE_COUNT = 5
SPIKE_NOISE_SCALE = 1.0


def generate_synthetic(kind: str, n: int, seed: int) -> TimeSeries:
    """Generate one synthetic series; ``n`` (at least 16) and ``seed`` are integers."""
    key = kind.replace("-", "_").lower()
    if key not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    n, seed = integer_argument("n", n), integer_argument("seed", seed)
    if n < 16:
        raise ValueError(f"n must be >= 16, got {n}")
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    rng = np.random.default_rng(np.uint64(seed))
    if key == "spike_train":
        values = rng.normal(0.0, SPIKE_NOISE_SCALE, n)
        spikes = rng.choice(n, SPIKE_COUNT, replace=False)
        values[spikes] += rng.uniform(18.0, 28.0, SPIKE_COUNT)
    elif key == "noisy_sine":
        t = np.arange(n)
        values = 10.0 * np.sin(2.0 * np.pi * 3.0 * t / n) + rng.normal(0.0, 1.0, n)
    else:
        values = np.cumsum(rng.normal(0.0, 1.0, n))
    return TimeSeries(values, label=f"{key}-n{n}-seed{seed}")
