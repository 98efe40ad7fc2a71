"""Task measures: residual norms, diagram distances, approximate entropy.

The diagram distances use the standard finite diagonal augmentation: each
off-diagonal point of one diagram may match a point of the other or its
own projection onto the diagonal. The l1 point cost makes the diagonal
cost of a point its persistence; the l-infinity point cost makes it half
the persistence.

W1 is one assignment problem on the augmented (m+n) x (m+n) matrix. The
bottleneck distance needs only the m x n cross block: at a cost t, a point
whose half-persistence exceeds t is forced to match across, every other
point may take the diagonal, and diagonal slots pair freely. A matching
that covers the forced points of one diagram and one that covers those of
the other combine into one that covers both (Mendelsohn-Dulmage), so t is
feasible iff each side's forced points can be matched within t.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial import cKDTree

from .series import TimeSeries, sample_std


def _values(x) -> np.ndarray:
    if isinstance(x, TimeSeries):
        return x.values
    return np.asarray(x, dtype=np.float64)


def _check_lengths(a: np.ndarray, b: np.ndarray) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")


def norm_l1(a, b) -> float:
    """Sum of absolute pointwise differences."""
    va, vb = _values(a), _values(b)
    _check_lengths(va, vb)
    return float(np.sum(np.abs(va - vb)))


def norm_linf(a, b) -> float:
    """Largest absolute pointwise difference."""
    va, vb = _values(a), _values(b)
    _check_lengths(va, vb)
    if len(va) == 0:
        return 0.0
    return float(np.max(np.abs(va - vb)))


def _points(diagram) -> np.ndarray:
    """Coerce a PersistenceDiagram or (birth, death) pairs to an (m, 2) array."""
    if hasattr(diagram, "finite_points"):
        return diagram.finite_points()  # finite: the series was validated
    pts = [(float(p[0]), float(p[1])) for p in diagram]
    out = np.asarray(pts, dtype=np.float64).reshape(len(pts), 2)
    if len(out) and not np.all(np.isfinite(out)):
        raise ValueError("diagram points must be finite")
    return out


def wasserstein1(c, c_prime) -> float:
    """Minimum total l1 matching cost under diagonal augmentation.

    Solved exactly as an assignment problem on the (m+n) x (m+n)
    augmented cost matrix; a point left unmatched takes its own diagonal
    slot at a cost equal to its persistence, and diagonal slots pair
    freely.
    """
    a, b = _points(c), _points(c_prime)
    m, n = len(a), len(b)
    cost = np.full((m + n, m + n), np.inf)
    # Adding the two gaps gives the floats of a sum over a length-2 axis, faster.
    cost[:m, :n] = np.abs(a[:, None, 0] - b[None, :, 0]) + np.abs(a[:, None, 1] - b[None, :, 1])
    cost[:m, n:][np.diag_indices(m)] = a[:, 1] - a[:, 0]
    cost[m:, :n][np.diag_indices(n)] = b[:, 1] - b[:, 0]
    cost[m:, n:] = 0.0
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def _covers_rows(adjacent: np.ndarray) -> bool:
    """Does the bipartite graph given by ``adjacent`` match every row?"""
    match = maximum_bipartite_matching(csr_matrix(adjacent), perm_type="column")
    return bool(np.all(match >= 0))


def bottleneck(c, c_prime) -> float:
    """Minimax matching cost (l-infinity point cost, diagonal cost p/2).

    Exact: binary search over the finite set of candidate costs. A cost t
    is feasible iff the cross edges of cost <= t match every point of the
    first diagram whose half-persistence exceeds t, and, separately, every
    such point of the second; by Mendelsohn-Dulmage the two matchings
    combine into one, and all other points go to the diagonal.

    A point forced across at t needs an edge within t, so no cost below the
    largest min(half-persistence, nearest cross cost) is feasible; the
    search starts at that bound.
    """
    a, b = _points(c), _points(c_prime)
    cross = np.maximum(
        np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1])
    )
    half_a = (a[:, 1] - a[:, 0]) / 2.0
    half_b = (b[:, 1] - b[:, 0]) / 2.0
    halves = np.concatenate([half_a, half_b, [0.0]])
    candidates = np.unique(np.concatenate([cross.ravel(), halves]))
    # Sending every point to the diagonal costs the largest half-persistence,
    # so the largest candidate kept is feasible.
    candidates = candidates[candidates <= halves.max()]
    bound = max(
        np.minimum(half_a, cross.min(axis=1, initial=np.inf)).max(initial=-np.inf),
        np.minimum(half_b, cross.min(axis=0, initial=np.inf)).max(initial=-np.inf),
    )
    lo, hi = int(np.searchsorted(candidates, bound)), len(candidates) - 1
    mid = lo  # the bound is often the answer, so it is probed first
    while lo < hi:
        t = float(candidates[mid])
        close = cross <= t
        if _covers_rows(close[half_a > t]) and _covers_rows(close[:, half_b > t].T):
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return float(candidates[lo])


def approx_entropy(series, m: int = 2, r: float | None = None) -> float:
    """Classic approximate entropy with self-matches included.

    ``phi(m)`` is the mean log-fraction of length-m templates within
    Chebyshev distance ``r`` of each template; the statistic is
    ``phi(m) - phi(m+1)``. ``r`` defaults to 0.2 times the sample standard
    deviation of the input; when sweeping smoothing levels it should be
    computed once from the original series and held fixed.

    The match counts are exact integers from a kd-tree ball query in the
    l-infinity metric (distance ``<= r``, each template matching itself),
    not from comparing every pair of templates. The log-fractions are then
    summed in the same fixed blocks as the dense pairwise definition, so
    the result is bit-identical to it.
    """
    x = _values(series)
    bad = np.flatnonzero(~np.isfinite(x))
    if len(bad):
        raise ValueError(f"non-finite sample {float(x[bad[0]])} at index {int(bad[0])}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if r is None:
        r = 0.2 * sample_std(x)
    if not (0 < r < np.inf):
        raise ValueError(f"r must be finite and > 0, got {r}")
    n = len(x)
    if n <= m + 1:
        raise ValueError(f"series of length {n} too short for m={m}")

    def phi(mm: int) -> float:
        templates = np.lib.stride_tricks.sliding_window_view(x, mm)
        count = len(templates)
        # Each ball covers many leaves, so larger leaves (a plain scan in C)
        # beat a deeper tree: 64 took about 40% less time than the default
        # 16 on walks and smoothed series from n=1024 to n=16384 (2-CPU
        # Xeon). The counts do not depend on it.
        hits = cKDTree(templates, leafsize=64).query_ball_point(
            templates, r, p=np.inf, return_length=True
        )
        total = 0.0
        # The block size of the dense pairwise kernel: summing per block in
        # this order keeps every bit of its result.
        chunk = max(1, int(2**22 // (count * mm + 1)))
        for start in range(0, count, chunk):
            frac = hits[start : start + chunk] / count
            total += float(np.sum(np.log(frac)))
        return total / count

    return phi(m) - phi(m + 1)

