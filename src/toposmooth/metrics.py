"""Task measures: residual norms, diagram distances, approximate entropy.

The diagram distances use the standard finite diagonal augmentation: each
off-diagonal point of one diagram may match a point of the other or its
own projection onto the diagonal. The l1 point cost makes the diagonal
cost of a point its persistence; the l-infinity point cost makes it half
the persistence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .series import TimeSeries, sample_std


@dataclass(frozen=True)
class DiagramPoint:
    birth: float
    death: float

    @property
    def persistence(self) -> float:
        return self.death - self.birth


@dataclass(frozen=True)
class Matching:
    """An optimal bijection between two diagonally augmented diagrams.

    Each entry pairs a point of the first diagram (or ``None`` for the
    diagonal) with a point of the second (or ``None``); every off-diagonal
    point appears exactly once.
    """

    pairs: tuple[tuple[tuple[float, float] | None, tuple[float, float] | None], ...]
    total_cost: float


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
    """Coerce diagram points to an (m, 2) array of (birth, death)."""
    if hasattr(diagram, "finite_points"):
        diagram = diagram.finite_points()
    pts = [
        (p.birth, p.death) if isinstance(p, DiagramPoint) else (float(p[0]), float(p[1]))
        for p in diagram
    ]
    out = np.asarray(pts, dtype=np.float64).reshape(len(pts), 2)
    if len(out) and not np.all(np.isfinite(out)):
        raise ValueError("diagram points must be finite")
    return out


def wasserstein1_matching(c, c_prime) -> Matching:
    """Optimal l1 matching under diagonal augmentation.

    Solved exactly as an assignment problem on the (m+n) x (m+n)
    augmented cost matrix; unmatched points pair with the diagonal at a
    cost equal to their persistence.
    """
    a, b = _points(c), _points(c_prime)
    m, n = len(a), len(b)
    if m == 0 and n == 0:
        return Matching(pairs=(), total_cost=0.0)
    if m == 0:
        return Matching(
            pairs=tuple((None, tuple(q)) for q in b),
            total_cost=float(np.sum(b[:, 1] - b[:, 0])),
        )
    if n == 0:
        return Matching(
            pairs=tuple((tuple(q), None) for q in a),
            total_cost=float(np.sum(a[:, 1] - a[:, 0])),
        )

    cross = np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
    pa = a[:, 1] - a[:, 0]
    pb = b[:, 1] - b[:, 0]
    big = float(cross.sum() + pa.sum() + pb.sum() + 1.0)

    cost = np.zeros((m + n, m + n))
    cost[:m, :n] = cross
    cost[:m, n:] = big
    cost[:m, n:][np.diag_indices(m)] = pa
    cost[m:, :n] = big
    cost[m:, :n][np.diag_indices(n)] = pb
    rows, cols = linear_sum_assignment(cost)
    pairs = []
    for i, j in zip(rows, cols):
        left = tuple(a[i]) if i < m else None
        right = tuple(b[j]) if j < n else None
        if left is not None or right is not None:
            pairs.append((left, right))
    return Matching(pairs=tuple(pairs), total_cost=float(cost[rows, cols].sum()))


def wasserstein1(c, c_prime) -> float:
    """Minimum total l1 matching cost under diagonal augmentation."""
    return wasserstein1_matching(c, c_prime).total_cost


def _bottleneck_feasible(cross: np.ndarray, pa: np.ndarray, pb: np.ndarray, t: float) -> bool:
    """Is there a perfect matching whose largest cost is <= t?"""
    m, n = len(pa), len(pb)
    rr, cc = np.nonzero(cross <= t)
    ia = np.flatnonzero(pa / 2.0 <= t)
    jb = np.flatnonzero(pb / 2.0 <= t)
    # Diagonal slots match each other freely.
    dd_rows = np.repeat(np.arange(m, m + n), m)
    dd_cols = np.tile(np.arange(n, n + m), n)
    rows = np.concatenate([rr, ia, m + jb, dd_rows])
    cols = np.concatenate([cc, n + ia, jb, dd_cols])
    graph = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(m + n, m + n)
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    return bool(np.all(match >= 0))


def bottleneck(c, c_prime) -> float:
    """Minimax matching cost (l-infinity point cost, diagonal cost p/2).

    Exact: binary search over the finite set of candidate costs, testing
    bipartite feasibility at each.
    """
    a, b = _points(c), _points(c_prime)
    m, n = len(a), len(b)
    pa = a[:, 1] - a[:, 0] if m else np.zeros(0)
    pb = b[:, 1] - b[:, 0] if n else np.zeros(0)
    if m == 0 and n == 0:
        return 0.0
    if m == 0:
        return float(np.max(pb) / 2.0)
    if n == 0:
        return float(np.max(pa) / 2.0)

    cross = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    candidates = np.unique(
        np.concatenate([cross.ravel(), pa / 2.0, pb / 2.0, [0.0]])
    )
    lo, hi = 0, len(candidates) - 1
    # The largest candidate is always feasible (everything matches).
    while lo < hi:
        mid = (lo + hi) // 2
        if _bottleneck_feasible(cross, pa, pb, float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def approx_entropy(series, m: int = 2, r: float | None = None) -> float:
    """Classic approximate entropy with self-matches included.

    ``phi(m)`` is the mean log-fraction of length-m templates within
    Chebyshev distance ``r`` of each template; the statistic is
    ``phi(m) - phi(m+1)``. ``r`` defaults to 0.2 times the sample standard
    deviation of the input; when sweeping smoothing levels it should be
    computed once from the original series and held fixed.
    """
    x = _values(series)
    bad = np.flatnonzero(~np.isfinite(x))
    if len(bad):
        raise ValueError(f"non-finite sample {float(x[bad[0]])} at index {int(bad[0])}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if r is None:
        r = 0.2 * sample_std(x)
    if not (r > 0):
        raise ValueError(f"r must be > 0, got {r}")
    n = len(x)
    if n <= m + 1:
        raise ValueError(f"series of length {n} too short for m={m}")

    def phi(mm: int) -> float:
        templates = np.lib.stride_tricks.sliding_window_view(x, mm)
        count = len(templates)
        total = 0.0
        chunk = max(1, int(2**22 // (count * mm + 1)))
        for start in range(0, count, chunk):
            block = templates[start : start + chunk]
            dist = np.abs(block[:, None, :] - templates[None, :, :]).max(axis=2)
            frac = np.count_nonzero(dist <= r, axis=1) / count
            total += float(np.sum(np.log(frac)))
        return total / count

    return phi(m) - phi(m + 1)

