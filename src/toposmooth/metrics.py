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

from .series import TimeSeries, sample_std

# Cells of the sample relation built at a time in approx_entropy. Blocks
# of 2**18 cells (256 KB of booleans) took about half the time of 2**20 on
# smoothed series at n=1024 and 3/4 at n=16384 (2-CPU Xeon); the counts
# do not depend on it.
_BLOCK_CELLS = 2**18


def _values(x) -> np.ndarray:
    return (x if isinstance(x, TimeSeries) else TimeSeries(x)).values


def _pointwise_gap(a, b, reduce) -> float:
    va, vb = _values(a), _values(b)
    if len(va) != len(vb):
        raise ValueError(f"length mismatch: {len(va)} vs {len(vb)}")
    # Finite samples more than the float range apart differ by inf, which is
    # the float answer; numpy need not warn.
    with np.errstate(over="ignore"):
        return float(reduce(np.abs(va - vb)))


def norm_l1(a, b) -> float:
    """Sum of absolute pointwise differences."""
    return _pointwise_gap(a, b, np.sum)


def norm_linf(a, b) -> float:
    """Largest absolute pointwise difference."""
    return _pointwise_gap(a, b, np.max)


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

    Costs between finite values more than the float range apart overflow
    to inf. If every matching needs one, the solver finds the problem
    infeasible (inf marks a forbidden cell) and the float answer is inf.
    """
    # scipy is imported here and in _covers_rows only, on first call, so
    # that smoothing, persistence and entropy never load it.
    from scipy.optimize import linear_sum_assignment

    a, b = _points(c), _points(c_prime)
    m, n = len(a), len(b)
    cost = np.full((m + n, m + n), np.inf)
    with np.errstate(over="ignore"):
        # Adding the two gaps gives the floats of a sum over a length-2 axis, faster.
        cost[:m, :n] = np.abs(a[:, None, 0] - b[None, :, 0]) + np.abs(a[:, None, 1] - b[None, :, 1])
        cost[:m, n:][np.diag_indices(m)] = a[:, 1] - a[:, 0]
        cost[m:, :n][np.diag_indices(n)] = b[:, 1] - b[:, 0]
        cost[m:, n:] = 0.0
        try:
            rows, cols = linear_sum_assignment(cost)
        except ValueError:  # "cost matrix is infeasible"
            return float("inf")
        return float(cost[rows, cols].sum())


def _covers_rows(adjacent: np.ndarray) -> bool:
    """Does the bipartite graph given by ``adjacent`` match every row?"""
    from scipy.sparse import csr_matrix  # see wasserstein1
    from scipy.sparse.csgraph import maximum_bipartite_matching

    # Flat indices in increasing order list the edges row by row, which is
    # CSR order; 2-D np.nonzero gives the same pairs about 4x slower.
    rows, cols = np.divmod(np.flatnonzero(adjacent), adjacent.shape[1])
    degree = np.bincount(rows, minlength=len(adjacent))
    if not degree.all():  # a row without an edge cannot be covered
        return False
    indptr = np.concatenate(([0], np.cumsum(degree)))
    graph = csr_matrix((np.ones(len(cols), dtype=bool), cols, indptr), shape=adjacent.shape)
    match = maximum_bipartite_matching(graph, perm_type="column")
    return bool(np.all(match >= 0))


def bottleneck(c, c_prime) -> float:
    """Minimax matching cost (l-infinity point cost, diagonal cost p/2).

    Exact: binary search over the finite set of candidate costs. A cost t
    is feasible iff the cross edges of cost <= t match every point of the
    first diagram whose half-persistence exceeds t, and, separately, every
    such point of the second; by Mendelsohn-Dulmage the two matchings
    combine into one, and all other points go to the diagonal.

    A point forced across at t needs an edge within t, so no cost below the
    largest min(half-persistence, nearest cross cost) is feasible; and at
    least |m - n| points of the larger diagram take the diagonal, so none
    is below its |m - n|-th smallest half-persistence either. The larger of
    the two bounds is a candidate and often the answer (always, when one
    diagram is a most-persistent subset of the other), so it is tested
    before any candidate list is built; the search then runs only above it.
    """
    a, b = _points(c), _points(c_prime)
    # A cross cost between values more than the float range apart is inf,
    # which no candidate reaches; halving before subtracting keeps every
    # half-persistence finite.
    with np.errstate(over="ignore"):
        cross = np.maximum(
            np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1])
        )
    half_a = a[:, 1] / 2.0 - a[:, 0] / 2.0
    half_b = b[:, 1] / 2.0 - b[:, 0] / 2.0
    bound = max(
        np.minimum(half_a, cross.min(axis=1, initial=np.inf)).max(initial=-np.inf),
        np.minimum(half_b, cross.min(axis=0, initial=np.inf)).max(initial=-np.inf),
    )
    # At most min(m, n) points cross, so the |m - n| least persistent
    # points of the larger diagram are the fewest that can take the diagonal.
    larger, excess = (half_a, len(a) - len(b)) if len(a) > len(b) else (half_b, len(b) - len(a))
    if excess:
        bound = max(bound, np.partition(larger, excess - 1)[excess - 1])
    if bound == -np.inf:  # both diagrams are empty
        return 0.0

    def feasible(t: float) -> bool:
        close = cross <= t
        return _covers_rows(close[half_a > t]) and _covers_rows(close[:, half_b > t].T)

    if feasible(bound):
        return float(bound)
    halves = np.concatenate([half_a, half_b])
    candidates = np.unique(np.concatenate([cross.ravel(), halves]))
    # Sending every point to the diagonal costs the largest half-persistence,
    # so the largest candidate kept is feasible.
    candidates = candidates[(candidates > bound) & (candidates <= halves.max())]
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def _run_ends(x: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each sample's rank among the distinct values of ``x``, and the first
    and last rank of the samples within ``r`` of it.

    Rounded subtraction is monotone, so the values ``v`` with
    ``|x_p - v| <= r`` in floats form one run of the sorted distinct values.
    ``searchsorted`` on ``x - r`` and ``x + r`` finds its ends up to the
    rounding of those sums (values near 1e16 round ``x + 0.5`` to ``x``);
    each end then steps one value at a time until the exact test holds at
    it and fails just past it.
    """
    values, rank = np.unique(x, return_inverse=True)
    top = len(values) - 1

    def within(ends: np.ndarray) -> np.ndarray:
        return np.abs(values - values[ends]) <= r

    def settle(ends: np.ndarray, step: int) -> np.ndarray:
        while True:
            outward = np.clip(ends + step, 0, top)
            grow = (outward != ends) & within(outward)
            shrink = ~within(ends)
            if not (grow.any() or shrink.any()):
                return ends
            ends = np.where(grow, outward, np.where(shrink, ends - step, ends))

    first = settle(np.searchsorted(values, values - r, "left"), -1)
    last = settle(np.searchsorted(values, values + r, "right") - 1, 1)
    # The narrowest unsigned type that holds every rank compares fastest.
    dtype = np.min_scalar_type(top)
    return rank.astype(dtype), first[rank].astype(dtype), last[rank].astype(dtype)


def _row_counts(block: np.ndarray) -> np.ndarray:
    return np.bitwise_count(np.packbits(block, axis=1)).sum(axis=1)


def check_entropy_arguments(m: int, r: float) -> None:
    """Refuse a template length ``m`` below 1 or a tolerance ``r`` not finite and > 0."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not (0 < r < np.inf):
        raise ValueError(f"r must be finite and > 0, got {r}")


def approx_entropy(series, m: int = 2, r: float | None = None) -> float:
    """Classic approximate entropy with self-matches included.

    ``phi(m)`` is the mean log-fraction of length-m templates within
    Chebyshev distance ``r`` of each template; the statistic is
    ``phi(m) - phi(m+1)``. ``r`` defaults to 0.2 times the sample standard
    deviation of the input, and a constant input, which has no such r, is
    refused; when sweeping smoothing levels it should be computed once
    from the original series and held fixed.

    The match counts are exact integers from one relation between samples,
    R(p, q): ``|x_p - x_q| <= r``, the float test of the dense pairwise
    definition. Templates i and j match at length L iff R(i + k, j + k)
    holds for every k < L, so the length-m match matrix is the AND of m
    diagonal-shifted slices of R, and one more slice gives length m + 1.
    Each sample's matches form one run of the sorted values, so R is two
    comparisons of ranks against that run's ends, built a block of rows at
    a time. The log-fractions are then summed in the same fixed blocks as
    the dense definition, so the result is bit-identical to it.
    """
    x = _values(series)
    if r is None:
        std = sample_std(x)
        if std == 0:
            raise ValueError("series is constant; the default r (0.2 x sample std) is 0")
        r = 0.2 * std
    check_entropy_arguments(m, r)
    n = len(x)
    if n <= m + 1:
        raise ValueError(f"series of length {n} too short for m={m}")

    rank, first, last = _run_ends(x, r)
    count = n - m + 1  # templates of length m; there is one fewer of length m + 1
    hits_m = np.empty(count, dtype=np.int64)
    hits_longer = np.empty(count - 1, dtype=np.int64)
    rows = max(1, _BLOCK_CELLS // n)
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        # Relation rows start .. stop + m - 1 (at most n - 1): the template
        # at i reads samples i .. i + m at length m + 1.
        related = (rank >= first[start : stop + m, None]) & (rank <= last[start : stop + m, None])
        match = related[: stop - start, :count].copy()
        for k in range(1, m):
            match &= related[k : k + stop - start, k : k + count]
        hits_m[start:stop] = _row_counts(match)
        longer = min(stop, count - 1) - start
        hits_longer[start : start + longer] = _row_counts(
            match[:longer, :-1] & related[m : m + longer, m:]
        )

    def phi(hits: np.ndarray, mm: int) -> float:
        count = len(hits)
        total = 0.0
        # The block size of the dense pairwise kernel: summing per block in
        # this order keeps every bit of its result.
        chunk = max(1, int(2**22 // (count * mm + 1)))
        for start in range(0, count, chunk):
            frac = hits[start : start + chunk] / count
            total += float(np.sum(np.log(frac)))
        return total / count

    return phi(hits_m, m) - phi(hits_longer, m + 1)
