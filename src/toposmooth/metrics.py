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

from bisect import bisect_left

import numpy as np

from .series import TimeSeries, integer_argument, real_argument, sample_std

# Template rows, and 64-bit words of template columns, counted at a time in
# approx_entropy, which raises them to at least m rows and ceil(m / 64)
# words when m is larger; the counts do not depend on them. With 8 words a block's
# arrays stay under 128 KB, below which glibc reuses freed heap; at 16
# words every n=1024 call faulted in about 200 fresh pages and took about
# 1.4 times as long (2-CPU Xeon).
_BLOCK_ROWS = 1024
_BLOCK_WORDS = 8

DEFAULT_M = 2  # ApEn's template length when none is given
DEFAULT_R_FACTOR = 0.2  # r as a multiple of the sample std when no r is given


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


def _pair(point) -> tuple[float, float]:
    """A raw diagram point as (birth, death) floats; anything but two real numbers is refused."""
    try:
        birth, death = point
        return float(real_argument("birth", birth)), float(real_argument("death", death))
    except (TypeError, ValueError):
        raise ValueError(f"diagram point {point!r} must be a pair of real numbers") from None


def _points(diagram) -> np.ndarray:
    """Coerce a PersistenceDiagram or finite pairs, birth <= death, to an (m, 2) array."""
    if hasattr(diagram, "finite_points"):
        return diagram.finite_points()  # finite: the series was validated
    pts = [_pair(p) for p in diagram]
    out = np.asarray(pts, dtype=np.float64).reshape(len(pts), 2)
    if len(out) and not np.all(np.isfinite(out)):
        raise ValueError("diagram points must be finite")
    if np.any(out[:, 1] < out[:, 0]):
        raise ValueError(f"diagram point {next(p for p in pts if p[1] < p[0])} has death < birth")
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
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(adjacent)))))
    graph = csr_matrix((np.ones(len(cols), dtype=bool), cols, indptr), shape=adjacent.shape)
    # A row without an edge is left unmatched, so it is not covered.
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
    # so the largest candidate kept is feasible and is never probed.
    candidates = candidates[(candidates > bound) & (candidates <= halves.max())]
    return float(candidates[bisect_left(candidates, True, hi=len(candidates) - 1, key=feasible)])


def _run_ends(x: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each sample's position in a stable sort of ``x``, and the first and
    one-past-last position of the samples within ``r`` of it.

    Rounded subtraction is monotone, so the values ``v`` with
    ``|x_p - v| <= r`` in floats form one run of the sorted distinct values.
    ``searchsorted`` on ``x - r`` and ``x + r`` finds its ends up to the
    rounding of those sums (values near 1e16 round ``x + 0.5`` to ``x``);
    each end then steps one value at a time until the exact test holds at
    it and fails just past it.
    """
    n = len(x)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)  # the position of each distinct value's first sample
    values = ordered[starts]
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
    bounds = np.append(starts, n)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    rank = (np.cumsum(new) - 1)[position]  # each sample's distinct value
    return position, bounds[first][rank], bounds[last + 1][rank]


def _shifted(related: np.ndarray, k: int, span: int, size: int) -> np.ndarray:
    """``size`` words of a relation block moved ``k`` rows and ``k`` columns on.

    ``related`` holds word w of relation row i at ``w * span + i``. A row
    step is one place; a column step is one bit, drawn across the word
    boundary from the next word, ``span`` places on.
    """
    whole, bits = divmod(k, 64)
    at = whole * span + k
    if not bits:
        return related[at : at + size]
    moved = related[at : at + size] >> bits
    moved |= related[at + span : at + span + size] << (64 - bits)
    return moved


def _row_counts(match: np.ndarray, span: int, rows: int, dtype) -> np.ndarray:
    """The set bits of each of the first ``rows`` rows of a match block,
    summed in ``dtype``, which must hold a row's number of columns."""
    return np.bitwise_count(match).reshape(-1, span)[:, :rows].sum(axis=0, dtype=dtype)


def entropy_tolerance(series, r_factor: float) -> float:
    """ApEn's tolerance r: ``r_factor`` times the sample std; a constant series has none."""
    real_argument("r_factor", r_factor)
    std = sample_std(_values(series))
    if std == 0:
        raise ValueError("series is constant; entropy calibration undefined")
    return r_factor * std


def check_entropy_arguments(m: int, r: float, n: int) -> None:
    """Refuse, in this order, ``m`` not an integer or below 1, ``r`` not a
    real number or not finite and > 0, and ``n <= m + 1``."""
    if integer_argument("m", m) < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not (0 < real_argument("r", r) < np.inf):
        raise ValueError(f"r must be finite and > 0, got {r}")
    if n <= m + 1:
        raise ValueError(f"series of length {n} too short for m={m}")


def approx_entropy(series, m: int = DEFAULT_M, r: float | None = None) -> float:
    """Classic approximate entropy with self-matches included.

    ``phi(m)`` is the mean log-fraction of length-m templates within
    Chebyshev distance ``r`` of each template; the statistic is
    ``phi(m) - phi(m+1)``. ``r`` defaults to ``entropy_tolerance(series,
    DEFAULT_R_FACTOR)``, which refuses a constant input; when sweeping
    smoothing levels it should be computed once from the original series
    and held fixed. ``check_entropy_arguments`` refuses bad m, r and n.

    The match counts are exact integers from one relation between samples,
    R(p, q): ``|x_p - x_q| <= r``, the float test of the dense pairwise
    definition. Templates i and j match at length L iff R(i + k, j + k)
    holds for every k < L, so the length-m match matrix is the AND of m
    diagonal-shifted slices of R, and one more slice gives length m + 1.
    Each sample's matches form one run of positions in a sorted copy of
    the series. Over a block of 64-bit words of columns, the bitsets of
    the block's columns sorted before each position take at most one more
    value than the block has columns; a table of them, built once per
    block, gives each row of R as the XOR of two table rows. A shift by k
    rows and k bits slides R k steps along its diagonal, so the matches
    are word shifts and ANDs, built a block of rows at a time and counted
    with ``np.bitwise_count``. The log-fractions are then summed in the same
    fixed blocks as the dense definition, so the result is bit-identical
    to it.
    """
    x = _values(series)
    if r is None:
        r = entropy_tolerance(series, DEFAULT_R_FACTOR)
    n = len(x)
    check_entropy_arguments(m, r, n)
    m = int(m)  # _shifted's uint64 words have no shift by a signed numpy integer

    position, lo, hi = _run_ends(x, r)
    count = n - m + 1  # templates of length m; there is one fewer of length m + 1
    hits_m = np.zeros(count, dtype=np.intp)
    hits_longer = np.zeros(count - 1, dtype=np.intp)
    # A shift by k <= m brings in the columns of up to `spill` more words,
    # and m relation rows past each block of rows. Blocks at least that
    # large keep the m shift-ANDs per block from dominating at large m.
    # The column blocks share the template columns' words about evenly.
    spill = -(-m // 64)
    columns = -(-count // 64)
    width = -(-columns // max(1, columns // max(_BLOCK_WORDS, spill)))  # words a block
    words = width + spill
    rows = max(_BLOCK_ROWS, m)
    tally = np.min_scalar_type(64 * width)  # holds any row's count
    seen = np.empty(n + 1, dtype=np.min_scalar_type(64 * words))
    for first_column in range(0, count, 64 * width):
        # Row t of the table is the bitset of the block's first t columns
        # along the sorted order. seen[p] counts the block's columns sorted
        # before p, so the block's columns within r of a sample, at sorted
        # positions lo .. hi - 1, are table rows seen[hi] XOR seen[lo].
        at = position[first_column : first_column + 64 * words]
        column = np.argsort(at)
        table = np.zeros((words, len(column) + 1), dtype=np.uint64)
        table[column // 64, np.arange(1, len(column) + 1)] = np.left_shift(
            np.uint64(1), (column % 64).astype(np.uint64)
        )
        np.bitwise_or.accumulate(table, axis=1, out=table)
        seen[:] = 0
        seen[at + 1] = 1
        np.cumsum(seen, out=seen)
        for start in range(0, count, rows):
            stop = min(start + rows, count)
            # Relation rows start .. stop + m - 1 (at most n - 1): the template
            # at i reads samples i .. i + m at length m + 1. The m spare
            # words past the grid keep every shifted slice in bounds; what a
            # slice reads from them lands only in rows that are not counted.
            span = min(stop + m, n) - start
            related = np.empty(words * span + m, dtype=np.uint64)
            grid = related[: words * span].reshape(words, span)
            np.take(table, seen[hi[start : start + span]], axis=1, out=grid)
            grid ^= np.take(table, seen[lo[start : start + span]], axis=1)
            size = width * span
            match = related[:size]
            for k in range(1, m):
                match = match & _shifted(related, k, span, size)
            hits_m[start:stop] += _row_counts(match, span, stop - start, tally)
            longer = min(stop, count - 1) - start
            hits_longer[start : start + longer] += _row_counts(
                match & _shifted(related, m, span, size), span, longer, tally
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
