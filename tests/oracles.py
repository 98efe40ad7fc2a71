"""Brute-force reference implementations used only by the tests.

Each oracle restates a contract from first principles (explicit component
sets, exhaustive enumeration, direct definitions) so that it shares no
code path with the implementation it checks.
"""

from __future__ import annotations

import bisect
import cmath
import fractions
import math
from itertools import combinations, permutations

import numpy as np


def collapse(values, i: int) -> int:
    """Leftmost index of the run of equal values containing ``i``."""
    while i > 0 and values[i - 1] == values[i]:
        i -= 1
    return i


def sublevel_pairs(values):
    """Literal sublevel-set component tracker on the full series.

    Activates vertices one at a time in (value, index) order, keeping each
    connected component as an explicit set of indices. When an activation
    joins two components, the component whose minimum has the larger
    (value, collapsed index) key dies and is recorded as a pair with the
    activating vertex. Returns (pairs, essential_index) with all indices
    run-collapsed; pairs are (birth_idx, death_idx, birth_val, death_val).
    """
    values = [float(v) for v in values]
    n = len(values)
    comp_of = [None] * n
    comp_min: dict[int, tuple[float, int]] = {}
    members: dict[int, list[int]] = {}
    pairs = []
    next_id = 0
    for i in sorted(range(n), key=lambda j: (values[j], j)):
        neighbour_comps = []
        for j in (i - 1, i + 1):
            if 0 <= j < n and comp_of[j] is not None and comp_of[j] not in neighbour_comps:
                neighbour_comps.append(comp_of[j])
        if not neighbour_comps:
            comp_of[i] = next_id
            comp_min[next_id] = (values[i], collapse(values, i))
            members[next_id] = [i]
            next_id += 1
        elif len(neighbour_comps) == 1:
            cid = neighbour_comps[0]
            comp_of[i] = cid
            members[cid].append(i)
            comp_min[cid] = min(comp_min[cid], (values[i], collapse(values, i)))
        else:
            a, b = neighbour_comps
            dying, living = (a, b) if comp_min[a] > comp_min[b] else (b, a)
            if comp_min[dying][0] < values[i]:
                pairs.append(
                    (
                        comp_min[dying][1],
                        collapse(values, i),
                        comp_min[dying][0],
                        values[i],
                    )
                )
            # else: a merge inside one run of equal values, which plateau
            # collapsing treats as a single vertex (no pair).
            for j in members[dying]:
                comp_of[j] = living
            members[living].extend(members[dying])
            members[living].append(i)
            comp_of[i] = living
            comp_min[living] = min(comp_min[living], comp_min[dying])
            del members[dying], comp_min[dying]
    root = comp_of[0]
    return pairs, comp_min[root][1]


def classify_by_neighbours(values):
    """Extrema of a series by exhaustive neighbour comparison.

    Returns (index, "min"/"max", is_boundary, (span_lo, span_hi)) tuples,
    collapsing runs of equal values to their leftmost index.
    """
    values = [float(v) for v in values]
    n = len(values)
    out = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        left = values[i - 1] if i > 0 else None
        right = values[j + 1] if j + 1 < n else None
        kind = None
        if left is None and right is None:
            kind = "min"
        elif left is None:
            kind = "min" if values[i] <= right else "max"
        elif right is None:
            kind = "min" if values[i] <= left else "max"
        elif left > values[i] < right:
            kind = "min"
        elif left < values[i] > right:
            kind = "max"
        if kind is not None:
            out.append((i, kind, left is None or right is None, (i, j)))
        i = j + 1
    return out


def isotonic_best(values):
    """Least-squares non-decreasing fit by exhaustive block partitions.

    The optimum is piecewise constant on contiguous blocks at the block
    means, so enumerating all 2^(n-1) partitions and keeping the best
    order-feasible one finds it exactly.
    """
    values = [float(v) for v in values]
    n = len(values)
    best_fit, best_sse = None, math.inf
    for mask in range(2 ** (n - 1)):
        blocks = []
        start = 0
        for i in range(n - 1):
            if (mask >> i) & 1:
                blocks.append((start, i + 1))
                start = i + 1
        blocks.append((start, n))
        means = [sum(values[a:b]) / (b - a) for a, b in blocks]
        if any(means[k] > means[k + 1] for k in range(len(means) - 1)):
            continue
        fit = []
        for (a, b), mean in zip(blocks, means):
            fit.extend([mean] * (b - a))
        sse = sum((f - v) ** 2 for f, v in zip(fit, values))
        if sse < best_sse:
            best_fit, best_sse = fit, sse
    return best_fit, best_sse


def _all_matchings(a, b, zero=0.0):
    """Yield (total_l1, max_linf) over every augmented bijection; each
    total sums its costs in order, starting from ``zero``."""
    pa = [d - bd for bd, d in a]
    pb = [d - bd for bd, d in b]
    m, n = len(a), len(b)
    for k in range(min(m, n) + 1):
        for sub_a in combinations(range(m), k):
            for sub_b in combinations(range(n), k):
                for perm in permutations(sub_b):
                    total = zero
                    worst = 0.0
                    for i, j in zip(sub_a, perm):
                        db = abs(a[i][0] - b[j][0])
                        dd = abs(a[i][1] - b[j][1])
                        total += db + dd
                        worst = max(worst, db, dd)
                    for i in range(m):
                        if i not in sub_a:
                            total += pa[i]
                            worst = max(worst, pa[i] / 2.0)
                    for j in range(n):
                        if j not in sub_b:
                            total += pb[j]
                            worst = max(worst, pb[j] / 2.0)
                    yield total, worst


def exhaustive_wasserstein1(a, b) -> float:
    return min(t for t, _ in _all_matchings(list(a), list(b)))


def exact_wasserstein1(a, b) -> fractions.Fraction:
    """The exact W1 of float points: every cost and sum is a ``fractions.Fraction``."""
    exact = fractions.Fraction
    a, b = ([(exact(birth), exact(death)) for birth, death in c] for c in (a, b))
    return min(t for t, _ in _all_matchings(a, b, zero=exact(0)))


def exhaustive_bottleneck(a, b) -> float:
    return min(w for _, w in _all_matchings(list(a), list(b)))


def nearest_cost_bound(c1, c2) -> float:
    """The largest min(half-persistence, nearest cross cost) over all points."""

    def nearest(a, b):
        return [
            min([(d - bd) / 2.0] + [max(abs(bd - b2), abs(d - d2)) for b2, d2 in b])
            for bd, d in a
        ]

    return max(nearest(c1, c2) + nearest(c2, c1), default=0.0)


def lower_bound(c1, c2) -> float:
    """The nearest-cost bound, raised to the count bound: at least |m - n|
    points of the larger diagram take the diagonal."""
    larger, smaller = (c1, c2) if len(c1) >= len(c2) else (c2, c1)
    excess = len(larger) - len(smaller)
    halves = sorted((d - b) / 2.0 for b, d in larger)
    return max(nearest_cost_bound(c1, c2), halves[excess - 1] if excess else 0.0)


def covers_rows_exhaustive(adjacent) -> bool:
    """Is there an injective choice of an adjacent column for every row?"""
    rows, cols = adjacent.shape
    return any(
        all(adjacent[i, j] for i, j in enumerate(choice))
        for choice in permutations(range(cols), rows)
    )


def apen_direct(values, m: int, r: float) -> float:
    """Approximate entropy straight from the definition (self-matches in)."""
    x = [float(v) for v in values]
    n = len(x)

    def phi(mm: int) -> float:
        templates = [x[i : i + mm] for i in range(n - mm + 1)]
        count = len(templates)
        total = 0.0
        for t1 in templates:
            close = sum(
                1
                for t2 in templates
                if max(abs(u - v) for u, v in zip(t1, t2)) <= r
            )
            total += math.log(close / count)
        return total / count

    return phi(m) - phi(m + 1)


def apen_dense(values, m: int, r: float) -> float:
    """Approximate entropy from dense pairwise template distances.

    Compares each block of templates with every template and sums the
    log-fractions one block at a time, with the block size that
    ``metrics.approx_entropy`` keeps; the fast counts must give the same
    float, bit for bit.
    """
    x = np.asarray(values, dtype=np.float64)

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


def median_direct(values, window: int):
    values = [float(v) for v in values]
    n = len(values)
    radius = window // 2
    out = []
    for i in range(n):
        neighbourhood = sorted(
            values[min(max(j, 0), n - 1)] for j in range(i - radius, i + radius + 1)
        )
        out.append(neighbourhood[window // 2])
    return out


def median_unclamped(values, window: int) -> np.ndarray:
    """Sliding median with replicate padding over the full ``window``.

    The radius is ``window // 2`` however short the series, so a wide
    window pads and sorts that many samples at every index.
    """
    radius = window // 2
    padded = np.pad(np.asarray(values, dtype=np.float64), radius, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, window)
    return np.median(windows, axis=1)


def gaussian_direct(values, sigma: float):
    values = [float(v) for v in values]
    n = len(values)
    radius = math.ceil(3.0 * sigma)
    weights = [math.exp(-(k * k) / (2.0 * sigma * sigma)) for k in range(-radius, radius + 1)]
    total = sum(weights)
    weights = [w / total for w in weights]
    out = []
    for i in range(n):
        acc = 0.0
        for k in range(-radius, radius + 1):
            acc += weights[k + radius] * values[min(max(i + k, 0), n - 1)]
        out.append(acc)
    return out


def cutoff_direct(values, keep: int):
    """Low-pass filter via the O(n^2) textbook DFT."""
    x = [float(v) for v in values]
    n = len(x)
    spectrum = [
        sum(x[t] * cmath.exp(-2j * math.pi * k * t / n) for t in range(n))
        for k in range(n)
    ]
    for k in range(n):
        if min(k, n - k) > keep:
            spectrum[k] = 0.0
    return [
        (sum(spectrum[k] * cmath.exp(2j * math.pi * k * t / n) for k in range(n)) / n).real
        for t in range(n)
    ]


def interp_direct(xs, knot_xs, knot_ys):
    """Piecewise-linear interpolation through (knot_xs, knot_ys)."""
    out = []
    for x in xs:
        if x <= knot_xs[0]:
            out.append(knot_ys[0])
            continue
        if x >= knot_xs[-1]:
            out.append(knot_ys[-1])
            continue
        hi = next(i for i in range(1, len(knot_xs)) if knot_xs[i] >= x)
        lo = hi - 1
        t = (x - knot_xs[lo]) / (knot_xs[hi] - knot_xs[lo])
        out.append(knot_ys[lo] * (1 - t) + knot_ys[hi] * t)
    return out


def douglas_peucker_greedy(values, xs, epsilon: float) -> list[int]:
    """Douglas-Peucker by global greedy insertion.

    Starting from the two boundary samples, re-interpolates through every
    kept sample and inserts the sample with the largest absolute residual
    (ties: smallest index) until that residual is <= ``epsilon``.
    """
    values = np.asarray(values, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
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


def _pav(values):
    """Pool-adjacent-violators over Python floats, one sample at a time."""
    means: list[float] = []
    weights: list[int] = []
    for m in values.tolist():
        w = 1
        while means and means[-1] > m:
            pm, pw = means.pop(), weights.pop()
            m = (m * w + pm * pw) / (w + pw)
            w += pw
        means.append(m)
        weights.append(w)
    return np.repeat(means, weights)


def _fraction_ranked(diagram) -> list[int]:
    """The diagram's pair indices in the order a ``Fraction`` removes them.

    One full sort by (persistence, exact persistence where the float one
    overflowed to +inf, interval width, birth index); the exact persistence
    is the ``fractions.Fraction`` difference of the two values.
    """
    exact = fractions.Fraction
    columns = (diagram.persistence, diagram.birth_value, diagram.death_value,
               diagram.birth_index, diagram.death_index)
    keys = [
        (p, exact(dv) - exact(bv) if math.isinf(p) else 0, abs(d - b), b)
        for p, bv, dv, b, d in zip(*(c.tolist() for c in columns))
    ]
    return sorted(range(len(keys)), key=keys.__getitem__)


def fraction_kept(diagram, fraction: float) -> np.ndarray:
    """Which pairs of a diagram ``Fraction(fraction)`` keeps, by one full sort.

    Removes the floor(fraction * m) first pairs in ``_fraction_ranked``
    order; True marks a kept pair.
    """
    keep = np.ones(len(diagram), dtype=bool)
    keep[_fraction_ranked(diagram)[: math.floor(fraction * len(diagram))]] = False
    return keep


def simplify_anchors(n: int, diagram, policy) -> list[int]:
    """Sorted anchors of a topological simplification of an n-sample series.

    ``diagram`` is the series' persistence diagram and ``policy`` is a
    ``Threshold`` or a ``Fraction``. A threshold removes every pair below
    it; a fraction removes the floor(q * m) first pairs in
    ``_fraction_ranked`` order. The anchors are both boundary samples, the
    essential minimum and the ends of every retained pair.
    """
    columns = (diagram.birth_index, diagram.death_index, diagram.persistence)
    pairs = list(zip(*(c.tolist() for c in columns)))
    if type(policy).__name__ == "Threshold":
        retained = [(b, d) for b, d, p in pairs if not p < policy.value]
    else:
        removed = set(_fraction_ranked(diagram)[: math.floor(policy.value * len(pairs))])
        retained = [(b, d) for i, (b, d, _) in enumerate(pairs) if i not in removed]
    return sorted(
        {0, n - 1, diagram.essential_min_index} | {i for pair in retained for i in pair}
    )


def refit_segments(values, anchors) -> np.ndarray:
    """The per-segment refit between sorted anchors, one segment at a time.

    Every segment with an interior sample gets the monotone PAV fit toward
    its end anchor (a falling one as the negated fit of its negation),
    clipped with scalar bounds to the anchor values, with the anchor values
    restored.
    """
    values = np.asarray(values, dtype=np.float64)
    out = values.copy()
    for left, right in zip(anchors, anchors[1:]):
        if right - left < 2:
            continue
        seg = values[left : right + 1]
        lo, hi = float(values[left]), float(values[right])
        sign = 1.0 if lo <= hi else -1.0
        fitted = sign * _pav(sign * seg)
        fitted.clip(min(lo, hi), max(lo, hi), out=fitted)
        fitted[0], fitted[-1] = lo, hi
        out[left : right + 1] = fitted
    return out


def simplify_all_segments(values, diagram, policy) -> np.ndarray:
    """Topological simplification refitting every segment between anchors."""
    anchors = simplify_anchors(len(values), diagram, policy)
    return refit_segments(values, anchors)
