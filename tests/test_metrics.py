import numpy as np
import pytest
from helpers import any_series, diagram_points, random_diagram, tie_rich_diagram_points
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    apen_dense,
    apen_direct,
    covers_rows_exhaustive,
    exhaustive_bottleneck,
    exhaustive_wasserstein1,
    lower_bound,
    nearest_cost_bound,
)

import toposmooth
from toposmooth import (
    Fraction,
    Threshold,
    TimeSeries,
    approx_entropy,
    bottleneck,
    diagram_of,
    metrics,
    norm_l1,
    norm_linf,
    simplify,
    wasserstein1,
)

oracle_diagrams = st.one_of(diagram_points, tie_rich_diagram_points)

# (values, r) cases rich in template distances exactly equal to r: integer
# values with an integer r, values on a 0.1 grid, runs of equal values and
# all-constant series; plus generic float series.
apen_cases = st.one_of(
    st.tuples(
        st.lists(st.integers(0, 5).map(float), min_size=2, max_size=40),
        st.integers(1, 3).map(float),
    ),
    st.tuples(
        st.lists(st.integers(-10, 10).map(lambda v: v / 10), min_size=2, max_size=40),
        st.sampled_from([0.1, 0.2, 0.3]),
    ),
    st.tuples(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 8)), min_size=1, max_size=8).map(
            lambda runs: [float(v) for v, k in runs for _ in range(k)]
        ),
        st.sampled_from([0.5, 1.0, 2.0]),
    ),
    st.tuples(
        st.tuples(st.integers(2, 40), st.integers(-3, 3)).map(lambda c: [float(c[1])] * c[0]),
        st.sampled_from([0.5, 1.0]),
    ),
    st.tuples(any_series, st.floats(0.01, 5.0, allow_nan=False)),
)


def test_public_names_resolve():
    for name in toposmooth.__all__:
        assert hasattr(toposmooth, name), name


class TestNorms:
    def test_identical_is_zero(self):
        s = TimeSeries([1, 2, 3])
        assert norm_l1(s, s) == 0.0
        assert norm_linf(s, s) == 0.0

    def test_hand_examples(self):
        a, b = TimeSeries([1, 2, 3]), TimeSeries([1, 3, 5])
        assert norm_l1(a, b) == 3.0
        assert norm_linf(a, b) == 2.0

    def test_symmetric(self):
        a, b = TimeSeries([1, 2, 3]), TimeSeries([1, 3, 5])
        assert norm_l1(a, b) == norm_l1(b, a)
        assert norm_linf(a, b) == norm_linf(b, a)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            norm_l1(TimeSeries([1, 2]), TimeSeries([1, 2, 3]))
        with pytest.raises(ValueError):
            norm_linf(TimeSeries([1, 2]), TimeSeries([1, 2, 3]))

    @given(any_series)
    def test_linf_dominated_by_l1(self, values):
        a = TimeSeries(values)
        b = TimeSeries(list(reversed(values)))
        assert norm_linf(a, b) <= norm_l1(a, b) + 1e-12


class TestDiagramDistances:
    def test_equal_diagrams_zero(self):
        c = [(0.0, 1.0), (2.0, 5.0)]
        assert wasserstein1(c, c) == 0.0
        assert bottleneck(c, c) == 0.0

    def test_single_point_to_empty(self):
        assert wasserstein1([(0.0, 4.0)], []) == 4.0
        assert bottleneck([(0.0, 4.0)], []) == 2.0

    def test_direct_match_beats_diagonal(self):
        assert wasserstein1([(0.0, 2.0)], [(0.0, 3.0)]) == 1.0
        assert bottleneck([(0.0, 2.0)], [(0.0, 3.0)]) == 1.0

    def test_both_empty(self):
        assert wasserstein1([], []) == 0.0
        assert bottleneck([], []) == 0.0

    @pytest.mark.parametrize("distance", [wasserstein1, bottleneck])
    def test_raw_point_with_death_below_birth_rejected(self, distance):
        message = r"^diagram point \(3\.0, 1\.0\) has death < birth$"
        with pytest.raises(ValueError, match=message):
            distance([(3.0, 1.0)], [])
        with pytest.raises(ValueError, match=message):
            distance([(0.0, 1.0)], [(0.0, 2.0), (3, 1), (5.0, 4.0)])
        # A zero-persistence point lies on the diagonal and costs nothing.
        assert distance([(2.0, 2.0)], []) == 0.0
        assert distance([(2.0, 2.0)], [(0.0, 1.0)]) == distance([], [(0.0, 1.0)])

    def test_accepts_diagram_objects(self):
        d1 = diagram_of([0, 5, 1, 4, 0])
        d2 = diagram_of([0, 5, 1, 4, 0])
        assert wasserstein1(d1, d2) == 0.0
        assert bottleneck(d1, d2) == 0.0

    # pyproject.toml turns warnings into errors, so an overflow warning fails
    # the tests below.
    def test_half_persistence_wider_than_floats_stays_finite(self):
        assert bottleneck([(-1e308, 1e308)], []) == 1e308
        assert bottleneck([(-1e308, 1e308)], [(0.0, 1.0)]) == 1e308

    def test_overflowed_cost_on_every_matching_is_inf(self):
        # The point's diagonal cost and its cost to (0, 1) both overflow.
        assert wasserstein1([(-1e308, 1e308)], [(0.0, 1.0)]) == np.inf
        # Finite costs whose total overflows.
        assert wasserstein1([(0.0, 1e308), (0.0, 1e308)], []) == np.inf

    def test_series_wider_than_floats_measures_without_warnings(self):
        series = TimeSeries([1e308, -1e308, 1e308, 0.0, 5.0, -1e308])
        smoothed = simplify(series, Fraction(0.5))
        original, kept = diagram_of(series), diagram_of(smoothed)
        # Both keep the pair (-1e308, 1e308); only (0, 5) goes to the diagonal.
        assert wasserstein1(original, kept) == 5.0
        assert bottleneck(original, kept) == 2.5
        assert norm_l1(series, smoothed) == 5.0
        assert norm_linf(series, smoothed) == 2.5
        negated = TimeSeries(-series.values)
        assert norm_l1(series, negated) == np.inf
        assert norm_linf(series, negated) == np.inf

    @given(oracle_diagrams, oracle_diagrams)
    @settings(max_examples=150, deadline=None)
    def test_matches_exhaustive_oracle(self, c1, c2):
        assert abs(wasserstein1(c1, c2) - exhaustive_wasserstein1(c1, c2)) <= 1e-9
        # Both pick the same candidate cost, computed by the same float operations.
        assert bottleneck(c1, c2) == exhaustive_bottleneck(c1, c2)

    @given(diagram_points, diagram_points)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_nonnegativity_and_dominance(self, c1, c2):
        w = wasserstein1(c1, c2)
        b = bottleneck(c1, c2)
        assert w >= 0 and b >= 0
        assert abs(w - wasserstein1(c2, c1)) <= 1e-9
        assert abs(b - bottleneck(c2, c1)) <= 1e-9
        assert b <= w + 1e-9

    @given(diagram_points, diagram_points)
    @settings(max_examples=60, deadline=None)
    def test_zero_iff_equal_multisets(self, c1, c2):
        equal = sorted(c1) == sorted(c2)
        assert (wasserstein1(c1, c2) <= 1e-12) == equal
        assert (bottleneck(c1, c2) <= 1e-12) == equal

    @given(diagram_points, diagram_points, diagram_points)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, c1, c2, c3):
        assert wasserstein1(c1, c3) <= wasserstein1(c1, c2) + wasserstein1(c2, c3) + 1e-9
        assert bottleneck(c1, c3) <= bottleneck(c1, c2) + bottleneck(c2, c3) + 1e-9

    @pytest.mark.parametrize(
        "c1, c2",
        [
            ([(0.0, 4.0), (0.0, 4.0)], [(0.0, 4.0)]),
            ([(0.0, 4.0), (2.0, 6.0)], [(1.0, 5.0)]),
            ([(0.0, 6.0), (0.0, 6.0), (0.0, 6.0)], [(1.0, 7.0), (1.0, 7.0)]),
            ([(0.0, 3.0), (1.0, 4.0), (-1.0, 2.0)], [(0.0, 3.0), (0.0, 3.0)]),
        ],
    )
    def test_count_bound_answers_where_the_nearest_cost_bound_fails(self, c1, c2):
        # Each point has a partner within the nearest-cost bound, but more
        # points compete for those partners than there are; the surplus
        # takes the diagonal, which the count bound prices exactly here.
        expected = exhaustive_bottleneck(c1, c2)
        assert nearest_cost_bound(c1, c2) < expected == lower_bound(c1, c2)
        assert bottleneck(c1, c2) == expected
        assert bottleneck(c2, c1) == expected

    @pytest.mark.parametrize(
        "c1, c2",
        [
            ([(0.0, 1.0), (0.0, 2.0)], [(0.0, 3.0), (0.0, 3.0)]),
            ([(0.0, 1.0), (1.0, 4.0)], [(0.0, 4.0), (0.0, 4.0)]),
            ([(0.0, 1.0), (0.0, 3.0), (2.0, 6.0)], [(0.0, 6.0), (1.0, 7.0)]),
            ([(0.0, 1.0), (1.0, 4.0)], [(1.0, 2.0), (1.0, 5.0), (0.0, 4.0)]),
        ],
    )
    def test_search_above_an_infeasible_lower_bound(self, c1, c2):
        # The bound is infeasible, so the answer comes from the search above it.
        expected = exhaustive_bottleneck(c1, c2)
        assert lower_bound(c1, c2) < expected
        assert bottleneck(c1, c2) == expected
        assert bottleneck(c2, c1) == expected

    def test_most_persistent_subset_takes_one_probe(self, monkeypatch):
        # Dropping the least persistent points leaves a diagram whose distance
        # to the original is the largest dropped half-persistence; the count
        # bound equals it, so one feasibility test (two sides) settles it.
        # A random walk's small pairs lie close to its large ones, so the
        # nearest-cost bound alone falls below the answer.
        full = diagram_of(toposmooth.generate_synthetic("random_walk", 512, 7)).finite_points()
        halves = (full[:, 1] - full[:, 0]) / 2.0
        order = np.argsort(halves, kind="stable")
        kept = full[order[len(full) // 2 :]]
        assert nearest_cost_bound(full.tolist(), kept.tolist()) < halves[order[len(full) // 2 - 1]]
        calls = []
        covers_rows = metrics._covers_rows
        monkeypatch.setattr(
            metrics, "_covers_rows", lambda adjacent: calls.append(1) or covers_rows(adjacent)
        )
        for c1, c2 in ((full, kept), (kept, full)):
            calls.clear()
            assert bottleneck(c1.tolist(), c2.tolist()) == halves[order[len(full) // 2 - 1]]
            assert len(calls) <= 2

    def test_tie_rich_diagrams_take_both_paths(self):
        rng = np.random.default_rng(23)
        searched = 0
        for _ in range(300):
            c1, c2 = (
                [(float(b), float(b + p)) for b, p in rng.integers((-2, 1), (3, 4), (k, 2))]
                for k in rng.integers(0, 5, 2)
            )
            expected = exhaustive_bottleneck(c1, c2)
            assert bottleneck(c1, c2) == expected
            searched += lower_bound(c1, c2) < expected
        assert 0 < searched < 300

    def test_larger_random_diagrams_against_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            c1 = random_diagram(rng, 5)
            c2 = random_diagram(rng, 5)
            assert abs(wasserstein1(c1, c2) - exhaustive_wasserstein1(c1, c2)) <= 1e-9
            assert abs(bottleneck(c1, c2) - exhaustive_bottleneck(c1, c2)) <= 1e-9


class TestCoversRows:
    @pytest.mark.parametrize(
        "adjacent",
        [
            # The middle row has no edge; the transpose has an empty column
            # and three rows competing for two columns.
            [[1, 1, 0], [0, 0, 0], [1, 0, 1]],
            # Every row has an edge, but two rows share their only column.
            [[1, 0, 0], [1, 0, 0], [0, 1, 1]],
            # A perfect matching that needs the middle row's second choice.
            [[1, 1, 0], [1, 1, 0], [0, 1, 1]],
            # No columns at all.
            np.zeros((2, 0)),
        ],
    )
    def test_hand_made_graphs_both_ways_round(self, adjacent):
        adjacent = np.asarray(adjacent, dtype=bool)
        for graph in (adjacent, adjacent.T):
            assert metrics._covers_rows(graph) == covers_rows_exhaustive(graph)

    def test_random_sparse_graphs_against_exhaustive(self):
        rng = np.random.default_rng(11)
        empty_rows = 0
        for _ in range(300):
            shape = rng.integers(0, 5, 2)
            adjacent = rng.random(shape) < rng.uniform(0.1, 0.7)
            empty_rows += not adjacent.any(axis=1).all()
            for graph in (adjacent, adjacent.T):
                assert metrics._covers_rows(graph) == covers_rows_exhaustive(graph)
        assert empty_rows > 0


@given(any_series, st.floats(0.0, 8.0, allow_nan=False))
@settings(max_examples=150)
def test_smoothing_moves_diagram_at_most_half_threshold(values, t):
    series = TimeSeries(values)
    before = diagram_of(series)
    after = diagram_of(simplify(series, Threshold(t)))
    assert bottleneck(before, after) <= t / 2.0


class TestApproxEntropy:
    def test_constant_series_zero(self):
        assert approx_entropy(TimeSeries([3.0] * 32), m=2, r=0.5) == 0.0

    def test_periodic_below_noise(self):
        periodic = TimeSeries([1.0, 2.0] * 32)
        rng = np.random.default_rng(23)
        noise = TimeSeries(rng.uniform(0.0, 1.0, 64))
        ap_periodic = approx_entropy(periodic, m=2, r=0.5)
        ap_noise = approx_entropy(noise, m=2, r=0.5)
        assert abs(ap_periodic - apen_direct(periodic.values, 2, 0.5)) <= 1e-10
        assert abs(ap_noise - apen_direct(noise.values, 2, 0.5)) <= 1e-10
        assert ap_periodic < ap_noise

    def test_translation_invariant_for_fixed_r(self):
        rng = np.random.default_rng(29)
        values = rng.normal(0, 1, 48)
        a = approx_entropy(TimeSeries(values), m=2, r=0.4)
        b = approx_entropy(TimeSeries(values + 100.0), m=2, r=0.4)
        assert abs(a - b) <= 1e-9

    def test_constant_series_default_r_rejected(self):
        with pytest.raises(ValueError) as info:
            approx_entropy(TimeSeries([3.0] * 8))
        assert info.type is ValueError
        assert str(info.value) == "series is constant; entropy calibration undefined"

    def test_default_r_from_sample_std(self):
        rng = np.random.default_rng(31)
        values = rng.normal(0, 2, 64)
        expected = apen_direct(values, 2, 0.2 * float(np.std(values, ddof=1)))
        assert abs(approx_entropy(TimeSeries(values)) - expected) <= 1e-10

    @given(apen_cases, st.integers(1, 3))
    @settings(max_examples=400, deadline=None)
    def test_equals_dense_pairwise_kernel_exactly(self, case, m):
        values, r = case
        assume(len(values) > m + 1)
        assert approx_entropy(values, m=m, r=r) == apen_dense(values, m, r)

    @pytest.mark.parametrize("decimals", [None, 1])
    def test_equals_dense_pairwise_kernel_over_several_blocks(self, decimals):
        # At n = 2000 each phi sums its log-fractions in two or three blocks.
        # On this walk, rounded or not, one sum over all rows would differ
        # from the blockwise sum in the last bits.
        values = np.cumsum(np.random.default_rng(1).normal(0.0, 1.0, 2000))
        if decimals is not None:
            values = np.round(values, decimals)
        r = 0.2 * float(np.std(values, ddof=1))
        assert approx_entropy(values, m=2, r=r) == apen_dense(values, 2, r)

    @given(
        st.sampled_from([-1e16, 1e16]),
        st.lists(st.integers(0, 7), min_size=2, max_size=40),
        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        st.integers(1, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_dense_kernel_where_x_plus_r_rounds(self, offset, steps, r, m):
        # The spacing of floats near 1e16 is 2, so x - r and x + r round,
        # and the searchsorted ends of a sample's run need correcting.
        assume(len(steps) > m + 1)
        values = [offset + 2.0 * k for k in steps]
        assert approx_entropy(values, m=m, r=r) == apen_dense(values, m, r)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 65])
    def test_equals_dense_kernel_with_few_rows_per_block(self, monkeypatch, rows, m):
        # Blocks of one to three template rows put block edges next to every
        # slice that reads m rows past the block. Blocks of one or two words
        # (64 or 128 columns) split both inputs into several column blocks
        # and put word edges inside every shifted slice; at m = 65 the two
        # spill words are wider than a one-word block.
        rng = np.random.default_rng(3)
        walk = np.cumsum(rng.normal(0.0, 1.0, 240))
        plateaus = np.repeat(rng.integers(0, 4, 80), rng.integers(1, 6, 80)).astype(float)
        monkeypatch.setattr(metrics, "_BLOCK_ROWS", rows)
        for words in (1, 2):
            monkeypatch.setattr(metrics, "_BLOCK_WORDS", words)
            for values in (walk, plateaus):
                assert len(values) - m + 1 > 64 * words  # more than one column block
                r = 0.2 * float(np.std(values, ddof=1))
                assert approx_entropy(values, m=m, r=r) == apen_dense(values, m, r)

    @pytest.mark.parametrize("blocks", [None, (5, 1)], ids=["default_blocks", "tiny_blocks"])
    @pytest.mark.parametrize("n", [127, 128, 129])
    @pytest.mark.parametrize("m", [63, 64, 65])
    def test_equals_dense_kernel_at_word_edges(self, monkeypatch, blocks, n, m):
        # m = 64 shifts by exactly one word; 63 and 65 fall one bit either
        # side. n = 127, 128 and 129 end the samples one column before, at
        # and after a word edge.
        if blocks is not None:
            monkeypatch.setattr(metrics, "_BLOCK_ROWS", blocks[0])
            monkeypatch.setattr(metrics, "_BLOCK_WORDS", blocks[1])
        rng = np.random.default_rng(n)
        walk = np.cumsum(rng.normal(0.0, 1.0, n))
        steps = rng.integers(0, 3, n).astype(float)
        for values, r in ((walk, 0.2 * float(np.std(walk, ddof=1))), (steps, 1.0)):
            assert approx_entropy(values, m=m, r=r) == apen_dense(values, m, r)

    @pytest.mark.parametrize("n, m", [(1200, 100), (600, 400), (1400, 1100)])
    def test_equals_dense_kernel_at_large_m(self, n, m):
        # Default blocks. At n = 1200 the 18 words of template columns split
        # into two blocks of 9 and the rows into two blocks. At m = 400 and
        # 1100 the spill of ceil(m / 64) words is wider than the template
        # columns, and at m = 1100 the row block grows past _BLOCK_ROWS.
        rng = np.random.default_rng(m)
        walk = np.cumsum(rng.normal(0.0, 1.0, n))
        steps = rng.integers(0, 3, n).astype(float)
        for values, r in ((walk, 0.2 * float(np.std(walk, ddof=1))), (steps, 1.0)):
            assert approx_entropy(values, m=m, r=r) == apen_dense(values, m, r)

    def test_rejects_bad_arguments(self):
        series = TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(ValueError):
            approx_entropy(series, m=0, r=0.5)
        for r in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match=f"r must be finite and > 0, got {r}"):
                approx_entropy(series, m=2, r=r)
        with pytest.raises(ValueError):
            approx_entropy(TimeSeries([1.0, 2.0, 3.0]), m=2, r=0.5)

    def test_numpy_integer_m_keeps_every_bit(self):
        values = np.cumsum(np.random.default_rng(4).normal(0.0, 1.0, 300))
        for m in (1, 2, 3, 65):
            expected = approx_entropy(values, m=m, r=0.5).hex()
            for numpy_m in (np.int64(m), np.int32(m), np.uint16(m)):
                assert approx_entropy(values, m=numpy_m, r=0.5).hex() == expected

    @pytest.mark.parametrize("m", [2.5, "2", True, np.float64(2.0)])
    def test_rejects_m_that_is_not_an_integer(self, m):
        with pytest.raises(ValueError) as info:
            approx_entropy([1.0, 2.0, 3.0, 4.0, 5.0], m=m, r=0.5)
        assert str(info.value) == f"m must be an integer, got {m!r}"

    @pytest.mark.parametrize("r", [True, "0.5", np.True_])
    def test_rejects_r_that_is_not_a_real_number(self, r):
        with pytest.raises(ValueError) as info:
            approx_entropy([1.0, 2.0, 3.0, 4.0, 5.0], m=2, r=r)
        assert str(info.value) == f"r must be a real number, got {r!r}"

    def test_numpy_float_r_keeps_every_bit(self):
        values = np.cumsum(np.random.default_rng(4).normal(0.0, 1.0, 300))
        expected = approx_entropy(values, m=2, r=0.5).hex()
        for r in (np.float64(0.5), np.float32(0.5), 1 / 2):
            assert approx_entropy(values, m=2, r=r).hex() == expected

    @pytest.mark.parametrize("r_factor", [True, "0.2", None])
    def test_tolerance_rejects_factor_that_is_not_a_real_number(self, r_factor):
        with pytest.raises(ValueError) as info:
            metrics.entropy_tolerance([1.0, 2.0, 3.0, 4.0, 5.0], r_factor)
        assert str(info.value) == f"r_factor must be a real number, got {r_factor!r}"

    def test_tolerance_takes_a_numpy_float_factor(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        expected = metrics.entropy_tolerance(values, 0.2)
        assert metrics.entropy_tolerance(values, np.float64(0.2)) == expected

    @pytest.mark.parametrize("r", [0.5, None])
    def test_rejects_non_finite_sample(self, r):
        values = [1.0, 2.0, 3.0, np.nan, 5.0, np.inf, 7.0]
        with pytest.raises(ValueError) as info:
            approx_entropy(values, m=2, r=r)
        assert str(info.value) == (
            "invalid series: non-finite value nan at index 3; non-finite value inf at index 5"
        )


@pytest.mark.parametrize(
    "measure",
    [
        lambda x: norm_l1(x, x),
        lambda x: norm_linf(x, x),
        lambda x: approx_entropy(x, m=2, r=0.5),
        diagram_of,
    ],
    ids=["norm_l1", "norm_linf", "approx_entropy", "diagram_of"],
)
@pytest.mark.parametrize(
    "values,message",
    [
        ([1.0, np.nan, 3.0, 4.0], "non-finite value nan at index 1"),
        ([1.0], "length 1 < 2"),
        (np.zeros((4, 2)), "values shape (4, 2) is not 1-D"),
    ],
    ids=["nan", "length_1", "2d"],
)
def test_raw_input_is_checked_as_a_series(measure, values, message):
    with pytest.raises(ValueError) as info:
        measure(values)
    assert str(info.value) == f"invalid series: {message}"
