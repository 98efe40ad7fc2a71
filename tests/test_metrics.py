import fractions
import hashlib

import numpy as np
import pytest
from helpers import any_series, diagram_points, random_diagram, tie_rich_diagram_points
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    apen_dense,
    apen_direct,
    covers_rows_exhaustive,
    exact_wasserstein1,
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
    douglas_peucker,
    metrics,
    norm_l1,
    norm_linf,
    simplify,
    wasserstein1,
)
from toposmooth.evaluate import METHODS, default_grids
from toposmooth.filters import douglas_peucker_indices


@pytest.fixture
def probes(monkeypatch):
    """A list that gains one item per ``_covers_rows`` call, which
    ``bottleneck`` makes only for a side whose forced points share a
    nearest point."""
    calls = []
    covers_rows = metrics._covers_rows
    monkeypatch.setattr(
        metrics, "_covers_rows", lambda adjacent: calls.append(1) or covers_rows(adjacent)
    )
    return calls


@pytest.fixture
def sides(monkeypatch):
    """A list that gains one item per ``_forced_covered`` call: each cost
    that ``bottleneck`` tests on one diagram, the start of each diagram's
    search included, makes one."""
    calls = []
    forced_covered = metrics._forced_covered
    monkeypatch.setattr(
        metrics,
        "_forced_covered",
        lambda *args: calls.append(1) or forced_covered(*args),
    )
    return calls


@pytest.fixture
def searches(monkeypatch, sides):
    """One (start, answer, costs tested) triple per ``_least_covered`` call:
    ``bottleneck`` searches its first diagram from the lower bound, then
    its second from the first's answer."""
    found = []
    least_covered = metrics._least_covered

    def search(cross, half, t):
        before = len(sides)
        answer = least_covered(cross, half, t)
        found.append((float(t), float(answer), len(sides) - before))
        return answer

    monkeypatch.setattr(metrics, "_least_covered", search)
    return found


# sha256 over the seed-7 n=1024 default sweep of each kind in turn: the
# float hex of the bottleneck distance from the series' diagram to each
# smoothed one, method by method in grid order, then the kept indices of
# douglas_peucker_indices at each default epsilon. Recorded when bottleneck
# searched all the cross costs and Douglas-Peucker split one segment a step.
SWEEP_KERNELS_SEED7 = "2cf4c8e87b425dfdfa5f3f399de70436973797b016d6448a666d0c05e1cf33fa"

oracle_diagrams = st.one_of(diagram_points, tie_rich_diagram_points)
# At most two points, so that a diagram made of several stays small enough
# for the exhaustive oracles.
few_tie_rich_points = tie_rich_diagram_points.map(lambda points: points[:2])

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

    @pytest.mark.parametrize("distance", [wasserstein1, bottleneck])
    def test_raw_point_that_is_not_finite_rejected(self, distance):
        with pytest.raises(ValueError) as info:
            distance([(0.0, float("inf"))], [])
        assert str(info.value) == "diagram points must be finite"

    @pytest.mark.parametrize("distance", [wasserstein1, bottleneck])
    @pytest.mark.parametrize(
        "point",
        [(0.0, 1.0, 5.0), (True, 2.0), ("0", "1"), (0.0,), 1.0],
        ids=["triple", "bool", "strings", "single", "scalar"],
    )
    def test_raw_point_that_is_not_a_pair_of_real_numbers_rejected(self, distance, point):
        with pytest.raises(ValueError) as info:
            distance([point], [])
        assert str(info.value) == f"diagram point {point!r} must be a pair of real numbers"

    @pytest.mark.parametrize("distance", [wasserstein1, bottleneck])
    def test_raw_points_as_numpy_rows_and_scalars_accepted(self, distance):
        expected = distance([(0.0, 1.0), (2.0, 5.0)], [(0.5, 1.0)])
        rows = np.array([[0.0, 1.0], [2.0, 5.0]])
        scalars = [(np.float64(0.0), np.int64(1)), (np.float32(2.0), np.float64(5.0))]
        assert distance(rows, [(0.5, 1.0)]) == expected
        assert distance(scalars, [(0.5, 1.0)]) == expected

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

    def test_most_persistent_subset_takes_one_probe(self, probes):
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
        for c1, c2 in ((full, kept), (kept, full)):
            probes.clear()
            assert bottleneck(c1.tolist(), c2.tolist()) == halves[order[len(full) // 2 - 1]]
            assert len(probes) <= 2

    @pytest.mark.parametrize(
        "c1, c2, covered",
        [
            # Both forced points of the second diagram are nearest to (-1, 3)
            # at the bound 1.0; the matching finds no room for both.
            ([(-2.0, -1.0), (-1.0, 3.0)], [(-2.0, 2.0), (0.0, 3.0)], False),
            # Both forced points of the second diagram take (0, 3) as their
            # nearest point, the first of a tie for (-1, 3); the matching
            # moves (-1, 3) to (-1, 2) within the bound 1.0.
            ([(0.0, 3.0), (-1.0, 2.0)], [(1.0, 4.0), (-1.0, 3.0)], True),
        ],
    )
    def test_shared_nearest_points_are_left_to_the_matching(self, probes, c1, c2, covered):
        expected = exhaustive_bottleneck(c1, c2)
        assert bottleneck(c1, c2) == expected
        assert probes == [1]
        assert (expected == lower_bound(c1, c2)) is covered
        assert bottleneck(c2, c1) == expected

    def test_search_answer_between_half_persistences(self):
        # Above the infeasible bound 1.5 the half-persistences are 2.0,
        # 2.5 and 3.0; the answer is the middle one, a probed step.
        c1, c2 = [(-2.0, 1.0), (1.0, 5.0)], [(0.0, 6.0), (1.0, 6.0)]
        expected = exhaustive_bottleneck(c1, c2)
        assert lower_bound(c1, c2) == 1.5 < expected == 2.5
        assert bottleneck(c1, c2) == bottleneck(c2, c1) == expected

    def test_search_answer_inside_a_gap(self):
        # Above the infeasible bound 1.0 the half-persistences are 1.5 and
        # 3.0; 1.5 is infeasible, and the answer is the cross cost 2.0 of a
        # point forced in the gap between them, not a half-persistence.
        c1, c2 = [(0.0, 3.0), (-2.0, 4.0)], [(0.0, 2.0), (-1.0, 5.0), (-2.0, 4.0)]
        expected = exhaustive_bottleneck(c1, c2)
        assert lower_bound(c1, c2) == 1.0 < 1.5 < expected == 2.0
        assert expected == max(abs(0.0 - -1.0), abs(3.0 - 5.0))
        assert bottleneck(c1, c2) == bottleneck(c2, c1) == expected

    def test_tie_rich_diagrams_take_both_paths(self, probes, sides):
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
        # The coverage tests, one diagram each: a search that ran extra
        # steps, or probed the largest half-persistence, which is covered by
        # construction, would make more. Only the diagrams whose forced
        # points share a nearest point reach the matching.
        assert len(sides) == 366
        assert len(probes) == 10

    def test_searched_sweep_pair_keeps_its_value_and_probes(self, probes, sides):
        # The seed-7 noisy sine against its Douglas-Peucker smoothing at the
        # first default-grid epsilon: a search above an infeasible bound.
        series = toposmooth.generate_synthetic("noisy_sine", 1024, 7)
        epsilon = default_grids(len(series), float(np.ptp(series.values)))["douglas_peucker"][0]
        smoothed = douglas_peucker(series, epsilon)
        assert bottleneck(diagram_of(series), diagram_of(smoothed)).hex() == "0x1.57c3380b12600p-3"
        assert len(sides) == 12
        assert len(probes) == 3

    @pytest.mark.parametrize(
        "c1, c2, expected",
        [
            # The first diagram is searched from the bound 1.5 up to 2.5;
            # the second is covered there.
            ([(0.0, 6.0), (1.0, 6.0)], [(-2.0, 1.0), (1.0, 5.0)], [(1.5, 2.5, 2), (2.5, 2.5, 1)]),
            # The first is searched from the bound 1.0 up to the cross cost
            # 2.0; the second is covered there.
            (
                [(0.0, 2.0), (-1.0, 5.0), (-2.0, 4.0)],
                [(0.0, 3.0), (-2.0, 4.0)],
                [(1.0, 2.0, 2), (2.0, 2.0, 1)],
            ),
        ],
    )
    def test_second_diagram_covered_at_the_first_answer(self, searches, c1, c2, expected):
        # The second search tests the first diagram's answer and stops.
        assert bottleneck(c1, c2) == exhaustive_bottleneck(c1, c2) == expected[-1][1]
        assert searches == expected

    @pytest.mark.parametrize(
        "c1, c2, expected",
        [
            # The first diagram is covered at the bound 1.5; the second's
            # answer, the half-persistence 2.5, lies above it.
            ([(-2.0, 1.0), (1.0, 5.0)], [(0.0, 6.0), (1.0, 6.0)], [(1.5, 1.5, 1), (1.5, 2.5, 2)]),
            # The first is covered at the bound 1.0; the second's answer is
            # the cross cost 2.0.
            (
                [(0.0, 3.0), (-2.0, 4.0)],
                [(0.0, 2.0), (-1.0, 5.0), (-2.0, 4.0)],
                [(1.0, 1.0, 1), (1.0, 2.0, 2)],
            ),
            # Both searches climb: the first from the bound 1.0 to 1.5, the
            # second from there to 2.0.
            (
                [(-1.0, 2.0), (-1.0, 2.0), (1.0, 5.0)],
                [(-1.0, 2.0), (0.0, 4.0), (2.0, 6.0)],
                [(1.0, 1.5, 2), (1.5, 2.0, 1)],
            ),
        ],
    )
    def test_second_answer_above_the_first(self, searches, c1, c2, expected):
        assert bottleneck(c1, c2) == exhaustive_bottleneck(c1, c2) == expected[-1][1]
        assert searches == expected

    @pytest.mark.parametrize(
        "c, expected",
        [
            ([], "0x0.0p+0"),
            ([(2.0, 2.0)], "0x0.0p+0"),
            ([(1.0, 1.0), (0.0, 3.0), (-1.0, 1.0)], "0x1.8000000000000p+0"),
            ([(2.0, 2.0), (-1.7e308, 1.7e308), (0.0, 3.0)], "0x1.e42d130773b76p+1023"),
            ([(1.7e308, 1.7976931348623157e308), (5.0, 5.0)], "0x1.bd2ecf88c4890p+1018"),
        ],
    )
    def test_empty_side_is_the_largest_half_persistence(self, searches, c, expected):
        # Every point of the other diagram takes the diagonal at its
        # half-persistence, which stays finite where its persistence does not.
        assert bottleneck(c, []).hex() == bottleneck([], c).hex() == expected
        assert searches == []

    def test_sweep_values_unchanged(self):
        digest = hashlib.sha256()
        for kind in ("spike_train", "noisy_sine", "random_walk"):
            series = toposmooth.generate_synthetic(kind, 1024, 7)
            grids = default_grids(len(series), float(np.ptp(series.values)))
            original = diagram_of(series)
            for method, grid in grids.items():
                for param in grid:
                    smoothed = diagram_of(METHODS[method](series, param))
                    digest.update(bottleneck(original, smoothed).hex().encode())
            for epsilon in grids["douglas_peucker"]:
                digest.update(repr(douglas_peucker_indices(series, epsilon)).encode())
        assert digest.hexdigest() == SWEEP_KERNELS_SEED7

    def test_larger_random_diagrams_against_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            c1 = random_diagram(rng, 5)
            c2 = random_diagram(rng, 5)
            assert abs(wasserstein1(c1, c2) - exhaustive_wasserstein1(c1, c2)) <= 1e-9
            assert abs(bottleneck(c1, c2) - exhaustive_bottleneck(c1, c2)) <= 1e-9


class TestExactWasserstein:
    """On small integer diagrams every float cost and partial sum is exact,
    so ``wasserstein1`` must equal the exact minimum, not merely approach it."""

    @given(tie_rich_diagram_points, tie_rich_diagram_points)
    @settings(max_examples=80, deadline=None)
    def test_tie_rich_diagrams(self, c1, c2):
        assert wasserstein1(c1, c2) == exact_wasserstein1(c1, c2)

    @given(few_tie_rich_points, few_tie_rich_points, few_tie_rich_points)
    @settings(max_examples=40, deadline=None)
    def test_shared_and_duplicated_points(self, c1, c2, shared):
        for a, b in (
            (c1 + shared, shared[::-1] + c2),
            (c1 + c1 + shared, shared + c2),
            (c1 + shared, c1 + shared),
        ):
            assert wasserstein1(a, b) == wasserstein1(b, a) == exact_wasserstein1(a, b)

    @given(tie_rich_diagram_points)
    @settings(max_examples=40, deadline=None)
    def test_one_empty_side(self, c):
        exact = exact_wasserstein1(c, [])
        assert exact == sum(death - birth for birth, death in c)
        assert wasserstein1(c, []) == wasserstein1([], c) == exact

    def test_oracle_sums_exactly(self):
        # 0.1 + 0.2 rounds as floats; the exact oracle does not round.
        points = [(0.0, 0.1), (0.0, 0.2)]
        assert exhaustive_wasserstein1(points, []) == 0.1 + 0.2 != 0.3
        assert exact_wasserstein1(points, []) == fractions.Fraction(0.1) + fractions.Fraction(0.2)


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

    @pytest.mark.parametrize("r_factor", [-1.0, 0.0, -0.0, float("nan"), float("inf")])
    def test_tolerance_rejects_factor_not_finite_and_positive(self, r_factor):
        with pytest.raises(ValueError) as info:
            metrics.entropy_tolerance([1.0, 2.0, 3.0, 4.0, 5.0], r_factor)
        assert str(info.value) == f"r_factor must be finite and > 0, got {r_factor}"

    @pytest.mark.parametrize("r", [0.5, None])
    def test_raw_input_is_checked_once(self, monkeypatch, r):
        checks = []
        check = toposmooth.series.require_valid

        def recording(series):
            checks.append(len(series))
            check(series)

        monkeypatch.setattr(toposmooth.series, "require_valid", recording)
        values = [1.0, 3.0, 2.0, 5.0, 4.0, 6.0, 2.5, 7.0]
        value = approx_entropy(values, m=2, r=r)
        assert checks == [len(values)]
        monkeypatch.undo()
        assert value == approx_entropy(TimeSeries(values), m=2, r=r)

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
