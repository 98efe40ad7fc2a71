import numpy as np
import pytest
from helpers import any_series, diagram_points, random_diagram
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import apen_direct, exhaustive_bottleneck, exhaustive_wasserstein1

from toposmooth import (
    Threshold,
    TimeSeries,
    approx_entropy,
    bottleneck,
    diagram_of,
    norm_l1,
    norm_linf,
    simplify,
    wasserstein1,
    wasserstein1_matching,
)


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

    def test_accepts_diagram_objects(self):
        d1 = diagram_of([0, 5, 1, 4, 0])
        d2 = diagram_of([0, 5, 1, 4, 0])
        assert wasserstein1(d1, d2) == 0.0
        assert bottleneck(d1, d2) == 0.0

    @given(diagram_points, diagram_points)
    @settings(max_examples=150, deadline=None)
    def test_matches_exhaustive_oracle(self, c1, c2):
        assert abs(wasserstein1(c1, c2) - exhaustive_wasserstein1(c1, c2)) <= 1e-9
        assert abs(bottleneck(c1, c2) - exhaustive_bottleneck(c1, c2)) <= 1e-9

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

    def test_larger_random_diagrams_against_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            c1 = random_diagram(rng, 5)
            c2 = random_diagram(rng, 5)
            assert abs(wasserstein1(c1, c2) - exhaustive_wasserstein1(c1, c2)) <= 1e-9
            assert abs(bottleneck(c1, c2) - exhaustive_bottleneck(c1, c2)) <= 1e-9

    @given(diagram_points, diagram_points)
    @settings(max_examples=60, deadline=None)
    def test_matching_covers_every_point_once(self, c1, c2):
        matching = wasserstein1_matching(c1, c2)
        assert matching.total_cost == wasserstein1(c1, c2)
        lefts = [p[0] for p in matching.pairs if p[0] is not None]
        rights = [p[1] for p in matching.pairs if p[1] is not None]
        assert sorted(lefts) == sorted(c1)
        assert sorted(rights) == sorted(c2)
        recomputed = 0.0
        for left, right in matching.pairs:
            if left is None:
                recomputed += right[1] - right[0]
            elif right is None:
                recomputed += left[1] - left[0]
            else:
                recomputed += abs(left[0] - right[0]) + abs(left[1] - right[1])
        assert abs(recomputed - matching.total_cost) <= 1e-9


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

    def test_default_r_from_sample_std(self):
        rng = np.random.default_rng(31)
        values = rng.normal(0, 2, 64)
        expected = apen_direct(values, 2, 0.2 * float(np.std(values, ddof=1)))
        assert abs(approx_entropy(TimeSeries(values)) - expected) <= 1e-10

    def test_rejects_bad_arguments(self):
        series = TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(ValueError):
            approx_entropy(series, m=0, r=0.5)
        with pytest.raises(ValueError):
            approx_entropy(series, m=2, r=0.0)
        with pytest.raises(ValueError):
            approx_entropy(TimeSeries([1.0, 2.0, 3.0]), m=2, r=0.5)

    @pytest.mark.parametrize("r", [0.5, None])
    def test_rejects_non_finite_sample(self, r):
        values = [1.0, 2.0, 3.0, np.nan, 5.0, np.inf, 7.0]
        with pytest.raises(ValueError, match="non-finite sample nan at index 3"):
            approx_entropy(values, m=2, r=r)
