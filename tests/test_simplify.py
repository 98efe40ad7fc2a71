import hashlib
import importlib
import math

import numpy as np
import pytest
from helpers import (
    PAV_MODES,
    any_series,
    diagram_rows,
    int_series,
    normal_series,
    pav_mode,
    plateau_series,
    random_values,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    _pav,
    fraction_kept,
    isotonic_best,
    refit_segments,
    simplify_all_segments,
    simplify_anchors,
)

from toposmooth import (
    Fraction,
    PersistenceDiagram,
    Threshold,
    TimeSeries,
    diagram_of,
    generate_synthetic,
    isotonic_fit,
    select_pairs,
    simplify,
)
from toposmooth import persistence as persistence_module

# The package's ``simplify`` attribute is the function, not the module.
simplify_module = importlib.import_module("toposmooth.simplify")


# Pairs of these values can overflow to persistence inf. Two overflowed
# pairs tie exactly when their values have the same magnitudes, so the
# half-persistence orders them as their exact persistence does.
past_the_float_range = st.lists(
    st.sampled_from([-1.7e308, -1.5e308, 0.0, 1.0, 1.5e308, 1.7e308]), min_size=2, max_size=16
)


def make_diagram(persistences):
    k = len(persistences)
    return PersistenceDiagram(
        birth_index=np.arange(1, 2 * k, 2),
        death_index=np.arange(2, 2 * k + 1, 2),
        birth_value=np.zeros(k),
        death_value=np.asarray(persistences, dtype=np.float64),
        essential_min_index=0,
    )


class TestSelectPairs:
    def test_threshold_splits_strictly_below(self):
        retained, removed = select_pairs(make_diagram([2.0, 3.0, 4.0]), Threshold(2.5))
        assert [p.persistence for p in removed] == [2.0]
        assert [p.persistence for p in retained] == [3.0, 4.0]

    def test_threshold_zero_removes_nothing(self):
        retained, removed = select_pairs(make_diagram([2.0, 3.0, 4.0]), Threshold(0.0))
        assert removed == ()
        assert len(retained) == 3

    def test_fraction_floor(self):
        retained, removed = select_pairs(make_diagram([2.0, 3.0, 4.0]), Fraction(0.34))
        assert [p.persistence for p in removed] == [2.0]
        assert len(retained) == 2

    def test_fraction_one_removes_all(self):
        retained, removed = select_pairs(make_diagram([2.0, 3.0, 4.0]), Fraction(1.0))
        assert retained == ()
        assert len(removed) == 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Threshold(-1.0)
        with pytest.raises(ValueError):
            Fraction(1.5)
        with pytest.raises(ValueError):
            Fraction(-0.1)
        with pytest.raises(TypeError) as info:
            simplify(TimeSeries([0.0, 1.0, 0.0]), 0.5)
        assert str(info.value) == "unknown policy 0.5"

    @pytest.mark.parametrize(
        "policy, name, value",
        [
            (Threshold, "threshold", True),
            (Threshold, "threshold", "1"),
            (Fraction, "fraction", True),
            (Fraction, "fraction", "0.5"),
        ],
    )
    def test_rejects_value_that_is_not_a_real_number(self, policy, name, value):
        with pytest.raises(ValueError) as info:
            policy(value)
        assert str(info.value) == f"{name} must be a real number, got {value!r}"

    @pytest.mark.parametrize("policy", [Threshold, Fraction])
    def test_numpy_float_value_keeps_every_bit(self, policy):
        series = generate_synthetic("noisy_sine", 256, 3)
        expected = simplify(series, policy(0.5)).values
        assert simplify(series, policy(np.float64(0.5))).values.tobytes() == expected.tobytes()

    def test_nested_equal_persistence_ties_remove_inner_first(self):
        # Pairs (1,6) and (3,2) both have persistence 2.0 and nest
        # ([2,3] inside [1,6]); a fraction cut that splits the tie must
        # drop the inner pair, else flattening the outer one would destroy
        # a retained extremum.
        values = [-1.0, -1.5, 0.5, -1.5, -1.0, -1.0, 0.5, -3.0]
        series = TimeSeries(values)
        d = diagram_of(series)
        assert np.count_nonzero(d.persistence == 2.0) == 2
        keep = simplify_module._retained(d, Fraction(0.5))
        assert diagram_rows(d, "birth_index", "death_index", where=~keep) == [(3, 2)]
        out = simplify(series, Fraction(0.5))
        got = sorted(diagram_rows(diagram_of(out), "birth_value", "death_value"))
        assert got == sorted(diagram_rows(d, "birth_value", "death_value", where=keep))

    def test_ordering_ascending_persistence_then_birth(self):
        d = diagram_of([0, 3, 1, 4, 2, 5, 0, 6, 1, 3])
        retained, removed = select_pairs(d, Threshold(2.5))
        for group in (retained, removed):
            keys = [(p.persistence, p.birth_index) for p in group]
            assert keys == sorted(keys)
        assert set(retained) | set(removed) == set(d.pairs)
        assert not set(retained) & set(removed)

    @settings(max_examples=300)
    @given(st.one_of(plateau_series, past_the_float_range))
    def test_fraction_orders_only_the_tie_group_at_the_cut(self, values):
        # Every cut from 0 to m: none, all, and each place inside a group of
        # equal persistence, where the narrower intervals go first.
        d = diagram_of(values)
        m = len(d)
        for cut in range(m + 1):
            fraction = 0.0 if cut == 0 else 1.0 if cut == m else (cut + 0.5) / m
            assert math.floor(fraction * m) == cut
            keep = simplify_module._retained(d, Fraction(fraction))
            assert keep.tolist() == fraction_kept(d, fraction).tolist(), cut


class TestIsotonic:
    def test_single_violation_pools_to_mean(self):
        assert np.allclose(isotonic_fit([1, 3, 2, 4]), [1, 2.5, 2.5, 4])

    def test_already_monotone_is_identity(self):
        assert np.array_equal(isotonic_fit([1, 2, 3]), [1, 2, 3])

    def test_decreasing_pools_interior_violation(self):
        # The pair (2, 4) is removed; the falling segment between the anchors
        # at 5 and 0 pools the interior violation.
        out = simplify(TimeSeries([5, 2, 4, 0]), Threshold(3.0))
        assert np.allclose(out.values, [5, 3, 3, 0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            isotonic_fit([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        for values in ([1.0, bad, 0.0], [bad]):
            with pytest.raises(ValueError, match="isotonic_fit expects finite values"):
                isotonic_fit(values)
        with pytest.raises(ValueError, match="isotonic_fit expects finite values"):
            isotonic_fit([1.0, 3.0, bad, 4.0], starts=[0, 2])

    @pytest.mark.parametrize(
        "starts", [[], [1], [0, 0], [0, 3, 2], [0, 4], [0.0, 2.0], np.array([[0], [2]])]
    )
    def test_rejects_bad_starts(self, starts):
        with pytest.raises(ValueError) as info:
            isotonic_fit([1.0, 3.0, 2.0, 4.0], starts=starts)
        assert str(info.value) == "starts must be integers increasing from 0 below the length"

    def test_starts_keep_pools_inside_runs(self):
        # Pooled as one run, 3 and 2 would pool across the start at 2.
        fit = isotonic_fit([1.0, 3.0, 2.0, 4.0], starts=[0, 2])
        assert fit.tolist() == [1.0, 3.0, 2.0, 4.0]

    def test_length_two_runs(self):
        fit = isotonic_fit([3.0, 1.0, 2.0, 2.0, 0.0, 5.0, -0.0, 0.0], starts=[0, 2, 4, 6])
        assert fit.view(np.int64).tolist() == np.array(
            [2.0, 2.0, 2.0, 2.0, 0.0, 5.0, -0.0, 0.0]
        ).view(np.int64).tolist()

    @given(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=40),
        st.sets(st.integers(1, 39)),
    )
    def test_starts_equal_one_fit_per_run(self, values, cuts):
        starts = [0, *sorted(c for c in cuts if c < len(values))]
        bounds = [*starts, len(values)]
        expected = np.concatenate(
            [isotonic_fit(values[a:b]) for a, b in zip(bounds, bounds[1:])]
        )
        fit = isotonic_fit(values, starts=np.array(starts))
        assert fit.tobytes() == expected.tobytes()

    @given(
        st.lists(
            st.integers(0, 8).map(lambda v: v * 0.25), min_size=1, max_size=6
        )
    )
    def test_matches_partition_oracle(self, values):
        fit = isotonic_fit(values)
        assert np.all(np.diff(fit) >= 0)
        _, best_sse = isotonic_best(values)
        sse = float(np.sum((fit - np.asarray(values)) ** 2))
        assert abs(sse - best_sse) <= 1e-9


class TestSimplify:
    def test_threshold_example(self):
        out = simplify(TimeSeries([1, 5, 2, 4, 0, 3]), Threshold(2.5))
        assert np.allclose(out.values, [1, 5, 3, 3, 0, 3])

    def test_threshold_zero_is_identity(self):
        series = TimeSeries([1, 5, 2, 4, 0, 3])
        out = simplify(series, Threshold(0.0))
        assert np.array_equal(out.values, series.values)

    def test_full_fraction_flattens_everything_but_the_essential(self):
        # Oracle-derived: the essential minimum at index 4 stays anchored,
        # so full removal leaves a decreasing ramp into it.
        out = simplify(TimeSeries([1, 5, 2, 4, 0, 3]), Fraction(1.0))
        assert np.allclose(out.values, [1, 1, 1, 1, 0, 3])

    def test_positions_and_label_preserved(self):
        series = TimeSeries([1, 5, 2, 4], positions=[0, 1, 4, 9], label="x")
        out = simplify(series, Threshold(10.0))
        assert np.array_equal(out.positions, series.positions)
        assert out.label == "x"
        assert len(out) == len(series)

    @given(any_series, st.floats(0, 10, allow_nan=False))
    def test_monotone_input_is_fixed_point(self, values, t):
        ramp = sorted(values)
        out = simplify(TimeSeries(ramp), Threshold(t))
        assert np.array_equal(out.values, np.asarray(ramp))

    @given(any_series, st.floats(0, 12, allow_nan=False))
    def test_idempotent(self, values, t):
        once = simplify(TimeSeries(values), Threshold(t))
        twice = simplify(once, Threshold(t))
        assert np.array_equal(once.values, twice.values)

    @given(any_series, st.floats(0, 12, allow_nan=False), st.floats(0, 12, allow_nan=False))
    def test_threshold_monotonicity(self, values, t1, t2):
        t1, t2 = min(t1, t2), max(t1, t2)
        d = diagram_of(values)
        loose = simplify_module._retained(d, Threshold(t1))
        tight = simplify_module._retained(d, Threshold(t2))
        assert not np.any(tight & ~loose)

    @given(any_series)
    def test_zero_threshold_zero_residual(self, values):
        out = simplify(TimeSeries(values), Threshold(0.0))
        assert float(np.max(np.abs(out.values - np.asarray(values)))) == 0.0


def _segments_monotone(values, anchors):
    for left, right in zip(anchors, anchors[1:]):
        seg = values[left : right + 1]
        if values[left] <= values[right]:
            assert np.all(np.diff(seg) >= 0)
        else:
            assert np.all(np.diff(seg) <= 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_output_structure_random(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        values = random_values(rng, n)
        series = TimeSeries(values)
        d = diagram_of(series)
        if rng.integers(0, 2):
            max_p = max(d.persistence.tolist(), default=1.0)
            policy = Threshold(float(rng.uniform(0, 1.2 * max_p)))
        else:
            policy = Fraction(float(rng.uniform(0, 1)))
        keep = simplify_module._retained(d, policy)
        out = simplify(series, policy)

        anchors = sorted(
            {0, n - 1, d.essential_min_index}
            | set(d.birth_index[keep].tolist())
            | set(d.death_index[keep].tolist())
        )
        # Exact at anchors, monotone in between, diagram equals retained.
        for a in anchors:
            assert out.values[a] == values[a]
        _segments_monotone(out.values, anchors)
        got = sorted(diagram_rows(diagram_of(out), "birth_value", "death_value"))
        expected = sorted(diagram_rows(d, "birth_value", "death_value", where=keep))
        assert got == expected


@settings(max_examples=300)
@given(
    st.one_of(int_series, plateau_series, normal_series),
    st.booleans(),
    st.floats(0.0, 1.0, allow_nan=False),
)
def test_equals_all_segments_reference_bytes(values, by_threshold, q):
    # The fast path skips segments that are already monotone toward their
    # end anchor; the reference refits every segment.
    series = TimeSeries(values)
    d = diagram_of(series)
    top = float(np.max(d.persistence, initial=0.0))
    policy = Threshold(q * 1.1 * top) if by_threshold else Fraction(q)
    expected = simplify_all_segments(values, d, policy)
    assert simplify(series, policy).values.tobytes() == expected.tobytes()


def test_simplify_reaches_classification_through_module_globals(monkeypatch):
    # The benchmark's tracer wraps these module globals to see the layers.
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(simplify_module, "diagram_of")
    counted(persistence_module, "classify_extrema")
    series = TimeSeries([1, 5, 2, 4, 0, 3])
    simplify(series, Fraction(0.5))
    simplify(series, Threshold(2.5))
    assert calls == ["diagram_of", "classify_extrema"] * 2


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _per_segment(values, policy) -> np.ndarray:
    anchors = simplify_anchors(len(values), diagram_of(values), policy)
    return refit_segments(values, anchors)


@pytest.mark.parametrize("n", [1024, 4096, 131072])
@pytest.mark.parametrize("kind", ["spike_train", "noisy_sine", "random_walk", "noisy_sine_rounded"])
def test_refit_equals_per_segment_oracle_on_synthetic(kind, n):
    # The rounded noisy sine has plateaus and signed zeros; at n=131072
    # segments span several batches.
    for seed in range(1, 11):
        series = generate_synthetic(kind.removesuffix("_rounded"), n, seed)
        if kind.endswith("_rounded"):
            series = TimeSeries(np.round(series.values))
        value_range = float(np.ptp(series.values))
        d = diagram_of(series)
        for policy in (Fraction(0.5), Threshold(0.25 * value_range)):
            anchors = simplify_anchors(n, d, policy)
            expected = refit_segments(series.values, anchors)
            assert _bits(simplify(series, policy).values) == _bits(expected), (seed, policy)


def test_clip_keeps_a_sample_equal_to_its_bound():
    # Removing the pair of 1 and 2 leaves one rising segment from 0.0 to 3
    # whose fit keeps the -0.0 at index 1: it equals the lower bound 0.0
    # and is not below it, as a scalar clip decides.
    values = [0.0, -0.0, 2.0, 1.0, 3.0]
    out = simplify(TimeSeries(values), Threshold(2.0))
    assert _bits(out.values) == _bits([0.0, -0.0, 1.5, 1.5, 3.0])
    assert _bits(out.values) == _bits(_per_segment(values, Threshold(2.0)))


signed_zero_plateaus = st.lists(
    st.tuples(st.sampled_from([-0.0, 0.0, -1.0, 1.0, 2.0]), st.integers(1, 3)),
    min_size=2,
    max_size=16,
).map(lambda runs: [v for v, k in runs for _ in range(k)])


@settings(max_examples=300)
@given(signed_zero_plateaus, st.booleans(), st.floats(0.0, 1.0, allow_nan=False))
def test_signed_zero_anchors_and_plateaus(values, by_threshold, q):
    policy = Threshold(3.5 * q) if by_threshold else Fraction(q)
    expected = _per_segment(values, policy)
    assert _bits(simplify(TimeSeries(values), policy).values) == _bits(expected)


def _batches(monkeypatch, limit):
    """Set the batch size to ``limit`` samples and record each batch's segments."""
    batches = []
    refit = simplify_module._refit

    def recording(values, left, length, starts, out):
        batches.append(list(zip(left.tolist(), (left + length - 1).tolist())))
        refit(values, left, length, starts, out)

    monkeypatch.setattr(simplify_module, "_PAV_SAMPLES", limit)
    monkeypatch.setattr(simplify_module, "_refit", recording)
    return batches


def test_length_two_segments():
    # Threshold 2 keeps only the pair (1, 2): anchors 0, 1, 2, 5 (the
    # essential minimum) and 10, so two length-2 segments sit beside two
    # longer ones that the three smaller pairs leave to be refitted.
    values = [4.0, 0.0, 3.0, 1.0, 2.0, -1.0, 5.0, 4.0, 4.5, 3.9, 6.0]
    policy = Threshold(2.0)
    anchors = simplify_anchors(len(values), diagram_of(values), policy)
    assert anchors == [0, 1, 2, 5, 10]
    out = simplify(TimeSeries(values), policy)
    assert _bits(out.values) == _bits(refit_segments(values, anchors))


def test_segment_longer_than_one_batch(monkeypatch):
    rng = np.random.default_rng(5)
    values = np.concatenate(([0.0], rng.normal(size=50), [10.0], rng.normal(size=5), [-5.0]))
    policy = Fraction(1.0)
    batches = _batches(monkeypatch, 8)
    out = simplify(TimeSeries(values), policy)
    assert any(b - a + 1 > 8 for batch in batches for a, b in batch)
    assert all(len(batch) == 1 for batch in batches if batch[0][1] - batch[0][0] + 1 > 8)
    assert _bits(out.values) == _bits(_per_segment(values, policy))


@pytest.mark.parametrize("limit", [2, 3, 5, 8, 13])
def test_batch_boundaries_between_segments_sharing_an_anchor(monkeypatch, limit):
    rng = np.random.default_rng(limit)
    values = rng.normal(size=200)
    policy = Fraction(0.7)
    batches = _batches(monkeypatch, limit)
    out = simplify(TimeSeries(values), policy)
    # Some batch starts at the anchor where the previous batch ends.
    assert any(b[0][0] == a[-1][1] for a, b in zip(batches, batches[1:]))
    assert all(sum(b - a + 1 for a, b in batch) <= limit for batch in batches if len(batch) > 1)
    assert _bits(out.values) == _bits(_per_segment(values, policy))


def test_simplify_refits_through_the_module_global(monkeypatch):
    # The benchmark's tracer wraps isotonic_fit to count the refitted samples.
    calls = []
    original = simplify_module.isotonic_fit

    def counted(values, **kwargs):
        calls.append((len(values), sorted(kwargs)))
        return original(values, **kwargs)

    monkeypatch.setattr(simplify_module, "isotonic_fit", counted)
    simplify(TimeSeries([1, 5, 2, 4, 0, 3]), Threshold(2.5))
    # One batch of the segment 1 .. 4, refitted by keyword starts.
    assert calls == [(4, ["starts"])]


@pytest.mark.parametrize(
    "values, dtype",
    [(["1", "2"], "<U1"), ([True, False, True], "bool"), ([1 + 1j, 2 + 0j], "complex128")],
)
def test_isotonic_refuses_values_that_are_not_real(values, dtype):
    with pytest.raises(ValueError) as info:
        isotonic_fit(values)
    assert str(info.value) == f"isotonic_fit expects real numbers, got dtype {dtype}"


@pytest.mark.parametrize("dtype", [np.float32, np.int32, np.uint8])
def test_isotonic_takes_numpy_integers_and_floats(dtype):
    values = np.array([3, 1, 2, 7, 5], dtype=dtype)
    expected = isotonic_fit(values.astype(np.float64))
    assert _bits(isotonic_fit(values)) == _bits(expected) == _bits([2.0, 2.0, 2.0, 6.0, 6.0])


def test_isotonic_takes_signed_and_unsigned_starts():
    values = [3.0, 1.0, 2.0, 0.0, -0.0, 0.0, 5.0, 4.0]
    fits = [
        _bits(isotonic_fit(values, starts=np.array([0, 2, 4], dtype=dtype)))
        for dtype in (np.uint8, np.uint64, np.int32, np.int64)
    ]
    assert fits == [_bits([2.0, 2.0, 1.0, 1.0, -0.0, 0.0, 4.5, 4.5])] * 4


@pytest.mark.parametrize("starts", [[0, 2**63], [0, 2**64 - 1], [2**63]])
def test_isotonic_refuses_unsigned_starts_that_wrap_negative(starts):
    with pytest.raises(ValueError) as info:
        isotonic_fit([3.0, 1.0, 2.0, 0.0], starts=np.array(starts, dtype=np.uint64))
    assert str(info.value) == "starts must be integers increasing from 0 below the length"


@pytest.mark.parametrize("mode", PAV_MODES)
@pytest.mark.parametrize(
    "values",
    [
        [1.5e308, 1.5e308, 0.0],
        [0.0, -1.5e308, -1.5e308],
        [1.7e308, -1.7e308, 1.7e308, -1.7e308, 1.0, 1.7e308],
        [1e308, 1.7976931348623157e308, 1.7976931348623157e308, -5e-324],
    ],
)
def test_run_whose_sums_overflow_is_fitted_scaled(values, mode):
    # m * w + pm * pw overflows on these finite runs; the fit of the run
    # scaled by 2**-64 and scaled back is finite and the least-squares fit.
    scaled = np.asarray(values) * 2.0**-64
    plain = [0.0, 2.0, 1.0]
    with pav_mode(mode):
        fit = isotonic_fit(values + plain, starts=[0, len(values)])
        expected = isotonic_fit(scaled) * 2.0**64
        alone = isotonic_fit(plain)
    assert np.isfinite(fit).all()
    assert _bits(fit[: len(values)]) == _bits(expected)
    # A run that does not overflow keeps its fit.
    assert _bits(fit[len(values) :]) == _bits(alone) == _bits([0.0, 1.5, 1.5])


def test_simplify_fits_segments_whose_sums_overflow():
    values = np.array([-1e308, 1.5e308, 1.5e308, 1.4e308, 1.5e308, 1.5e308, 0.0, 1.6e308])
    out = simplify(TimeSeries(values), Fraction(1.0)).values
    scaled = simplify(TimeSeries(values * 2.0**-64), Fraction(1.0)).values * 2.0**64
    assert np.isfinite(out).all()
    assert _bits(out) == _bits(scaled)
    # The segment 0 .. 7 rises, so its six inner samples pool to their mean.
    assert out[1:7].tolist() == pytest.approx([float(np.sum(values[1:7] / 6))] * 6, rel=1e-15)


def test_fraction_removes_the_less_persistent_overflowed_pair():
    # Both pairs have persistence inf. The birth-4 pair (true persistence
    # 2.9e308) goes first, so the birth-2 pair (3.0e308) stays anchored.
    values = [-1.6e308, 1.4e308, -1.6e308, 1.4e308, -1.5e308]
    d = diagram_of(values)
    keep = simplify_module._retained(d, Fraction(0.5))
    assert diagram_rows(d, "birth_index", where=~keep) == [(4,)]
    assert keep.tolist() == fraction_kept(d, 0.5).tolist()
    assert simplify_module._retained(d, Threshold(1e308)).all()
    out = simplify(TimeSeries(values), Fraction(0.5)).values
    assert out.tolist() == [-1.6e308, 1.4e308, -1.6e308, -1.5e308, -1.5e308]
    assert _bits(out) == _bits(simplify_all_segments(values, d, Fraction(0.5)))


def _per_run_oracle(values, starts) -> np.ndarray:
    """The per-sample PAV of each run, refitted scaled by 2**-64 where it overflows."""
    bounds = [*starts, len(values)]
    fits = []
    for a, b in zip(bounds, bounds[1:]):
        fit = _pav(values[a:b])
        if not np.isfinite(fit).all():
            fit = _pav(values[a:b] * 2.0**-64) * 2.0**64
        fits.append(fit)
    return np.concatenate(fits)


@pytest.mark.parametrize("mode", PAV_MODES)
@pytest.mark.parametrize("style", ["tie_rich", "near_max"])
def test_runs_equal_the_per_sample_oracle(style, mode):
    # 900 runs of 1 to 79 samples: in the default mode over 512 of them are
    # short enough for lockstep and the others go through the loop.
    rng = np.random.default_rng(11)
    levels = {
        "tie_rich": [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0],
        "near_max": [-1.7976931348623157e308, -1.5e308, -1e308, 0.0, 1e308, 1.5e308, 1.7e308],
    }[style]
    for _ in range(3):
        length = rng.integers(1, 80, 900)
        values = rng.choice(levels, int(length.sum()))
        if style == "near_max":
            values *= rng.uniform(0.9, 1.0, len(values))
        starts = np.cumsum(length) - length
        with pav_mode(mode):
            fit = isotonic_fit(values, starts=starts)
        assert _bits(fit) == _bits(_per_run_oracle(values, starts.tolist()))


def test_default_mode_takes_both_paths(monkeypatch):
    calls = []
    for name in ("_pav_loop", "_pav_lockstep"):
        original = getattr(simplify_module, name)

        def recording(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(simplify_module, name, recording)
    length = np.array([3] * simplify_module._LOCKSTEP_RUNS + [simplify_module._LOCKSTEP_LENGTH + 1])
    values = np.random.default_rng(3).normal(size=int(length.sum()))
    starts = np.cumsum(length) - length
    fit = isotonic_fit(values, starts=starts)
    assert sorted(calls) == ["_pav_lockstep", "_pav_loop"]
    assert _bits(fit) == _bits(_per_run_oracle(values, starts.tolist()))
    calls.clear()
    isotonic_fit(values[: -length[-1] - 3], starts=starts[:-2])
    assert calls == ["_pav_loop"]


@given(st.lists(st.integers(0, 8).map(lambda v: v * 0.25), min_size=1, max_size=6))
def test_matches_partition_oracle_in_each_pav_mode(values):
    _, best_sse = isotonic_best(values)
    for mode in PAV_MODES:
        with pav_mode(mode):
            fit = isotonic_fit(values)
        assert np.all(np.diff(fit) >= 0), mode
        sse = float(np.sum((fit - np.asarray(values)) ** 2))
        assert abs(sse - best_sse) <= 1e-9, mode


@settings(max_examples=300)
@given(signed_zero_plateaus, st.booleans(), st.floats(0.0, 1.0, allow_nan=False))
def test_signed_zero_anchors_and_plateaus_in_each_pav_mode(values, by_threshold, q):
    policy = Threshold(3.5 * q) if by_threshold else Fraction(q)
    expected = _bits(_per_segment(values, policy))
    for mode in PAV_MODES:
        with pav_mode(mode):
            assert _bits(simplify(TimeSeries(values), policy).values) == expected, mode


@pytest.mark.parametrize("mode", PAV_MODES)
def test_small_refit_examples_in_each_pav_mode(mode):
    with pav_mode(mode):
        test_clip_keeps_a_sample_equal_to_its_bound()
        test_length_two_segments()


@pytest.mark.parametrize("mode", PAV_MODES)
@pytest.mark.parametrize("kind", ["spike_train", "noisy_sine", "random_walk", "noisy_sine_rounded"])
def test_refit_equals_per_segment_oracle_in_each_pav_mode(kind, mode):
    for n, seed in ((1024, 1), (4096, 2)):
        series = generate_synthetic(kind.removesuffix("_rounded"), n, seed)
        if kind.endswith("_rounded"):
            series = TimeSeries(np.round(series.values))
        d = diagram_of(series)
        threshold = Threshold(0.25 * float(np.ptp(series.values)))
        for policy in (Fraction(0.5), Fraction(0.9), threshold):
            anchors = simplify_anchors(n, d, policy)
            expected = refit_segments(series.values, anchors)
            with pav_mode(mode):
                out = simplify(series, policy)
            assert _bits(out.values) == _bits(expected), (n, seed, policy)


# sha256 over simplify's output values at seed 7, for n = 4096 and 131072
# in turn, each of the three kinds and then the noisy sine rounded to
# integers, with Fraction(0.5) and then Threshold(0.25 * value range).
# Recorded when the per-sample loop was isotonic_fit's only path.
SIMPLIFY_BYTES_SEED7 = "a767a0c4f806c57826ef5870a4988f739e0d0428ea8449a2cbbdddb0eea1c99f"


def test_simplify_output_bytes_unchanged():
    digest = hashlib.sha256()
    for n in (4096, 131072):
        for kind in ("spike_train", "noisy_sine", "random_walk", "noisy_sine_rounded"):
            series = generate_synthetic(kind.removesuffix("_rounded"), n, 7)
            if kind.endswith("_rounded"):
                series = TimeSeries(np.round(series.values))
            value_range = float(np.ptp(series.values))
            for policy in (Fraction(0.5), Threshold(0.25 * value_range)):
                digest.update(simplify(series, policy).values.tobytes())
    assert digest.hexdigest() == SIMPLIFY_BYTES_SEED7
