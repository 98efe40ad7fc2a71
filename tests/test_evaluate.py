import numpy as np
import pytest

from toposmooth import (
    EvaluationError,
    FitLine,
    TimeSeries,
    auc,
    evaluate_series,
    fit_line,
    rank_methods,
    sweep,
)
from toposmooth.evaluate import METRIC_NAMES
from toposmooth.io import canonical_json, report_to_dict


class TestSweep:
    def test_identity_threshold_all_metrics_zero(self):
        rng = np.random.default_rng(2)
        series = TimeSeries(rng.normal(0, 1, 64))
        points, failures = sweep(series, "topological_threshold", [0.0])
        assert failures == []
        (p,) = points
        assert p.l1 == p.linf == p.w1 == p.bottleneck == 0.0
        from toposmooth import approx_entropy

        assert p.entropy == approx_entropy(series)

    def test_identity_subsample_all_metrics_zero(self):
        rng = np.random.default_rng(2)
        series = TimeSeries(rng.normal(0, 1, 64))
        points, _ = sweep(series, "subsample", [1])
        assert points[0].l1 == points[0].linf == 0.0
        assert points[0].w1 == points[0].bottleneck == 0.0

    def test_median_spike_example(self):
        series = TimeSeries([0.0, 10.0, 0.0, 0.0])
        points, failures = sweep(series, "median", [3], r=1.0)
        assert failures == []
        (p,) = points
        assert p.l1 == 10.0
        assert p.linf == 10.0
        # Spike pair (persistence 10) goes to the diagonal.
        assert p.w1 == 10.0
        assert p.bottleneck == 5.0
        assert p.entropy == 0.0

    def test_failures_recorded_not_raised(self):
        series = TimeSeries([0.0, 1.0, 0.5, 2.0] * 8)
        points, failures = sweep(series, "median", [3, 4, 5], r=0.3)
        assert len(points) == 2
        assert len(failures) == 1 and "4" in failures[0]

    def test_bad_entropy_arguments_raise(self):
        # A measure that cannot be taken is an error of the request, not a
        # failure of one grid point.
        series = TimeSeries([0.0, 1.0, 0.5, 2.0] * 8)
        with pytest.raises(ValueError, match="m must be >= 1, got 0"):
            sweep(series, "median", [3, 5], m=0)
        with pytest.raises(ValueError, match="r must be finite and > 0, got inf"):
            sweep(series, "median", [3, 5], r=float("inf"))

    def test_rejects_unknown_method_and_empty_grid(self):
        series = TimeSeries([0.0, 1.0] * 8)
        with pytest.raises(ValueError):
            sweep(series, "boxcar", [1])
        with pytest.raises(ValueError):
            sweep(series, "median", [])


class TestFitLine:
    def test_two_points_exact(self):
        fit = fit_line([(0.0, 0.0), (1.0, 2.0)])
        assert fit.slope == 2.0 and fit.intercept == 0.0
        assert fit.domain == (0.0, 1.0)

    def test_flat(self):
        fit = fit_line([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
        assert fit.slope == 0.0 and fit.intercept == 1.0

    def test_ols_example(self):
        fit = fit_line([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
        assert abs(fit.slope - 0.5) < 1e-12
        assert abs(fit.intercept - 1.0 / 6.0) < 1e-12

    def test_matches_closed_form_on_random_points(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(0, 1, 20)
        ys = rng.normal(0, 1, 20)
        fit = fit_line(list(zip(xs, ys)))
        slope_expected, intercept_expected = np.polyfit(xs, ys, 1)
        assert abs(fit.slope - slope_expected) < 1e-9
        assert abs(fit.intercept - intercept_expected) < 1e-9

    def test_degenerate_entropy_unrankable(self):
        with pytest.raises(EvaluationError):
            fit_line([(1.0, 0.0), (1.0, 5.0), (1.0, 9.0)])
        with pytest.raises(EvaluationError):
            fit_line([(1.0, 0.0)])


class TestAuc:
    def test_flat_line(self):
        assert auc(FitLine(0.0, 3.0, (0.0, 2.0)), (0.0, 2.0)) == 6.0

    def test_identity_line(self):
        assert auc(FitLine(1.0, 0.0, (0.0, 1.0)), (0.0, 1.0)) == 0.5

    def test_clamped_below_root(self):
        assert abs(auc(FitLine(2.0, -1.0, (0.0, 1.0)), (0.0, 1.0)) - 0.25) < 1e-12

    def test_fully_negative_is_zero(self):
        assert auc(FitLine(0.0, -2.0, (0.0, 1.0)), (0.0, 1.0)) == 0.0

    def test_negative_then_clamped_tail(self):
        # y = -2x + 1 over [0, 1]: positive up to 0.5, area 0.25.
        assert abs(auc(FitLine(-2.0, 1.0, (0.0, 1.0)), (0.0, 1.0)) - 0.25) < 1e-12

    def test_empty_domain_rejected(self):
        with pytest.raises(EvaluationError):
            auc(FitLine(1.0, 0.0, (0.0, 1.0)), (1.0, 1.0))


def make_aucs(per_metric_auc):
    return {metric: dict(per_metric_auc) for metric in METRIC_NAMES}


def rank_numbers(per_method):
    return {method: entry["rank"] for method, entry in per_method.items()}


class TestRanking:
    def test_simple_order(self):
        ranks, overall = rank_methods(make_aucs({"A": 1.0, "B": 2.0}))
        for metric in METRIC_NAMES:
            assert rank_numbers(ranks[metric]) == {"A": 1, "B": 2}
        assert overall == {"A": 1.0, "B": 2.0}

    def test_tie_broken_by_name(self):
        ranks, _ = rank_methods(make_aucs({"A": 1.0, "B": 1.0}))
        assert rank_numbers(ranks["l1"]) == {"A": 1, "B": 2}

    def test_average_of_mixed_ranks(self):
        aucs = {
            "l1": {"A": 1.0, "B": 2.0},
            "linf": {"A": 1.0, "B": 2.0},
            "w1": {"A": 2.0, "B": 1.0},
            "bottleneck": {"A": 2.0, "B": 1.0},
        }
        _, overall = rank_methods(aucs)
        assert overall == {"A": 1.5, "B": 1.5}

    def test_unrankable_gets_penalty_rank(self):
        ranks, overall = rank_methods(make_aucs({"A": 1.0, "B": 2.0, "C": None}))
        assert ranks["l1"]["C"] == {"auc": None, "rank": 4, "unrankable": True}
        assert overall["C"] == 4.0

    def test_rank_invariant_under_metric_rescaling(self):
        base = {"A": 0.5, "B": 1.25, "C": 3.0}
        r1, _ = rank_methods(make_aucs(base))
        r2, _ = rank_methods(make_aucs({k: 17.0 * v for k, v in base.items()}))
        for metric in METRIC_NAMES:
            assert rank_numbers(r1[metric]) == rank_numbers(r2[metric])

    def test_needs_two_methods(self):
        with pytest.raises(EvaluationError):
            rank_methods(make_aucs({"A": 1.0}))


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(13)
    values = rng.normal(0.0, 1.0, 192)
    values[30] += 15.0
    values[120] += 20.0
    return TimeSeries(values, label="unit")


class TestEvaluateSeries:
    def test_report_structure(self, series):
        result = evaluate_series(series)
        assert result.dataset == "unit"
        assert len(result.overall) == 6
        for metric in METRIC_NAMES:
            assert sorted(rank_numbers(result.ranks[metric]).values()) == list(range(1, 7))
            assert set(result.ranks[metric]) == set(result.overall)
        assert result.shared_domain[0] < result.shared_domain[1]

    def test_deterministic_reports(self, series):
        config = {"m": 2, "r_factor": 0.2}
        a = canonical_json(report_to_dict(evaluate_series(series), config))
        b = canonical_json(report_to_dict(evaluate_series(series), config))
        assert a == b

    def test_constant_series_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate_series(TimeSeries([1.0] * 64))
