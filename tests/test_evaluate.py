import fcntl
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from toposmooth import (
    EvaluationError,
    FitLine,
    Threshold,
    TimeSeries,
    approx_entropy,
    auc,
    bottleneck,
    diagram_of,
    evaluate_series,
    fit_line,
    gaussian_filter,
    generate_synthetic,
    norm_l1,
    norm_linf,
    rank_methods,
    sweep,
    wasserstein1,
)
import toposmooth
from toposmooth import evaluate
from toposmooth.evaluate import DEFAULT_METHODS, METHODS, METRIC_NAMES, SweepPoint, default_grids
from toposmooth.filters import douglas_peucker_indices
from toposmooth.io import canonical_json, report_to_dict

SRC = Path(toposmooth.__file__).resolve().parent.parent

# A sweep whose caller ends at its second point while the child sleeps
# 1.5 s inside its first; it prints the child's pid when it forks.
CALLER_THAT_DIES = """
import os, time
from toposmooth import evaluate, generate_synthetic, sweep

caller, real_fork, real_entropy, calls = os.getpid(), os.fork, evaluate.approx_entropy, []

def fork():
    pid = real_fork()
    if pid:
        print(pid, flush=True)
    return pid

def entropy(*args, **kwargs):
    if os.getpid() != caller:
        time.sleep(1.5)
    else:
        calls.append(1)
        if len(calls) == 2:
            os._exit(0)
    return real_entropy(*args, **kwargs)

os.fork, evaluate.approx_entropy = fork, entropy
sweep(generate_synthetic("noisy_sine", 160, 3), "median", [3, 5, 7, 9, 11, 13, 15, 17], r=0.3)
"""


def score_directly(series, method, grid, r):
    """The repr of each grid point's SweepPoint, its measures called in turn."""
    original = diagram_of(series)
    expected = []
    for param in grid:
        smoothed = METHODS[method](series, param)
        target = diagram_of(smoothed)
        point = SweepPoint(
            method,
            param,
            approx_entropy(smoothed, m=2, r=r),
            norm_l1(series, smoothed),
            norm_linf(series, smoothed),
            wasserstein1(original, target),
            bottleneck(original, target),
        )
        expected.append(repr(point))
    return expected


def spy_on_fork(monkeypatch):
    """Record each ``os.fork`` call (in the calling process) and still fork."""
    calls, real = [], os.fork

    def fork():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def process_state(pid):
    """The state letter in ``/proc/<pid>/stat``, or None once the process is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


class TestSweep:
    def test_identity_threshold_all_metrics_zero(self):
        rng = np.random.default_rng(2)
        series = TimeSeries(rng.normal(0, 1, 64))
        points, failures = sweep(series, "topological_threshold", [0.0])
        assert failures == []
        (p,) = points
        assert p.l1 == p.linf == p.w1 == p.bottleneck == 0.0
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

    def test_points_and_failures_keep_grid_order(self):
        series = generate_synthetic("noisy_sine", 96, 5)
        points, failures = sweep(series, "median", [7, 3.9, 3, 4, 5], r=0.3)
        assert [p.parameter for p in points] == [7.0, 3.0, 5.0]
        assert failures == [
            "median parameter 3.9: median parameter must be an integer, got 3.9",
            "median parameter 4: window must be an odd integer >= 1, got 4",
        ]

    def test_sigma_whose_square_overflows_is_a_named_failure(self):
        series = generate_synthetic("noisy_sine", 64, 7)
        assert sweep(series, "gaussian", [1e300]) == (
            [],
            ["gaussian parameter 1e+300: sigma must have a square below the float maximum, got 1e+300"],
        )

    @pytest.mark.parametrize("kind", ["spike_train", "noisy_sine", "random_walk"])
    def test_equals_scoring_each_point_directly(self, kind):
        # Points are shared with a forked child; every value keeps its bits.
        series = generate_synthetic(kind, 160, 3)
        r = 0.2 * float(np.std(series.values, ddof=1))
        grids = default_grids(len(series), float(np.ptp(series.values)))
        for method in DEFAULT_METHODS:
            points, failures = sweep(series, method, grids[method], r=r)
            assert failures == []
            assert [repr(p) for p in points] == score_directly(series, method, grids[method], r)
        assert_no_child()

    def test_bad_entropy_arguments_raise(self, monkeypatch):
        # A measure that cannot be taken is an error of the request, not a
        # failure of one grid point, even when every point fails to smooth;
        # it is refused before a child is forked.
        forks = spy_on_fork(monkeypatch)
        series = TimeSeries([0.0, 1.0, 0.5, 2.0] * 8)
        with pytest.raises(ValueError, match="m must be >= 1, got 0"):
            sweep(series, "median", [3, 5, 7, 9], m=0)
        with pytest.raises(ValueError, match="m must be >= 1, got 0"):
            sweep(series, "median", [4, 6], m=0)
        with pytest.raises(ValueError, match="r must be finite and > 0, got inf"):
            sweep(series, "median", [3, 5], r=float("inf"))
        with pytest.raises(ValueError, match="r must be finite and > 0, got nan"):
            sweep(series, "median", [4], r=float("nan"))
        with pytest.raises(ValueError, match="m must be >= 1, got 0"):
            evaluate_series(series, m=0)
        with pytest.raises(ValueError, match=r"^r_factor must be finite and > 0, got -1\.0$"):
            evaluate_series(series, r_factor=-1.0)
        # Too long an m is refused whether the points fail to smooth or not.
        for grid in ([4, 6], [3, 5]):
            with pytest.raises(ValueError, match="series of length 32 too short for m=31"):
                sweep(series, "median", grid, m=31)
        with pytest.raises(ValueError, match="series of length 32 too short for m=32"):
            evaluate_series(series, m=len(series))
        assert forks == []
        points, _ = sweep(series, "median", [3, 5], r=0.3)
        assert len(points) == 2
        assert_no_child()

    @pytest.mark.parametrize("grid", [[3.0, 5.0], [4.0], [3, 4.5, 7]])
    def test_array_grid_equals_the_same_list(self, grid):
        series = generate_synthetic("noisy_sine", 96, 5)
        expected = repr(sweep(series, "median", grid, r=0.3))
        assert repr(sweep(series, "median", np.array(grid), r=0.3)) == expected

    def test_empty_array_grid_refused(self):
        with pytest.raises(ValueError, match="^parameter grid must be non-empty$"):
            sweep(generate_synthetic("noisy_sine", 96, 5), "median", np.array([]), r=0.3)

    def test_numpy_integer_m_keeps_every_bit(self):
        series = generate_synthetic("noisy_sine", 96, 5)
        expected = repr(sweep(series, "median", [3, 5, 7], r=0.3, m=2))
        for m in (np.int64(2), np.int32(2), np.uint8(2)):
            assert repr(sweep(series, "median", [3, 5, 7], r=0.3, m=m)) == expected

    @pytest.mark.parametrize("m", [2.5, "2", True])
    def test_non_integer_m_refused_before_any_fork(self, monkeypatch, m):
        forks = spy_on_fork(monkeypatch)
        series = TimeSeries([0.0, 1.0, 0.5, 2.0] * 8)
        for call in (
            lambda: sweep(series, "median", [3, 5], m=m),
            lambda: evaluate_series(series, m=m),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"m must be an integer, got {m!r}"
        assert forks == []
        assert_no_child()

    @pytest.mark.parametrize("r", [True, "0.5"])
    def test_non_real_r_refused_before_any_fork(self, monkeypatch, r):
        forks = spy_on_fork(monkeypatch)
        series = TimeSeries([0.0, 1.0, 0.5, 2.0] * 8)
        with pytest.raises(ValueError) as info:
            sweep(series, "median", [3], r=r)
        assert str(info.value) == f"r must be a real number, got {r!r}"
        with pytest.raises(ValueError) as info:
            evaluate_series(series, r_factor=r)
        assert str(info.value) == f"r_factor must be a real number, got {r!r}"
        assert forks == []
        assert_no_child()

    @pytest.mark.parametrize("death", ["exit", "raise"])
    def test_child_that_stops_mid_queue_changes_nothing(self, monkeypatch, death):
        # The caller scores the points whose results never came back.
        series = generate_synthetic("noisy_sine", 160, 3)
        grid = [3, 5, 7, 9, 11, 13, 15, 17]
        expected = sweep(series, "median", grid, r=0.3)
        forks = spy_on_fork(monkeypatch)
        test_pid, real, calls = os.getpid(), evaluate.approx_entropy, []

        def stops_in_child(*args, **kwargs):
            calls.append(1)
            if os.getpid() != test_pid and len(calls) > 1:
                if death == "exit":
                    os._exit(1)
                raise RuntimeError("child stopped")
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluate, "approx_entropy", stops_in_child)
        assert sweep(series, "median", grid, r=0.3) == expected
        assert len(forks) == evaluate._may_fork()
        assert_no_child()

    def test_error_in_the_caller_kills_and_reaps_the_child(self, monkeypatch):
        # The child would take 20 s over its first point; the caller's error
        # must not wait for it.
        series = generate_synthetic("noisy_sine", 160, 3)
        test_pid, real, calls = os.getpid(), evaluate.approx_entropy, []

        def fails_third_in_caller(*args, **kwargs):
            if os.getpid() != test_pid:
                time.sleep(20.0)
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("third point")
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluate, "approx_entropy", fails_third_in_caller)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="third point"):
            sweep(series, "median", [3, 5, 7, 9, 11, 13, 15, 17], r=0.3)
        assert time.monotonic() - start < 10.0
        assert_no_child()

    def test_scores_alone_beside_another_thread(self, monkeypatch):
        # fork copies only the calling thread, so no child is forked while
        # a second thread runs; the values are the same.
        series = generate_synthetic("random_walk", 160, 3)
        grid = [3, 5, 7, 9]
        expected = sweep(series, "median", grid, r=0.3)
        forks = spy_on_fork(monkeypatch)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            points = sweep(series, "median", grid, r=0.3)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == []
        assert points == expected

    @pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs F_SETPIPE_SZ")
    def test_grid_longer_than_the_queue_in_one_page_pipes(self, monkeypatch):
        # Tokens beyond one page could block the writer of a one-page pipe
        # before the child exists; the alarm turns such a hang into an error.
        series = TimeSeries([0.0, 1.0, 0.5, 2.0, -1.0, 0.25] * 3)
        grid = [float(t) for t in np.linspace(0.0, 3.0, evaluate._QUEUE_TOKENS + 77)]
        expected = score_directly(series, "topological_threshold", grid, 0.3)
        real_pipe = os.pipe

        def one_page_pipe():
            read, write = real_pipe()
            fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096)
            return read, write

        def too_slow(signum, frame):
            raise TimeoutError("the sweep blocked")

        monkeypatch.setattr(os, "pipe", one_page_pipe)
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(60)
        try:
            points, failures = sweep(series, "topological_threshold", grid, r=0.3)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert failures == []
        assert [repr(p) for p in points] == expected
        assert_no_child()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_sweep_in_a_forked_child(self):
        # A sweep in a child forked after a sweep forks and reaps its own.
        series = TimeSeries([0.0, 1.0, 0.5, 2.0] * 8)
        expected, _ = sweep(series, "median", [3, 5], r=0.3)
        pid = os.fork()
        if pid == 0:
            try:
                points, _ = sweep(series, "median", [3, 5], r=0.3)
                try:
                    os.waitpid(-1, os.WNOHANG)
                except ChildProcessError:
                    os._exit(0 if points == expected else 1)
                os._exit(3)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 30.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
        assert_no_child()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    def test_orphaned_child_ends_after_its_point(self):
        # The caller ends while its child scores a point; once that point is
        # done, the child's result has no reader, and the child ends too.
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("a sweep forks only with two CPUs")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        caller = subprocess.Popen(
            [sys.executable, "-c", CALLER_THAT_DIES], stdout=subprocess.PIPE, text=True, env=env
        )
        # One line, not up to EOF: the orphan still holds the pipe.
        with caller.stdout:
            pid = int(caller.stdout.readline())
        assert caller.wait(timeout=30) == 0
        deadline = time.monotonic() + 10.0
        while (state := process_state(pid)) not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.05)
        if state not in (None, "Z"):
            os.kill(pid, signal.SIGKILL)
        assert state in (None, "Z")

    def test_constant_series_default_tolerance_rejected(self):
        with pytest.raises(ValueError) as info:
            sweep(TimeSeries([3.0] * 8), "median", [3])
        assert info.type is ValueError
        assert str(info.value) == "series is constant; entropy calibration undefined"

    def test_parameter_outside_the_float_range_recorded(self):
        series = generate_synthetic("noisy_sine", 64, 7)
        points, failures = sweep(series, "douglas_peucker", [10**400, 0.5], r=0.3)
        assert [p.parameter for p in points] == [0.5]
        assert failures == [
            f"douglas_peucker parameter {10**400!r}: "
            "douglas-peucker parameter must lie within the float range"
        ]

    def test_rejects_unknown_method_and_empty_grid(self):
        series = TimeSeries([0.0, 1.0] * 8)
        with pytest.raises(ValueError):
            sweep(series, "boxcar", [1])
        with pytest.raises(ValueError):
            sweep(series, "median", [])


# Python ints that no float holds: each call refuses one with a ValueError
# naming the parameter (a diagram point's coordinate, with its point).
@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda s: bottleneck([(0, 10**400)], []),
            f"diagram point {(0, 10**400)!r} must be a pair of real numbers",
        ),
        (
            lambda s: wasserstein1([], [(-(10**400), 0)]),
            f"diagram point {(-(10**400), 0)!r} must be a pair of real numbers",
        ),
        (lambda s: douglas_peucker_indices(s, 10**400), "epsilon must lie within the float range"),
        (lambda s: gaussian_filter(s, 10**400), "sigma must lie within the float range"),
        (lambda s: approx_entropy(s, r=10**400), "r must lie within the float range"),
        (
            lambda s: METHODS["douglas_peucker"](s, 10**400),
            "douglas-peucker parameter must lie within the float range",
        ),
        (lambda s: Threshold(10**400), "threshold must lie within the float range"),
    ],
    ids=["bottleneck", "wasserstein1", "douglas_peucker", "gaussian", "entropy", "method",
         "threshold"],
)
def test_int_outside_the_float_range_refused(call, message):
    with pytest.raises(ValueError) as info:
        call(generate_synthetic("noisy_sine", 64, 7))
    assert info.type is ValueError
    assert str(info.value) == message


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

    @pytest.mark.parametrize(
        "points, message",
        [
            ([(0.1, np.inf), (0.5, 3.0)], "cannot fit the non-finite point (0.1, inf)"),
            ([(0.2, 1.0), (np.nan, 3.0)], "cannot fit the non-finite point (nan, 3.0)"),
            (
                [(0.1, 1e308), (0.5, -1e308), (0.3, 1e308)],
                "the fit overflowed: slope -inf, intercept inf",
            ),
        ],
    )
    def test_non_finite_fit_refused_without_warnings(self, points, message):
        # pyproject.toml turns warnings into errors, so a numpy warning fails here.
        with pytest.raises(EvaluationError) as info:
            fit_line(points)
        assert info.type is EvaluationError
        assert str(info.value) == message


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

    def test_numpy_integer_m_gives_the_same_report(self, series):
        config = {"m": 2, "r_factor": 0.2}
        expected = canonical_json(report_to_dict(evaluate_series(series, m=2), config))
        got = canonical_json(report_to_dict(evaluate_series(series, m=np.int32(2)), config))
        assert got == expected

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError) as info:
            evaluate_series(TimeSeries([1.0] * 64))
        assert info.type is ValueError
        assert str(info.value) == "series is constant; entropy calibration undefined"

    def test_disjoint_entropy_ranges_rejected(self):
        with pytest.raises(EvaluationError) as info:
            evaluate_series(TimeSeries([0, 1, 0, 1, 0]))
        assert str(info.value) == (
            "entropy ranges of the methods do not overlap (intersection [0.0, -0.0566330122651324])"
        )

    def test_failures_listed_by_method_points_then_fit(self, series, monkeypatch):
        # Each method's point failures in grid order, then its fit failure;
        # methods in sorted order.
        grids = default_grids(len(series), float(np.ptp(series.values)))

        def refusing(name, refused):
            method = METHODS[name]

            def apply(s, param):
                if param in refused:
                    raise ValueError("refused")
                return method.apply(s, param)

            monkeypatch.setitem(METHODS, name, method._replace(apply=apply))

        refusing("gaussian", grids["gaussian"][1:])
        refusing("cutoff", grids["cutoff"][2:8:2])
        result = evaluate_series(series)
        assert list(result.failures) == [
            *(f"cutoff parameter {p!r}: refused" for p in grids["cutoff"][2:8:2]),
            *(f"gaussian parameter {p!r}: refused" for p in grids["gaussian"][1:]),
            "gaussian: need >= 2 points to fit, got 1",
        ]
        assert result.ranks["l1"]["gaussian"]["unrankable"]
        assert len(result.sweep_points["cutoff"]) == len(grids["cutoff"]) - 3

    def test_one_unfittable_metric_leaves_the_method_without_fits(self, series, monkeypatch):
        # Only the median's l-infinity norms are infinite; its other three
        # fits succeed alone, but a method has all four fits or none.
        median, linf, smoothed = METHODS["median"], evaluate.norm_linf, []

        def apply(s, window):
            smoothed.append(median.apply(s, window))
            return smoothed[-1]

        monkeypatch.setitem(METHODS, "median", median._replace(apply=apply))
        monkeypatch.setattr(
            evaluate,
            "norm_linf",
            lambda a, b: np.inf if any(b is out for out in smoothed) else linf(a, b),
        )
        result = evaluate_series(series)
        entropy = result.sweep_points["median"][0].entropy  # the grid's first window
        assert list(result.failures) == [
            f"median: cannot fit the non-finite point ({entropy!r}, inf)"
        ]
        assert not any(method == "median" for method, _ in result.fits)
        assert all(result.ranks[metric]["median"]["unrankable"] for metric in METRIC_NAMES)
