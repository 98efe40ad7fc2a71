"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import itertools
import json
import time

import numpy as np
from helpers import random_diagram, random_values, sweep_mode
from oracles import (
    exhaustive_bottleneck,
    exhaustive_wasserstein1,
    isotonic_best,
    sublevel_pairs,
)

from toposmooth import (
    Fraction,
    Threshold,
    TimeSeries,
    bottleneck,
    cutoff_filter,
    diagram_of,
    douglas_peucker,
    evaluate_series,
    gaussian_filter,
    generate_synthetic,
    isotonic_fit,
    median_filter,
    select_pairs,
    simplify,
    uniform_subsample,
    wasserstein1,
)
from toposmooth.cli import main


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number}: FAIL - {description}")
                raise
            print(f"\ncriterion {number}: PASS - {description}")

        return wrapper

    return decorate


@criterion(1, "persistence matches brute-force tracker on all 4^8 length-8 series")
def test_persistence_oracle_exhaustive():
    start = time.perf_counter()
    for digits in itertools.product(range(4), repeat=8):
        values = [float(d) for d in digits]
        diagram = diagram_of(values)
        got = sorted(
            (p.birth_index, p.death_index, p.birth_value, p.death_value)
            for p in diagram.pairs
        )
        expected_pairs, expected_essential = sublevel_pairs(values)
        assert got == sorted(expected_pairs), values
        assert diagram.essential_min_index == expected_essential, values
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion(1, "persistence matches the tracker on all 4^8 series with the sweep's rounds forced")
def test_persistence_oracle_exhaustive_with_rounds():
    # Length-8 series have at most three interior maxima, which the
    # default sweep pairs in its loop; these modes pair them in rounds.
    for digits in itertools.product(range(4), repeat=8):
        values = [float(d) for d in digits]
        expected_pairs, expected_essential = sublevel_pairs(values)
        for mode in ("all_rounds", "handover"):
            with sweep_mode(mode):
                diagram = diagram_of(values)
            got = sorted(
                (p.birth_index, p.death_index, p.birth_value, p.death_value)
                for p in diagram.pairs
            )
            assert got == sorted(expected_pairs), (mode, values)
            assert diagram.essential_min_index == expected_essential, (mode, values)


@criterion(2, "isotonic fit matches brute-force monotone projection (gap <= 1e-9)")
def test_isotonic_optimality():
    rng = np.random.default_rng(101)
    for _ in range(500):
        length = int(rng.integers(1, 7))
        values = (rng.integers(0, 9, length) * 0.25).tolist()
        fit = isotonic_fit(values)
        assert np.all(np.diff(fit) >= 0)
        sse = float(np.sum((fit - np.asarray(values)) ** 2))
        _, best_sse = isotonic_best(values)
        assert abs(sse - best_sse) <= 1e-9, values


@criterion(3, "diagram of simplified series is exactly the retained pair multiset")
def test_simplification_consistency():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        values = random_values(rng, n)
        series = TimeSeries(values)
        diagram = diagram_of(series)
        if rng.integers(0, 2):
            max_p = max((p.persistence for p in diagram.pairs), default=1.0)
            policy = Threshold(float(rng.uniform(0.0, 1.2 * max_p)))
        else:
            policy = Fraction(float(rng.uniform(0.0, 1.0)))
        retained, _ = select_pairs(diagram, policy)
        out = simplify(series, policy)
        got = sorted((p.birth_value, p.death_value) for p in diagram_of(out).pairs)
        expected = sorted((p.birth_value, p.death_value) for p in retained)
        assert got == expected, (values.tolist(), policy)
        for pair in retained:
            assert out.values[pair.birth_index] == values[pair.birth_index]
            assert out.values[pair.death_index] == values[pair.death_index]


@criterion(4, "diagram distances match the exhaustive matching oracle (<= 1e-9)")
def test_distance_oracle():
    rng = np.random.default_rng(303)
    for _ in range(1000):
        c1 = random_diagram(rng, 5)
        c2 = random_diagram(rng, 5)
        assert abs(wasserstein1(c1, c2) - exhaustive_wasserstein1(c1, c2)) <= 1e-9
        assert abs(bottleneck(c1, c2) - exhaustive_bottleneck(c1, c2)) <= 1e-9
    for _ in range(200):
        a = random_diagram(rng, 4)
        b = random_diagram(rng, 4)
        c = random_diagram(rng, 4)
        assert abs(wasserstein1(a, b) - wasserstein1(b, a)) <= 1e-9
        assert abs(bottleneck(a, b) - bottleneck(b, a)) <= 1e-9
        assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-9
        assert bottleneck(a, c) <= bottleneck(a, b) + bottleneck(b, c) + 1e-9


@criterion(5, "bottleneck(input, simplified) <= t/2 for threshold t")
def test_bottleneck_bound():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        values = random_values(rng, n)
        series = TimeSeries(values)
        diagram = diagram_of(series)
        max_p = max((p.persistence for p in diagram.pairs), default=1.0)
        t = float(rng.uniform(0.0, 1.5 * max_p))
        after = diagram_of(simplify(series, Threshold(t)))
        assert bottleneck(diagram, after) <= t / 2.0


@criterion(6, "filter contracts: identity, weight sums, residual bound, constants")
def test_filter_contracts():
    rng = np.random.default_rng(505)
    for _ in range(50):
        n = int(rng.integers(8, 129))
        values = rng.normal(0.0, 3.0, n)
        series = TimeSeries(values)
        # Full-spectrum cutoff is the identity.
        full = cutoff_filter(series, n // 2)
        assert np.max(np.abs(full.values - values)) <= 1e-9
        # Douglas-Peucker residual never exceeds epsilon.
        eps = float(rng.uniform(0.0, 4.0))
        dp = douglas_peucker(series, eps)
        assert np.max(np.abs(dp.values - values)) <= eps + 1e-12
    # Gaussian kernel weights sum to 1: an interior unit impulse comes out
    # summing to 1, and constants pass through exactly.
    for sigma in (0.3, 1.0, 2.5, 7.0):
        radius = int(np.ceil(3.0 * sigma))
        impulse = np.zeros(4 * radius + 1)
        impulse[2 * radius] = 1.0
        out = gaussian_filter(TimeSeries(impulse), sigma)
        assert abs(float(np.sum(out.values)) - 1.0) <= 1e-12
    constant = TimeSeries([4.25] * 32)
    for apply in (
        lambda s: median_filter(s, 5),
        lambda s: gaussian_filter(s, 2.0),
        lambda s: cutoff_filter(s, 3),
        lambda s: uniform_subsample(s, 4),
        lambda s: douglas_peucker(s, 0.5),
    ):
        out = apply(constant)
        assert np.max(np.abs(out.values - 4.25)) <= 1e-9


@criterion(7, "spike train: topological smoothing wins find-extrema and value tasks")
def test_qualitative_spike_train_claim():
    start = time.perf_counter()
    series = generate_synthetic("spike_train", 1024, 7)
    result = evaluate_series(series)

    topo_points = result.sweep_points["topological"]
    matches = 0
    for other in ("median", "gaussian", "cutoff", "subsample"):
        for tp in topo_points:
            for op in result.sweep_points[other]:
                if abs(tp.entropy - op.entropy) <= 0.05:
                    matches += 1
                    assert tp.bottleneck < op.bottleneck, (
                        f"{other} at parameter {op.parameter} beats topological "
                        f"({op.bottleneck} <= {tp.bottleneck}) at entropy {op.entropy}"
                    )
    assert matches > 0, "no matched entropy levels; comparison would be vacuous"

    for metric in ("l1", "linf"):
        ranks = result.ranks[metric]
        best = next(method for method, entry in ranks.items() if entry["rank"] == 1)
        assert best == "topological", ranks
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


@criterion(8, "two evaluate runs with identical config emit byte-identical JSON")
def test_determinism(tmp_path):
    args = [
        "evaluate",
        "--synth-kind",
        "spike-train",
        "--n",
        "256",
        "--seed",
        "7",
    ]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(dir_a)]) == 0
    assert main(args + ["--out-dir", str(dir_b)]) == 0
    name = "spike_train-n256-seed7_report.json"
    bytes_a = (dir_a / name).read_bytes()
    bytes_b = (dir_b / name).read_bytes()
    assert bytes_a == bytes_b
    json.loads(bytes_a)  # well-formed
