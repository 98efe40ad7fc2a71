"""Per-stage timings of the package before and after a change, in BENCH_stages.json.

    python3 scripts/bench_stages.py --before OTHER_CHECKOUT/src \
        --before-label TEXT --after-label TEXT

At n = 1024, 4096 and 16384, on a seed-7 random walk and on the same walk
heavily smoothed (``simplify`` with ``Fraction(0.95)``, which leaves long
plateaus and few pairs), times:

- ``approx_entropy`` (m=2) of both series, with r = 0.2 times the walk's
  sample standard deviation, held fixed as ``evaluate`` holds it;
- ``diagram_of`` of the walk (extremum classification plus the
  persistence sweep);
- ``simplify`` of the walk with ``Fraction(0.5)``;
- ``douglas_peucker_indices`` of the walk with epsilon = 0.01 times its
  value range;
- ``wasserstein1`` and ``bottleneck`` between the two series' diagrams;
- ``bottleneck`` between the diagrams of the walk and of its stride-6
  ``uniform_subsample``, a pair whose count bound falls short, so the
  binary search over candidate costs runs at every size.

Then ``simplify`` of the seed-7 noisy sine at n=131072 with
``Fraction(0.5)``, whose many short segments are pooled in lockstep, and
with ``Threshold(0.25 * value range)``, whose few long ones go through the
loop; ``diagram_of`` and ``simplify`` with ``Fraction(0.5)`` of the
seed-7 spike train at n=131072 (long enough for the sweep to pair in whole-array rounds),
and ``load_csv`` of that sine as ``write_series_csv`` writes it, each
valued by a digest of its values or pairs, and ``evaluate_series`` of the
seed-7 spike train at n=1024 and of the seed-7 random walk and noisy sine
at n=4096, each valued by a digest of all its sweep points. Last, two start-up
times, each a fresh ``python -c`` process that imports the package from
the same ``src``:

- ``startup/import`` runs ``import toposmooth``;
- ``startup/cli_smooth/n4096`` runs the CLI's ``main`` on ``smooth
  --method topological --param 0.5`` of the seed-7 noisy sine at n=4096,
  read from and written to CSV.

A run is one fresh process that imports the package from one side's
``src`` and times every stage as the median of ``REPEATS`` calls, with
BLAS pinned to one thread. The script makes ``RUNS`` rounds of one run a
side, alternating which side goes first, so load from other processes
falls on both sides alike. Each side records, per stage, the median of its run times
with the quartiles beside it and a value (a float hex string or a sha256
of the output), which must be the same in every run. The comparison says
whether every value is identical between the sides, and gives each
stage's speedup (the ratio of the medians) with ``resolved`` true when
every run of one side is faster than every run of the other: with seven
runs a side on a shared machine, quartile ranges that do not overlap
marked stages whose code did not change.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1024, 4096, 16384)
REPEATS = 3
RUNS = 7


def median_time(call) -> tuple[float, object]:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        result = call()
        times.append(perf_counter() - start)
    return statistics.median(times), result


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def measure(src: Path) -> dict:
    """One run: every stage's median time and value, in this process."""
    import numpy as np

    from toposmooth import (
        Fraction,
        Threshold,
        approx_entropy,
        bottleneck,
        diagram_of,
        evaluate_series,
        generate_synthetic,
        load_csv,
        simplify,
        uniform_subsample,
        wasserstein1,
        write_series_csv,
    )
    from toposmooth.filters import douglas_peucker_indices
    from toposmooth.series import sample_std

    def pairs_key(diagram):
        indices = (diagram.birth_index.tolist(), diagram.death_index.tolist())
        values = (map(float.hex, c.tolist()) for c in (diagram.birth_value, diagram.death_value))
        return digest((list(zip(*indices, *values)), diagram.essential_min_index))

    def values_key(series):
        return digest(np.ascontiguousarray(series.values, dtype="<f8").tobytes())

    stages = {}

    def stage(name, call, value):
        seconds, result = median_time(call)
        stages[name] = {"s": round(seconds, 5), "value": value(result)}
        return result

    for n in SIZES:
        walk = generate_synthetic("random_walk", n, 7)
        smoothed = simplify(walk, Fraction(0.95))
        r = 0.2 * sample_std(walk.values)
        for name, series in (("random_walk", walk), ("smoothed_walk", smoothed)):
            stage(
                f"approx_entropy/{name}/n{n}", lambda: approx_entropy(series, m=2, r=r), float.hex
            )
        original = stage(f"diagram_of/random_walk/n{n}", lambda: diagram_of(walk), pairs_key)
        stage(f"simplify/random_walk/n{n}", lambda: simplify(walk, Fraction(0.5)), values_key)
        epsilon = 0.01 * float(np.ptp(walk.values))
        stage(f"douglas_peucker/random_walk/n{n}",
              lambda: douglas_peucker_indices(walk, epsilon), digest)
        target = diagram_of(smoothed)
        for name, distance in (("wasserstein1", wasserstein1), ("bottleneck", bottleneck)):
            stage(f"{name}/walk_vs_smoothed/n{n}", lambda: distance(original, target), float.hex)
        subsampled = diagram_of(uniform_subsample(walk, 6))
        stage(f"bottleneck/walk_vs_subsample6/n{n}",
              lambda: bottleneck(original, subsampled), float.hex)
    sine = generate_synthetic("noisy_sine", 131072, 7)
    stage("simplify/noisy_sine/n131072", lambda: simplify(sine, Fraction(0.5)), values_key)
    threshold = Threshold(0.25 * float(np.ptp(sine.values)))
    stage("simplify/noisy_sine_threshold/n131072", lambda: simplify(sine, threshold), values_key)
    spikes = generate_synthetic("spike_train", 131072, 7)
    stage("diagram_of/spike_train/n131072", lambda: diagram_of(spikes), pairs_key)
    stage("simplify/spike_train/n131072", lambda: simplify(spikes, Fraction(0.5)), values_key)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "noisy_sine.csv"
        write_series_csv(path, sine)
        stage("io/load_csv/n131072", lambda: load_csv(path), values_key)
    for kind, n in (("spike_train", 1024), ("random_walk", 4096), ("noisy_sine", 4096)):
        data = generate_synthetic(kind, n, 7)
        stage(f"evaluate_series/{kind}/n{n}", lambda: evaluate_series(data),
              lambda result: digest(result.sweep_points))

    def fresh(code):
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    seconds, _ = median_time(lambda: fresh("import toposmooth"))
    stages["startup/import"] = {"s": round(seconds, 3)}
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "noisy_sine.csv", Path(tmp) / "smoothed.csv"
        write_series_csv(data, generate_synthetic("noisy_sine", 4096, 7))
        argv = ["smooth", "--input", str(data), "--method", "topological",
                "--param", "0.5", "--output", str(out)]
        code = f"from toposmooth.cli import main; raise SystemExit(main({argv!r}))"
        seconds, _ = median_time(lambda: fresh(code))
    stages["startup/cli_smooth/n4096"] = {"s": round(seconds, 3)}
    return stages


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
        "cpu_model": cpu_model(),
        "repeats": REPEATS,
    }


def one_run(src: Path) -> dict:
    """Run ``measure`` in a fresh process importing the package from ``src``."""
    done = subprocess.run(
        [sys.executable, __file__, "--measure", str(src)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def summarise(runs: list[dict]) -> dict:
    """Median and quartiles of each stage's run times, and its one value."""
    summary = {}
    for name in runs[0]:
        times = [run[name]["s"] for run in runs]
        values = {run[name].get("value") for run in runs}
        if len(values) != 1:
            raise SystemExit(f"{name}: the output changed between runs")
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        summary[name] = {"s": median, "q1": round(q1, 5), "q3": round(q3, 5), "runs": times}
        if None not in values:
            summary[name]["value"] = values.pop()
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, help="src/ of the checkout before the change")
    parser.add_argument("--after", type=Path, default=ROOT / "src")
    parser.add_argument("--before-label", type=str, default=None, help="what --before is")
    parser.add_argument("--after-label", type=str, default=None, help="what --after is")
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_stages.json")
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure is not None:
        sys.path.insert(0, str(args.measure.resolve()))
        json.dump(measure(args.measure.resolve()), sys.stdout)
        return 0
    if args.before is None:
        parser.error("--before is required")

    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    runs = {side: [] for side in sides}
    for index in range(RUNS):
        # Alternate which side goes first, so neither always follows the other.
        for side in sorted(sides, reverse=index % 2 == 1):
            print(f"run {index + 1}/{RUNS}, {side}", file=sys.stderr)
            runs[side].append(one_run(sides[side]))
    labels = {"before": args.before_label, "after": args.after_label}
    bench = {"environment": environment(), "runs": RUNS}
    for side in sides:
        bench[side] = {"label": labels[side], "stages": summarise(runs[side])}
    before, after = bench["before"]["stages"], bench["after"]["stages"]
    shared = sorted(before.keys() & after.keys())
    bench["identical_values"] = all(before[k].get("value") == after[k].get("value") for k in shared)
    bench["speedup"] = {
        k: {
            "ratio": round(before[k]["s"] / after[k]["s"], 2),
            "resolved": max(before[k]["runs"]) < min(after[k]["runs"])
            or max(after[k]["runs"]) < min(before[k]["runs"]),
        }
        for k in shared
    }
    args.output.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
