"""Per-stage timings of the package, merged into BENCH_stages.json.

    python3 scripts/bench_stages.py --side after
    python3 scripts/bench_stages.py --side before --src OTHER_CHECKOUT/src --label TEXT

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
- ``wasserstein1`` and ``bottleneck`` between the two series' diagrams.

Then ``simplify`` with ``Fraction(0.5)`` of the seed-7 noisy sine at
n=131072, and one ``evaluate_series`` of the seed-7 spike train at
n=1024. Each time is the median of ``REPEATS`` calls in one process with
BLAS pinned to one thread.

The package is imported from ``--src`` (default: ``src/`` of this
checkout), so the one script times both sides of a change. Each side is
written under its own key, with the environment and a value per stage
(a float hex string or a sha256 of the output); when both sides are
present the script says whether every value is identical between them.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1024, 4096, 16384)
REPEATS = 3


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


def measure() -> dict:
    import numpy as np
    import scipy

    from toposmooth import (
        Fraction,
        approx_entropy,
        bottleneck,
        diagram_of,
        evaluate_series,
        generate_synthetic,
        simplify,
        wasserstein1,
    )
    from toposmooth.filters import douglas_peucker_indices
    from toposmooth.series import sample_std

    def pairs_key(diagram):
        pairs = [(p.birth_index, p.death_index, p.birth_value.hex(), p.death_value.hex())
                 for p in diagram.pairs]
        return digest((pairs, diagram.essential_min_index))

    def values_key(series):
        return digest(np.ascontiguousarray(series.values, dtype="<f8").tobytes())

    stages = {}

    def stage(name, call, value):
        seconds, result = median_time(call)
        stages[name] = {"s": round(seconds, 5), "value": value(result)}
        print(f"{name}: {seconds:.4f} s", file=sys.stderr)
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
    sine = generate_synthetic("noisy_sine", 131072, 7)
    stage("simplify/noisy_sine/n131072", lambda: simplify(sine, Fraction(0.5)), values_key)
    spikes = generate_synthetic("spike_train", 1024, 7)
    seconds, _ = median_time(lambda: evaluate_series(spikes))
    stages["evaluate_series/spike_train/n1024"] = {"s": round(seconds, 3)}
    print(f"evaluate_series spike_train n=1024: {seconds:.3f} s", file=sys.stderr)
    return {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpus": os.cpu_count(),
            "cpu_model": cpu_model(),
            "repeats": REPEATS,
        },
        "stages": stages,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", choices=("before", "after"), required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--label", type=str, default=None, help="what the --src tree is")
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_stages.json")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))

    record = measure()
    record["label"] = args.label
    bench = json.loads(args.output.read_text()) if args.output.exists() else {}
    bench[args.side] = record
    if "before" in bench and "after" in bench:
        before, after = bench["before"]["stages"], bench["after"]["stages"]
        bench["identical_values"] = all(
            before[k].get("value") == after[k].get("value") for k in before.keys() & after.keys()
        )
        bench["speedup"] = {
            k: round(before[k]["s"] / after[k]["s"], 1) for k in sorted(before.keys() & after.keys())
        }
    args.output.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
