"""Closed-loop benchmark for toposmooth.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 40] [--trace 0|1]

One caller issues each operation after the previous one returns. Inputs
are built from the seed in set-up (timed as ``setup_s``, not as work);
then whole passes over the workload's operations repeat until the next
would end after ``--seconds``. Every output is checked: against the
seed-7 references in ``references.json`` when the seed is 7, by
invariants for every seed, and for equality across passes. A wrong output
counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are end-to-end; with ``--trace 1`` the package is wrapped by
``tracer.Tracer`` and the metrics are per layer, and the spans are written
to ``perfbench/out/``.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"
REFERENCE_SEED = 7
SETUP_REPEATS = 11
SUBMODULES = ("cli", "evaluate", "filters", "io", "metrics", "persistence", "series",
              "simplify", "synth")

sys.path.insert(0, str(SRC))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}
# Per-layer counts beyond "<layer>.calls" and "<layer>.share"; see tracer.py.
LAYER_COUNTS = {
    "metrics.approx_entropy.template_pairs": "count",
    "metrics.bottleneck.cross_cells": "count",
    "metrics.bottleneck.candidates": "count",
    "metrics.bottleneck.search_steps": "count",
    "metrics.bottleneck.cell_steps": "count",
    "metrics.wasserstein1.matrix_bytes": "bytes",
    "series.classify_extrema.extrema": "count",
    "persistence.diagram_of.pairs": "count",
    "simplify.simplify.anchors": "count",
    "simplify.isotonic_fit.pav_samples": "count",
    "filters.douglas_peucker.kept": "count",
    "filters.douglas_peucker.residual_evals": "count",
    "evaluate.sweep_points": "count",
    "evaluate.sweep_failures": "count",
    "io.bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.share"] = "fraction"
    units.update(LAYER_COUNTS)
    units["trace.wall_s"] = "s"
    units["trace.spans"] = "count"
    return units


def load_package():
    """Import toposmooth afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "toposmooth" or m.startswith("toposmooth.")]:
        del sys.modules[name]
    pkg = importlib.import_module("toposmooth")
    for sub in SUBMODULES:
        importlib.import_module(f"toposmooth.{sub}")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"toposmooth imported from {pkg.__file__}, not from {SRC}")
    return pkg


def setup(workload: str, seed: int, n: int, workdir: Path):
    """Import the package and build the inputs, ``SETUP_REPEATS`` times.

    Returns the operations of the last set-up and the median set-up time.
    """
    builder = WORKLOADS[workload][0]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pkg = load_package()
        ops = builder(pkg, seed, n, workdir)
        times.append(perf_counter() - t0)
    return ops, statistics.median(times)


def measure(ops, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run whole passes until the next one would end after ``seconds``.

    Keeps every operation's times and output digests, and its output from
    the first pass, for the checks.
    """
    pass_walls, op_times, digests, first, errors = [], {}, {}, {}, {}
    if tracer is not None:
        tracer.install()
    try:
        began = perf_counter()
        while True:
            timed = 0.0
            for op in ops:
                t0 = perf_counter()
                try:
                    output = op.run()
                except Exception as exc:  # a failed operation, not a failed run
                    output = exc
                took = perf_counter() - t0
                timed += took
                op_times.setdefault(op.label, []).append(took)
                seen = digests.setdefault(op.label, [])
                if isinstance(output, Exception):
                    errors.setdefault(op.label, f"{type(output).__name__}: {output}")
                    seen.append(None)
                    continue
                captured = op.capture(output)
                first.setdefault(op.label, captured)
                seen.append(op.digest(captured))
                del output, captured
            pass_walls.append(timed)
            elapsed = perf_counter() - began
            if elapsed + elapsed / len(pass_walls) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"pass_walls": pass_walls, "op_times": op_times, "errors": errors,
            "first": first, "digests": digests,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def median_times(run: dict) -> tuple[float, float]:
    """(wall_s, op_s_p50) from the medians of the run's operation times.

    ``wall_s`` is a pass made of each operation's median repeat;
    ``op_s_p50`` is the median of every operation time in the run. On a
    shared 2-CPU Xeon virtual machine other processes slowed single calls
    by up to 1.6x; over ten runs of ``smooth_topo_n131072`` these medians
    spread 3-5% where each operation's fastest repeat spread 9-10%,
    because with three or four repeats the fastest one depends on where
    the quiet moments fall.
    """
    times = run["op_times"].values()
    return (sum(statistics.median(t) for t in times),
            statistics.median(x for t in times for x in t))


def judge(ops, run: dict, references: dict | None) -> tuple[int, dict[str, str]]:
    """Count failed operations over all passes; return (failed, reasons).

    An operation fails every time it ran when it raised, when its first
    output breaks an invariant or, with ``references``, differs from the
    seed-7 reference; otherwise each output that differs from its first
    one fails.
    """
    failed, problems = 0, {}
    for op in ops:
        seen = run["digests"][op.label]
        problem = run["errors"].get(op.label)
        if problem is None:
            problem = op.check(run["first"][op.label])
        if problem is None and references is not None:
            want = references.get(op.label)
            if want != seen[0]:
                problem = f"digest {seen[0]} != seed-{REFERENCE_SEED} reference {want}"
        if problem is None:
            differ = sum(d != seen[0] for d in seen)
            problem = "output differs between passes" if differ else None
        else:
            differ = len(seen)
        failed += differ
        if problem is not None:
            problems[op.label] = problem
    return failed, problems


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 n: int | None = None, references: dict | None = None) -> dict:
    """Set up, measure and check one workload; return the result object."""
    size = WORKLOADS[workload][1] if n is None else n
    workdir = OUT_DIR / f"work-{workload}-{os.getpid()}"
    try:
        ops, setup_s = setup(workload, seed, size, workdir)
        tracer = Tracer() if trace else None
        run = measure(ops, seconds, tracer)
        failed, problems = judge(ops, run, references)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    count = len(run["pass_walls"])
    info = {"env": environment(workload, seed), "n": size, "passes": count,
            "ops_per_pass": len(ops), "problems": problems}
    if tracer is None:
        wall_s, op_s_p50 = median_times(run)
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "op_s_p50": op_s_p50,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = END_TO_END
    else:
        tracer.finish_counts()
        layers = tracer.layer_summary(sum(run["pass_walls"]))
        values = {}
        for layer, entry in layers.items():
            values[f"{layer}.calls"] = entry["calls"] / count
            values[f"{layer}.share"] = entry["share"]
        for name in LAYER_COUNTS:
            values[name] = tracer.counts.get(name, 0) / count
        values["trace.wall_s"] = median_times(run)[0]
        values["trace.spans"] = len(tracer.start) / count
        units = per_layer_units()
        info["self_s_per_pass"] = {k: v["self_s"] / count for k, v in layers.items()}
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps({**info, "spans": tracer.spans()}), encoding="utf-8")
        info["trace_file"] = str(trace_file.relative_to(BENCH_DIR.parent))
    attempted = sum(len(times) for times in run["op_times"].values())
    return {
        "info": info,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (0 <= args.seed < 2**64):
        parser.error("--seed must be an unsigned 64-bit integer")
    references = None
    if args.seed == REFERENCE_SEED:
        references = json.loads(REFERENCES.read_text(encoding="utf-8"))[args.workload]
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           references=references)
    except ImportError as exc:
        print(f"error: cannot import toposmooth from {SRC}: {exc}", file=sys.stderr)
        return 2
    for label, problem in out["info"]["problems"].items():
        print(f"failed: {label}: {problem}", file=sys.stderr)
    print(json.dumps(out["info"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
