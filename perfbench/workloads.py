"""The benchmark's workloads.

Each builder takes the imported ``toposmooth`` package, a seed, the
problem size and a scratch directory, builds every input (set-up, not
timed) and returns the operations of one pass. An operation's ``run`` is
the timed call into the package; ``capture`` turns its output into a
plain value, ``digest`` into the string compared with the seed-7
references and across passes, and ``check`` tests the invariants that
hold for any seed (an error message, or None).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

KINDS = ("spike_train", "noisy_sine", "random_walk")
METRIC_NAMES = ("l1", "linf", "w1", "bottleneck")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    capture: Callable[[object], object]
    digest: Callable[[object], str]
    check: Callable[[object], str | None]


def array_digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def series_values(series) -> np.ndarray:
    return np.array(series.values, dtype=np.float64)


def check_series(inp, out) -> str | None:
    if len(out) != len(inp):
        return f"length {len(out)} != input length {len(inp)}"
    if not np.all(np.isfinite(out)):
        return "non-finite output values"
    return None


# --- evaluate_n1024 --------------------------------------------------------


def check_report(report: dict, seed: int, n: int, kind: str) -> str | None:
    """The report names this dataset and its ranks are consistent."""
    config = report["config"]
    if (config["seed"], config["n"], config["source"]) != (seed, n, kind):
        return f"report config {config} does not echo the request"
    methods = report["methods"]
    totals = {m: 0 for m in methods}
    for metric in METRIC_NAMES:
        entries = report["metrics"][metric]
        if sorted(entries) != sorted(methods):
            return f"{metric}: ranked methods {sorted(entries)} != {sorted(methods)}"
        ranked = sorted(e["rank"] for e in entries.values() if not e["unrankable"])
        if ranked != list(range(1, len(ranked) + 1)):
            return f"{metric}: ranks {ranked} are not 1..k"
        if any(e["rank"] != len(methods) + 1 for e in entries.values() if e["unrankable"]):
            return f"{metric}: unrankable method not ranked last"
        for m, e in entries.items():
            totals[m] += e["rank"]
    expected = {m: totals[m] / len(METRIC_NAMES) for m in methods}
    if report["overall_rank"] != expected:
        return f"overall ranks {report['overall_rank']} != mean ranks {expected}"
    return None


REFUSAL = re.compile(
    r"^error: entropy ranges of the methods do not overlap "
    r"\(intersection \[(?P<e0>[^,\]]+), (?P<e1>[^\]]+)\]\)$"
)


def is_refusal(stderr: str) -> bool:
    """Whether ``stderr`` is the documented refusal of a dataset.

    ``evaluate`` stops with exit code 1 and names the empty intersection
    when the methods' entropy ranges do not overlap, which happens on some
    seeds at n=1024. That is the specified output for such a dataset, so
    it passes when the named intersection really is empty.
    """
    match = REFUSAL.match(stderr.strip())
    if match is None:
        return False
    try:
        return not float(match["e0"]) < float(match["e1"])
    except ValueError:
        return False


def build_evaluate(ts, seed: int, n: int, workdir: Path) -> list[Op]:
    """Three in-process ``toposmooth evaluate`` runs writing JSON, CSV and SVG.

    A dataset whose entropy ranges do not overlap is refused with a
    diagnostic (see ``is_refusal``); it does the same sweep and writes
    nothing.
    """
    ops = []
    for kind in KINDS:
        cli_kind = kind.replace("_", "-")
        out = workdir / cli_kind
        out.mkdir(parents=True, exist_ok=True)
        argv = ["evaluate", "--synth-kind", cli_kind, "--n", str(n), "--seed", str(seed),
                "--out-dir", str(out)]
        stem = out / f"{kind}-n{n}-seed{seed}"
        artifacts = [Path(f"{stem}_sweep.csv")] + [
            Path(f"{stem}_{metric}.svg") for metric in METRIC_NAMES
        ]

        def run(argv=argv):
            errors = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
                rc = ts.cli.main(argv)
            return rc, errors.getvalue()

        def capture(outcome, stem=stem, artifacts=artifacts):
            rc, errors = outcome
            report = Path(f"{stem}_report.json")
            result = {
                "rc": rc,
                "stderr": errors,
                "report": report.read_bytes() if report.exists() else b"",
                "missing": [p.name for p in artifacts if not p.exists() or p.stat().st_size == 0],
            }
            # A later pass that writes no report must not pass on this one.
            report.unlink(missing_ok=True)
            return result

        def check(result, cli_kind=cli_kind, artifacts=artifacts):
            if result["rc"] == 1 and is_refusal(result["stderr"]):
                written = [p.name for p in artifacts if p.exists()]
                if result["report"] or written:
                    return f"refused dataset but wrote {written or 'a report'}"
                return None
            if result["rc"] != 0:
                return f"exit code {result['rc']}: {result['stderr'].strip()}"
            if result["missing"]:
                return f"missing artifacts {result['missing']}"
            try:
                report = json.loads(result["report"])
            except ValueError as exc:
                return f"report does not parse: {exc}"
            return check_report(report, seed, n, cli_kind)

        ops.append(Op(
            label=f"evaluate/{kind}",
            run=run,
            capture=capture,
            digest=lambda r: hashlib.sha256(r["report"] or r["stderr"].encode()).hexdigest(),
            check=check,
        ))
    return ops


# --- smooth_topo_n131072 ---------------------------------------------------


def check_simplified(ts, series, diagram, policy, out: np.ndarray) -> str | None:
    """``out`` keeps exactly the retained pairs, anchored and monotone between.

    ``diagram`` is the input's persistence diagram.
    """
    problem = check_series(series.values, out)
    if problem:
        return problem
    values = series.values
    retained, _ = ts.select_pairs(diagram, policy)
    got = sorted((p.birth_value, p.death_value) for p in ts.diagram_of(out).pairs)
    expected = sorted((p.birth_value, p.death_value) for p in retained)
    if got != expected:
        return f"output diagram has {len(got)} pairs, {len(expected)} retained"
    anchors = {0, len(values) - 1, diagram.essential_min_index}
    for p in retained:
        anchors.update((p.birth_index, p.death_index))
    anchors = np.array(sorted(anchors))
    moved = anchors[out[anchors] != values[anchors]]
    if len(moved):
        return f"anchor values changed at {moved[:5].tolist()}"
    # Step i (from sample i to i+1) lies in the segment of the last anchor <= i.
    segment = np.searchsorted(anchors, np.arange(len(values) - 1), side="right") - 1
    rising = values[anchors[:-1]] <= values[anchors[1:]]
    step = np.diff(out)
    wrong = np.flatnonzero(np.where(rising[segment], step < 0, step > 0))
    if len(wrong):
        return f"output not monotone between anchors around sample {int(wrong[0])}"
    return None


def build_smooth(ts, seed: int, n: int, workdir: Path) -> list[Op]:
    """``simplify`` by fraction and by threshold on four long series."""
    inputs = [(kind, ts.generate_synthetic(kind, n, seed)) for kind in KINDS]
    noisy = inputs[1][1]
    # Integer-valued samples make plateaus, which the extremum
    # classification collapses run by run.
    inputs.append(("noisy_sine_rounded",
                   ts.TimeSeries(np.round(noisy.values), label=f"{noisy.label}-rounded")))
    ops = []
    diagrams = {}
    for name, series in inputs:
        value_range = float(np.max(series.values) - np.min(series.values))
        policies = [("fraction0.5", ts.Fraction(0.5)),
                    ("threshold0.25range", ts.Threshold(0.25 * value_range))]
        for tag, policy in policies:
            ops.append(Op(
                label=f"simplify/{name}/{tag}",
                run=lambda s=series, p=policy: ts.simplify(s, p),
                capture=series_values,
                digest=array_digest,
                check=lambda out, s=series, p=policy, name=name: check_simplified(
                    ts, s, diagrams.get(name) or diagrams.setdefault(name, ts.diagram_of(s)), p, out
                ),
            ))
    return ops


# name -> (builder, problem size)
WORKLOADS = {
    "evaluate_n1024": (build_evaluate, 1024),
    "smooth_topo_n131072": (build_smooth, 131072),
}
