"""Outside-in tracer for toposmooth.

The tracer replaces each traced public function with a wrapper in every
``toposmooth`` module namespace that holds it, so calls made through
module globals (the ``evaluate.METHODS`` lambdas, ``simplify`` calling
``diagram_of``) are seen as well as the benchmark's own calls. Nothing in
the package is edited. Each wrapped call records one span (layer, start,
end, parent); spans are kept in memory and written out when the run ends.

A layer's self time is the duration of its spans minus the part of each
span that child spans cover. Counts marked "computed" below are derived
from argument and result sizes, not measured inside the program.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from time import perf_counter

# layer -> (module, function) pairs wrapped under that layer name.
LAYERS = {
    "cli": [("cli", "main")],
    "evaluate": [
        ("evaluate", f)
        for f in ("evaluate_series", "sweep", "fit_line", "auc", "rank_methods", "default_grids")
    ],
    "io": [
        ("io", f)
        for f in (
            "load_csv",
            "write_series_csv",
            "write_pairs_csv",
            "write_report_json",
            "write_sweep_csv",
            "svg_line_chart",
            "svg_metric_scatter",
        )
    ],
    "synth": [("synth", "generate_synthetic")],
    "metrics.approx_entropy": [("metrics", "approx_entropy")],
    "metrics.bottleneck": [("metrics", "bottleneck")],
    "metrics.wasserstein1": [("metrics", "wasserstein1")],
    "series.classify_extrema": [("series", "classify_extrema")],
    "persistence.diagram_of": [("persistence", "diagram_of")],
    "simplify.simplify": [("simplify", "simplify")],
    "simplify.isotonic_fit": [("simplify", "isotonic_fit")],
    "filters.median_filter": [("filters", "median_filter")],
    "filters.gaussian_filter": [("filters", "gaussian_filter")],
    "filters.cutoff_filter": [("filters", "cutoff_filter")],
    "filters.uniform_subsample": [("filters", "uniform_subsample")],
    "filters.douglas_peucker": [
        ("filters", "douglas_peucker"),
        ("filters", "douglas_peucker_indices"),
    ],
}


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _point_count(diagram) -> int:
    return len(diagram.pairs) if hasattr(diagram, "pairs") else len(diagram)


def _entropy_counts(args, kwargs, result):
    # Computed: the dense kernel compares every template with every other
    # one, for template lengths m and m+1.
    n = len(_arg(args, kwargs, 0, "series", ()))
    m = int(_arg(args, kwargs, 1, "m", 2))
    return {"template_pairs": (n - m + 1) ** 2 + (n - m) ** 2}


def _w1_counts(args, kwargs, result):
    # Computed: the dense (m+n) x (m+n) float64 assignment matrix.
    m = _point_count(_arg(args, kwargs, 0, "c", ()))
    n = _point_count(_arg(args, kwargs, 1, "c_prime", ()))
    return {"matrix_bytes": 8 * (m + n) ** 2 if m and n else 0}


def _isotonic_counts(args, kwargs, result):
    # A decreasing fit recurses once into an increasing fit; count each
    # pool-adjacent-violators pass once, at the increasing call.
    direction = _arg(args, kwargs, 1, "direction", None)
    if direction is not None and getattr(direction, "value", "increasing") != "increasing":
        return {}
    return {"pav_samples": len(result)}


def _dp_counts(args, kwargs, result):
    # Computed: each of the kept points costs one residual pass over n.
    n = len(_arg(args, kwargs, 0, "series", ()))
    return {"kept": len(result), "residual_evals": len(result) * n}


def _io_counts(args, kwargs, result):
    if isinstance(result, str):
        return {"bytes": len(result.encode("utf-8"))}
    path = _arg(args, kwargs, 0, "path", None)
    if path is not None and os.path.exists(path):
        return {"bytes": os.path.getsize(path)}
    return {}


# (module, function) -> hook(args, kwargs, result) -> {count: value}, run
# right after the call returns; each must be cheap next to the call.
COUNTS = {
    ("metrics", "approx_entropy"): _entropy_counts,
    ("metrics", "wasserstein1"): _w1_counts,
    ("series", "classify_extrema"): lambda a, k, r: {"extrema": len(r)},
    ("persistence", "diagram_of"): lambda a, k, r: {"pairs": len(r.pairs)},
    ("simplify", "isotonic_fit"): _isotonic_counts,
    ("filters", "douglas_peucker_indices"): _dp_counts,
    ("evaluate", "sweep"): lambda a, k, r: {
        "sweep_points": len(r[0]),
        "sweep_failures": len(r[1]),
    },
    **{("io", f): _io_counts for _, f in LAYERS["io"]},
}


def _bottleneck_counts(args, kwargs, result, cache):
    import numpy as np

    def points(diagram):
        pts = diagram.finite_points() if hasattr(diagram, "finite_points") else diagram
        return np.asarray(pts, dtype=np.float64).reshape(-1, 2)

    c = _arg(args, kwargs, 0, "c", ())
    c_prime = _arg(args, kwargs, 1, "c_prime", ())
    key = (id(c), id(c_prime))
    if key not in cache:
        a, b = points(c), points(c_prime)
        cells = len(a) * len(b)
        if cells:
            cross = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
            candidates = len(
                np.unique(
                    np.concatenate(
                        [cross.ravel(), (a[:, 1] - a[:, 0]) / 2, (b[:, 1] - b[:, 0]) / 2, [0.0]]
                    )
                )
            )
        else:
            candidates = 0
        # Computed: the binary search probes ceil(log2 candidates) costs.
        steps = math.ceil(math.log2(candidates)) if candidates > 1 else 0
        cache[key] = {
            "cross_cells": cells,
            "candidates": candidates,
            "search_steps": steps,
            "cell_steps": cells * steps,
        }
    return cache[key]


def _anchor_counts(args, kwargs, result, cache):
    from toposmooth import diagram_of, select_pairs

    series = _arg(args, kwargs, 0, "series", None)
    policy = _arg(args, kwargs, 1, "policy", None)
    key = (id(series), policy)
    if key not in cache:
        diagram = diagram_of(series)
        retained, _ = select_pairs(diagram, policy)
        anchors = {0, len(series) - 1, diagram.essential_min_index}
        for p in retained:
            anchors.update((p.birth_index, p.death_index))
        cache[key] = {"anchors": len(anchors)}
    return cache[key]


# Counts too costly to take inside the traced run; computed from the
# recorded arguments after the tracer is removed.
LATE_COUNTS = {
    ("metrics", "bottleneck"): _bottleneck_counts,
    ("simplify", "simplify"): _anchor_counts,
}


def self_times(start, end, parent) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = [end[i] - start[i] for i in range(len(start))]
    for p, spans in children.items():
        spans.sort()
        covered = 0.0
        lo, hi = spans[0]
        for s, e in spans[1:]:
            if s > hi:
                covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        covered += hi - lo
        out[p] -= covered
    return out


class Tracer:
    """Span recorder; ``install`` wraps the package, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.layers = list(LAYERS)
        self.layer_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._late: list[tuple] = []
        self._patches: list[tuple[object, str, object]] = []

    def _add(self, layer: str, values: dict) -> None:
        for key, value in values.items():
            name = f"{layer}.{key}"
            self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, layer_id: int, fn, hook, late):
        layer = self.layers[layer_id]

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.layer_of.append(layer_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                self._add(layer, hook(args, kwargs, result))
            if late is not None:
                self._late.append((layer, late, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "toposmooth" or name.startswith("toposmooth."))
        ]
        for layer_id, layer in enumerate(self.layers):
            for module_name, fname in LAYERS[layer]:
                original = getattr(sys.modules[f"toposmooth.{module_name}"], fname)
                wrapper = self._wrap(
                    layer_id,
                    original,
                    COUNTS.get((module_name, fname)),
                    LATE_COUNTS.get((module_name, fname)),
                )
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def finish_counts(self) -> None:
        """Evaluate the late counts; call after ``uninstall``."""
        caches: dict = {}
        for layer, late, args, kwargs, result in self._late:
            self._add(layer, late(args, kwargs, result, caches.setdefault(late, {})))
        self._late.clear()

    def layer_summary(self, wall: float) -> dict[str, dict[str, float]]:
        """Per layer: entries from another layer, self seconds, share of ``wall``."""
        own = self_times(self.start, self.end, self.parent)
        summary = {layer: {"calls": 0, "self_s": 0.0} for layer in self.layers}
        for i, layer_id in enumerate(self.layer_of):
            entry = summary[self.layers[layer_id]]
            entry["self_s"] += own[i]
            p = self.parent[i]
            if p < 0 or self.layer_of[p] != layer_id:
                entry["calls"] += 1
        for entry in summary.values():
            entry["share"] = entry["self_s"] / wall if wall > 0 else 0.0
        return summary

    def spans(self) -> dict:
        """Spans as JSON-ready data, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        return {
            "layers": self.layers,
            "fields": ["layer", "start_s", "end_s", "parent"],
            "spans": [
                [self.layer_of[i], round(self.start[i] - t0, 7), round(self.end[i] - t0, 7), self.parent[i]]
                for i in range(len(self.start))
            ],
        }
