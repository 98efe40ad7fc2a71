"""CSV/JSON/SVG emission and CSV ingestion.

Floats are written with Python's shortest round-trip representation, so
CSV round-trips are exact and JSON reports are byte-stable under
parse/re-serialize.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .evaluate import EvaluationResult, FitLine, SweepPoint
from .persistence import PersistenceDiagram
from .series import TimeSeries


def _content_lines(path) -> list[tuple[int, str]]:
    """``(line number, stripped line)`` for each line of a UTF-8 text file
    that is neither blank nor a ``#`` comment; a byte-order mark is dropped."""
    text = Path(path).read_text(encoding="utf-8-sig")
    return [
        (lineno, line)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    ]


def load_csv(path) -> TimeSeries:
    """Read a series from a CSV file: one value per line, or ``x,y`` pairs.

    Lines starting with ``#`` and blank lines are skipped; the first other
    line may be a header. Raises ``ValueError`` naming the offending line
    for an unparseable number or more than 2 columns, and for mixed 1- and
    2-column rows; rows that make an invalid series are refused by the
    ``TimeSeries`` constructor.
    """
    values: list[float] = []
    positions: list[float] = []
    for index, (lineno, line) in enumerate(_content_lines(path)):
        cells = [f.strip() for f in line.split(",")]
        if len(cells) > 2:
            raise ValueError(f"line {lineno}: expected 1 or 2 columns, got {len(cells)}")
        try:
            row = [float(f) for f in cells]
        except ValueError:
            if index == 0:
                continue
            raise ValueError(f"line {lineno}: unparseable number in {line!r}") from None
        if len(row) == 2:
            positions.append(row[0])
            values.append(row[1])
        else:
            values.append(row[0])
    if positions and len(positions) != len(values):
        raise ValueError("mixed 1-column and 2-column rows")
    return TimeSeries(values, positions or None, label=Path(path).stem)


def _write_rows(path, header: list[str], columns) -> None:
    """Write the header lines, then the columns' rows, each Python value as its
    ``str`` (for a float, the shortest text that round-trips)."""
    rows = map(",".join, zip(*(map(str, c) for c in columns)))
    Path(path).write_text("\n".join([*header, *rows]) + "\n", encoding="utf-8")


def write_series_csv(path, series: TimeSeries) -> None:
    _write_rows(path, [], [c.tolist() for c in (series.positions, series.values) if c is not None])


def write_pairs_csv(path, diagram: PersistenceDiagram) -> None:
    columns = (diagram.birth_index, diagram.death_index, diagram.birth_value,
               diagram.death_value, diagram.persistence)
    _write_rows(path, ["birth_index,death_index,birth,death,persistence"],
                [c.tolist() for c in columns])


def canonical_json(obj) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline EOF."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def report_to_dict(result: EvaluationResult, config_echo: dict) -> dict:
    """Report payload; ``canonical_json`` sorts its keys."""
    return {
        "dataset": result.dataset,
        "methods": sorted(result.overall),
        "metrics": result.ranks,
        "overall_rank": result.overall,
        "shared_entropy_domain": list(result.shared_domain),
        "sweep_points": [
            asdict(p) for method in sorted(result.sweep_points) for p in result.sweep_points[method]
        ],
        "failures": list(result.failures),
        "config": config_echo,
    }


def write_report_json(path, result: EvaluationResult, config_echo: dict) -> None:
    Path(path).write_text(
        canonical_json(report_to_dict(result, config_echo)), encoding="utf-8"
    )


def write_sweep_csv(path, result: EvaluationResult) -> None:
    names = [field.name for field in fields(SweepPoint)]
    points = [p for method in sorted(result.sweep_points) for p in result.sweep_points[method]]
    _write_rows(path, [",".join(names)], [[getattr(p, n) for p in points] for n in names])


# --- static SVG charts -----------------------------------------------------

_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
)

_W, _H, _M = 720, 400, 48


def _scale(values, lo, hi, out_lo, out_hi) -> list[float]:
    values = np.asarray(values, dtype=np.float64)
    span = hi - lo if hi > lo else 1.0
    with np.errstate(all="ignore"):  # Python's floats, which never warned
        if span == np.inf:  # finite ends more than the float range apart
            values, lo, span = values / 2, lo / 2, hi / 2 - lo / 2
        scaled = (values - lo) / span * (out_hi - out_lo) + out_lo
    # An infinite coordinate is drawn on the frame edge it points to.
    low, high = sorted((out_lo, out_hi))
    return np.nan_to_num(scaled, nan=np.nan, posinf=high, neginf=low).tolist()


def _svg_text(x, y, anchor: str, size: int, content: str, fill: str | None = None) -> str:
    """One ``<text>`` element; its content is escaped for XML."""
    # What xml.sax.saxutils.escape does, without the urllib import it brings.
    content = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    paint = f' fill="{fill}"' if fill else ""
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
        f'font-size="{size}"{paint}>{content}</text>'
    )


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        _svg_text(f"{_W / 2:.1f}", 20, "middle", 14, title),
        f'<rect x="{_M}" y="{_M}" width="{_W - 2 * _M}" height="{_H - 2 * _M}" '
        f'fill="none" stroke="#cccccc"/>',
    ]


def svg_line_chart(series_list: list[tuple[str, TimeSeries]], title: str) -> str:
    """Overlayed line chart, one polyline per series."""
    all_x = np.concatenate([s.xs for _, s in series_list])
    all_y = np.concatenate([s.values for _, s in series_list])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    parts = _svg_header(title)
    for i, (name, s) in enumerate(series_list):
        px = _scale(s.xs, x_lo, x_hi, _M, _W - _M)
        py = _scale(s.values, y_lo, y_hi, _H - _M, _M)
        pts = " ".join(map("{:.2f},{:.2f}".format, px, py))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
        parts.append(_svg_text(_W - _M - 4, _M + 16 + 14 * i, "end", 11, name, color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_metric_scatter(
    metric: str,
    points_by_method: dict[str, tuple[SweepPoint, ...]],
    fits: dict[tuple[str, str], FitLine],
    title: str,
) -> str:
    """Metric-versus-entropy scatter with each method's fitted line."""
    xs = [p.entropy for pts in points_by_method.values() for p in pts]
    ys = [getattr(p, metric) for pts in points_by_method.values() for p in pts]
    finite = [y for y in ys if -np.inf < y < np.inf]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min([0.0, *finite]), max(finite, default=0.0)
    parts = _svg_header(title)
    for i, method in enumerate(sorted(points_by_method)):
        color = _PALETTE[i % len(_PALETTE)]
        points = points_by_method[method]
        cx = _scale([p.entropy for p in points], x_lo, x_hi, _M, _W - _M)
        cy = _scale([getattr(p, metric) for p in points], y_lo, y_hi, _H - _M, _M)
        parts += map(f'<circle cx="{{:.2f}}" cy="{{:.2f}}" r="2.5" fill="{color}"/>'.format, cx, cy)
        fit = fits.get((method, metric))
        if fit is not None:
            e0, e1 = fit.domain
            px = _scale([e0, e1], x_lo, x_hi, _M, _W - _M)
            py = _scale([fit.value_at(e0), fit.value_at(e1)], y_lo, y_hi, _H - _M, _M)
            parts.append(
                f'<line x1="{px[0]:.2f}" y1="{py[0]:.2f}" x2="{px[1]:.2f}" '
                f'y2="{py[1]:.2f}" stroke="{color}" stroke-width="1"/>'
            )
        parts.append(_svg_text(_W - _M - 4, _M + 16 + 14 * i, "end", 11, method, color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
