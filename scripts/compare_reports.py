"""List every field in which two ``toposmooth evaluate`` output directories differ.

    python3 scripts/compare_reports.py BEFORE_DIR AFTER_DIR

Each directory holds what ``evaluate --out-dir`` writes for one or more
datasets: ``*_report.json``, ``*_sweep.csv`` and one ``*_<metric>.svg``
per metric. The files are paired by name and compared field by field: a
report by its JSON leaves, a sweep CSV by its cells, and any other file by
its bytes.

The fields derived from the 1-Wasserstein distance (W1) are kept apart
from all the others. They are the sweep CSV's ``w1`` column, the report's
``sweep_points[*].w1`` values and ``metrics.w1.*.auc`` areas, and the
``*_w1.svg`` charts. A change of solver may move W1 in its last bits, so
these may differ by up to ``W1_TOLERANCE`` relative. The script prints the
largest relative W1 difference and every per-metric or overall rank that
changed.

Exit status: 0 when the two sides are the same up to W1 differences within
the tolerance; 1 on any other difference, a rank change or a larger W1
difference; 2 on bad arguments or a directory with no report.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

W1_TOLERANCE = 1e-12


def relative_difference(a: float, b: float) -> float:
    """``|a - b| / max(|a|, |b|)``: 0 for equal values (also two infinities
    or two NaNs), inf when only one side is finite or NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def json_leaves(node, path=()):
    """Yield ``(path, leaf)`` for every leaf of a parsed JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_leaves(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from json_leaves(value, (*path, index))
    else:
        yield path, node


def report_fields(path: Path) -> dict[str, tuple[str, object]]:
    """``{field: (kind, leaf)}`` over a report's JSON leaves."""
    fields = {}
    for keys, leaf in json_leaves(json.loads(path.read_text(encoding="utf-8"))):
        if keys[0] == "sweep_points" and keys[-1] == "w1":
            kind = "w1"
        elif keys[:2] == ("metrics", "w1") and keys[-1] == "auc":
            kind = "w1"
        elif keys[0] == "overall_rank" or keys[0] == "metrics" and keys[-1] == "rank":
            kind = "rank"
        else:
            kind = "other"
        fields[".".join(map(str, keys))] = (kind, leaf)
    return fields


def csv_fields(path: Path) -> dict[str, tuple[str, object]]:
    """``{"row N column": (kind, text)}`` over a CSV's cells, the header
    being row 0; the cells of the ``w1`` column are W1-derived."""
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header = rows[0] if rows else []
    fields = {}
    for number, row in enumerate(rows):
        for index, cell in enumerate(row):
            column = header[index] if index < len(header) else str(index)
            kind = "w1" if column == "w1" and number else "other"
            fields[f"row {number} {column}"] = (kind, cell)
    return fields


def file_fields(path: Path) -> dict[str, tuple[str, object]]:
    """``{field: (kind, value)}`` for one output file, ``kind`` being
    ``"w1"`` (a W1 value), ``"w1 chart"``, ``"rank"`` or ``"other"``."""
    if path.name.endswith("_report.json"):
        return report_fields(path)
    if path.suffix == ".csv":
        return csv_fields(path)
    kind = "w1 chart" if path.name.endswith("_w1.svg") else "other"
    return {"sha256": (kind, hashlib.sha256(path.read_bytes()).hexdigest())}


def compare(before: Path, after: Path) -> tuple[dict[str, list[str]], float]:
    """The differences as printable lines, grouped as ``"W1-derived"``,
    ``"rank changes"`` and ``"other"``, and the largest relative W1
    difference."""
    found = {"W1-derived": [], "rank changes": [], "other": []}
    largest = 0.0
    names = {p.name for directory in (before, after) for p in directory.iterdir() if p.is_file()}
    for name in sorted(names):
        sides = [directory / name for directory in (before, after)]
        if not all(side.is_file() for side in sides):
            found["other"].append(f"{name}: only in {'before' if sides[0].is_file() else 'after'}")
            continue
        old, new = (file_fields(side) for side in sides)
        differing = 0
        for field in [*old, *(field for field in new if field not in old)]:
            (kind, a), (_, b) = (side.get(field, ("other", None)) for side in (old, new))
            # Compared as written: nan equals nan, -0.0 is not 0.0, 1 is not 1.0.
            if type(a) is type(b) and repr(a) == repr(b):
                continue
            differing += 1
            line = f"{name}: {field}: {a!r} -> {b!r}"
            if a is None or b is None:  # a field on one side only
                found["other"].append(line)
            elif kind == "w1":
                difference = relative_difference(float(a), float(b))
                largest = max(largest, difference)
                found["W1-derived"].append(f"{line} (relative {difference:.3g})")
            else:
                group = {"w1 chart": "W1-derived", "rank": "rank changes"}.get(kind, "other")
                found[group].append(line)
        if not differing and sides[0].read_bytes() != sides[1].read_bytes():
            found["other"].append(f"{name}: the bytes differ, though no field does")
    return found, largest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, help="one evaluate --out-dir")
    parser.add_argument("after", type=Path, help="the other evaluate --out-dir")
    args = parser.parse_args()
    for directory in (args.before, args.after):
        if not directory.is_dir() or not any(directory.glob("*_report.json")):
            parser.error(f"{directory} is not a directory holding an evaluate report")
    found, largest = compare(args.before, args.after)
    for title, lines in found.items():
        if lines:
            print(f"{title} ({len(lines)}):")
            print("".join(f"  {line}\n" for line in lines), end="")
    print(f"largest relative W1 difference: {largest:.3g}")
    failed = bool(found["rank changes"] or found["other"]) or largest > W1_TOLERANCE
    print("FAIL" if failed else "OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
