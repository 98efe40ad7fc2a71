import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from toposmooth.cli import main
from toposmooth.io import canonical_json

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _SCRIPT)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)

STEM = "random_walk-n128-seed7"


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("before")
    assert main(["evaluate", "--synth-kind", "random-walk", "--n", "128", "--out-dir", str(out)]) == 0
    return out


def run(before, after, monkeypatch, capsys) -> tuple[int, str]:
    monkeypatch.setattr("sys.argv", ["compare_reports.py", str(before), str(after)])
    code = compare_reports.main()
    return code, capsys.readouterr().out


def edit_report(directory: Path, change) -> None:
    path = directory / f"{STEM}_report.json"
    report = json.loads(path.read_text())
    change(report)
    path.write_text(canonical_json(report))


def test_two_runs_of_evaluate_report_nothing(report_dir, tmp_path, monkeypatch, capsys):
    assert main(["evaluate", "--synth-kind", "random-walk", "--n", "128",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    code, out = run(report_dir, tmp_path, monkeypatch, capsys)
    assert (code, out) == (0, "largest relative W1 difference: 0\nOK\n")


def w1_in_last_bits(report):
    point = report["sweep_points"][3]
    point["w1"] = point["w1"] * (1 + 2**-50)


def w1_by_a_millionth(report):
    report["metrics"]["w1"]["median"]["auc"] *= 1 + 1e-6


def rank_swapped(report):
    ranks = report["metrics"]["l1"]
    ranks["median"]["rank"], ranks["gaussian"]["rank"] = (
        ranks["gaussian"]["rank"], ranks["median"]["rank"]
    )


def l1_in_last_bits(report):
    point = report["sweep_points"][3]
    point["l1"] = point["l1"] * (1 + 2**-50)


@pytest.mark.parametrize(
    "change, code, group",
    [
        (w1_in_last_bits, 0, "W1-derived (1):"),
        (w1_by_a_millionth, 1, "W1-derived (1):"),
        (rank_swapped, 1, "rank changes (2):"),
        (l1_in_last_bits, 1, "other (1):"),
    ],
)
def test_report_fields_are_grouped(report_dir, tmp_path, monkeypatch, capsys, change, code, group):
    after = tmp_path / "after"
    shutil.copytree(report_dir, after)
    edit_report(after, change)
    got, out = run(report_dir, after, monkeypatch, capsys)
    assert got == code
    assert out.splitlines()[0] == group


def test_csv_w1_column_svg_and_missing_file(report_dir, tmp_path, monkeypatch, capsys):
    after = tmp_path / "after"
    shutil.copytree(report_dir, after)
    sweep = after / f"{STEM}_sweep.csv"
    rows = sweep.read_text().splitlines()
    header, cells = rows[0].split(","), rows[1].split(",")
    column = header.index("w1")
    cells[column] = repr(float(cells[column]) * (1 + 2**-50))
    sweep.write_text("\n".join([rows[0], ",".join(cells), *rows[2:]]) + "\n")
    chart = after / f"{STEM}_w1.svg"
    chart.write_text(chart.read_text().replace("<circle", "<circle ", 1))
    code, out = run(report_dir, after, monkeypatch, capsys)
    assert code == 0
    assert out.splitlines()[0] == "W1-derived (2):"
    (after / f"{STEM}_l1.svg").unlink()
    code, out = run(report_dir, after, monkeypatch, capsys)
    assert code == 1
    assert f"  {STEM}_l1.svg: only in before" in out.splitlines()


def test_bytes_that_differ_with_equal_fields_fail(report_dir, tmp_path, monkeypatch, capsys):
    after = tmp_path / "after"
    shutil.copytree(report_dir, after)
    path = after / f"{STEM}_report.json"
    path.write_text(json.dumps(json.loads(path.read_text())))
    code, out = run(report_dir, after, monkeypatch, capsys)
    assert code == 1
    assert f"  {STEM}_report.json: the bytes differ, though no field does" in out.splitlines()
