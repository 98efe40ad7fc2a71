import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toposmooth import TimeSeries, generate_synthetic, load_csv
from toposmooth.cli import CLI_METHODS, main
from toposmooth.io import (
    canonical_json,
    fmt,
    svg_line_chart,
    svg_metric_scatter,
    write_series_csv,
)
from toposmooth.synth import SPIKE_COUNT


class TestLoadCsv:
    def test_single_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1\n2\n3\n")
        s = load_csv(p)
        assert np.array_equal(s.values, [1, 2, 3])
        assert s.positions is None

    def test_two_columns_with_header(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("x,y\n0,1.5\n2,2.5\n")
        s = load_csv(p)
        assert np.array_equal(s.values, [1.5, 2.5])
        assert np.array_equal(s.positions, [0, 2])

    def test_unparseable_line_reported(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1\nabc\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(p)

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# comment\n\n1\n# more\n2\n")
        assert np.array_equal(load_csv(p).values, [1, 2])

    def test_non_increasing_x_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("0,1\n0,2\n")
        with pytest.raises(ValueError, match="increasing"):
            load_csv(p)

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1\n")
        with pytest.raises(ValueError, match="2 data rows"):
            load_csv(p)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        series = TimeSeries(rng.normal(0, 1, 50), label="g")
        p = tmp_path / "g.csv"
        write_series_csv(p, series)
        again = load_csv(p)
        assert np.array_equal(again.values, series.values)

    def test_round_trip_with_positions(self, tmp_path):
        series = TimeSeries([1.5, 2.25, -3.75], positions=[0.1, 0.2, 0.7])
        p = tmp_path / "h.csv"
        write_series_csv(p, series)
        again = load_csv(p)
        assert np.array_equal(again.values, series.values)
        assert np.array_equal(again.positions, series.positions)


def test_fmt_round_trips():
    for v in (0.1, 1 / 3, 1e-17, -2.5, 12345.6789):
        assert float(fmt(v)) == v


def test_canonical_json_stable_under_reparse():
    obj = {"b": [1.5, 1 / 3], "a": {"z": 0.1, "y": None}}
    text = canonical_json(obj)
    assert canonical_json(json.loads(text)) == text


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic("spike_train", 64, 9)
        b = generate_synthetic("spike_train", 64, 9)
        assert np.array_equal(a.values, b.values)

    def test_seeds_differ(self):
        a = generate_synthetic("random_walk", 64, 1)
        b = generate_synthetic("random_walk", 64, 2)
        assert not np.array_equal(a.values, b.values)

    def test_spike_count(self):
        s = generate_synthetic("spike_train", 256, 7)
        assert int(np.sum(s.values > 10.0)) == SPIKE_COUNT

    def test_kinds_and_validation(self):
        for kind in ("spike-train", "noisy-sine", "random-walk"):
            assert len(generate_synthetic(kind, 16, 0)) == 16
        assert len(generate_synthetic("spike_train", 16, 2**64 - 1)) == 16
        with pytest.raises(ValueError):
            generate_synthetic("sawtooth", 64, 0)
        with pytest.raises(ValueError):
            generate_synthetic("spike_train", 8, 0)
        with pytest.raises(ValueError):
            generate_synthetic("spike_train", 64, -1)


class TestSvg:
    def test_line_chart_one_polyline_per_series(self):
        a = TimeSeries([0, 1, 0, 2], label="a")
        b = TimeSeries([0, 0.5, 0.5, 1], label="b")
        text = svg_line_chart([("original", a), ("smoothed", b)], "demo")
        assert text.count("<polyline") == 2
        assert text.startswith("<svg")

    def test_scatter_has_points_and_fit_lines(self):
        from toposmooth.evaluate import FitLine, SweepPoint

        pts = {
            "m": (
                SweepPoint("m", 1.0, 0.1, 1.0, 1.0, 1.0, 1.0),
                SweepPoint("m", 2.0, 0.5, 2.0, 2.0, 2.0, 2.0),
            )
        }
        fits = {("m", "l1"): FitLine(2.5, 0.75, (0.1, 0.5))}
        text = svg_metric_scatter("l1", pts, fits, "demo")
        assert text.count("<circle") == 2
        assert text.count("<line") == 1


class TestCli:
    def test_synth_smooth_persistence_entropy(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert main(["synth", "--kind", "spike-train", "--n", "64", "--seed", "3",
                     "--output", str(data)]) == 0
        smoothed = tmp_path / "smoothed.csv"
        svg = tmp_path / "overlay.svg"
        assert main(["smooth", "--input", str(data), "--method", "topological",
                     "--param", "0.5", "--output", str(smoothed), "--svg", str(svg)]) == 0
        out = load_csv(smoothed)
        assert len(out) == 64
        assert svg.read_text().count("<polyline") == 2

        pairs = tmp_path / "pairs.csv"
        assert main(["persistence", "--input", str(data), "--output", str(pairs)]) == 0
        header = pairs.read_text().splitlines()[0]
        assert header == "birth_index,death_index,birth,death,persistence"

        assert main(["entropy", "--input", str(data)]) == 0
        printed = capsys.readouterr().out.strip()
        assert float(printed) >= 0.0

    def test_validation_error_exit_code(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1\n2\n3\n")
        out = tmp_path / "out.csv"
        # median window must be odd
        code = main(["smooth", "--input", str(data), "--method", "median",
                     "--param", "4", "--output", str(out)])
        assert code == 1

    def test_io_error_exit_code(self, tmp_path):
        code = main(["persistence", "--input", str(tmp_path / "missing.csv"),
                     "--output", str(tmp_path / "pairs.csv")])
        assert code == 2

    def test_config_file_defaults_flags_win(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("kind=noisy-sine\nn=32\nseed=5\n")
        out_a = tmp_path / "a.csv"
        assert main(["synth", "--config", str(config), "--output", str(out_a)]) == 0
        assert len(load_csv(out_a)) == 32
        out_b = tmp_path / "b.csv"
        assert main(["synth", "--config", str(config), "--n", "48",
                     "--output", str(out_b)]) == 0
        assert len(load_csv(out_b)) == 48

    @pytest.mark.parametrize(
        "method,param",
        [
            ("gaussian", "inf"),
            ("gaussian", "nan"),
            ("median", "3.9"),
            ("subsample", "1.5"),
            ("cutoff", "-0.5"),
            ("douglas-peucker", "nan"),
            ("topological-threshold", "nan"),
        ],
    )
    def test_bad_parameter_is_one_error_line(self, tmp_path, capsys, method, param):
        data = tmp_path / "data.csv"
        data.write_text("1\n5\n2\n4\n0\n3\n")
        out = tmp_path / "out.csv"
        code = main(["smooth", "--input", str(data), "--method", method,
                     f"--param={param}", "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {method} parameter must be")
        assert not out.exists()

    # Magnitudes stay within 1e4: a median window near 1e8 would really be
    # allocated (gigabytes), not refused at once.
    @pytest.mark.parametrize("method", CLI_METHODS)
    @settings(deadline=None)
    @given(
        param=st.floats(-1e4, 1e4)
        | st.sampled_from([float("nan"), float("inf"), float("-inf"),
                           5e-324, 1e-200, 1e-160, -0.0])
    )
    def test_any_parameter_is_a_result_or_one_error_line(
        self, tmp_path_factory, method, param
    ):
        folder = tmp_path_factory.mktemp("fuzz")
        data = folder / "data.csv"
        data.write_text("1\n5\n2\n4\n0\n3\n")
        out = folder / "out.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["smooth", "--input", str(data), "--method", method,
                         f"--param={param!r}", "--output", str(out)])
        if code == 0:
            values = load_csv(out).values
            assert len(values) == 6 and np.all(np.isfinite(values))
        else:
            assert code == 1
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not out.exists()

    # Sizes of tens to hundreds of TiB: allocation fails at once.
    @pytest.mark.parametrize(
        "args",
        [
            ["smooth", "--method", "median", "--param", "10000000000001"],
            ["smooth", "--method", "gaussian", "--param", "1e13"],
            ["synth", "--kind", "noisy-sine", "--n", "100000000000000"],
        ],
    )
    def test_unallocatable_size_is_one_error_line(self, tmp_path, capsys, args):
        data = tmp_path / "data.csv"
        data.write_text("1\n5\n2\n4\n0\n3\n")
        out = tmp_path / "out.csv"
        inputs = ["--input", str(data)] if args[0] == "smooth" else []
        assert main([*args, *inputs, "--output", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: Unable to allocate")
        assert not out.exists()

    def test_config_value_checked_like_a_flag(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("1\n2\n3\n")
        config = tmp_path / "run.conf"
        config.write_text("method=bogus\nparam=1\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["smooth", "--config", str(config), "--input", str(data),
                  "--output", str(tmp_path / "out.csv")])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("kind=noisy-sine\nparm=5\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["synth", "--config", str(config), "--output", str(tmp_path / "a.csv")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --parm=5" in capsys.readouterr().err

    def test_config_equals_form(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("kind=random-walk\nn=40\n")
        out = tmp_path / "a.csv"
        assert main(["synth", f"--config={config}", "--output", str(out)]) == 0
        assert len(load_csv(out)) == 40

    def test_evaluate_emits_report_and_charts(self, tmp_path):
        out_dir = tmp_path / "results"
        code = main(["evaluate", "--synth-kind", "spike-train", "--n", "96",
                     "--seed", "3", "--out-dir", str(out_dir)])
        assert code == 0
        report_path = out_dir / "spike_train-n96-seed3_report.json"
        report = json.loads(report_path.read_text())
        assert set(report["metrics"]) == {"l1", "linf", "w1", "bottleneck"}
        assert len(report["methods"]) == 6
        assert report["config"]["seed"] == 3
        assert (out_dir / "spike_train-n96-seed3_sweep.csv").exists()
        assert (out_dir / "spike_train-n96-seed3_l1.svg").exists()
        # Canonical serialization survives a parse/re-serialize round trip.
        assert canonical_json(report) == report_path.read_text()
