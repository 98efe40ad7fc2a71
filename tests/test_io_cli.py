import contextlib
import hashlib
import io
import json
from xml.etree import ElementTree

import numpy as np
import pytest
from helpers import PAIR_COLUMNS, diagram_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from toposmooth import TimeSeries, diagram_of, generate_synthetic, load_csv
from toposmooth.cli import CLI_METHODS, main
from toposmooth.io import (
    canonical_json,
    fmt,
    svg_line_chart,
    svg_metric_scatter,
    write_pairs_csv,
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
        with pytest.raises(ValueError) as info:
            load_csv(p)
        assert str(info.value) == "invalid series: length 1 < 2"

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

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        p = tmp_path / "i.csv"
        p.write_bytes("5.0\n1.0\n2.0\n0.5\n".encode("utf-8-sig"))
        assert np.array_equal(load_csv(p).values, [5.0, 1.0, 2.0, 0.5])

    def test_byte_order_mark_before_header(self, tmp_path):
        p = tmp_path / "j.csv"
        p.write_bytes("x,y\n0,1.5\n2,2.5\n".encode("utf-8-sig"))
        s = load_csv(p)
        assert np.array_equal(s.values, [1.5, 2.5])
        assert np.array_equal(s.positions, [0, 2])

    def test_crlf_and_comment_before_header(self, tmp_path):
        p = tmp_path / "k.csv"
        p.write_bytes(b"# from a spreadsheet\r\n\r\nx,y\r\n0,1.5\r\n2,2.5\r\nabc\r\n")
        with pytest.raises(ValueError, match="line 6: unparseable number in 'abc'"):
            load_csv(p)
        p.write_bytes(b"# from a spreadsheet\r\n\r\nx,y\r\n0,1.5\r\n2,2.5\r\n")
        s = load_csv(p)
        assert np.array_equal(s.values, [1.5, 2.5])
        assert np.array_equal(s.positions, [0, 2])


# Finite samples more than the float range apart: a persistence of inf.
WIDER_THAN_FLOATS = "1e308\n-1e308\n1e308\n0\n5\n-1e308\n"


def _pairs_series(name):
    if name == "wider_than_floats":
        return TimeSeries([float(v) for v in WIDER_THAN_FLOATS.split()])
    if name == "rounded_noisy_sine":
        return TimeSeries(np.round(generate_synthetic("noisy_sine", 512, 7).values))
    return generate_synthetic(name, 512, 7)


@pytest.mark.parametrize(
    "name",
    ["spike_train", "noisy_sine", "random_walk", "rounded_noisy_sine", "wider_than_floats"],
)
def test_pairs_csv_is_the_pairs_one_per_line(tmp_path, name):
    diagram = diagram_of(_pairs_series(name))
    path = tmp_path / "pairs.csv"
    write_pairs_csv(path, diagram)
    expected = ["birth_index,death_index,birth,death,persistence"] + [
        f"{birth},{death},{fmt(birth_value)},{fmt(death_value)},{fmt(persistence)}"
        for birth, death, birth_value, death_value, persistence in diagram_rows(
            diagram, *PAIR_COLUMNS, "persistence"
        )
    ]
    assert path.read_text() == "\n".join(expected) + "\n"
    if name == "wider_than_floats":
        assert expected[-1] == "5,2,-1e+308,1e+308,inf"


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

    def test_numpy_integers_accepted_as_python_ones(self):
        expected = generate_synthetic("noisy_sine", 20, 7)
        for n, seed in ((np.int64(20), np.uint64(7)), (np.int32(20), np.int8(7))):
            got = generate_synthetic("noisy_sine", n, seed)
            assert got.label == expected.label == "noisy_sine-n20-seed7"
            assert got.values.tobytes() == expected.values.tobytes()
        top = generate_synthetic("spike_train", 16, np.uint64(2**64 - 1)).values
        assert top.tobytes() == generate_synthetic("spike_train", 16, 2**64 - 1).values.tobytes()

    @pytest.mark.parametrize(
        "n,seed,message",
        [
            (20, 7.0, "seed must be an integer, got 7.0"),
            (20, 1.5, "seed must be an integer, got 1.5"),
            (20, True, "seed must be an integer, got True"),
            (20.0, 7, "n must be an integer, got 20.0"),
            ("20", 7, "n must be an integer, got '20'"),
        ],
    )
    def test_non_integer_n_or_seed_refused(self, n, seed, message):
        with pytest.raises(ValueError) as info:
            generate_synthetic("noisy_sine", n, seed)
        assert str(info.value) == message


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

    def test_title_and_legend_text_escaped(self):
        from toposmooth.evaluate import SweepPoint

        label = "a&b <c>"
        series = TimeSeries([0, 1, 0, 2])
        pts = {label: (SweepPoint(label, 1.0, 0.1, 1.0, 1.0, 1.0, 1.0),)}
        for text in (
            svg_line_chart([(label, series)], label),
            svg_metric_scatter("l1", pts, {}, label),
        ):
            texts = ElementTree.fromstring(text).iter("{http://www.w3.org/2000/svg}text")
            assert [t.text for t in texts] == [label, label]


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

    # Magnitudes stay within 1e4: a gaussian kernel for a sigma near 1e8
    # would really be allocated (gigabytes), not refused at once.
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

    def test_median_window_wider_than_series_is_capped(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1\n5\n2\n4\n0\n3\n")
        outputs = []
        for window in ("11", "10000000000001"):  # 11 = 2n - 1
            out = tmp_path / f"median{window}.csv"
            assert main(["smooth", "--input", str(data), "--method", "median",
                         "--param", window, "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    # Finite input whose smoothing overflows: the result is refused in one
    # line, while Douglas-Peucker only keeps the samples it cannot fit.
    @pytest.mark.parametrize(
        "method,param,code",
        [("cutoff", "1", 1), ("subsample", "3", 1), ("douglas-peucker", "0", 0)],
    )
    def test_overflowing_smoothing_is_one_error_line(
        self, tmp_path, capsys, method, param, code
    ):
        data = tmp_path / "data.csv"
        data.write_text("1.7e308\n-1.7e308\n" * 4)
        out = tmp_path / "out.csv"
        assert main(["smooth", "--input", str(data), "--method", method,
                     "--param", param, "--output", str(out)]) == code
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 1
            assert err[0].startswith("error: invalid series: non-finite value")
            assert not out.exists()
        else:
            assert err == []
            values = load_csv(out).values
            assert len(values) == 8 and np.all(np.isfinite(values))

    @pytest.mark.parametrize("command", ["evaluate", "entropy"])
    @pytest.mark.parametrize(
        "flag,message",
        [
            ("--m=0", "m must be >= 1, got 0"),
            ("--m=2000", "series of length 256 too short for m=2000"),
            ("--r-factor=nan", "r must be finite and > 0, got nan"),
            ("--r-factor=-1", "r must be finite and > 0, got -"),
            ("--r-factor=inf", "r must be finite and > 0, got inf"),
        ],
    )
    def test_bad_entropy_argument_is_one_error_line(
        self, tmp_path, capsys, command, flag, message
    ):
        out_dir = tmp_path / "results"
        if command == "evaluate":
            source = ["--synth-kind", "spike-train", "--n", "256", "--out-dir", str(out_dir)]
        else:
            data = tmp_path / "data.csv"
            write_series_csv(data, generate_synthetic("spike_train", 256, 7))
            source = ["--input", str(data)]
        assert main([command, *source, flag]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert captured.out == ""
        assert not out_dir.exists()

    def test_series_wider_than_floats_runs_without_warnings(self, tmp_path, capsys):
        # pyproject.toml turns warnings into errors, so an overflow warning fails here.
        data = tmp_path / "data.csv"
        data.write_text(WIDER_THAN_FLOATS)
        pairs, out, svg = (tmp_path / name for name in ("pairs.csv", "out.csv", "out.svg"))
        assert main(["persistence", "--input", str(data), "--output", str(pairs)]) == 0
        assert main(["smooth", "--input", str(data), "--method", "topological",
                     "--param", "0.5", "--output", str(out), "--svg", str(svg)]) == 0
        assert capsys.readouterr().err == ""
        chart = svg.read_text()
        assert "<polyline" in chart and "nan" not in chart

    @pytest.mark.parametrize("command", ["evaluate", "entropy"])
    def test_overflowing_deviation_is_one_error_line(self, tmp_path, capsys, command):
        # Finite values whose squared deviations overflow the standard deviation.
        data = tmp_path / "data.csv"
        data.write_text("0\n1e200\n-1e200\n3e199\n5\n")
        out_dir = tmp_path / "results"
        extra = ["--out-dir", str(out_dir)] if command == "evaluate" else []
        assert main([command, "--input", str(data), *extra]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: sample standard deviation overflowed (values too large for float64)"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["evaluate", "entropy"])
    def test_constant_series_is_one_error_line(self, tmp_path, capsys, command):
        data = tmp_path / "data.csv"
        data.write_text("3\n3\n3\n3\n")
        out_dir = tmp_path / "results"
        extra = ["--out-dir", str(out_dir)] if command == "evaluate" else []
        assert main([command, "--input", str(data), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: series is constant; entropy calibration undefined"
        ]
        assert captured.out == ""
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("line", ["=5", " = 5"])
    def test_config_line_without_key_rejected(self, tmp_path, capsys, line):
        config = tmp_path / "run.conf"
        config.write_text(f"kind=noisy-sine\n{line}\n")
        out = tmp_path / "a.csv"
        assert main(["synth", "--config", str(config), "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: config line {line.strip()!r} has no key"]
        assert not out.exists()

    def test_config_equals_form(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("kind=random-walk\nn=40\n")
        out = tmp_path / "a.csv"
        assert main(["synth", f"--config={config}", "--output", str(out)]) == 0
        assert len(load_csv(out)) == 40

    def test_config_byte_order_mark_dropped(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_bytes("kind=noisy-sine\nn=40\n".encode("utf-8-sig"))
        out = tmp_path / "a.csv"
        assert main(["synth", "--config", str(config), "--output", str(out)]) == 0
        assert len(load_csv(out)) == 40

    def test_config_inside_config_rejected(self, tmp_path, capsys):
        inner = tmp_path / "inner.conf"
        inner.write_text("n=32\n")
        config = tmp_path / "run.conf"
        config.write_text(f"kind=noisy-sine\nconfig={inner}\n")
        out = tmp_path / "a.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["synth", "--config", str(config), "--output", str(out)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: --config={inner}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_rejected(self, tmp_path, capsys):
        first, second = tmp_path / "a.conf", tmp_path / "b.conf"
        first.write_text("kind=noisy-sine\n")
        second.write_text("n=32\n")
        out = tmp_path / "a.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["synth", "--config", str(second), f"--config={first}", "--output", str(out)])
        assert exit_info.value.code == 2
        assert "argument --config: given more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--n", "5"], ["--seed", "99"], ["--n", "5", "--seed", "99"]])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_evaluate_input_refuses_synthetic_flags(self, tmp_path, capsys, flags, from_config):
        data = tmp_path / "rw.csv"
        write_series_csv(data, generate_synthetic("random_walk", 64, 7))
        out_dir = tmp_path / "results"
        if from_config:
            config = tmp_path / "run.conf"
            config.write_text("".join(f"{k[2:]}={v}\n" for k, v in zip(flags[::2], flags[1::2])))
            flags = ["--config", str(config)]
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--input", str(data), *flags, "--out-dir", str(out_dir)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "not allowed with argument --input" in err
        assert not out_dir.exists()

    def test_evaluate_input_echoes_no_seed(self, tmp_path):
        data = tmp_path / "rw.csv"
        write_series_csv(data, generate_synthetic("spike_train", 96, 3))
        out_dir = tmp_path / "results"
        assert main(["evaluate", "--input", str(data), "--out-dir", str(out_dir)]) == 0
        config = json.loads((out_dir / "rw_report.json").read_text())["config"]
        assert (config["n"], config["seed"], config["source"]) == (96, None, "csv")

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


# sha256 of the evaluate report JSON and sweep CSV at seed 7, n = 512,
# recorded with the dense pairwise entropy kernel. (At n = 256 the noisy
# sine's methods share no entropy range, and evaluate refuses it.)
GOLDEN_N512_SEED7 = {
    "spike-train": (
        "e5897b4ae7bf11b4f98fe0d722841d524675b070d16b5250a6ddcb71c6b59a7f",
        "03c482448f5adfc8c5f4392ddfcaa3578eaa659c1e5de999e0ab60157e28424b",
    ),
    "noisy-sine": (
        "42347b9a9e256c4dd22f634bc59d69a1a259006dad1f8992bad62948c7fc8bf1",
        "763b00acbfd53226cc05ac19ee3e016c5d02028f722c18242a9290d7e1cf6603",
    ),
    "random-walk": (
        "f273dffb2172d6a624fb91533813af531214b2389d805e6a91d9f1dd24a8dc13",
        "170b1b96ffb03e40e35fa24b7065d83fe2182cd5cfce2a52edf39a6ca38a022d",
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_N512_SEED7))
def test_evaluate_report_bytes_unchanged(tmp_path, kind):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["evaluate", "--synth-kind", kind, "--n", "512", "--seed", "7",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    stem = f"{kind.replace('-', '_')}-n512-seed7"
    got = tuple(
        hashlib.sha256((tmp_path / f"{stem}_{name}").read_bytes()).hexdigest()
        for name in ("report.json", "sweep.csv")
    )
    assert got == GOLDEN_N512_SEED7[kind]


# sha256 of the four evaluate charts at seed 7, n = 512.
GOLDEN_N512_SEED7_CHARTS = {
    "spike-train": {
        "l1": "7b24fff31ddeea801056dafd197c4d4e2dc380ea0af4c1c273d011896e38afe0",
        "linf": "1204ea923e7d363150f32afd5b3d9cddbcae3bde76aae16c5bc91129ca04a6ee",
        "w1": "3d9083238e26527944d451a92677d6d0e285bdd85f1dbdbeeb990bcbd901aa30",
        "bottleneck": "aff9b85a7e710037ff886f06e46fae079ad5c091462cda36577a0936871e1c15",
    },
    "noisy-sine": {
        "l1": "13d36d274216067ae9ca2b9c9b4586eb648e5eb38870d090a955cf569a341d17",
        "linf": "81ccb0c6cef318aefc68f0dc0e07d2a31cb3819b9b3524bbe5ed7d0cfcf79a1b",
        "w1": "018a8ec7c69cf91d776b44acc31acb33bffff88d7fcd03dd556071218c36dfba",
        "bottleneck": "c859622b3f1e683a9190a2010124e391b38f4ad75f917121c82aa0bc69c6d8cf",
    },
    "random-walk": {
        "l1": "0c4da049d7c9c07e292e2c668bdc3e6cdbb54952e4cd9e570a4297e56b8876fc",
        "linf": "c1d65b438461d1442a06c99cd16ce6f4ff2642b99f3e1d2fc63ca565065b493a",
        "w1": "446dcd6776313a68a3492696123b2ebde4b3470976120e0fa4b37ea55cea0857",
        "bottleneck": "67c14d19c94a37ff79c35ce13adadfb41292fa369809d866387f57651e36641a",
    },
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", sorted(GOLDEN_N512_SEED7_CHARTS))
def test_evaluate_chart_bytes_unchanged(tmp_path, kind):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["evaluate", "--synth-kind", kind, "--n", "512", "--seed", "7",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    stem = f"{kind.replace('-', '_')}-n512-seed7"
    golden = GOLDEN_N512_SEED7_CHARTS[kind]
    assert {metric: _sha256(tmp_path / f"{stem}_{metric}.svg") for metric in golden} == golden


def test_persistence_and_smooth_bytes_unchanged(tmp_path):
    """sha256 of the seed-7 n = 512 noisy sine and its CLI outputs."""
    data = tmp_path / "noisy_sine.csv"
    assert main(["synth", "--kind", "noisy-sine", "--n", "512", "--seed", "7",
                 "--output", str(data)]) == 0
    assert main(["persistence", "--input", str(data),
                 "--output", str(tmp_path / "pairs.csv")]) == 0
    assert main(["smooth", "--input", str(data), "--method", "topological", "--param", "0.5",
                 "--output", str(tmp_path / "smoothed.csv"),
                 "--svg", str(tmp_path / "overlay.svg")]) == 0
    names = ("noisy_sine.csv", "pairs.csv", "smoothed.csv", "overlay.svg")
    assert {name: _sha256(tmp_path / name) for name in names} == {
        "noisy_sine.csv": "b06082f02a37e32b7ccee09a0fb2588d614326399dd5718ac520716d41c8c61b",
        "pairs.csv": "2fe65c19802a217a00afde9b8ad28efd4ee53755c5e7bc447a281656e999391e",
        "smoothed.csv": "90b04513eb52832e7ea2fe9de09e22461b6f879b9d83df0789a24d1a15d98bc0",
        "overlay.svg": "939131d4e434b5ee08147dff75725228047f93e352081037a86300885c5d7065",
    }
