"""Command-line interface.

Subcommands: ``smooth``, ``persistence``, ``entropy``, ``evaluate``,
``synth``. Exit codes: 0 success, 1 validation error, 2 I/O error or
invalid arguments. An optional ``key=value`` config file supplies
defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .evaluate import (
    DEFAULT_METHODS,
    METHODS,
    METRIC_NAMES,
    entropy_tolerance,
    evaluate_series,
)
from .io import (
    _content_lines,
    load_csv,
    svg_line_chart,
    svg_metric_scatter,
    write_pairs_csv,
    write_report_json,
    write_series_csv,
    write_sweep_csv,
)
from .metrics import DEFAULT_M, DEFAULT_R_FACTOR, approx_entropy
from .persistence import diagram_of
from .series import TimeSeries
from .synth import KINDS, generate_synthetic

CLI_KINDS = tuple(k.replace("_", "-") for k in KINDS)
CLI_METHODS = tuple(name.replace("_", "-") for name in METHODS)


def _config_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="toposmooth", add_help=False)
    parser.add_argument(
        "--config",
        metavar="PATH",
        action="append",
        help="key=value lines supplying defaults; flags win",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toposmooth",
        description="Persistence-guided series smoothing, baselines and benchmark",
        parents=[_config_parser()],
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smooth", help="smooth a series with one method")
    p.add_argument("--input", type=str, required=True, help="input CSV")
    p.add_argument("--method", choices=CLI_METHODS, required=True)
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--output", type=str, required=True, help="output CSV")
    p.add_argument("--svg", type=str, default=None, help="overlay chart path")

    p = sub.add_parser("persistence", help="emit extrema pairs as CSV")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--output", type=str, required=True)

    p = sub.add_parser("entropy", help="print approximate entropy")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--m", type=int, default=DEFAULT_M)
    p.add_argument("--r-factor", type=float, default=DEFAULT_R_FACTOR)

    p = sub.add_parser("evaluate", help="full sweep, fit, AUC and rank report")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", type=str, default=None)
    src.add_argument("--synth-kind", choices=CLI_KINDS, default=None)
    # Filled in by _synth_defaults: given beside --input, they are refused.
    p.add_argument("--n", type=int, default=None, help="with --synth-kind (default 1024)")
    p.add_argument("--seed", type=int, default=None, help="with --synth-kind (default 7)")
    p.add_argument("--m", type=int, default=DEFAULT_M)
    p.add_argument("--r-factor", type=float, default=DEFAULT_R_FACTOR)
    p.add_argument("--out-dir", type=str, required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--kind", choices=CLI_KINDS, required=True)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--output", type=str, required=True)
    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Replace ``--config PATH`` by its ``key=value`` lines as flags.

    The flags go right after the subcommand, so explicit flags, which
    come later, win; argparse then checks every value as if typed, and
    refuses a ``config`` key as an unknown flag.
    """
    parser = _config_parser()
    known, rest = parser.parse_known_args(argv)
    if known.config is None:
        return rest
    if len(known.config) > 1:
        parser.error("argument --config: given more than once")
    flags = []
    for _, line in _content_lines(known.config[0]):
        if "=" not in line:
            raise ValueError(f"config line {line!r} is not key=value")
        key, value = line.split("=", 1)
        if not key.strip():
            raise ValueError(f"config line {line!r} has no key")
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    at = next((i for i, a in enumerate(rest) if not a.startswith("-")), len(rest))
    return rest[: at + 1] + flags + rest[at + 1 :]


def _synth_defaults(parser: argparse.ArgumentParser, args) -> None:
    """Refuse ``evaluate``'s --n or --seed beside --input; else fill in their defaults."""
    for key, default in (("n", 1024), ("seed", 7)):
        given = getattr(args, key) is not None
        if given and args.input is not None:
            parser.error(f"argument --{key}: not allowed with argument --input")
        if not given and args.input is None:
            setattr(args, key, default)


def _load_input(args) -> TimeSeries:
    if args.input is not None:
        return load_csv(args.input)
    return generate_synthetic(args.synth_kind, args.n, args.seed)


def _cmd_smooth(args) -> int:
    series = load_csv(args.input)
    smoothed = METHODS[args.method.replace("-", "_")](series, args.param)
    write_series_csv(args.output, smoothed)
    if args.svg:
        chart = svg_line_chart(
            [("original", series), (args.method, smoothed)],
            title=f"{series.label}: {args.method}({args.param:g})",
        )
        Path(args.svg).write_text(chart, encoding="utf-8")
    return 0


def _cmd_persistence(args) -> int:
    series = load_csv(args.input)
    write_pairs_csv(args.output, diagram_of(series))
    return 0


def _cmd_entropy(args) -> int:
    series = load_csv(args.input)
    r = entropy_tolerance(series, args.r_factor)
    print(repr(approx_entropy(series, m=args.m, r=r)))
    return 0


def _cmd_evaluate(args) -> int:
    series = _load_input(args)
    result = evaluate_series(series, m=args.m, r_factor=args.r_factor)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_echo = {
        "dataset": series.label,
        "methods": list(DEFAULT_METHODS),
        "m": args.m,
        "r_factor": args.r_factor,
        "seed": args.seed,  # None with --input
        "n": len(series),
        "source": "csv" if args.input else args.synth_kind,
    }
    stem = result.dataset
    write_report_json(out / f"{stem}_report.json", result, config_echo)
    write_sweep_csv(out / f"{stem}_sweep.csv", result)
    for metric in METRIC_NAMES:
        chart = svg_metric_scatter(
            metric,
            result.sweep_points,
            result.fits,
            title=f"{stem}: {metric} vs entropy",
        )
        (out / f"{stem}_{metric}.svg").write_text(chart, encoding="utf-8")
    overall = sorted(result.overall.items(), key=lambda kv: (kv[1], kv[0]))
    for method, rank in overall:
        print(f"{method}: average rank {rank:g}")
    return 0


def _cmd_synth(args) -> int:
    series = generate_synthetic(args.kind, args.n, args.seed)
    write_series_csv(args.output, series)
    return 0


_COMMANDS = {
    "smooth": _cmd_smooth,
    "persistence": _cmd_persistence,
    "entropy": _cmd_entropy,
    "evaluate": _cmd_evaluate,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_config(argv))
        if args.command == "evaluate":
            _synth_defaults(parser, args)
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
