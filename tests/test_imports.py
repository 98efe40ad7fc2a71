"""Which code paths load scipy.

The package is numpy only except for the two diagram distances, which
import scipy on first call. These checks run in fresh interpreters, since
the test process has loaded scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import toposmooth
from toposmooth import Fraction, bottleneck, diagram_of, generate_synthetic, simplify, wasserstein1

SRC = Path(toposmooth.__file__).resolve().parent.parent

EVERY_PATH_BUT_THE_DISTANCES = """
import contextlib, io, sys, tempfile
from pathlib import Path

from toposmooth import (
    Fraction, approx_entropy, cutoff_filter, diagram_of, douglas_peucker,
    gaussian_filter, generate_synthetic, median_filter, norm_l1, norm_linf,
    simplify, uniform_subsample,
)
from toposmooth.cli import main

series = generate_synthetic("noisy_sine", 256, 7)
smoothed = simplify(series, Fraction(0.5))
diagram_of(series)
approx_entropy(series)
norm_l1(series, smoothed)
norm_linf(series, smoothed)
median_filter(series, 5)
gaussian_filter(series, 1.0)
cutoff_filter(series, 8)
uniform_subsample(series, 4)
douglas_peucker(series, 0.1)
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    data, out = str(Path(tmp) / "data.csv"), str(Path(tmp) / "out")
    for argv in (
        ["synth", "--kind", "spike-train", "--n", "128", "--output", data],
        ["smooth", "--input", data, "--method", "topological", "--param", "0.5",
         "--output", out + ".csv", "--svg", out + ".svg"],
        ["persistence", "--input", data, "--output", out + "_pairs.csv"],
        ["entropy", "--input", data],
    ):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

DISTANCES = """
import json

from toposmooth import (
    Fraction, bottleneck, diagram_of, generate_synthetic, simplify, wasserstein1,
)

series = generate_synthetic("random_walk", 512, 7)
original, kept = diagram_of(series), diagram_of(simplify(series, Fraction(0.5)))
print(json.dumps([wasserstein1(original, kept).hex(), bottleneck(original, kept).hex()]))
"""


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, env=env
    )
    return done.stdout.strip().splitlines()[-1]


def test_only_the_diagram_distances_load_scipy():
    assert run_fresh(EVERY_PATH_BUT_THE_DISTANCES) == "[]"


def test_distances_in_a_fresh_process_match_this_one():
    series = generate_synthetic("random_walk", 512, 7)
    original, kept = diagram_of(series), diagram_of(simplify(series, Fraction(0.5)))
    expected = [wasserstein1(original, kept).hex(), bottleneck(original, kept).hex()]
    assert json.loads(run_fresh(DISTANCES)) == expected
