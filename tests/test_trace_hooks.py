"""The benchmark's tracer wraps package functions by name; each must exist.

``perfbench/tracer.py`` is loaded read-only: no bytecode is written beside
it and it is not registered as a module.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    hooks = {pair for pairs in tracer.LAYERS.values() for pair in pairs}
    hooks |= set(tracer.COUNTS) | set(tracer.LATE_COUNTS)
    assert hooks
    missing = [
        f"toposmooth.{module}.{name}"
        for module, name in sorted(hooks)
        if not callable(getattr(importlib.import_module(f"toposmooth.{module}"), name, None))
    ]
    assert missing == []
