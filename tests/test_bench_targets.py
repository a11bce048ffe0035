"""The benchmark's tracer wraps the package from outside by name; every
name it wraps must still exist, or the metrics that depend on it go
missing."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_entry_point_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    patches = tracing.Patches()
    targets = [t for names in tracing.SPAN_TARGETS.values() for t in names]
    try:
        for target in targets + list(tracing.COUNT_TARGETS):
            patches.wrap(target, lambda fn: lambda *args, **kwargs: fn(*args, **kwargs))
        assert patches.missing == []
    finally:
        patches.undo()
