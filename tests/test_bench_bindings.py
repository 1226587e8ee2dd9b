"""The benchmark's tracer wraps package functions by module and name;
every binding it names must still exist, or only a traced benchmark run
would find out."""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_span_bindings_resolve():
    spans = _load_spans()
    entries = spans.SPANS + spans.COUNTED + spans.CAP_REPLAY
    assert entries
    missing = [f"{module}.{attr}" for module, attr, _ in entries
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
