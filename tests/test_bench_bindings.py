"""The benchmark's tracer wraps package functions by module and name;
every binding it names must still exist, or only a traced benchmark run
would find out."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from vixsabr import cli, scale

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


def test_diagnose_calls_the_counted_scale_bindings(tmp_path, monkeypatch):
    # The traced benchmark needs scale.quad.calls and
    # scale.scale_exponent.calls above 0 on the default CLI commands.
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scale.integrate, "quad",
                        counting("quad", scale.integrate.quad))
    monkeypatch.setattr(scale, "scale_exponent",
                        counting("scale_exponent", scale.scale_exponent))
    assert cli.main(["--out", str(tmp_path), "diagnose"]) == 0
    assert counts["quad"] > 0
    assert counts["scale_exponent"] > 0
