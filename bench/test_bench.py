"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench
"""

import importlib
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
from workloads import TINY, Outcome

from vixsabr import cli, mc
from vixsabr.scale import NumericalError

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

COUNTS = ("pricing.bs_price.calls", "pricing.implied_vol.calls",
          "scale.quad.calls", "scale.quad.neval", "scale.scale_exponent.calls",
          "model.capped_vol_diffusion.calls", "model.capped_vol_drift.calls",
          "mc.simulate_capped_paths.calls", "mc.price_vix_option.calls",
          "asymptotics.limiting_implied_vol.calls", "cli.output_bytes",
          "trace.spans")


@pytest.fixture(autouse=True)
def one_setup_run(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def bench(capsys, workload, trace=0, seed=7):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.01", "--trace", str(trace)], sizes=TINY)
    out = capsys.readouterr().out
    assert code == 0, out
    return out, json.loads(out.strip().splitlines()[-1])


def bindings():
    names = spans.SPANS + spans.COUNTED + spans.CAP_REPLAY
    found = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in names}
    found[("vixsabr.scale", "integrate")] = importlib.import_module(
        "vixsabr.scale").integrate
    return found


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    out, result = bench(capsys, workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 and math.isfinite(v["value"])
               for v in result["metrics"].values())
    for name in ("op_p50_s", "op_tail_s", "work_per_s", "time_to_se_s",
                 "setup_s", "peak_mem_mb", "peak_rss_mb", "fail_frac"):
        assert f"  {name} " in out


def test_traced_counts_repeat_and_bindings_restored(capsys):
    before = bindings()
    _, first = bench(capsys, "cli_default", trace=1)
    assert bindings() == before
    _, second = bench(capsys, "cli_default", trace=1)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert first["correct"]
    for name in COUNTS:
        assert first["metrics"][name]["value"] > 0, name
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_bindings_restored_after_an_error():
    before = bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            assert bindings() != before
            raise RuntimeError("inside the traced block")
    assert bindings() == before


def test_self_time_subtracts_the_union_of_children():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span(1, "parent", 0.0, 10.0, None, 0, 1),
        spans.Span(2, "child", 1.0, 4.0, 1, 0, 2),
        spans.Span(3, "child", 3.0, 6.0, 1, 0, 3),
    ]
    totals = tracer.totals()
    assert totals["parent"]["self_s"] == pytest.approx(5.0)
    assert totals["child"] == {"calls": 2, "s": pytest.approx(6.0),
                               "self_s": pytest.approx(6.0)}


def test_bad_smile_is_a_failure(capsys, monkeypatch):
    original = cli.smile_from_paths

    def shifted(*args, **kwargs):
        points = original(*args, **kwargs)
        return [p if p.status != "ok" else
                type(p)(**{**vars(p), "implied_vol": p.band[0] - 1.0})
                for p in points]

    monkeypatch.setattr(cli, "smile_from_paths", shifted)
    out, result = bench(capsys, "smile_dense")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "outside" in out


def test_nonzero_exit_is_a_failure(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise NumericalError("injected")

    monkeypatch.setattr(cli, "explosion_verdict", fail)
    out, result = bench(capsys, "diagnose_grid")
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "exited 3" in out


def test_sandwich_violation_is_a_failure(capsys, monkeypatch):
    original = mc.estimate_vix_nested

    def violated(*args, **kwargs):
        result = original(*args, **kwargs)
        result.violation_fraction = 0.5
        return result

    monkeypatch.setattr(mc, "estimate_vix_nested", violated)
    _, result = bench(capsys, "nested_vix")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_changed_repeat_output_is_a_failure():
    tally = run.Tally()
    workload = type("W", (), {"name": "w"})()
    tally.add(workload, 0, Outcome(fingerprint="a"))
    tally.add(workload, 0, Outcome(fingerprint="b"))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail(list(np.arange(1.0, 21.0)))
    assert (pct, value) == (50.0, 10.0)


def test_refuses_to_run_without_the_package_source():
    bare = run.ROOT / ".bench_work" / "no-source"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli_default",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
