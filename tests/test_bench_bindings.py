"""The benchmark's tracer wraps package functions by module and name;
every binding it names must still exist, or only a traced benchmark run
would find out."""

import ast
import importlib
import importlib.util
import inspect
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from vixsabr import CapSpec, McConfig, SabrParams, cli, mc, scale

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "vixsabr"
ORACLE_FILE = SPANS_FILE.with_name("oracle.json")


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


def test_package_modules_use_every_name_they_import():
    # The package's only unused-import check.  A module may bind a name
    # it never uses only where the benchmark's tracer wraps that binding.
    spans = _load_spans()
    wrapped = {(module, attr)
               for module, attr, _ in spans.SPANS + spans.COUNTED + spans.CAP_REPLAY}
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names if alias.name != "*"}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"vixsabr.{path.stem}"
        unused += [f"{module}.{name}" for name in sorted(imported - used)
                   if (module, name) not in wrapped]
    assert unused == []


def test_bench_calls_bind_to_the_mc_signatures():
    # bench/probes.py and bench/workloads.py call these shapes, and the
    # path-step counters read the McConfig at argument index 2
    inspect.signature(mc.evolve_capped).bind(
        "v_init", "normals", "horizon", "params", "caps")
    for fn in (mc.simulate_capped_paths, mc.estimate_vix_nested):
        signature = inspect.signature(fn)
        signature.bind("params", "caps", "mc", n_threads=2)
        assert list(signature.parameters)[2] == "mc"


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


def _counting(counts, fn, name, hook=None):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        counts[f"{name}.calls"] += 1
        for key, amount in hook(args, kwargs, result) if hook else ():
            counts[key] += amount
        return result
    return wrapper


def test_lane_commands_call_the_traced_coefficient_bindings(tmp_path, monkeypatch):
    # The traced benchmark counts model.capped_vol_*.calls, and replays
    # the cap counters, through these two bindings of mc.
    counts = Counter()
    for name in ("capped_vol_diffusion", "capped_vol_drift"):
        monkeypatch.setattr(mc, name, _counting(counts, getattr(mc, name), name))
    config = tmp_path / "config.json"
    for maturities, command in (([0.1], ["forwards"]),
                                ([0.2, 0.1, 0.05, 0.025],
                                 ["converge", "--strike", "0.15"])):
        config.write_text(json.dumps({"mc": {"n_paths": 500, "n_steps": 3},
                                      "maturities": maturities}))
        counts.clear()
        argv = ["--config", str(config), "--out", str(tmp_path), *command]
        assert cli.main(argv) == 0
        assert counts["capped_vol_diffusion.calls"] > 0, command
        assert counts["capped_vol_drift.calls"] > 0, command


def test_cap_replay_counts_stacked_lanes_per_lane(monkeypatch):
    # A stacked call passes (L, 1) columns of caps; the replay's counters
    # must count the clamped elements of each row against its own lane.
    spans = _load_spans()
    counts = Counter()
    steps = []  # the (L, n_paths) levels each time row steps from

    def recording(args, kwargs, result):
        steps.append(np.array(args[0]))
        return spans._diffusion_binds(args, kwargs, result)

    monkeypatch.setattr(mc, "capped_vol_diffusion", _counting(
        counts, mc.capped_vol_diffusion, "diffusion", recording))
    monkeypatch.setattr(mc, "capped_vol_drift", _counting(
        counts, mc.capped_vol_drift, "drift", spans._drift_binds))
    models = [SabrParams(beta=0.5, rho=-0.7, omega=1.5, v0=0.5),
              SabrParams(beta=0.3, rho=-0.5, omega=1.2, v0=0.6),
              SabrParams(beta=0.5, rho=-0.7, omega=1.5, v0=0.4)]
    lanes = [(models[0], CapSpec.from_params(models[0], 1.8, 0.3), 0.4),
             (models[1], CapSpec.from_params(models[1], 1.5, 0.2), 0.2),
             (models[2], CapSpec.from_params(models[2], 2.0, 0.5), 0.3)]
    config = McConfig(n_paths=2000, n_steps=8, seed=5)
    mc.simulate_capped_lanes(lanes, config)
    monkeypatch.undo()

    assert counts["diffusion.calls"] == config.n_steps  # one call per time row
    expected = Counter()
    for i, (params, caps, _) in enumerate(lanes):
        levels = np.stack([step[i] for step in steps])
        assert np.all(levels[0] == params.v0)
        expected["cap.diffusion.bound"] += int(np.count_nonzero(
            mc.capped_vol_diffusion(levels, params, caps) == caps.vol_cap))
        expected["cap.drift.bound"] += int(np.count_nonzero(
            np.abs(mc.capped_vol_drift(levels, params, caps)) == caps.drift_cap))
        expected["cap.diffusion.path_steps"] += levels.size
        expected["cap.drift.path_steps"] += levels.size
    assert expected["cap.diffusion.bound"] > 0
    assert expected["cap.drift.bound"] > 0
    assert {key: counts[key] for key in expected} == dict(expected)


def test_diagnose_matches_the_benchmark_oracle(tmp_path):
    # The benchmark holds diagnose.json to its recorded reports by this
    # rule, and counts a mismatch as an incorrect output: floats within
    # rel_tol 1e-10 and abs_tol 1e-12, every other field equal.
    entries = json.loads(ORACLE_FILE.read_text())["diagnose"]
    assert len(entries) == 31
    mismatches = []
    for entry in entries:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": entry["model"]}))
        assert cli.main(["--config", str(config), "--out", str(tmp_path),
                         "diagnose"]) == 0, entry["model"]
        report = json.loads((tmp_path / "diagnose.json").read_text())
        for key, want in entry["report"].items():
            got = report.get(key)
            if isinstance(want, float):
                same = isinstance(got, (int, float)) and math.isclose(
                    got, want, rel_tol=1e-10, abs_tol=1e-12)
            else:
                same = got == want
            if not same:
                mismatches.append((entry["model"], key, got, want))
    assert mismatches == []
