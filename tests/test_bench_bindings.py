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
import pytest

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


def test_package_modules_use_every_private_name_they_define():
    # The package's only dead-code check.  A module-level private function,
    # class or assignment must be read somewhere in src/, tests/ or bench/:
    # by name, as an attribute, or as a string such as monkeypatch and
    # bench/spans.py pass.
    files = [*PACKAGE_DIR.glob("*.py"), *Path(__file__).parent.glob("*.py"),
             *SPANS_FILE.parent.glob("*.py")]
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"vixsabr.{path.stem}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert unread == []


# The messages of the input rules: finite and > 0 (model.positive_float
# and positive_floats), an integer and a size (model.count) and a number,
# not text (model._to_float)
RULE_MESSAGES = {"finite_and_positive": "must be finite and > 0",
                 "integer": "must be an integer",
                 "size": "must be >= ",
                 "number": "must be a number"}


@pytest.mark.parametrize("phrase", RULE_MESSAGES.values(), ids=RULE_MESSAGES)
def test_only_model_formats_the_input_rule_messages(phrase):
    # Each input rule has one home in model; another module may state it
    # in a docstring, but must call model rather than format the message.
    formatted = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        formatted += [f"vixsabr.{path.stem}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and phrase in node.value and id(node) not in docstrings]
    assert formatted
    assert [where for where in formatted if not where.startswith("vixsabr.model:")] == []


def test_only_model_converts_to_float_arrays():
    # Conversion has one home, model.as_floats, which reads an integer
    # beyond the float range as an infinity where numpy overflows; another
    # module must call it rather than np.asarray or np.array with a float
    # dtype, by keyword or in second place.
    def float_dtype(call):
        dtypes = [k.value for k in call.keywords if k.arg == "dtype"] + call.args[1:2]
        return any(isinstance(d, ast.Name) and d.id == "float" for d in dtypes)

    converting = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        converting += [f"vixsabr.{path.stem}:{node.lineno}"
                       for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                       and node.func.attr in ("asarray", "array")
                       and isinstance(node.func.value, ast.Name)
                       and node.func.value.id == "np" and float_dtype(node)]
    assert converting
    assert [where for where in converting if not where.startswith("vixsabr.model:")] == []


def test_mc_sets_the_numpy_error_state_only_in_the_block_runner():
    # numpy's error state is per thread, and _run_blocks's worker sets it
    # around every block, so no block body sets it again.  Only code that
    # runs no blocks sets its own: evolve_capped, and estimate_vix_nested
    # outside its block body, where it computes the bounds.
    allowed = {"_run_blocks.run", "evolve_capped", "estimate_vix_nested"}
    setting = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "errstate" \
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "np":
                setting.append(".".join(scope) or "<module>")
            inner = [*scope, child.name] if isinstance(child, ast.FunctionDef) else scope
            visit(child, inner)

    visit(ast.parse((PACKAGE_DIR / "mc.py").read_text()), [])
    assert sorted(set(setting) - allowed) == []
    assert "_run_blocks.run" in setting


def test_only_the_nested_estimator_calls_std():
    # McEstimate reads every standard error from its sum of squared
    # deviations, and its merge pools them; only the nested estimator's
    # inner SE, criterion 8's oracle, keeps numpy's std.
    calling = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            calling += [f"vixsabr.{path.stem}.{getattr(top, 'name', '<module>')}"
                        for node in ast.walk(top)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "std"]
    assert calling == ["vixsabr.mc.estimate_vix_nested"]


def test_only_the_block_runner_makes_random_streams():
    # The stream contract, block b of a domain drawing from the Philox
    # stream keyed (domain << 96) | (b << 64) | seed, has one home:
    # mc._run_blocks.  No other code builds a bit generator or a
    # Generator, by bare name or as an attribute such as np.random.Philox.
    making = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            making += [f"vixsabr.{path.stem}.{getattr(top, 'name', '<module>')}"
                       for node in ast.walk(top) if isinstance(node, ast.Call)
                       and getattr(node.func, "id", getattr(node.func, "attr", None))
                       in ("Philox", "Generator", "default_rng")]
    assert making == ["vixsabr.mc._run_blocks"] * 2


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
