import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import sys
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vixsabr import CapSpec, McConfig, RunConfig, estimate_capped_lanes, \
    estimate_forward, main, rate_function, simulate_capped_lanes
from vixsabr import scale
from vixsabr.cli import ConfigError, _load_config


def run_cli(tmp_path, config_data, *argv):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_data))
    return main(["--config", str(config_path), *argv])


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


FAST_MC = {"n_paths": 20_000, "n_steps": 10, "seed": 12345}


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def test_config_round_trip():
    base = RunConfig()
    assert RunConfig.from_dict(base.to_dict()) == base
    assert RunConfig.from_dict({}) == base


def test_config_partial_sections_merge_over_defaults():
    config = RunConfig.from_dict({"model": {"rho": -0.3}, "mc": {"n_paths": 5}})
    assert config.model.rho == -0.3
    assert config.model.beta == 0.5
    assert config.mc.n_paths == 5
    assert config.mc.n_steps == RunConfig().mc.n_steps


def test_config_errors_are_aggregated_with_paths():
    bad = {
        "model": {"beta": 2.0},
        "mc": {"bogus": 3},
        "output_dir": 3,
        "mystery": {},
    }
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(bad)
    problems = err.value.problems
    assert len(problems) >= 4
    joined = "\n".join(problems)
    assert "model:" in joined
    assert "mc: unknown keys ['bogus']" in joined
    assert "output_dir: unknown section" in joined
    assert "mystery: unknown section" in joined


def test_config_reports_every_bad_field_of_a_section():
    # a section's own checks stop at its first failure; every other bad
    # key must still be reported
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"model": {"beta": 2.0, "rho": 5.0},
                             "mc": {"n_paths": 0, "n_steps": 0}})
    assert err.value.problems == [
        "model: beta must be in [0, 1), got 2.0",
        "model: rho must be in (-1, 1), got 5.0",
        "mc: n_paths must be >= 1, got 0",
        "mc: n_steps must be >= 1, got 0",
    ]


def test_config_rejects_inconsistent_caps():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"caps": {"vol_cap": 0.5}})
    assert any(p.startswith("caps:") for p in err.value.problems)


@pytest.mark.parametrize(
    "strikes", [[], [0.1, -0.2], [0.0], [math.inf], [0.1, math.nan]]
)
def test_config_rejects_bad_strikes(strikes):
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"strikes": strikes})


@pytest.mark.parametrize("section", ["strikes", "maturities"])
@pytest.mark.parametrize("value", ["1", {"0.1": 0}, 0.1, [[0.1]], [0.1, None]])
def test_config_takes_only_a_list_of_numbers(section, value):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({section: value})
    assert err.value.problems == [f"{section}: expected a list of numbers"]


@pytest.mark.parametrize("section", ["strikes", "maturities"])
@pytest.mark.parametrize("values, shown",
                         [((10**400,), "inf"), ((0.1, -10**400), "-inf")])
def test_config_reads_integers_beyond_float_range_as_infinities(section, values, shown):
    # every entry is a number, so the range check refuses it; the CLI's
    # JSON hooks stop such an integer before it gets here
    with pytest.raises(ConfigError) as err:
        RunConfig(**{section: values})
    assert err.value.problems == [
        f"{section}: entries must be finite and > 0, got {shown}"]


@pytest.mark.parametrize("section, key, problem", [
    ("caps", "drift_cap", f"caps: drift_cap must be finite and > 0, got {10**400}"),
    ("model", "v0", f"model: v0 must be finite and > 0, got {10**400}")],
    ids=["caps-drift_cap", "model-v0"])
def test_config_rejects_integers_beyond_float_range(section, key, problem):
    # an int above float's range compares below inf: the range check
    # converts it to inf and refuses it by name, so it cannot overflow
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({section: {key: 10**400}})
    assert problem in err.value.problems


_FLOAT_FIELDS = [(section.name, f.name)
                 for section in fields(RunConfig) if is_dataclass(section.default)
                 for f in fields(section.default)
                 if f.type in (float, "float") and f.metadata.get("settable", True)]


@pytest.mark.parametrize("section, key", _FLOAT_FIELDS)
def test_config_rejects_every_float_field_beyond_float_range(section, key):
    # 10**400 compares below inf, so only converting it to a float
    # shows that it is out of range
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({section: {key: 10**400}})
    assert any(p.startswith(section) and key in p for p in err.value.problems)


def test_config_caps_accessor():
    config = RunConfig.from_dict({"caps": {"vol_cap": 3.0, "drift_cap": 0.5}})
    assert config.caps.vol_cap == 3.0
    assert config.caps.drift_cap == 0.5
    assert config.caps.binding_level(config.model) > 0.0


def _settable_keys(data: dict) -> int:
    """The keys a config sets: one per key of a section that is an object,
    one per other section."""
    return sum(len(v) if isinstance(v, dict) else 1 for v in data.values())


def test_config_sections_are_the_dataclass_fields():
    config = RunConfig()
    data = config.to_dict()
    assert list(data) == [f.name for f in fields(RunConfig)]
    assert list(data) == ["model", "caps", "mc", "strikes", "maturities"]
    for name, section in data.items():
        value = getattr(config, name)
        if is_dataclass(value):
            expected = {f.name for f in fields(value)
                        if f.metadata.get("settable", True)}
            assert set(section) == expected, name
    assert list(data["caps"]) == ["vol_cap", "drift_cap"]
    assert list(data["mc"]) == ["n_paths", "n_steps", "seed"]
    assert _settable_keys(data) == 11


def test_config_rebuilds_mc_from_its_settable_keys():
    # the library-only fields keep their defaults, as the CLI reads none
    mc = McConfig(n_paths=7, horizon=0.05, inner_paths=9, inner_steps=3)
    config = RunConfig(mc=mc)
    assert config.mc == McConfig(n_paths=7)
    assert replace(RunConfig(), mc=mc) == config
    assert RunConfig.from_dict(config.to_dict()) == config


def test_config_caps_follow_the_model():
    config = RunConfig.from_dict({"caps": {"vol_cap": 3.0, "drift_cap": 0.5}})
    moved = replace(config, model=replace(config.model, rho=0.7))
    assert moved.caps == CapSpec.from_params(moved.model, vol_cap=3.0, drift_cap=0.5)
    assert moved.caps.binding_level(moved.model) > config.caps.binding_level(config.model)
    with pytest.raises(ConfigError) as err:
        replace(config, model=replace(config.model, omega=3.0))
    assert any(p.startswith("caps: vol_cap") for p in err.value.problems)


def test_config_rejects_the_derived_binding_level():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"caps": {"binding_level": 1.0}})
    assert err.value.problems == ["caps: unknown keys ['binding_level']"]


@pytest.mark.parametrize("command", ["diagnose", "forwards", "smile", "converge"])
@pytest.mark.parametrize("key, value", [("horizon", 0.05), ("vix_window", 0.1),
                                        ("inner_paths", 1000), ("inner_steps", 30)])
def test_main_rejects_the_library_only_mc_keys(tmp_path, capsys, key, value, command):
    # maturities come from `maturities`, no command runs the nested
    # estimator that the inner keys size, and vix_window is no field at
    # all: the nested estimator's window is the paper's 30 days
    code = run_cli(tmp_path, {"mc": {key: value}, "maturities": [0.2, 0.1]},
                   "--out", str(tmp_path / "out"), command)
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["vixsabr: invalid configuration:", f"  mc: unknown keys ['{key}']"]
    assert not (tmp_path / "out").exists()


def test_readme_config_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config format", 1)[1]
    block = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    expected = json.loads(json.dumps(RunConfig().to_dict()))
    # the block elides the middle strikes
    strikes, default_strikes = block.pop("strikes"), expected.pop("strikes")
    assert strikes == [default_strikes[0], "...", default_strikes[-1]]
    assert list(block) == list(expected)
    assert block == expected
    # the stated count of settable keys follows the dataclasses too
    assert f"The config has {_settable_keys(RunConfig().to_dict())} settable keys." \
        in " ".join(section.split())


# json.dumps writes nan and inf as the NaN and Infinity tokens; this
# marker string becomes the literal 1e999, which json reads as inf
_OVERFLOW = "@1e999@"
_JUNK = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | st.just(_OVERFLOW)
    | st.integers(-2**70, 2**70)
    # huge sizes, within a float's range and past it
    | st.integers(2**1000, 2**1023) | st.integers(2**1024, 10**320)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _near(value):
    """Plausible values for a field whose default is ``value``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return st.just(value)
    # an integer past what a float can square
    huge = st.integers(2**1000, 2**1023)
    if isinstance(value, int):
        # integers, and floats in integer fields
        return st.integers(-1, 2 * value + 2) | st.integers(0, 50).map(float) | huge
    return st.floats(-abs(value) - 1.0, 4.0 * abs(value) + 1.0) | huge


# Positive floats spread evenly in log10 over most of a float's range,
# where strikes and maturities overflow squares or underflow paths.
_LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


def _config_trees(noisy: bool):
    """Partial configs built from each section's fields and plausible
    values; ``noisy`` mixes in arbitrary JSON at every level, unknown
    keys and section fields at the top level."""
    junk = _JUNK if noisy else st.nothing()
    extra = {"bogus": _JUNK} if noisy else {}

    def section(default):
        if is_dataclass(default):
            return st.fixed_dictionaries({}, optional={
                **{f.name: _near(getattr(default, f.name)) | junk
                   for f in fields(default)
                   if noisy or f.metadata.get("settable", True)}, **extra})
        if isinstance(default, tuple):
            return st.lists(st.floats(0.0, 1.0) | _LOG_UNIFORM | junk, max_size=4)
        return _near(default)

    nesting = {"n_paths": _JUNK, "vol_cap": _JUNK} if noisy else {}
    return st.fixed_dictionaries({}, optional={
        **{f.name: section(f.default) | junk for f in fields(RunConfig)},
        **extra, **nesting})


_CONFIG_TREES = _config_trees(noisy=False) | _config_trees(noisy=True) | _JUNK


# Python's own messages for a failed conversion or comparison, which
# name no config field
_UNNAMED_MESSAGES = ("float() argument must be", "int() argument must be",
                     "not supported between instances", "must be real number",
                     "could not convert")


@given(tree=_CONFIG_TREES)
@example(tree={"model": {"omega": None}})
@settings(max_examples=300, deadline=None)
def test_config_fuzz_validates_or_raises_config_error(tmp_path_factory, tree):
    """Every JSON config either loads into a RunConfig that round-trips
    through to_dict, or raises ConfigError whose problems each name what
    is wrong; it never raises anything else.  Nothing is simulated, so
    huge sizes cost nothing."""
    text = json.dumps(tree).replace(json.dumps(_OVERFLOW), "1e999")
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text)
    args = argparse.Namespace(config=str(path), seed=None, out=None)
    try:
        config = _load_config(args)
    except ConfigError as err:
        assert [p for p in err.problems
                if any(m in p for m in _UNNAMED_MESSAGES)] == []
        return
    assert RunConfig.from_dict(config.to_dict()) == config
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


# Sizes a fuzzed command may run: small enough to simulate at once, or
# far past any address space, so refused before anything is allocated.
_RUNNABLE_SIZES = {
    "n_paths": st.integers(1, 64) | st.integers(2**62, 2**1023),
    "n_steps": st.integers(1, 4),
}


@st.composite
def _runnable_config_texts(draw):
    """JSON text as the config fuzz writes it, with every simulation
    size runnable.  Half the configs that are objects get one to four
    maturities, often repeated, so that ``converge`` runs on them too,
    and half get strikes from across the float range."""
    tree = draw(_CONFIG_TREES)
    if isinstance(tree, dict):
        section = tree.get("mc", {})
        if isinstance(section, dict):
            tree["mc"] = {**section, **{key: draw(value)
                                        for key, value in _RUNNABLE_SIZES.items()}}
        if draw(st.booleans()):
            tree["maturities"] = draw(st.lists(
                st.sampled_from([0.2, 0.1, 0.05]) | st.floats(0.0, 1.0)
                | _LOG_UNIFORM,
                min_size=1, max_size=4))
        if draw(st.booleans()):
            tree["strikes"] = draw(st.lists(_LOG_UNIFORM, min_size=1, max_size=4))
    return json.dumps(tree).replace(json.dumps(_OVERFLOW), "1e999")


def _log10_uniform(lo, hi):
    """10**e for e uniform on [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def _extreme_config_texts(draw):
    """Valid models at the edges of their ranges: omega down to 1e-160,
    beta up to 1 - 1e-9, rho just inside (-1, 0), v0 and strikes across
    the float range, vol_cap from below omega up to 1e150 and maturities
    from 1e-6 to 10, decreasing, at 300 paths and 3 steps."""
    omega = draw(_log10_uniform(-160.0, 3.0))
    return json.dumps({
        "model": {"beta": draw(st.just(0.0) | st.floats(0.0, 1.0 - 1e-9)),
                  "rho": draw(st.floats(-0.9999, -1e-4)),
                  "omega": omega, "v0": draw(_LOG_UNIFORM)},
        "caps": {"vol_cap": min(omega * draw(_log10_uniform(-4.0, 3.0)), 1e150),
                 "drift_cap": draw(_log10_uniform(-5.0, 5.0))},
        "mc": {"n_paths": 300, "n_steps": 3},
        "strikes": draw(st.lists(_LOG_UNIFORM, min_size=1, max_size=4)),
        "maturities": sorted(draw(st.lists(_log10_uniform(-6.0, 1.0), min_size=1,
                                           max_size=3, unique=True)), reverse=True),
    })


@given(text=_runnable_config_texts() | _extreme_config_texts(),
       strike=st.none() | _LOG_UNIFORM)
# strikes whose quotient with v0 underflows to 0, which 60 random
# examples rarely draw
@example(text=json.dumps({"model": {"v0": 1e8}, "strikes": [5e-324, 0.1],
                          "mc": {"n_paths": 64, "n_steps": 2}}), strike=None)
@example(text=json.dumps({"model": {"v0": 1e300}, "strikes": [1e-30, 0.1],
                          "mc": {"n_paths": 64, "n_steps": 2}}), strike=None)
# paths that overflow to inf, whose coefficients form 0 * inf
@example(text=json.dumps({"model": {"v0": 1e200}, "caps": {"drift_cap": 500.0},
                          "mc": {"n_paths": 300, "n_steps": 3},
                          "maturities": [4.0]}), strike=None)
# a scale exponent that overflows at a tiny omega
@example(text=json.dumps({"model": {"beta": 0.1, "rho": -0.2, "omega": 1e-150}}),
         strike=None)
# a rate integral whose diffusion underflows to 0
@example(text=json.dumps({"model": {"omega": 1e-200, "v0": 1e-210},
                          "strikes": [1.5e-210]}), strike=None)
# a rate function past the float range
@example(text=json.dumps({"model": {"omega": 1e-152}, "maturities": [0.2, 0.1],
                          "mc": {"n_paths": 2000, "n_steps": 5}}), strike=1e-300)
# an at-the-money overlay whose variance at v0 overflows
@example(text=json.dumps({"model": {"beta": 0.0, "rho": -0.5, "omega": 1.0, "v0": 1e155},
                          "caps": {"vol_cap": 10.0, "drift_cap": 1.0},
                          "mc": {"n_paths": 300, "n_steps": 3},
                          "strikes": [1e155], "maturities": [1.0]}), strike=None)
# a cap given as text, which float() would read as a number
@example(text=json.dumps({"caps": {"vol_cap": 2.0, "drift_cap": "1"}}), strike=None)
@settings(max_examples=60, deadline=None)
def test_main_fuzz_exits_with_a_contract_code(tmp_path_factory, text, strike):
    """Every command on every generated config exits 0, 2 or 3: a
    config error or a refused size is 2, a numerical failure 3 with one
    line on stderr, and nothing escapes as an uncaught exception or
    warns on the way."""
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz_main.json"
    path.write_text(text)
    converge = ["converge"] + ([] if strike is None else ["--strike", repr(strike)])
    for threads in ("1", "2"):
        for command in (["diagnose"], ["forwards"], ["smile"], converge):
            argv = ["--config", str(path), "--out", str(base / "fuzz_out"),
                    "--threads", threads, *command]
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = main(argv)
            assert code in (0, 2, 3), (argv, text)
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
                (argv, text, [str(w.message) for w in caught])
            if code == 3:
                assert len(stderr.getvalue().splitlines()) == 1, (argv, text)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_main_rejects_missing_config(tmp_path):
    assert main(["--config", str(tmp_path / "absent.json"), "diagnose"]) == 2


def test_main_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path), "diagnose"]) == 2


@pytest.mark.parametrize(
    "data", [None, b"{not json", b'{"rate": 0.0\xff}', b"[" * 100_000],
    ids=["missing", "malformed", "not_utf8", "nested_too_deeply"])
def test_main_reports_an_unreadable_config_as_invalid(tmp_path, capsys, data):
    path = tmp_path / "config.json"
    if data is not None:
        path.write_bytes(data)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"),
                 "diagnose"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "vixsabr: invalid configuration:"
    assert len(lines) == 2 and lines[1].startswith("  config: cannot read the file: ")
    assert not (tmp_path / "out").exists()


def test_main_reports_booleans_nested_past_the_recursion_limit(tmp_path, capsys):
    # json.load accepts this depth; the entry is refused as a whole, by
    # a check that does not descend into it
    depth = sys.getrecursionlimit() * 3 // 5
    data = {"strikes": [0.1, "[" * depth + "true" + "]" * depth]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data).replace('"[', "[").replace(']"', "]"))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "smile"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "vixsabr: invalid configuration:", "  strikes: expected a list of numbers"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, problem", [
    ("model", "omega", "omega must be a number"),
    ("mc", "n_paths", "n_paths must be an integer")])
def test_config_names_a_value_nested_too_deeply_to_show(section, key, problem):
    # printing a list nested past the recursion limit raises
    # RecursionError; the message describes it instead
    deep = []
    for _ in range(sys.getrecursionlimit()):
        deep = [deep]
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({section: {key: deep}})
    assert err.value.problems == [
        f"{section}: {problem}, got a list nested too deeply to show"]


def test_main_rejects_bad_config_values(tmp_path, capsys):
    code = run_cli(tmp_path, {"model": {"beta": 2.0}}, "diagnose")
    assert code == 2
    assert "model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ['{"rate": NaN}', '{"strikes": [Infinity]}', '{"model": {"v0": -Infinity}}'],
)
def test_main_rejects_non_finite_json(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path), "smile"]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "smile.csv").exists()


@pytest.mark.parametrize("command", ["diagnose", "smile"])
@pytest.mark.parametrize(
    "text",
    [
        '{"quadrature": {"large_x": 1e999}}',
        '{"model": {"v0": 1e999}}',
        '{"caps": {"vol_cap": 1e999}}',
        '{"mc": {"horizon": 1e999}}',
        '{"quadrature": {"abs_tol": 1e999}}',
        '{"caps": {"vol_cap": 1%s}}' % ("0" * 400),
        '{"mc": {"seed": 1%s}}' % ("0" * 5000),
    ],
    ids=["large_x", "v0", "vol_cap", "horizon", "abs_tol", "int_401_digits",
         "int_5001_digits"],
)
def test_main_rejects_overflowing_literals(tmp_path, capsys, text, command):
    # json.load reads 1e999 as inf without calling parse_constant; a
    # 400-digit integer overflows float(); 5000 digits exceed int()'s limit.
    # A literal is rejected as it is parsed, before any section is read,
    # so it is reported even under an unknown section such as quadrature.
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path), command]) == 2
    assert "is out of range; values must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv")) + list(tmp_path.glob("diagnose.json"))


@pytest.mark.parametrize(
    "config",
    [pytest.param({"mc": mc}, id=f"mc{i}") for i, mc in enumerate(
        [{"n_paths": 2.5}, {"n_steps": True}, {"seed": 1.5},
         {"n_steps": 1000.0}, {"seed": "30"}])],
)
def test_main_rejects_non_integer_sizes(tmp_path, capsys, config):
    code = run_cli(tmp_path, config, "--out", str(tmp_path), "forwards")
    assert code == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["strikes", "maturities"])
def test_main_rejects_non_finite_list_entries(tmp_path, capsys, section):
    # "Infinity" here is text, which float() would read as inf; text is
    # refused before any range check.  A number beyond the float range is
    # refused by test_config_reads_integers_beyond_float_range_as_infinities.
    code = run_cli(
        tmp_path, {section: [0.1, "Infinity"]}, "--out", str(tmp_path), "smile"
    )
    assert code == 2
    assert f"{section}: expected a list of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("section, field", [
    ("model", "beta"), ("model", "rho"), ("model", "omega"), ("model", "v0"),
    ("caps", "vol_cap"), ("caps", "drift_cap")])
@pytest.mark.parametrize("value", [None, [1.0], {}], ids=["null", "list", "object"])
def test_main_names_a_float_field_that_is_not_a_number(tmp_path, capsys, section,
                                                       field, value):
    # float() refuses these with a message that names no field
    out = tmp_path / "out"
    assert run_cli(tmp_path, {section: {field: value}}, "--out", str(out), "smile") == 2
    assert capsys.readouterr().err.splitlines() == [
        "vixsabr: invalid configuration:",
        f"  {section}: {field} must be a number, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("config, problem", [
    ({"strikes": ["0.1"]}, "strikes: expected a list of numbers"),
    ({"maturities": ["0.1"]}, "maturities: expected a list of numbers"),
    ({"model": {"beta": "0.5"}}, "model: beta must be a number, got '0.5'"),
    ({"model": {"rho": "0.5"}}, "model: rho must be a number, got '0.5'"),
], ids=["strikes", "maturities", "beta", "rho"])
def test_main_refuses_text_for_a_number(tmp_path, capsys, config, problem):
    # float() and numpy read "0.1" as a number; the config does not
    out = tmp_path / "out"
    assert run_cli(tmp_path, config, "--out", str(out), "smile") == 2
    assert capsys.readouterr().err.splitlines() == [
        "vixsabr: invalid configuration:", f"  {problem}"]
    assert not out.exists()


def test_config_shows_text_in_quotes():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"mc": {"seed": "7"}})
    assert err.value.problems == ["mc: seed must be an integer, got '7'"]


@pytest.mark.parametrize(
    "config, argv, message",
    [({"rate": 0.0}, [], "rate: unknown section"),
     ({"format": "csv"}, [], "format: unknown section"),
     ({"output_dir": "x"}, [], "output_dir: unknown section"),
     # argparse reads csv as the command and reports the usage error
     ({}, ["--format", "csv"], "vixsabr: error: argument command")],
    ids=["rate", "format", "output_dir", "--format"],
)
def test_main_rejects_the_removed_rate_and_format(tmp_path, capsys, config,
                                                  argv, message):
    # prices are undiscounted and tables are CSV; neither can be chosen
    out = tmp_path / "out"
    try:
        code = run_cli(tmp_path, config, *argv, "--out", str(out), "forwards")
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, written", [
    (["diagnose"], "diagnose.json"), (["forwards"], "forward_table.csv"),
    (["smile"], "smile.csv"), (["converge", "--strike", "0.15"], "converge.csv")],
    ids=["diagnose", "forwards", "smile", "converge"])
def test_out_alone_says_where_every_command_writes(tmp_path, capsys, monkeypatch,
                                                   argv, written):
    # the config holds what is computed: an output_dir section is refused,
    # and without --out every command writes into the working directory
    monkeypatch.chdir(tmp_path)
    config = {"mc": {"n_paths": 200, "n_steps": 2, "seed": 1},
              "maturities": [0.2, 0.1] if argv[0] == "converge" else [0.1]}
    assert run_cli(tmp_path, {**config, "output_dir": "x"}, *argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "vixsabr: invalid configuration:", "  output_dir: unknown section"]
    assert os.listdir(tmp_path) == ["config.json"]
    assert run_cli(tmp_path, config, *argv) == 0
    assert capsys.readouterr().out == f"./{written}\n"
    assert sorted(os.listdir(tmp_path)) == sorted(["config.json", written])


@pytest.mark.parametrize("command", ["diagnose", "forwards", "smile", "converge"])
@pytest.mark.parametrize(
    "quadrature",
    [{"large_x": 0.01}, {"large_x": 0.1}, {"max_subdivisions": 2.5}],
    ids=["large_x_0.01", "large_x_v0", "max_subdivisions_2.5"],
)
def test_main_rejects_bad_quadrature_on_every_command(tmp_path, capsys, quadrature,
                                                      command):
    # the quadrature tolerances are constants; a section that sets them
    # is unknown on every command
    code = run_cli(tmp_path, {"quadrature": quadrature, "maturities": [0.2, 0.1]},
                   "--out", str(tmp_path / "out"), command)
    assert code == 2
    assert "quadrature: unknown section" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_diagnose_json_does_not_depend_on_v0(tmp_path):
    # the Feller base point is fixed at 1e-3, so diagnose reads only
    # (beta, rho, omega), and no v0 is refused
    reports = set()
    for i, v0 in enumerate([5e-324, 1e-300, 0.1, 1e8, float(2**1000)]):
        out = tmp_path / str(i)
        assert run_cli(tmp_path, {"model": {"v0": v0}}, "--out", str(out),
                       "diagnose") == 0
        reports.add((out / "diagnose.json").read_bytes())
    assert len(reports) == 1


@pytest.mark.parametrize("v0", [99_999_999.99, 99_999_999.0, 5e7])
def test_diagnose_v0_just_below_the_bound_runs(tmp_path, v0):
    # v0 once had to stay below 1e8 so that the Feller origin cutoff
    # 0.01*v0 sat under the tail point 1e6; with the base point fixed at
    # 1e-3 these values run like any other
    code = run_cli(tmp_path, {"model": {"v0": v0}}, "--out", str(tmp_path), "diagnose")
    assert code == 0


@pytest.mark.parametrize("v0", [5e-324, 1e8, 1e300])
def test_config_accepts_every_positive_v0(v0):
    assert RunConfig.from_dict({"model": {"v0": v0}}).model.v0 == v0


@pytest.mark.parametrize("command", ["diagnose", "forwards", "smile", "converge"])
@pytest.mark.parametrize("v0", [5e-324, 1e8, float(2**1000)])
def test_every_command_runs_or_fails_numerically_at_extreme_v0(tmp_path, capsys,
                                                               command, v0):
    config = {"model": {"v0": v0}, "maturities": [0.1, 0.05],
              "mc": {"n_paths": 64, "n_steps": 4}}
    if command in ("forwards", "smile"):
        config["maturities"] = [0.1]
    code = run_cli(tmp_path, config, "--out", str(tmp_path / "out"), command)
    assert code in (0, 3)
    err = capsys.readouterr().err.splitlines()
    assert err == [] if code == 0 else len(err) == 1


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_main_rejects_out_of_range_seed_override(tmp_path, capsys, seed):
    assert main(["--seed", seed, "--out", str(tmp_path), "forwards"]) == 2
    assert "--seed: seed must fit in 64 bits" in capsys.readouterr().err


def test_diagnose_near_beta_one_runs_the_scaled_feller_pass(tmp_path, capsys):
    # exp(2 * scale_exponent) overflows below the truncation point 1e6;
    # the Feller pass never evaluates it unscaled
    model = {"beta": 0.99, "rho": -0.5, "omega": 1.0, "v0": 0.1}
    code = run_cli(tmp_path, {"model": model}, "--out", str(tmp_path), "diagnose")
    assert code == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "diagnose.json").read_text())
    assert report["feller_tail_value"] == pytest.approx(24459.83, rel=1e-6)
    assert report["explosion_flag"] is True


@pytest.mark.parametrize(
    "omega, message",
    [(1e-140, "scale-function tail fit gives a limit of 0.0"),
     (1e-150, "closed-form exponent is not finite at omega = 1e-150"),
     (1e-300, "closed-form exponent is not finite at omega = 1e-300")],
    ids=["limit_underflows", "exponent_overflows", "omega_squared_underflows"])
def test_diagnose_tiny_omega_exits_3(tmp_path, capsys, omega, message):
    code = run_cli(tmp_path, {"model": {"omega": omega}},
                   "--out", str(tmp_path / "out"), "diagnose")
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    assert not (tmp_path / "out").exists()


def test_diagnose_tail_fit_outside_the_tail_regime_exits_3(tmp_path, capsys):
    config = {"model": {"beta": 0.9999998, "rho": -0.4, "omega": 5.5},
              "caps": {"vol_cap": 6.0}}
    code = run_cli(tmp_path, config, "--out", str(tmp_path), "diagnose")
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "vixsabr: numerical failure: scale-function tail fit residual 3.62e-01 "
        "exceeds 1e-06; tail regime not reached"]
    assert not (tmp_path / "diagnose.json").exists()


@pytest.mark.parametrize(
    "config, message",
    [({"model": {"beta": 0.99, "rho": -0.99, "omega": 100.0, "v0": 1.0},
       "caps": {"vol_cap": 200.0}},
      "envelope constant overflows")],
    ids=["envelope_constant"],
)
def test_diagnose_overflow_exits_3(tmp_path, capsys, config, message):
    # math.exp raises OverflowError, which must surface as a numerical
    # failure rather than a traceback
    code = run_cli(tmp_path, config, "--out", str(tmp_path), "diagnose")
    assert code == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "diagnose.json").exists()


@pytest.mark.parametrize(
    "config",
    [{"model": {"beta": 0.0, "rho": -0.5, "omega": 5.0, "v0": 1.0},
      "caps": {"vol_cap": 10.0}},
     {"model": {"beta": 0.95, "rho": -0.9, "omega": 0.01, "v0": 0.1}},
     {"model": {"beta": 0.92, "rho": -0.993, "omega": 0.226, "v0": 31.57}}],
    ids=["explosion", "martingale_overflow", "martingale"],
)
def test_diagnose_verdicts_hold_where_decade_quadrature_misjudged(tmp_path, config):
    # decade increments of quadrature on [1e4, 1e6] read these models as
    # not exploding, as overflowing and as not a martingale; the tail
    # powers make both verdicts true
    code = run_cli(tmp_path, config, "--out", str(tmp_path), "diagnose")
    assert code == 0
    report = json.loads((tmp_path / "diagnose.json").read_text())
    assert report["explosion_flag"] is True
    assert report["martingale"] is True


def test_smile_subnormal_strike_prints_one_line(tmp_path, capsys):
    # forward / 5e-324 overflows inside the implied-vol inversion; numpy
    # warns through the warnings module, which pytest would otherwise
    # keep off stderr, so the test records the warnings itself
    config = {"strikes": [5e-324, 0.1], "mc": {"n_paths": 2000, "n_steps": 5}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(tmp_path, config, "--out", str(tmp_path / "out"), "smile")
    assert code == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    header, rows = read_csv(tmp_path / "out" / "smile.csv")
    assert float(rows[0][header.index("strike")]) == 5e-324
    assert math.isfinite(float(rows[0][header.index("asymptotic_iv")]))


# v0 below the reach of an arctanh form of the rate integral, and
# strikes whose quotient with v0 or the forward leaves the float range
@pytest.mark.parametrize(
    "v0, strikes",
    [(1e-9, None), (1e-300, None), (5e-324, None),
     (1e8, [5e-324, 0.1]), (1e300, [1e-30, 0.1]), (1e-9, [1e300, 0.1])],
    ids=["v0_1e-9", "v0_1e-300", "v0_subnormal", "v0_1e8_strike_subnormal",
         "v0_1e300_strike_1e-30", "v0_1e-9_strike_1e300"])
@pytest.mark.parametrize("command", ["smile", "converge"])
def test_overlay_and_rate_are_finite_at_any_v0_and_strike(tmp_path, capsys, command,
                                                          v0, strikes):
    config = {"model": {"v0": v0}, "mc": {"n_paths": 2000, "n_steps": 5}}
    argv = ["smile"]
    if strikes is not None:
        config["strikes"] = strikes
    if command == "converge":
        config["maturities"] = [0.2, 0.1]
        argv = ["converge", "--strike", str(strikes[0] if strikes else 0.15)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(tmp_path, config, "--out", str(tmp_path / "out"), *argv)
    assert code == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    header, rows = read_csv(tmp_path / "out" / f"{command}.csv")
    columns = (["asymptotic_iv", "log_strike"] if command == "smile"
               else ["rate_function"])
    for column in columns:
        values = [float(row[header.index(column)]) for row in rows]
        assert all(math.isfinite(v) for v in values), (column, values)


@pytest.mark.parametrize(
    "config, argv, message",
    [({"model": {"v0": 1e7}, "caps": {"drift_cap": 600.0},
       "strikes": [0.1, 1e266, 1e268], "maturities": [1.0]},
      ["smile"], "the price or its standard error is not finite at strikes "
      "[1e+266, 1e+268]"),
     ({"model": {"v0": 9e7}, "caps": {"drift_cap": 700.0}, "maturities": [1.0]},
      ["forwards"], "the sample mean inf or its standard error nan is not finite"),
     ({"model": {"v0": 9e7}, "caps": {"drift_cap": 700.0},
       "maturities": [1.0, 0.5]},
      ["converge", "--strike", "1e9"],
      "the sample mean inf or its standard error nan is not finite")],
    ids=["smile_square_sum", "forwards", "converge"])
def test_overflowing_estimates_exit_3_with_one_line(tmp_path, capsys, config,
                                                    argv, message):
    # the squares of the paths, or the paths themselves, overflow; the
    # estimate is refused before anything is written, without warnings
    config = {**config, "mc": {"n_paths": 2000, "n_steps": 5}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(tmp_path, config, "--out", str(tmp_path / "out"), *argv)
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        f"vixsabr: numerical failure: {message}"]
    assert not (tmp_path / "out").exists()


def test_diagnose_near_beta_one_fails_within_the_segment_limit(tmp_path, capsys):
    # quad cannot resolve this scale integrand; 1,000 subdivisions per
    # decade segment end the attempt within seconds
    config = {"model": {"beta": 0.9999999, "rho": -0.999999, "omega": 0.001,
                        "v0": 0.1556}, "caps": {"vol_cap": 1.001}}
    code = run_cli(tmp_path, config, "--out", str(tmp_path / "out"), "diagnose")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("vixsabr: numerical failure: quadrature failed on [")
    assert err.endswith("The maximum number of subdivisions (1000) has been achieved.\n")
    assert not (tmp_path / "out").exists()


def test_diagnose_quadrature_failure_prints_one_line(tmp_path, capsys, monkeypatch):
    # quad explains a failure over several lines; the error message keeps
    # the first
    def failing(*args, **kwargs):
        return 0.0, 1.0, {}, ("The maximum number of subdivisions (50) has been "
                              "achieved.\n  If increasing the limit yields no "
                              "improvement it is advised to analyze \n  the integrand")

    monkeypatch.setattr(scale.integrate, "quad", failing)
    code = run_cli(tmp_path, {}, "--out", str(tmp_path), "diagnose")
    assert code == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [err.rstrip("\n")]
    assert err.startswith("vixsabr: numerical failure: quadrature failed on [")
    assert err.endswith("]: The maximum number of subdivisions (50) has been achieved.\n")
    assert not (tmp_path / "diagnose.json").exists()


def test_diagnose_quadrature_failure_prints_a_whole_sentence(tmp_path, capsys):
    # QAGS breaks its roundoff message mid-sentence at the first line end;
    # the error message keeps the whole first sentence
    config = {"model": {"beta": 0.9999997147132006, "rho": -0.5122499358129284,
                        "omega": 0.02833824799685857}}
    assert run_cli(tmp_path, config, "--out", str(tmp_path), "diagnose") == 3
    assert capsys.readouterr().err == (
        "vixsabr: numerical failure: quadrature failed on [0.01, 0.1]: The "
        "occurrence of roundoff error is detected, which prevents the requested "
        "tolerance from being achieved.\n")
    assert not (tmp_path / "diagnose.json").exists()


@pytest.mark.parametrize(
    "config, problem",
    [
        ({"mc": {"n_paths": True}}, "mc: n_paths must be an integer, got True"),
        ({"strikes": [True]}, "strikes: expected a list of numbers"),
        ({"strikes": [0.1, False]}, "strikes: expected a list of numbers"),
        ({"maturities": [True]}, "maturities: expected a list of numbers"),
        ({"model": {"beta": False}}, "model: beta must be a number, got False"),
        ({"caps": {"drift_cap": True}}, "caps: drift_cap must be a number, got True"),
        ({"mc": {"vix_window": True}}, "mc: unknown keys ['vix_window']"),
        ({"mc": {"horizon": True}}, "mc: unknown keys ['horizon']"),
    ],
    ids=["mc.n_paths", "strikes[0]", "strikes[1]", "maturities[0]", "model.beta",
         "caps.drift_cap", "mc.vix_window", "mc.horizon"],
)
def test_main_rejects_json_booleans(tmp_path, capsys, config, problem):
    # Python reads true and false as 1 and 0; model refuses them as numbers
    code = run_cli(tmp_path, config, "--out", str(tmp_path), "smile")
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "vixsabr: invalid configuration:", f"  {problem}"]
    assert not (tmp_path / "smile.csv").exists()


@pytest.mark.parametrize("command", ["forwards", "smile", "converge"])
def test_main_maps_a_refused_allocation_to_exit_two(tmp_path, capsys, command):
    # the first array is refused at once, before anything is simulated:
    # for smile its 8e15 bytes of terminal values, for forwards and
    # converge their table of per-block estimates, 24 bytes per lane and
    # block of 16384 paths (about 1.5e12 bytes per lane)
    config = {"mc": {"n_paths": 10**15, "n_steps": 1},
              "maturities": [0.2, 0.1] if command == "converge" else [0.1]}
    code = run_cli(tmp_path, config, "--out", str(tmp_path), command)
    assert code == 2
    err = capsys.readouterr().err
    assert "needs more memory than is available" in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("n_paths", [2**62, 10**30], ids=["2**62", "10**30"])
@pytest.mark.parametrize("command", ["forwards", "smile", "converge"])
def test_main_refuses_arrays_past_the_address_space(tmp_path, capsys, command,
                                                    n_paths):
    # numpy itself raises ValueError for these sizes; they must be
    # refused as a shortage of memory before any allocation
    config = {"mc": {"n_paths": n_paths, "n_steps": 1},
              "maturities": [0.2, 0.1] if command == "converge" else [0.1]}
    code = run_cli(tmp_path, config, "--out", str(tmp_path), command)
    assert code == 2
    err = capsys.readouterr().err
    assert "needs more memory than is available" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


def test_main_maps_rate_domain_error_to_exit_three(tmp_path, capsys, monkeypatch):
    def failing(*args):
        raise scale.NumericalError("rate function is not finite")

    monkeypatch.setattr("vixsabr.pricing.rate_function", failing)
    code = run_cli(
        tmp_path,
        {"maturities": [0.2, 0.1], "mc": FAST_MC}, "--out", str(tmp_path), "converge",
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_diagnose_requires_negative_correlation(tmp_path, capsys):
    code = run_cli(
        tmp_path, {"model": {"rho": 0.5}}, "--out", str(tmp_path), "diagnose"
    )
    assert code == 2
    assert "rho" in capsys.readouterr().err


def test_smile_requires_single_maturity(tmp_path, capsys):
    code = run_cli(
        tmp_path,
        {"maturities": [0.1, 0.2]}, "--out", str(tmp_path), "smile",
    )
    assert code == 2
    assert "one maturity" in capsys.readouterr().err


def test_converge_requires_two_maturities(tmp_path):
    code = run_cli(
        tmp_path, {"maturities": [0.1]}, "--out", str(tmp_path), "converge"
    )
    assert code == 2


@pytest.mark.parametrize("maturities", [[0.1, 0.1], [0.2, 0.1, 0.2]])
def test_converge_rejects_repeated_maturities(tmp_path, capsys, maturities):
    code = run_cli(tmp_path, {"maturities": maturities}, "--out", str(tmp_path),
                   "converge")
    assert code == 2
    assert "all distinct" in capsys.readouterr().err
    assert not (tmp_path / "converge.csv").exists()


@pytest.mark.parametrize("strike", ["0", "-0.1", "nan", "inf"])
def test_converge_rejects_a_strike_that_is_not_positive_and_finite(tmp_path, capsys,
                                                                   strike):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "converge", "--strike", strike])
    assert exc.value.code == 2
    assert "--strike must be finite and > 0" in capsys.readouterr().err


def test_converge_rejects_at_the_money_strike(tmp_path, capsys):
    code = run_cli(
        tmp_path,
        {"maturities": [0.2, 0.1], "mc": FAST_MC},
        "--out", str(tmp_path),
        "converge", "--strike", "0.1",
    )
    assert code == 2
    assert "strike" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, command, where",
    [
        ({"model": {"rho": 0.5}}, ["diagnose"], "model.rho: "),
        ({"maturities": [0.1, 0.2]}, ["smile"], "maturities: "),
        ({"maturities": [0.1, 0.2]}, ["forwards"], "maturities: "),
        ({"maturities": [0.1]}, ["converge"], "maturities: "),
        ({"maturities": [0.2, 0.1, 0.2]}, ["converge"], "maturities: "),
        ({"maturities": [0.2, 0.1]}, ["converge", "--strike", "0.1"], "--strike: "),
    ],
    ids=["diagnose_rho", "smile_two_maturities", "forwards_two_maturities",
         "converge_one_maturity",
         "converge_repeated_maturities", "converge_at_the_money"],
)
def test_command_preconditions_are_reported_by_main(tmp_path, capsys, config,
                                                    command, where):
    code = run_cli(tmp_path, {**config, "mc": FAST_MC},
                   "--out", str(tmp_path / "out"), *command)
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "vixsabr: invalid configuration:"
    assert len(lines) == 2 and lines[1].startswith(f"  {where}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["diagnose", "forwards", "smile", "converge"])
@pytest.mark.parametrize("under", [False, True], ids=["out_is_a_file",
                                                      "out_under_a_file"])
def test_main_maps_an_unwritable_output_to_exit_two(tmp_path, capsys, command,
                                                    under):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    config = {"mc": FAST_MC,
              "maturities": [0.2, 0.1] if command == "converge" else [0.1]}
    code = run_cli(tmp_path, config, "--out", str(out), command)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("vixsabr: cannot write output: ")
    assert len(err.splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["blocker", "config.json"]
    assert blocker.read_text() == ""


def test_main_leaves_no_temporary_file_when_the_final_rename_fails(
        tmp_path, capsys, monkeypatch):
    def failing(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")

    monkeypatch.setattr(os, "replace", failing)
    out = tmp_path / "out"
    code = run_cli(tmp_path, {}, "--out", str(out), "diagnose")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("vixsabr: cannot write output: cannot rename ")
    assert len(err.splitlines()) == 1
    assert os.listdir(out) == []


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "0", "diagnose"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "vixsabr: error: --threads must be >= 1, got 0")


# ---------------------------------------------------------------------------
# diagnose command
# ---------------------------------------------------------------------------

def test_diagnose_writes_report(tmp_path, capsys):
    code = run_cli(tmp_path, {}, "--out", str(tmp_path), "diagnose")
    assert code == 0
    out_path = tmp_path / "diagnose.json"
    assert str(out_path) in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["schema_version"] == 1
    assert payload["explosion_flag"] is True
    assert payload["boundary_class"] == "exit"
    assert payload["martingale"] is True
    assert math.isclose(payload["scale_limit"], 1.561403804710474, rel_tol=1e-9)


def test_diagnose_reports_regular_boundary(tmp_path):
    code = run_cli(
        tmp_path, {"model": {"beta": 0.3}}, "--out", str(tmp_path), "diagnose"
    )
    assert code == 0
    payload = json.loads((tmp_path / "diagnose.json").read_text())
    assert payload["boundary_class"] == "regular"


# ---------------------------------------------------------------------------
# forwards command
# ---------------------------------------------------------------------------

def test_forwards_table_content(tmp_path):
    code = run_cli(
        tmp_path, {"mc": FAST_MC}, "--out", str(tmp_path), "forwards"
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "forward_table.csv")
    assert header == ["rho", "binding_level", "forward", "forward_se"]
    assert [float(r[0]) for r in rows] == [-0.7, 0.0, 0.7]
    levels = [float(r[1]) for r in rows]
    assert levels[0] == pytest.approx(2.336308338453881, rel=1e-12)
    assert levels[1] == pytest.approx(3.4641016151377544, rel=1e-12)
    assert levels[2] == pytest.approx(5.136308338453881, rel=1e-12)
    for row in rows:
        forward, se = float(row[2]), float(row[3])
        assert abs(forward - 0.1) < 0.005
        assert 0.0 < se < 1e-3


def test_forwards_deterministic_across_threads(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out, threads in ((out1, "1"), (out2, "4")):
        code = run_cli(
            tmp_path,
            {"mc": FAST_MC},
            "--out", str(out),
            "--threads", threads, "forwards",
        )
        assert code == 0
    a = (out1 / "forward_table.csv").read_bytes()
    b = (out2 / "forward_table.csv").read_bytes()
    assert a == b


def test_forwards_seed_override_shifts_within_noise(tmp_path):
    outs = {}
    for seed in ("12345", "999"):
        out = tmp_path / seed
        code = run_cli(
            tmp_path,
            {"mc": FAST_MC},
            "--out", str(out),
            "--seed", seed, "forwards",
        )
        assert code == 0
        _, rows = read_csv(out / "forward_table.csv")
        outs[seed] = [(float(r[2]), float(r[3])) for r in rows]
    for (fa, sa), (fb, sb) in zip(outs["12345"], outs["999"]):
        assert (fa, sa) != (fb, sb)
        assert abs(fa - fb) <= 4.0 * math.hypot(sa, sb)


def test_forwards_takes_its_maturity_from_maturities(tmp_path):
    mc = {"n_paths": 20_000, "n_steps": 10, "seed": 12345}
    code = run_cli(tmp_path, {"mc": mc, "maturities": [0.05]},
                   "--out", str(tmp_path), "forwards")
    assert code == 0
    _, rows = read_csv(tmp_path / "forward_table.csv")
    config = RunConfig.from_dict({"mc": mc})
    models = [replace(config.model, rho=rho) for rho in (-0.7, 0.0, 0.7)]
    lanes = [(model, CapSpec.from_params(model, 2.0, 1.0), 0.05) for model in models]
    pooled = estimate_capped_lanes(lanes, estimate_forward, config.mc)
    whole = map(estimate_forward, simulate_capped_lanes(lanes, config.mc))
    for row, forward, reference in zip(rows, pooled, whole, strict=True):
        assert (float(row[2]), float(row[3])) == (forward.value, forward.std_error)
        # pooled per block, they agree with the whole lanes' estimates up
        # to summation order
        assert float(row[2]) == pytest.approx(reference.value, rel=1e-15, abs=0.0)
        assert float(row[3]) == pytest.approx(reference.std_error, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("command", ["forwards", "smile"])
def test_repeated_main_calls_leave_nothing_to_the_cyclic_collector(tmp_path, command):
    # The parser is built once, at import; a parser per call left 2940
    # unreachable objects over these 20 calls.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mc": {"n_paths": 1000}}))
    argv = ["--config", str(config), "--out", str(tmp_path), command]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            assert main(argv) == 0
        assert gc.collect() < 20
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# smile command
# ---------------------------------------------------------------------------

def test_smile_reports_a_strike_whose_square_overflows(tmp_path):
    # K^2 overflows above sqrt(float max) ~ 1.34e154; no path pays such
    # a strike, so it reads "below" and the other rows keep their bytes
    mc = {"n_paths": 2000, "n_steps": 5}
    for name, strikes in (("both", [0.1, 1e200]), ("near", [0.1])):
        code = run_cli(tmp_path, {"strikes": strikes, "mc": mc},
                       "--out", str(tmp_path / name), "smile")
        assert code == 0
    _, both = read_csv(tmp_path / "both" / "smile.csv")
    _, near = read_csv(tmp_path / "near" / "smile.csv")
    assert both[0] == near[0]
    assert both[1][2:5] == ["0", "0", "nan"] and both[1][8] == "below"


def test_smile_reports_an_underflowed_forward_as_numerical(tmp_path, capsys):
    # over a long maturity every path underflows to 0
    code = run_cli(tmp_path, {"maturities": [1e5], "mc": {"n_paths": 2000, "n_steps": 5}},
                   "--out", str(tmp_path / "out"), "smile")
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "vixsabr: numerical failure: the estimated forward at maturity 100000.0 "
        "is 0.0, not finite and > 0"]
    assert not (tmp_path / "out").exists()


def test_smile_table_content(tmp_path):
    strikes = [0.07, 0.08, 0.09, 0.1, 0.11, 0.12, 0.13, 0.14, 0.15]
    code = run_cli(
        tmp_path,
        {
            "mc": {"n_paths": 20_000, "n_steps": 20, "seed": 12345},
            "strikes": strikes,
            "maturities": [0.1],
        },
        "--out", str(tmp_path),
        "smile",
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "smile.csv")
    assert header == [
        "strike", "log_strike", "price", "price_se", "implied_vol",
        "iv_lo", "iv_hi", "asymptotic_iv", "status",
    ]
    assert len(rows) == len(strikes)
    log_strikes = [float(r[1]) for r in rows]
    assert log_strikes == sorted(log_strikes)
    asym = [float(r[7]) for r in rows]
    ks = [float(r[0]) for r in rows]
    # negative correlation: the asymptotic smile rises to the right of ATM
    right = [a for k, a in zip(ks, asym) if k > 0.1]
    assert all(right[i] < right[i + 1] for i in range(len(right) - 1))
    for row in rows:
        assert row[8] == "ok"
        iv, lo, hi = float(row[4]), float(row[5]), float(row[6])
        assert lo < iv < hi
        assert float(row[3]) > 0.0


def test_smile_marks_uninvertible_strikes(tmp_path):
    code = run_cli(
        tmp_path,
        {
            "mc": {"n_paths": 1_000, "n_steps": 5, "seed": 1},
            "strikes": [0.1, 5.0],
            "maturities": [0.1],
        },
        "--out", str(tmp_path),
        "smile",
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "smile.csv")
    far = rows[-1]
    assert far[8] == "below"
    assert far[4] == "nan"


# ---------------------------------------------------------------------------
# converge command
# ---------------------------------------------------------------------------

def test_converge_table_content(tmp_path):
    code = run_cli(
        tmp_path,
        {
            "mc": {"n_paths": 20_000, "n_steps": 20, "seed": 12345},
            "maturities": [0.1, 0.2],
        },
        "--out", str(tmp_path),
        "converge", "--strike", "0.15",
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "converge.csv")
    assert header == [
        "maturity", "strike", "minus_t_log_price", "rate_function", "gap",
        "statistically_zero",
    ]
    maturities = [float(r[0]) for r in rows]
    assert maturities == [0.2, 0.1]
    config = RunConfig()
    target = rate_function(0.15, config.model, config.caps)
    for row in rows:
        assert float(row[3]) == pytest.approx(target, rel=1e-15)
        assert float(row[4]) == pytest.approx(
            abs(float(row[2]) - float(row[3])), rel=1e-12
        )
        assert row[5] == "false"
    assert float(rows[1][4]) < float(rows[0][4])


# ---------------------------------------------------------------------------
# output hygiene
# ---------------------------------------------------------------------------

def test_no_temp_files_left_behind(tmp_path):
    run_cli(tmp_path, {}, "--out", str(tmp_path), "diagnose")
    run_cli(tmp_path, {"mc": FAST_MC}, "--out", str(tmp_path), "forwards")
    leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
    assert leftovers == []


def test_out_override_creates_directory(tmp_path):
    target = tmp_path / "nested" / "dir"
    code = run_cli(tmp_path, {}, "--out", str(target), "diagnose")
    assert code == 0
    assert (target / "diagnose.json").exists()


# SHA-256 of every output at a small config, recorded before path blocks
# drew their normals one time row at a time.  A change to the random
# streams, the step arithmetic, the pricing or the number formatting
# shows up here.  smile.csv was recorded again, at 1 and 2 threads, when
# the smile started pricing all strikes from tail sums and inverting
# them together: its prices, SEs and vols moved in the last digits.
# diagnose.json was recorded again when the Feller test function became
# one cumulative Gauss-Legendre pass: feller_tail_value moved from
# 3107.9327831543415 to 3107.932783154341 (relative 1.5e-16).
# smile.csv and converge.csv were recorded again when the rate integral
# became the log1p of its antiderivative's ratio: asymptotic_iv moved by
# at most 8.4e-16 relative, rate_function by 9.2e-16 and gap by 4.8e-16.
# smile.csv was recorded again when the inversion started every strike on
# the fixed bracket [0, 1e6]: implied_vol moved by at most 1.9e-15
# relative, iv_lo by 2.6e-15 and iv_hi by 2.3e-15, and no status changed.
# forward_table.csv was recorded again when forwards started pooling
# per-block estimates: forward moved by at most 1.4e-16 relative and
# forward_se by 2.4e-16.  converge.csv kept its bytes at this config.
# smile.csv was recorded again when the inversion became 70 bisections
# of [0, 1e6]: implied_vol moved by at most 1.7e-15 relative, iv_lo by
# 1.7e-15 and iv_hi by 1.5e-15; price, price_se, asymptotic_iv and
# status kept their bytes.
# smile.csv was recorded again when the Black formula's normal
# distribution function became 0.5 * erfc(-x / sqrt(2)) in place of
# scipy's ndtr: implied_vol moved by at most 1.7e-15 relative, iv_lo by
# 8.8e-16 and iv_hi by 1.7e-15; every other column kept its bytes.
# smile.csv was recorded again when the smile started summing its tails
# block by block, from cumulative sums of each sorted block: price moved
# by at most 9.8e-15 relative, price_se by 6.0e-14, implied_vol by
# 9.0e-15, iv_lo by 9.1e-15 and iv_hi by 7.2e-15; strike, log_strike,
# asymptotic_iv and status kept their bytes.
# smile.csv was recorded again when each strike's price became an
# McEstimate whose standard error is sqrt(M2 / (n - 1)) / sqrt(n), as
# numpy's std takes it, in place of the smile's own sqrt(M2 / (n - 1) / n):
# price_se moved by at most 2.2e-16 relative; every other column kept
# its bytes.
PINNED_DIGESTS = {
    "forward_table.csv":
        "a893a796fbd8adf2cf88be182f4b4c6c6bb80af013b03805f138c30836d2cf85",
    "smile.csv":
        "a83489b63bfa0bf3140149cfb4de8d972cf6c1e4c98d1ba5e400d3731c2b2001",
    "converge.csv":
        "f4ff28902bb6bdfa1e0eb3853d66ebc4f5a71a01ac469f44fd9a30a14a492aa9",
    "diagnose.json":
        "08ae0387dc2781a9d366be995e3e4fa9b6a9af30a3f828bed2b18a44badbcc1b",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_outputs_pinned_byte_for_byte(tmp_path, threads):
    mc = {"n_paths": 20_000, "n_steps": 20}
    commands = [
        ({"mc": mc}, ["diagnose"]),
        ({"mc": mc}, ["forwards"]),
        ({"mc": mc}, ["smile"]),
        ({"mc": mc, "maturities": [0.2, 0.1, 0.05, 0.025]},
         ["converge", "--strike", "0.15"]),
    ]
    for config, command in commands:
        code = run_cli(tmp_path, config, "--out", str(tmp_path / "out"),
                       "--threads", threads, *command)
        assert code == 0
    for name, digest in PINNED_DIGESTS.items():
        data = (tmp_path / "out" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
