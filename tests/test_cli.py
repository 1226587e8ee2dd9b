import hashlib
import json
import math
import os

import pytest

from vixsabr import RunConfig, SabrParams, main, rate_function
from vixsabr.cli import ConfigError


def run_cli(tmp_path, config_data, *argv):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_data))
    return main(["--config", str(config_path), *argv])


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


FAST_MC = {"n_paths": 20_000, "n_steps": 10, "horizon": 0.1, "seed": 12345}


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
        "format": "xml",
        "mystery": {},
    }
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(bad)
    problems = err.value.problems
    assert len(problems) >= 4
    joined = "\n".join(problems)
    assert "model:" in joined
    assert "mc: unknown keys ['bogus']" in joined
    assert "format:" in joined
    assert "mystery: unknown section" in joined


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


def test_config_caps_accessor():
    config = RunConfig.from_dict({"caps": {"vol_cap": 3.0, "drift_cap": 0.5}})
    assert config.caps.vol_cap == 3.0
    assert config.caps.drift_cap == 0.5
    assert config.caps.binding_level > 0.0


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_main_rejects_missing_config(tmp_path):
    assert main(["--config", str(tmp_path / "absent.json"), "diagnose"]) == 2


def test_main_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path), "diagnose"]) == 2


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


@pytest.mark.parametrize(
    "mc",
    [{"n_paths": 2.5}, {"n_steps": True}, {"seed": 1.5},
     {"inner_paths": 1000.0}, {"inner_steps": "30"}],
)
def test_main_rejects_non_integer_sizes(tmp_path, capsys, mc):
    code = run_cli(tmp_path, {"mc": mc, "output_dir": str(tmp_path)}, "forwards")
    assert code == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["strikes", "maturities"])
def test_main_rejects_non_finite_list_entries(tmp_path, capsys, section):
    code = run_cli(
        tmp_path, {section: [0.1, "Infinity"], "output_dir": str(tmp_path)}, "smile"
    )
    assert code == 2
    assert f"{section}: entries must be finite" in capsys.readouterr().err


def test_main_maps_rate_domain_error_to_exit_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("vixsabr.asymptotics._speed_ratio", lambda v, p: 1.0)
    code = run_cli(
        tmp_path,
        {"maturities": [0.2, 0.1], "mc": FAST_MC, "output_dir": str(tmp_path)},
        "converge",
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_diagnose_requires_negative_correlation(tmp_path, capsys):
    code = run_cli(
        tmp_path, {"model": {"rho": 0.5}, "output_dir": str(tmp_path)}, "diagnose"
    )
    assert code == 2
    assert "rho" in capsys.readouterr().err


def test_smile_requires_single_maturity(tmp_path, capsys):
    code = run_cli(
        tmp_path,
        {"maturities": [0.1, 0.2], "output_dir": str(tmp_path)},
        "smile",
    )
    assert code == 2
    assert "one maturity" in capsys.readouterr().err


def test_converge_requires_two_maturities(tmp_path):
    code = run_cli(
        tmp_path, {"maturities": [0.1], "output_dir": str(tmp_path)}, "converge"
    )
    assert code == 2


def test_converge_rejects_at_the_money_strike(tmp_path, capsys):
    code = run_cli(
        tmp_path,
        {"maturities": [0.2, 0.1], "mc": FAST_MC, "output_dir": str(tmp_path)},
        "converge", "--strike", "0.1",
    )
    assert code == 2
    assert "strike" in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "0", "diagnose"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# diagnose command
# ---------------------------------------------------------------------------

def test_diagnose_writes_report(tmp_path, capsys):
    code = run_cli(tmp_path, {"output_dir": str(tmp_path)}, "diagnose")
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
        tmp_path, {"model": {"beta": 0.3}, "output_dir": str(tmp_path)}, "diagnose"
    )
    assert code == 0
    payload = json.loads((tmp_path / "diagnose.json").read_text())
    assert payload["boundary_class"] == "regular"


# ---------------------------------------------------------------------------
# forwards command
# ---------------------------------------------------------------------------

def test_forwards_table_content(tmp_path):
    code = run_cli(
        tmp_path, {"mc": FAST_MC, "output_dir": str(tmp_path)}, "forwards"
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
            {"mc": FAST_MC, "output_dir": str(out)},
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
            {"mc": FAST_MC, "output_dir": str(out)},
            "--seed", seed, "forwards",
        )
        assert code == 0
        _, rows = read_csv(out / "forward_table.csv")
        outs[seed] = [(float(r[2]), float(r[3])) for r in rows]
    for (fa, sa), (fb, sb) in zip(outs["12345"], outs["999"]):
        assert (fa, sa) != (fb, sb)
        assert abs(fa - fb) <= 4.0 * math.hypot(sa, sb)


def test_forwards_json_format(tmp_path):
    code = run_cli(
        tmp_path,
        {"mc": FAST_MC, "output_dir": str(tmp_path), "format": "json"},
        "forwards",
    )
    assert code == 0
    payload = json.loads((tmp_path / "forward_table.json").read_text())
    assert payload["schema_version"] == 1
    assert len(payload["rows"]) == 3
    assert set(payload["rows"][0]) == {"rho", "binding_level", "forward", "forward_se"}


# ---------------------------------------------------------------------------
# smile command
# ---------------------------------------------------------------------------

def test_smile_table_content(tmp_path):
    strikes = [0.07, 0.08, 0.09, 0.1, 0.11, 0.12, 0.13, 0.14, 0.15]
    code = run_cli(
        tmp_path,
        {
            "mc": {"n_paths": 20_000, "n_steps": 20, "horizon": 0.1, "seed": 12345},
            "strikes": strikes,
            "maturities": [0.1],
            "output_dir": str(tmp_path),
        },
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
            "mc": {"n_paths": 1_000, "n_steps": 5, "horizon": 0.1, "seed": 1},
            "strikes": [0.1, 5.0],
            "maturities": [0.1],
            "output_dir": str(tmp_path),
        },
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
            "mc": {"n_paths": 20_000, "n_steps": 20, "horizon": 0.1, "seed": 12345},
            "maturities": [0.1, 0.2],
            "output_dir": str(tmp_path),
        },
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
    run_cli(tmp_path, {"output_dir": str(tmp_path)}, "diagnose")
    run_cli(tmp_path, {"mc": FAST_MC, "output_dir": str(tmp_path)}, "forwards")
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
# shows up here.
PINNED_DIGESTS = {
    "forward_table.csv":
        "87cda6f1b8e251f7a7fcc5e5e9efaa5911145155b05ef8b56caacc7111f61aae",
    "smile.csv":
        "f47dc900b5f2e7776311379b47086882ee5e06f2486e2cca5ef66f6a341ca3e5",
    "converge.csv":
        "f685f6c703926695433478124c8b12808266c983cd52354760dfe2f53c286870",
    "diagnose.json":
        "7cdc2707c31c6553850a6cf5dda3cd686f67e005967a1ab69fd02f9d1547f985",
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
