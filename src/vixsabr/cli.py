"""Command-line front end.

Four subcommands drive the library against a single JSON config:

* ``diagnose``  - scale-function / explosion / martingale report (JSON)
* ``forwards``  - cap binding level and MC forward across correlations
* ``smile``     - MC implied-vol smile with the asymptotic overlay
* ``converge``  - short-maturity decay of OTM prices vs the rate function

Every command is deterministic given the config (including the seed and
the thread count) and writes its output atomically (temp file + rename).
A command reports a problem by raising; :func:`main` alone prints it and
exits 0 on success, 2 on config, usage or output errors, 3 on numerical
failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .asymptotics import _at_the_money, _log_ratio, limiting_implied_vol
from .mc import McConfig, estimate_capped_lanes, simulate_capped_paths
from .model import CapSpec, NumericalError, SabrParams, _to_float, count, \
    positive_float, positive_floats
from .pricing import estimate_forward, rate_convergence_study, smile_from_paths
from .scale import explosion_verdict, martingale_diagnostic

__all__ = ["RunConfig", "ConfigError", "main"]

SCHEMA_VERSION = 1

# Correlations reported by the `forwards` command, matching the spread
# of regimes exercised in the capped-forward study.
_FORWARD_RHOS = (-0.7, 0.0, 0.7)


class ConfigError(ValueError):
    """Aggregated config-validation failure; one message per bad field."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid configuration:\n" + "\n".join(
            f"  {p}" for p in problems
        ))
        self.problems = problems


_DEFAULT_MODEL = SabrParams(beta=0.5, rho=-0.7, omega=1.0, v0=0.1)


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration for the CLI commands.

    Each field is one section of the JSON config under the same name.
    ``caps`` is checked against ``model`` by :meth:`CapSpec.from_params`,
    also after ``dataclasses.replace``, and ``mc`` is rebuilt from its
    settable keys, so its library-only fields keep their defaults.  Every
    command takes its maturities from ``maturities``.  Invalid values
    raise :class:`ConfigError` with one message per problem.
    """

    model: SabrParams = _DEFAULT_MODEL
    caps: CapSpec = CapSpec.from_params(_DEFAULT_MODEL, vol_cap=2.0, drift_cap=1.0)
    mc: McConfig = McConfig()
    strikes: tuple[float, ...] = tuple(float(k) for k in np.geomspace(0.05, 0.25, 25))
    maturities: tuple[float, ...] = (0.1,)
    output_dir: str = "."

    def __post_init__(self):
        problems = []

        def normalise(name, convert) -> None:
            """Replace a field by ``convert`` of it, or report why not."""
            try:
                object.__setattr__(self, name, convert(getattr(self, name)))
            except (TypeError, ValueError, OverflowError) as err:
                problems.append(f"{name}: {err}")

        normalise("caps", lambda caps: CapSpec.from_params(self.model, **_settable(caps)))
        normalise("mc", lambda mc: McConfig(**_settable(mc)))
        normalise("strikes", _positive_floats)
        normalise("maturities", _positive_floats)
        if not isinstance(self.output_dir, str):
            problems.append("output_dir: expected a string")
        if problems:
            raise ConfigError(problems)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build and validate a config from a plain JSON-style dict.

        A section whose default is a dataclass may be partial: its keys
        are merged over the default.  Unknown keys and every invariant
        violation are collected into a single :class:`ConfigError` so a
        bad file is reported in one pass, with field paths on each
        message; a bad section is replaced by its default meanwhile, so
        the checks across sections still run.
        """
        names = [f.name for f in fields(cls)]
        problems = [f"{key}: unknown section" for key in data if key not in names]
        sections = {}
        for f in fields(cls):
            name, default, payload = f.name, f.default, data.get(f.name)
            if payload is None:
                continue
            if is_dataclass(default):
                if not isinstance(payload, dict):
                    problems.append(f"{name}: expected an object")
                    continue
                extra = set(payload) - set(_settable(default))
                if extra:
                    problems.append(f"{name}: unknown keys {sorted(extra)}")
                    continue
                try:
                    payload = replace(default, **payload)
                except (TypeError, ValueError, OverflowError):
                    # a section's checks stop at its first failure, so
                    # report each key that fails alone over the default,
                    # or the joint failure when none does
                    alone = [_problem(name, default, {key: value})
                             for key, value in payload.items()]
                    problems += [p for p in alone if p] or \
                        [_problem(name, default, payload)]
                    continue
            sections[name] = payload
        try:
            config = cls(**sections)
        except ConfigError as err:
            problems += err.problems
        if problems:
            raise ConfigError(problems)
        return config

    def to_dict(self) -> dict:
        """The config as JSON-style sections, without unsettable fields."""
        return {f.name: _settable(getattr(self, f.name)) for f in fields(self)}


def _problem(section: str, default, changes: dict):
    """What is wrong with ``replace(default, **changes)``, or None."""
    try:
        replace(default, **changes)
    except (TypeError, ValueError, OverflowError) as err:
        return f"{section}: {err}"
    return None


def _settable(section):
    """A config section as a config file sets it: a dataclass as the dict
    of its fields less those marked ``settable: False``, anything else as
    it is."""
    if not is_dataclass(section):
        return section
    return {f.name: getattr(section, f.name) for f in fields(section)
            if f.metadata.get("settable", True)}


def _positive_floats(values) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValueError("expected a list of numbers")
    try:
        values = tuple(_to_float(value, "entries") for value in values)
    except (TypeError, ValueError):
        raise ValueError("expected a list of numbers") from None
    if not values:
        raise ValueError("expected at least one number")
    positive_floats(values, "entries")
    return values


def _fmt(value) -> str:
    """Render one CSV cell: floats at 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table(config: RunConfig, name: str, header: list[str],
                 rows: list[list]) -> str:
    """Write rows as ``<name>.csv`` in the output directory; return the path."""
    path = os.path.join(config.output_dir, f"{name}.csv")
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")
    return path


def cmd_diagnose(config: RunConfig, n_threads: int = 1) -> None:
    """Write the explosion / boundary / martingale report as JSON."""
    if not config.model.negative_correlation:
        raise ConfigError([
            f"model.rho: diagnose needs rho < 0, got {config.model.rho}; the "
            "explosion analysis applies only under negative correlation"])
    report = explosion_verdict(config.model)
    martingale = martingale_diagnostic(config.model)
    payload = {"schema_version": SCHEMA_VERSION, **report.to_dict(),
               "martingale": martingale}
    path = os.path.join(config.output_dir, "diagnose.json")
    _write_atomic(path, json.dumps(payload, indent=2) + "\n")
    print(path)


def _single_maturity(config: RunConfig, command: str) -> float:
    """The one entry of ``maturities``, which ``command`` needs alone."""
    if len(config.maturities) != 1:
        raise ConfigError([f"maturities: {command} needs exactly one maturity, "
                           f"got {list(config.maturities)}"])
    return config.maturities[0]


def cmd_forwards(config: RunConfig, n_threads: int = 1) -> None:
    """Write the cap binding level and the MC forward per correlation."""
    maturity = _single_maturity(config, "forwards")
    header = ["rho", "binding_level", "forward", "forward_se"]
    models = [replace(config.model, rho=rho) for rho in _FORWARD_RHOS]
    forwards = estimate_capped_lanes(
        [(model, config.caps, maturity) for model in models],
        estimate_forward, config.mc, n_threads=n_threads)
    rows = [[model.rho, config.caps.binding_level(model), f.value, f.std_error]
            for model, f in zip(models, forwards)]
    print(_write_table(config, "forward_table", header, rows))


def cmd_smile(config: RunConfig, n_threads: int = 1) -> None:
    """Write the MC smile at one maturity with the asymptotic overlay."""
    maturity = _single_maturity(config, "smile")
    paths = simulate_capped_paths(
        config.model, config.caps, replace(config.mc, horizon=maturity),
        n_threads=n_threads,
    )
    points = smile_from_paths(paths, config.strikes, maturity)
    header = ["strike", "log_strike", "price", "price_se", "implied_vol",
              "iv_lo", "iv_hi", "asymptotic_iv", "status"]
    rows = [[pt.strike, pt.log_strike, pt.price.value, pt.price.std_error,
             math.nan if pt.implied_vol is None else pt.implied_vol,
             *(pt.band or (math.nan, math.nan)),
             limiting_implied_vol(pt.strike, config.model, config.caps), pt.status]
            for pt in points]
    print(_write_table(config, "smile", header, rows))


def cmd_converge(config: RunConfig, strike: float, n_threads: int = 1) -> None:
    """Write the short-maturity price-decay table at one strike."""
    distinct = len(set(config.maturities))
    if distinct < 2 or distinct < len(config.maturities):
        raise ConfigError([f"maturities: converge needs at least two maturities, "
                           f"all distinct, got {list(config.maturities)}"])
    if _at_the_money(_log_ratio(strike, config.model.v0)):
        raise ConfigError([f"--strike: {strike} equals v0; the at-the-money price "
                           "does not decay exponentially, pick an OTM strike"])
    maturities = sorted(config.maturities, reverse=True)
    rows = rate_convergence_study(
        strike, config.model, config.caps, maturities, config.mc,
        n_threads=n_threads,
    )
    header = ["maturity", "strike", "minus_t_log_price", "rate_function",
              "gap", "statistically_zero"]
    table = [[r.maturity, r.strike, r.minus_t_log_price,
              r.rate_function_value, r.gap, r.statistically_zero]
             for r in rows]
    print(_write_table(config, "converge", header, table))


def _reject_constant(name: str):
    raise ConfigError([f"{name} is not a valid number; values must be finite"])


def _finite_literal(parse):
    """A json.load hook that parses a number literal with ``parse`` and
    rejects one that overflows a float, such as 1e999 or a 400-digit
    integer, or that exceeds Python's limit on integer digits."""

    def hook(text: str):
        try:
            value = parse(text)
            if math.isfinite(value):
                return value
        except (OverflowError, ValueError):
            pass
        shown = text if len(text) <= 24 else f"{text[:20]}... ({len(text)} digits)"
        raise ConfigError([f"{shown} is out of range; values must be finite"])

    return hook


# json.load hooks that turn every non-finite number into a ConfigError.
_JSON_HOOKS = dict(parse_constant=_reject_constant,
                   parse_float=_finite_literal(float),
                   parse_int=_finite_literal(int))


def _load_config(args) -> RunConfig:
    data = {}
    if args.config is not None:
        try:
            with open(args.config) as handle:
                data = json.load(handle, **_JSON_HOOKS)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as err:
            raise ConfigError([f"config: cannot read the file: {err}"]) from None
        if not isinstance(data, dict):
            raise ConfigError(["top level: expected a JSON object"])
    config = RunConfig.from_dict(data)
    if args.seed is not None:
        try:
            config = replace(config, mc=replace(config.mc, seed=args.seed))
        except ValueError as err:
            raise ConfigError([f"--seed: {err}"]) from None
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    return config


# The parser is built once, at import: a parser holds reference cycles,
# which one parser per call would leave to the cyclic collector.
_PARSER = argparse.ArgumentParser(
    prog="vixsabr",
    description="VIX pricing and explosion diagnostics for the capped "
    "SABR volatility process",
)
_PARSER.add_argument("--config", help="path to a JSON config file")
_PARSER.add_argument("--threads", type=int, default=1,
                     help="worker threads for path generation")
_PARSER.add_argument("--seed", type=int, help="override the MC seed")
_PARSER.add_argument("--out", help="override the output directory")
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)
_COMMANDS.add_parser("diagnose", help="explosion and martingale report")
_COMMANDS.add_parser("forwards", help="cap binding levels and MC forwards")
_COMMANDS.add_parser("smile", help="MC smile with asymptotic overlay")
_COMMANDS.add_parser("converge", help="short-maturity price decay vs rate").add_argument(
    "--strike", type=float, default=0.15, help="strike for the decay study (default 0.15)")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        count(args.threads, "--threads", 1)
        if args.command == "converge":
            positive_float(args.strike, "--strike")
    except ValueError as err:
        _PARSER.error(str(err))

    try:
        config = _load_config(args)
        if args.command == "converge":
            cmd_converge(config, args.strike, n_threads=args.threads)
        else:
            command = {"diagnose": cmd_diagnose, "forwards": cmd_forwards,
                       "smile": cmd_smile}[args.command]
            command(config, n_threads=args.threads)
    except ConfigError as err:
        print(f"vixsabr: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"vixsabr: numerical failure: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        # the sizes a config sets are bounded only by memory
        print(f"vixsabr: the config needs more memory than is available: {err}",
              file=sys.stderr)
        return 2
    except OSError as err:
        # _load_config turns its own OSErrors into ConfigErrors, so this
        # one came from writing an output
        print(f"vixsabr: cannot write output: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    # ``python3 -m vixsabr.cli`` lands here: the package has already
    # imported this module, and the entry point is the package itself
    print("vixsabr: run python3 -m vixsabr, not python3 -m vixsabr.cli",
          file=sys.stderr)
    raise SystemExit(2)
