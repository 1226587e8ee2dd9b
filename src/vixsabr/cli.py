"""Command-line front end.

Four subcommands drive the library against a single JSON config:

* ``diagnose``  - scale-function / explosion / martingale report (JSON)
* ``forwards``  - cap binding level and MC forward across correlations
* ``smile``     - MC implied-vol smile with the asymptotic overlay
* ``converge``  - short-maturity decay of OTM prices vs the rate function

Every command is deterministic given the config (including the seed and
the thread count), writes its output atomically (temp file + rename),
and exits 0 on success, 2 on config or usage errors, 3 on numerical
failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from .asymptotics import limiting_implied_vol, rate_function
from .mc import McConfig, estimate_forward, simulate_capped_lanes, \
    simulate_capped_paths
from .model import CapSpec, SabrParams
from .pricing import rate_convergence_study, smile_from_paths
from .scale import NumericalError, QuadratureConfig, explosion_verdict, \
    martingale_diagnostic

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


def _default_strikes() -> list[float]:
    return [float(k) for k in np.geomspace(0.05, 0.25, 25)]


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration for the CLI commands."""

    model: SabrParams = SabrParams(beta=0.5, rho=-0.7, omega=1.0, v0=0.1)
    vol_cap: float = 2.0
    drift_cap: float = 1.0
    mc: McConfig = McConfig()
    quadrature: QuadratureConfig = QuadratureConfig()
    strikes: tuple[float, ...] = field(default_factory=lambda: tuple(_default_strikes()))
    maturities: tuple[float, ...] = (0.1,)
    rate: float = 0.0
    output_dir: str = "."
    format: str = "csv"

    @property
    def caps(self) -> CapSpec:
        return CapSpec.from_params(self.model, self.vol_cap, self.drift_cap)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build and validate a config from a plain JSON-style dict.

        Unknown keys and every invariant violation are collected into a
        single :class:`ConfigError` so a bad file is reported in one
        pass, with field paths on each message.
        """
        defaults = cls()
        base = defaults.to_dict()
        problems: list[str] = []
        known = {
            "model", "caps", "mc", "quadrature", "strikes", "maturities",
            "rate", "output_dir", "format",
        }
        for key in data:
            if key not in known:
                problems.append(f"{key}: unknown section")

        def build(section, factory, fallback):
            """Merge a partial section over its defaults and construct it."""
            payload = data.get(section)
            if payload is None:
                return fallback
            if not isinstance(payload, dict):
                problems.append(f"{section}: expected an object")
                return fallback
            merged = dict(base[section])
            extra = set(payload) - set(merged)
            if extra:
                problems.append(f"{section}: unknown keys {sorted(extra)}")
                return fallback
            merged.update(payload)
            try:
                return factory(merged)
            except (TypeError, ValueError) as err:
                problems.append(f"{section}: {err}")
                return fallback

        model = build(
            "model", lambda d: SabrParams(**d), defaults.model
        )
        mc = build("mc", lambda d: McConfig(**d), defaults.mc)
        quadrature = build(
            "quadrature", lambda d: QuadratureConfig(**d), defaults.quadrature
        )

        vol_cap, drift_cap = defaults.vol_cap, defaults.drift_cap
        caps_payload = data.get("caps")
        if caps_payload is not None:
            if not isinstance(caps_payload, dict):
                problems.append("caps: expected an object")
            else:
                vol_cap = caps_payload.get("vol_cap", vol_cap)
                drift_cap = caps_payload.get("drift_cap", drift_cap)
                extra = set(caps_payload) - {"vol_cap", "drift_cap"}
                if extra:
                    problems.append(f"caps: unknown keys {sorted(extra)}")
        try:
            CapSpec.from_params(model, vol_cap, drift_cap)
        except (TypeError, ValueError) as err:
            problems.append(f"caps: {err}")

        def positive_list(section, fallback):
            payload = data.get(section)
            if payload is None:
                return fallback
            try:
                values = tuple(float(x) for x in payload)
            except (TypeError, ValueError):
                problems.append(f"{section}: expected a list of numbers")
                return fallback
            if not values or not all(0.0 < x < math.inf for x in values):
                problems.append(f"{section}: entries must be finite and > 0")
                return fallback
            return values

        strikes = positive_list("strikes", defaults.strikes)
        maturities = positive_list("maturities", defaults.maturities)

        rate = data.get("rate", defaults.rate)
        if not isinstance(rate, (int, float)):
            problems.append("rate: expected a number")
            rate = defaults.rate

        output_dir = data.get("output_dir", defaults.output_dir)
        if not isinstance(output_dir, str):
            problems.append("output_dir: expected a string")
            output_dir = defaults.output_dir

        fmt = data.get("format", defaults.format)
        if fmt not in ("csv", "json"):
            problems.append(f"format: must be 'csv' or 'json', got {fmt!r}")
            fmt = defaults.format

        if problems:
            raise ConfigError(problems)
        return cls(
            model=model, vol_cap=vol_cap, drift_cap=drift_cap, mc=mc,
            quadrature=quadrature, strikes=strikes, maturities=maturities,
            rate=float(rate), output_dir=output_dir, format=fmt,
        )

    def to_dict(self) -> dict:
        return {
            "model": {
                "beta": self.model.beta, "rho": self.model.rho,
                "omega": self.model.omega, "v0": self.model.v0,
            },
            "caps": {"vol_cap": self.vol_cap, "drift_cap": self.drift_cap},
            "mc": {
                "n_paths": self.mc.n_paths, "n_steps": self.mc.n_steps,
                "horizon": self.mc.horizon, "vix_window": self.mc.vix_window,
                "seed": self.mc.seed, "inner_paths": self.mc.inner_paths,
                "inner_steps": self.mc.inner_steps,
            },
            "quadrature": {
                "abs_tol": self.quadrature.abs_tol,
                "rel_tol": self.quadrature.rel_tol,
                "max_subdivisions": self.quadrature.max_subdivisions,
                "large_x": self.quadrature.large_x,
            },
            "strikes": list(self.strikes),
            "maturities": list(self.maturities),
            "rate": self.rate,
            "output_dir": self.output_dir,
            "format": self.format,
        }


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
    """Write rows as CSV or a schema-versioned JSON object; return the path."""
    if config.format == "csv":
        path = os.path.join(config.output_dir, f"{name}.csv")
        lines = [",".join(header)]
        lines += [",".join(_fmt(cell) for cell in row) for row in rows]
        _write_atomic(path, "\n".join(lines) + "\n")
    else:
        path = os.path.join(config.output_dir, f"{name}.json")
        payload = {
            "schema_version": SCHEMA_VERSION,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _write_atomic(path, json.dumps(payload, indent=2) + "\n")
    return path


def cmd_diagnose(config: RunConfig, n_threads: int = 1) -> int:
    """Write the explosion / boundary / martingale report as JSON."""
    if not config.model.negative_correlation:
        print(
            "diagnose: the explosion analysis applies only under negative "
            f"correlation; got rho = {config.model.rho}. Set model.rho < 0.",
            file=sys.stderr,
        )
        return 2
    try:
        report = explosion_verdict(config.model, config.quadrature)
        martingale = martingale_diagnostic(config.model, config.quadrature)
    except NumericalError as err:
        print(f"diagnose: numerical failure: {err}", file=sys.stderr)
        return 3
    payload = {"schema_version": SCHEMA_VERSION, **report.to_dict(),
               "martingale": martingale}
    path = os.path.join(config.output_dir, "diagnose.json")
    _write_atomic(path, json.dumps(payload, indent=2) + "\n")
    print(path)
    return 0


def cmd_forwards(config: RunConfig, n_threads: int = 1) -> int:
    """Write the cap binding level and the MC forward per correlation."""
    header = ["rho", "binding_level", "forward", "forward_se"]
    lanes = []
    for rho in _FORWARD_RHOS:
        params = replace(config.model, rho=rho)
        caps = CapSpec.from_params(params, config.vol_cap, config.drift_cap)
        lanes.append((params, caps, config.mc.horizon))
    rows = []
    lane_paths = simulate_capped_lanes(lanes, config.mc, n_threads=n_threads)
    for (params, caps, _), paths in zip(lanes, lane_paths):
        forward = estimate_forward(paths)
        rows.append([params.rho, caps.binding_level, forward.value,
                     forward.std_error])
    print(_write_table(config, "forward_table", header, rows))
    return 0


def cmd_smile(config: RunConfig, n_threads: int = 1) -> int:
    """Write the MC smile at one maturity with the asymptotic overlay."""
    if len(config.maturities) != 1:
        print(
            "smile: exactly one maturity is required, got "
            f"{list(config.maturities)}",
            file=sys.stderr,
        )
        return 2
    maturity = config.maturities[0]
    caps = config.caps
    paths = simulate_capped_paths(
        config.model, caps, replace(config.mc, horizon=maturity),
        n_threads=n_threads,
    )
    points = smile_from_paths(paths, config.strikes, maturity, config.rate)
    header = ["strike", "log_strike", "price", "price_se", "implied_vol",
              "iv_lo", "iv_hi", "asymptotic_iv", "status"]
    rows = []
    for pt in points:
        band = pt.band if pt.band is not None else (math.nan, math.nan)
        rows.append([
            pt.strike,
            pt.log_strike,
            pt.price.value,
            pt.price.std_error,
            pt.implied_vol if pt.implied_vol is not None else math.nan,
            band[0],
            band[1],
            limiting_implied_vol(pt.strike, config.model, caps),
            pt.status,
        ])
    print(_write_table(config, "smile", header, rows))
    return 0


def cmd_converge(config: RunConfig, strike: float, n_threads: int = 1) -> int:
    """Write the short-maturity price-decay table at one strike."""
    if len(config.maturities) < 2:
        print(
            "converge: at least two maturities are required, got "
            f"{list(config.maturities)}",
            file=sys.stderr,
        )
        return 2
    if abs(math.log(strike / config.model.v0)) < 1e-8:
        print(
            f"converge: strike {strike} equals v0; the at-the-money price "
            "does not decay exponentially, pick an OTM strike",
            file=sys.stderr,
        )
        return 2
    maturities = sorted(config.maturities, reverse=True)
    rows = rate_convergence_study(
        strike, config.model, config.caps, maturities, config.mc,
        config.rate, n_threads=n_threads,
    )
    header = ["maturity", "strike", "minus_t_log_price", "rate_function",
              "gap", "statistically_zero"]
    table = [[r.maturity, r.strike, r.minus_t_log_price,
              r.rate_function_value, r.gap, r.statistically_zero]
             for r in rows]
    print(_write_table(config, "converge", header, table))
    return 0


def _reject_constant(name: str):
    raise ConfigError([f"{name} is not a valid number; values must be finite"])


def _load_config(args) -> RunConfig:
    data = {}
    if args.config is not None:
        with open(args.config) as handle:
            data = json.load(handle, parse_constant=_reject_constant)
        if not isinstance(data, dict):
            raise ConfigError(["top level: expected a JSON object"])
    config = RunConfig.from_dict(data)
    if args.seed is not None:
        config = replace(config, mc=replace(config.mc, seed=args.seed))
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    if args.format is not None:
        config = replace(config, format=args.format)
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vixsabr",
        description="VIX pricing and explosion diagnostics for the capped "
        "SABR volatility process",
    )
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for path generation")
    parser.add_argument("--seed", type=int, help="override the MC seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="override the output format")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("diagnose", help="explosion and martingale report")
    sub.add_parser("forwards", help="cap binding levels and MC forwards")
    sub.add_parser("smile", help="MC smile with asymptotic overlay")
    converge = sub.add_parser("converge",
                              help="short-maturity price decay vs rate")
    converge.add_argument("--strike", type=float, default=0.15,
                          help="strike for the decay study (default 0.15)")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")

    try:
        config = _load_config(args)
    except ConfigError as err:
        print(f"vixsabr: {err}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as err:
        print(f"vixsabr: cannot read config: {err}", file=sys.stderr)
        return 2

    try:
        if args.command == "diagnose":
            return cmd_diagnose(config, n_threads=args.threads)
        if args.command == "forwards":
            return cmd_forwards(config, n_threads=args.threads)
        if args.command == "smile":
            return cmd_smile(config, n_threads=args.threads)
        return cmd_converge(config, args.strike, n_threads=args.threads)
    except NumericalError as err:
        print(f"vixsabr: numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
