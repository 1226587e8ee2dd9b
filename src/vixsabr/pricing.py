"""Black-formula utilities and the MC-to-smile bridge.

Prices from the Monte Carlo engine are converted to implied
volatilities with an undiscounted forward Black formula, inverted by
safeguarded bracketing.  Error bands come from re-inverting the price
shifted by one standard error; prices outside the arbitrage bounds are
reported per strike instead of failing the whole smile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from scipy import optimize
from scipy.special import ndtr

from .asymptotics import rate_function
# simulate_capped_paths is unused here but stays bound, because
# bench/spans.py wraps this module's binding of it.
from .mc import McConfig, McEstimate, PathSet, estimate_forward, price_vix_option, \
    simulate_capped_lanes, simulate_capped_paths  # noqa: F401
from .model import CapSpec, SabrParams

__all__ = [
    "OutOfBoundsError",
    "SmilePoint",
    "ConvergenceRow",
    "bs_price",
    "implied_vol",
    "smile_from_paths",
    "rate_convergence_study",
]

class OutOfBoundsError(ValueError):
    """Price outside the arbitrage bounds, no implied vol exists.

    ``side`` is "below" when the price does not exceed intrinsic value
    and "above" when it reaches the model-free upper bound.  Typically
    signals a noisy MC price at an extreme strike.
    """

    def __init__(self, side: str, message: str):
        super().__init__(message)
        self.side = side


@dataclass(frozen=True)
class SmilePoint:
    """One strike of an MC smile with its implied-vol error band.

    ``band`` is the implied-vol interval obtained from price +- one
    standard error; its lower edge collapses to 0 and its upper edge to
    inf when the shifted price leaves the arbitrage bounds.  ``status``
    is "ok", or "below"/"above" when the central price itself could not
    be inverted, in which case ``implied_vol`` and ``band`` are None.
    """

    strike: float
    log_strike: float
    price: McEstimate
    implied_vol: Optional[float]
    band: Optional[tuple[float, float]]
    status: str


@dataclass(frozen=True)
class ConvergenceRow:
    """One maturity of the short-maturity rate convergence study."""

    maturity: float
    strike: float
    minus_t_log_price: float
    rate_function_value: float
    gap: float
    statistically_zero: bool


def bs_price(strike: float, maturity: float, forward: float, vol: float,
             kind: str = "call") -> float:
    """Undiscounted forward Black price of a European option.

    ``vol = 0`` returns the intrinsic value (the deterministic limit).
    """
    if strike <= 0.0 or forward <= 0.0:
        raise ValueError("strike and forward must be > 0")
    if maturity <= 0.0:
        raise ValueError(f"maturity must be > 0, got {maturity}")
    if vol < 0.0:
        raise ValueError(f"vol must be >= 0, got {vol}")
    if kind not in ("call", "put"):
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
    if vol == 0.0:
        return max(forward - strike, 0.0) if kind == "call" else max(
            strike - forward, 0.0
        )
    total = vol * math.sqrt(maturity)
    d1 = math.log(forward / strike) / total + 0.5 * total
    d2 = d1 - total
    if kind == "call":
        return forward * ndtr(d1) - strike * ndtr(d2)
    return strike * ndtr(-d2) - forward * ndtr(-d1)


def implied_vol(price: float, strike: float, maturity: float, forward: float,
                kind: str = "call") -> float:
    """Invert the undiscounted Black formula by bracketed root finding.

    The residual |bs_price(result) - price| is at most ~1e-12 * forward.

    Raises
    ------
    OutOfBoundsError
        With side "below" when price <= intrinsic value, "above" when it
        is >= the upper bound (forward for calls, strike for puts).
    """
    if kind == "call":
        intrinsic = max(forward - strike, 0.0)
        upper = forward
    elif kind == "put":
        intrinsic = max(strike - forward, 0.0)
        upper = strike
    else:
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
    if price <= intrinsic:
        raise OutOfBoundsError(
            "below", f"price {price} at or below intrinsic {intrinsic}"
        )
    if price >= upper:
        raise OutOfBoundsError(
            "above", f"price {price} at or above the upper bound {upper}"
        )
    hi = 1.0
    while bs_price(strike, maturity, forward, hi, kind) < price:
        hi *= 2.0
        if hi > 1e6:
            raise OutOfBoundsError("above", "no volatility reproduces the price")
    return float(
        optimize.brentq(
            lambda vol: bs_price(strike, maturity, forward, vol, kind) - price,
            0.0,
            hi,
            xtol=1e-14,
            rtol=8.9e-16,
        )
    )


def _band_edge(price: float, strike: float, maturity: float, forward: float,
               kind: str) -> float:
    """Implied vol of a shifted price, saturating outside the bounds."""
    try:
        return implied_vol(price, strike, maturity, forward, kind)
    except OutOfBoundsError as err:
        return 0.0 if err.side == "below" else math.inf


def smile_from_paths(
    paths: PathSet,
    strikes,
    maturity: float,
    rate: float = 0.0,
    forward: McEstimate | None = None,
) -> list[SmilePoint]:
    """Build an implied-vol smile with error bands from simulated paths.

    Prices the out-of-the-money side at each strike (call above the
    forward, put at or below), undiscounts, inverts, and re-inverts the
    price shifted by one standard error for the band.  Points whose
    central price falls outside the arbitrage bounds are reported with a
    non-"ok" status instead of aborting the smile.
    """
    if forward is None:
        forward = estimate_forward(paths)
    fwd = forward.value
    points = []
    for strike in sorted(float(k) for k in strikes):
        kind = "call" if strike > fwd else "put"
        estimate = price_vix_option(paths, strike, kind, rate, maturity)
        grow = math.exp(rate * maturity)
        mid = estimate.value * grow
        shift = estimate.std_error * grow
        log_strike = math.log(strike / fwd)
        try:
            vol = implied_vol(mid, strike, maturity, fwd, kind)
        except OutOfBoundsError as err:
            points.append(
                SmilePoint(
                    strike=strike,
                    log_strike=log_strike,
                    price=estimate,
                    implied_vol=None,
                    band=None,
                    status=err.side,
                )
            )
            continue
        band = (
            _band_edge(mid - shift, strike, maturity, fwd, kind),
            _band_edge(mid + shift, strike, maturity, fwd, kind),
        )
        points.append(
            SmilePoint(
                strike=strike,
                log_strike=log_strike,
                price=estimate,
                implied_vol=vol,
                band=band,
                status="ok",
            )
        )
    return points


def rate_convergence_study(
    strike: float,
    params: SabrParams,
    caps: CapSpec,
    maturities,
    mc: McConfig,
    rate: float = 0.0,
    n_threads: int = 1,
) -> list[ConvergenceRow]:
    """Track -T * log(price) against the rate function as T shrinks.

    Simulates every maturity from the same normals (common random
    numbers keep the trend smooth), prices the out-of-the-money option
    at the given strike and compares minus maturity times the log price
    with the closed-form rate function.  A row is flagged
    ``statistically_zero`` when the price is not distinguishable from 0
    at the configured path budget (within 2 standard errors), in which
    case the log price is unreliable.

    The strike must differ from v0: at the money the price does not
    decay exponentially and the comparison is meaningless.
    """
    maturities = [float(t) for t in maturities]
    if len(maturities) < 2:
        raise ValueError("need at least two maturities")
    if any(b >= a for a, b in zip(maturities[:-1], maturities[1:])):
        raise ValueError("maturities must be strictly decreasing")
    if abs(math.log(strike / params.v0)) < 1e-8:
        raise ValueError("strike must differ from v0 for the rate comparison")
    kind = "call" if strike > params.v0 else "put"
    target = rate_function(strike, params, caps)
    lanes = [(params, caps, maturity) for maturity in maturities]
    rows = []
    lane_paths = simulate_capped_lanes(lanes, mc, n_threads=n_threads)
    for maturity, paths in zip(maturities, lane_paths):
        estimate = price_vix_option(paths, strike, kind, rate, maturity)
        zero = estimate.value <= 2.0 * estimate.std_error or estimate.value <= 0.0
        if estimate.value > 0.0:
            minus_t_log = -maturity * math.log(estimate.value)
            gap = abs(minus_t_log - target)
        else:
            minus_t_log = math.nan
            gap = math.nan
        rows.append(
            ConvergenceRow(
                maturity=maturity,
                strike=strike,
                minus_t_log_price=minus_t_log,
                rate_function_value=target,
                gap=gap,
                statistically_zero=zero,
            )
        )
    return rows
