"""Payoff means, Black-formula utilities and the MC-to-smile bridge.

VIX futures and options are priced as sample means of payoffs of the
simulated terminal values, and converted to implied volatilities with
an undiscounted forward Black formula, inverted by a fixed number of
bisections that run on all strikes of a smile at once.  A smile prices
every strike from one sorted copy of the terminal values.  Error bands
come from re-inverting the price shifted by one standard error; prices
outside the arbitrage bounds are reported per strike instead of failing
the whole smile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr

from .asymptotics import _ATM_LOG_THRESHOLD, _log_ratio, rate_function
# simulate_capped_paths is unused here but stays bound, because
# bench/spans.py wraps this module's binding of it.
from .mc import McConfig, McEstimate, PathSet, _check_finite, \
    estimate_capped_lanes, simulate_capped_paths  # noqa: F401
from .model import CapSpec, SabrParams
from .scale import NumericalError

__all__ = [
    "SmilePoint",
    "ConvergenceRow",
    "estimate_forward",
    "price_vix_option",
    "bs_price",
    "implied_vol",
    "smile_from_paths",
    "rate_convergence_study",
]

# Upper end of every inversion bracket, [0, 1e6]: a price that no vol up
# to it reaches counts as out of bounds.  70 halvings take the bracket
# down to 1e6 * 2**-70 = 8.5e-16.
_VOL_CEILING = 1e6
_BISECTIONS = 70


@dataclass(frozen=True)
class SmilePoint:
    """One strike of an MC smile with its implied-vol error band.

    ``band`` is the price +- one standard error, re-inverted at the
    estimated forward; its lower edge collapses to 0 and its upper edge
    to inf when the shifted price leaves the arbitrage bounds.  When at
    most one path pays, price - SE is 0 in exact arithmetic, and the
    lower edge is set to 0.0 instead of being left to rounding; with two
    or more paying paths price - SE is positive.  The band is a display
    band, not a confidence interval: its nominal coverage is
    about 68% per strike, it leaves out the error of the forward, and
    its errors are shared across the strikes of one smile, which all
    reuse the same paths.  The inversion is non-decreasing in price, so
    ``band[0] <= implied_vol <= band[1]``.  ``status`` is "ok", or
    "below"/"above" when the central price itself could not be inverted,
    in which case ``implied_vol`` and ``band`` are None.
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


def _sample_mean(values) -> McEstimate:
    """Mean of a non-empty sample and its standard error (0 for one value).

    Raises :class:`NumericalError` when either is not finite, as when
    paths overflow or their squares do.
    """
    n = values.size
    if n == 0:
        raise ValueError("empty path set")
    with np.errstate(over="ignore", invalid="ignore"):
        se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        mean = float(values.mean())
    _check_finite(mean, se)
    return McEstimate(value=mean, std_error=se)


def estimate_forward(paths: PathSet) -> McEstimate:
    """Sample mean of the terminal values with its standard error."""
    return _sample_mean(paths.terminal_values)


def price_vix_option(paths: PathSet, strike: float, kind: str = "call") -> McEstimate:
    """Undiscounted Monte Carlo price of a VIX option on the terminal values.

    Prices are taken at zero rate, as the undiscounted Black formula
    here inverts them.  The payoff is taken against the terminal
    volatility level (the vanishing-window convention); see
    ``mc.estimate_vix_nested`` for the finite-window estimator.
    """
    if not 0.0 < strike < math.inf:
        raise ValueError(f"strike must be finite and > 0, got {strike}")
    values = paths.terminal_values
    payoff = values - strike if _is_call(kind) else strike - values
    return _sample_mean(np.maximum(payoff, 0.0))


def _black(strikes, maturity: float, forward: float, vols, calls):
    """Undiscounted Black prices, elementwise, for vols > 0.

    A put is the call formula with the signs of d1 and d2 flipped and
    the whole price negated, which reproduces ``K N(-d2) - F N(-d1)``
    exactly.
    """
    total = vols * math.sqrt(maturity)
    d1 = np.log(forward / strikes) / total + 0.5 * total
    sign = np.where(calls, 1.0, -1.0)
    return sign * (forward * ndtr(sign * d1) - strikes * ndtr(sign * (d1 - total)))


def _is_call(kind):
    """``kind == "call"`` elementwise, once every kind is checked."""
    kind = np.asarray(kind)
    calls = kind == "call"
    bad = ~(calls | (kind == "put"))
    if bad.any():
        raise ValueError(f"kind must be 'call' or 'put', got {kind[bad][0].item()!r}")
    return calls


def _check_market(strike, maturity: float, forward: float) -> None:
    """Reject strikes, forward or maturity that are not finite and > 0."""
    strike = np.asarray(strike, dtype=float)
    if not (np.all((strike > 0.0) & (strike < math.inf)) and 0.0 < forward < math.inf):
        raise ValueError("strike and forward must be finite and > 0")
    if not 0.0 < maturity < math.inf:
        raise ValueError(f"maturity must be finite and > 0, got {maturity}")


def bs_price(strike, maturity: float, forward: float, vol, kind="call"):
    """Undiscounted forward Black price of European options.

    ``strike``, ``vol`` and ``kind`` ("call" or "put") broadcast as
    arrays; the result is a float when all three are scalars.
    ``vol = 0`` returns the intrinsic value (the deterministic limit).
    """
    calls = _is_call(kind)
    _check_market(strike, maturity, forward)
    strike, vol = np.asarray(strike, dtype=float), np.asarray(vol, dtype=float)
    if not np.all((vol >= 0.0) & (vol < math.inf)):
        raise ValueError(f"vol must be finite and >= 0, got {vol}")
    flat = vol == 0.0
    price = _black(strike, maturity, forward, np.where(flat, 1.0, vol), calls)
    intrinsic = np.maximum(np.where(calls, forward - strike, strike - forward), 0.0)
    price = np.where(flat, intrinsic, price)
    return float(price) if price.ndim == 0 else price


def _invert_black(prices, strikes, maturity: float, forward: float, kind):
    """Implied vols of undiscounted Black prices, for every strike at once.

    Each of 70 halvings of the bracket [0, 1e6] moves its upper end to
    the midpoint where Black's price there is above the quote, and its
    lower end otherwise; the result is the last midpoint, within 4.3e-16
    of where the computed price crosses the quote, which keeps the price
    residual under 1e-12 * forward.  Two prices share every midpoint
    until the higher one first keeps the upper half, so the result is
    non-decreasing in price.

    A price at or under the intrinsic value gets 0.0.  Black's price
    increases with vol, so one :func:`bs_price` at 1e6 finds the prices
    that get inf: those at or over the upper bound (the forward for calls,
    the strike for puts), and those beyond every vol up to 1e6.
    """
    prices, strikes, kind = np.broadcast_arrays(
        np.asarray(prices, dtype=float), np.asarray(strikes, dtype=float),
        np.asarray(kind))
    calls = kind == "call"
    if np.isnan(prices).any():
        raise ValueError("prices must not be NaN")
    intrinsic = np.maximum(np.where(calls, forward - strikes, strikes - forward), 0.0)
    below = prices <= intrinsic
    lo = np.zeros(prices.shape)
    hi = np.full(prices.shape, _VOL_CEILING)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Black's price at the ceiling is at most the upper bound
        above = ~below & (prices >= bs_price(strikes, maturity, forward, hi, kind))
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            high = _black(strikes, maturity, forward, mid, calls) > prices
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
    return np.where(below, 0.0, np.where(above, math.inf, 0.5 * (lo + hi)))


def implied_vol(price, strike, maturity: float, forward: float, kind="call"):
    """Invert the undiscounted Black formula.

    ``price``, ``strike`` and ``kind`` broadcast as arrays, and all
    elements are bisected at once; the result is a float when all three
    are scalars.  The residual |bs_price(result) - price| is at most
    ~1e-12 * forward, and the result is non-decreasing in ``price``.  A
    price outside the arbitrage bounds saturates instead of raising: at
    or below intrinsic value it gives 0.0, and at or above Black's price
    at vol 1e6, which is below the upper bound (forward for calls, strike
    for puts), it gives inf.
    """
    _is_call(kind)
    _check_market(strike, maturity, forward)
    vols = _invert_black(price, strike, maturity, forward, kind)
    return float(vols) if vols.ndim == 0 else vols


def _tail_sums(ascending, cuts, calls):
    """Sum of ``ascending`` above each cut for calls, below it for puts.

    ``cuts`` is non-decreasing.  The segments between consecutive cuts
    are summed once; a call's sum accumulates them from the top end and
    a put's from the bottom end, so each sum only ever adds values from
    its own side of the cut.
    """
    starts = np.concatenate(([0], cuts))
    full = starts < np.concatenate((cuts, [ascending.size]))
    segments = np.zeros(starts.size)
    segments[full] = np.add.reduceat(ascending, starts[full])
    from_bottom = np.cumsum(segments)[:-1]
    from_top = np.cumsum(segments[::-1])[::-1][1:]
    return np.where(calls, from_top, from_bottom)


def smile_from_paths(paths: PathSet, strikes, maturity: float) -> list[SmilePoint]:
    """Build an implied-vol smile with error bands from simulated paths.

    Prices the out-of-the-money side at each strike (call above the
    forward, put at or below), inverts the undiscounted price at the
    estimated forward, and re-inverts the price shifted by one standard
    error for the band.  The band is for display (see
    :class:`SmilePoint`): about 68% per strike, without the forward's
    error, and correlated across strikes.  Points whose central price falls outside the arbitrage
    bounds are reported with a non-"ok" status instead of aborting the
    smile.

    All strikes are priced from one sorted copy of the terminal values:
    with m paths strictly in the money, S1 and S2 the sums of v and v^2
    over them, the payoff sums are sum p = +-(S1 - K m) and
    sum p^2 = S2 - 2 K S1 + K^2 m.  The prices agree with
    :func:`price_vix_option` up to summation order.  The sorted copy is
    freed before the inversion, so the smile holds at most one n-path
    array beside ``paths``.
    """
    # the forward is the mean of the paths; its error is not needed.
    # Every path can underflow to 0 (or overflow) over a long maturity,
    # and no price is then quoted against the forward
    with np.errstate(over="ignore", invalid="ignore"):
        fwd = float(paths.terminal_values.mean())
    if not 0.0 < fwd < math.inf:
        raise NumericalError(f"the estimated forward at maturity {maturity} is "
                             f"{fwd}, not finite and > 0")
    strikes = np.array(sorted(float(k) for k in strikes))
    if not np.all((strikes > 0.0) & (strikes < math.inf)):
        raise ValueError("strikes must be finite and > 0")
    calls = strikes > fwd
    n_puts = strikes.size - np.count_nonzero(calls)
    ascending = np.sort(paths.terminal_values)
    n = ascending.size
    # v == K pays nothing on either side: a call's tail starts after the
    # last such value, a put's ends before the first one.
    cuts = np.concatenate((np.searchsorted(ascending, strikes[:n_puts], "left"),
                           np.searchsorted(ascending, strikes[n_puts:], "right")))
    paying = np.where(calls, n - cuts, cuts)
    # Sums of huge paths can overflow; a price or SE that is not finite
    # is reported below, before the inversion.
    with np.errstate(over="ignore", invalid="ignore"):
        s1 = _tail_sums(ascending, cuts, calls)
        np.multiply(ascending, ascending, out=ascending)
        s2 = _tail_sums(ascending, cuts, calls)
        # Free the n-path copy before the inversion allocates its temporaries.
        del ascending
        payoff_sum = np.where(calls, s1 - strikes * paying, strikes * paying - s1)
        # K^2 overflows for K above sqrt(float max); a strike no path pays
        # has no K^2 term, and inf * 0 must not turn its sum into NaN
        k_sq = np.square(strikes, where=paying > 0, out=np.zeros(strikes.size))
        square_sum = s2 - 2.0 * strikes * s1 + k_sq * paying
        mean = payoff_sum / n
        if n > 1:
            se = np.sqrt(np.maximum(square_sum - payoff_sum * mean, 0.0) / (n - 1) / n)
        else:
            se = np.zeros(strikes.size)
    bad = ~(np.isfinite(mean) & np.isfinite(se))
    if bad.any():
        raise NumericalError(f"the price or its standard error is not finite at "
                             f"strikes {strikes[bad].tolist()}")
    kinds = np.where(calls, "call", "put")
    # The central price and both band edges are inverted as one array;
    # each element is bisected on its own, so the stack changes no value.
    vols, lower, upper = implied_vol(np.stack((mean, mean - se, mean + se)),
                                     strikes, maturity, fwd, kinds)
    # With one paying path, price - SE is exactly 0; rounding would
    # otherwise decide whether that edge inverts.
    lower[paying <= 1] = 0.0
    below, above = vols == 0.0, vols == math.inf
    points = []
    for i, strike in enumerate(strikes.tolist()):
        ok = not (below[i] or above[i])
        points.append(
            SmilePoint(
                strike=strike,
                log_strike=_log_ratio(strike, fwd),
                price=McEstimate(value=float(mean[i]), std_error=float(se[i])),
                implied_vol=float(vols[i]) if ok else None,
                band=(float(lower[i]), float(upper[i])) if ok else None,
                status="ok" if ok else ("below" if below[i] else "above"),
            )
        )
    return points


def rate_convergence_study(
    strike: float,
    params: SabrParams,
    caps: CapSpec,
    maturities,
    mc: McConfig,
    n_threads: int = 1,
) -> list[ConvergenceRow]:
    """Track -T * log(price) against the rate function as T shrinks.

    Simulates every maturity from the same normals (common random
    numbers keep the trend smooth) and prices the out-of-the-money
    option at the given strike by :func:`estimate_capped_lanes`, which
    pools per-block prices, so no path array is held however many paths
    ``mc`` asks for.  It compares minus maturity times the log price
    with the closed-form rate function.  A row is flagged
    ``statistically_zero`` when the price is not distinguishable from 0
    at the configured path budget (within 2 standard errors), in which
    case the log price is unreliable.

    The strike must be finite and > 0, and differ from v0: at the money
    the price does not decay exponentially and the comparison is
    meaningless.
    """
    if not 0.0 < strike < math.inf:
        raise ValueError(f"strike must be finite and > 0, got {strike}")
    maturities = [float(t) for t in maturities]
    if len(maturities) < 2:
        raise ValueError("need at least two maturities")
    if any(b >= a for a, b in zip(maturities[:-1], maturities[1:])):
        raise ValueError("maturities must be strictly decreasing")
    if abs(_log_ratio(strike, params.v0)) < _ATM_LOG_THRESHOLD:
        raise ValueError("strike must differ from v0 for the rate comparison")
    kind = "call" if strike > params.v0 else "put"
    target = rate_function(strike, params, caps)
    lanes = [(params, caps, maturity) for maturity in maturities]
    rows = []
    estimates = estimate_capped_lanes(
        lanes, lambda paths: price_vix_option(paths, strike, kind), mc,
        n_threads=n_threads)
    for maturity, estimate in zip(maturities, estimates):
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
