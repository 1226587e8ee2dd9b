"""Payoff means, Black-formula utilities and the MC-to-smile bridge.

VIX futures and options are priced as sample means of payoffs of the
simulated terminal values, and converted to implied volatilities with
an undiscounted forward Black formula, inverted by a fixed number of
bisections that run on all strikes of a smile at once.  A smile prices
every strike from cumulative sums of each sorted block of the terminal
values.  Error bands come from re-inverting the price shifted by one
standard error; prices outside the arbitrage bounds are reported per
strike instead of failing the whole smile.  The normal distribution
function in the Black formula is 0.5 * erfc(-x / sqrt(2)) from the
math module, as accurate as scipy's ndtr, so pricing needs no scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .asymptotics import _at_the_money, _log_ratio, rate_function
# simulate_capped_paths is unused here but stays bound, because
# bench/spans.py wraps this module's binding of it.
from .mc import _BLOCK_PATHS, McConfig, McEstimate, PathSet, estimate_capped_lanes, \
    simulate_capped_paths  # noqa: F401
from .model import CapSpec, NumericalError, SabrParams, _scalar_or_array, as_floats, \
    positive_float, positive_floats

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
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class SmilePoint:
    """One strike of an MC smile with its implied-vol error band.

    ``band`` is the price +- one standard error, re-inverted at the
    estimated forward; its lower edge collapses to 0 and its upper edge
    to inf when the shifted price leaves the arbitrage bounds.  When at
    most one path pays, price - SE is 0 in exact arithmetic, and the
    lower edge is set to 0.0 instead of being left to rounding; with two
    or more paying paths price - SE is positive.  The band is a display
    band, not a confidence interval: nominally 68% per strike, it covered
    81.8% of 500 strike-seeds (CLI smile config, seeds 1-20, against a
    density reference), leaves out the forward's error, and shares its
    errors across one smile's strikes.  The inversion is non-decreasing
    in price, so ``band[0] <= implied_vol <= band[1]``.  ``status`` is
    "ok", or "below"/"above" when the central price itself could not be
    inverted, in which case ``implied_vol`` and ``band`` are None.
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
    """The :class:`McEstimate` of a non-empty sample, its M2 by a second
    pass; a mean or M2 that is not finite, as when paths overflow or
    their squares do, raises :class:`NumericalError`.
    """
    n = values.size
    if n == 0:
        raise ValueError("empty path set")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean()
        deviations = values - mean
        m2 = np.square(deviations, out=deviations).sum()
    return McEstimate(n, float(mean), float(m2))


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
    strike = positive_float(strike, "strike")
    values = paths.terminal_values
    payoff = values - strike if _is_call(kind) else strike - values
    return _sample_mean(np.maximum(payoff, 0.0))


def _black(strikes, maturity: float, forward: float, vols, calls):
    """Undiscounted Black prices, elementwise, for vols > 0.

    A put is the call formula with the signs of d1 and d2 flipped and
    the whole price negated, which reproduces ``K N(-d2) - F N(-d1)``
    exactly.  A quotient forward / strike that overflows or underflows
    gives d1 = +-inf, and the price its limit, without a warning; so does
    a total vol that overflows, taken as the largest float.
    """
    with np.errstate(divide="ignore", over="ignore"):
        total = np.minimum(vols * math.sqrt(maturity), sys.float_info.max)
        d1 = np.log(forward / strikes) / total + 0.5 * total
    sign = np.where(calls, 1.0, -1.0)
    return sign * (forward * _normal_cdf(sign * d1)
                   - strikes * _normal_cdf(sign * (d1 - total)))


def _normal_cdf(x):
    """Standard normal distribution function, elementwise, as
    0.5 * erfc(-x * sqrt(0.5)) with one math.erfc per element.  It is
    exactly 0 at -inf and 1 at inf, without a warning, and NaN at NaN."""
    x = np.asarray(x)
    erfc = np.fromiter(map(math.erfc, (-x * _SQRT_HALF).ravel().tolist()), float, x.size)
    return 0.5 * erfc.reshape(x.shape)


def _intrinsic(strikes, forward: float, calls):
    """Intrinsic values, elementwise: (F - K)+ for calls, (K - F)+ for puts."""
    return np.maximum(np.where(calls, forward - strikes, strikes - forward), 0.0)


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
    positive_floats(strike, "strike and forward")
    positive_float(forward, "strike and forward")
    positive_float(maturity, "maturity")


def bs_price(strike, maturity: float, forward: float, vol, kind="call"):
    """Undiscounted forward Black price of European options.

    ``strike``, ``vol`` and ``kind`` ("call" or "put") broadcast as
    arrays; the result is a float when all three are scalars.
    ``vol = 0`` returns the intrinsic value (the deterministic limit).
    """
    calls = _is_call(kind)
    _check_market(strike, maturity, forward)
    strike, vol = as_floats(strike, "strike"), as_floats(vol, "vol")
    bad = ~((vol >= 0.0) & (vol < math.inf))
    if bad.any():
        raise ValueError(f"vol must be finite and >= 0, got {vol[bad][0]}")
    flat = vol == 0.0
    price = _black(strike, maturity, forward, np.where(flat, 1.0, vol), calls)
    return _scalar_or_array(np.where(flat, _intrinsic(strike, forward, calls), price))


def implied_vol(price, strike, maturity: float, forward: float, kind="call"):
    """Invert the undiscounted Black formula.

    ``price``, ``strike`` and ``kind`` broadcast as arrays, and all
    elements are bisected at once; the result is a float when all three
    are scalars.  Each of 70 halvings of the bracket [0, 1e6] moves its
    upper end to the midpoint where Black's price there is above the
    quote, and its lower end otherwise; the result is the last midpoint,
    within 4.3e-16 of where the computed price crosses the quote.  Black's
    vega is at most forward * sqrt(maturity / (2 pi)), so the residual
    |bs_price(result) - price| is under forward * (1e-12 + 2e-16 *
    sqrt(maturity)), which grows like sqrt(maturity) from maturity 2.5e7.
    Two prices share every midpoint until the higher one first keeps the
    upper half, so the result is non-decreasing in ``price``.

    A price outside the arbitrage bounds saturates instead of raising: at
    or below intrinsic value it gives 0.0.  Black's price increases with
    vol, so one :func:`bs_price` at 1e6 finds the prices that get inf:
    those at or over the upper bound (the forward for calls, the strike
    for puts), and those beyond every vol up to 1e6.  That call is also
    the inversion's only check of the kind, strikes, forward and
    maturity, so they are refused before a NaN price is.
    """
    ceiling = bs_price(strike, maturity, forward, _VOL_CEILING, kind)
    prices, strikes, calls = np.broadcast_arrays(
        as_floats(price, "price"), as_floats(strike, "strike"),
        np.asarray(kind) == "call")
    if np.isnan(prices).any():
        raise ValueError("prices must not be NaN")
    below = prices <= _intrinsic(strikes, forward, calls)
    above = ~below & (prices >= ceiling)
    lo = np.zeros(prices.shape)
    hi = np.full(prices.shape, _VOL_CEILING)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        high = _black(strikes, maturity, forward, mid, calls) > prices
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return _scalar_or_array(
        np.where(below, 0.0, np.where(above, math.inf, 0.5 * (lo + hi))))


def _side_sums(ascending, paying, calls):
    """Sum of the ``paying`` smallest values of ``ascending`` for puts and
    of the ``paying`` largest for calls, by one cumulative sum from each
    end, so each sum only ever adds values from its own side of the cut."""
    sums = np.zeros(paying.size)
    for side, values in ((~calls, ascending), (calls, ascending[::-1])):
        prefix = np.zeros(paying[side].max(initial=0) + 1)
        np.cumsum(values[:prefix.size - 1], out=prefix[1:])
        sums[side] = prefix[paying[side]]
    return sums


def smile_from_paths(paths: PathSet, strikes, maturity: float) -> list[SmilePoint]:
    """Build an implied-vol smile with error bands from simulated paths.

    Prices the out-of-the-money side at each strike (call above the
    forward, put at or below), inverts the undiscounted price at the
    estimated forward, and re-inverts the price shifted by one standard
    error for the band, a display band (see :class:`SmilePoint`): about
    68% per strike nominally, without the forward's error, and
    correlated across strikes.  Points whose central price falls outside
    the arbitrage bounds are reported with a non-"ok" status instead of
    aborting the smile.

    Each strike adds, over sorted blocks of ``mc._BLOCK_PATHS`` paths in
    order, the count m of paths strictly in the money and the sums S1
    and S2 of v and v^2 over them; sum p = +-(S1 - K m) and sum p^2 =
    S2 - 2 K S1 + K^2 m agree with :func:`price_vix_option` up to
    summation order, and give each price as the :class:`McEstimate` of
    mean sum p / n and M2 = max(sum p^2 - mean * sum p, 0).  A block
    holds a sorted copy, its squares and a cumulative sum: about 0.4 MiB
    beside ``paths``, for any path count.
    """
    if paths.terminal_values.size == 0:
        raise ValueError("empty path set")
    # the forward is the mean of the paths; its error is not needed.
    # Every path can underflow to 0 (or overflow) over a long maturity,
    # and no price is then quoted against the forward
    with np.errstate(over="ignore", invalid="ignore"):
        fwd = float(paths.terminal_values.mean())
    if not 0.0 < fwd < math.inf:
        raise NumericalError(f"the estimated forward at maturity {maturity} is "
                             f"{fwd}, not finite and > 0")
    strikes = np.array(sorted(positive_float(k, "strikes") for k in strikes))
    calls = strikes > fwd
    n = paths.terminal_values.size
    paying, s1, s2 = np.zeros((3, strikes.size))
    # Sums of huge paths can overflow; a price or SE that is not finite
    # is reported below, before the inversion.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK_PATHS):
            ascending = np.sort(paths.terminal_values[start:start + _BLOCK_PATHS])
            # v == K pays nothing on either side: a call's tail starts after
            # the last such value, a put's ends before the first one.
            right = np.searchsorted(ascending, strikes, "right")
            block_paying = np.where(calls, ascending.size - right,
                                    np.searchsorted(ascending, strikes))
            paying += block_paying
            s1 += _side_sums(ascending, block_paying, calls)
            s2 += _side_sums(np.square(ascending), block_paying, calls)
        payoff_sum = np.where(calls, s1 - strikes * paying, strikes * paying - s1)
        # K^2 overflows for K above sqrt(float max); a strike no path pays
        # has no K^2 term, and inf * 0 must not turn its sum into NaN
        k_sq = np.square(strikes, where=paying > 0, out=np.zeros(strikes.size))
        square_sum = s2 - 2.0 * strikes * s1 + k_sq * paying
        mean = payoff_sum / n
        m2 = np.maximum(square_sum - payoff_sum * mean, 0.0)
    bad = ~(np.isfinite(mean) & np.isfinite(m2))
    if bad.any():
        raise NumericalError(f"the price or its standard error is not finite at "
                             f"strikes {strikes[bad].tolist()}")
    prices = [McEstimate(n, *sums) for sums in zip(mean.tolist(), m2.tolist())]
    se = np.array([price.std_error for price in prices])
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
                price=prices[i],
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
    ``statistically_zero`` when the price is within 2 standard errors of
    0, a one-sided rule at about 97.7%, in which case the log price is
    unreliable.

    The strike must be finite and > 0, and differ from v0: at the money
    the price does not decay exponentially and the comparison is
    meaningless.
    """
    strike = positive_float(strike, "strike")
    maturities = [positive_float(t, "maturities") for t in maturities]
    if len(maturities) < 2:
        raise ValueError("need at least two maturities")
    if any(b >= a for a, b in zip(maturities[:-1], maturities[1:])):
        raise ValueError("maturities must be strictly decreasing")
    if _at_the_money(_log_ratio(strike, params.v0)):
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
