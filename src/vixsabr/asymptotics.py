"""Short-maturity asymptotics of the VIX smile under the capped model.

Out-of-the-money VIX option prices decay exponentially as the maturity
shrinks, at a rate given by a large-deviations rate function.  The rate
function, the limiting implied-volatility curve it induces, and the
level/skew/convexity expansion of that curve at the money are all
available in closed form; this module implements them.

The closed forms are antiderivatives and are cross-checked against
adaptive quadrature of the defining integrals in the test suite; the two
routes are kept independent on purpose.  The rate integral's
antiderivative is logarithmic; it is evaluated to full precision on any
interval 0 < lo <= hi, subnormal or huge, while omega**2 is a normal
float.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import CapSpec, NumericalError, SabrParams, capped_vol_diffusion, \
    positive_float, vol_diffusion

__all__ = [
    "SmileExpansion",
    "rate_integral",
    "rate_function",
    "limiting_implied_vol",
    "smile_expansion",
]

# Below this threshold on |log(K / v0)| the strike counts as at the money:
# the limiting implied vol is continued by its ATM value, avoiding a 0/0
# evaluation of the harmonic-mean formula, and no OTM price decays there.
_ATM_LOG_THRESHOLD = 1e-8


@dataclass(frozen=True)
class SmileExpansion:
    """Taylor coefficients of the limiting smile in log-strike at ATM.

    The limiting implied vol expands as

        atm_level + skew * x + 0.5 * convexity * x**2 + O(x**3)

    with x = log(K / v0).  For beta < 1 and rho < 0 both skew and
    convexity are positive.
    """

    atm_level: float
    skew: float
    convexity: float


def _log_ratio(a: float, b: float) -> float:
    """log(a / b) for a, b > 0, also where the quotient leaves the float
    range: ``math.log(a / b)`` when the quotient is a normal float, so
    that the usual case rounds as it always has, and log a - log b when
    it overflows or underflows."""
    q = a / b
    if sys.float_info.min <= q < math.inf:
        return math.log(q)
    return math.log(a) - math.log(b)


def _at_the_money(log_ratio: float) -> bool:
    """Whether a strike at ``log_ratio = _log_ratio(strike, v0)`` is at the money."""
    return abs(log_ratio) < _ATM_LOG_THRESHOLD


def _uncapped_rate_integral(lo: float, hi: float, params: SabrParams) -> float:
    """Integral of 1 / (z * vol_diffusion(z)) over [lo, hi], 0 < lo < hi.

    The antiderivative of 1 / (z * s(z)) (Gradshteyn & Ryzhik, Table of
    Integrals, Series, and Products, 2.26) is -log(g(z) / z) / omega,
    with s = vol_diffusion, n(z) = omega + rho*(beta-1)*z and g = n + s,
    so omega times the integral is log((g_lo * hi) / (g_hi * lo)) =
    log1p(x) with

        x = omega * ((hi-lo)/lo) * (g_lo + t*g_hi) / ((s_lo + t*s_hi) * g_hi)

    and t = lo / hi.  No term subtracts nearly equal numbers: where
    n < 0, g is taken as c*z**2 / (s - n), c = (beta-1)**2 * (1-rho**2).
    Where x overflows, the log is taken term by term.
    """
    b = params.beta - 1.0
    c = b * b * (1.0 - params.rho * params.rho)

    def ends(z):
        n = params.omega + params.rho * b * z
        s = vol_diffusion(z, params)
        return s, n + s if n >= 0.0 else c * z * (z / (s - n))

    s_lo, g_lo = ends(lo)
    s_hi, g_hi = ends(hi)
    t = lo / hi
    den = (s_lo + t * s_hi) * g_hi
    if den == 0.0 or g_lo == 0.0:
        raise NumericalError(f"the rate integral underflows at omega = {params.omega}")
    x = params.omega * ((hi - lo) / lo) * (g_lo + t * g_hi) / den
    if x < math.inf:
        return math.log1p(x) / params.omega
    return (math.log(g_lo / g_hi) + math.log(hi) - math.log(lo)) / params.omega


def rate_integral(lo: float, hi: float, params: SabrParams, caps: CapSpec) -> float:
    """Integral of 1 / (z * capped_vol_diffusion(z)) over [lo, hi].

    This is the quantity whose square (halved) is the rate function and
    whose reciprocal shapes the limiting smile.  Closed form, split
    additively at the cap binding level:

    * below the binding level the capped diffusion equals the uncapped
      one, whose antiderivative is -log((omega + rho*(beta-1)*z
      + vol_diffusion(z)) / z) / omega, evaluated without cancellation
      by :func:`_uncapped_rate_integral`;
    * above it the diffusion is pinned at the cap and the integral is a
      plain logarithm divided by the cap.

    Every finite 0 < lo <= hi, subnormal or huge, gives a finite value
    >= 0, to a few ulps, while omega**2 is a normal float (omega above
    about 1e-154); hi = inf gives the limit inf.

    Parameters
    ----------
    lo, hi : float
        Integration bounds, 0 < lo <= hi, lo finite.

    Raises
    ------
    ValueError
        If lo is not finite and > 0, or hi is not inf or a float >= lo.
    NumericalError
        If the antiderivative's terms underflow to 0 at a smaller omega.
    """
    lo = positive_float(lo, "lower bound")
    hi = hi if hi == math.inf else positive_float(hi, "upper bound")
    if not lo <= hi:
        raise ValueError(f"bounds are reversed: [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    split = caps.binding_level(params)
    total = 0.0
    if lo < split:
        total += _uncapped_rate_integral(lo, min(hi, split), params)
    if hi > split:
        total += _log_ratio(hi, max(lo, split)) / caps.vol_cap
    return total


def rate_function(strike: float, params: SabrParams, caps: CapSpec) -> float:
    """Large-deviations rate of OTM VIX option prices at this strike.

    Returns 0.5 * rate_integral(min(K, v0), max(K, v0))**2, or inf where
    that square leaves the float range.  Vanishes at
    the money, grows in both directions, and is continuous across the
    cap binding level because the underlying integral is split there
    additively.  Covers all relative positions of the strike, the spot
    volatility and the binding level (six branches in total) through the
    single split rule in :func:`rate_integral`.  ``strike = inf`` gives
    the limit inf.
    """
    strike = strike if strike == math.inf else positive_float(strike, "strike")
    lo, hi = min(strike, params.v0), max(strike, params.v0)
    integral = rate_integral(lo, hi, params, caps)
    # float ** raises OverflowError exactly above sqrt(float max)
    return 0.5 * integral ** 2 if integral <= math.sqrt(sys.float_info.max) else math.inf


def limiting_implied_vol(strike: float, params: SabrParams, caps: CapSpec) -> float:
    """Short-maturity limit of the VIX implied volatility at a strike.

    Harmonic-mean-type formula: |log(K / v0)| divided by the rate
    integral between v0 and K.  At the money the removable singularity
    is continued by its limit, capped_vol_diffusion(v0), and the result
    is consistent with the rate function through

        limiting_implied_vol(K)**2 == log(K/v0)**2 / (2 * rate_function(K)).
    """
    strike = positive_float(strike, "strike")
    x = _log_ratio(strike, params.v0)
    if _at_the_money(x):
        return capped_vol_diffusion(params.v0, params, caps)
    lo, hi = min(strike, params.v0), max(strike, params.v0)
    return abs(x) / rate_integral(lo, hi, params, caps)


def smile_expansion(params: SabrParams) -> SmileExpansion:
    """ATM level, skew and convexity of the limiting smile.

    Valid when the caps do not bind near v0 (binding level above v0),
    since the expansion differentiates the uncapped diffusion.  The
    level is sigma0 = vol_diffusion(v0); skew and convexity are rational
    functions of the parameters, written in r = (beta-1)*v0/sigma0 and
    s = omega/sigma0:

        skew = sigma0 * r * (rho*s + r) / 2

        convexity = (beta-1)*v0 * (2*rho*s**3 + (4+rho**2)*s**2*r
                    + 4*rho*s*r**2 + r**3) / 6

    Both are positive for beta < 1 and rho < 0.  |r| and s are at most
    1 / sqrt(1 - rho**2), as sigma0 >= |beta-1| * v0 * sqrt(1 - rho**2)
    and sigma0 >= omega * sqrt(1 - rho**2), so no term overflows, up to
    the largest v0.  The expansion is validated against central
    differences of :func:`limiting_implied_vol` in the test suite.
    """
    rho = params.rho
    b1v0 = (params.beta - 1.0) * params.v0
    sigma0 = vol_diffusion(params.v0, params)
    r = b1v0 / sigma0
    s = params.omega / sigma0
    skew = sigma0 * r * (rho * s + r) / 2.0
    convexity = b1v0 * (2.0 * rho * s**3 + (4.0 + rho**2) * s**2 * r
                        + 4.0 * rho * s * r**2 + r**3) / 6.0
    return SmileExpansion(atm_level=sigma0, skew=skew, convexity=convexity)
