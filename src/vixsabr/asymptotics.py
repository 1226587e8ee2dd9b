"""Short-maturity asymptotics of the VIX smile under the capped model.

Out-of-the-money VIX option prices decay exponentially as the maturity
shrinks, at a rate given by a large-deviations rate function.  The rate
function, the limiting implied-volatility curve it induces, and the
level/skew/convexity expansion of that curve at the money are all
available in closed form; this module implements them.

The closed forms are hand-derived antiderivatives and are cross-checked
against adaptive quadrature of the defining integrals in the test suite;
the two routes are kept independent on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import CapSpec, SabrParams, vol_diffusion
from .scale import NumericalError

__all__ = [
    "SmileExpansion",
    "rate_integral",
    "rate_function",
    "limiting_implied_vol",
    "smile_expansion",
]

# Below this threshold on |log(K / v0)| the strike counts as at the money
# and the limiting implied vol is continued by its ATM value, avoiding a
# 0/0 evaluation of the harmonic-mean formula.
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


def _speed_ratio(v: float, params: SabrParams) -> float:
    """Argument of the inverse hyperbolic tangent in the closed form.

    Equals (rho*(beta-1)*v + omega) / vol_diffusion(v), which lies
    strictly inside (-1, 1) for every v > 0 and |rho| < 1.
    """
    return (params.rho * (params.beta - 1.0) * v + params.omega) / vol_diffusion(
        v, params
    )


def _atanh_diff(u: float, w: float, params: SabrParams) -> float:
    """atanh(_speed_ratio(u)) - atanh(_speed_ratio(w)), stable form.

    The two arctanh values are both large and nearly equal when u and w
    are close (the finite-difference regime of the smile expansion), so
    subtracting them directly loses most of the precision.  The
    subtraction identity atanh(p) - atanh(q) = atanh((p-q)/(1-p*q)) is
    used instead, with p - q and 1 - p*q expanded analytically so that
    no term subtracts nearly equal numbers:

        p - q     = (rho^2-1)*b^2*omega*(u-w)*(omega*(u+w) + 2*rho*b*u*w)
                    / (s_u*s_w*(n_u*s_w + n_w*s_u))
        1 - p*q   = c*(u^2*n_w^2 + w^2*n_u^2 + c*u^2*w^2)
                    / (s_u*s_w*(s_u*s_w + n_u*n_w))

    where b = beta-1, c = b^2*(1-rho^2), n_v = rho*b*v + omega and s_v
    the diffusion coefficient at v.
    """
    b = params.beta - 1.0
    rho = params.rho
    omega = params.omega
    c = b * b * (1.0 - rho * rho)
    n_u = rho * b * u + omega
    n_w = rho * b * w + omega
    s_u = vol_diffusion(u, params)
    s_w = vol_diffusion(w, params)
    p_minus_q = (
        (rho * rho - 1.0)
        * b
        * b
        * omega
        * (u - w)
        * (omega * (u + w) + 2.0 * rho * b * u * w)
        / (s_u * s_w * (n_u * s_w + n_w * s_u))
    )
    one_minus_pq = (
        c
        * (u * u * n_w * n_w + w * w * n_u * n_u + c * u * u * w * w)
        / (s_u * s_w * (s_u * s_w + n_u * n_w))
    )
    return math.atanh(p_minus_q / one_minus_pq)


def rate_integral(lo: float, hi: float, params: SabrParams, caps: CapSpec) -> float:
    """Integral of 1 / (z * capped_vol_diffusion(z)) over [lo, hi].

    This is the quantity whose square (halved) is the rate function and
    whose reciprocal shapes the limiting smile.  Closed form, split
    additively at the cap binding level:

    * below the binding level the capped diffusion equals the uncapped
      one and the antiderivative is -arctanh(_speed_ratio(z)) / omega;
    * above it the diffusion is pinned at the cap and the integral is a
      plain logarithm divided by the cap.

    Parameters
    ----------
    lo, hi : float
        Integration bounds, 0 < lo <= hi.

    Raises
    ------
    ValueError
        If lo <= 0 or lo > hi.
    NumericalError
        If the speed ratio leaves (-1, 1), where arctanh is undefined.
    """
    if lo <= 0.0:
        raise ValueError(f"lower bound must be > 0, got {lo}")
    if lo > hi:
        raise ValueError(f"bounds are reversed: [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    split = caps.binding_level
    total = 0.0
    if lo < split:
        upper = min(hi, split)
        g_lo = _speed_ratio(lo, params)
        g_hi = _speed_ratio(upper, params)
        if not (-1.0 < g_lo < 1.0 and -1.0 < g_hi < 1.0):
            raise NumericalError(
                f"speed ratio outside (-1, 1) on [{lo}, {upper}]: "
                f"{g_lo}, {g_hi}"
            )
        total += _atanh_diff(lo, upper, params) / params.omega
    if hi > split:
        total += math.log(hi / max(lo, split)) / caps.vol_cap
    return total


def rate_function(strike: float, params: SabrParams, caps: CapSpec) -> float:
    """Large-deviations rate of OTM VIX option prices at this strike.

    Returns 0.5 * rate_integral(min(K, v0), max(K, v0))**2.  Vanishes at
    the money, grows in both directions, and is continuous across the
    cap binding level because the underlying integral is split there
    additively.  Covers all relative positions of the strike, the spot
    volatility and the binding level (six branches in total) through the
    single split rule in :func:`rate_integral`.
    """
    if strike <= 0.0:
        raise ValueError(f"strike must be > 0, got {strike}")
    lo, hi = min(strike, params.v0), max(strike, params.v0)
    return 0.5 * rate_integral(lo, hi, params, caps) ** 2


def limiting_implied_vol(strike: float, params: SabrParams, caps: CapSpec) -> float:
    """Short-maturity limit of the VIX implied volatility at a strike.

    Harmonic-mean-type formula: |log(K / v0)| divided by the rate
    integral between v0 and K.  At the money the removable singularity
    is continued by vol_diffusion(v0), and the result is consistent with
    the rate function through

        limiting_implied_vol(K)**2 == log(K/v0)**2 / (2 * rate_function(K)).
    """
    if strike <= 0.0:
        raise ValueError(f"strike must be > 0, got {strike}")
    x = math.log(strike / params.v0)
    if abs(x) < _ATM_LOG_THRESHOLD:
        return vol_diffusion(params.v0, params)
    lo, hi = min(strike, params.v0), max(strike, params.v0)
    return abs(x) / rate_integral(lo, hi, params, caps)


def smile_expansion(params: SabrParams) -> SmileExpansion:
    """ATM level, skew and convexity of the limiting smile.

    Valid when the caps do not bind near v0 (binding level above v0),
    since the expansion differentiates the uncapped diffusion.  The
    level is vol_diffusion(v0); skew and convexity are rational
    functions of the parameters:

        skew = v0*(beta-1)*(rho*omega + (beta-1)*v0) / (2*sigma0)

        convexity = v0*(beta-1) * (2*omega**3*rho
                    + (beta-1)*omega**2*(4+rho**2)*v0
                    + 4*(beta-1)**2*omega*rho*v0**2
                    + (beta-1)**3*v0**3) / (6*sigma0**3)

    with sigma0 = vol_diffusion(v0).  Both are positive for beta < 1 and
    rho < 0.  The expansion is validated against central differences of
    :func:`limiting_implied_vol` in the test suite.
    """
    v0, rho, omega = params.v0, params.rho, params.omega
    b1 = params.beta - 1.0
    sigma0 = vol_diffusion(v0, params)
    skew = v0 * b1 * (rho * omega + b1 * v0) / (2.0 * sigma0)
    bracket = (
        2.0 * omega**3 * rho
        + b1 * omega**2 * (4.0 + rho**2) * v0
        + 4.0 * b1**2 * omega * rho * v0**2
        + b1**3 * v0**3
    )
    convexity = v0 * b1 * bracket / (6.0 * sigma0**3)
    return SmileExpansion(atm_level=sigma0, skew=skew, convexity=convexity)
