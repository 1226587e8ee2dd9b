"""Scale-function analysis of the uncapped volatility process.

For rho < 0 the lognormal volatility process explodes to +infinity in
finite time with positive probability.  This module makes that analysis
computable:

* closed form of the exponent appearing in the scale density,
* the scale function itself with its finite limit and tail fit,
* its inverse and the natural-scale diffusion coefficient,
* the Feller test function whose finiteness at +infinity certifies
  explosion, and
* a diagnostic for the martingale property of the asset price, which
  reduces to non-explosion of an auxiliary diffusion.

All quadrature is adaptive (scipy.integrate.quad) over geometric decade
segments so that integrals to very large truncation points converge
without wasted refinement.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import integrate, optimize

from .model import SabrParams, vol_diffusion

__all__ = [
    "QuadratureConfig",
    "ScaleReport",
    "TailFit",
    "EnvelopeReport",
    "BoundaryClass",
    "NumericalError",
    "vol_variance",
    "scale_exponent",
    "envelope_constant",
    "check_scale_density_envelope",
    "scale_function",
    "scale_function_limit",
    "scale_function_inverse",
    "natural_scale_volatility",
    "feller_test_function",
    "feller_origin_diverges",
    "explosion_verdict",
    "classify_boundary",
    "auxiliary_scale_exponent",
    "martingale_diagnostic",
]


class NumericalError(RuntimeError):
    """Raised when quadrature fails to converge, a tail fit is rejected, or
    a closed form is evaluated outside its domain."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits shared by all quadrature-based routines.

    ``max_subdivisions`` is a total budget distributed over the decade
    segments of each integral; ``large_x`` is the truncation point used
    as a stand-in for +infinity in tail diagnostics.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 1_000_000
    large_x: float = 1e6

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("abs_tol and rel_tol must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if not self.large_x > 0.0:
            raise ValueError("large_x must be > 0")


class BoundaryClass(Enum):
    """Diffusion boundary classification of an endpoint."""

    REGULAR = "regular"
    EXIT = "exit"
    NATURAL = "natural"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class TailFit:
    """Result of extrapolating the scale function to x = +infinity.

    ``limit`` is the extrapolated finite limit, ``coefficient`` the
    fitted tail coefficient in limit - coefficient * x**(-1/(1-beta)),
    and ``residual`` the relative fit residual.
    """

    limit: float
    coefficient: float
    residual: float


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome of the pointwise scale-density envelope check."""

    holds: bool
    max_violation: float
    worst_x: float

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class ScaleReport:
    """Summary of the explosion analysis for one parameter set."""

    scale_limit: float
    tail_coefficient: float
    envelope_constant: float
    feller_tail_value: float
    explosion_flag: bool
    boundary_class: BoundaryClass

    def to_dict(self) -> dict:
        return {
            "scale_limit": self.scale_limit,
            "tail_coefficient": self.tail_coefficient,
            "envelope_constant": self.envelope_constant,
            "feller_tail_value": self.feller_tail_value,
            "explosion_flag": self.explosion_flag,
            "boundary_class": self.boundary_class.value,
        }


def vol_variance(x, params: SabrParams):
    """Squared diffusion coefficient of the volatility process.

    Evaluates the quadratic omega^2 + 2*rho*(beta-1)*omega*x +
    (1-beta)^2 * x^2, which equals vol_diffusion(x)**2 and is strictly
    positive for every real x when |rho| < 1.
    """
    x = np.asarray(x, dtype=float)
    b1 = 1.0 - params.beta
    val = params.omega**2 - 2.0 * params.rho * b1 * params.omega * x + (b1 * x) ** 2
    return val if val.ndim else float(val)


def scale_exponent(x, params: SabrParams):
    """Closed form of the integral of drift over variance.

    Returns the antiderivative, vanishing at 0, of the level-space drift
    divided by the level-space variance:

        integral_0^x (cubic * y + quadratic) / vol_variance(y) dy

    with (cubic, quadratic) the drift polynomial coefficients.  The
    scale density of the volatility process is exp(-2 * scale_exponent).

    The closed form combines a log of the variance quadratic with an
    arctan term and is valid for every rho in (-1, 1); it matches
    adaptive quadrature of the defining integral to full precision.
    """
    x = np.asarray(x, dtype=float)
    beta, rho, omega = params.beta, params.rho, params.omega
    b1 = 1.0 - beta
    rp = params.rho_perp
    ratio = vol_variance(x, params) / omega**2
    log_term = (2.0 - beta) / (4.0 * b1) * np.log(ratio)
    arctan_term = (beta * rho / (2.0 * b1 * rp)) * (
        np.arctan((b1 * x - rho * omega) / (omega * rp)) + math.atan(rho / rp)
    )
    val = log_term + arctan_term
    return val if val.ndim else float(val)


def envelope_constant(params: SabrParams) -> float:
    """Multiplicative constant bounding the scale density envelope.

    Equals exp(pi/2 * beta/(1-beta) * |rho|/sqrt(1-rho^2)); it is 1
    exactly at beta = 0 and > 1 for beta > 0.
    """
    b = params.beta
    return math.exp(
        0.5 * math.pi * b / (1.0 - b) * abs(params.rho) / params.rho_perp
    )


def check_scale_density_envelope(
    x_grid, params: SabrParams, tol: float = 1e-12
) -> EnvelopeReport:
    """Check the two-sided power-law envelope of the scale density.

    On log scale the claim is, with c2 = (2-beta)/(2*(1-beta)) and
    kappa the envelope constant,

        0 <= -2*scale_exponent(x) + c2*log(vol_variance(x)/omega^2)
          <= log(kappa)

    pointwise.  Returns an :class:`EnvelopeReport`; ``holds`` is true
    when no grid point violates either inequality by more than ``tol``.

    Raises
    ------
    ValueError
        If rho >= 0 (the envelope is derived for negative correlation).
    """
    if params.rho >= 0.0:
        raise ValueError("envelope check requires rho < 0")
    x = np.atleast_1d(np.asarray(x_grid, dtype=float))
    c2 = (2.0 - params.beta) / (2.0 * (1.0 - params.beta))
    gap = -2.0 * scale_exponent(x, params) + c2 * np.log(
        vol_variance(x, params) / params.omega**2
    )
    log_kappa = math.log(envelope_constant(params))
    violation = np.maximum(-gap, gap - log_kappa)
    worst = int(np.argmax(violation))
    max_violation = float(violation[worst]) if violation[worst] > 0.0 else 0.0
    return EnvelopeReport(
        holds=max_violation <= tol,
        max_violation=max_violation,
        worst_x=float(x[worst]),
    )


def _decade_edges(lo: float, hi: float) -> list[float]:
    """Split points of [lo, hi] at powers of ten (geometric segments)."""
    edges = [lo]
    anchor = max(lo, 1e-8)
    if hi > 10.0 * anchor:
        k = math.floor(math.log10(anchor)) + 1
        e = 10.0**k
        while e < hi:
            if e > lo:
                edges.append(e)
            e *= 10.0
    edges.append(hi)
    return edges


def _segmented_quad(integrand, lo, hi, quad: QuadratureConfig, cancel=None) -> float:
    """Adaptive quadrature on [lo, hi] split into decade segments.

    Raises :class:`NumericalError` if any segment fails to converge, and
    checks the optional ``cancel`` callable between segments.
    """
    if hi < lo:
        raise ValueError(f"integration range is reversed: [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    edges = _decade_edges(lo, hi)
    nseg = len(edges) - 1
    limit = int(min(10_000, max(50, quad.max_subdivisions // nseg)))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if cancel is not None and cancel():
            raise NumericalError("quadrature cancelled")
        out = integrate.quad(
            integrand,
            a,
            b,
            epsabs=quad.abs_tol / nseg,
            epsrel=quad.rel_tol,
            limit=limit,
            full_output=1,
        )
        if len(out) > 3:
            raise NumericalError(f"quadrature failed on [{a}, {b}]: {out[3]}")
        total += out[0]
    return total


def scale_function(
    x, params: SabrParams, quad: QuadratureConfig | None = None, cancel=None
):
    """Scale function of the volatility process, anchored at 0.

    Integrates exp(-2 * scale_exponent) from 0 to x by adaptive
    quadrature.  Monotone increasing with scale_function(0) = 0; for
    rho < 0 it stays bounded as x grows (see
    :func:`scale_function_limit`).
    """
    quad = quad or QuadratureConfig()
    integrand = lambda y: math.exp(-2.0 * scale_exponent(y, params))
    if np.ndim(x) == 0:
        if x < 0.0:
            raise ValueError(f"x must be >= 0, got {x}")
        return _segmented_quad(integrand, 0.0, float(x), quad, cancel)
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0):
        raise ValueError("x must be >= 0")
    order = np.argsort(xs)
    out = np.empty_like(xs)
    total, prev = 0.0, 0.0
    for i in order:
        total += _segmented_quad(integrand, prev, float(xs[i]), quad, cancel)
        prev = float(xs[i])
        out[i] = total
    return out


# Geometric grid used for the tail extrapolation of the scale function:
# half-decade spacing from 1e2 to 1e6, fitted on the 5 largest points.
_TAIL_GRID = 10.0 ** np.arange(2.0, 6.01, 0.5)
_TAIL_FIT_POINTS = 5
_TAIL_FIT_RTOL = 1e-6


def scale_function_limit(
    params: SabrParams, quad: QuadratureConfig | None = None, cancel=None
) -> TailFit:
    """Extrapolated limit of the scale function at x = +infinity.

    Computes the scale function on a geometric grid and fits the exact
    tail form  limit - coefficient * x**(-1/(1-beta))  to the largest
    grid points by linear least squares.

    Raises
    ------
    NumericalError
        If the relative fit residual exceeds 1e-6, which signals that
        the tail has not reached its asymptotic regime.
    ValueError
        If rho >= 0 (the limit is finite only for negative correlation).
    """
    if params.rho >= 0.0:
        raise ValueError("scale function limit requires rho < 0")
    quad = quad or QuadratureConfig()
    values = scale_function(_TAIL_GRID, params, quad, cancel)
    xs = _TAIL_GRID[-_TAIL_FIT_POINTS:]
    ys = values[-_TAIL_FIT_POINTS:]
    design = np.column_stack([np.ones_like(xs), -(xs ** (-1.0 / (1.0 - params.beta)))])
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    limit, coefficient = float(coef[0]), float(coef[1])
    residual = float(np.max(np.abs(design @ coef - ys))) / abs(limit)
    if residual > _TAIL_FIT_RTOL:
        raise NumericalError(
            f"scale-function tail fit residual {residual:.2e} exceeds "
            f"{_TAIL_FIT_RTOL:.0e}; tail regime not reached"
        )
    return TailFit(limit=limit, coefficient=coefficient, residual=residual)


def scale_function_inverse(
    y,
    params: SabrParams,
    quad: QuadratureConfig | None = None,
    limit: float | None = None,
):
    """Inverse of the scale function by bracketed root finding.

    Parameters
    ----------
    y : float
        Target value, 0 <= y < limit of the scale function.
    limit : float, optional
        Precomputed scale-function limit; computed on demand otherwise.

    Raises
    ------
    ValueError
        If y is negative or >= the scale-function limit.
    """
    quad = quad or QuadratureConfig()
    if y < 0.0:
        raise ValueError(f"y must be >= 0, got {y}")
    if y == 0.0:
        return 0.0
    if limit is None:
        limit = scale_function_limit(params, quad).limit
    if y >= limit:
        raise ValueError(f"y={y} is not below the scale-function limit {limit}")
    hi = 1.0
    while scale_function(hi, params, quad) < y:
        hi *= 2.0
        if hi > 1e12:
            raise NumericalError("failed to bracket the scale-function inverse")
    return float(
        optimize.brentq(
            lambda x: scale_function(x, params, quad) - y,
            0.0,
            hi,
            xtol=1e-14,
            rtol=8.9e-16,
        )
    )


def natural_scale_volatility(
    y,
    params: SabrParams,
    quad: QuadratureConfig | None = None,
    limit: float | None = None,
):
    """Diffusion coefficient of the volatility process in natural scale.

    For y strictly between 0 and the scale-function limit this is
    exp(-2*scale_exponent(q)) * q * vol_diffusion(q) with q the
    scale-function inverse of y; outside that open interval it is 0 by
    definition.
    """
    quad = quad or QuadratureConfig()
    if limit is None:
        limit = scale_function_limit(params, quad).limit
    if y <= 0.0 or y >= limit:
        return 0.0
    q = scale_function_inverse(y, params, quad, limit=limit)
    return math.exp(-2.0 * scale_exponent(q, params)) * q * vol_diffusion(q, params)


class _FellerEvaluator:
    """Incremental evaluator of the Feller test double integral.

    The outer integrand at y is scale_density(y) * inner(y) where
    inner(y) integrates 2 / (scale_density * level_variance) from the
    origin cutoff up to y.  Inner values are cached at every evaluation
    point in sorted order, so extending to a new y only integrates the
    gap from the nearest cached point below.  Instances are single-use
    and not shared across threads.
    """

    def __init__(self, params: SabrParams, quad: QuadratureConfig, cutoff: float):
        self._params = params
        self._quad = quad
        self._ys = [cutoff]
        self._vals = [0.0]

    def _inner_integrand(self, z: float) -> float:
        p = self._params
        return (
            2.0
            * math.exp(2.0 * scale_exponent(z, p))
            / (z * z * vol_variance(z, p))
        )

    def inner(self, y: float) -> float:
        i = bisect.bisect_right(self._ys, y) - 1
        if i < 0:
            raise ValueError(f"inner integral requested below cutoff: {y}")
        base_y, base_val = self._ys[i], self._vals[i]
        if y == base_y:
            return base_val
        val = base_val + _segmented_quad(
            self._inner_integrand, base_y, y, self._quad
        )
        self._ys.insert(i + 1, y)
        self._vals.insert(i + 1, val)
        return val

    def outer(self, lo: float, hi: float, cancel=None) -> float:
        integrand = lambda y: (
            math.exp(-2.0 * scale_exponent(y, self._params)) * self.inner(y)
        )
        return _segmented_quad(integrand, lo, hi, self._quad, cancel)


def feller_test_function(
    x,
    params: SabrParams,
    quad: QuadratureConfig | None = None,
    origin_cutoff: float | None = None,
    cancel=None,
):
    """Feller test function of the volatility process.

    Nested integral, from a small cutoff c up to x, of the scale density
    times the inner integral of 2 / (scale_density * level_variance).
    Finiteness of its limit as x grows certifies explosion; divergence
    at the origin is certified separately by
    :func:`feller_origin_diverges` because the inner integrand blows up
    like 2/(omega^2 z^2) there and brute quadrature of a known
    divergence is wasted effort.

    ``x`` may be a scalar or an array; array evaluation shares one
    incremental cache, which is dramatically faster for the increasing
    sequences used by the stabilization test.  The cutoff defaults to
    0.01 * v0.
    """
    quad = quad or QuadratureConfig()
    cutoff = 0.01 * params.v0 if origin_cutoff is None else origin_cutoff
    if cutoff <= 0.0:
        raise ValueError(f"origin cutoff must be > 0, got {cutoff}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= cutoff):
        raise ValueError(f"x must exceed the origin cutoff {cutoff}")
    evaluator = _FellerEvaluator(params, quad, cutoff)
    order = np.argsort(xs)
    out = np.empty_like(xs)
    total, prev = 0.0, cutoff
    for i in order:
        total += evaluator.outer(prev, float(xs[i]), cancel)
        prev = float(xs[i])
        out[i] = total
    return out if np.ndim(x) else float(out[0])


def feller_origin_diverges(params: SabrParams) -> bool:
    """Certify that the Feller test function diverges at the origin.

    Near 0 the inner integrand behaves like 2/(omega^2 z^2); its
    integral from 0 therefore diverges like 1/z.  The check fits the
    local log-log slope of the integrand at a sequence of vanishing z
    and reports divergence when the slope is <= -1 (non-integrable
    power).  For the model coefficients the slope tends to -2.
    """
    z = params.v0 * 10.0 ** -np.arange(4.0, 9.0)
    vals = (
        2.0
        * np.exp(2.0 * scale_exponent(z, params))
        / (z * z * vol_variance(z, params))
    )
    slopes = np.diff(np.log(vals)) / np.diff(np.log(z))
    return bool(np.all(slopes <= -1.0))


# Relative stabilization tolerance for the Feller tail: increments of the
# test function across the two largest decades must fall below
# max(abs_tol, 1e-4 * value).
_STABILIZATION_RTOL = 1e-4


def explosion_verdict(
    params: SabrParams, quad: QuadratureConfig | None = None, cancel=None
) -> ScaleReport:
    """Run the full explosion analysis and return a :class:`ScaleReport`.

    The verdict is positive (explosion with non-zero probability) when
    the Feller test function diverges at the origin and stabilizes at
    the truncation tail: |nu(10X) - nu(X)| < max(abs_tol, 1e-4 * nu(X))
    across the two largest decades up to ``quad.large_x``.

    Raises
    ------
    ValueError
        If rho >= 0; the analysis applies to negative correlation only.
    """
    if params.rho >= 0.0:
        raise ValueError("explosion analysis requires rho < 0")
    quad = quad or QuadratureConfig()
    fit = scale_function_limit(params, quad, cancel)
    tail_x = np.array([quad.large_x / 100.0, quad.large_x / 10.0, quad.large_x])
    nu = feller_test_function(tail_x, params, quad, cancel=cancel)
    increments = np.abs(np.diff(nu))
    allowed = np.maximum(quad.abs_tol, _STABILIZATION_RTOL * nu[:-1])
    stabilized = bool(np.all(increments < allowed))
    explodes = stabilized and feller_origin_diverges(params)
    return ScaleReport(
        scale_limit=fit.limit,
        tail_coefficient=fit.coefficient,
        envelope_constant=envelope_constant(params),
        feller_tail_value=float(nu[-1]),
        explosion_flag=explodes,
        boundary_class=classify_boundary(params),
    )


def classify_boundary(params: SabrParams, endpoint: str = "limit") -> BoundaryClass:
    """Classify a boundary of the volatility process in natural scale.

    ``endpoint="limit"`` classifies the finite upper endpoint (the
    scale-function limit): regular for beta in (0, 1/2), exit for beta
    in [1/2, 1), and a distinguished UNCLASSIFIED value at beta = 0,
    which the analysis leaves open.  ``endpoint="origin"`` always
    reports a natural boundary.
    """
    if endpoint == "origin":
        return BoundaryClass.NATURAL
    if endpoint != "limit":
        raise ValueError(f"endpoint must be 'limit' or 'origin', got {endpoint!r}")
    if params.beta == 0.0:
        return BoundaryClass.UNCLASSIFIED
    if params.beta < 0.5:
        return BoundaryClass.REGULAR
    return BoundaryClass.EXIT


def auxiliary_scale_exponent(x, params: SabrParams):
    """Closed-form exponent of the auxiliary scale density used by the
    martingale diagnostic.

    Antiderivative, vanishing at 0 and valid for every real x, of

        2*beta*(0.5*(1-beta)*y - rho) / vol_variance(y).

    The asset price is a true martingale precisely when the auxiliary
    diffusion in this scale does not explode, i.e. when the integral of
    exp(auxiliary_scale_exponent) diverges at both +infinity and
    -infinity.
    """
    x = np.asarray(x, dtype=float)
    beta, rho, omega = params.beta, params.rho, params.omega
    b1 = 1.0 - beta
    rp = params.rho_perp
    log_term = (beta / (2.0 * b1)) * np.log(vol_variance(x, params) / omega**2)
    arctan_term = (beta * rho * (omega - 2.0) / (b1 * omega * rp)) * (
        np.arctan((b1 * x - rho * omega) / (omega * rp)) + math.atan(rho / rp)
    )
    val = log_term + arctan_term
    return val if val.ndim else float(val)


def martingale_diagnostic(
    params: SabrParams, quad: QuadratureConfig | None = None, cancel=None
) -> bool:
    """True when the asset price is a true martingale.

    Integrates the auxiliary scale density exp(auxiliary_scale_exponent)
    outward in both directions and checks that the increments across
    successive decades up to ``quad.large_x`` keep growing, i.e. the
    auxiliary scale function diverges at both infinities.  For beta < 1
    this holds for every admissible parameter set; at beta = 0 the
    density is identically 1 and the increments grow exactly tenfold.
    """
    quad = quad or QuadratureConfig()
    marks = [quad.large_x / 100.0, quad.large_x / 10.0, quad.large_x]
    for sign in (1.0, -1.0):
        integrand = lambda u: math.exp(auxiliary_scale_exponent(sign * u, params))
        increments = [
            _segmented_quad(integrand, lo, hi, quad, cancel)
            for lo, hi in zip(marks[:-1], marks[1:])
        ]
        if not (increments[0] > 0.0 and increments[1] >= increments[0]):
            return False
    return True
