"""Scale-function analysis of the uncapped volatility process.

For rho < 0 the lognormal volatility process explodes to +infinity in
finite time with positive probability.  This module makes that analysis
computable:

* closed form of the exponent appearing in the scale density,
* the scale function itself with its finite limit and tail fit,
* the Feller test function, whose divergence at the origin and
  finiteness at +infinity certify explosion, and
* a diagnostic for the martingale property of the asset price, which
  reduces to non-explosion of an auxiliary diffusion.

Both verdicts are read from the tails a*log|x| + C of the exponents.

Integrals run over geometric decade segments so that integrals to very
large truncation points converge without wasted refinement.  The scale
function uses adaptive quadrature (scipy.integrate.quad) on each
segment.  The Feller test function, a double integral, is one cumulative
Gauss-Legendre pass in u = log y: every segment is evaluated as numpy
arrays at two orders, and bisected when they disagree.  The pass carries
the inner integral times the scale density, so none of its exponentials
overflows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np
from scipy import integrate

from .model import NumericalError, SabrParams, vol_variance

__all__ = [
    "ScaleReport",
    "TailFit",
    "EnvelopeReport",
    "BoundaryClass",
    "NumericalError",
    "scale_exponent",
    "envelope_constant",
    "check_scale_density_envelope",
    "scale_function",
    "scale_function_limit",
    "feller_test_function",
    "explosion_verdict",
    "classify_boundary",
    "auxiliary_scale_exponent",
    "martingale_diagnostic",
]


# Tolerances shared by all quadrature-based routines.  _MAX_SUBDIVISIONS
# bounds the bisections of the Feller pass, and _SEGMENT_SUBDIVISIONS
# those of adaptive quad on each decade segment; passing models need at
# most 4 per segment (over 1200 random models, beta up to 0.9999999), so
# an integrand that quad cannot resolve fails fast.  _LARGE_X is the
# point at which the reported Feller tail value is evaluated, and
# _FELLER_BASE the base point of the Feller test function.
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 1_000_000
_SEGMENT_SUBDIVISIONS = 1_000
_LARGE_X = 1e6
_FELLER_BASE = 1e-3


class BoundaryClass(Enum):
    """Diffusion boundary classification of an endpoint."""

    REGULAR = "regular"
    EXIT = "exit"
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
        return {**asdict(self), "boundary_class": self.boundary_class.value}


def _points(x, rule: str, base: float = 0.0) -> np.ndarray:
    """``x`` as a 1-d float array.  Unless every point is finite and
    >= 0, or > ``base`` when that is positive, it is refused, before any
    quadrature, with a message that x must be ``rule``."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    bad = ~(((xs > base) if base else (xs >= 0.0)) & (xs < math.inf))
    if bad.any():
        raise ValueError(f"x must be {rule}, got {xs[bad][0]}")
    return xs


def _log_arctan(x, coefficients, params: SabrParams):
    """A*log(vol_variance(x)/omega^2) + B*(arctan((b1*x - rho*omega) /
    (omega*rho_perp)) + arcsin(rho)) for (A, B) = ``coefficients`` and
    b1 = 1 - beta: the shape of both closed-form exponents.  Raises
    :class:`NumericalError` where it is not finite, as when a tiny omega
    makes vol_variance(x)/omega^2 overflow."""
    x = np.asarray(x, dtype=float)
    log_coef, arctan_coef = coefficients
    rho, omega, rp = params.rho, params.omega, params.rho_perp
    b1 = 1.0 - params.beta
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_term = log_coef * np.log(np.divide(vol_variance(x, params), omega**2))
        arctan_term = arctan_coef * (np.arctan((b1 * x - rho * omega) / (omega * rp))
                                     + math.atan(rho / rp))
        val = log_term + arctan_term
    if not np.all(np.isfinite(val)):
        raise NumericalError(f"closed-form exponent is not finite at omega = {omega}")
    return val if val.ndim else float(val)


def _tail(coefficients, sign: float, params: SabrParams) -> tuple[float, float]:
    """Power a = 2A and constant C with :func:`_log_arctan` equal to
    a*log|x| + C + O(1/x) as x -> sign*infinity, where the variance is
    ((1-beta)*x)^2 * (1 + O(1/x)) and the arctan tends to sign*pi/2:
    C = a*log((1-beta)/omega) + B*(sign*pi/2 + arcsin(rho))."""
    log_coef, arctan_coef = coefficients
    power = 2.0 * log_coef
    # a difference of logs, so that no ratio overflows
    log_scale = math.log(1.0 - params.beta) - math.log(params.omega)
    return power, power * log_scale + arctan_coef * (
        sign * 0.5 * math.pi + math.asin(params.rho))


def _scale_coefficients(params: SabrParams) -> tuple[float, float]:
    """(A, B) of :func:`scale_exponent` in :func:`_log_arctan`."""
    b1 = 1.0 - params.beta
    return ((2.0 - params.beta) / (4.0 * b1),
            params.beta * params.rho / (2.0 * b1 * params.rho_perp))


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
    return _log_arctan(x, _scale_coefficients(params), params)


def envelope_constant(params: SabrParams) -> float:
    """Multiplicative constant bounding the scale density envelope.

    Equals exp(pi/2 * beta/(1-beta) * |rho|/sqrt(1-rho^2)); it is 1
    exactly at beta = 0 and > 1 for beta > 0.
    """
    b = params.beta
    try:
        return math.exp(
            0.5 * math.pi * b / (1.0 - b) * abs(params.rho) / params.rho_perp
        )
    except OverflowError:
        raise NumericalError(
            f"envelope constant overflows at beta = {b}, rho = {params.rho}"
        ) from None


# Slack allowed to either envelope inequality, for rounding in the
# closed-form exponent.
_ENVELOPE_TOL = 1e-12


def check_scale_density_envelope(x_grid, params: SabrParams) -> EnvelopeReport:
    """Check the two-sided power-law envelope of the scale density.

    On log scale the claim is, with c2 = (2-beta)/(2*(1-beta)) and
    kappa the envelope constant,

        0 <= -2*scale_exponent(x) + c2*log(vol_variance(x)/omega^2)
          <= log(kappa)

    pointwise.  Returns an :class:`EnvelopeReport`; ``holds`` is true
    when no grid point violates either inequality by more than 1e-12.

    Raises
    ------
    ValueError
        If rho >= 0 (the envelope is derived for negative correlation),
        or some x is not finite and >= 0.
    """
    if params.rho >= 0.0:
        raise ValueError("envelope check requires rho < 0")
    x = _points(x_grid, "finite and >= 0")
    c2 = (2.0 - params.beta) / (2.0 * (1.0 - params.beta))
    gap = -2.0 * scale_exponent(x, params) + c2 * np.log(
        vol_variance(x, params) / params.omega**2
    )
    log_kappa = math.log(envelope_constant(params))
    violation = np.maximum(-gap, gap - log_kappa)
    worst = int(np.argmax(violation))
    max_violation = float(violation[worst]) if violation[worst] > 0.0 else 0.0
    return EnvelopeReport(
        holds=max_violation <= _ENVELOPE_TOL,
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


def _segmented_quad(integrand, lo, hi) -> float:
    """Adaptive quadrature on [lo, hi] split into decade segments; raises
    :class:`NumericalError` if any segment fails to converge or its
    integrand overflows."""
    if hi < lo:
        raise ValueError(f"integration range is reversed: [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    edges = _decade_edges(lo, hi)
    nseg = len(edges) - 1
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        try:
            out = integrate.quad(
                integrand,
                a,
                b,
                epsabs=_ABS_TOL / nseg,
                epsrel=_REL_TOL,
                limit=_SEGMENT_SUBDIVISIONS,
                full_output=1,
            )
        except OverflowError:
            raise NumericalError(f"integrand overflows on [{a}, {b}]") from None
        if len(out) > 3:
            # scipy explains a failure over several lines; the first
            # names it, and an error message is one line
            reason = str(out[3]).partition("\n")[0].strip()
            raise NumericalError(f"quadrature failed on [{a}, {b}]: {reason}")
        total += out[0]
    return total


def scale_function(x, params: SabrParams):
    """Scale function of the volatility process, anchored at 0.

    Integrates exp(-2 * scale_exponent) from 0 to x by adaptive
    quadrature on decade segments.  Monotone increasing with
    scale_function(0) = 0; for rho < 0 it stays bounded as x grows (see
    :func:`scale_function_limit`).  Every x must be finite and >= 0.
    """
    integrand = lambda y: math.exp(-2.0 * scale_exponent(y, params))
    xs = _points(x, "finite and >= 0 (its limit at inf is scale_function_limit)")
    order = np.argsort(xs)
    out = np.empty_like(xs)
    total, prev = 0.0, 0.0
    for i in order:
        total += _segmented_quad(integrand, prev, float(xs[i]))
        prev = float(xs[i])
        out[i] = total
    return out if np.ndim(x) else float(out[0])


# Geometric grid used for the tail extrapolation of the scale function:
# half-decade spacing from 1e2 to 1e6, fitted on the 5 largest points.
_TAIL_GRID = 10.0 ** np.arange(2.0, 6.01, 0.5)
_TAIL_FIT_POINTS = 5
_TAIL_FIT_RTOL = 1e-6


def scale_function_limit(params: SabrParams) -> TailFit:
    """Extrapolated limit of the scale function at x = +infinity.

    Computes the scale function on a geometric grid and fits the exact
    tail form  limit - coefficient * x**(-1/(1-beta))  to the largest
    grid points by linear least squares.

    Raises
    ------
    NumericalError
        If the relative fit residual exceeds 1e-6, which signals that
        the tail has not reached its asymptotic regime, or the fitted
        limit is 0 because the scale density underflows.
    ValueError
        If rho >= 0 (the limit is finite only for negative correlation).
    """
    if params.rho >= 0.0:
        raise ValueError("scale function limit requires rho < 0")
    values = scale_function(_TAIL_GRID, params)
    xs = _TAIL_GRID[-_TAIL_FIT_POINTS:]
    ys = values[-_TAIL_FIT_POINTS:]
    design = np.column_stack([np.ones_like(xs), -(xs ** (-1.0 / (1.0 - params.beta)))])
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    limit, coefficient = float(coef[0]), float(coef[1])
    if limit == 0.0:
        raise NumericalError("scale-function tail fit gives a limit of 0.0; "
                             "the scale density underflows")
    residual = float(np.max(np.abs(design @ coef - ys))) / abs(limit)
    if residual > _TAIL_FIT_RTOL:
        raise NumericalError(
            f"scale-function tail fit residual {residual:.2e} exceeds "
            f"{_TAIL_FIT_RTOL:.0e}; tail regime not reached"
        )
    return TailFit(limit=limit, coefficient=coefficient, residual=residual)


def _scaled_inner_integrand(z, phi_z, phi_ref, params: SabrParams):
    """Inner integrand of the Feller test function, 2 / (scale_density(z)
    * z^2 * vol_variance(z)), times scale_density(y) = exp(-2*phi_ref) for
    phi = scale_exponent: phi increases for rho < 0, so with z <= y the
    exponential cannot overflow.  It blows up like 2/(omega^2 z^2) at 0."""
    return (
        2.0
        * np.exp(2.0 * (phi_z - phi_ref))
        / (z * z * vol_variance(z, params))
    )


# Gauss-Legendre rules on [0, 1] used by the Feller test function.  Each
# segment is integrated at both orders; their difference is the error
# estimate, and the higher order is the value kept.
_FELLER_RULES = tuple(
    (0.5 * (nodes + 1.0), 0.5 * weights)
    for nodes, weights in map(np.polynomial.legendre.leggauss, (16, 24))
)


def _feller_segment(
    ua: float, ub: float, base: tuple[float, float], phi_b: float,
    params: SabrParams, rule
) -> tuple[float, float]:
    """Outer and scaled inner increments of the Feller integrals over
    [e^ua, e^ub].

    Integrates in u = log y, so dy = y du.  The inner integral I is
    carried scaled, as J(y) = I(y) * exp(-2*phi(y)); ``base`` is
    (J(e^ua), phi(e^ua)) and ``phi_b`` is phi(e^ub).  J at each outer node
    y_i is the base rescaled plus the same rule mapped onto [ua, log y_i],
    evaluated as one n x n array, and the outer integrand is J(y) * y.
    The inner increment is returned scaled by exp(-2*phi_b).
    """
    t, w = rule
    scaled_base, phi_a = base
    h = ub - ua
    spans = h * t
    y = np.exp(ua + spans)
    z = np.exp(ua + np.multiply.outer(spans, t))
    phi_y = scale_exponent(y, params)
    inner = scaled_base * np.exp(2.0 * (phi_a - phi_y)) + spans * (
        (_scaled_inner_integrand(z, scale_exponent(z, params), phi_y[:, None],
                                 params) * z) @ w)
    outer = h * (w @ (inner * y))
    return outer, h * (w @ (_scaled_inner_integrand(y, phi_y, phi_b, params) * y))


def feller_test_function(x, params: SabrParams):
    """Feller test function of the volatility process.

    Nested integral, from the base point c = 1e-3 up to x, of the scale
    density times the inner integral of 2 / (scale_density *
    level_variance).  Finiteness of its limit as x grows, together with
    divergence at the origin, certifies explosion; the base point is
    arbitrary (Karatzas & Shreve, 1991, Sec. 5.5.C), so the function
    depends on (beta, rho, omega) alone.  :func:`explosion_verdict`
    reads both limits from power laws; the origin is left out because
    the inner integrand blows up like 2/(omega^2 z^2) there and brute
    quadrature of a known divergence is wasted effort.

    ``x`` may be a scalar or an array; all points share one pass.  The
    segments are those of the decade edges from c to max(x), split
    further at every requested x.  Each segment is integrated in
    u = log y by Gauss-Legendre rules of 16 and 24 nodes, and the inner
    integral at each outer node by the same rule, so a segment costs a
    few array calls.  The inner integral is carried times the scale
    density at its upper end, so no exponential overflows for rho < 0.
    A segment whose outer or inner increments differ between the two
    orders by more than max(1e-12 / nseg, 1e-10 * |increment|) (for the
    scaled inner increment, the absolute part scaled alike) is bisected,
    each half getting half the absolute tolerance; the 24-node values
    are kept.

    Raises
    ------
    NumericalError
        If the bisections exceed 1_000_000, or if an integrand is not
        finite.
    ValueError
        If some x is not finite or does not exceed the base point.
    """
    xs = _points(x, f"finite and exceed the base point {_FELLER_BASE}", _FELLER_BASE)
    edges = np.union1d(_decade_edges(_FELLER_BASE, float(xs.max())), xs)
    us = np.log(edges)
    nseg = len(edges) - 1
    totals = np.zeros(len(edges))
    outer_total = 0.0
    # (J, phi) at the left end of the next segment; J(c) = 0
    base = (0.0, scale_exponent(math.exp(us[0]), params))
    bisections = 0
    for k in range(nseg):
        pending = [(us[k], us[k + 1], _ABS_TOL / nseg)]
        while pending:
            ua, ub, abs_tol = pending.pop()
            phi_b = scale_exponent(math.exp(ub), params)
            (outer_lo, inner_lo), (outer, inner) = (
                _feller_segment(ua, ub, base, phi_b, params, rule)
                for rule in _FELLER_RULES
            )
            if not math.isfinite(outer + inner):
                raise NumericalError(
                    f"Feller integrand is not finite on "
                    f"[{math.exp(ua)}, {math.exp(ub)}]"
                )
            inner_tol = abs_tol * math.exp(-2.0 * phi_b)
            if all(
                abs(hi - lo) <= max(tol, _REL_TOL * abs(hi))
                for lo, hi, tol in ((outer_lo, outer, abs_tol),
                                    (inner_lo, inner, inner_tol))
            ):
                outer_total += outer
                base = (base[0] * math.exp(2.0 * (base[1] - phi_b)) + inner,
                        phi_b)
                continue
            if bisections >= _MAX_SUBDIVISIONS:
                raise NumericalError(
                    f"Feller quadrature did not converge on "
                    f"[{math.exp(ua)}, {math.exp(ub)}] within "
                    f"{_MAX_SUBDIVISIONS} subdivisions"
                )
            bisections += 1
            mid = 0.5 * (ua + ub)
            pending += [(mid, ub, 0.5 * abs_tol), (ua, mid, 0.5 * abs_tol)]
        totals[k + 1] = outer_total
    out = totals[np.searchsorted(edges, xs)]
    return out if np.ndim(x) else float(out[0])


# Power of the inner Feller integrand at the origin, where it is
# 2/(omega^2 z^2) * (1 + o(1)): the exponent vanishes at 0 and the
# variance tends to omega^2.
_FELLER_ORIGIN_POWER = -2.0


def explosion_verdict(params: SabrParams) -> ScaleReport:
    """Run the full explosion analysis and return a :class:`ScaleReport`.

    The verdict is the Feller test: explosion has non-zero probability
    when the test function diverges at the origin, where the inner
    integrand is 2/(omega^2 z^2) * (1 + o(1)), a power <= -1, and is
    finite at +infinity, where the scale density is exp(-2C) * y^(-p)
    with p = (2-beta)/(1-beta) > 1, so the outer integrand is
    O(y^-3 + y^-p) (times log y at beta = 1/2).  ``feller_tail_value``
    is the test function at 1e6.

    Raises
    ------
    ValueError
        If rho >= 0; the analysis applies to negative correlation only.
    """
    if params.rho >= 0.0:
        raise ValueError("explosion analysis requires rho < 0")
    fit = scale_function_limit(params)
    tail_value = feller_test_function(_LARGE_X, params)
    power, constant = _tail(_scale_coefficients(params), 1.0, params)
    outer_power = max(-2.0 * power, -3.0)
    explodes = (_FELLER_ORIGIN_POWER <= -1.0 and outer_power < -1.0
                and math.isfinite(constant))
    return ScaleReport(
        scale_limit=fit.limit,
        tail_coefficient=fit.coefficient,
        envelope_constant=envelope_constant(params),
        feller_tail_value=tail_value,
        explosion_flag=explodes,
        boundary_class=classify_boundary(params),
    )


def classify_boundary(params: SabrParams) -> BoundaryClass:
    """Classify the upper boundary of the volatility process in natural scale.

    The finite upper endpoint (the scale-function limit) is regular for
    beta in (0, 1/2), exit for beta in [1/2, 1), and a distinguished
    UNCLASSIFIED value at beta = 0, which the analysis leaves open.  The
    origin is natural for every parameter set.
    """
    if params.beta == 0.0:
        return BoundaryClass.UNCLASSIFIED
    if params.beta < 0.5:
        return BoundaryClass.REGULAR
    return BoundaryClass.EXIT


def _auxiliary_coefficients(params: SabrParams) -> tuple[float, float]:
    """(A, B) of :func:`auxiliary_scale_exponent` in :func:`_log_arctan`."""
    beta, rho, omega = params.beta, params.rho, params.omega
    b1 = 1.0 - beta
    return (beta / (2.0 * b1),
            beta * rho * (omega - 2.0) / (b1 * omega * params.rho_perp))


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
    return _log_arctan(x, _auxiliary_coefficients(params), params)


def martingale_diagnostic(params: SabrParams) -> bool:
    """True when the asset price is a true martingale.

    That is when the integral of exp(auxiliary_scale_exponent) diverges
    at both infinities, where the density is exp(C+-) * |x|^a * (1 +
    O(1/x)) with a = beta/(1-beta): when a > -1 and C+- are finite, as
    for every admissible model (Sin, Adv. Appl. Probab. 1998;
    Mijatovic & Urusov, PTRF 2012).
    """
    coefficients = _auxiliary_coefficients(params)
    return all(power > -1.0 and math.isfinite(constant) for power, constant in
               (_tail(coefficients, sign, params) for sign in (1.0, -1.0)))
