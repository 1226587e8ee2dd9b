import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from vixsabr import (
    BoundaryClass,
    NumericalError,
    SabrParams,
    auxiliary_scale_exponent,
    check_scale_density_envelope,
    classify_boundary,
    envelope_constant,
    explosion_verdict,
    feller_test_function,
    martingale_diagnostic,
    scale_exponent,
    scale_function,
    scale_function_limit,
    scale,
    vol_variance,
)

negative_rho_params = st.builds(
    SabrParams,
    beta=st.floats(0.0, 0.95),
    rho=st.floats(-0.95, -0.01),
    omega=st.floats(0.05, 5.0),
    v0=st.floats(0.01, 2.0),
)


def exponent_oracle(x, p):
    """Direct quadrature of the log-derivative of the scale density."""

    def integrand(y):
        return (p.beta - 1.0) * (0.5 * (p.beta - 2.0) * y + p.rho * p.omega) / vol_variance(y, p)

    val, err = scipy_quad(integrand, 0.0, x, epsabs=1e-13, epsrel=1e-12, limit=500)
    assert err < 1e-9
    return val


def auxiliary_oracle(x, p):
    """Direct quadrature of the log-derivative of the auxiliary density."""

    def integrand(y):
        return p.beta * ((1.0 - p.beta) * y - 2.0 * p.rho) / vol_variance(y, p)

    val, err = scipy_quad(integrand, 0.0, x, epsabs=1e-13, epsrel=1e-12, limit=500)
    assert err < 1e-9
    return val


def feller_oracle(xs, p, cutoff):
    """Nested adaptive quadrature of the Feller test function in y.

    The outer and inner integrals run over the same edges: the cutoff,
    the powers of ten and the requested points.  The inner integral at
    y restarts from the edge below y, whose value is summed beforehand.
    """

    def inner_integrand(z):
        return 2.0 * math.exp(2.0 * scale_exponent(z, p)) / (z * z * vol_variance(z, p))

    def integrate(f, a, b):
        val, err = scipy_quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
        assert err < 1e-11 * max(abs(val), 1.0)
        return val

    top = max(xs)
    powers = (10.0**k for k in range(-12, 13))
    edges = sorted({cutoff, *xs, *(e for e in powers if cutoff < e < top)})
    inner_at = [0.0]
    for a, b in zip(edges[:-1], edges[1:]):
        inner_at.append(inner_at[-1] + integrate(inner_integrand, a, b))
    nu = [0.0]
    for base, a, b in zip(inner_at, edges[:-1], edges[1:]):
        def outer(y, base=base, a=a):
            inner = base + integrate(inner_integrand, a, y)
            return math.exp(-2.0 * scale_exponent(y, p)) * inner
        nu.append(nu[-1] + integrate(outer, a, b))
    return np.array([nu[edges.index(x)] for x in xs])


# ---------------------------------------------------------------------------
# scale exponent (closed form)
# ---------------------------------------------------------------------------

def test_scale_exponent_pinned(params):
    assert math.isclose(scale_exponent(1.0, params), 0.37414443955361726, rel_tol=1e-13)
    assert math.isclose(scale_exponent(0.5, params), 0.185118083578244, rel_tol=1e-13)
    assert math.isclose(scale_exponent(10.0, params), 2.293642486609558, rel_tol=1e-13)
    assert scale_exponent(0.0, params) == 0.0


@pytest.mark.parametrize(
    "beta,rho,omega,expected",
    [
        (0.0, -0.5, 1.3, 0.7951607201061107),
        (0.25, -0.9, 1.3, 0.7821234653423779),
        (0.75, -0.1, 1.3, 0.20029747521402325),
        (0.9, -0.7, 1.3, 0.1533821479203049),
        (0.5, 0.6, 1.3, 0.017604200531927353),
    ],
)
def test_scale_exponent_pinned_across_parameters(beta, rho, omega, expected):
    p = SabrParams(beta=beta, rho=rho, omega=omega, v0=0.1)
    assert math.isclose(scale_exponent(2.0, p), expected, rel_tol=1e-12)


def test_scale_exponent_zero_rho_pinned():
    p = SabrParams(beta=0.5, rho=0.0, omega=1.0, v0=0.1)
    assert math.isclose(scale_exponent(3.0, p), 0.8839912472562346, rel_tol=1e-13)


@pytest.mark.parametrize(
    "beta,rho,omega",
    [
        (0.5, -0.7, 1.0),
        (0.25, -0.9, 1.3),
        (0.75, -0.1, 1.3),
        (0.9, -0.7, 1.3),
        (0.5, 0.6, 1.3),
    ],
)
def test_scale_exponent_matches_quadrature(beta, rho, omega):
    p = SabrParams(beta=beta, rho=rho, omega=omega, v0=0.1)
    for x in (0.5, 2.0, 10.0, 50.0):
        closed = scale_exponent(x, p)
        direct = exponent_oracle(x, p)
        assert math.isclose(closed, direct, rel_tol=1e-10, abs_tol=1e-12)


def test_scale_exponent_beta_zero_reduces_to_log_variance():
    p = SabrParams(beta=0.0, rho=-0.6, omega=1.5, v0=0.1)
    for x in (0.3, 1.0, 4.0, 25.0):
        expected = 0.5 * math.log(vol_variance(x, p) / p.omega**2)
        assert math.isclose(scale_exponent(x, p), expected, rel_tol=1e-13)


def test_scale_exponent_vectorized(params):
    # from 1.3e154/(1 - beta) on vol_variance overflows, the exponents not
    x = np.array([0.0, 0.5, 1.0, 10.0, 1e80, 1e160, 1e300])
    vals = scale_exponent(x, params)
    assert vals.shape == x.shape
    for i, xi in enumerate(x):
        assert vals[i] == scale_exponent(float(xi), params)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(np.isfinite(auxiliary_scale_exponent(x, params)))


# ---------------------------------------------------------------------------
# envelope of the scale density
# ---------------------------------------------------------------------------

def test_envelope_constant_pinned(params):
    assert math.isclose(envelope_constant(params), 4.663136865285509, rel_tol=1e-12)


def test_envelope_constant_is_one_for_beta_zero():
    p = SabrParams(beta=0.0, rho=-0.7, omega=1.0, v0=0.1)
    assert envelope_constant(p) == 1.0

def test_envelope_holds_on_grid(params):
    grid = np.append(np.arange(0.0, 100.0 + 1e-9, 0.1), [1e80, 1e160, 1e300])
    report = check_scale_density_envelope(grid, params)
    assert report.holds
    assert bool(report)
    assert report.max_violation == 0.0


def test_envelope_equality_for_beta_zero():
    p = SabrParams(beta=0.0, rho=-0.3, omega=2.0, v0=0.1)
    grid = np.linspace(0.0, 50.0, 501)
    report = check_scale_density_envelope(grid, p)
    assert report.holds
    # with a unit envelope constant both bounds coincide
    assert report.max_violation <= 1e-12


@pytest.mark.parametrize("x", [math.nan, math.inf, -1.0])
def test_envelope_rejects_points_that_are_not_finite_and_nonnegative(params, x):
    with pytest.raises(ValueError, match="finite and >= 0"):
        check_scale_density_envelope([0.0, x], params)


def test_envelope_requires_negative_correlation():
    p = SabrParams(beta=0.5, rho=0.2, omega=1.0, v0=0.1)
    with pytest.raises(ValueError):
        check_scale_density_envelope(np.linspace(0.0, 10.0, 11), p)


def test_envelope_reads_the_grid_flat_and_refuses_an_empty_one(params):
    grid = np.array([[0.0, 1.0], [10.0, 1e300]])
    report = check_scale_density_envelope(grid, params)
    assert report == check_scale_density_envelope(grid.ravel(), params)
    assert type(report.worst_x) is float
    with pytest.raises(ValueError, match="^x_grid is empty$"):
        check_scale_density_envelope([], params)


@given(negative_rho_params)
@settings(max_examples=100, deadline=None)
def test_envelope_holds_for_random_parameters(p):
    grid = np.linspace(0.0, 30.0, 301)
    assert check_scale_density_envelope(grid, p).holds


# ---------------------------------------------------------------------------
# scale function and its limit
# ---------------------------------------------------------------------------

def test_scale_function_at_zero(params):
    assert scale_function(0.0, params) == 0.0


def test_scale_function_pinned(params):
    assert math.isclose(scale_function(100.0, params), 1.5605633372733272, rel_tol=1e-10)


def test_scale_function_monotone(params):
    xs = np.array([0.01, 0.1, 0.5, 1.0, 5.0, 20.0, 100.0])
    vals = scale_function(xs, params)
    assert np.all(np.diff(vals) > 0.0)


def test_scale_function_vector_matches_scalar(params):
    xs = np.array([0.5, 1.0, 10.0])
    vec = scale_function(xs, params)
    for i, x in enumerate(xs):
        assert math.isclose(vec[i], scale_function(float(x), params), rel_tol=1e-12)


@pytest.mark.parametrize("x", [-1.0, math.nan, math.inf])
def test_scale_function_rejects_negative(params, x):
    # the value at inf is a limit, which scale_function_limit computes
    with pytest.raises(ValueError, match="finite and >= 0 .*scale_function_limit"):
        scale_function(x, params)


def test_scale_function_between_envelope_bounds(params):
    # integrating the envelope density brackets the scale function
    c2 = (2.0 - params.beta) / (2.0 * (1.0 - params.beta))
    kappa = envelope_constant(params)

    def envelope_density(y):
        return (params.omega**2 / vol_variance(y, params)) ** c2

    for x in (1.0, 10.0, 100.0):
        base, err = scipy_quad(envelope_density, 0.0, x, epsabs=1e-13, epsrel=1e-12, limit=500)
        assert err < 1e-9
        p_val = scale_function(x, params)
        assert base * (1.0 - 1e-9) <= p_val <= kappa * base * (1.0 + 1e-9)


def test_scale_function_anchored_translation(params):
    # integrating the density anchored at c equals exp(2F(c)) * (p(x) - p(c))
    c = 0.5
    f_c = scale_exponent(c, params)

    def anchored_density(y):
        return math.exp(-2.0 * (scale_exponent(y, params) - f_c))

    for x in (2.0, 10.0):
        direct, err = scipy_quad(anchored_density, c, x, epsabs=1e-13, epsrel=1e-11, limit=500)
        assert err < 1e-8
        via_scale = math.exp(2.0 * f_c) * (scale_function(x, params) - scale_function(c, params))
        assert math.isclose(direct, via_scale, rel_tol=1e-9)


def test_scale_function_limit_pinned(params):
    fit = scale_function_limit(params)
    assert math.isclose(fit.limit, 1.561403804710474, rel_tol=1e-10)
    assert math.isclose(fit.coefficient, 8.719507184863925, rel_tol=1e-6)
    assert fit.coefficient > 0.0
    assert fit.residual < 1e-6


def test_scale_function_nearly_flat_in_far_tail(params):
    gap = scale_function(1e6, params) - scale_function(1e5, params)
    assert 0.0 < gap < 1e-7
    # where vol_variance overflows the scale function has reached its limit
    far = scale_function(np.array([1e50, 1e80, 1e160, 1e300]), params)
    assert math.isclose(far[0], 1.5614038047110843, rel_tol=1e-12)
    assert np.allclose(far, far[0], rtol=1e-12, atol=0.0)


def test_scale_function_tail_decay_exponent(params):
    # the gap to the limit decays like x^(-1/(1-beta))
    fit = scale_function_limit(params)
    xs = np.array([1e2, 1e3, 1e4])
    gaps = fit.limit - scale_function(xs, params)
    assert np.all(gaps > 0.0)
    slope = np.polyfit(np.log(xs), np.log(gaps), 1)[0]
    assert abs(slope + 1.0 / (1.0 - params.beta)) < 0.05


def test_scale_function_limit_refuses_a_fit_outside_the_tail_regime():
    # the tail power x**(-1/(1-beta)) is 0 on the whole fit grid, while
    # the scale function still rises from 1e4 to 1e5
    p = SabrParams(beta=0.9999998, rho=-0.4, omega=5.5, v0=0.1)
    with pytest.raises(NumericalError, match=r"tail fit residual 3\.62e-01 exceeds "
                       r"1e-06; tail regime not reached"):
        scale_function_limit(p)


def test_scale_function_limit_requires_negative_correlation():
    p = SabrParams(beta=0.5, rho=0.1, omega=1.0, v0=0.1)
    with pytest.raises(ValueError):
        scale_function_limit(p)


# ---------------------------------------------------------------------------
# second-kind test function and explosion verdict
# ---------------------------------------------------------------------------

def test_feller_function_nondecreasing(params):
    xs = np.array([0.05, 0.1, 1.0, 10.0, 100.0])
    vals = feller_test_function(xs, params)
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) > 0.0)


def test_feller_function_pinned_tail(params):
    val = feller_test_function(1e6, params)
    assert math.isclose(val, 3107.93278315, rel_tol=1e-9)


def test_feller_function_tail_stabilizes(params):
    vals = feller_test_function(np.array([1e4, 1e5, 1e6]), params)
    inc1 = vals[1] - vals[0]
    inc2 = vals[2] - vals[1]
    assert abs(inc1) < 1e-4 * vals[1]
    assert abs(inc2) < 1e-4 * vals[2]
    # far out the inner integrand's denominator overflows to inf, quietly,
    # and the integrand is its limit 0
    far = feller_test_function(np.array([1e50, 1e80, 1e160, 1e300]), params)
    assert math.isclose(far[0], 3107.9327831718424, rel_tol=1e-12)
    assert np.allclose(far, far[0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("beta", [0.0, 0.9])
@pytest.mark.parametrize("rho", [-0.9, -0.1])
@pytest.mark.parametrize("omega", [0.5, 1.3])
def test_feller_function_matches_nested_quadrature(beta, rho, omega):
    p = SabrParams(beta=beta, rho=rho, omega=omega, v0=0.1)
    # 0.005 lies inside the first segment [0.001, 0.01]
    xs = np.array([0.005, 1e4, 1e5, 1e6])
    expected = feller_oracle(xs, p, 0.01 * p.v0)
    np.testing.assert_allclose(feller_test_function(xs, p), expected, rtol=1e-10)


@pytest.mark.parametrize(
    "p",
    [
        SabrParams(beta=0.5, rho=-0.7, omega=1.0, v0=0.1),
        SabrParams(beta=0.9, rho=-0.9, omega=0.5, v0=0.1),
    ],
)
def test_feller_function_with_origin_cutoff(p):
    # the cutoff is 0.01 * v0 = 0.001; 0.005 lies inside the first
    # segment [0.001, 0.01]
    xs = np.array([0.005, 1e4, 1e5, 1e6])
    got = feller_test_function(xs, p)
    np.testing.assert_allclose(got, feller_oracle(xs, p, 0.001), rtol=1e-10)
    assert math.isclose(feller_test_function(0.005, p), got[0], rel_tol=1e-12)


@pytest.mark.parametrize("x", [0.001, math.nan, math.inf])
def test_feller_function_rejects_points_at_the_cutoff(params, x):
    with pytest.raises(ValueError, match="finite and exceed the base point"):
        feller_test_function(x, params)


@pytest.mark.parametrize("v0", [5e-324, 1e-300, 1e8, float(2**1000)])
def test_feller_function_does_not_read_v0(params, v0):
    # the base point is fixed at 1e-3, 0.01 * v0 at the default v0
    xs = np.array([0.005, 1e4, 1e6])
    np.testing.assert_array_equal(
        feller_test_function(xs, replace(params, v0=v0)),
        feller_test_function(xs, params))


def scaled_feller_oracle(xs, p, cutoff):
    """:func:`feller_oracle` with the inner integral carried times the
    scale density at its upper end, J(y) = I(y) * exp(-2 phi(y)), so
    that no exponential overflows near beta = 1."""

    def inner_integrand(z, y):
        return 2.0 * math.exp(2.0 * (scale_exponent(z, p) - scale_exponent(y, p))) \
            / (z * z * vol_variance(z, p))

    def integrate(f, a, b):
        val, err = scipy_quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
        assert err < 1e-11 * max(abs(val), 1.0)
        return val

    def rescale(a, y):
        return math.exp(2.0 * (scale_exponent(a, p) - scale_exponent(y, p)))

    top = max(xs)
    powers = (10.0**k for k in range(-12, 13))
    edges = sorted({cutoff, *xs, *(e for e in powers if cutoff < e < top)})
    scaled_at = [0.0]
    for a, b in zip(edges[:-1], edges[1:]):
        scaled_at.append(scaled_at[-1] * rescale(a, b)
                         + integrate(lambda z: inner_integrand(z, b), a, b))
    nu = [0.0]
    for base, a, b in zip(scaled_at, edges[:-1], edges[1:]):
        def outer(y, base=base, a=a):
            return base * rescale(a, y) + integrate(
                lambda z: inner_integrand(z, y), a, y)
        nu.append(nu[-1] + integrate(outer, a, b))
    return np.array([nu[edges.index(x)] for x in xs])


def test_feller_function_near_beta_one_matches_scaled_quadrature():
    # exp(2 * scale_exponent) overflows below 1e6 here, so only a scaled
    # pass evaluates the test function
    p = SabrParams(beta=0.99, rho=-0.5, omega=1.0, v0=0.1)
    xs = np.array([0.005, 1e4, 1e6])
    expected = scaled_feller_oracle(xs, p, 1e-3)
    np.testing.assert_allclose(feller_test_function(xs, p), expected, rtol=1e-10)
    assert expected[-1] == pytest.approx(24459.83, rel=1e-6)


def test_feller_function_rejects_an_integrand_that_is_not_finite(params, monkeypatch):
    monkeypatch.setattr(scale, "_scaled_inner_integrand",
                        lambda z, *args: np.full(np.shape(z), math.nan))
    with pytest.raises(NumericalError, match="Feller integrand is not finite"):
        feller_test_function(1e6, params)


def test_feller_function_subdivision_budget(params, monkeypatch):
    # unreachable tolerances exhaust a budget of one bisection
    monkeypatch.setattr(scale, "_ABS_TOL", 1e-300)
    monkeypatch.setattr(scale, "_REL_TOL", 1e-300)
    monkeypatch.setattr(scale, "_MAX_SUBDIVISIONS", 1)
    with pytest.raises(NumericalError, match="within 1 subdivisions"):
        feller_test_function(1e6, params)


@pytest.mark.parametrize("budget", [1, 2])
def test_feller_subdivision_budget_is_a_ceiling(monkeypatch, budget):
    # these parameters need more than two bisections at the default
    # tolerances
    params = SabrParams(beta=0.95, rho=-0.5, omega=5.0, v0=0.01)
    monkeypatch.setattr(scale, "_MAX_SUBDIVISIONS", budget)
    with pytest.raises(NumericalError, match=f"within {budget} subdivisions"):
        feller_test_function(1e6, params)


# The verdicts are read from closed-form tail powers; decade increments
# of adaptive quadrature on [1e4, 1e6] are their oracle.
VERDICT_BETAS = (0.0, 0.25, 0.5, 0.6, 0.75, 0.9)
VERDICT_RHO_OMEGAS = ((-0.5, 1.0), (-0.9, 0.3), (-0.2, 5.0))
DECADES = ((1e4, 1e5), (1e5, 1e6))


def _decade_integral(f, a, b):
    val, err = scipy_quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)
    assert err < 1e-10 * abs(val)
    return val


@pytest.mark.parametrize("rho,omega", VERDICT_RHO_OMEGAS)
@pytest.mark.parametrize("beta", VERDICT_BETAS)
def test_tail_constants_match_the_exponents(beta, rho, omega):
    # exponent = a*log|x| + C + r(x); with u = -2*rho*omega/(b1*x)
    # + (omega/(b1*x))^2 the log term leaves A*log(1 + u), at most
    # 6*|A|*omega/(b1*|x|), and the arctan term at most
    # 2*|B|*omega/(b1*|x|), once b1*|x| >= 2*omega
    p = SabrParams(beta=beta, rho=rho, omega=omega, v0=0.1)
    b1 = 1.0 - beta
    cases = [(scale_exponent, scale._scale_coefficients(p), 1.0)]
    cases += [(auxiliary_scale_exponent, scale._auxiliary_coefficients(p), sign)
              for sign in (1.0, -1.0)]
    for exponent, (log_coef, arctan_coef), sign in cases:
        power, constant = scale._tail((log_coef, arctan_coef), sign, p)
        assert power == 2.0 * log_coef
        for x in (1e8, 1e9):
            remainder = exponent(sign * x, p) - power * math.log(x) - constant
            bound = 6.0 * (abs(log_coef) + abs(arctan_coef)) * omega / (b1 * x)
            rounding = 1e-13 * (1.0 + abs(power) * math.log(x) + abs(constant))
            assert abs(remainder) <= bound + rounding


@pytest.mark.parametrize("rho,omega", VERDICT_RHO_OMEGAS)
@pytest.mark.parametrize("beta", VERDICT_BETAS)
def test_feller_increments_decay_at_the_tail_power(beta, rho, omega):
    # the outer integrand is O(y^-3 + y^-p) with p - 1 = 1/(1-beta), so
    # nu's decade increments shrink by 10^-min(1/(1-beta), 2)
    p = SabrParams(beta=beta, rho=rho, omega=omega, v0=0.1)
    nu = feller_test_function(np.array([1e4, 1e5, 1e6]), p)
    ratio = (nu[2] - nu[1]) / (nu[1] - nu[0])
    assert 0.0 < ratio <= 1.01 * 10.0 ** -min(1.0 / (1.0 - beta), 2.0)
    assert explosion_verdict(p).explosion_flag


@pytest.mark.parametrize("rho,omega", VERDICT_RHO_OMEGAS)
@pytest.mark.parametrize("beta", VERDICT_BETAS)
def test_auxiliary_increments_grow_at_the_tail_power(beta, rho, omega):
    # the auxiliary density is exp(C) |x|^(beta/(1-beta)) at +-infinity,
    # so its decade integrals grow by 10^(1/(1-beta))
    p = SabrParams(beta=beta, rho=rho, omega=omega, v0=0.1)
    growth = 10.0 ** (1.0 / (1.0 - beta))
    for sign in (1.0, -1.0):
        density = lambda u: math.exp(auxiliary_scale_exponent(sign * u, p))
        first, second = (_decade_integral(density, a, b) for a, b in DECADES)
        assert second / first == pytest.approx(growth, rel=0.02)
    assert martingale_diagnostic(p)


def test_verdicts_make_one_feller_pass_and_no_quad_call(params, monkeypatch):
    calls = {"quad": 0, "feller": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scale.integrate, "quad",
                        counting("quad", scale.integrate.quad))
    monkeypatch.setattr(scale, "feller_test_function",
                        counting("feller", scale.feller_test_function))
    assert martingale_diagnostic(params)
    assert calls == {"quad": 0, "feller": 0}
    assert explosion_verdict(params).explosion_flag
    assert calls["feller"] == 1


def test_explosion_verdict_tail_value_is_the_feller_function_at_1e6(params):
    report = explosion_verdict(params)
    assert report.feller_tail_value == feller_test_function(1e6, params)
    nu = feller_test_function(np.array([1e4, 1e5, 1e6]), params)
    assert report.feller_tail_value == nu[-1]


@pytest.mark.parametrize("beta", [0.4, 0.5, 0.6])
def test_explosion_verdict_across_boundary_classes(beta):
    p = SabrParams(beta=beta, rho=-0.7, omega=1.0, v0=0.1)
    report = explosion_verdict(p)
    assert report.explosion_flag
    assert report.feller_tail_value > 0.0
    assert math.isfinite(report.scale_limit)


def test_explosion_verdict_report_fields(params):
    report = explosion_verdict(params)
    assert report.explosion_flag
    assert report.boundary_class is BoundaryClass.EXIT
    assert math.isclose(report.scale_limit, 1.561403804710474, rel_tol=1e-10)
    assert math.isclose(report.envelope_constant, 4.663136865285509, rel_tol=1e-12)
    payload = report.to_dict()
    text = json.dumps(payload)
    decoded = json.loads(text)
    assert decoded["boundary_class"] == "exit"
    assert decoded["explosion_flag"] is True


def test_explosion_verdict_requires_negative_correlation():
    p = SabrParams(beta=0.5, rho=0.3, omega=1.0, v0=0.1)
    with pytest.raises(ValueError):
        explosion_verdict(p)


def test_classify_boundary_cases():
    def make(beta):
        return SabrParams(beta=beta, rho=-0.7, omega=1.0, v0=0.1)

    assert classify_boundary(make(0.0)) is BoundaryClass.UNCLASSIFIED
    assert classify_boundary(make(0.3)) is BoundaryClass.REGULAR
    assert classify_boundary(make(0.4)) is BoundaryClass.REGULAR
    assert classify_boundary(make(0.5)) is BoundaryClass.EXIT
    assert classify_boundary(make(0.6)) is BoundaryClass.EXIT
    assert classify_boundary(make(0.9)) is BoundaryClass.EXIT


# ---------------------------------------------------------------------------
# auxiliary exponent and martingale diagnostic
# ---------------------------------------------------------------------------

def test_auxiliary_exponent_pinned(params):
    assert math.isclose(auxiliary_scale_exponent(5.0, params), 1.7518764623932581, rel_tol=1e-12)
    assert math.isclose(auxiliary_scale_exponent(-5.0, params), -1.2686338480096246, rel_tol=1e-12)
    p1 = SabrParams(beta=0.9, rho=0.5, omega=1.3, v0=0.1)
    assert math.isclose(auxiliary_scale_exponent(3.0, p1), -1.5010821429224106, rel_tol=1e-12)
    p2 = SabrParams(beta=0.25, rho=0.1, omega=1.0, v0=0.1)
    assert math.isclose(auxiliary_scale_exponent(-2.0, p2), 0.24178765398741803, rel_tol=1e-12)


@pytest.mark.parametrize(
    "beta,rho,omega",
    [(0.5, -0.7, 1.0), (0.9, 0.5, 1.3), (0.25, 0.1, 1.0), (0.75, -0.3, 0.7)],
)
def test_auxiliary_exponent_matches_quadrature(beta, rho, omega):
    p = SabrParams(beta=beta, rho=rho, omega=omega, v0=0.1)
    for x in (-5.0, -1.0, 2.0, 8.0):
        closed = auxiliary_scale_exponent(x, p)
        direct = auxiliary_oracle(x, p)
        assert math.isclose(closed, direct, rel_tol=1e-10, abs_tol=1e-12)


def test_auxiliary_exponent_vanishes_for_beta_zero():
    p = SabrParams(beta=0.0, rho=-0.5, omega=1.2, v0=0.1)
    for x in (-5.0, -1.0, 1.0, 5.0):
        assert auxiliary_scale_exponent(x, p) == pytest.approx(0.0, abs=1e-15)


def test_martingale_diagnostic_true_cases(params):
    assert martingale_diagnostic(params)
    assert martingale_diagnostic(SabrParams(beta=0.0, rho=-0.5, omega=1.2, v0=0.1))
    assert martingale_diagnostic(SabrParams(beta=0.9, rho=0.7, omega=1.0, v0=0.1))


@given(st.builds(
    SabrParams,
    beta=st.floats(0.0, 0.9999),
    rho=st.floats(-0.999, 0.999),
    omega=st.floats(1e-3, 100.0),
    v0=st.just(0.1),
))
@settings(max_examples=200, deadline=None)
def test_martingale_diagnostic_holds_for_every_admissible_model(p):
    assert martingale_diagnostic(p)


def test_segmented_quad_reports_an_overflowing_integrand():
    # math.exp raises OverflowError, which becomes a NumericalError
    # naming the decade segment
    with pytest.raises(NumericalError,
                       match=r"integrand overflows on \[100\.0, 1000\.0\]"):
        scale._segmented_quad(math.exp, 1.0, 1e3)

# ---------------------------------------------------------------------------
# quadrature tolerances
# ---------------------------------------------------------------------------

def test_quadrature_config_defaults():
    # the pinned outputs were computed at these tolerances
    assert scale._ABS_TOL == 1e-12
    assert scale._REL_TOL == 1e-10
    assert scale._MAX_SUBDIVISIONS == 1_000_000
    assert scale._SEGMENT_SUBDIVISIONS == 1_000
    assert scale._LARGE_X == 1e6
    assert scale._FELLER_BASE == 1e-3
