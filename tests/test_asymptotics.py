import math
import sys
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from vixsabr import (
    CapSpec,
    SabrParams,
    limiting_implied_vol,
    rate_function,
    rate_integral,
    smile_expansion,
    vol_diffusion,
)

negative_rho_params = st.builds(
    SabrParams,
    beta=st.floats(0.0, 0.95),
    rho=st.floats(-0.95, -0.01),
    omega=st.floats(0.05, 5.0),
    v0=st.floats(0.01, 2.0),
)


def rate_oracle(lo, hi, p, caps):
    """Direct quadrature of 1/(z * capped diffusion), split at the kink."""

    def integrand(z):
        return 1.0 / (z * min(caps.vol_cap, vol_diffusion(z, p)))

    pieces = []
    v_hat = caps.binding_level(p)
    if lo < v_hat < hi:
        pieces = [(lo, v_hat), (v_hat, hi)]
    else:
        pieces = [(lo, hi)]
    total = 0.0
    for a, b in pieces:
        val, err = scipy_quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13, limit=500)
        assert err < 1e-10
        total += val
    return total


# ---------------------------------------------------------------------------
# rate integral
# ---------------------------------------------------------------------------

def test_rate_integral_pinned(params, caps):
    assert math.isclose(rate_integral(0.05, 0.1, params, caps), 0.6758739294572149, rel_tol=1e-12)
    assert math.isclose(rate_integral(0.1, 0.15, params, caps), 0.3883488763330942, rel_tol=1e-12)
    assert math.isclose(rate_integral(0.1, 8.0, params, caps), 3.1547876989654373, rel_tol=1e-12)


def test_rate_integral_degenerate_interval(params, caps):
    assert rate_integral(0.7, 0.7, params, caps) == 0.0


def test_rate_integral_rejects_bad_interval(params, caps):
    with pytest.raises(ValueError):
        rate_integral(0.0, 1.0, params, caps)
    with pytest.raises(ValueError):
        rate_integral(-0.5, 1.0, params, caps)
    with pytest.raises(ValueError):
        rate_integral(2.0, 1.0, params, caps)
    for lo, hi in ((0.1, math.nan), (math.nan, 1.0), (math.inf, math.inf)):
        with pytest.raises(ValueError):
            rate_integral(lo, hi, params, caps)
    # an infinite upper bound is the limit, not an error
    assert rate_integral(0.1, math.inf, params, caps) == math.inf


def test_rate_integral_capped_branch_exact(params, caps):
    # both endpoints above the binding level: pure logarithmic branch
    expected = math.log(8.0 / 3.0) / caps.vol_cap
    assert math.isclose(rate_integral(3.0, 8.0, params, caps), expected, rel_tol=1e-14)


def test_rate_integral_tight_cap_is_logarithmic(params):
    tight = CapSpec.from_params(params, vol_cap=1.0 + 1e-9, drift_cap=1e-12)
    expected = math.log(10.0) / tight.vol_cap
    assert math.isclose(rate_integral(0.1, 1.0, params, tight), expected, rel_tol=1e-12)


def test_rate_integral_additive(params, caps):
    whole = rate_integral(0.05, 4.0, params, caps)
    split = rate_integral(0.05, 0.7, params, caps) + rate_integral(0.7, 4.0, params, caps)
    assert math.isclose(whole, split, rel_tol=1e-13)


def test_rate_integral_matches_quadrature_grid():
    # twenty (beta, rho, strike) combinations against direct quadrature
    betas = (0.0, 0.25, 0.5, 0.75, 0.9)
    cases = ((-0.9, 0.05), (-0.5, 0.5), (-0.1, 3.0), (0.5, 8.0))
    checked = 0
    for beta in betas:
        for rho, strike in cases:
            p = SabrParams(beta=beta, rho=rho, omega=1.0, v0=0.1)
            caps = CapSpec.from_params(p, vol_cap=2.0, drift_cap=1.0)
            lo, hi = min(strike, p.v0), max(strike, p.v0)
            closed = rate_integral(lo, hi, p, caps)
            direct = rate_oracle(lo, hi, p, caps)
            assert math.isclose(closed, direct, rel_tol=1e-10), (beta, rho, strike)
            checked += 1
    assert checked == 20


def test_rate_integral_zero_rho_matches_quadrature(params):
    p = SabrParams(beta=0.5, rho=0.0, omega=1.0, v0=0.1)
    caps = CapSpec.from_params(p, vol_cap=2.0, drift_cap=1.0)
    closed = rate_integral(0.1, 0.2, p, caps)
    direct = rate_oracle(0.1, 0.2, p, caps)
    assert math.isclose(closed, direct, rel_tol=1e-12)


def short_range_oracle(lo, hi, p, caps):
    """Quadrature of the rate integrand over [lo, hi] for hi <= 2*lo, in
    y = (z - lo) / lo on [0, (hi - lo) / lo]: hi - lo is exact there, so
    the width keeps its digits however close hi is to lo, and no value
    overflows for a subnormal lo.  Split at the cap binding level."""

    def integrand(y):
        return 1.0 / ((1.0 + y) * min(caps.vol_cap, vol_diffusion(lo + lo * y, p)))

    ends = [0.0, (hi - lo) / lo]
    split = caps.binding_level(p)
    if lo < split < hi:
        ends.insert(1, (split - lo) / lo)
    return sum(scipy_quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(ends[:-1], ends[1:]))


def log_range_oracle(lo, hi, p, caps):
    """Quadrature of the rate integrand over [lo, hi] in u = log z, on
    segments at most 0.5 long, with a segment end at the binding level."""

    def integrand(u):
        return 1.0 / min(caps.vol_cap, vol_diffusion(math.exp(u), p))

    a, b = math.log(lo), math.log(hi)
    ends = list(np.linspace(a, b, max(2, math.ceil((b - a) / 0.5) + 1)))
    split = caps.binding_level(p)
    if lo < split < hi:
        ends = sorted([*ends, math.log(split)])
    return sum(scipy_quad(integrand, u, w, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for u, w in zip(ends[:-1], ends[1:]))


@pytest.mark.parametrize("beta, rho", [(0.5, -0.7), (0.5, 0.7), (0.9999, -0.3),
                                       (0.9999, 0.9), (0.0, 0.5)])
@pytest.mark.parametrize("lo", [1e-4, 1e-8, 1e-300, 5e-324])
def test_rate_integral_matches_quadrature_down_to_subnormal_bounds(beta, rho, lo):
    # near v = 0 the integrand tends to 1 / (z * omega), and the closed
    # form must keep full precision however small lo is and however
    # close hi is to it
    p = SabrParams(beta=beta, rho=rho, omega=0.5, v0=0.1)
    caps = CapSpec.from_params(p, vol_cap=3.0, drift_cap=1.0)
    for gap in (1e-10, 1e-6, 1.0, 1e3):
        # a subnormal lo has too few digits for lo * (1 + gap); take the
        # next float up instead
        hi = max(lo * (1.0 + gap), math.nextafter(lo, math.inf))
        oracle = short_range_oracle if hi <= 2.0 * lo else log_range_oracle
        expected = oracle(lo, hi, p, caps)
        assert math.isclose(rate_integral(lo, hi, p, caps), expected, rel_tol=1e-12), hi
    for hi in (0.1, 100.0):
        expected = log_range_oracle(lo, hi, p, caps)
        assert math.isclose(rate_integral(lo, hi, p, caps), expected, rel_tol=1e-12), hi


_ANY_POSITIVE = st.floats(5e-324, sys.float_info.max)


@st.composite
def admissible_models_and_caps(draw):
    p = SabrParams(beta=draw(st.floats(0.0, 0.9999)), rho=draw(st.floats(-0.999, 0.999)),
                   omega=draw(st.floats(1e-3, 1e3)), v0=0.1)
    vol_cap = min(p.omega * (1.0 + 10.0 ** draw(st.floats(-6.0, 160.0))), 1.34e154)
    return p, CapSpec.from_params(p, vol_cap=vol_cap, drift_cap=1.0)


@given(admissible_models_and_caps(), _ANY_POSITIVE, _ANY_POSITIVE)
@settings(max_examples=300, deadline=None)
def test_rate_integral_is_finite_and_additive_over_the_float_range(model, a, b):
    p, caps = model
    lo, hi = min(a, b), max(a, b)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = rate_integral(lo, hi, p, caps)
        split = caps.binding_level(p)
        if lo < split < hi:
            parts = rate_integral(lo, split, p, caps) + rate_integral(split, hi, p, caps)
            assert math.isclose(value, parts, rel_tol=1e-13)
    assert [str(w.message) for w in caught] == []
    assert 0.0 <= value < math.inf


# ---------------------------------------------------------------------------
# rate function
# ---------------------------------------------------------------------------

def test_rate_function_splits_where_the_caps_bind_for_the_model_at_hand(params, caps):
    # the binding level is derived from the caps and the model at each
    # call, so caps replaced after construction, or used with another
    # model, split the rate integral where their diffusion cap binds
    lowered = CapSpec.from_params(params, vol_cap=1.5, drift_cap=1.0)
    flipped = replace(params, rho=0.5)
    for p, used, fresh, rate in (
            (params, replace(caps, vol_cap=1.5), lowered, 3.80301760961501),
            (flipped, caps, CapSpec.from_params(flipped, 2.0, 1.0), 6.539948104594769)):
        assert rate_function(3.0, p, used) == rate_function(3.0, p, fresh)
        assert math.isclose(rate_function(3.0, p, used), rate, rel_tol=1e-13)
        assert limiting_implied_vol(3.0, p, used) == limiting_implied_vol(3.0, p, fresh)


def test_rate_function_zero_at_initial_level(params, caps):
    assert rate_function(params.v0, params, caps) == 0.0


def test_rate_function_continuous_at_binding_level(params, caps):
    v = caps.binding_level(params)
    below = rate_function(v * (1.0 - 1e-9), params, caps)
    above = rate_function(v * (1.0 + 1e-9), params, caps)
    assert math.isclose(below, above, rel_tol=1e-7)


def test_rate_function_monotone_away_from_initial_level(params, caps):
    above = [rate_function(k, params, caps) for k in (0.12, 0.2, 0.5, 1.0, 3.0)]
    assert all(above[i] < above[i + 1] for i in range(len(above) - 1))
    below = [rate_function(k, params, caps) for k in (0.08, 0.05, 0.02, 0.005)]
    assert all(below[i] < below[i + 1] for i in range(len(below) - 1))


def test_rate_function_tight_cap_exact(params):
    tight = CapSpec.from_params(params, vol_cap=1.0 + 1e-9, drift_cap=1e-12)
    for strike in (0.05, 0.3):
        expected = 0.5 * (math.log(strike / params.v0) / tight.vol_cap) ** 2
        assert math.isclose(rate_function(strike, params, tight), expected, rel_tol=1e-12)


def test_rate_function_rejects_a_nan_strike(params, caps):
    with pytest.raises(ValueError):
        rate_function(math.nan, params, caps)
    # an infinite strike is the limit, not an error
    assert rate_function(math.inf, params, caps) == math.inf


def test_rate_function_consistent_with_limiting_vol(params, caps):
    for strike in (0.05, 0.08, 0.15, 0.3):
        x = math.log(strike / params.v0)
        sigma = limiting_implied_vol(strike, params, caps)
        assert math.isclose(x**2 / (2.0 * rate_function(strike, params, caps)), sigma**2, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# limiting implied volatility
# ---------------------------------------------------------------------------

def test_limiting_vol_at_the_money(params, caps):
    atm = vol_diffusion(params.v0, params)
    assert limiting_implied_vol(params.v0, params, caps) == atm
    nearly = limiting_implied_vol(params.v0 * (1.0 + 1e-12), params, caps)
    assert math.isclose(nearly, atm, rel_tol=1e-6)


@pytest.mark.parametrize("v0", [0.1, 5.0], ids=["below_binding", "above_binding"])
def test_limiting_vol_at_the_money_is_the_limit_of_both_sides(params, caps, v0):
    # at the money the harmonic mean tends to the capped diffusion at v0;
    # the default caps bind from 2.336 on, between the two v0
    p = SabrParams(params.beta, params.rho, params.omega, v0)
    assert 0.1 < caps.binding_level(p) < 5.0
    atm = limiting_implied_vol(v0, p, caps)
    for side in (1.0 - 1e-7, 1.0 + 1e-7):
        assert math.isclose(limiting_implied_vol(v0 * side, p, caps), atm,
                            rel_tol=0.0, abs_tol=1e-6)


@pytest.mark.parametrize("v0", [1e155, 1e300, sys.float_info.max])
def test_huge_v0_gives_the_cap_at_the_money_and_a_finite_expansion(params, v0):
    # the variance at v0 overflows: the at-the-money limit is the cap,
    # quietly, and the expansion, whose terms are ratios to sigma0, is
    # finite and matches its formulas evaluated at 40 digits
    p = SabrParams(params.beta, params.rho, params.omega, v0)
    caps = CapSpec.from_params(p, vol_cap=2.0, drift_cap=1.0)
    assert limiting_implied_vol(v0, p, caps) == caps.vol_cap
    assert 0.0 < limiting_implied_vol(0.1, p, caps) < caps.vol_cap
    exp = smile_expansion(p)
    with mpmath.workdps(40):
        b1, rho, omega, v = map(mpmath.mpf, (p.beta - 1.0, p.rho, p.omega, v0))
        sigma0 = mpmath.sqrt(omega**2 + 2 * rho * b1 * omega * v + (b1 * v)**2)
        skew = v * b1 * (rho * omega + b1 * v) / (2 * sigma0)
        convexity = v * b1 * (2 * omega**3 * rho + b1 * omega**2 * (4 + rho**2) * v
                              + 4 * b1**2 * omega * rho * v**2
                              + b1**3 * v**3) / (6 * sigma0**3)
    for value, exact in ((exp.atm_level, sigma0), (exp.skew, skew),
                         (exp.convexity, convexity)):
        assert math.isfinite(value)
        assert math.isclose(value, float(exact), rel_tol=1e-15)


def test_limiting_vol_rejects_nonpositive_strike(params, caps):
    with pytest.raises(ValueError):
        limiting_implied_vol(0.0, params, caps)
    with pytest.raises(ValueError):
        limiting_implied_vol(-0.1, params, caps)
    for strike in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and > 0"):
            limiting_implied_vol(strike, params, caps)


def test_limiting_vol_smile_shape(params, caps):
    strikes = np.geomspace(0.05, 0.25, 25)
    vols = np.array([limiting_implied_vol(k, params, caps) for k in strikes])
    x = np.log(strikes / params.v0)
    atm = vol_diffusion(params.v0, params)
    # negative correlation tilts the smile upward in log-strike
    right = vols[strikes > params.v0]
    assert np.all(np.diff(right) > 0.0)
    assert vols[0] < atm < vols[-1]
    # convex in log-strike across the window
    second = np.diff(vols, 2) / np.diff(x)[:-1] ** 2
    assert np.all(second > -1e-10)


def test_limiting_vol_wing_levels(params, caps):
    # far wings approach the flat bounds set by the small-level and capped regimes
    deep_put = limiting_implied_vol(1e-6, params, caps)
    deep_call = limiting_implied_vol(1e6, params, caps)
    assert abs(deep_put - params.omega) < 0.05
    assert abs(deep_call - caps.vol_cap) < 0.35
    assert deep_put > params.omega
    assert deep_call < caps.vol_cap


# ---------------------------------------------------------------------------
# smile expansion
# ---------------------------------------------------------------------------

def test_smile_expansion_pinned(params):
    exp = smile_expansion(params)
    assert math.isclose(exp.atm_level, 1.035615758860399, rel_tol=1e-13)
    assert math.isclose(exp.skew, 0.018105170609447538, rel_tol=1e-13)
    assert math.isclose(exp.convexity, 0.012241740065533212, rel_tol=1e-13)


def test_smile_expansion_matches_finite_differences(params, caps):
    exp = smile_expansion(params)
    h = 1e-4
    up = limiting_implied_vol(params.v0 * math.exp(h), params, caps)
    dn = limiting_implied_vol(params.v0 * math.exp(-h), params, caps)
    mid = limiting_implied_vol(params.v0, params, caps)
    slope_fd = (up - dn) / (2.0 * h)
    curve_fd = (up - 2.0 * mid + dn) / h**2
    assert abs(slope_fd - exp.skew) < 1e-6
    assert abs(curve_fd - exp.convexity) < 1e-4


def test_smile_expansion_taylor_remainder_decays(params, caps):
    exp = smile_expansion(params)

    def remainder(x):
        truth = limiting_implied_vol(params.v0 * math.exp(x), params, caps)
        approx = exp.atm_level + exp.skew * x + 0.5 * exp.convexity * x**2
        return abs(truth - approx)

    for sign in (1.0, -1.0):
        r = [remainder(sign * x) for x in (0.3, 0.15, 0.075)]
        assert r[1] <= 0.25 * r[0]
        assert r[2] <= 0.25 * r[1]


def test_smile_expansion_flattens_as_beta_approaches_one():
    p = SabrParams(beta=0.999, rho=-0.7, omega=1.0, v0=0.1)
    exp = smile_expansion(p)
    assert abs(exp.skew) < 5e-4
    assert abs(exp.convexity) < 5e-4


@given(negative_rho_params)
@settings(max_examples=200, deadline=None)
def test_smile_expansion_signs_for_negative_correlation(p):
    exp = smile_expansion(p)
    assert exp.atm_level > 0.0
    assert exp.skew > 0.0
    assert exp.convexity > 0.0
