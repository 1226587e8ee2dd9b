import math
import sys
from dataclasses import fields
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vixsabr import (
    CapSpec,
    McConfig,
    SabrParams,
    capped_vol_diffusion,
    capped_vol_drift,
    drift_polynomial_coefficients,
    vol_diffusion,
    vol_drift,
    vol_variance,
)
from vixsabr.model import shown

any_params = st.builds(
    SabrParams,
    beta=st.floats(0.0, 0.95),
    rho=st.floats(-0.95, 0.95),
    omega=st.floats(0.05, 5.0),
    v0=st.floats(0.01, 2.0),
)

negative_rho_params = st.builds(
    SabrParams,
    beta=st.floats(0.0, 0.95),
    rho=st.floats(-0.95, -0.01),
    omega=st.floats(0.05, 5.0),
    v0=st.floats(0.01, 2.0),
)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(beta=-0.1, rho=-0.7, omega=1.0, v0=0.1),
        dict(beta=1.0, rho=-0.7, omega=1.0, v0=0.1),
        dict(beta=0.5, rho=-1.0, omega=1.0, v0=0.1),
        dict(beta=0.5, rho=1.0, omega=1.0, v0=0.1),
        dict(beta=0.5, rho=-0.7, omega=0.0, v0=0.1),
        dict(beta=0.5, rho=-0.7, omega=-1.0, v0=0.1),
        dict(beta=0.5, rho=-0.7, omega=1.0, v0=0.0),
        dict(beta=0.5, rho=-0.7, omega=1.0, v0=-0.1),
        dict(beta=0.5, rho=-0.7, omega=math.inf, v0=0.1),
        dict(beta=0.5, rho=-0.7, omega=1.0, v0=math.inf),
    ],
)
def test_params_validation_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        SabrParams(**kwargs)


def test_params_refuse_an_omega_whose_square_overflows():
    # omega**2 is taken by pow(), which raises OverflowError past the limit
    limit = math.sqrt(sys.float_info.max)
    for omega in (limit, 1e200):
        with pytest.raises(ValueError, match="^omega must be below"):
            SabrParams(0.5, -0.7, omega, 0.1)
    # an integer beyond the float range converts to inf, which is not finite
    with pytest.raises(ValueError, match="^omega must be finite and > 0"):
        SabrParams(0.5, -0.7, 10**400, 0.1)
    below = SabrParams(0.5, -0.7, math.nextafter(limit, 0.0), 0.1)
    assert math.isfinite(vol_variance(0.1, below))


def test_negative_correlation_flag(params):
    assert params.negative_correlation
    flipped = SabrParams(beta=0.5, rho=0.3, omega=1.0, v0=0.1)
    assert not flipped.negative_correlation


def test_rho_perp(params):
    assert math.isclose(params.rho_perp, math.sqrt(1.0 - 0.49), rel_tol=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(vol_cap=0.5, drift_cap=1.0),   # cap below omega
        dict(vol_cap=1.0, drift_cap=1.0),   # cap equal to omega
        dict(vol_cap=2.0, drift_cap=0.0),
        dict(vol_cap=2.0, drift_cap=-1.0),
        dict(vol_cap=math.inf, drift_cap=1.0),
        dict(vol_cap=2.0, drift_cap=math.inf),
        dict(vol_cap=10**400, drift_cap=1.0),   # an integer beyond a float
        dict(vol_cap=2.0, drift_cap=10**400),
        dict(vol_cap=1e200, drift_cap=1.0),     # vol_cap**2 overflows
    ],
)
def test_cap_spec_validation(params, kwargs):
    with pytest.raises(ValueError):
        CapSpec.from_params(params, **kwargs)


# Python refuses to print an integer past 4300 digits; a range check that
# prints the value must still name its field.
_HUGE = 10**5000


@pytest.mark.parametrize(
    "field, build",
    [
        ("beta", lambda p: SabrParams(_HUGE, -0.7, 1.0, 0.1)),
        ("rho", lambda p: SabrParams(0.5, -_HUGE, 1.0, 0.1)),
        ("omega", lambda p: SabrParams(0.5, -0.7, -_HUGE, 0.1)),
        ("v0", lambda p: SabrParams(0.5, -0.7, 1.0, -_HUGE)),
        ("vol_cap", lambda p: CapSpec.from_params(p, _HUGE, 1.0)),
        ("drift_cap", lambda p: CapSpec.from_params(p, 2.0, -_HUGE)),
        ("n_paths", lambda p: McConfig(n_paths=-_HUGE)),
        ("n_steps", lambda p: McConfig(n_steps=-_HUGE)),
        pytest.param("n_steps", lambda p: McConfig(n_steps=_HUGE), id="n_steps-max"),
        ("horizon", lambda p: McConfig(horizon=-_HUGE)),
        ("inner_paths", lambda p: McConfig(inner_paths=-_HUGE)),
        ("inner_steps", lambda p: McConfig(inner_steps=-_HUGE)),
        pytest.param("inner_steps", lambda p: McConfig(inner_steps=_HUGE),
                     id="inner_steps-max"),
        # the integer check prints a non-integer holding a huge integer
        pytest.param("n_paths", lambda p: McConfig(n_paths=Fraction(_HUGE)),
                     id="n_paths-Fraction"),
    ],
)
def test_range_messages_name_the_field_of_an_unprintable_integer(params, field, build):
    with pytest.raises(ValueError, match=f"^{field} must .* got a number of more than"):
        build(params)


@pytest.mark.parametrize("value, text", [
    (10**23, "100000000000000000000000"),
    (-(10**23), "-100000000000000000000000"),
    (10**24, "10000000000000000000... (25 digits)"),
    (-(10**400), "-10000000000000000000... (401 digits)"),
    (np.int64(-2**63), "-9223372036854775808")])
def test_shown_cuts_an_integer_past_24_digits(value, text):
    assert shown(value) == text


# ---------------------------------------------------------------------------
# pinned values for the effective-volatility coefficients
# ---------------------------------------------------------------------------

def test_vol_diffusion_pinned(params):
    assert math.isclose(vol_diffusion(0.1, params), 1.035615758860399, rel_tol=1e-14)


def test_vol_diffusion_at_zero_is_omega():
    for omega in (0.3, 1.0, 2.5):
        p = SabrParams(beta=0.6, rho=-0.4, omega=omega, v0=0.1)
        assert math.isclose(vol_diffusion(0.0, p), omega, rel_tol=1e-15)


def test_vol_drift_pinned(params):
    assert math.isclose(vol_drift(0.1, params), 0.03875, rel_tol=1e-14)
    zero_rho = SabrParams(beta=0.5, rho=0.0, omega=1.0, v0=0.1)
    assert math.isclose(vol_drift(1.0, zero_rho), 0.375, rel_tol=1e-14)


def test_drift_polynomial_pinned(params):
    cubic, quadratic = drift_polynomial_coefficients(params)
    assert math.isclose(cubic, 0.375, rel_tol=1e-14)
    assert math.isclose(quadratic, 0.35, rel_tol=1e-14)

    other = SabrParams(beta=0.0, rho=-0.5, omega=2.0, v0=0.1)
    cubic, quadratic = drift_polynomial_coefficients(other)
    assert math.isclose(cubic, 1.0, rel_tol=1e-14)
    assert math.isclose(quadratic, 1.0, rel_tol=1e-14)


def test_binding_level_pinned_values():
    expected = {
        -0.7: 2.336308338453881,
        0.0: 3.4641016151377544,
        0.7: 5.136308338453881,
    }
    for rho, level in expected.items():
        p = SabrParams(beta=0.5, rho=rho, omega=1.0, v0=0.1)
        spec = CapSpec.from_params(p, vol_cap=2.0, drift_cap=1.0)
        assert math.isclose(spec.binding_level(p), level, rel_tol=1e-12)


def test_caps_hold_the_two_caps_and_derive_the_binding_level(params, caps):
    # the level depends on the model, so the caps store none; one set of
    # caps serves every model whose omega is below vol_cap
    assert [f.name for f in fields(CapSpec)] == ["vol_cap", "drift_cap"]
    assert caps == CapSpec(vol_cap=2.0, drift_cap=1.0)
    flipped = SabrParams(beta=0.5, rho=0.7, omega=1.0, v0=0.1)
    assert math.isclose(caps.binding_level(flipped), 5.136308338453881, rel_tol=1e-12)
    with pytest.raises(ValueError, match=r"^vol_cap must exceed omega \(3.0\)"):
        CapSpec(2.0, 1.0).binding_level(SabrParams(0.5, -0.7, 3.0, 0.1))


def test_diffusion_equals_cap_at_binding_level(params, caps):
    assert abs(vol_diffusion(caps.binding_level(params), params) - caps.vol_cap) < 1e-12


def test_degenerate_caps_binding_level(params):
    tight = CapSpec.from_params(params, vol_cap=1.0 + 1e-9, drift_cap=1e-12)
    assert math.isclose(tight.binding_level(params), 2.8571431887058907e-9, rel_tol=1e-6)
    assert abs(vol_diffusion(tight.binding_level(params), params) - tight.vol_cap) < 1e-12


# ---------------------------------------------------------------------------
# capped coefficients
# ---------------------------------------------------------------------------

def test_capped_drift_saturates(params, caps):
    assert capped_vol_drift(100.0, params, caps) == 1.0
    strong = SabrParams(beta=0.5, rho=0.9, omega=3.0, v0=0.1)
    strong_caps = CapSpec.from_params(strong, vol_cap=4.0, drift_cap=0.3)
    assert capped_vol_drift(0.5, strong, strong_caps) == -0.3


def test_capped_diffusion_saturates(params, caps):
    big = caps.binding_level(params) * 10.0
    assert capped_vol_diffusion(big, params, caps) == caps.vol_cap
    small = caps.binding_level(params) / 10.0
    assert capped_vol_diffusion(small, params, caps) == vol_diffusion(small, params)


def test_capped_diffusion_continuous_at_binding_level(params, caps):
    v = caps.binding_level(params)
    below = capped_vol_diffusion(v * (1.0 - 1e-12), params, caps)
    above = capped_vol_diffusion(v * (1.0 + 1e-12), params, caps)
    assert abs(below - caps.vol_cap) < 1e-9
    assert abs(above - caps.vol_cap) < 1e-9


@pytest.mark.parametrize("v", [1e155, 1e300, sys.float_info.max])
def test_coefficients_reach_their_limits_where_the_quadratic_overflows(params, caps, v):
    # an overflow is quiet (tier-1 turns warnings into errors): the
    # variance and the drift overflow for real, while the diffusion,
    # about (1 - beta) * v, is finite and both capped values are the caps
    assert vol_variance(v, params) == math.inf
    assert vol_drift(v, params) == math.inf
    assert math.isclose(vol_diffusion(v, params), 0.5 * v, rel_tol=1e-15)
    assert capped_vol_diffusion(v, params, caps) == caps.vol_cap
    assert capped_vol_drift(v, params, caps) == caps.drift_cap
    # a level that does not overflow keeps its bits beside one that does
    levels = np.array([0.1, v])
    assert vol_diffusion(levels, params)[0] == vol_diffusion(0.1, params)
    assert vol_variance(levels, params)[0] == vol_variance(0.1, params)


@pytest.mark.parametrize("omega", [1e-300, 1e-200])
def test_diffusion_where_every_term_of_the_quadratic_underflows(params, omega):
    # omega**2 underflows to 0, and so does the quadratic at these levels;
    # the diffusion is about omega, not 0
    p = SabrParams(0.5, -0.7, omega, 0.1)
    caps = CapSpec.from_params(p, vol_cap=2.0, drift_cap=1.0)
    levels = [0.0, 5e-324, 1e-300]
    assert vol_variance(np.array(levels), p).tolist() == [0.0, 0.0, 0.0]
    diffusion = vol_diffusion(np.array(levels), p)
    for v, value in zip(levels, diffusion):
        assert vol_diffusion(v, p) == capped_vol_diffusion(v, p, caps) == value
        with mpmath.workdps(40):
            b1, rho, w, x = map(mpmath.mpf, (p.beta - 1.0, p.rho, omega, v))
            exact = mpmath.sqrt(w**2 + 2 * rho * b1 * w * x + (b1 * x)**2)
        assert math.isclose(value, float(exact), rel_tol=1e-12)


@pytest.mark.parametrize("omega", [1e-160, 1e-158])
def test_diffusion_where_the_quadratic_is_subnormal(omega):
    # omega**2 is subnormal, so the quadratic keeps only a few digits;
    # the root is taken from the sum of two squares instead
    p = SabrParams(0.5, -0.7, omega, 0.1)
    for v in (0.0, 5e-324, 1e-300):
        with mpmath.workdps(40):
            b1, rho, w, x = map(mpmath.mpf, (p.beta - 1.0, p.rho, omega, v))
            exact = mpmath.sqrt(w**2 + 2 * rho * b1 * w * x + (b1 * x)**2)
        assert math.isclose(vol_diffusion(v, p), float(exact), rel_tol=1e-12), v


# subnormal levels up to 1e100, where every term stays finite
levels = st.lists(st.one_of(st.floats(0.0, 1e100),
                            st.floats(0.0, np.finfo(float).smallest_normal)),
                  min_size=1, max_size=16)


@given(any_params, st.floats(1.01, 10.0), st.floats(0.01, 100.0), levels)
@settings(max_examples=200, deadline=None)
@example(SabrParams(beta=0.5, rho=-0.7, omega=1.0, v0=0.1), 2.0, 1.0,
         [0.0, 0.05, 0.1, 1.0, 2.336308338453881, 10.0])
# pow(y, 2), which Python's ** takes on a float, rounds ((beta-1)*v)^2
# here 1 ulp away from y*y, the square the array evaluation takes
@example(SabrParams(beta=0.20488194229648374, rho=0.12560648378266404,
                    omega=0.6676661714765696, v0=0.1), 2.0, 1.0,
         [4.267479747276852])
def test_vectorized_coefficients_match_scalar(p, cap_ratio, drift_cap, v):
    caps = CapSpec.from_params(p, vol_cap=cap_ratio * p.omega, drift_cap=drift_cap)
    v = np.array(v)
    for f, args in [(vol_variance, ()), (vol_diffusion, ()), (vol_drift, ()),
                    (capped_vol_diffusion, (caps,)), (capped_vol_drift, (caps,))]:
        scalars = [f(float(x), p, *args) for x in v]
        assert all(type(s) is float for s in scalars)
        vectorized = [f(v, p, *args)]
        if args:
            out, scratch = np.empty_like(v), np.empty_like(v)
            assert f(v, p, caps, out=out, scratch=scratch) is out
            vectorized.append(out)
        # bit for bit, so a signed zero counts too
        for array in vectorized:
            assert array.shape == v.shape
            assert array.tobytes() == np.array(scalars).tobytes()


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@given(any_params)
@settings(max_examples=200, deadline=None)
# near a root of the cubic the two terms cancel: at v = 3.5 the sum is
# -6.2e-5 of terms of 24, and the sides differ by 1.13e-15
@example(SabrParams(beta=0.6000412667550012, rho=0.7369973558090916,
                    omega=3.32421875, v0=0.1))
def test_drift_diffusion_polynomial_identity(p):
    # v * drift(v) must equal cubic*v^3 + quadratic*v^2 for all levels,
    # up to a few roundings of the size of the terms, which stays put
    # where their sum cancels.
    cubic, quadratic = drift_polynomial_coefficients(p)
    v = np.linspace(0.0, 10.0, 41)
    lhs = v * vol_drift(v, p)
    rhs = cubic * v**3 + quadratic * v**2
    terms = np.abs(cubic * v**3) + np.abs(quadratic * v**2)
    assert np.all(np.abs(lhs - rhs) <= 8.0 * np.finfo(float).eps * terms + 1e-15)


@given(any_params)
@settings(max_examples=200, deadline=None)
def test_diffusion_squared_equals_variance(p):
    v = np.linspace(0.0, 20.0, 37)
    sig = vol_diffusion(v, p)
    var = vol_variance(v, p)
    assert np.all(var > 0.0)
    assert np.allclose(sig**2, var, rtol=1e-13, atol=0.0)
    # one quadratic under both: the square root is the diffusion exactly
    assert np.array_equal(np.sqrt(var), sig)
    assert all(math.sqrt(vol_variance(float(x), p)) == vol_diffusion(float(x), p)
               for x in v)


@given(negative_rho_params)
@settings(max_examples=200, deadline=None)
def test_diffusion_monotone_for_negative_correlation(p):
    v = np.linspace(0.0, 30.0, 61)
    sig = vol_diffusion(v, p)
    assert np.all(np.diff(sig) >= -1e-12)


@given(any_params, st.floats(1e-6, 3.0), st.floats(1e-6, 5.0))
@settings(max_examples=200, deadline=None)
def test_caps_bound_the_coefficients(p, extra, drift_cap):
    spec = CapSpec.from_params(p, vol_cap=p.omega + extra, drift_cap=drift_cap)
    v = np.linspace(0.0, 50.0, 101)
    sig = capped_vol_diffusion(v, p, spec)
    mu = capped_vol_drift(v, p, spec)
    assert np.all(sig <= spec.vol_cap + 1e-15)
    assert np.all(sig <= vol_diffusion(v, p) + 1e-15)
    assert np.all(np.abs(mu) <= spec.drift_cap + 1e-15)
    below = v < spec.binding_level(p)
    assert np.allclose(sig[below], vol_diffusion(v[below], p), rtol=1e-13)
