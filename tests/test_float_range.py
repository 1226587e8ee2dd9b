"""One fixed sweep of the public closed forms over the float range, the
range check of every public argument that must be finite and > 0, and
the conversion and shape of every vectorised public argument.

Every call either returns or raises ValueError or NumericalError, and
records no RuntimeWarning.  The points are fixed, not drawn, so the
sweep fails the same way on every run."""

import itertools
import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from vixsabr import (
    CapSpec,
    McConfig,
    NumericalError,
    PathSet,
    SabrParams,
    auxiliary_scale_exponent,
    bs_price,
    capped_vol_diffusion,
    capped_vol_drift,
    check_scale_density_envelope,
    evolve_capped,
    feller_test_function,
    implied_vol,
    limiting_implied_vol,
    price_vix_option,
    rate_convergence_study,
    rate_function,
    rate_integral,
    scale_exponent,
    scale_function,
    simulate_sabr_2d,
    smile_expansion,
    smile_from_paths,
    vol_diffusion,
    vol_drift,
    vol_variance,
)

# levels, strikes and x, from the smallest subnormal to the largest float
POINTS = (5e-324, 1e-300, 1e-155, 1e-8, 0.1, 1.0, 1e8, 1e77, 1e155, 1e300,
          sys.float_info.max)
# the default model, whose v0 is 0.1, with v0 at every point
MODELS = [SabrParams(beta=0.5, rho=-0.7, omega=1.0, v0=v0) for v0 in POINTS]


def _calls(params):
    """(name, function, arguments) of every call the sweep makes at one model."""
    caps = CapSpec.from_params(params, vol_cap=2.0, drift_cap=1.0)
    for v in POINTS:
        for fn in (vol_variance, vol_diffusion, vol_drift, scale_exponent,
                   auxiliary_scale_exponent):
            yield fn.__name__, fn, (v, params)
        for fn in (capped_vol_diffusion, capped_vol_drift, rate_function,
                   limiting_implied_vol):
            yield fn.__name__, fn, (v, params, caps)
    for lo, hi in itertools.combinations_with_replacement(POINTS, 2):
        yield "rate_integral", rate_integral, (lo, hi, params, caps)
    yield "smile_expansion", smile_expansion, (params,)


def _market_calls():
    """bs_price and implied_vol at every strike and forward, at the money
    and on both sides of it, at a short maturity and at one where
    vol * sqrt(maturity) overflows."""
    for strike, forward in itertools.product(POINTS, repeat=2):
        for kind, (maturity, vol) in itertools.product(
                ("call", "put"), ((0.1, 0.2), (1e300, 1e300))):
            yield "bs_price", bs_price, (strike, maturity, forward, vol, kind)
            yield "implied_vol", implied_vol, (0.5 * forward, strike, maturity,
                                               forward, kind)


def _problems(calls) -> list:
    """The calls that raise another exception or record a RuntimeWarning."""
    problems = []
    for name, fn, args in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                fn(*args)
            except (ValueError, NumericalError):
                pass
            except Exception as err:
                problems.append((name, args, repr(err)))
        problems += [(name, args, str(w.message)) for w in caught
                     if issubclass(w.category, RuntimeWarning)]
    return problems


@pytest.mark.parametrize("params", MODELS, ids=lambda p: f"v0={p.v0!r}")
def test_closed_forms_over_the_float_range(params):
    assert _problems(_calls(params)) == []


def test_black_functions_over_the_float_range():
    assert _problems(_market_calls()) == []


# Each public argument that must be finite and > 0, with the name its
# message gives, a call that passes the value there, and the values of
# the six below that the argument takes: inf is the limit of an upper
# bound, and a vol or scale-function point may be 0.
_PARAMS = SabrParams(beta=0.5, rho=-0.7, omega=1.0, v0=0.1)
_CAPS = CapSpec.from_params(_PARAMS, vol_cap=2.0, drift_cap=1.0)
_PATHS = PathSet(terminal_values=np.array([0.05, 0.1, 0.2]))
_MC = McConfig(n_paths=10, n_steps=2)
ARGUMENTS = {
    "limiting_implied_vol-strike": (
        "strike", lambda x: limiting_implied_vol(x, _PARAMS, _CAPS), ()),
    "rate_function-strike": (
        "strike", lambda x: rate_function(x, _PARAMS, _CAPS), (math.inf,)),
    "rate_integral-lo": ("lower bound", lambda x: rate_integral(x, 1.0, _PARAMS, _CAPS), ()),
    "rate_integral-hi": (
        "upper bound", lambda x: rate_integral(0.1, x, _PARAMS, _CAPS), (math.inf,)),
    "price_vix_option-strike": ("strike", lambda x: price_vix_option(_PATHS, x), ()),
    "bs_price-strike": ("strike and forward", lambda x: bs_price(x, 0.1, 0.1, 0.2), ()),
    "bs_price-forward": ("strike and forward", lambda x: bs_price(0.1, 0.1, x, 0.2), ()),
    "bs_price-maturity": ("maturity", lambda x: bs_price(0.1, x, 0.1, 0.2), ()),
    "bs_price-vol": ("vol", lambda x: bs_price(0.1, 0.1, 0.1, x), (0.0,)),
    "implied_vol-strike": (
        "strike and forward", lambda x: implied_vol(0.01, x, 0.1, 0.1), ()),
    "implied_vol-forward": (
        "strike and forward", lambda x: implied_vol(0.01, 0.1, 0.1, x), ()),
    "implied_vol-maturity": ("maturity", lambda x: implied_vol(0.01, 0.1, x, 0.1), ()),
    "smile_from_paths-strikes": (
        "strikes", lambda x: smile_from_paths(_PATHS, [0.1, x], 0.1), ()),
    "smile_from_paths-maturity": (
        "maturity", lambda x: smile_from_paths(_PATHS, [0.1], x), ()),
    "rate_convergence_study-strike": (
        "strike", lambda x: rate_convergence_study(x, _PARAMS, _CAPS, [0.2, 0.1], _MC), ()),
    "rate_convergence_study-maturities": (
        "maturities", lambda x: rate_convergence_study(0.15, _PARAMS, _CAPS, [0.2, x], _MC),
        ()),
    "evolve_capped-horizon": (
        "horizon", lambda x: evolve_capped(0.1, np.zeros((2, 2)), x, _PARAMS, _CAPS), ()),
    "evolve_capped-v_init": (
        "v_init", lambda x: evolve_capped([0.1, x], np.zeros((2, 2)), 0.1, _PARAMS, _CAPS),
        ()),
    "simulate_sabr_2d-s0": ("s0", lambda x: simulate_sabr_2d(_PARAMS, x, _MC), ()),
    "CapSpec-vol_cap": ("vol_cap", lambda x: replace(_CAPS, vol_cap=x), ()),
    "CapSpec-drift_cap": ("drift_cap", lambda x: replace(_CAPS, drift_cap=x), ()),
    "McConfig-horizon": ("horizon", lambda x: McConfig(horizon=x), ()),
    "McConfig-vix_window": ("vix_window", lambda x: McConfig(vix_window=x), ()),
    "scale_function-x": ("x", lambda x: scale_function(x, _PARAMS), (0.0,)),
    "feller_test_function-x": ("x", lambda x: feller_test_function(x, _PARAMS), ()),
}
BAD_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "0.0": 0.0,
              "-1.0": -1.0, "10**400": 10**400}


@pytest.mark.parametrize("argument, value", [
    pytest.param(argument, value, id=f"{argument}-{label}")
    for argument, (_, _, takes) in ARGUMENTS.items()
    for label, value in BAD_VALUES.items() if value not in takes] + [
    # vol_cap's square must be finite too
    pytest.param("CapSpec-vol_cap", 1e200, id="CapSpec-vol_cap-1e200")])
def test_each_positive_argument_refuses_values_out_of_range(argument, value):
    # an integer too large for a float compares below inf; it is refused
    # as inf is, not left to overflow in the computation
    name, call, _ = ARGUMENTS[argument]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
            call(value)
    assert [str(w.message) for w in caught] == []


# The arguments that broadcast as arrays, which numpy converts from text
ARRAY_ARGUMENTS = {"bs_price-strike", "bs_price-vol", "implied_vol-strike",
                   "evolve_capped-v_init", "scale_function-x", "feller_test_function-x"}


@pytest.mark.parametrize("argument", [a for a in ARGUMENTS if a not in ARRAY_ARGUMENTS])
def test_each_scalar_argument_refuses_text(argument):
    # float("1") reads text as a number, and an argument stored as it
    # came, like CapSpec's drift_cap, would then hold a str; text is
    # refused, as a comparison with a float refuses it
    name, call, _ = ARGUMENTS[argument]
    with pytest.raises(TypeError, match=f"^{re.escape(name)} must be a number, got '1'$"):
        call("1")


# Every vectorised public argument, as a call that passes x there.  An
# integer beyond the float range converts as the infinity of its sign
# does, alone or beside other elements, and a result keeps its input's
# shape.  evolve_capped takes its normals as one row of steps.
VECTORISED = {
    "vol_variance-v": lambda x: vol_variance(x, _PARAMS),
    "vol_diffusion-v": lambda x: vol_diffusion(x, _PARAMS),
    "vol_drift-v": lambda x: vol_drift(x, _PARAMS),
    "capped_vol_diffusion-v": lambda x: capped_vol_diffusion(x, _PARAMS, _CAPS),
    "capped_vol_drift-v": lambda x: capped_vol_drift(x, _PARAMS, _CAPS),
    "scale_exponent-x": lambda x: scale_exponent(x, _PARAMS),
    "auxiliary_scale_exponent-x": lambda x: auxiliary_scale_exponent(x, _PARAMS),
    "scale_function-x": lambda x: scale_function(x, _PARAMS),
    "feller_test_function-x": lambda x: feller_test_function(x, _PARAMS),
    "check_scale_density_envelope-x_grid": lambda x: check_scale_density_envelope(
        x, _PARAMS),
    "bs_price-strike": lambda x: bs_price(x, 0.1, 0.1, 0.2),
    "bs_price-vol": lambda x: bs_price(0.1, 0.1, 0.1, x),
    "implied_vol-price": lambda x: implied_vol(x, 0.1, 0.1, 0.1),
    "implied_vol-strike": lambda x: implied_vol(0.01, x, 0.1, 0.1),
    "evolve_capped-v_init": lambda x: evolve_capped(
        x, np.zeros((2, 2)), 0.1, _PARAMS, _CAPS),
    "evolve_capped-normals": lambda x: evolve_capped(
        0.1, [x if isinstance(x, list) else [x]], 0.1, _PARAMS, _CAPS),
}
# the arguments whose result is not one element per input element
NOT_ELEMENTWISE = {"check_scale_density_envelope-x_grid", "evolve_capped-v_init",
                   "evolve_capped-normals"}


def _outcome(call, x):
    """``call(x)``, or the class and message of what it raises; no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(x)
        except Exception as err:
            result = (type(err), str(err))
    assert [str(w.message) for w in caught] == []
    return result


def _assert_same(result, expected):
    if isinstance(expected, tuple):
        assert result == expected
    else:
        np.testing.assert_array_equal(result, expected, strict=True)


@pytest.mark.parametrize("sign", [1, -1], ids=["+", "-"])
@pytest.mark.parametrize("argument", VECTORISED)
def test_integers_beyond_the_float_range_convert_as_infinities(argument, sign):
    call = VECTORISED[argument]
    _assert_same(_outcome(call, sign * 10**400), _outcome(call, sign * math.inf))
    beside = _outcome(call, [sign * 10**400, 0.5])
    _assert_same(beside, _outcome(call, [sign * math.inf, 0.5]))
    if not isinstance(beside, tuple):
        assert np.ravel(beside)[-1] == np.ravel(_outcome(call, 0.5))[-1]


@pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 1)], ids=str)
@pytest.mark.parametrize("argument", [a for a in VECTORISED if a not in NOT_ELEMENTWISE])
def test_vectorised_results_keep_the_input_shape(argument, shape):
    call = VECTORISED[argument]
    result = _outcome(call, np.full(shape, 0.05))
    if shape:
        _assert_same(result, np.full(shape, _outcome(call, 0.05)))
    else:
        assert type(result) is float


@pytest.mark.parametrize("rho", [-0.7, 0.0, 0.7])
@pytest.mark.parametrize("v", [-math.inf, -10**400, math.inf, 10**400],
                         ids=["-inf", "-10**400", "inf", "10**400"])
def test_the_variance_at_an_infinite_level_is_its_limit(v, rho):
    # the quadratic is inf at both ends whatever the sign of rho; it
    # evaluates there as inf - inf, so its factored form is taken, and a
    # finite level beside it keeps its bits
    params = SabrParams(beta=0.5, rho=rho, omega=1.0, v0=0.1)
    caps = CapSpec.from_params(params, vol_cap=2.0, drift_cap=1.0)
    for fn, limit in ((vol_variance, math.inf), (vol_diffusion, math.inf),
                      (lambda x, p: capped_vol_diffusion(x, p, caps), 2.0)):
        call = lambda x: fn(x, params)
        assert _outcome(call, v) == limit
        _assert_same(_outcome(call, [v, 0.5]), np.array([limit, call(0.5)]))
