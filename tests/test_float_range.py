"""One fixed sweep of the public closed forms over the float range.

Every call either returns or raises ValueError or NumericalError, and
records no RuntimeWarning.  The points are fixed, not drawn, so the
sweep fails the same way on every run."""

import itertools
import sys
import warnings

import pytest

from vixsabr import (
    CapSpec,
    NumericalError,
    SabrParams,
    auxiliary_scale_exponent,
    bs_price,
    capped_vol_diffusion,
    capped_vol_drift,
    implied_vol,
    limiting_implied_vol,
    rate_function,
    rate_integral,
    scale_exponent,
    smile_expansion,
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
    and on both sides of it."""
    for strike, forward in itertools.product(POINTS, repeat=2):
        for kind in ("call", "put"):
            yield "bs_price", bs_price, (strike, 0.1, forward, 0.2, kind)
            yield "implied_vol", implied_vol, (0.5 * forward, strike, 0.1, forward, kind)


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
