import math
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from vixsabr import pricing
from vixsabr.mc import _BLOCK_PATHS
from vixsabr import (
    CapSpec,
    McConfig,
    NumericalError,
    PathSet,
    RunConfig,
    bs_price,
    estimate_forward,
    implied_vol,
    price_vix_option,
    rate_convergence_study,
    rate_function,
    simulate_capped_paths,
    smile_from_paths,
)


# ---------------------------------------------------------------------------
# Black formula
# ---------------------------------------------------------------------------

def test_bs_put_call_parity():
    for strike in (0.05, 0.1, 0.2):
        for vol in (0.2, 1.0, 2.5):
            call = bs_price(strike, 0.1, 0.1, vol, "call")
            put = bs_price(strike, 0.1, 0.1, vol, "put")
            assert math.isclose(call - put, 0.1 - strike, rel_tol=0, abs_tol=1e-14)


def test_bs_zero_vol_is_intrinsic():
    assert bs_price(0.08, 0.1, 0.1, 0.0, "call") == 0.1 - 0.08
    assert bs_price(0.12, 0.1, 0.1, 0.0, "call") == 0.0
    assert bs_price(0.12, 0.1, 0.1, 0.0, "put") == 0.12 - 0.1


def test_bs_at_the_money_small_vol_approximation():
    vol, maturity, forward = 0.2, 0.25, 0.1
    price = bs_price(forward, maturity, forward, vol, "call")
    approx = forward * vol * math.sqrt(maturity) / math.sqrt(2.0 * math.pi)
    assert math.isclose(price, approx, rel_tol=1e-3)


def test_bs_price_at_a_subnormal_strike_is_its_limit():
    # forward / strike overflows; d1 is inf and the price the forward,
    # without a warning (tier-1 turns warnings into errors)
    assert bs_price(5e-324, 0.1, 0.1, 0.2) == 0.1


def test_bs_price_where_the_total_vol_overflows_is_its_limit():
    # vol * sqrt(T) overflows: the price is the forward for a call and the
    # strike for a put, without a warning, and the inversion stays quiet
    assert bs_price(0.2, 1e300, 0.1, 1e300, "call") == 0.1
    assert bs_price(0.2, 1e300, 0.1, 1e300, "put") == 0.2
    assert bs_price([0.05, 0.2], 1e300, 0.1, 1e300, ["put", "call"]).tolist() == [
        0.05, 0.1]
    assert 0.0 < implied_vol(0.05, 0.1, 1e300, 0.1) < 1e-15
    assert 0.0 < implied_vol(0.15, 0.2, 1e300, 0.1, "put") < 1e-15


def test_bs_increasing_in_vol():
    vols = np.linspace(0.05, 3.0, 30)
    prices = [bs_price(0.12, 0.1, 0.1, v, "call") for v in vols]
    assert all(prices[i] < prices[i + 1] for i in range(len(prices) - 1))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(strike=0.0, maturity=0.1, forward=0.1, vol=1.0),
        dict(strike=0.1, maturity=0.1, forward=0.0, vol=1.0),
        dict(strike=0.1, maturity=0.0, forward=0.1, vol=1.0),
        dict(strike=0.1, maturity=0.1, forward=0.1, vol=-0.5),
        dict(strike=0.1, maturity=0.1, forward=0.1, vol=1.0, kind="digital"),
        dict(strike=math.nan, maturity=0.1, forward=0.1, vol=1.0),
        dict(strike=math.inf, maturity=0.1, forward=0.1, vol=1.0),
        dict(strike=[0.1, math.nan], maturity=0.1, forward=0.1, vol=1.0),
        dict(strike=0.1, maturity=math.nan, forward=0.1, vol=1.0),
        dict(strike=0.1, maturity=math.inf, forward=0.1, vol=1.0),
        dict(strike=0.1, maturity=0.1, forward=math.nan, vol=1.0),
        dict(strike=0.1, maturity=0.1, forward=math.inf, vol=1.0),
        dict(strike=0.1, maturity=0.1, forward=0.1, vol=math.nan),
        dict(strike=0.1, maturity=0.1, forward=0.1, vol=math.inf),
        dict(strike=0.1, maturity=0.1, forward=0.1, vol=[0.2, math.inf]),
    ],
)
def test_bs_validation(kwargs):
    with pytest.raises(ValueError):
        bs_price(**kwargs)


@pytest.mark.parametrize("vol, bad", [([math.inf, 0.5], "inf"), ([0.5, -1.0], "-1.0"),
                                      ([[0.2, 0.3], [math.nan, -1.0]], "nan"),
                                      (-0.5, "-0.5")])
def test_bs_price_names_the_first_bad_vol(vol, bad):
    # as every range message does, not the whole array
    with pytest.raises(ValueError, match=f"^vol must be finite and >= 0, got {bad}$"):
        bs_price(0.1, 0.1, 0.1, vol)


def test_normal_cdf_is_as_accurate_as_ndtr():
    # against 40-digit values on the arguments where Phi is neither 0
    # nor 1 in double; ndtr's errors are 2.3e-13 and 1.5e-14 here
    xs = np.linspace(-37.5, 8.5, 2301)
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.ncdf(x)) for x in xs])
    errors = {name: np.abs(phi(xs) - exact) / exact
              for name, phi in (("erfc", pricing._normal_cdf), ("ndtr", special.ndtr))}
    for part in (xs == xs, xs > -10.0):
        assert errors["erfc"][part].max() <= errors["ndtr"][part].max()
    assert errors["erfc"].max() < 2.3e-13
    assert errors["erfc"][xs > -10.0].max() < 1.5e-14
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = pricing._normal_cdf(np.array([-math.inf, -40.0, 40.0, math.inf]))
    assert ends.tolist() == [0.0, 0.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# implied volatility inversion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(strike=math.nan, maturity=0.1, forward=0.1),
        dict(strike=math.inf, maturity=0.1, forward=0.1),
        dict(strike=[0.1, math.nan], maturity=0.1, forward=0.1),
        dict(strike=0.1, maturity=math.nan, forward=0.1),
        dict(strike=0.1, maturity=math.inf, forward=0.1),
        dict(strike=0.1, maturity=0.1, forward=math.nan),
        dict(strike=0.1, maturity=0.1, forward=math.inf),
    ],
)
def test_implied_vol_validation(kwargs):
    with pytest.raises(ValueError, match="finite and > 0"):
        implied_vol(0.01, **kwargs)


def test_each_inversion_checks_its_inputs_once(monkeypatch):
    # the one bs_price at the vol ceiling checks the kind and the market
    # for the whole inversion, and a smile inverts all its prices at once
    counts = Counter()

    def counted(name):
        fn = getattr(pricing, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_is_call", "_check_market", "bs_price"):
        monkeypatch.setattr(pricing, name, counted(name))
    implied_vol([0.01, 0.03], [0.1, 0.12], 0.1, 0.1, ["call", "put"])
    assert counts == {"_is_call": 1, "_check_market": 1, "bs_price": 1}
    counts.clear()
    values = np.random.default_rng(3).lognormal(math.log(0.1), 0.3, 2000)
    smile_from_paths(PathSet(terminal_values=values), np.linspace(0.05, 0.2, 16), 0.1)
    assert counts == {"_is_call": 1, "_check_market": 1, "bs_price": 1}
    # the kind and the market are refused before a NaN price is
    with pytest.raises(ValueError, match="kind must be"):
        implied_vol(math.nan, 0.1, 0.1, 0.1, "straddle")
    with pytest.raises(ValueError, match="strike and forward"):
        implied_vol(math.nan, 0.0, 0.1, 0.1)
    with pytest.raises(ValueError, match="prices must not be NaN"):
        implied_vol(math.nan, 0.1, 0.1, 0.1)


def test_implied_vol_round_trip():
    checked = 0
    for kind in ("call", "put"):
        for strike in (0.08, 0.1, 0.15):
            for vol in (0.1, 1.0, 3.0):
                price = bs_price(strike, 0.1, 0.1, vol, kind)
                intrinsic = max(0.1 - strike, 0.0) if kind == "call" else max(strike - 0.1, 0.0)
                if price - intrinsic <= 1e-6 * 0.1:
                    continue  # no usable time value: inversion is degenerate
                recovered = implied_vol(price, strike, 0.1, 0.1, kind)
                assert math.isclose(recovered, vol, rel_tol=1e-10)
                checked += 1
    assert checked >= 14


def test_implied_vol_out_of_bounds_sides():
    # below intrinsic 0.02, at intrinsic, above the forward, at the forward,
    # above the strike, and a put at 0 intrinsic value (strike below forward)
    prices = [0.019, 0.02, 0.11, 0.1, 0.13, 0.0]
    strikes = [0.08, 0.08, 0.08, 0.08, 0.13, 0.09]
    kinds = ["call", "call", "call", "call", "put", "put"]
    expected = [0.0, 0.0, math.inf, math.inf, math.inf, 0.0]
    found = [implied_vol(p, k, 0.1, 0.1, kind) for p, k, kind in zip(prices, strikes, kinds)]
    assert found == expected
    assert all(type(vol) is float for vol in found)
    assert implied_vol(prices, strikes, 0.1, 0.1, kinds).tolist() == expected
    # inside the bounds, but no vol up to 1e6 reaches it at T = 1e-14
    assert bs_price(0.1, 1e-14, 0.1, 1e6) < 0.05 < 0.1
    assert implied_vol(0.05, 0.1, 1e-14, 0.1) == math.inf


@pytest.mark.parametrize("maturity", [1e12, 1e40])
def test_implied_vol_residual_grows_like_the_root_of_the_maturity(maturity):
    # the bracket ends within 4.3e-16 of the crossing in vol, absolutely,
    # so the residual is bounded by vega times that, not by 1e-12 * forward
    forward, price = 0.1, 0.05
    found = implied_vol(price, forward, maturity, forward)
    # at the money, price = forward * (2 N(vol sqrt(T) / 2) - 1)
    exact = 2.0 * optimize.brentq(
        lambda x: bs_price(forward, 1.0, forward, 2.0 * x) - price, 0.0, 10.0)
    assert abs(found - exact / math.sqrt(maturity)) <= 4.3e-16
    residual = abs(bs_price(forward, maturity, forward, found) - price)
    assert 1e-12 * forward < residual <= forward * (1e-12 + 2e-16 * math.sqrt(maturity))


@settings(max_examples=200, deadline=None)
@given(
    maturity=st.floats(1e-3, 5.0),
    quotes=st.lists(
        st.tuples(st.floats(-1.5, 1.5), st.floats(0.01, 5.0), st.booleans()),
        min_size=1, max_size=8,
    ),
)
def test_vector_inversion_round_trip(maturity, quotes):
    forward = 0.1
    strikes = np.array([forward * math.exp(k) for k, _, _ in quotes])
    vols = np.array([vol for _, vol, _ in quotes])
    calls = np.array([call for _, _, call in quotes])
    kinds = ["call" if call else "put" for call in calls]
    prices = np.array([bs_price(k, maturity, forward, v, kind)
                       for k, v, kind in zip(strikes, vols, kinds)])
    found = implied_vol(prices, strikes, maturity, forward, kinds)
    below, above = found == 0.0, found == math.inf
    for i, kind in enumerate(kinds):
        intrinsic = max(forward - strikes[i], 0.0) if calls[i] else max(
            strikes[i] - forward, 0.0)
        assert not above[i]
        if below[i]:
            # only a time value lost to rounding falls out of bounds
            assert prices[i] - intrinsic <= 1e-14 * max(forward, strikes[i])
            continue
        residual = bs_price(strikes[i], maturity, forward, found[i], kind) - prices[i]
        assert abs(residual) <= 1e-12 * forward
        if prices[i] - intrinsic > 1e-6 * forward:
            assert math.isclose(found[i], vols[i], rel_tol=1e-8)
    # a price raised by 1 to 40 ulps never inverts to a lower vol
    raised = [prices]
    for _ in range(40):
        raised.append(np.nextafter(raised[-1], math.inf))
    assert np.all(implied_vol(np.stack(raised[1:]), strikes, maturity, forward,
                              kinds) >= found)


def test_black_functions_on_arrays_match_their_scalar_calls():
    strikes = np.array([0.08, 0.1, 0.12, 0.3])
    kinds = np.array(["put", "call", "call", "put"])
    vols = np.array([0.0, 0.5, 1.2, 2.0])
    prices = bs_price(strikes, 0.1, 0.1, vols, kinds)
    quotes = list(zip(prices, strikes, kinds))
    assert prices.tolist() == [bs_price(k, 0.1, 0.1, v, kind)
                               for k, v, kind in zip(strikes, vols, kinds)]
    # the zero-vol put is priced at intrinsic value and inverts to 0.0
    assert implied_vol(prices, strikes, 0.1, 0.1, kinds).tolist() == [
        implied_vol(p, k, 0.1, 0.1, kind) for p, k, kind in quotes]
    assert implied_vol(prices[0], strikes[0], 0.1, 0.1, kinds[0]) == 0.0
    # the message names the offending kind, not the array's repr
    with pytest.raises(ValueError, match="got 'straddle'$") as error:
        bs_price(strikes, 0.1, 0.1, vols, ["call", "put", "call", "straddle"])
    assert "array(" not in str(error.value)
    with pytest.raises(ValueError, match="strike"):
        implied_vol(prices[1:], [0.1, 0.0, 0.3], 0.1, 0.1, kinds[1:])


# ---------------------------------------------------------------------------
# smile construction from simulated paths
# ---------------------------------------------------------------------------

def test_smile_prices_out_of_the_money_side(params, caps):
    mc = McConfig(n_paths=5_000, n_steps=20, horizon=0.1, seed=17)
    paths = simulate_capped_paths(params, caps, mc)
    from vixsabr import estimate_forward, price_vix_option

    fwd = estimate_forward(paths).value
    strikes = [0.07, 0.13]
    points = smile_from_paths(paths, strikes, maturity=0.1)
    assert points[0].strike < fwd < points[1].strike
    put_direct = price_vix_option(paths, 0.07, "put")
    call_direct = price_vix_option(paths, 0.13, "call")
    # the smile sums the payoffs in another order than price_vix_option
    assert abs(points[0].price.value - put_direct.value) <= 1e-15 * fwd
    assert abs(points[1].price.value - call_direct.value) <= 1e-15 * fwd
    for pt in points:
        assert math.isclose(pt.log_strike, math.log(pt.strike / fwd), rel_tol=1e-14)


def test_smile_sorts_strikes(params, caps):
    mc = McConfig(n_paths=2_000, n_steps=10, horizon=0.1, seed=17)
    paths = simulate_capped_paths(params, caps, mc)
    points = smile_from_paths(paths, [0.12, 0.08, 0.1], maturity=0.1)
    strikes = [pt.strike for pt in points]
    assert strikes == sorted(strikes)
    # any iterable of numbers will do; a nested list is no list of numbers
    assert smile_from_paths(paths, (k for k in [0.12, 0.08, 0.1]), 0.1) == points
    assert smile_from_paths(paths, {0.12, 0.08, 0.1}, 0.1) == points
    with pytest.raises(TypeError):
        smile_from_paths(paths, [[0.12, 0.08]], 0.1)


def test_smile_band_brackets_the_estimate(params, caps):
    mc = McConfig(n_paths=20_000, n_steps=20, horizon=0.1, seed=17)
    paths = simulate_capped_paths(params, caps, mc)
    points = smile_from_paths(paths, np.geomspace(0.08, 0.14, 7), maturity=0.1)
    for pt in points:
        assert pt.status == "ok"
        lo, hi = pt.band
        assert lo < pt.implied_vol < hi


def test_smile_far_strike_reports_status(params, caps):
    mc = McConfig(n_paths=2_000, n_steps=10, horizon=0.1, seed=17)
    paths = simulate_capped_paths(params, caps, mc)
    points = smile_from_paths(paths, [0.1, 5.0], maturity=0.1)
    far = points[-1]
    assert far.status == "below"  # zero-price call: at intrinsic value
    assert math.isnan(far.implied_vol)
    assert len(far.band) == 2 and all(math.isnan(edge) for edge in far.band)


def test_smile_keeps_each_status_of_its_unquoted_strikes():
    # at maturity 1e-11 the vol ceiling 1e6 is a total vol of about 3.2,
    # and the put at 0.1 pays more than Black's put at that vol; no path
    # pays at 0.0005 or at 2.0
    paths = PathSet(terminal_values=np.array([0.001] * 9 + [1.0]))
    points = smile_from_paths(paths, [0.0005, 0.1, 0.5, 2.0], maturity=1e-11)
    assert [pt.status for pt in points] == ["below", "above", "ok", "below"]
    for pt in points:
        quoted = pt.status == "ok"
        assert [math.isnan(x) for x in (pt.implied_vol, *pt.band)] == [not quoted] * 3
    assert points[2].band[0] < points[2].implied_vol < points[2].band[1]
    # an unquoted strike holds one NaN object, so equal smiles compare equal
    assert smile_from_paths(paths, [0.0005, 0.1, 0.5, 2.0], maturity=1e-11) == points


def test_smile_strike_whose_square_overflows_reports_below():
    # K^2 is inf above sqrt(float max); no path pays, so the square sum
    # has no K^2 term, and the nearer strike keeps its bytes
    paths = PathSet(terminal_values=np.array([0.05, 0.1, 0.2]))
    near, far = smile_from_paths(paths, [0.15, 1e200], maturity=0.1)
    assert (far.status, far.price.value, far.price.std_error) == ("below", 0.0, 0.0)
    assert near == smile_from_paths(paths, [0.15], maturity=0.1)[0]


@pytest.mark.parametrize("strikes, maturity", [([0.05, 0.2], math.nan),
                                               ([0.05, 0.2], math.inf),
                                               ([0.1, math.inf], 0.1)])
def test_smile_rejects_a_strike_or_maturity_that_is_not_finite(strikes, maturity):
    paths = PathSet(terminal_values=np.array([0.05, 0.1, 0.2]))
    with pytest.raises(ValueError, match="must be finite and > 0"):
        smile_from_paths(paths, strikes, maturity)


@pytest.mark.parametrize("values", [[0.0, 0.0], [0.1, math.nan]],
                         ids=["underflow", "nan"])
def test_smile_rejects_a_forward_that_is_not_finite_and_positive(values):
    paths = PathSet(terminal_values=np.array(values))
    with pytest.raises(NumericalError, match="forward at maturity 0.1 is"):
        smile_from_paths(paths, [0.1], maturity=0.1)


def test_smile_rejects_a_price_whose_square_sum_overflows():
    # the paths' squares overflow while their mean and spread are finite:
    # the put at the forward then has an inf - inf square sum
    paths = PathSet(terminal_values=np.array([1e160, 1e160 * (1.0 + 1e-12)]))
    forward = float(paths.terminal_values.mean())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite at strikes"):
            smile_from_paths(paths, [forward], maturity=0.1)


def test_smile_band_saturates_at_zero():
    paths = PathSet(terminal_values=np.array([0.05, 0.2]))
    (point,) = smile_from_paths(paths, [0.15], maturity=0.1)
    assert point.status == "ok"
    assert point.band[0] == 0.0
    assert math.isfinite(point.band[1])


def test_smile_band_saturates_at_infinity():
    paths = PathSet(terminal_values=np.array([0.0, 0.0, 0.3]))
    (point,) = smile_from_paths(paths, [0.1], maturity=0.1)
    assert point.status == "ok"
    assert math.isfinite(point.band[0])
    assert point.band[1] == math.inf


@pytest.mark.parametrize("strike, tail", [(0.5, 0.9), (0.02, 0.001)])
def test_smile_band_lower_edge_is_zero_with_one_paying_path(strike, tail):
    # one path beyond the strike: price - SE is exactly 0, so the lower
    # edge is 0.0 whichever way the subtraction rounds
    values = np.full(999, 0.1)
    values[0] = tail
    (point,) = smile_from_paths(PathSet(terminal_values=values), [strike],
                                maturity=0.1)
    assert point.status == "ok"
    assert point.band[0] == 0.0
    assert point.implied_vol < point.band[1] < math.inf


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_smile_holds_under_a_mebibyte_beside_its_paths(n, traced_peak):
    # each block of paths is sorted and summed on its own, so no n-path
    # copy is held, and the inversion's temporaries are small
    paths = PathSet(np.random.default_rng(1).lognormal(math.log(0.1), 0.3, n))
    strikes = np.geomspace(0.03, 0.5, 161)
    assert traced_peak(lambda: smile_from_paths(paths, strikes, maturity=0.1)) < 2**20


def _brentq_vol(price, strike, maturity, forward, kind):
    """Per-strike oracle: bracket by doubling, then scipy's brentq.

    Returns the vol, or the side "below"/"above" of the arbitrage bounds.
    """
    intrinsic, upper = ((max(forward - strike, 0.0), forward) if kind == "call"
                        else (max(strike - forward, 0.0), strike))
    if price <= intrinsic:
        return "below"
    if price >= upper:
        return "above"
    hi = 1.0
    while bs_price(strike, maturity, forward, hi, kind) < price:
        hi *= 2.0
        if hi > 1e6:
            return "above"
    return optimize.brentq(
        lambda vol: bs_price(strike, maturity, forward, vol, kind) - price,
        0.0, hi, xtol=1e-14, rtol=8.9e-16,
    )


def _edge_residual_ok(edge, price, strike, maturity, forward, kind):
    if edge == 0.0:
        return _brentq_vol(price, strike, maturity, forward, kind) == "below"
    if edge == math.inf:
        return _brentq_vol(price, strike, maturity, forward, kind) == "above"
    residual = bs_price(strike, maturity, forward, edge, kind) - price
    return abs(residual) <= 1e-12 * forward


def _check_against_reference(paths, strikes, maturity):
    """Check a smile point by point against price_vix_option and the
    brentq oracle; return the statuses and saturated band edges seen."""
    points = smile_from_paths(paths, strikes, maturity)
    values = paths.terminal_values
    fwd = estimate_forward(paths).value
    seen = set()
    for point in points:
        strike = point.strike
        kind = "call" if strike > fwd else "put"
        paying = np.count_nonzero(values > strike if kind == "call" else values < strike)
        reference = price_vix_option(paths, strike, kind)
        assert abs(point.price.value - reference.value) <= 1e-15 * fwd
        assert math.isclose(point.price.std_error, reference.std_error,
                            rel_tol=1e-11, abs_tol=0.0)
        expected = _brentq_vol(reference.value, strike, maturity, fwd, kind)
        status = expected if isinstance(expected, str) else "ok"
        assert point.status == status, strike
        seen.add(status)
        if status != "ok":
            continue
        assert math.isclose(point.implied_vol, expected, rel_tol=1e-12)
        mid = point.price.value
        shift = point.price.std_error
        assert abs(bs_price(strike, maturity, fwd, point.implied_vol, kind)
                   - mid) <= 1e-12 * fwd
        lower, upper = point.band
        if paying <= 1:
            assert lower == 0.0
            seen.add("one paying path")
        else:
            assert _edge_residual_ok(lower, mid - shift, strike, maturity, fwd, kind)
        assert _edge_residual_ok(upper, mid + shift, strike, maturity, fwd, kind)
        if upper == math.inf:
            seen.add("upper edge above")
    return seen


@pytest.mark.parametrize("seed", [1, 2, 3, 777, 12345])
def test_smile_matches_per_strike_reference(seed):
    config = RunConfig()
    strikes = np.geomspace(0.03, 0.5, 161)
    mc = McConfig(seed=seed, horizon=0.1)
    paths = simulate_capped_paths(config.model, config.caps, mc, n_threads=1)
    two = simulate_capped_paths(config.model, config.caps, mc, n_threads=2)
    assert smile_from_paths(two, strikes, 0.1) == smile_from_paths(paths, strikes, 0.1)
    seen = _check_against_reference(paths, strikes, 0.1)
    assert {"ok", "below"} <= seen


def test_smile_matches_per_strike_reference_on_small_path_sets():
    # no simulated smile prices a strike at or over its upper bound:
    # these path sets push band edges there instead
    seen = set()
    for values in ([0.0, 0.0, 0.3], [0.001, 0.001, 0.001, 0.3],
                   [0.01] * 5 + [0.2, 0.9]):
        paths = PathSet(terminal_values=np.array(values))
        seen |= _check_against_reference(
            paths, [0.005, 0.05, 0.1, 0.15, 0.3, 0.5], 0.1)
    assert {"ok", "below", "one paying path", "upper edge above"} <= seen


def test_smile_matches_per_strike_reference_across_blocks():
    # three blocks, the last of 7 paths: each tied strike has copies in
    # blocks 0 and 2, which pay on neither side; one put and one call
    # strike have one paying path each, and no path reaches 5.0
    rng = np.random.default_rng(5)
    values = rng.lognormal(math.log(0.1), 0.3, 2 * _BLOCK_PATHS + 7)
    values[[3, 2 * _BLOCK_PATHS + 2]] = 0.08
    values[[_BLOCK_PATHS - 1, 2 * _BLOCK_PATHS + 6]] = 0.13
    values[2 * _BLOCK_PATHS + 4], values[_BLOCK_PATHS + 9] = 1.5, 0.001
    strikes = [0.002, 0.03, 0.08, 0.1, 0.13, 0.3, 1.2, 5.0]
    paths = PathSet(terminal_values=values)
    seen = _check_against_reference(paths, strikes, 0.1)
    assert {"ok", "below", "one paying path"} <= seen
    points = smile_from_paths(paths, strikes, 0.1)
    assert points[-1].status == "below" and points[-1].price.value == 0.0


def test_smile_flat_for_constant_diffusion(params):
    # tight caps make the process lognormal: the smile must be flat at
    # the cap level within the reported bands
    tight = CapSpec.from_params(params, vol_cap=1.0 + 1e-9, drift_cap=1e-12)
    mc = McConfig(n_paths=50_000, n_steps=50, horizon=0.1, seed=2024)
    paths = simulate_capped_paths(params, tight, mc)
    points = smile_from_paths(paths, np.geomspace(0.07, 0.14, 9), maturity=0.1)
    for pt in points:
        assert pt.status == "ok"
        half_width = 0.5 * (pt.band[1] - pt.band[0])
        assert abs(pt.implied_vol - 1.0) <= 1.5 * half_width


# ---------------------------------------------------------------------------
# short-maturity rate convergence study
# ---------------------------------------------------------------------------

def test_rate_study_gap_shrinks(params, caps):
    mc = McConfig(n_paths=20_000, n_steps=50, horizon=0.1, seed=12345)
    rows = rate_convergence_study(0.15, params, caps, [0.2, 0.1], mc)
    assert len(rows) == 2
    target = rate_function(0.15, params, caps)
    for row in rows:
        assert row.rate_function_value == target
        assert not row.statistically_zero
        assert row.minus_t_log_price > 0.0
        assert math.isclose(row.gap, abs(row.minus_t_log_price - target), rel_tol=1e-15)
    assert rows[1].gap < rows[0].gap


def test_rate_study_flags_vanishing_prices(params, caps):
    mc = McConfig(n_paths=1_000, n_steps=10, horizon=0.1, seed=1)
    rows = rate_convergence_study(3.0, params, caps, [0.02, 0.01], mc)
    assert all(row.statistically_zero for row in rows)
    assert all(math.isnan(row.minus_t_log_price) or row.minus_t_log_price > 0 for row in rows)


def test_rate_study_validation(params, caps, mc_default):
    # the strike is checked first: the maturities are bad here too
    for strike in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="strike must be finite and > 0"):
            rate_convergence_study(strike, params, caps, [0.1], mc_default)
    with pytest.raises(ValueError):
        rate_convergence_study(0.15, params, caps, [0.1], mc_default)
    with pytest.raises(ValueError):
        rate_convergence_study(0.15, params, caps, [0.05, 0.1], mc_default)
    with pytest.raises(ValueError):
        rate_convergence_study(params.v0, params, caps, [0.2, 0.1], mc_default)
