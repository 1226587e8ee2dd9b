import hashlib
import math
import re
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from vixsabr import (
    CapSpec,
    McConfig,
    McEstimate,
    NumericalError,
    PathSet,
    SabrParams,
    capped_vol_diffusion,
    capped_vol_drift,
    estimate_capped_lanes,
    estimate_forward,
    estimate_vix_nested,
    evolve_capped,
    price_vix_option,
    simulate_capped_lanes,
    simulate_capped_paths,
    simulate_sabr_2d,
    smile_from_paths,
)
from vixsabr.mc import _BLOCK_PATHS

# The stream contract, written out here so that the oracles below share
# no code with the engines: block b of a domain's paths draws from the
# Philox stream keyed (domain << 96) | (b << 64) | seed.
_DOMAIN_CAPPED, _DOMAIN_INNER, _DOMAIN_2D = 1, 2, 3


def _block_stream(domain, block, seed):
    key = (domain << 96) | (block << 64) | seed
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_paths=0),
        dict(n_steps=0),
        dict(horizon=0.0),
        dict(horizon=-0.1),
        dict(inner_paths=-1),
        dict(inner_steps=0),
        dict(seed=-1),
        dict(seed=2**64),
        dict(n_paths=2.5),
        dict(n_steps=True),
        dict(inner_paths=1000.0),
        dict(inner_steps="30"),
        dict(seed=1.0),
        dict(horizon=math.inf),
    ],
)
def test_mc_config_validation(kwargs):
    with pytest.raises(ValueError):
        McConfig(**kwargs)


# ---------------------------------------------------------------------------
# capped-path simulation
# ---------------------------------------------------------------------------

def test_simulation_deterministic_across_thread_counts(params, caps):
    mc = McConfig(n_paths=40_000, n_steps=20, horizon=0.1, seed=7)
    one = simulate_capped_paths(params, caps, mc, n_threads=1)
    four = simulate_capped_paths(params, caps, mc, n_threads=4)
    assert np.array_equal(one.terminal_values, four.terminal_values)


def test_simulation_blocks_independent_of_total_size(params, caps):
    # the first block's stream does not depend on how many blocks follow
    small = McConfig(n_paths=16_384, n_steps=5, horizon=0.1, seed=11)
    large = McConfig(n_paths=32_768, n_steps=5, horizon=0.1, seed=11)
    a = simulate_capped_paths(params, caps, small)
    b = simulate_capped_paths(params, caps, large)
    assert np.array_equal(a.terminal_values, b.terminal_values[:16_384])


@pytest.mark.parametrize("width", [_BLOCK_PATHS, 17])
def test_row_draws_equal_one_block_draw(width):
    whole = _block_stream(_DOMAIN_CAPPED, 3, 12345).standard_normal((7, width))
    rng = _block_stream(_DOMAIN_CAPPED, 3, 12345)
    row = np.empty(width)
    for k in range(7):
        rng.standard_normal(out=row)
        assert np.array_equal(row, whole[k])


def _reference_paths(params, caps, mc):
    """Step-major paths from whole-block 2-D draws and the plain step
    expressions, as the simulator is specified."""
    dt = mc.horizon / mc.n_steps
    sqrt_dt = math.sqrt(dt)
    blocks = []
    for b, lo in enumerate(range(0, mc.n_paths, _BLOCK_PATHS)):
        m = min(mc.n_paths, lo + _BLOCK_PATHS) - lo
        z = _block_stream(_DOMAIN_CAPPED, b, mc.seed).standard_normal((mc.n_steps, m))
        v = np.full(m, params.v0)
        rows = [v]
        for k in range(mc.n_steps):
            sig = capped_vol_diffusion(v, params, caps)
            mu = capped_vol_drift(v, params, caps)
            v = v * np.exp((mu - 0.5 * sig * sig) * dt + sig * sqrt_dt * z[k])
            rows.append(v)
        blocks.append(np.array(rows))
    return np.concatenate(blocks, axis=1)


# omega**2 by Python's pow() differs from omega*omega in the last bit
# for this omega, so a stack that squared its omega column with numpy
# would change this lane's paths.
_POW_OMEGA = 1.3409706439643465


def _stacked_lanes(params, caps):
    """Seven lanes, so three stacks: the first differs only in horizon,
    the others in beta, rho, omega, v0, caps and horizon.  Lane 2's caps
    bind."""
    flipped = replace(params, rho=0.7)
    binding = SabrParams(beta=0.5, rho=-0.7, omega=1.5, v0=0.5)
    odd = SabrParams(beta=0.25, rho=-0.3, omega=_POW_OMEGA, v0=0.2)
    flat = SabrParams(beta=0.0, rho=0.4, omega=0.6, v0=0.15)
    assert _POW_OMEGA**2 != _POW_OMEGA * _POW_OMEGA
    return [
        (params, caps, 0.1),
        (params, caps, 0.025),
        (binding, CapSpec.from_params(binding, 1.8, 0.3), 0.4),
        (odd, CapSpec.from_params(odd, 2.5, 0.8), 0.2),
        (flipped, CapSpec.from_params(flipped, 2.0, 1.0), 0.1),
        (flat, CapSpec.from_params(flat, 0.9, 0.5), 0.05),
        (odd, CapSpec.from_params(odd, 1.6, 0.2), 0.3),
    ]


# "log" names the step that _reference_paths writes out
@pytest.mark.parametrize("n_threads", [1, 2], ids=["log-1", "log-2"])
def test_lanes_equal_separate_simulations(params, caps, n_threads):
    mc = McConfig(n_paths=16_384 + 17, n_steps=6, horizon=0.1, seed=31)
    lanes = _stacked_lanes(params, caps)
    results = simulate_capped_lanes(lanes, mc, n_threads=n_threads)
    assert len(results) == len(lanes)
    for (p, c, horizon), got in zip(lanes, results):
        lane_mc = replace(mc, horizon=horizon)
        alone = simulate_capped_paths(p, c, lane_mc)
        assert np.array_equal(got.terminal_values, alone.terminal_values)
        reference = _reference_paths(p, c, lane_mc)
        assert np.array_equal(got.terminal_values, reference[-1])
    p, c, horizon = lanes[2]
    levels = _reference_paths(p, c, replace(mc, horizon=horizon))[:-1]
    assert np.any(capped_vol_diffusion(levels, p, c) == c.vol_cap)
    assert np.any(np.abs(capped_vol_drift(levels, p, c)) == c.drift_cap)


def test_lanes_allocate_no_more_than_outputs_and_scratch(params, caps, traced_peak):
    # Before lanes were stacked, a worker held the drawn row, three
    # scratch rows and a state row per lane, 8 rows for 4 lanes; stacking
    # must fit in the outputs plus that much per worker.
    mc = McConfig(n_paths=2 * _BLOCK_PATHS, n_steps=4, seed=3)
    lanes = [(params, caps, t) for t in (0.2, 0.1, 0.05, 0.025)]
    row = _BLOCK_PATHS * 8
    outputs = len(lanes) * mc.n_paths * 8
    results = []
    peak = traced_peak(
        lambda: results.extend(simulate_capped_lanes(lanes, mc, n_threads=2)))
    assert len(results) == len(lanes)
    assert peak <= outputs + 2 * (1 + 3 + len(lanes)) * row


@pytest.mark.parametrize("n_lanes", [1, 3])
def test_single_stack_draws_into_its_scratch(params, caps, n_lanes, traced_peak):
    # one stack holds only its 3 scratch rows per lane: each row of
    # normals is drawn into them, with no drawn row beside them
    mc = McConfig(n_paths=2 * _BLOCK_PATHS, n_steps=4, seed=3)
    lanes = [(params, caps, t) for t in (0.2, 0.1, 0.05)[:n_lanes]]
    row = _BLOCK_PATHS * 8
    outputs = n_lanes * mc.n_paths * 8
    peak = traced_peak(lambda: simulate_capped_lanes(lanes, mc, n_threads=2))
    assert peak <= outputs + 2 * 3 * n_lanes * row + row // 2


def test_lanes_validate_inputs(params, caps):
    # each lane's horizon is checked as McConfig checks its own
    mc = McConfig(n_paths=10, n_steps=3)
    for horizon in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="^horizon must be finite and > 0"):
            simulate_capped_lanes([(params, caps, 0.1), (params, caps, horizon)], mc)
    assert simulate_capped_lanes([], mc) == []


# ---------------------------------------------------------------------------
# per-block estimates pooled across blocks
# ---------------------------------------------------------------------------

# The statistics the CLI pools: the forward, and an OTM call and put
# (the put pays on no path of some lanes, so its blocks are all 0).
_STATISTICS = {"forward": estimate_forward,
               "call": partial(price_vix_option, strike=0.12, kind="call"),
               "put": partial(price_vix_option, strike=0.06, kind="put")}


@pytest.mark.parametrize("name", sorted(_STATISTICS))
def test_pooled_estimates_match_whole_lanes(params, caps, name):
    # two blocks, the second of 17 paths; lane 2's caps bind
    statistic = _STATISTICS[name]
    mc = McConfig(n_paths=16_384 + 17, n_steps=6, seed=31)
    lanes = _stacked_lanes(params, caps)
    one = estimate_capped_lanes(lanes, statistic, mc, n_threads=1)
    two = estimate_capped_lanes(lanes, statistic, mc, n_threads=2)
    assert one == two
    for got, paths in zip(one, simulate_capped_lanes(lanes, mc)):
        whole = statistic(paths)
        assert got.value == pytest.approx(whole.value, rel=1e-15, abs=0.0)
        assert got.std_error == pytest.approx(whole.std_error, rel=1e-15, abs=0.0)


def test_pooled_estimates_at_one_path_and_a_one_path_block(params, caps):
    lanes = [(params, caps, 0.1), (params, caps, 0.05)]
    single = McConfig(n_paths=1, n_steps=4, seed=2)
    for got, paths in zip(estimate_capped_lanes(lanes, estimate_forward, single),
                          simulate_capped_lanes(lanes, single)):
        assert got == McEstimate(1, float(paths.terminal_values[0]), 0.0)
    # 16385 paths: a full block and a block of one path, whose SE is 0
    mc = McConfig(n_paths=_BLOCK_PATHS + 1, n_steps=4, seed=2)
    for got, paths in zip(estimate_capped_lanes(lanes, estimate_forward, mc),
                          simulate_capped_lanes(lanes, mc)):
        whole = estimate_forward(paths)
        assert got.value == pytest.approx(whole.value, rel=1e-15, abs=0.0)
        assert got.std_error == pytest.approx(whole.std_error, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n_threads", [1, 2])
def test_pooled_estimates_refuse_overflow_without_a_warning(n_threads):
    p = SabrParams(beta=0.5, rho=0.0, omega=1.0, v0=1e200)
    lanes = [(p, CapSpec.from_params(p, 2.0, 500.0), 4.0)]
    mc = McConfig(n_paths=_BLOCK_PATHS + 300, n_steps=3, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for statistic in _STATISTICS.values():
            with pytest.raises(NumericalError, match="is not finite"):
                estimate_capped_lanes(lanes, statistic, mc, n_threads=n_threads)
        # finite blocks whose pooled sum of squared deviations overflows
        with pytest.raises(NumericalError, match="is not finite"):
            estimate_capped_lanes(
                lanes, lambda paths: McEstimate(paths.terminal_values.size, 1.0, 1e308),
                mc, n_threads=n_threads)


def test_pooled_standard_error_keeps_its_digits_on_tiny_paths(params):
    # Each block's M2 is pooled as computed.  Rebuilt from its SE as
    # SE^2 * n * (n - 1), it lost digits where SE^2 is subnormal: 2.1e-12
    # relative here.
    p = replace(params, v0=1e-154)
    lanes = [(p, CapSpec.from_params(p, 2.0, 1.0), 0.1)]
    mc = McConfig(n_paths=100_000, n_steps=20, seed=3)
    (pooled,) = estimate_capped_lanes(lanes, estimate_forward, mc)
    whole = estimate_forward(simulate_capped_lanes(lanes, mc)[0])
    assert pooled.std_error == pytest.approx(whole.std_error, rel=1e-14, abs=0.0)


def test_pooled_estimates_validate_inputs(params, caps):
    mc = McConfig(n_paths=10, n_steps=3)
    with pytest.raises(ValueError, match="^horizon must be finite and > 0"):
        estimate_capped_lanes([(params, caps, math.inf)], estimate_forward, mc)
    assert estimate_capped_lanes([], estimate_forward, mc) == []
    with pytest.raises(MemoryError, match="exceed the address space"):
        estimate_capped_lanes([(params, caps, 0.1)], estimate_forward,
                              replace(mc, n_paths=10**30))


def test_pooled_estimates_hold_no_path_arrays(params, caps, traced_peak):
    # one worker holds its lanes' state rows, 3 scratch rows per lane of
    # its widest stack (2 of 2 + 2) and a drawn row, whatever n_paths is
    lanes = [(params, caps, t) for t in (0.2, 0.1, 0.05, 0.025)]
    call = partial(price_vix_option, strike=0.15)
    row = _BLOCK_PATHS * 8
    peaks = [traced_peak(lambda: estimate_capped_lanes(
                 lanes, call, McConfig(n_paths=blocks * _BLOCK_PATHS, n_steps=4,
                                       seed=3)))
             for blocks in (2, 8)]
    assert abs(peaks[1] - peaks[0]) <= row
    assert max(peaks) <= 2 * (1 + 3 + len(lanes)) * row


# ---------------------------------------------------------------------------
# the one reduction: McEstimate and its merge
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
@pytest.mark.parametrize("n, split", [(2, 1), (1000, 1), (1000, 500), (1000, 999),
                                      (_BLOCK_PATHS + 17, _BLOCK_PATHS)])
def test_merged_estimates_equal_the_estimate_of_the_joined_sample(n, split, scale):
    values = np.random.default_rng(n + split).lognormal(0.0, 1.0, n) * scale
    head = estimate_forward(PathSet(values[:split]))
    tail = estimate_forward(PathSet(values[split:]))
    merged, whole = head + tail, estimate_forward(PathSet(values))
    assert merged.count == head.count + tail.count == n
    eps = np.finfo(float).eps
    assert merged.value == pytest.approx(whole.value, rel=4 * eps, abs=0.0)
    assert merged.m2 == pytest.approx(whole.m2, rel=16 * eps, abs=0.0)
    assert merged.std_error == pytest.approx(whole.std_error, rel=16 * eps, abs=0.0)


def test_one_value_has_no_standard_error():
    one = estimate_forward(PathSet(np.array([0.3])))
    assert one == McEstimate(1, 0.3, 0.0)
    assert one.std_error == 0.0
    two = one + McEstimate(1, 0.1, 0.0)
    assert (two.count, two.value, two.m2) == (2, pytest.approx(0.2), pytest.approx(0.02))
    assert two.std_error == pytest.approx(0.1)


@pytest.mark.parametrize("first, second", [
    ((2, 0.0, 1e308), (3, 0.0, 1e308)),
    ((2, 0.0, 0.0), (3, 1e200, 0.0)),
    ((2, 1e308, 0.0), (3, -1e308, 0.0)),
], ids=["m2_sum", "squared_gap", "gap"])
def test_a_merge_that_overflows_is_refused_without_a_warning(first, second):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="is not finite"):
            McEstimate(*first) + McEstimate(*second)


@pytest.mark.parametrize("value, m2", [(math.nan, 0.0), (math.inf, 1.0),
                                       (0.1, math.inf), (0.1, math.nan)])
def test_an_estimate_that_is_not_finite_is_refused(value, m2):
    with pytest.raises(NumericalError, match="^the sample mean .* is not finite$"):
        McEstimate(10, value, m2)


def test_log_scheme_paths_positive_and_finite(params, caps):
    mc = McConfig(n_paths=20_000, n_steps=50, horizon=0.2, seed=3)
    out = simulate_capped_paths(params, caps, mc)
    assert out.terminal_values.shape == (20_000,)
    assert np.all(np.isfinite(out.terminal_values))
    assert np.all(out.terminal_values > 0.0)


def test_constant_diffusion_recovers_driftless_lognormal(params):
    # with a cap just above omega and a negligible drift cap, the process
    # is a driftless lognormal with unit volatility
    tight = CapSpec.from_params(params, vol_cap=1.0 + 1e-9, drift_cap=1e-12)
    mc = McConfig(n_paths=50_000, n_steps=10, horizon=0.25, seed=21)
    est = estimate_forward(simulate_capped_paths(params, tight, mc))
    assert abs(est.value - params.v0) < 4.0 * est.std_error


def test_forward_estimate_pinned(params, caps, mc_default):
    est = estimate_forward(simulate_capped_paths(params, caps, mc_default))
    assert math.isclose(est.value, 0.10056382439833442, rel_tol=1e-12)
    assert 0.0 < est.std_error < 2e-4


def test_forward_nearly_initial_for_tiny_horizon(params, caps):
    mc = McConfig(n_paths=20_000, n_steps=10, horizon=0.001, seed=4)
    est = estimate_forward(simulate_capped_paths(params, caps, mc))
    lo = params.v0 * math.exp(-caps.drift_cap * mc.horizon)
    hi = params.v0 * math.exp((caps.drift_cap + 0.5 * caps.vol_cap**2) * mc.horizon)
    assert lo - 3.0 * est.std_error <= est.value <= hi + 3.0 * est.std_error


def test_forward_seed_sensitivity_is_statistical(params, caps):
    mc_a = McConfig(n_paths=20_000, n_steps=50, horizon=0.1, seed=12345)
    mc_b = McConfig(n_paths=20_000, n_steps=50, horizon=0.1, seed=999)
    a = estimate_forward(simulate_capped_paths(params, caps, mc_a))
    b = estimate_forward(simulate_capped_paths(params, caps, mc_b))
    combined = math.hypot(a.std_error, b.std_error)
    assert abs(a.value - b.value) <= 4.0 * combined


def test_estimate_forward_degenerate_inputs():
    flat = PathSet(terminal_values=np.full(100, 0.1))
    est = estimate_forward(flat)
    assert est.value == pytest.approx(0.1, rel=1e-15)
    assert est.std_error < 1e-15


@pytest.mark.parametrize(
    "values", [[0.1, math.inf], [1e300, 1e300 * (1.0 + 1e-15)], [0.1, math.nan]],
    ids=["inf_path", "square_overflows", "nan_path"])
def test_estimates_that_are_not_finite_are_refused_by_both_estimators(values):
    paths = PathSet(terminal_values=np.array(values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="is not finite"):
            estimate_forward(paths)
        with pytest.raises(NumericalError, match="is not finite"):
            price_vix_option(paths, 0.05)


@pytest.mark.parametrize("estimator", [
    pytest.param(estimate_forward, id="estimate_forward"),
    pytest.param(lambda paths: price_vix_option(paths, 0.1), id="price_vix_option"),
    pytest.param(lambda paths: smile_from_paths(paths, [0.1], 0.1),
                 id="smile_from_paths"),
])
def test_empty_path_set_is_rejected_by_both_estimators(estimator):
    with pytest.raises(ValueError, match="empty path set"):
        estimator(PathSet(terminal_values=np.empty(0)))


# ---------------------------------------------------------------------------
# option payoffs on terminal values
# ---------------------------------------------------------------------------

def test_option_price_edge_strikes(params, caps):
    mc = McConfig(n_paths=10_000, n_steps=20, horizon=0.1, seed=6)
    out = simulate_capped_paths(params, caps, mc)
    forward = estimate_forward(out).value
    tiny, huge = 1e-12, 1e6
    call_tiny = price_vix_option(out, tiny, kind="call")
    assert math.isclose(call_tiny.value, forward - tiny, rel_tol=1e-12)
    assert price_vix_option(out, huge, kind="call").value == 0.0
    assert price_vix_option(out, tiny, kind="put").value == 0.0


def test_option_put_call_parity_exact(params, caps):
    mc = McConfig(n_paths=10_000, n_steps=20, horizon=0.1, seed=6)
    out = simulate_capped_paths(params, caps, mc)
    forward = estimate_forward(out).value
    for strike in (0.08, 0.1, 0.15):
        call = price_vix_option(out, strike, kind="call")
        put = price_vix_option(out, strike, kind="put")
        assert math.isclose(call.value - put.value, forward - strike, rel_tol=0, abs_tol=1e-14)


def test_option_price_validation(params, caps):
    mc = McConfig(n_paths=100, n_steps=2, horizon=0.1, seed=6)
    out = simulate_capped_paths(params, caps, mc)
    with pytest.raises(ValueError):
        price_vix_option(out, 0.0)
    with pytest.raises(ValueError) as error:
        price_vix_option(out, 0.1, kind="straddle")
    assert str(error.value) == "kind must be 'call' or 'put', got 'straddle'"
    for strike in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and > 0"):
            price_vix_option(out, strike)


# ---------------------------------------------------------------------------
# nested finite-window VIX estimator
# ---------------------------------------------------------------------------

def test_nested_vix_tracks_terminal_for_vanishing_window(params, caps, monkeypatch):
    mc = McConfig(n_paths=2_000, n_steps=20, horizon=0.1, seed=5,
                  inner_paths=2, inner_steps=1)
    monkeypatch.setattr("vixsabr.mc._VIX_WINDOW", 1e-10)
    result = estimate_vix_nested(params, caps, mc)
    outer = simulate_capped_paths(params, caps, mc)
    assert np.allclose(result.vix, outer.terminal_values, rtol=1e-4)


def test_nested_vix_sandwich_holds(params, caps):
    mc = McConfig(n_paths=200, n_steps=20, horizon=0.1, seed=5,
                  inner_paths=300, inner_steps=30)
    result = estimate_vix_nested(params, caps, mc)
    assert result.vix.shape == (200,)
    assert np.all(result.lower < result.upper)
    assert np.all(result.inner_std_error >= 0.0)
    assert result.violation_fraction <= 0.05


def test_nested_vix_bounds_widen_with_window(params, caps, monkeypatch):
    mc = McConfig(n_paths=300, n_steps=10, horizon=0.1, seed=5,
                  inner_paths=8, inner_steps=4)
    monkeypatch.setattr("vixsabr.mc._VIX_WINDOW", 0.01)
    narrow = estimate_vix_nested(params, caps, mc)
    monkeypatch.setattr("vixsabr.mc._VIX_WINDOW", 0.1)
    wide = estimate_vix_nested(params, caps, mc)
    assert np.all(wide.upper - wide.lower > narrow.upper - narrow.lower)


def test_nested_vix_deterministic(params, caps):
    mc = McConfig(n_paths=100, n_steps=10, horizon=0.1, seed=5,
                  inner_paths=50, inner_steps=10)
    a = estimate_vix_nested(params, caps, mc)
    b = estimate_vix_nested(params, caps, mc, n_threads=4)
    assert np.array_equal(a.vix, b.vix)


def test_nested_vix_validation(params, caps, mc_default):
    with pytest.raises(ValueError):
        estimate_vix_nested(params, caps, mc_default)  # inner_paths defaults to 0


def _reference_nested_vix(params, caps, mc):
    """The nested VIX of each outer path from its own inner stream, block
    i of the inner domain, and the plain step expressions, over the
    paper's 30-day window."""
    window = 30.0 / 365.0
    v_t = _reference_paths(params, caps, mc)[-1]
    dt = window / mc.inner_steps
    vix = []
    for i, level in enumerate(v_t):
        z = _block_stream(_DOMAIN_INNER, i, mc.seed).standard_normal(
            (mc.inner_steps, mc.inner_paths))
        v = np.full(mc.inner_paths, level)
        # the trapezoid rule over the window, summed in time order
        acc = 0.5 * v * v
        for k, row in enumerate(z):
            sig = capped_vol_diffusion(v, params, caps)
            mu = capped_vol_drift(v, params, caps)
            v = v * np.exp((mu - 0.5 * sig * sig) * dt + sig * math.sqrt(dt) * row)
            acc = acc + (v * v if k < mc.inner_steps - 1 else 0.5 * v * v)
        vix.append(math.sqrt(float((acc * dt / window).mean())))
    return np.array(vix)


@pytest.mark.parametrize("n_threads", [1, 2])
def test_nested_vix_draws_one_stream_per_outer_path(n_threads):
    # the caps bind on this model, so both clamps run
    params = SabrParams(beta=0.5, rho=-0.7, omega=1.5, v0=0.5)
    caps = CapSpec.from_params(params, vol_cap=1.8, drift_cap=0.3)
    mc = McConfig(n_paths=12, n_steps=5, horizon=0.1, seed=9,
                  inner_paths=16, inner_steps=6)
    result = estimate_vix_nested(params, caps, mc, n_threads=n_threads)
    assert np.array_equal(result.vix, _reference_nested_vix(params, caps, mc))


@pytest.mark.parametrize("v0, caps, horizon", [
    (1e200, (2.0, 500.0), 4.0),  # outer paths overflow: the VIX was NaN
    (1e150, (2.0, 1.0), 0.1),    # the inner std of v^2 overflows: SE was inf
], ids=["outer_overflow", "inner_square_overflow"])
@pytest.mark.parametrize("n_threads", [1, 2])
def test_nested_vix_refuses_overflow_without_a_warning(v0, caps, horizon, n_threads):
    p = SabrParams(beta=0.5, rho=0.0, omega=1.0, v0=v0)
    mc = McConfig(n_paths=5, n_steps=3, horizon=horizon, inner_paths=4,
                  inner_steps=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match="is not finite"):
            estimate_vix_nested(p, CapSpec.from_params(p, *caps), mc,
                                n_threads=n_threads)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("vol_cap, drift_cap", [(2.0, 1e5), (200.0, 1.0)],
                         ids=["drift_cap", "vol_cap"])
def test_nested_vix_upper_bound_overflows_to_inf(params, vol_cap, drift_cap):
    # drift_cap*window + vol_cap^2*window/2 passes 709 over the 30-day
    # window, so the upper bound's exponential overflows: its limit is inf
    caps = CapSpec.from_params(params, vol_cap=vol_cap, drift_cap=drift_cap)
    mc = McConfig(n_paths=5, n_steps=3, inner_paths=4, inner_steps=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = estimate_vix_nested(params, caps, mc)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert np.all(result.upper == np.inf)
    assert np.all(np.isfinite(result.lower) & (result.lower <= result.vix))
    assert np.all(np.isfinite(result.vix))
    assert result.violation_fraction == 0.0


# ---------------------------------------------------------------------------
# two-dimensional cross-check simulation
# ---------------------------------------------------------------------------

def test_sabr_2d_shapes_and_initialization(params):
    mc = McConfig(n_paths=10_000, n_steps=20, horizon=0.05, seed=8)
    sample = simulate_sabr_2d(params, 1.0, mc)
    assert sample.spot.shape == (10_000,)
    assert sample.vol.shape == (10_000,)
    assert 0.0 <= sample.absorbed_fraction <= 1.0
    assert sample.effective_vol.size == int(round((1.0 - sample.absorbed_fraction) * 10_000))
    assert np.all(sample.effective_vol > 0.0)
    for s0 in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="s0 must be finite and > 0"):
            simulate_sabr_2d(params, s0, mc)


def test_sabr_2d_spot_martingale(params):
    mc = McConfig(n_paths=100_000, n_steps=50, horizon=0.1, seed=8)
    sample = simulate_sabr_2d(params, 1.0, mc)
    mean = sample.spot.mean()
    se = sample.spot.std(ddof=1) / math.sqrt(sample.spot.size)
    assert abs(mean - 1.0) <= 3.0 * se
    assert sample.absorbed_fraction < 0.01


def test_sabr_2d_frozen_vol_reduces_to_cev(params):
    # with a negligible vol-of-vol the spot is a driftless CEV diffusion
    p = SabrParams(beta=0.5, rho=-0.7, omega=1e-8, v0=0.3)
    mc = McConfig(n_paths=50_000, n_steps=100, horizon=0.5, seed=13)
    sample = simulate_sabr_2d(p, 1.0, mc)
    mean = sample.spot.mean()
    se = sample.spot.std(ddof=1) / math.sqrt(sample.spot.size)
    assert abs(mean - 1.0) <= 4.0 * se
    spread = sample.vol.max() - sample.vol.min()
    assert spread < 1e-6


def _reference_sabr_2d(params, s0, mc):
    """Terminal spot and vol from whole-block (n_steps, 2, block) draws
    and the step expressions of the 2-D engine."""
    dt = mc.horizon / mc.n_steps
    sqrt_dt = math.sqrt(dt)
    spot, vol = [], []
    for b, lo in enumerate(range(0, mc.n_paths, _BLOCK_PATHS)):
        m = min(mc.n_paths, lo + _BLOCK_PATHS) - lo
        z = _block_stream(_DOMAIN_2D, b, mc.seed).standard_normal((mc.n_steps, 2, m))
        s = np.full(m, float(s0))
        sig = np.full(m, params.v0 * s0 ** (1.0 - params.beta))
        alive = np.ones(m, dtype=bool)
        for z1, z2 in z:
            s = np.where(alive, s + sig * s**params.beta * sqrt_dt * z1, 0.0)
            absorbed_now = alive & (s <= 0.0)
            s[absorbed_now] = 0.0
            alive &= ~absorbed_now
            sig = sig * np.exp(-0.5 * params.omega**2 * dt + params.omega * sqrt_dt
                               * (params.rho * z1 + params.rho_perp * z2))
        spot.append(s)
        vol.append(sig)
    return np.concatenate(spot), np.concatenate(vol)


@pytest.mark.parametrize("n_threads", [1, 2])
def test_sabr_2d_equals_whole_block_draws(params, n_threads):
    mc = McConfig(n_paths=_BLOCK_PATHS + 17, n_steps=6, horizon=0.1, seed=21)
    sample = simulate_sabr_2d(params, 1.3, mc, n_threads=n_threads)
    spot, vol = _reference_sabr_2d(params, 1.3, mc)
    assert np.array_equal(sample.spot, spot)
    assert np.array_equal(sample.vol, vol)


def test_sabr_2d_memory_does_not_grow_with_steps(params, traced_peak):
    # each block draws one step's pair of rows at a time
    row = _BLOCK_PATHS * 8
    peaks = []
    for n_steps in (10, 200):
        mc = McConfig(n_paths=2 * _BLOCK_PATHS, n_steps=n_steps, horizon=0.1, seed=4)
        peaks.append(traced_peak(lambda: simulate_sabr_2d(params, 1.0, mc, n_threads=2)))
    assert peaks[1] <= peaks[0] + 4 * row


@pytest.mark.parametrize("v0, s0, bad", [(1e300, 1.0, 16), (1e150, 1e150, 16)],
                         ids=["v0", "v0_and_s0"])
def test_sabr_2d_refuses_samples_that_are_not_finite(v0, s0, bad):
    # NaN spots would pass as absorbed and inflate absorbed_fraction
    p = SabrParams(0.5, -0.7, 1.0, v0)
    mc = McConfig(n_paths=64, n_steps=10, horizon=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"not finite on {bad} of 64 paths"):
            simulate_sabr_2d(p, s0, mc)


def test_sabr_2d_refuses_a_path_count_past_the_address_space(params):
    with pytest.raises(MemoryError, match="exceed the address space"):
        simulate_sabr_2d(params, 1.0, McConfig(n_paths=2**62))


# ---------------------------------------------------------------------------
# bit-level pins of the nested and 2-D engines
# ---------------------------------------------------------------------------

# SHA-256 of each output's float64 bytes at the configs of the test below.
# The nested config is tight enough that the caps bind.
PINNED_ENGINE_DIGESTS = {
    "sabr_2d.spot":
        "0e1f367d1211084790f16cd9eb729f0bda4f0cfb808f3a4aa1baa71437ba54b7",
    "sabr_2d.vol":
        "6b19a4b595c495e0e78559adbf359a870b88407a3b0206cb75494b41fcc2f6dd",
    "nested.vix":
        "8421433200bd1ed9c0388d33c81d0cc315f3e6579e61c6cd0942142f80993ece",
    "nested.inner_std_error":
        "1d46f0a996a59b743b9ce8d43eb308b8eb6aec281a876c193cc445a3d66594b9",
}


@pytest.mark.parametrize("n_threads", [1, 2])
def test_nested_and_2d_engines_pinned_bit_for_bit(params, n_threads):
    # 20000 paths span a full and a partial block of the 2-D engine
    mc_2d = McConfig(n_paths=20_000, n_steps=10, horizon=0.1, seed=8)
    sample = simulate_sabr_2d(params, 1.0, mc_2d, n_threads=n_threads)
    nested_params = SabrParams(beta=0.5, rho=-0.7, omega=1.5, v0=0.5)
    nested_caps = CapSpec.from_params(nested_params, vol_cap=1.8, drift_cap=0.3)
    mc_nested = McConfig(n_paths=40, n_steps=10, horizon=0.1, seed=5,
                         inner_paths=64, inner_steps=8)
    nested = estimate_vix_nested(nested_params, nested_caps, mc_nested,
                                 n_threads=n_threads)
    outputs = {
        "sabr_2d.spot": sample.spot,
        "sabr_2d.vol": sample.vol,
        "nested.vix": nested.vix,
        "nested.inner_std_error": nested.inner_std_error,
    }
    for name, values in outputs.items():
        assert values.dtype == np.float64, name
        digest = hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()
        assert digest == PINNED_ENGINE_DIGESTS[name], name


# ---------------------------------------------------------------------------
# coupled-grid convergence of the stepping scheme
# ---------------------------------------------------------------------------

def test_weak_convergence_of_time_stepping(params, caps):
    rng = np.random.Generator(np.random.Philox(key=777))
    n_fine, horizon, m = 640, 1.0, 20_000
    z = rng.standard_normal((n_fine, m))
    ref = evolve_capped(params.v0, z, horizon, params, caps)
    ns = np.array([4, 8, 16, 32, 64])
    errs = []
    for n in ns:
        group = n_fine // n
        coarse = z.reshape(n, group, m).sum(axis=1) / math.sqrt(group)
        v = evolve_capped(params.v0, coarse, horizon, params, caps)
        errs.append(abs(v.mean() - ref.mean()))
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert -1.5 <= slope <= -0.55


def test_evolve_capped_overflows_without_a_warning():
    # paths that overflow hold inf or NaN, which the estimators refuse
    p = SabrParams(beta=0.5, rho=0.0, omega=1.0, v0=1e200)
    caps = CapSpec.from_params(p, 2.0, 500.0)
    z = np.random.Generator(np.random.Philox(key=5)).standard_normal((3, 300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = evolve_capped(1e200, z, 4.0, p, caps)
        with pytest.raises(NumericalError):
            estimate_forward(PathSet(terminal_values=v))
    assert not np.all(np.isfinite(v))


_ENGINES = {
    "evolve_capped": lambda p, caps, mc: evolve_capped(
        p.v0, _block_stream(0, 0, mc.seed).standard_normal((mc.n_steps, mc.n_paths)),
        mc.horizon, p, caps),
    "simulate_capped_paths": simulate_capped_paths,
    "estimate_capped_lanes": lambda p, caps, mc: estimate_capped_lanes(
        [(p, caps, mc.horizon)], estimate_forward, mc),
    "estimate_vix_nested": estimate_vix_nested,
    "simulate_sabr_2d": lambda p, caps, mc: simulate_sabr_2d(p, 1.0, mc),
}


@pytest.mark.parametrize("engine", _ENGINES)
@pytest.mark.parametrize("v0", [1e150, 1e300])
def test_engines_overflow_without_a_warning(engine, v0):
    # every block runs with overflow silenced; an engine returns what
    # overflowed or refuses it, but never warns
    p = SabrParams(beta=0.5, rho=-0.7, omega=1.0, v0=v0)
    caps = CapSpec.from_params(p, 2.0, 500.0)
    mc = McConfig(n_paths=64, n_steps=10, horizon=1.0, inner_paths=4, inner_steps=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _ENGINES[engine](p, caps, mc)
        except NumericalError:
            pass
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# Every engine that runs blocks, as a call that passes n_threads on
_THREADED_ENGINES = {
    "simulate_capped_lanes": lambda p, caps, mc, n_threads: simulate_capped_lanes(
        [(p, caps, mc.horizon)], mc, n_threads),
    "simulate_capped_paths": simulate_capped_paths,
    "estimate_capped_lanes": lambda p, caps, mc, n_threads: estimate_capped_lanes(
        [(p, caps, mc.horizon)], estimate_forward, mc, n_threads),
    "estimate_vix_nested": estimate_vix_nested,
    "simulate_sabr_2d": lambda p, caps, mc, n_threads: simulate_sabr_2d(
        p, 1.0, mc, n_threads),
}


@pytest.mark.parametrize("n_threads", [0, -1, 2.5, True], ids=str)
@pytest.mark.parametrize("engine", _THREADED_ENGINES)
def test_engines_refuse_a_thread_count_that_is_not_a_positive_integer(
        params, caps, engine, n_threads):
    # the thread pool refuses 0 without naming n_threads, and runs 2.5
    mc = McConfig(n_paths=10, n_steps=2, inner_paths=2, inner_steps=1)
    with pytest.raises(ValueError, match="^n_threads must be "):
        _THREADED_ENGINES[engine](params, caps, mc, n_threads)


@pytest.mark.parametrize("name, value", [
    *(pytest.param("horizon", h, id=str(h)) for h in (math.nan, math.inf, 0.0)),
    *(pytest.param("v_init", v, id=f"v_init-{v}") for v in (math.nan, math.inf, 0.0, -1.0)),
    pytest.param("v_init", [0.1, -1.0, 0.1], id="v_init-elementwise"),
    pytest.param("normals", np.zeros((0, 3)), id="normals-no-steps"),
    pytest.param("normals", np.zeros(3), id="normals-1d"),
])
def test_evolve_capped_rejects_a_horizon_that_is_not_finite_and_positive(
        params, caps, name, value):
    # v_init is checked as SabrParams checks v0, elementwise
    args = {"v_init": params.v0, "horizon": 0.1, "normals": np.zeros((2, 3)),
            name: value}
    rule = ("have shape (n_steps >= 1, n_paths)" if name == "normals"
            else "be finite and > 0")
    with pytest.raises(ValueError, match=re.escape(f"{name} must {rule}")):
        evolve_capped(args["v_init"], args["normals"], args["horizon"], params, caps)


def test_evolve_capped_broadcasts_initial_level(params, caps):
    rng = np.random.Generator(np.random.Philox(key=1))
    z = rng.standard_normal((5, 40))
    scalar_init = evolve_capped(0.1, z, 0.1, params, caps)
    array_init = evolve_capped(np.full(40, 0.1), z, 0.1, params, caps)
    assert np.array_equal(scalar_init, array_init)
    assert evolve_capped(0.1, np.zeros((2, 0)), 0.1, params, caps).shape == (0,)
