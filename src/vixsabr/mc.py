"""Monte Carlo engines for the capped volatility process and 2-D SABR.

Paths are generated in fixed-size blocks, each block drawing from its
own counter-based Philox stream keyed by (domain, block index, seed).
Blocks write into disjoint slices of preallocated output arrays, so the
result is bit-identical for any worker count and any scheduling order.
A capped-path block draws its normals one time step at a time into a
buffer one block wide, which yields exactly the numbers of one 2-D draw of the
whole block, and several lanes (models that share the seed and sizes)
step from each drawn row.

The default stepping scheme is log-space Euler: because the capped
coefficients are bounded, the per-step exponential form is exact in
distribution conditionally on the frozen coefficients, and positivity
is automatic.  A level-space Euler scheme with a floor at zero is
available behind a switch for comparison studies.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import CapSpec, SabrParams, capped_vol_diffusion, capped_vol_drift

__all__ = [
    "McConfig",
    "McEstimate",
    "PathSet",
    "NestedVixResult",
    "Sabr2dSample",
    "evolve_capped",
    "simulate_capped_lanes",
    "simulate_capped_paths",
    "estimate_forward",
    "price_vix_option",
    "estimate_vix_nested",
    "simulate_sabr_2d",
]

# Fixed block size: paths are striped into blocks of this many, one
# Philox stream per block, independent of the worker count.
_BLOCK_PATHS = 16384

# Stream domains keep the RNG keys of unrelated simulations disjoint.
_DOMAIN_CAPPED = 1
_DOMAIN_INNER = 2
_DOMAIN_2D = 3

_SCHEMES = ("log", "euler")


@dataclass(frozen=True)
class McConfig:
    """Simulation sizes, horizons and the master seed.

    ``inner_paths``/``inner_steps`` size the nested sub-simulations used
    by the finite-window VIX estimator and are ignored elsewhere.
    """

    n_paths: int = 100_000
    n_steps: int = 100
    horizon: float = 0.1
    vix_window: float = 30.0 / 365.0
    seed: int = 12345
    inner_paths: int = 0
    inner_steps: int = 30

    def __post_init__(self):
        for name in ("n_paths", "n_steps", "inner_paths", "inner_steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.vix_window < 0.0:
            raise ValueError(f"vix_window must be >= 0, got {self.vix_window}")
        if self.inner_paths < 0:
            raise ValueError(f"inner_paths must be >= 0, got {self.inner_paths}")
        if self.inner_steps < 1:
            raise ValueError(f"inner_steps must be >= 1, got {self.inner_steps}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo sample statistic with its standard error."""

    value: float
    std_error: float
    n_effective: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n_effective": self.n_effective,
        }


@dataclass
class PathSet:
    """Terminal values of a capped-volatility simulation.

    ``paths`` optionally stores the full trajectories in step-major
    layout (row k is the state after k steps), for estimators that need
    to continue the paths.
    """

    terminal_values: np.ndarray
    paths: Optional[np.ndarray] = None


@dataclass
class NestedVixResult:
    """Per-path nested VIX estimates and the sandwich check.

    ``violation_fraction`` is the share of outer paths whose VIX
    estimate falls outside [lower, upper] by more than 3 inner-MC
    standard errors; the bounds themselves hold pathwise exactly, so
    violations beyond that allowance indicate a bug.
    """

    vix: np.ndarray
    inner_std_error: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    violation_fraction: float


@dataclass
class Sabr2dSample:
    """Terminal samples of the two-dimensional SABR system.

    ``effective_vol`` holds sigma_T * S_T**(beta-1) for paths that were
    not absorbed at S = 0; ``absorbed_fraction`` reports how many were.
    """

    spot: np.ndarray
    vol: np.ndarray
    effective_vol: np.ndarray
    absorbed_fraction: float


def _block_rng(domain: int, block_index: int, seed: int) -> np.random.Generator:
    key = (domain << 96) | (block_index << 64) | seed
    return np.random.Generator(np.random.Philox(key=key))


def _run_blocks(n_blocks: int, run_block, n_threads: int) -> None:
    """Call ``run_block(i)`` for every block index on up to n_threads workers.

    Blocks must write disjoint outputs; the result then does not depend
    on the worker count or on the order in which blocks finish.
    """
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(run_block, range(n_blocks)))
    else:
        for block_index in range(n_blocks):
            run_block(block_index)


def _check_scheme(scheme: str) -> None:
    if scheme not in _SCHEMES:
        raise ValueError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")


def _step_capped(v, z, dt, sqrt_dt, params, caps, scheme, work) -> None:
    """Advance ``v`` in place by one time step of the capped process.

    ``z`` holds the step's standard normals and is only read, so several
    lanes may step from one row.  ``work`` holds three scratch arrays
    shaped like ``v``.  The in-place operations evaluate

        log:    v * exp((mu - 0.5 * sig * sig) * dt + sig * sqrt_dt * z)
        euler:  max(v * (1.0 + mu * dt + sig * sqrt_dt * z), 0)

    operation for operation, so every value is bit-identical to those
    expressions.
    """
    sig, mu, tmp = work
    capped_vol_diffusion(v, params, caps, out=sig)
    capped_vol_drift(v, params, caps, out=mu)
    if scheme == "log":
        np.multiply(sig, 0.5, out=tmp)
        tmp *= sig
        np.subtract(mu, tmp, out=mu)
        mu *= dt
    else:
        mu *= dt
        mu += 1.0
    sig *= sqrt_dt
    sig *= z
    mu += sig
    if scheme == "log":
        v *= np.exp(mu, out=mu)
    else:
        v *= mu
        np.maximum(v, 0.0, out=v)


def evolve_capped(v_init, normals, horizon, params, caps, scheme="log"):
    """Advance paths of the capped process with supplied increments.

    ``normals`` has shape (n_steps, n_paths) and holds standard normal
    draws; the step size is horizon / n_steps.  Exposed so convergence
    studies can couple coarse and fine grids through common Brownian
    increments (aggregate fine rows into coarse ones and rescale).
    """
    _check_scheme(scheme)
    normals = np.asarray(normals, dtype=float)
    dt = horizon / normals.shape[0]
    sqrt_dt = math.sqrt(dt)
    v = np.broadcast_to(np.asarray(v_init, dtype=float), normals.shape[1:]).copy()
    work = [np.empty(v.shape) for _ in range(3)]
    for z in normals:
        _step_capped(v, z, dt, sqrt_dt, params, caps, scheme, work)
    return v


def simulate_capped_lanes(
    lanes,
    mc: McConfig,
    scheme: str = "log",
    n_threads: int = 1,
    *,
    store_paths: bool = False,
) -> list[PathSet]:
    """Simulate several capped processes on common random numbers.

    Each lane is a ``(params, caps, horizon)`` triple; all lanes share
    ``mc.seed``, ``mc.n_paths`` and ``mc.n_steps`` (``mc.horizon`` is
    not used).  Every block draws each row of normals once and steps all
    lanes from it, so lane i of the result equals, bit for bit,
    ``simulate_capped_paths(params_i, caps_i, replace(mc,
    horizon=horizon_i), scheme, store_paths=store_paths)``, for any
    thread count.
    """
    _check_scheme(scheme)
    n, n_steps = mc.n_paths, mc.n_steps
    steps = []
    for params, caps, horizon in lanes:
        if not horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        dt = horizon / n_steps
        steps.append((params, caps, dt, math.sqrt(dt)))
    results = [
        PathSet(np.empty(n), np.empty((n_steps + 1, n)) if store_paths else None)
        for _ in steps
    ]

    def run_block(block_index: int) -> None:
        lo = block_index * _BLOCK_PATHS
        hi = min(n, lo + _BLOCK_PATHS)
        rng = _block_rng(_DOMAIN_CAPPED, block_index, mc.seed)
        z = np.empty(hi - lo)
        work = np.empty((3, hi - lo))
        states = [np.full(hi - lo, params.v0) for params, *_ in steps]
        if store_paths:
            for v, result in zip(states, results):
                result.paths[0, lo:hi] = v
        for k in range(n_steps):
            rng.standard_normal(out=z)
            for (params, caps, dt, sqrt_dt), v, result in zip(steps, states, results):
                _step_capped(v, z, dt, sqrt_dt, params, caps, scheme, work)
                if store_paths:
                    result.paths[k + 1, lo:hi] = v
        for v, result in zip(states, results):
            result.terminal_values[lo:hi] = v

    _run_blocks((n + _BLOCK_PATHS - 1) // _BLOCK_PATHS, run_block, n_threads)
    return results


def simulate_capped_paths(
    params: SabrParams,
    caps: CapSpec,
    mc: McConfig,
    scheme: str = "log",
    store_paths: bool = False,
    n_threads: int = 1,
) -> PathSet:
    """Simulate the capped volatility process to the horizon.

    Deterministic given (seed, n_paths, n_steps, scheme) no matter how
    many worker threads run the blocks.  With the default log scheme
    every simulated value is strictly positive.  This is the one-lane
    case of :func:`simulate_capped_lanes`.
    """
    return simulate_capped_lanes(
        [(params, caps, mc.horizon)], mc, scheme, n_threads, store_paths=store_paths
    )[0]


def estimate_forward(paths: PathSet) -> McEstimate:
    """Sample mean of the terminal values with its standard error."""
    values = paths.terminal_values
    n = values.size
    if n == 0:
        raise ValueError("empty path set")
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(value=float(values.mean()), std_error=se, n_effective=n)


def price_vix_option(
    paths: PathSet, strike: float, kind: str = "call", rate: float = 0.0,
    maturity: float = 0.0,
) -> McEstimate:
    """Discounted Monte Carlo price of a VIX option on the terminal values.

    The payoff is taken against the terminal volatility level (the
    vanishing-window convention); see :func:`estimate_vix_nested` for
    the finite-window estimator.
    """
    if strike <= 0.0:
        raise ValueError(f"strike must be > 0, got {strike}")
    values = paths.terminal_values
    if kind == "call":
        payoff = np.maximum(values - strike, 0.0)
    elif kind == "put":
        payoff = np.maximum(strike - values, 0.0)
    else:
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
    discount = math.exp(-rate * maturity)
    n = payoff.size
    se = float(payoff.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(
        value=discount * float(payoff.mean()),
        std_error=discount * se,
        n_effective=n,
    )


def estimate_vix_nested(
    params: SabrParams,
    caps: CapSpec,
    mc: McConfig,
    horizon: float | None = None,
    window: float | None = None,
    scheme: str = "log",
    n_threads: int = 1,
) -> NestedVixResult:
    """Nested Monte Carlo estimate of the finite-window VIX per path.

    Simulates ``mc.n_paths`` outer paths to the horizon, then continues
    each with ``mc.inner_paths`` sub-paths over the VIX window,
    averaging the time integral of the squared volatility by the
    trapezoid rule.  The square root of the inner mean is the VIX
    estimate; ``inner_std_error`` propagates the inner-MC error through
    the square root.

    Also checks, per outer path, the exponential sandwich

        v_T * exp(-drift_cap * window)
            <= VIX <= v_T * exp(drift_cap * window + vol_cap^2 * window / 2)

    with a 3-standard-error allowance for inner noise.
    """
    horizon = mc.horizon if horizon is None else horizon
    window = mc.vix_window if window is None else window
    if window <= 0.0:
        raise ValueError(f"window must be > 0, got {window}")
    if mc.inner_paths < 2:
        raise ValueError("inner_paths must be >= 2 for the nested estimator")
    outer = simulate_capped_paths(
        params, caps, replace(mc, horizon=horizon, vix_window=window),
        scheme=scheme, n_threads=n_threads,
    )
    v_t = outer.terminal_values
    n_outer = v_t.size
    dt = window / mc.inner_steps
    sqrt_dt = math.sqrt(dt)
    vix = np.empty(n_outer)
    inner_se = np.empty(n_outer)

    def run_outer(i: int) -> None:
        rng = _block_rng(_DOMAIN_INNER, i, mc.seed)
        # The inner block is small, so it is drawn in one call: a draw
        # per row would release the interpreter lock once per step, and
        # with several workers those hand-offs cost more than the step.
        z = rng.standard_normal((mc.inner_steps, mc.inner_paths))
        work = np.empty((3, mc.inner_paths))
        v = np.full(mc.inner_paths, v_t[i])
        # Trapezoid accumulation of v^2 over the window, per sub-path.
        acc = 0.5 * v * v
        for k in range(mc.inner_steps):
            _step_capped(v, z[k], dt, sqrt_dt, params, caps, scheme, work)
            acc += v * v if k < mc.inner_steps - 1 else 0.5 * v * v
        vix_sq_samples = acc * dt / window
        mean_sq = float(vix_sq_samples.mean())
        se_sq = float(vix_sq_samples.std(ddof=1) / math.sqrt(mc.inner_paths))
        vix[i] = math.sqrt(mean_sq)
        inner_se[i] = se_sq / (2.0 * vix[i]) if vix[i] > 0.0 else 0.0

    _run_blocks(n_outer, run_outer, n_threads)

    lower = v_t * math.exp(-caps.drift_cap * window)
    upper = v_t * math.exp(caps.drift_cap * window + 0.5 * caps.vol_cap**2 * window)
    violations = (vix < lower - 3.0 * inner_se) | (vix > upper + 3.0 * inner_se)
    return NestedVixResult(
        vix=vix,
        inner_std_error=inner_se,
        lower=lower,
        upper=upper,
        violation_fraction=float(violations.mean()),
    )


def simulate_sabr_2d(
    params: SabrParams,
    s0: float,
    mc: McConfig,
    n_threads: int = 1,
) -> Sabr2dSample:
    """Simulate the two-dimensional SABR system for cross-validation.

    The volatility factor takes exact lognormal steps; the asset takes
    level-space Euler steps with absorption at zero (the boundary
    convention of the power backbone).  The initial volatility factor is
    chosen so the effective volatility starts at v0.  Returns terminal
    spot and volatility samples and the effective volatility
    sigma_T * S_T**(beta-1) of the non-absorbed paths.
    """
    if s0 <= 0.0:
        raise ValueError(f"s0 must be > 0, got {s0}")
    n = mc.n_paths
    dt = mc.horizon / mc.n_steps
    sqrt_dt = math.sqrt(dt)
    rho = params.rho
    rho_perp = params.rho_perp
    omega = params.omega
    sigma0 = params.v0 * s0 ** (1.0 - params.beta)
    spot = np.empty(n)
    vol = np.empty(n)

    def run_block(block_index: int) -> None:
        lo = block_index * _BLOCK_PATHS
        hi = min(n, lo + _BLOCK_PATHS)
        m = hi - lo
        rng = _block_rng(_DOMAIN_2D, block_index, mc.seed)
        z = rng.standard_normal((mc.n_steps, 2, m))
        s = np.full(m, float(s0))
        sig = np.full(m, sigma0)
        alive = np.ones(m, dtype=bool)
        for k in range(mc.n_steps):
            z1 = z[k, 0]
            z2 = z[k, 1]
            ds = sig * s**params.beta * sqrt_dt * z1
            s = np.where(alive, s + ds, 0.0)
            absorbed_now = alive & (s <= 0.0)
            s[absorbed_now] = 0.0
            alive &= ~absorbed_now
            sig = sig * np.exp(
                -0.5 * omega**2 * dt + omega * sqrt_dt * (rho * z1 + rho_perp * z2)
            )
        spot[lo:hi] = s
        vol[lo:hi] = sig

    _run_blocks((n + _BLOCK_PATHS - 1) // _BLOCK_PATHS, run_block, n_threads)

    alive = spot > 0.0
    effective = vol[alive] * spot[alive] ** (params.beta - 1.0)
    return Sabr2dSample(
        spot=spot,
        vol=vol,
        effective_vol=effective,
        absorbed_fraction=float(1.0 - alive.mean()),
    )
