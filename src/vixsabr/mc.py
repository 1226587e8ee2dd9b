"""Monte Carlo engines for the capped volatility process and 2-D SABR.

Paths are generated in fixed-size blocks, each block drawing from its
own counter-based Philox stream keyed by (domain, block index, seed).
Blocks write into disjoint slices of preallocated output arrays, so the
result is bit-identical for any worker count and any scheduling order.
Every block draws its normals one time step at a time, which yields
exactly the numbers of one draw of the whole block, so a block holds
only the buffers a step reads.  Several capped lanes (models that share
the seed and sizes) step from each drawn row, stacked as the rows of
one array; a block that steps a single stack draws each row into the
stack's scratch once the step has freed it, and several stacks share
one drawn row.  Where only an estimate per lane is wanted, each block
steps in an array of its own instead and writes each lane's (count,
mean, M2) into one row of a per-block table, which :class:`McEstimate`'s
merge pools in block order (:func:`estimate_capped_lanes`), so memory
does not grow with the path count.

Every path steps by log-space Euler, exact in distribution given the
bounded capped coefficients frozen over the step; it keeps paths
positive until they overflow.  Payoff means are in :mod:`vixsabr.pricing`.
"""

from __future__ import annotations

import math
import sys
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from functools import reduce
from types import SimpleNamespace

import numpy as np
from numpy.random import Generator, Philox

from .model import CapSpec, Coefficients, NumericalError, SabrParams, as_floats, \
    capped_vol_diffusion, capped_vol_drift, count, positive_float, positive_floats, shown

__all__ = [
    "McConfig",
    "McEstimate",
    "PathSet",
    "NestedVixResult",
    "Sabr2dSample",
    "evolve_capped",
    "simulate_capped_lanes",
    "simulate_capped_paths",
    "estimate_capped_lanes",
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

# At most this many lanes step as one stack.  A stack of g lanes needs
# 3g scratch rows, and a single stack draws each row into them; several
# stacks share one drawn row beside them.  Stacks of up to 3 keep a
# worker's scratch no larger than when each lane stepped alone with its
# own state row and temporaries, so 4 lanes step as 2 + 2.
_STACK_LANES = 3

# The paper's 30-day VIX window, in years, over which the nested
# estimator averages the squared volatility.
_VIX_WINDOW = 30.0 / 365.0


@dataclass(frozen=True)
class McConfig:
    """Simulation sizes, horizons and the master seed.

    ``inner_paths``/``inner_steps`` size the nested sub-simulations used
    by the finite-window VIX estimator and are ignored elsewhere.
    Fields marked ``settable: False`` are library-only: the CLI's
    commands take their maturities from the config's ``maturities`` and
    none runs the nested estimator, so a config file sets only
    ``n_paths``, ``n_steps`` and ``seed``.
    """

    n_paths: int = 100_000
    n_steps: int = 100
    horizon: float = field(default=0.1, metadata={"settable": False})
    seed: int = 12345
    inner_paths: int = field(default=0, metadata={"settable": False})
    inner_steps: int = field(default=30, metadata={"settable": False})

    def __post_init__(self):
        count(self.n_paths, "n_paths", 1)
        # a step is a float divided by the step count, which must convert
        count(self.n_steps, "n_steps", 1, sys.float_info.max)
        positive_float(self.horizon, "horizon")
        if not 0 <= count(self.seed, "seed") < 2**64:
            raise ValueError("seed must fit in 64 bits")
        count(self.inner_paths, "inner_paths", 0)
        count(self.inner_steps, "inner_steps", 1, sys.float_info.max)


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean: ``count`` values, their mean ``value`` and
    ``m2``, the sum of their squared deviations from it.  ``a + b`` pools
    two disjoint samples (Chan, Golub & LeVeque, Am. Stat. 37, 1983).  A
    ``count`` that is not an integer >= 1 or an ``m2`` below 0 raises
    ValueError naming it, and a ``value`` or ``m2`` that is not finite
    raises :class:`NumericalError`.
    """

    count: int
    value: float
    m2: float

    def __post_init__(self):
        count(self.count, "count", 1)
        # before the finiteness check, whose message takes the root of m2
        if self.m2 < 0.0:
            raise ValueError(f"m2 must not be negative, got {shown(self.m2)}")
        if not (math.isfinite(self.value) and math.isfinite(self.m2)):
            raise NumericalError(f"the sample mean {self.value} or its standard "
                                 f"error {self.std_error} is not finite")

    @property
    def std_error(self) -> float:
        """sqrt(m2 / (count - 1)) / sqrt(count), 0.0 for one value; dividing by
        count under the root would go subnormal from paths of about 1e-154."""
        if self.count == 1:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1)) / math.sqrt(self.count)

    def __add__(self, other: McEstimate) -> McEstimate:
        total = self.count + other.count
        delta = other.value - self.value
        return McEstimate(total, self.value + delta * other.count / total,
                          self.m2 + (other.m2 + delta * delta * self.count
                                     * other.count / total))


@dataclass
class PathSet:
    """Terminal values of a capped-volatility simulation."""

    terminal_values: np.ndarray


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


def _run_blocks(domain, seed, n, width, run_block, n_threads) -> None:
    """Run ``run_block(lo, hi, rng)`` per block on up to n_threads workers.

    Block b holds paths [b * width, min(n, (b + 1) * width)) and draws
    from the Philox stream keyed ``(domain << 96) | (b << 64) | seed``.
    Blocks must write disjoint outputs; the result then does not depend
    on the worker count or on the order in which blocks finish.  The
    workers are the caller and up to n_threads - 1 helper threads, as
    many as the system starts.  Each worker takes the next block not yet
    taken until none is left or one of its blocks fails, so a worker's
    blocks ascend, and the error raised is that of the lowest-numbered
    failing block at every worker count.
    """
    count(n_threads, "n_threads", 1)
    n_blocks = -(-n // width)
    blocks = iter(range(n_blocks))
    taking = threading.Lock()
    failures = []

    def run(block: int) -> None:
        lo = block * width
        key = (domain << 96) | (block << 64) | seed
        # A path may overflow to inf, and its coefficients then form
        # 0 * inf and inf - inf; each engine returns or refuses what is
        # not finite.  numpy's error state is per thread, so it is set
        # here, in the worker.
        with np.errstate(over="ignore", invalid="ignore"):
            run_block(lo, min(n, lo + width), Generator(Philox(key=key)))

    def work() -> None:
        """Run blocks until none is left or one fails, noting the failure."""
        while True:
            with taking:
                block = next(blocks, None)
            if block is None:
                return
            try:
                run(block)
            except Exception as err:
                failures.append((block, err))
                return

    helpers = []
    try:
        # a helper the system refuses leaves its blocks to the started workers
        with suppress(RuntimeError):
            for _ in range(min(n_threads, n_blocks) - 1):
                helper = threading.Thread(target=work)
                helper.start()
                helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def _step_capped(v, z, dt, sqrt_dt, params, caps, work) -> None:
    """Advance ``v`` in place by one time step of the capped process.

    ``v`` holds one lane's paths, or an (L, n) stack of L lanes' paths;
    ``params`` (the lanes' :class:`Coefficients`), ``caps``, ``dt`` and
    ``sqrt_dt`` then hold a float shared by all lanes or an (L, 1)
    column each.  ``z`` holds the step's standard normals and is only
    read, so every lane steps from one row; or ``z`` is the Generator to
    draw that row from, and the row is then drawn into the first row of
    the third scratch array once the step has read it for the last time.  ``work`` holds
    three scratch arrays shaped like ``v``.  The in-place operations
    evaluate

        v * exp((mu - 0.5 * sig * sig) * dt + sig * sqrt_dt * z)

    operation for operation, so every value is bit-identical to that
    expression.
    """
    sig, mu, tmp = work
    capped_vol_diffusion(v, params, caps, out=sig, scratch=tmp)
    capped_vol_drift(v, params, caps, out=mu, scratch=tmp)
    np.multiply(sig, 0.5, out=tmp)
    tmp *= sig
    np.subtract(mu, tmp, out=mu)
    if isinstance(z, Generator):
        z = z.standard_normal(out=np.atleast_2d(tmp)[0])
    mu *= dt
    sig *= sqrt_dt
    sig *= z
    mu += sig
    v *= np.exp(mu, out=mu)


def evolve_capped(v_init, normals, horizon, params, caps):
    """Advance paths of the capped process with supplied increments.

    ``normals`` has shape (n_steps, n_paths), n_steps >= 1, and holds
    standard normal draws; the step size is horizon / n_steps.  Exposed
    so convergence studies can couple coarse and fine grids through
    common Brownian increments (aggregate fine rows into coarse ones and
    rescale).  Paths
    stay positive until they overflow to inf or NaN, which is silent here
    and a :class:`NumericalError` in the estimators.  Every ``v_init``
    must be finite and > 0, as :class:`SabrParams` requires of v0.
    """
    horizon = positive_float(horizon, "horizon")
    v_init = positive_floats(v_init, "v_init")
    normals = as_floats(normals, "normals")
    if normals.ndim != 2 or normals.shape[0] < 1:
        raise ValueError(f"normals must have shape (n_steps >= 1, n_paths), "
                         f"got {normals.shape}")
    dt = horizon / normals.shape[0]
    sqrt_dt = math.sqrt(dt)
    coefficients = Coefficients.of(params)
    v = np.broadcast_to(v_init, normals.shape[1:]).copy()
    work = np.empty((3, *v.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        for z in normals:
            _step_capped(v, z, dt, sqrt_dt, coefficients, caps, work)
    return v


def _column(values):
    """The value all lanes share, as given, or the lanes' values as an
    (L, 1) column.  A shared value stays a Python scalar: a column costs
    more per numpy call even with one row."""
    if len({float(x).hex() for x in values}) == 1:
        return values[0]
    return as_floats(values, "lanes").reshape(-1, 1)


def _empty(shape, what: str) -> np.ndarray:
    """``np.empty(shape)`` of floats.  numpy refuses an array past the
    address space with a ValueError; it is refused here, before anything
    is allocated, as the shortage of memory it is."""
    if math.prod(shape) * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"{' x '.join(map(shown, shape))} float64 {what} "
                          "exceed the address space")
    return np.empty(shape)


def _lane_stepper(lanes, n_steps: int):
    """The block body of the capped lanes: ``step(v, rng)`` sets row i of
    the (L, m) array ``v`` to lane i's v0 and steps it in place to the
    lane's horizon, drawing each row of normals from ``rng`` once.  Each
    horizon is checked as :class:`McConfig` checks its own."""
    # Split the lanes into the fewest stacks of at most _STACK_LANES,
    # as even as possible, and fix each stack's constants once.
    n_stacks = -(-len(lanes) // _STACK_LANES)
    bounds = [len(lanes) * i // n_stacks for i in range(n_stacks + 1)]
    stacks = []
    for rows in map(slice, bounds[:-1], bounds[1:]):
        models, caps, horizons = zip(*lanes[rows])
        dts = [positive_float(horizon, "horizon") / n_steps for horizon in horizons]
        stacks.append((
            rows,
            _column([params.v0 for params in models]),
            _column(dts),
            _column([math.sqrt(dt) for dt in dts]),
            Coefficients(*map(_column, zip(*map(Coefficients.of, models)))),
            # the caps as columns, each lane's checked by its CapSpec
            SimpleNamespace(vol_cap=_column([c.vol_cap for c in caps]),
                            drift_cap=_column([c.drift_cap for c in caps])),
        ))
    widest = max(rows.stop - rows.start for rows, *_ in stacks)

    def step(state, rng) -> None:
        work = np.empty((3, widest, state.shape[1]))
        # Each stack's state is its lanes' rows of ``state``.
        steps = []
        for rows, v0, *constants in stacks:
            v = state[rows]
            v[...] = v0
            steps.append((v, constants, work[:, :v.shape[0]]))
        # A single stack draws each row into its own freed scratch;
        # several stacks overwrite one shared scratch array, so they
        # share one drawn row beside it.
        shared = np.empty(state.shape[1]) if len(steps) > 1 else None
        for _ in range(n_steps):
            z = rng if shared is None else rng.standard_normal(out=shared)
            for v, (dt, sqrt_dt, params, caps), scratch in steps:
                _step_capped(v, z, dt, sqrt_dt, params, caps, scratch)

    return step


def simulate_capped_lanes(lanes, mc: McConfig, n_threads: int = 1) -> list[PathSet]:
    """Simulate several capped processes on common random numbers.

    Each lane is a ``(params, caps, horizon)`` triple, its horizon
    checked as :class:`McConfig` checks its own; all lanes share
    ``mc.seed``, ``mc.n_paths`` and ``mc.n_steps`` (``mc.horizon`` is
    not used).  Every block draws each row of normals once and steps the
    lanes from it as rows of one stacked array, so lane i of the result
    equals, bit for bit, ``simulate_capped_paths(params_i, caps_i,
    replace(mc, horizon=horizon_i))``, for any thread count.  The lanes'
    ``terminal_values`` are the rows of one (L, n_paths) array, which the
    blocks step in place.
    """
    lanes = list(lanes)
    if not lanes:
        return []
    step = _lane_stepper(lanes, mc.n_steps)
    terminal = _empty((len(lanes), mc.n_paths), "outputs")
    _run_blocks(_DOMAIN_CAPPED, mc.seed, mc.n_paths, _BLOCK_PATHS,
                lambda lo, hi, rng: step(terminal[:, lo:hi], rng), n_threads)
    return [PathSet(terminal[i]) for i in range(len(lanes))]


def estimate_capped_lanes(lanes, statistic, mc: McConfig,
                          n_threads: int = 1) -> list[McEstimate]:
    """Estimate ``statistic`` on each lane of :func:`simulate_capped_lanes`
    without holding its paths.

    ``statistic`` maps a :class:`PathSet` to an :class:`McEstimate`, as
    ``pricing.estimate_forward`` does.  Each block steps the lanes, from
    the same stream and kernel, in a state array of its own, and applies
    ``statistic`` to each lane's block of terminal values; the blocks'
    (count, mean, M2) rows are then added in block order by
    :class:`McEstimate`'s merge.  So the result is identical for every
    thread count; it agrees with ``statistic`` on the whole lane up to
    summation order, and a lane of one block gets that block's estimate
    exactly.  Memory does not grow with ``mc.n_paths`` beyond 24 bytes
    per lane and block.

    Raises :class:`NumericalError` when a pooled mean or M2 is not finite.
    """
    lanes = list(lanes)
    if not lanes:
        return []
    step = _lane_stepper(lanes, mc.n_steps)
    table = _empty((len(lanes), -(-mc.n_paths // _BLOCK_PATHS), 3), "block estimates")

    def run_block(lo: int, hi: int, rng) -> None:
        state = np.empty((len(lanes), hi - lo))
        step(state, rng)
        for row, values in zip(table[:, lo // _BLOCK_PATHS], state):
            estimate = statistic(PathSet(values))
            row[:] = estimate.count, estimate.value, estimate.m2

    _run_blocks(_DOMAIN_CAPPED, mc.seed, mc.n_paths, _BLOCK_PATHS, run_block, n_threads)
    # one row at a time as Python floats: a list copy of the whole table
    # would take several times its size
    return [reduce(McEstimate.__add__, (McEstimate(int(n), m, m2)
                                        for n, m, m2 in map(np.ndarray.tolist, rows)))
            for rows in table]


def simulate_capped_paths(
    params: SabrParams, caps: CapSpec, mc: McConfig, n_threads: int = 1
) -> PathSet:
    """Simulate the capped volatility process to the horizon.

    Deterministic given (seed, n_paths, n_steps) no matter how many
    threads run the blocks; paths stay positive until they
    overflow.  This is the one-lane case of :func:`simulate_capped_lanes`.
    """
    return simulate_capped_lanes([(params, caps, mc.horizon)], mc, n_threads)[0]


def estimate_vix_nested(
    params: SabrParams,
    caps: CapSpec,
    mc: McConfig,
    n_threads: int = 1,
) -> NestedVixResult:
    """Nested Monte Carlo estimate of the finite-window VIX per path.

    Simulates ``mc.n_paths`` outer paths to ``mc.horizon``, then
    continues each with ``mc.inner_paths`` sub-paths over the paper's
    30-day VIX window, averaging the time integral of the squared
    volatility by the trapezoid rule.  The square root of the inner mean is the VIX
    estimate; ``inner_std_error`` propagates the inner-MC error through
    the square root.

    Also checks, per outer path, the exponential sandwich

        v_T * exp(-drift_cap * window)
            <= VIX <= v_T * exp(drift_cap * window + vol_cap^2 * window / 2)

    with a 3-standard-error allowance for inner noise; where the upper
    bound's exponential overflows, the bound is its limit, ``inf``.  Raises
    :class:`NumericalError` when a VIX estimate or its standard error is
    not finite, as when paths or their squares overflow.
    """
    window = _VIX_WINDOW
    count(mc.inner_paths, "inner_paths", 2)
    outer = simulate_capped_paths(params, caps, mc, n_threads=n_threads)
    v_t = outer.terminal_values
    n_outer = v_t.size
    dt = window / mc.inner_steps
    sqrt_dt = math.sqrt(dt)
    coefficients = Coefficients.of(params)
    vix = np.empty(n_outer)
    inner_se = np.empty(n_outer)

    # blocks of width 1: one stream per outer path
    def run_outer(i: int, _, rng) -> None:
        # The inner block is small, so it is drawn in one call: a draw
        # per row would release the interpreter lock once per step, and
        # with several workers those hand-offs cost more than the step.
        z = rng.standard_normal((mc.inner_steps, mc.inner_paths))
        work = np.empty((3, mc.inner_paths))
        v = np.full(mc.inner_paths, v_t[i])
        # Trapezoid accumulation of v^2 over the window, per sub-path;
        # paths and their squares may overflow, and a VIX or SE that is
        # not finite is refused below.
        acc = 0.5 * v * v
        for k in range(mc.inner_steps):
            _step_capped(v, z[k], dt, sqrt_dt, coefficients, caps, work)
            acc += v * v if k < mc.inner_steps - 1 else 0.5 * v * v
        vix_sq_samples = acc * dt / window
        mean_sq = float(vix_sq_samples.mean())
        se_sq = float(vix_sq_samples.std(ddof=1) / math.sqrt(mc.inner_paths))
        vix[i] = math.sqrt(mean_sq)
        inner_se[i] = se_sq / (2.0 * vix[i]) if vix[i] > 0.0 else 0.0

    _run_blocks(_DOMAIN_INNER, mc.seed, n_outer, 1, run_outer, n_threads)
    # NaN would fail both sandwich comparisons below and pass as no
    # violation, so a VIX or SE that is not finite is refused here
    bad = ~(np.isfinite(vix) & np.isfinite(inner_se))
    if bad.any():
        raise NumericalError(f"the nested VIX or its standard error is not finite "
                             f"on {np.count_nonzero(bad)} of {n_outer} outer paths")

    # the upper bound's exponent may pass about 709; its limit is then inf
    with np.errstate(over="ignore", invalid="ignore"):
        lower = v_t * np.exp(-caps.drift_cap * window)
        upper = v_t * np.exp(caps.drift_cap * window + 0.5 * caps.vol_cap**2 * window)
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
    sigma_T * S_T**(beta-1) of the non-absorbed paths; a sample that
    overflows to inf or NaN raises :class:`NumericalError`.

    Each block draws the (2, block) pair of normal rows of one step at a
    time into a reused buffer, the numbers of one (n_steps, 2, block)
    draw, so its memory does not grow with ``mc.n_steps``.
    """
    s0 = positive_float(s0, "s0")
    n = mc.n_paths
    dt = mc.horizon / mc.n_steps
    sqrt_dt = math.sqrt(dt)
    rho = params.rho
    rho_perp = params.rho_perp
    omega = params.omega
    sigma0 = params.v0 * s0 ** (1.0 - params.beta)
    spot, vol = _empty((2, n), "outputs")

    def run_block(lo: int, hi: int, rng) -> None:
        m = hi - lo
        z1, z2 = z = np.empty((2, m))
        s = np.full(m, s0)
        sig = np.full(m, sigma0)
        alive = np.ones(m, dtype=bool)
        for _ in range(mc.n_steps):
            rng.standard_normal(out=z)
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

    _run_blocks(_DOMAIN_2D, mc.seed, n, _BLOCK_PATHS, run_block, n_threads)
    # NaN would pass below as absorbed, so a sample that is not finite
    # is refused here
    bad = ~(np.isfinite(spot) & np.isfinite(vol))
    if bad.any():
        raise NumericalError(f"the spot or volatility factor is not finite "
                             f"on {np.count_nonzero(bad)} of {n} paths")
    alive = spot > 0.0
    effective = vol[alive] * spot[alive] ** (params.beta - 1.0)
    return Sabr2dSample(
        spot=spot,
        vol=vol,
        effective_vol=effective,
        absorbed_fraction=float(1.0 - alive.mean()),
    )
