"""Acceptance gate: one test per published claim, one PASS/FAIL line each.

Every test prints ``CRITERION n: PASS/FAIL (detail)`` before asserting, so
a full run documents the verdict for each claim in one place.  Tolerances
are fixed here and are not derived from the code under test.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import quad as scipy_quad
from scipy.special import ndtr

from vixsabr import (
    CapSpec,
    McConfig,
    SabrParams,
    check_scale_density_envelope,
    estimate_forward,
    estimate_vix_nested,
    explosion_verdict,
    limiting_implied_vol,
    main,
    martingale_diagnostic,
    rate_convergence_study,
    rate_integral,
    scale_exponent,
    scale_function_limit,
    simulate_capped_lanes,
    simulate_capped_paths,
    simulate_sabr_2d,
    smile_expansion,
    smile_from_paths,
    vol_diffusion,
    vol_drift,
    vol_variance,
)

BASE = SabrParams(beta=0.5, rho=-0.7, omega=1.0, v0=0.1)
VOL_CAP, DRIFT_CAP = 2.0, 1.0
RHOS = (-0.7, 0.0, 0.7)
Z_99 = 2.576  # two-sided 99% normal quantile


def _verdict(number, ok, detail):
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return ok, line


def _params(rho, beta=0.5):
    return SabrParams(beta=beta, rho=rho, omega=1.0, v0=0.1)


def _caps(params):
    return CapSpec.from_params(params, vol_cap=VOL_CAP, drift_cap=DRIFT_CAP)


def test_criterion_01_binding_levels():
    published = {-0.7: 2.336, 0.0: 3.464, 0.7: 5.136}
    errors = {
        rho: abs(_caps(_params(rho)).binding_level(_params(rho)) - target)
        for rho, target in published.items()
    }
    ok, line = _verdict(
        1,
        all(err < 5e-4 for err in errors.values()),
        "binding level absolute errors " + ", ".join(
            f"rho={rho}: {err:.2e}" for rho, err in errors.items()
        ),
    )
    assert ok, line


def test_criterion_02_capped_forwards():
    published = {-0.7: 0.1003, 0.0: 0.1001, 0.7: 0.0998}
    mc = McConfig(n_paths=100_000, n_steps=100, horizon=0.1, seed=12345)
    pulls = {}
    for rho, target in published.items():
        p = _params(rho)
        est = estimate_forward(simulate_capped_paths(p, _caps(p), mc))
        combined = math.hypot(est.std_error, 1e-4)  # published to 4 decimals
        pulls[rho] = abs(est.value - target) / combined
    ok, line = _verdict(
        2,
        all(pull <= 3.0 for pull in pulls.values()),
        "forward deviations in combined SEs " + ", ".join(
            f"rho={rho}: {pull:.2f}" for rho, pull in pulls.items()
        ),
    )
    assert ok, line


def _iv_influence(paths, point, maturity):
    """Per-path delta-method influence of one implied vol of a smile.

    The implied vol inverts the sample price P at the sample forward F,
    so to first order its error is the mean of
    ((payoff - P) - delta * (v - F)) / vega over the paths.
    """
    v = paths.terminal_values
    fwd = float(v.mean())
    strike, vol = point.strike, point.implied_vol
    total = vol * math.sqrt(maturity)
    d1 = math.log(fwd / strike) / total + 0.5 * total
    if strike > fwd:
        payoff, delta = np.maximum(v - strike, 0.0), ndtr(d1)
    else:
        payoff, delta = np.maximum(strike - v, 0.0), ndtr(d1) - 1.0
    vega = fwd * math.sqrt(maturity / (2.0 * math.pi)) * math.exp(-0.5 * d1 * d1)
    return ((payoff - point.price.value) - delta * (v - fwd)) / vega


def _extrapolated_limit(long_paths, short_paths, strikes, long_t, short_t):
    """Richardson estimate 2 * sigma(T/2) - sigma(T) of the T -> 0 smile.

    Returns (strike, estimate, standard error) for each strike whose
    smile inverts at both maturities.  The paths must share their random
    numbers, so the SE comes from the same combination of per-path
    influences.
    """
    rows = []
    for lp, sp in zip(smile_from_paths(long_paths, strikes, maturity=long_t),
                      smile_from_paths(short_paths, strikes, maturity=short_t)):
        if lp.status != "ok" or sp.status != "ok":
            continue
        psi = (2.0 * _iv_influence(short_paths, sp, short_t)
               - _iv_influence(long_paths, lp, long_t))
        se = float(psi.std(ddof=1)) / math.sqrt(psi.size)
        rows.append((lp.strike, 2.0 * sp.implied_vol - lp.implied_vol, se))
    return rows


def test_criterion_03_smile_agreement():
    # The curve is a T -> 0 limit and the MC smile at T carries an O(T)
    # term, so the limit is extrapolated from T = 0.1 and 0.05 on common
    # random numbers and checked within a 99% interval per strike.  The
    # smile's own band is not used: it covers ~68% per strike and leaves
    # out the forward's error.  The opposite-correlation curve is the
    # control: it must miss, so that a wrong skew fails.
    strikes = np.geomspace(0.06, 0.18, 25)
    long_t, short_t = 0.1, 0.05
    mc = McConfig(n_paths=100_000, n_steps=100, seed=12345)
    lanes = [(_params(rho), _caps(_params(rho)), t)
             for rho in RHOS for t in (long_t, short_t)]
    lane_paths = simulate_capped_lanes(lanes, mc)
    hits, control, worst = {}, {}, {}
    for i, rho in enumerate(RHOS):
        rows = _extrapolated_limit(lane_paths[2 * i], lane_paths[2 * i + 1],
                                   strikes, long_t, short_t)

        def abs_z(p):
            return [abs(limit - limiting_implied_vol(k, p, _caps(p))) / se
                    for k, limit, se in rows]

        z = abs_z(_params(rho))
        hits[rho] = sum(x <= Z_99 for x in z)
        worst[rho] = max(z, default=math.inf)
        if rho != 0.0:
            control[rho] = sum(x <= Z_99 for x in abs_z(_params(-rho)))
    ok, line = _verdict(
        3,
        all(count >= 23 for count in hits.values())
        and all(count < 23 for count in control.values()),
        f"limit extrapolated from T={long_t} and T={short_t} inside its 99% "
        "interval (need >= 23 of 25) " + ", ".join(
            f"rho={rho}: {count} (max |z| {worst[rho]:.2f})"
            for rho, count in hits.items()
        ) + "; opposite-rho curve inside (need < 23) " + ", ".join(
            f"rho={rho}: {count}" for rho, count in control.items()
        ),
    )
    assert ok, line


def test_criterion_04_smile_shape_at_the_money():
    p = BASE
    caps = _caps(p)
    exp = smile_expansion(p)
    h = 1e-4
    up = limiting_implied_vol(p.v0 * math.exp(h), p, caps)
    dn = limiting_implied_vol(p.v0 * math.exp(-h), p, caps)
    mid = limiting_implied_vol(p.v0, p, caps)
    slope_fd = (up - dn) / (2.0 * h)
    curve_fd = (up - 2.0 * mid + dn) / h**2
    slope_err = abs(slope_fd - exp.skew)
    curve_err = abs(curve_fd - exp.convexity)
    ok, line = _verdict(
        4,
        exp.skew > 0.0 and exp.convexity > 0.0
        and slope_fd > 0.0 and curve_fd > 0.0
        and slope_err < 1e-6 and curve_err < 1e-4,
        f"skew={exp.skew:.6f} (fd err {slope_err:.2e}), "
        f"convexity={exp.convexity:.6f} (fd err {curve_err:.2e})",
    )
    assert ok, line


def test_criterion_05_explosion_property_grid():
    betas = (0.0, 0.25, 0.5, 0.75, 0.9)
    rhos = (-0.9, -0.5, -0.1)
    grid = np.arange(0.0, 100.0 + 1e-9, 0.1)
    failures = []
    for beta in betas:
        for rho in rhos:
            p = SabrParams(beta=beta, rho=rho, omega=1.0, v0=0.1)
            fit = scale_function_limit(p)
            if not (math.isfinite(fit.limit) and fit.limit > 0.0 and fit.residual < 1e-6):
                failures.append(f"limit({beta},{rho})")
            if not check_scale_density_envelope(grid, p).holds:
                failures.append(f"envelope({beta},{rho})")
            if not explosion_verdict(p).explosion_flag:
                failures.append(f"explosion({beta},{rho})")
    ok, line = _verdict(
        5,
        not failures,
        "15 (beta, rho) combinations: "
        + ("all stabilize, envelope holds, explosion true" if not failures
           else "failed: " + ", ".join(failures)),
    )
    assert ok, line


def test_criterion_06_martingale_grid():
    betas = (0.0, 0.25, 0.5, 0.75, 0.9)
    rhos = (-0.9, -0.5, -0.1, 0.1, 0.5)
    failures = []
    for beta in betas:
        for rho in rhos:
            p = SabrParams(beta=beta, rho=rho, omega=1.0, v0=0.1)
            if not martingale_diagnostic(p):
                failures.append(f"({beta},{rho})")
    ok, line = _verdict(
        6,
        not failures,
        "25 (beta, rho) combinations: "
        + ("martingale verdict true everywhere" if not failures
           else "false at " + ", ".join(failures)),
    )
    assert ok, line


def test_criterion_07_two_dimensional_cross_check():
    mc = McConfig(n_paths=100_000, n_steps=100, horizon=0.05, seed=12345)
    sample = simulate_sabr_2d(BASE, 1.0, mc)
    v_2d = sample.effective_vol
    v_big = 10.0 * float(np.quantile(v_2d, 0.999))
    wide = CapSpec.from_params(
        BASE,
        vol_cap=float(vol_diffusion(v_big, BASE)),
        drift_cap=abs(float(vol_drift(v_big, BASE))),
    )
    v_1d = simulate_capped_paths(BASE, wide, mc).terminal_values

    qs = np.linspace(0.05, 0.95, 19)
    diff = np.quantile(v_1d, qs) - np.quantile(v_2d, qs)
    observed = float(np.abs(diff).max())

    rng = np.random.Generator(np.random.Philox(key=2025))
    boot = np.empty(200)
    for b in range(200):
        r1 = rng.integers(0, v_1d.size, v_1d.size)
        r2 = rng.integers(0, v_2d.size, v_2d.size)
        d = np.quantile(v_1d[r1], qs) - np.quantile(v_2d[r2], qs)
        boot[b] = np.abs(d - diff).max()
    threshold = float(np.quantile(boot, 0.99))
    ok, line = _verdict(
        7,
        observed <= threshold,
        f"max quantile gap {observed:.2e} vs bootstrap 99% band {threshold:.2e}, "
        f"absorbed fraction {sample.absorbed_fraction:.4f}",
    )
    assert ok, line


def test_criterion_08_nested_vix_sandwich():
    mc = McConfig(
        n_paths=500, n_steps=100, horizon=0.1, seed=12345,
        inner_paths=1_000, inner_steps=30,
    )
    result = estimate_vix_nested(BASE, _caps(BASE), mc)
    ok, line = _verdict(
        8,
        result.violation_fraction <= 0.01,
        f"sandwich violated on {result.violation_fraction:.2%} of 500 outer paths "
        "(allowed 1%)",
    )
    assert ok, line


def test_criterion_09_short_maturity_convergence():
    mc = McConfig(n_paths=100_000, n_steps=100, horizon=0.1, seed=12345)
    rows = rate_convergence_study(
        0.15, BASE, _caps(BASE), [0.2, 0.1, 0.05, 0.025], mc
    )
    gaps = [row.gap for row in rows]
    decreasing = all(b < a for a, b in zip(gaps[:-1], gaps[1:]))
    reliable = not any(row.statistically_zero for row in rows)
    ok, line = _verdict(
        9,
        decreasing and reliable,
        "gaps over T in {0.2, 0.1, 0.05, 0.025}: "
        + ", ".join(f"{g:.4f}" for g in gaps),
    )
    assert ok, line


def test_criterion_10_closed_forms_match_quadrature():
    worst_exp = 0.0
    for beta, rho, omega in ((0.5, -0.7, 1.0), (0.25, -0.9, 1.3),
                             (0.75, -0.1, 1.3), (0.9, -0.7, 1.3), (0.5, 0.6, 1.3)):
        p = SabrParams(beta=beta, rho=rho, omega=omega, v0=0.1)

        def integrand(y, p=p):
            return (p.beta - 1.0) * (
                0.5 * (p.beta - 2.0) * y + p.rho * p.omega
            ) / vol_variance(y, p)

        for x in (0.5, 2.0, 10.0, 50.0):
            direct, _ = scipy_quad(integrand, 0.0, x, epsabs=1e-13, epsrel=1e-12,
                                   limit=500)
            rel = abs(scale_exponent(x, p) - direct) / max(abs(direct), 1e-30)
            worst_exp = max(worst_exp, rel)

    worst_rate = 0.0
    cases = ((-0.9, 0.05), (-0.5, 0.5), (-0.1, 3.0), (0.5, 8.0))
    for beta in (0.0, 0.25, 0.5, 0.75, 0.9):
        for rho, strike in cases:
            p = SabrParams(beta=beta, rho=rho, omega=1.0, v0=0.1)
            caps = _caps(p)
            lo, hi = min(strike, p.v0), max(strike, p.v0)

            def integrand(z, p=p, caps=caps):
                return 1.0 / (z * min(caps.vol_cap, vol_diffusion(z, p)))

            direct = 0.0
            edges = sorted({lo, hi, min(max(caps.binding_level(p), lo), hi)})
            for a, b in zip(edges[:-1], edges[1:]):
                if b > a:
                    val, _ = scipy_quad(integrand, a, b, epsabs=1e-14,
                                        epsrel=1e-13, limit=500)
                    direct += val
            rel = abs(rate_integral(lo, hi, p, caps) - direct) / abs(direct)
            worst_rate = max(worst_rate, rel)

    ok, line = _verdict(
        10,
        worst_exp < 1e-10 and worst_rate < 1e-10,
        f"worst relative error: scale exponent {worst_exp:.2e}, "
        f"rate integral {worst_rate:.2e} (tol 1e-10)",
    )
    assert ok, line


def test_criterion_11_cli_forward_determinism(tmp_path):
    import json

    config = {
        "mc": {"n_paths": 50_000, "n_steps": 50, "seed": 12345},
        "maturities": [0.1],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for threads, sub in (("1", "a"), ("4", "b")):
        out_dir = tmp_path / sub
        code = main([
            "--config", str(config_path), "--out", str(out_dir),
            "--threads", threads, "forwards",
        ])
        assert code == 0
        outputs.append((out_dir / "forward_table.csv").read_bytes())
    ok, line = _verdict(
        11,
        outputs[0] == outputs[1],
        f"forward table identical across --threads 1/4: {outputs[0] == outputs[1]}",
    )
    assert ok, line
