"""The QAGS port against scipy.integrate.quad, its oracle.

On every segment that the explosion analysis integrates, for the
benchmark's oracle models, seeded random models and a model near
beta = 1 whose quadrature fails, the port returns scipy's value, error
estimate, evaluation and subinterval counts and message, bit for bit.
A few classic integrands reach each of QAGS's error codes.  The rule's
nodes and weights are the 40-digit ones, rounded to double.  The parity
was shown on scipy 1.17, the version the test extra asks for."""

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from vixsabr import NumericalError, SabrParams, _quadpack, explosion_verdict, scale

ORACLE_FILE = Path(__file__).resolve().parent.parent / "bench" / "oracle.json"


def _random_models(n, seed=20240611):
    rng = np.random.default_rng(seed)
    return [SabrParams(beta=float(rng.uniform(0.0, 0.95)),
                       rho=float(rng.uniform(-0.99, -0.01)),
                       omega=float(10.0 ** rng.uniform(-2.0, 0.5)), v0=0.1)
            for _ in range(n)]


MODELS = {
    "oracle": [SabrParams(**entry["model"]) for entry in
               json.loads(ORACLE_FILE.read_text())["diagnose"]],
    "random": _random_models(60),
    "near_beta_one": [SabrParams(beta=0.9999999, rho=-0.999999, omega=0.001,
                                 v0=0.1556)],
}


def _segments(models):
    """(integrand, a, b, keywords, port's result) of every quad call that
    explosion_verdict makes on ``models``."""
    calls = []
    port = _quadpack.quad

    def recording(func, a, b, **kwargs):
        out = port(func, a, b, **kwargs)
        calls.append((func, a, b, kwargs, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scale.integrate, "quad", recording)
        for params in models:
            try:
                explosion_verdict(params)
            except NumericalError:
                pass
    return calls


def _summary(out):
    """value, abserr, neval, last and the first line of the message."""
    message = out[3].partition("\n")[0] if len(out) > 3 else None
    return out[0], out[1], out[2]["neval"], out[2]["last"], message


@pytest.mark.parametrize("group", MODELS)
def test_qags_matches_scipy_on_every_diagnose_segment(group):
    calls = _segments(MODELS[group])
    assert calls
    mismatches = [(a, b, _summary(out), _summary(want))
                  for func, a, b, kwargs, out in calls
                  if _summary(out) != _summary(
                      want := scipy_integrate.quad(func, a, b, **kwargs,
                                                   full_output=1))]
    assert mismatches == []
    if group == "near_beta_one":
        # the model's last segment fails; an earlier one needs 45 bisections
        assert [_summary(out)[3] for *_, out in calls][-1] == 1000
        assert _summary(calls[-1][-1])[4] == \
            "The maximum number of subdivisions (1000) has been achieved."
        assert 45 in [_summary(out)[3] for *_, out in calls]


# Integrands that reach every error code of QAGS, with (epsabs, epsrel,
# limit): a jump (4), a divergence (5), an endpoint singularity where the
# extrapolation gives up (4), a jump within a few ulp (3), a pole (2) and
# the subdivision limit (1).
CLASSIC = {
    "jump": (lambda x: 1.0 if x < 0.3 else 2.0, 0.0, 1.0, (1e-300, 1e-15, 2000)),
    "oscillating_divergence": (lambda x: math.sin(1.0 / x) / x if x else 0.0,
                               0.0, 1.0, (0.0, 1e-12, 500)),
    "log_singularity": (lambda x: math.log(x) ** 4 * x ** -0.9 if x else 0.0,
                        0.0, 1.0, (0.0, 1e-13, 300)),
    "jump_within_ulps": (lambda x: 1.0 if x < 1.0 + 3e-14 else 0.0,
                         1.0, 1.0 + 1e-13, (1e-300, 1e-15, 500)),
    "pole": (lambda x: 1.0 / (x - 1.0000000001) if x != 1.0000000001 else 0.0,
             1.0, 1.0000000002, (1e-300, 1e-15, 500)),
    "few_subdivisions": (lambda x: math.sin(50.0 * x), 0.0, 10.0, (1e-12, 1e-10, 5)),
    "inverse_root": (lambda x: x ** -0.5, 0.0, 1.0, (1e-12, 1e-10, 50)),
    "reversed": (lambda x: x ** -0.5, 1.0, 0.0, (1e-12, 1e-10, 50)),
}


def test_classic_integrands_reach_every_error_code_as_scipy_does():
    codes = set()
    for func, a, b, (epsabs, epsrel, limit) in CLASSIC.values():
        kwargs = dict(epsabs=epsabs, epsrel=epsrel, limit=limit)
        out = _quadpack.quad(func, a, b, **kwargs)
        want = scipy_integrate.quad(func, a, b, **kwargs, full_output=1)
        assert _summary(out) == _summary(want)
        assert out[3:] == want[3:]
        codes |= {code for code, text in _quadpack._MESSAGES.items()
                  if out[3:] == (text.format(limit=limit),)} or {0}
    assert codes == {0, 1, 2, 3, 4, 5}


def _legendre(n):
    """Monomial coefficients of the Legendre polynomials P_0 .. P_n."""
    polys = [[mpmath.mpf(1)], [mpmath.mpf(0), mpmath.mpf(1)]]
    for k in range(1, n):
        nxt = [mpmath.mpf(0)] * (k + 2)
        for i, c in enumerate(polys[k]):
            nxt[i + 1] += (2 * k + 1) * c / (k + 1)
        for i, c in enumerate(polys[k - 1]):
            nxt[i] -= k * c / (k + 1)
        polys.append(nxt)
    return polys


def _times(p, q):
    out = [mpmath.mpf(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _integral(p):
    """Integral over [-1, 1] of a polynomial in monomial coefficients."""
    return sum(c * 2 / (i + 1) for i, c in enumerate(p) if i % 2 == 0)


def _positive_roots(p):
    roots = mpmath.polyroots(p[::-1], maxsteps=200, extraprec=200)
    return sorted((mpmath.re(r) for r in roots if mpmath.re(r) > 1e-30), reverse=True)


def test_gauss_kronrod_nodes_and_weights_are_the_40_digit_values():
    with mpmath.workdps(40):
        legendre = _legendre(11)
        # The Kronrod nodes are the roots of the Stieltjes polynomial
        # E = P_11 + sum of c_k P_k, k = 1, 3, .., 9, orthogonal to
        # x^j P_10 for j = 1, 3, .., 9; E is odd, so 0 is one of them.
        odd = [1, 3, 5, 7, 9]
        moments = [[_integral(_times(_times(legendre[10], [0] * j + [1]), legendre[k]))
                    for k in odd + [11]] for j in odd]
        coefficients = mpmath.lu_solve(mpmath.matrix([row[:-1] for row in moments]),
                                       mpmath.matrix([-row[-1] for row in moments]))
        stieltjes = list(legendre[11])
        for c, k in zip(coefficients, odd):
            for i, term in enumerate(legendre[k]):
                stieltjes[i] += c * term
        assert stieltjes[0] == 0
        kronrod, gauss = _positive_roots(stieltjes), _positive_roots(legendre[10])
        nodes = [x for pair in zip(kronrod, gauss) for x in pair]
        # weights exact on the even monomials up to x^20, 21 nodes in all
        rows = [[2 * x ** m for x in nodes] + [int(m == 0)] for m in range(0, 21, 2)]
        kronrod_weights = mpmath.lu_solve(
            mpmath.matrix(rows), mpmath.matrix([mpmath.mpf(2) / (m + 1)
                                                for m in range(0, 21, 2)]))
        # Gauss weights 2 / ((1 - x^2) P_10'(x)^2)
        p10 = lambda x: mpmath.polyval(legendre[10][::-1], x)
        p9 = lambda x: mpmath.polyval(legendre[9][::-1], x)
        gauss_weights = [2 / ((1 - x * x) * (10 * (x * p10(x) - p9(x)) / (x * x - 1)) ** 2)
                         for x in gauss]
    assert [float(x) for x in nodes] + [0.0] == list(_quadpack._XGK)
    assert [float(w) for w in kronrod_weights] == list(_quadpack._WGK)
    assert [float(w) for w in gauss_weights] == list(_quadpack._WG)
