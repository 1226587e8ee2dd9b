"""Core SABR volatility-process coefficients and their capped versions.

Under SABR dynamics dS = S^beta * sigma * dB, dsigma = omega * sigma * dZ
with corr(dB, dZ) = rho, the effective lognormal volatility
v = sigma * S^(beta-1) solves a one-dimensional SDE

    dv / v = vol_drift(v) dt + vol_diffusion(v) dW.

This module evaluates those two coefficient functions, the capped
modifications that make the process non-explosive (diffusion clamped at
``vol_cap``, drift clamped to ``[-drift_cap, drift_cap]``), and the
level at which the diffusion cap starts to bind.

All coefficient functions are vectorized over the volatility level and
are pure (thread-safe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SabrParams",
    "CapSpec",
    "vol_diffusion",
    "vol_drift",
    "capped_vol_diffusion",
    "capped_vol_drift",
    "drift_polynomial_coefficients",
]


@dataclass(frozen=True)
class SabrParams:
    """SABR model parameters.

    Parameters
    ----------
    beta : float
        Backbone exponent, must lie in [0, 1).
    rho : float
        Correlation between the asset and volatility drivers, in (-1, 1).
    omega : float
        Lognormal volatility of volatility, > 0.
    v0 : float
        Initial level of the effective volatility v = sigma * S^(beta-1), > 0.
    """

    beta: float
    rho: float
    omega: float
    v0: float

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (-1, 1), got {self.rho}")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if not self.v0 > 0.0:
            raise ValueError(f"v0 must be > 0, got {self.v0}")

    @property
    def negative_correlation(self) -> bool:
        """True when rho < 0, the regime in which the uncapped volatility
        process explodes and the scale-function analysis applies."""
        return self.rho < 0.0

    @property
    def rho_perp(self) -> float:
        """sqrt(1 - rho^2), the orthogonal part of the correlation."""
        return math.sqrt(1.0 - self.rho * self.rho)


@dataclass(frozen=True)
class CapSpec:
    """Caps applied to the volatility-process coefficients.

    ``vol_cap`` clamps the lognormal diffusion coefficient from above and
    ``drift_cap`` clamps the lognormal drift to ``[-drift_cap, drift_cap]``.
    ``binding_level`` is the volatility level at which the diffusion
    coefficient reaches ``vol_cap``; below it the diffusion cap is
    inactive, above it the capped diffusion is identically ``vol_cap``.

    Build instances with :meth:`from_params` so that ``binding_level`` is
    consistent with the model parameters and the constraint
    ``vol_cap > omega`` is enforced (otherwise the cap binds at v = 0 and
    the capped model degenerates).
    """

    vol_cap: float
    drift_cap: float
    binding_level: float

    @classmethod
    def from_params(cls, params: SabrParams, vol_cap: float, drift_cap: float) -> "CapSpec":
        """Construct caps for the given model, deriving the binding level.

        The binding level solves vol_diffusion(v) = vol_cap:

            v = (rho * omega + sqrt(vol_cap^2 + (rho^2 - 1) * omega^2)) / (1 - beta)

        Raises
        ------
        ValueError
            If ``vol_cap <= omega`` or ``drift_cap <= 0``.
        """
        if not vol_cap > params.omega:
            raise ValueError(
                f"vol_cap must exceed omega ({params.omega}), got {vol_cap}"
            )
        if not drift_cap > 0.0:
            raise ValueError(f"drift_cap must be > 0, got {drift_cap}")
        root = math.sqrt(vol_cap**2 + (params.rho**2 - 1.0) * params.omega**2)
        binding = (params.rho * params.omega + root) / (1.0 - params.beta)
        return cls(vol_cap=vol_cap, drift_cap=drift_cap, binding_level=binding)


def _diffusion(v, params: SabrParams, out):
    """vol_diffusion(v) as an array, written into ``out`` when given."""
    v = np.asarray(v, dtype=float)
    out = np.empty(v.shape) if out is None else out
    b1 = params.beta - 1.0
    # omega^2 + 2*rho*(beta-1)*omega*v + ((beta-1)*v)^2, summed left to
    # right.  ``**`` squares arrays exactly but takes pow() on a 0-d
    # input, so np.square would change the scalar results' last bit.
    np.multiply(2.0 * params.rho * b1 * params.omega, v, out=out)
    out += params.omega**2
    out += (b1 * v) ** 2
    return np.sqrt(out, out=out)


def _drift(v, params: SabrParams, out):
    """vol_drift(v) as an array, written into ``out`` when given."""
    v = np.asarray(v, dtype=float)
    out = np.empty(v.shape) if out is None else out
    b = params.beta
    np.multiply(0.5 * (b - 2.0), v, out=out)
    out += params.rho * params.omega
    out *= v * (b - 1.0)
    return out


def _scalar_or_array(val: np.ndarray):
    return val if val.ndim else float(val)


def vol_diffusion(v, params: SabrParams):
    """Lognormal diffusion coefficient of the volatility process.

    Parameters
    ----------
    v : float or ndarray
        Volatility level(s), >= 0.
    params : SabrParams

    Returns
    -------
    float or ndarray
        sqrt(omega^2 + 2*rho*(beta-1)*omega*v + (beta-1)^2 * v^2).
    """
    return _scalar_or_array(_diffusion(v, params, None))


def vol_drift(v, params: SabrParams):
    """Lognormal drift coefficient of the volatility process.

    Returns v * (beta - 1) * (0.5 * (beta - 2) * v + rho * omega),
    vectorized over ``v``.
    """
    return _scalar_or_array(_drift(v, params, None))


def capped_vol_diffusion(v, params: SabrParams, caps: CapSpec, out=None):
    """Diffusion coefficient clamped from above at ``caps.vol_cap``.

    ``out``, if given, is an array of ``v``'s shape that receives the
    result; it must not share memory with ``v``.
    """
    val = _diffusion(v, params, out)
    return _scalar_or_array(np.minimum(val, caps.vol_cap, out=val))


def capped_vol_drift(v, params: SabrParams, caps: CapSpec, out=None):
    """Drift coefficient clamped to ``[-caps.drift_cap, caps.drift_cap]``.

    ``out`` is as in :func:`capped_vol_diffusion`.
    """
    val = _drift(v, params, out)
    return _scalar_or_array(np.clip(val, -caps.drift_cap, caps.drift_cap, out=val))


def drift_polynomial_coefficients(params: SabrParams) -> tuple[float, float]:
    """Coefficients (cubic, quadratic) of the polynomial v * vol_drift(v).

    The level-space drift of the volatility process is the cubic
    polynomial

        v * vol_drift(v) == cubic * v**3 + quadratic * v**2

    with cubic = 0.5 * (1 - beta) * (2 - beta) and
    quadratic = -(1 - beta) * rho * omega.  The identity holds for every
    real v and any admissible parameter set.
    """
    one_minus_b = 1.0 - params.beta
    cubic = 0.5 * one_minus_b * (2.0 - params.beta)
    quadratic = -one_minus_b * params.rho * params.omega
    return cubic, quadratic
