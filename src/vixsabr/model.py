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
import numbers
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

__all__ = [
    "SabrParams",
    "CapSpec",
    "vol_variance",
    "vol_diffusion",
    "vol_drift",
    "capped_vol_diffusion",
    "capped_vol_drift",
    "drift_polynomial_coefficients",
]


def check_integer_fields(config) -> None:
    """Raise ValueError unless every field of the dataclass ``config``
    annotated ``int`` holds an integer; a boolean does not count."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in (int, "int") and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{f.name} must be an integer, got {shown(value)}")


def shown(value) -> str:
    """``str(value)``, or a description of a number whose digits exceed
    Python's limit on converting integers to text."""
    try:
        return str(value)
    except ValueError:
        return f"a number of more than {sys.get_int_max_str_digits()} digits"


# omega and vol_cap must stay below this, so that their squares, in the
# coefficients and the binding level, are finite floats.
_VOL_CAP_LIMIT = math.sqrt(sys.float_info.max)


class FieldError(ValueError):
    """A field's value is out of range; the message starts with its name."""


class NumericalError(RuntimeError):
    """Raised when quadrature fails to converge, a tail fit is rejected, or
    a closed form is evaluated outside its domain or overflows."""


def _to_float(value) -> float:
    """``float(value)``, or the infinity of its sign for an integer
    beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def as_floats(value) -> np.ndarray:
    """``value`` as a float array of its shape, each element converted
    as by :func:`_to_float`."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        objects = np.asarray(value, dtype=object)
        return np.fromiter(map(_to_float, objects.flat), float,
                           objects.size).reshape(objects.shape)


def positive_float(value, name: str) -> float:
    """``value`` as a float, converted as by :func:`_to_float`; ValueError
    naming ``name`` unless it is finite and > 0."""
    # Plain Python: 0.23 us a call, against 1.9 us through as_floats, on a
    # 2-vCPU Xeon with numpy 2.4; limiting_implied_vol takes 25 us and
    # makes three calls.  float() reads text as a number; a comparison
    # refuses it, and so does this check.
    if isinstance(value, (str, bytes)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    x = _to_float(value)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {shown(value)}")
    return x


def positive_floats(value, name: str) -> np.ndarray:
    """:func:`as_floats` of ``value``, each element checked by :func:`positive_float`."""
    values = as_floats(value)
    bad = ~((values > 0.0) & (values < math.inf))
    if bad.any():
        positive_float(values[bad][0], name)
    return values


def check_float_fields(config) -> None:
    """Raise :class:`FieldError` unless every field of the dataclass
    ``config`` annotated ``float`` holds finite floats, or arrays of them,
    as :func:`as_floats` converts them."""
    for f in fields(config):
        if f.type in (float, "float") and not np.all(
                np.isfinite(as_floats(getattr(config, f.name)))):
            raise FieldError(f"{f.name}: out of range; values must be finite")


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
        Lognormal volatility of volatility, > 0 and below the square root
        of the largest float, so that its square is finite.
    v0 : float
        Initial level of the effective volatility v = sigma * S^(beta-1), > 0.
    """

    beta: float
    rho: float
    omega: float
    v0: float

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {shown(self.beta)}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (-1, 1), got {shown(self.rho)}")
        if not 0.0 < self.omega < _VOL_CAP_LIMIT:
            raise ValueError(f"omega must be > 0 and below {_VOL_CAP_LIMIT:.6g}, where "
                             f"its square overflows; got {shown(self.omega)}")
        if not 0.0 < self.v0 < math.inf:
            raise ValueError(f"v0 must be finite and > 0, got {shown(self.v0)}")
        check_float_fields(self)

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
    Both must be finite and > 0, and ``vol_cap`` below the square root
    of the largest float, so that its square is finite.  The level at
    which the diffusion cap binds depends on the model as well; it is
    :meth:`binding_level`, which also enforces ``vol_cap > omega``
    (otherwise the cap binds at v = 0 and the capped model degenerates).
    """

    vol_cap: float
    drift_cap: float

    def __post_init__(self):
        if not positive_float(self.vol_cap, "vol_cap") < _VOL_CAP_LIMIT:
            raise ValueError(f"vol_cap must be below {_VOL_CAP_LIMIT:.6g}, where its "
                             f"square overflows; got {shown(self.vol_cap)}")
        positive_float(self.drift_cap, "drift_cap")

    @classmethod
    def from_params(cls, params: SabrParams, vol_cap: float, drift_cap: float) -> "CapSpec":
        """Construct caps and check them against the model, as
        :meth:`binding_level` does; ValueError if either check fails."""
        caps = cls(vol_cap=vol_cap, drift_cap=drift_cap)
        caps.binding_level(params)
        return caps

    def binding_level(self, params: SabrParams) -> float:
        """The volatility level at which the diffusion coefficient reaches
        ``vol_cap``; below it the diffusion cap is inactive, above it the
        capped diffusion is identically ``vol_cap``.  It solves
        vol_diffusion(v) = vol_cap:

            v = (rho * omega + sqrt(vol_cap^2 + (rho^2 - 1) * omega^2)) / (1 - beta)

        Raises ValueError unless ``vol_cap > omega``.
        """
        if not params.omega < self.vol_cap:
            raise ValueError(f"vol_cap must exceed omega ({params.omega}); "
                             f"got {shown(self.vol_cap)}")
        root = math.sqrt(self.vol_cap**2 + (params.rho**2 - 1.0) * params.omega**2)
        return (params.rho * params.omega + root) / (1.0 - params.beta)


class Coefficients(NamedTuple):
    """The constants of :func:`vol_variance` and :func:`vol_drift`.

    :meth:`of` evaluates them for one model with the scalar expressions
    the coefficient functions have always used.  The coefficient
    functions of this module take these constants in place of a
    :class:`SabrParams`, and a constant may then be an (L, 1) column
    whose row i belongs to the i-th of L models: an (L, n) array of
    levels is evaluated row by row, bit for bit as the L models one at
    a time.
    """

    omega_sq: float      # omega**2, by pow() as Python's ** computes it
    var_linear: float    # 2*rho*(beta-1)*omega
    beta_m1: float       # beta - 1
    drift_linear: float  # 0.5*(beta-2)
    rho_omega: float     # rho*omega

    @classmethod
    def of(cls, params: SabrParams) -> "Coefficients":
        b1 = params.beta - 1.0
        return cls(params.omega**2, 2.0 * params.rho * b1 * params.omega, b1,
                   0.5 * (params.beta - 2.0), params.rho * params.omega)


def _coefficients(params) -> Coefficients:
    return params if isinstance(params, Coefficients) else Coefficients.of(params)


def _variance(v, params, out, scratch=None):
    """vol_variance(v) of a float array ``v``, written into ``out`` when given.

    ``scratch``, an array of ``v``'s shape, receives the square term, so
    that no temporary is allocated; without it numpy allocates one.
    """
    c = _coefficients(params)
    out = np.empty(v.shape) if out is None else out
    # omega^2 + 2*rho*(beta-1)*omega*v + ((beta-1)*v)^2, summed left to right
    np.multiply(c.var_linear, v, out=out)
    out += c.omega_sq
    out += np.square(np.multiply(c.beta_m1, v, out=scratch), out=scratch)
    return out


def _drift(v, params, out, scratch=None):
    """vol_drift(v) of a float array ``v``; ``out`` and ``scratch`` as in _variance."""
    c = _coefficients(params)
    out = np.empty(v.shape) if out is None else out
    np.multiply(c.drift_linear, v, out=out)
    out += c.rho_omega
    out *= np.multiply(v, c.beta_m1, out=scratch)
    return out


def _scalar_or_array(val: np.ndarray):
    return val if val.ndim else float(val)


def _quiet_variance(v, params, root: bool = False):
    """vol_variance(v), or its root vol_diffusion(v) when ``root``, as an
    array, without a warning: an overflow gives inf.  Where the quadratic
    is not finite at a v that is not NaN, as where it overflows or at
    v = +-inf, the root is taken with v**2 factored out,

        |v| * sqrt((beta-1)**2 + 2*rho*(beta-1)*omega / v + omega**2 / v / v),

    which is finite wherever the root is and inf at v = +-inf, and squared
    for the variance.  Every value the quadratic gives finitely keeps its
    bits."""
    c = _coefficients(params)
    v = as_floats(v)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        val = _variance(v, c, None)
        if root:
            np.sqrt(val, out=val)
        if not np.isfinite(val).all():
            factored = np.abs(v) * np.sqrt(
                c.beta_m1 * c.beta_m1 + c.var_linear / v + c.omega_sq / v / v)
            val = np.where(~np.isnan(v) & ~np.isfinite(val),
                           factored if root else factored * factored, val)
    return val


def vol_variance(v, params: SabrParams):
    """Squared :func:`vol_diffusion`, a quadratic in v that is strictly
    positive for every real v when |rho| < 1.  It is inf, without a
    warning, where it overflows."""
    return _scalar_or_array(_quiet_variance(v, params))


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
        sqrt(omega^2 + 2*rho*(beta-1)*omega*v + (beta-1)^2 * v^2), finite
        also where its square overflows.
    """
    return _scalar_or_array(_quiet_variance(v, params, root=True))


def vol_drift(v, params: SabrParams):
    """Lognormal drift coefficient of the volatility process.

    Returns v * (beta - 1) * (0.5 * (beta - 2) * v + rho * omega),
    vectorized over ``v``; +-inf, without a warning, where it overflows.
    """
    with np.errstate(over="ignore"):
        return _scalar_or_array(_drift(as_floats(v), params, None))


def capped_vol_diffusion(v, params, caps, out=None, scratch=None):
    """Diffusion coefficient clamped from above at ``caps.vol_cap``.

    ``params`` is a :class:`SabrParams` or its :class:`Coefficients`.
    ``out``, if given, is an array of ``v``'s shape that receives the
    result; it must not share memory with ``v``.  ``scratch``, if given,
    is a third such array that the evaluation may overwrite; with both,
    nothing is allocated.  For an (L, n) stack of levels the constants
    and ``caps.vol_cap`` may be (L, 1) columns.  Without ``out`` the
    result is that of :func:`vol_diffusion`, clamped, without a warning;
    with it, as in the step kernel, the caller's ``np.errstate`` applies.
    """
    if out is None:
        val = _quiet_variance(v, params, root=True)
    else:
        val = _variance(v, params, out, scratch)
        np.sqrt(val, out=val)
    return _scalar_or_array(np.minimum(val, caps.vol_cap, out=val))


def capped_vol_drift(v, params, caps, out=None, scratch=None):
    """Drift coefficient clamped to ``[-caps.drift_cap, caps.drift_cap]``.

    The arguments, and the warnings without ``out``, are as in
    :func:`capped_vol_diffusion`; ``caps.drift_cap`` may be a column.
    """
    if out is None:
        with np.errstate(over="ignore"):
            val = _drift(as_floats(v), params, None, scratch)
    else:
        val = _drift(v, params, out, scratch)
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
