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
from dataclasses import dataclass
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


def shown(value) -> str:
    """``repr`` of text, taken as a plain str so that numpy's shows no
    type, ``str`` of a number or numpy scalar, ``repr`` of anything else,
    as an array or a Decimal, whose str reads as a number, or words for
    what neither shows: an integer past the digit limit, a deep container."""
    if isinstance(value, str):
        return repr(str(value))
    number = isinstance(value, (numbers.Complex, np.generic))
    try:
        return str(value) if number else repr(value)
    except ValueError:
        return f"a number of more than {sys.get_int_max_str_digits()} digits"
    except RecursionError:
        return f"a {type(value).__name__} nested too deeply to show"


# omega and vol_cap must stay below this, so that their squares, in the
# coefficients and the binding level, are finite floats.
_VOL_CAP_LIMIT = math.sqrt(sys.float_info.max)


class NumericalError(RuntimeError):
    """Raised when quadrature fails to converge, a tail fit is rejected, or
    a closed form is evaluated outside its domain or overflows."""


def count(value, name: str, minimum=-math.inf):
    """``value``; ValueError naming ``name`` unless it is an integer,
    which a boolean is not, and >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {shown(value)}")
    return value


def _to_float(value, name: str) -> float:
    """``float(value)`` of a real number, which a boolean is not, or the
    infinity of its sign for an integer beyond the float range.  Anything
    else, such as text, None, a list or a complex, raises TypeError naming
    ``name``: float() would read some as numbers and name no argument."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def as_floats(value, name: str) -> np.ndarray:
    """``value`` as a float array of its shape.  A number or a numpy array
    of integer or float dtype converts in bulk; anything else, such as a
    list, in which numpy reads a boolean beside floats as a float, one
    element at a time by :func:`_to_float`, which refuses by ``name``."""
    values = np.asarray(value)
    if values.dtype.kind not in "iuf" or (values.ndim and not isinstance(value, np.ndarray)):
        # as objects, so that a number beside text is not read as text
        values = np.asarray(value, dtype=object)
        return np.fromiter((_to_float(x, name) for x in values.flat), float,
                           values.size).reshape(values.shape)
    return np.asarray(values, dtype=float)


def positive_float(value, name: str) -> float:
    """``value`` as a float, converted as by :func:`_to_float`; ValueError
    naming ``name`` unless it is finite and > 0."""
    # Plain Python: 0.09 us a call on a float, against 1.9 us through
    # as_floats, on a 2-vCPU Xeon with numpy 2.4; limiting_implied_vol
    # takes 25 us and makes three calls.
    x = _to_float(value, name)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {shown(value)}")
    return x


def positive_floats(value, name: str) -> np.ndarray:
    """:func:`as_floats` of ``value``, each element checked by :func:`positive_float`."""
    values = as_floats(value, name)
    bad = ~((values > 0.0) & (values < math.inf))
    if bad.any():
        positive_float(values[bad][0], name)
    return values


def _check_squarable(value, name: str) -> None:
    """Check ``value`` by :func:`positive_float`, and refuse it also
    unless it is below ``_VOL_CAP_LIMIT``, so that its square is finite."""
    if not positive_float(value, name) < _VOL_CAP_LIMIT:
        raise ValueError(f"{name} must be below {_VOL_CAP_LIMIT:.6g}, where its "
                         f"square overflows; got {shown(value)}")


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
        if not 0.0 <= _to_float(self.beta, "beta") < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {shown(self.beta)}")
        if not -1.0 < _to_float(self.rho, "rho") < 1.0:
            raise ValueError(f"rho must be in (-1, 1), got {shown(self.rho)}")
        _check_squarable(self.omega, "omega")
        positive_float(self.v0, "v0")

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
        _check_squarable(self.vol_cap, "vol_cap")
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
    omega: float         # omega and rho, for the root's fallback in _quiet_variance
    rho: float

    @classmethod
    def of(cls, params: SabrParams) -> "Coefficients":
        b1 = params.beta - 1.0
        return cls(params.omega**2, 2.0 * params.rho * b1 * params.omega, b1,
                   0.5 * (params.beta - 2.0), params.rho * params.omega,
                   params.omega, params.rho)


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
    is not a finite normal float at a v that is not NaN, as where it
    overflows, at v = +-inf, or where it is subnormal or 0, the root is
    taken from the quadratic as a sum of two squares,

        hypot(omega + rho*(beta-1)*v, sqrt(1 - rho**2)*(beta-1)*v),

    which under- or overflows only where the root does and is inf at
    v = +-inf, and squared for the variance.  Every value the quadratic
    gives finite and normal keeps its bits."""
    c = _coefficients(params)
    v = as_floats(v, "v")
    with np.errstate(over="ignore", invalid="ignore"):
        val = _variance(v, c, None)
        kept = (val >= sys.float_info.min) & (val < math.inf)
        if root:
            np.sqrt(val, out=val)
        if not kept.all():
            b1v = c.beta_m1 * v
            hypot = np.hypot(c.omega + c.rho * b1v, np.sqrt(1.0 - c.rho * c.rho) * b1v)
            val = np.where(kept | np.isnan(v), val, hypot if root else hypot * hypot)
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
        return _scalar_or_array(_drift(as_floats(v, "v"), params, None))


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
            val = _drift(as_floats(v, "v"), params, None, scratch)
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
