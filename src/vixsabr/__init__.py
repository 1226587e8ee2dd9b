"""VIX futures and options under a capped-volatility SABR model.

The effective lognormal volatility of a SABR asset solves a
one-dimensional SDE that explodes in finite time under negative
correlation.  This package prices VIX futures and options on a capped,
non-explosive modification of that process, evaluates the short-maturity
smile asymptotics in closed form, and decides explosion (Feller test)
and the martingale property from the closed-form tail powers of the
scale exponents, with the scale and Feller functions by quadrature.
"""

from .model import *
from .scale import *
from .mc import *
from .asymptotics import *
from .pricing import *
from .cli import *

__version__ = "0.1.0"

__all__ = [*model.__all__, *scale.__all__, *mc.__all__, *asymptotics.__all__,
           *pricing.__all__, *cli.__all__, "__version__"]
