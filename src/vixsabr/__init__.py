"""VIX futures and options under a capped-volatility SABR model.

The effective lognormal volatility of a SABR asset solves a
one-dimensional SDE that explodes in finite time under negative
correlation.  This package prices VIX futures and options on a capped,
non-explosive modification of that process, evaluates the short-maturity
smile asymptotics in closed form, and verifies the explosion and
martingale analysis numerically (scale function, Feller test, boundary
classification).
"""

from .model import (
    CapSpec,
    SabrParams,
    capped_vol_diffusion,
    capped_vol_drift,
    drift_polynomial_coefficients,
    vol_diffusion,
    vol_drift,
    vol_variance,
)
from .scale import (
    BoundaryClass,
    EnvelopeReport,
    NumericalError,
    QuadratureConfig,
    ScaleReport,
    TailFit,
    auxiliary_scale_exponent,
    check_scale_density_envelope,
    classify_boundary,
    envelope_constant,
    explosion_verdict,
    feller_origin_diverges,
    feller_test_function,
    martingale_diagnostic,
    scale_exponent,
    scale_function,
    scale_function_limit,
)
from .mc import (
    McConfig,
    McEstimate,
    NestedVixResult,
    PathSet,
    Sabr2dSample,
    estimate_forward,
    estimate_vix_nested,
    evolve_capped,
    price_vix_option,
    simulate_capped_lanes,
    simulate_capped_paths,
    simulate_sabr_2d,
)
from .asymptotics import (
    SmileExpansion,
    limiting_implied_vol,
    rate_function,
    rate_integral,
    smile_expansion,
)
from .pricing import (
    ConvergenceRow,
    OutOfBoundsError,
    SmilePoint,
    bs_price,
    implied_vol,
    rate_convergence_study,
    smile_from_paths,
)
from .cli import ConfigError, RunConfig, main

__version__ = "0.1.0"

__all__ = [
    "SabrParams", "CapSpec",
    "vol_variance", "vol_diffusion", "vol_drift", "capped_vol_diffusion",
    "capped_vol_drift", "drift_polynomial_coefficients",
    "QuadratureConfig", "ScaleReport", "TailFit", "EnvelopeReport",
    "BoundaryClass", "NumericalError",
    "scale_exponent", "envelope_constant",
    "check_scale_density_envelope", "scale_function", "scale_function_limit",
    "feller_test_function", "feller_origin_diverges", "explosion_verdict",
    "classify_boundary", "auxiliary_scale_exponent", "martingale_diagnostic",
    "McConfig", "McEstimate", "PathSet", "NestedVixResult", "Sabr2dSample",
    "evolve_capped", "simulate_capped_lanes", "simulate_capped_paths",
    "estimate_forward",
    "price_vix_option", "estimate_vix_nested", "simulate_sabr_2d",
    "SmileExpansion", "rate_integral", "rate_function",
    "limiting_implied_vol", "smile_expansion",
    "OutOfBoundsError", "SmilePoint", "ConvergenceRow",
    "bs_price", "implied_vol", "smile_from_paths", "rate_convergence_study",
    "RunConfig", "ConfigError", "main",
    "__version__",
]
