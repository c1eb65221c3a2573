"""dampwave: a numerical laboratory for damped waves with time-dependent speed.

The package simulates the Cauchy problem

    u_tt - lambda(t)^2 Lap u + b(t) u_t = f(t, u)

with structural damping b(t) = mu*lambda/Lambda - lambda'/lambda, evaluates
the exact Hankel-function Fourier multipliers of the linear flow, and fits
the decay rates and critical-exponent thresholds the model predicts.
"""

__version__ = "0.1.0"

from .errors import (
    DampwaveError,
    DegenerateFitError,
    DomainError,
    FitWindowError,
    IntegrationFailureError,
    QuadratureError,
    ResourceCapError,
    UnsupportedOrderError,
    ValidationError,
)
from .profiles import (
    DampingSpec,
    SpeedProfile,
    constant_profile,
    custom_profile,
    damping_at,
    dissipativity_check,
    exponential_profile,
    lambda_at,
    Lambda_at,
    polynomial_profile,
)
from .specfun import HankelPair, bessel_j, bessel_y, hankel_pair, hankel_plus
from .multipliers import (
    BoundReport,
    MultiplierValues,
    NodeStore,
    Zone,
    ZoneSampleSpec,
    certify_zone_bounds,
    classify_zone,
    mode_ode_oracle,
    phi_values,
    phi_values_grid,
    rho_of,
)
from .analysis import (
    DecayFit,
    ExponentReport,
    GNReport,
    NormSeries,
    ScanResult,
    exponent_catalog,
    fit_decay,
    gn_verify,
    run_scan,
    theta_gn,
)
from .solver import (
    BlowupRecord,
    FieldState,
    Grid,
    NonlinearitySpec,
    WeightedNormSpec,
    duhamel_step,
    linear_step,
    make_initial_data,
    norms,
    simulate,
    weight_identity_residual,
)
from .radial import gaussian_spectrum, linear_decay_series, linear_norm_radial
from .config import RunConfig, validate_config

__all__ = [
    "DampwaveError", "DegenerateFitError", "DomainError", "FitWindowError",
    "IntegrationFailureError", "QuadratureError", "ResourceCapError",
    "UnsupportedOrderError", "ValidationError",
    "DampingSpec", "SpeedProfile", "constant_profile", "custom_profile",
    "damping_at", "dissipativity_check", "exponential_profile",
    "lambda_at", "Lambda_at", "polynomial_profile",
    "HankelPair", "bessel_j", "bessel_y", "hankel_pair", "hankel_plus",
    "BoundReport", "MultiplierValues", "NodeStore", "Zone", "ZoneSampleSpec",
    "certify_zone_bounds", "classify_zone", "mode_ode_oracle", "phi_values",
    "phi_values_grid", "rho_of",
    "DecayFit", "ExponentReport", "GNReport", "NormSeries", "ScanResult",
    "exponent_catalog", "fit_decay", "gn_verify", "run_scan", "theta_gn",
    "BlowupRecord", "FieldState", "Grid", "NonlinearitySpec",
    "WeightedNormSpec", "duhamel_step", "linear_step", "make_initial_data",
    "norms", "simulate", "weight_identity_residual",
    "gaussian_spectrum", "linear_decay_series", "linear_norm_radial",
    "RunConfig", "validate_config",
]
