"""dampwave: a numerical laboratory for damped waves with time-dependent speed.

The package simulates the Cauchy problem

    u_tt - lambda(t)^2 Lap u + b(t) u_t = f(t, u)

with structural damping b(t) = mu*lambda/Lambda - lambda'/lambda, evaluates
the exact Hankel-function Fourier multipliers of the linear flow, and fits
the decay rates and critical-exponent thresholds the model predicts.
"""

__version__ = "0.1.0"

import importlib

# module -> the names it exports; a module is imported on first access to
# one of its names (or to the module itself), so a run loads only the
# modules it uses
_EXPORTS = {
    "errors": ("DampwaveError", "DegenerateFitError", "DomainError", "FitWindowError",
               "IntegrationFailureError", "QuadratureError", "ResourceCapError",
               "UnsupportedOrderError", "ValidationError"),
    "profiles": ("DampingSpec", "SpeedProfile", "constant_profile", "custom_profile",
                 "damping_at", "dissipativity_check", "exponential_profile",
                 "lambda_at", "Lambda_at", "polynomial_profile"),
    "specfun": ("HankelPair", "bessel_j", "bessel_y", "hankel_pair"),
    "_ode": (),
    "multipliers": ("BoundReport", "MultiplierValues", "NodeStore", "Zone", "ZoneSampleSpec",
                    "certify_zone_bounds", "classify_zone", "mode_ode_oracle",
                    "phi_values", "phi_values_grid", "rho_of"),
    "analysis": ("DecayFit", "ExponentReport", "NormSeries", "exponent_catalog",
                 "fit_decay", "theta_gn"),
    "solver": ("BlowupRecord", "FieldState", "Grid", "NonlinearitySpec",
               "WeightedNormSpec", "duhamel_step", "linear_step", "make_initial_data",
               "norms", "simulate", "weight_identity_residual"),
    "radial": ("gaussian_spectrum", "linear_decay_series", "linear_norm_radial"),
    "config": ("RunConfig", "validate_config"),
    "scan": ("GNReport", "ScanResult", "gn_verify", "run_scan"),
    "cli": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
