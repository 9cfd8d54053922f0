"""Multivariate wavelet Whittle estimation for long-range dependent time series.

Simulate multivariate fractional (ARFIMA(0, d, 0)) panels, estimate the
memory-parameter vector d and the long-run covariance (fractal connectivity)
via the wavelet Whittle criterion, and benchmark the estimators with a
seeded Monte-Carlo harness.

The simulator (``arfima``) and the harness (``montecarlo``) load on first
use of one of their names, so an estimate never imports them.
"""

import importlib

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CovarianceError,
    DomainError,
    InsufficientDataError,
    LikelihoodError,
    PanelFormatError,
    ScaleRangeError,
    ScenarioError,
    UnsupportedOrderError,
    VanishingMomentError,
    WavewhittleError,
)
from .estimator import (
    EstimationConfig,
    MwwEstimate,
    Scalogram,
    correlation_from_cov,
    estimate_d,
    estimate_omega,
    estimate_panel,
    estimate_univariate_each,
    g_hat,
    objective_R,
    rate_rule_j0,
    scalogram,
    whittle_likelihood,
)
from .wavelets import (
    WaveletPyramid,
    WaveletSpec,
    coefficient_counts,
    daubechies_filters,
    dwt_pyramid,
    max_feasible_level,
    psi_hat_sq,
    qmf,
    spectral_k,
)

#: Exported names of the modules loaded on first use, by module.
_LAZY = {
    "arfima": ("ArfimaSpec", "model_wavelet_cov", "simulate_arfima"),
    "montecarlo": ("MCReport", "Scenario", "load_scenario", "omega_from_rho", "rate_check",
                   "ratio_m_u", "run_scenario"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    # errors
    "ConfigError", "CovarianceError", "DomainError", "InsufficientDataError",
    "LikelihoodError", "PanelFormatError", "ScaleRangeError", "ScenarioError",
    "UnsupportedOrderError", "VanishingMomentError", "WavewhittleError",
    # estimator
    "EstimationConfig", "MwwEstimate", "Scalogram", "correlation_from_cov", "estimate_d",
    "estimate_omega", "estimate_panel", "estimate_univariate_each", "g_hat", "objective_R",
    "rate_rule_j0", "scalogram", "whittle_likelihood",
    # wavelets
    "WaveletPyramid", "WaveletSpec", "coefficient_counts", "daubechies_filters", "dwt_pyramid",
    "max_feasible_level", "psi_hat_sq", "qmf", "spectral_k",
    # loaded on first use
    *_LAZY_NAMES,
]


def __getattr__(name):
    """Load ``arfima`` or ``montecarlo`` when it, or a name it exports, is first read."""
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_NAMES:
        value = getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAZY))
