"""Multivariate wavelet Whittle estimation for long-range dependent time series.

Simulate multivariate fractional (ARFIMA(0, d, 0)) panels, estimate the
memory-parameter vector d and the long-run covariance (fractal connectivity)
via the wavelet Whittle criterion, and benchmark the estimators with a
seeded Monte-Carlo harness.
"""

__version__ = "0.1.0"

from .arfima import (
    ArfimaSpec,
    model_wavelet_cov,
    simulate_arfima,
)
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
from .montecarlo import (
    MCReport,
    Scenario,
    load_scenario,
    omega_from_rho,
    rate_check,
    ratio_m_u,
    run_scenario,
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
