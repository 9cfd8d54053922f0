"""Exception types shared across the package.

The CLI maps these onto process exit codes, so estimator/simulator code
should raise these rather than bare ValueError wherever the failure mode
is part of the documented interface.
"""


class WavewhittleError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedOrderError(WavewhittleError):
    """Requested wavelet order is outside the supported Daubechies range."""


class InsufficientDataError(WavewhittleError):
    """Series too short for the requested decomposition depth.

    Carries ``largest_feasible``, the deepest level with at least one
    retained coefficient (0 if even level 1 is impossible).
    """

    def __init__(self, message: str, largest_feasible: int):
        super().__init__(message)
        self.largest_feasible = largest_feasible


class DomainError(WavewhittleError, ValueError):
    """Argument outside the convergence domain of a spectral integral."""


class CovarianceError(WavewhittleError):
    """Covariance matrix is not symmetric positive definite."""


class VanishingMomentError(WavewhittleError):
    """Memory parameter exceeds the wavelet's vanishing-moment cap."""


class ScaleRangeError(WavewhittleError):
    """Requested scale range is empty or not covered by the pyramid."""


class LikelihoodError(WavewhittleError):
    """Likelihood cannot be evaluated (singular covariance argument)."""


class ConfigError(WavewhittleError, ValueError):
    """Invalid estimation, simulation or scenario configuration."""


class PanelFormatError(WavewhittleError):
    """CSV panel cannot be parsed; carries 1-based line/column positions.

    A position of 0 means the error has none (a whole file, a whole row).
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column


class ScenarioError(WavewhittleError):
    """Scenario file is malformed or every replication failed."""
