"""Exception types shared across the package.

Each type carries the process exit code the CLI returns for it, so
estimator/simulator code should raise these rather than bare ValueError
wherever the failure mode is part of the documented interface.
"""


class WavewhittleError(Exception):
    """Base class for all package-specific errors.

    ``exit_code`` is what the CLI exits with: 2 (parse or configuration
    failure) unless a subclass says otherwise.
    """

    exit_code = 2


class UnsupportedOrderError(WavewhittleError):
    """Requested wavelet order is outside the supported Daubechies range."""


class InsufficientDataError(WavewhittleError):
    """Series too short for the requested decomposition depth.

    Carries ``largest_feasible``, the deepest level with at least one
    retained coefficient (0 if even level 1 is impossible).
    """

    exit_code = 3

    def __init__(self, message: str, largest_feasible: int):
        super().__init__(message)
        self.largest_feasible = largest_feasible


class DomainError(WavewhittleError, ValueError):
    """Argument outside the convergence domain of a spectral integral."""


class CovarianceError(WavewhittleError):
    """Covariance matrix is not symmetric positive definite."""

    exit_code = 4


class VanishingMomentError(WavewhittleError):
    """Memory parameter exceeds the wavelet's vanishing-moment cap."""


class ScaleRangeError(WavewhittleError):
    """Requested scale range is empty or not covered by the pyramid."""

    exit_code = 3


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
    """Scenario is malformed or every replication that ran failed."""
