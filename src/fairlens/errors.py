"""Exception types shared across the package."""


class FairlensError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(FairlensError):
    """(rho1, rho2) give no positive-definite covariance."""


class LengthMismatch(FairlensError):
    """Input data columns have unequal lengths."""


class NonFiniteInput(FairlensError):
    """Input data columns hold NaN or infinite values."""


class TooFewSamples(FairlensError):
    """Not enough observations for the requested test."""


class EmptyBin(FairlensError):
    """A conditioning bin has fewer points than the test requires."""


class ConfigError(FairlensError):
    """Invalid run or test configuration."""


class QuadratureError(FairlensError):
    """Adaptive quadrature failed to converge at the requested tolerance."""
