"""Exception types shared across the package."""


class UconvexError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(UconvexError, ValueError):
    """A vector or functional has the wrong number of coordinates."""


class ZeroVectorError(UconvexError, ValueError):
    """A degenerate (zero) vector was passed where a direction is needed."""


class CapacityError(UconvexError, ValueError):
    """More seed vectors were requested than the dimension can host."""


class PreconditionError(UconvexError, ValueError):
    """An operation's stated precondition does not hold for the input."""


class InsufficientClusterError(UconvexError, RuntimeError):
    """No window of functional values contains at least two indices.

    Carries the best window found plus pigeonhole diagnostics: the value
    range ``value_range``, the number of windows ``window_count`` that
    range splits into, and ``min_n``, the sample size that would have
    guaranteed success.
    """

    def __init__(self, message, *, best_window=None, best_count=0,
                 value_range=None, window_count=None, min_n=None):
        super().__init__(message)
        self.best_window = best_window
        self.best_count = best_count
        self.value_range = value_range
        self.window_count = window_count
        self.min_n = min_n


class SamplerExhaustedError(UconvexError, RuntimeError):
    """A sampler hit its attempt cap before keeping enough trials.

    Names the statement and the (p, d, eps) cell; the CLI reports it as a
    configuration error, since the cell's hypotheses are (numerically)
    unsatisfiable rather than violated.
    """


class CertificateError(UconvexError, RuntimeError):
    """A theorem-backed certificate failed to verify; release-blocking."""
