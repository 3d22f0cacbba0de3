"""Exception types shared across the library."""


class FrechetStatsError(Exception):
    """Base class for all library errors."""


class MixedSpacePoints(FrechetStatsError):
    """Points from different sample spaces were mixed in one operation."""


class InvalidPoint(FrechetStatsError):
    """A point payload violates its space's invariants."""


class NonFiniteValue(FrechetStatsError):
    """A function returned NaN or infinity at a probe point."""


class CutLocus(FrechetStatsError):
    """The log map was requested at (or too close to) the cut locus."""


class NotPositiveDefinite(FrechetStatsError):
    """A matrix required to be SPD has a non-positive eigenvalue.

    ``index`` is the flat position of the first offending matrix in its
    (..., p, p) stack (0 for a single matrix); ``logs``, when set, are the
    matrix logs of the stack, NaN at each offending matrix.
    """

    def __init__(self, message, index=None, logs=None):
        super().__init__(message)
        self.index = index
        self.logs = logs


class NonUniqueProjection(FrechetStatsError):
    """The nearest-point projection onto the manifold is not unique."""


class NoConvergence(FrechetStatsError):
    """Iterative mean estimation exhausted its iteration budget.

    The partial fit (with diagnostics) is attached as ``.fit``.
    """

    def __init__(self, message, fit=None):
        super().__init__(message)
        self.fit = fit


class NearSingularHessian(FrechetStatsError):
    """The averaged Hessian is numerically singular (condition number too large)."""


class NearSingularCovariance(FrechetStatsError):
    """A covariance matrix is numerically singular (condition number too large)."""


class InvalidDescriptor(FrechetStatsError):
    """A sampler or experiment descriptor is malformed or unsupported."""
