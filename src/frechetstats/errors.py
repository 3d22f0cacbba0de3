"""Exception types shared across the library."""


class FrechetStatsError(Exception):
    """Base class for all library errors.  ``refused``, when set, masks the
    rows or fits that the raising kernel refused among those it was given.
    """

    def __init__(self, message, refused=None):
        super().__init__(message)
        self.refused = refused


class MixedSpacePoints(FrechetStatsError):
    """Points from different sample spaces were mixed in one operation, or
    a sample was paired with targets that its rows do not group by."""


class InvalidPoint(FrechetStatsError):
    """A point payload violates its space's invariants."""


class TooFewPoints(FrechetStatsError, ValueError):
    """A sample is too small for the statistic asked of it (an empty sample,
    a two-sample group of one point); also a ValueError, as it once was."""


class InvalidArgument(FrechetStatsError, ValueError):
    """An argument of a chi-square function or a multiple-testing procedure
    lies outside its domain (degrees of freedom, a probability, p-values,
    alpha); also a ValueError, as it once was."""


class NonFiniteValue(FrechetStatsError):
    """A function returned NaN or infinity at a probe point."""


class CutLocus(FrechetStatsError):
    """The log map was requested at (or too close to) the cut locus."""


class NotPositiveDefinite(FrechetStatsError):
    """A matrix required to be SPD has a non-positive eigenvalue; ``refused``
    masks the offending matrices of the (..., p, p) stack."""


class NonUniqueProjection(FrechetStatsError):
    """The nearest-point projection onto the manifold is not unique."""


class NoConvergence(FrechetStatsError):
    """Iterative mean estimation exhausted its iteration budget.

    The partial fit is attached as ``.fit``: ``(means, iterations)`` of
    every replication from ``mean_many``, a FrechetFit (with diagnostics)
    from ``estimate_mean``.
    """

    def __init__(self, message, fit=None, refused=None):
        super().__init__(message, refused)
        self.fit = fit


class NearSingularHessian(FrechetStatsError):
    """The averaged Hessian is numerically singular (condition number too large)."""


class NearSingularCovariance(FrechetStatsError):
    """A covariance matrix is numerically singular (condition number too large)."""


class InvalidDescriptor(FrechetStatsError):
    """A sampler or experiment descriptor is malformed or unsupported."""
