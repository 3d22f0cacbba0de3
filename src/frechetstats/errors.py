"""Exception types shared across the library, and the one check of each
argument kind (``count``, ``level``, ``choice``) the entry points share."""

import numpy as np


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


def count(value, name, least, error):
    """``value`` as an int: an int or numpy integer (no bool) in [least, 2**63), or ``error``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value!r}")
    if value >= 2**63:
        raise error(f"{name} must fit int64, got {value!r}")
    return int(value)


def real(value):
    """``value`` as a float if it is one real number (no string or array), else NaN."""
    try:
        return float("nan") if np.ndim(value) or isinstance(value, (str, bytes)) else float(value)
    except (OverflowError, TypeError, ValueError):  # 10**400 is no float
        return float("nan")


def level(value, name, error):
    """``value`` as a float if it is one real number in (0, 1); else ``error`` naming ``name``."""
    if not 0.0 < (x := real(value)) < 1.0:
        raise error(f"{name} must be in (0, 1), got {value!r}")
    return x


def choice(value, options, what, error):
    """``value`` if it is a string among ``options``; else ``error``."""
    if not isinstance(value, str) or value not in options:
        raise error(f"unknown {what} {value!r}")
    return value
