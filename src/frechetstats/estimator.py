"""Sample Frechet means and their asymptotic sandwich covariance.

``estimate_mean`` finds a stationary point of the empirical Frechet
function with the space's own ``mean`` (its ``mean_many`` on one sample):
closed forms (Euclidean, SPD under both metrics, chordal sphere, open book)
and, for the geodesic sphere, a damped Riemannian Newton iteration, which
alone decides whether it converged (NoConvergence).

``sandwich_covariance`` then forms, in the chart anchored at the estimate,

    Lambda_n = average Hessian of h(.; Y_j),
    C_n      = average outer product of the gradients of h(.; Y_j),

and the asymptotic covariance Lambda_n^-1 C_n Lambda_n^-1 of the chart
coordinates (to be divided by n for the covariance of the estimate), from
the chart's closed-form derivatives of h or else from central differences
with fixed steps (``geometry.numeric_gradient`` and ``numeric_hessian``).
``stacked_sandwich`` forms the same for R fits at once, in a chart stacked
at their R means; one fit is the R = 1 stack.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDescriptor, NearSingularCovariance, NearSingularHessian, NoConvergence
from .errors import choice, level
from .geometry import Sample, guarded_inverse, mean_gradient, numeric_gradient, numeric_hessian
from .geometry import check_space, refuse_singular, row_norms
from .inference import chi2_quantile, quadratic_forms

#: the gradient and Hessian routes of ``sandwich_covariance``
DERIVATIVES = ("auto", "numeric")


@dataclass(frozen=True)
class FrechetFit:
    """Estimated Frechet mean with optional sandwich covariance.

    ``mean`` is the estimate as a one-row Sample and ``chart`` the chart
    anchored at it (a stack of one chart), in which the (s,)
    ``chart_coords``, ``lambda_n``, ``c_n`` and ``asym_cov`` live.  The
    covariance of the chart coordinates of the estimate is ``asym_cov / n``.
    """

    mean: Sample
    chart_coords: np.ndarray
    n: int
    iterations: int
    grad_norm: float
    strategy: str
    chart: object
    lambda_n: np.ndarray | None = None
    c_n: np.ndarray | None = None
    asym_cov: np.ndarray | None = None
    lambda_cond: float | None = None
    lambda_pd: bool | None = None


def estimate_mean(space, sample):
    """Stationary point of the empirical Frechet function, found by
    ``space.mean`` (the fit's ``strategy`` is the space's ``mean_strategy``).

    Parameters
    ----------
    space : Space
    sample : Sample
        Nonempty, of the space's kind.

    Raises
    ------
    NoConvergence
        ``space.mean`` did not converge; the partial fit (the last iterate,
        the spent budget and the gradient norm there) rides on the exception.
    MixedSpacePoints
        Some sample point is from a different space.
    TooFewPoints
        The sample is empty.
    InvalidDescriptor
        ``space`` is no space (it has no ``check_sample``).
    """
    check_space(space)
    sample = space.check_sample(sample)
    failure = None
    try:
        mean, iterations = space.mean(sample)
    except NoConvergence as exc:
        failure, (mean, its) = exc, exc.fit
        iterations = int(its[0])
    chart = space.chart_at(mean)
    coords = chart.forward_many(mean)  # (1, s): the chart is a stack of one
    fit = FrechetFit(
        mean=mean,
        chart_coords=coords[0],
        n=len(sample),
        iterations=iterations,
        grad_norm=float(row_norms(mean_gradient(chart, coords, chart.pack(sample)[None]))[0]),
        strategy=space.mean_strategy,
        chart=chart,
    )
    if failure is not None:
        failure.fit = fit
        raise failure
    return fit


def sandwich_covariance(space, sample, fit, *, derivatives="auto"):
    """Populate Lambda_n, C_n and the sandwich covariance of a fit
    (row 0 of ``stacked_sandwich`` of the one fit).

    ``derivatives`` selects the gradient/Hessian route: ``auto`` prefers a
    chart's closed forms, ``numeric`` forces central differences (same
    estimator contract, useful for validating the analytic path).

    Raises NearSingularHessian when Lambda_n has condition number beyond
    1e12, which signals a boundary or otherwise degenerate configuration,
    and InvalidDescriptor for a ``fit``, ``space`` or mode of another kind.
    """
    _check_fit(fit)
    choice(derivatives, DERIVATIVES, "derivatives mode", InvalidDescriptor)
    check_space(space)
    sample = space.check_sample(sample)
    chart = fit.chart
    lam, c, asym, cond, pd = (a[0] for a in stacked_sandwich(
        chart, fit.chart_coords[None], chart.pack(sample)[None], derivatives=derivatives
    ))
    return dataclasses.replace(
        fit, lambda_n=lam, c_n=c, asym_cov=asym, lambda_cond=float(cond), lambda_pd=bool(pd)
    )


def _check_fit(fit):
    """Refuse a ``fit`` that is not a FrechetFit (InvalidDescriptor)."""
    if not isinstance(fit, FrechetFit):
        raise InvalidDescriptor(f"fit must be a FrechetFit, got {type(fit).__name__}")


def stacked_sandwich(chart, coords, packed, *, derivatives="auto"):
    """Lambda_n, C_n and the asymptotic covariance Lambda_n^-1 C_n
    Lambda_n^-1 of R fits at once, in ``chart``.

    ``coords`` (R, s) are the fitted means' chart coordinates and
    ``packed`` (R, n, ...) the chart's packed samples, of R equal-size
    samples in a chart stacked at the R means, or in a global chart.
    Returns ``(lambda_n, c_n, asym_cov, lambda_cond, lambda_pd)`` with the
    leading axis R; each fit gets the values it gets alone.
    ``derivatives`` as for ``sandwich_covariance``, which checks it.  Raises
    NearSingularHessian masking the fits whose Lambda_n is numerically singular.
    """
    if coords.shape[-1] == 0:  # a zero-dimensional chart: the mean is pinned, exactly
        empty = np.zeros(coords.shape + (0,))
        return empty, empty, empty, np.ones(coords.shape[:-1]), np.ones(coords.shape[:-1], bool)
    numeric = derivatives == "numeric"
    rows = None if numeric else chart.grad_h_many(coords, packed)
    if rows is None:
        rows = numeric_gradient(lambda xx: chart.h_many(xx, packed), coords)
    lam = None if numeric else chart.hess_h_mean(coords, packed)
    if lam is None:
        lam = numeric_hessian(lambda xx: chart.h_many(xx, packed).mean(axis=-1), coords)
    # a flat chart's closed-form Lambda_n is one matrix for every fit
    lam = np.broadcast_to(lam, coords.shape + coords.shape[-1:])
    lam = 0.5 * (lam + np.swapaxes(lam, -1, -2))
    c = _second_moments(rows)
    lam_inv, w, cond, singular = guarded_inverse(lam)
    refuse_singular(NearSingularHessian, "Lambda_n", cond, singular)
    return lam, c, _sandwich_product(lam_inv, c), cond, np.min(w, axis=-1) > 0.0


def _second_moments(rows):
    """C_n of (..., n, s) gradient rows: their raw (uncentered) second
    moments, symmetrized.  The gradients average to ~0 at a stationary
    point, and the raw form stays valid when the residual is not exactly
    zero."""
    c = np.swapaxes(rows, -1, -2) @ rows / rows.shape[-2]
    return 0.5 * (c + np.swapaxes(c, -1, -2))


def _sandwich_product(lam_inv, c):
    asym = lam_inv @ c @ lam_inv
    return 0.5 * (asym + np.swapaxes(asym, -1, -2))


def confidence_region_contains(fit, candidate_chart_coords, alpha):
    """Membership test for the CLT confidence ellipsoid.

    Returns whether ``n (nu_n - x)^T asym_cov^-1 (nu_n - x)`` is at most the
    chi-square(s) quantile at level 1 - alpha (boundary inclusive).
    InvalidDescriptor when ``fit`` is not a FrechetFit or has no covariance,
    the candidate is not its s finite chart coordinates or ``alpha`` is not
    in (0, 1).
    """
    _check_fit(fit)
    level(alpha, "alpha", InvalidDescriptor)
    if fit.asym_cov is None:
        raise InvalidDescriptor("fit has no covariance; run sandwich_covariance first")
    try:
        candidate = np.asarray(candidate_chart_coords, dtype=float)
    except (TypeError, ValueError):
        raise InvalidDescriptor(
            f"candidate_chart_coords must be numbers, got {candidate_chart_coords!r}") from None
    if candidate.shape != fit.chart_coords.shape:
        raise InvalidDescriptor(f"candidate_chart_coords must have shape {fit.chart_coords.shape}, "
                                f"got {candidate.shape}")
    if not np.isfinite(candidate).all():
        raise InvalidDescriptor(f"candidate_chart_coords must be finite, got {candidate.tolist()}")
    contains = confidence_regions_contain(
        fit.n, fit.chart_coords[None], fit.asym_cov[None], candidate, alpha
    )
    return bool(contains[0])


def confidence_regions_contain(n, coords, asym_covs, candidate_chart_coords, alpha):
    """``confidence_region_contains`` for R fits on samples of size n at
    once: ``coords`` (R, s) are the fitted means' chart coordinates and
    ``asym_covs`` (R, s, s) their sandwich covariances, and the candidate is
    given in each fit's chart, as (R, s) coordinates (one (s,) row when
    every fit shares the candidate's chart).  Returns the (R,) membership
    mask.  Raises NearSingularCovariance masking the fits whose covariance
    is numerically singular while the candidate differs from their mean.
    """
    if coords.shape[-1] == 0:
        return np.ones(len(coords), dtype=bool)  # a pinned mean: the region is the whole chart
    d = coords - np.asarray(candidate_chart_coords, dtype=float)
    # the statistic is identically 0 at the mean, even for degenerate fits
    at_mean = ~np.any(d, axis=-1)
    statistic, cond, singular = quadratic_forms(d, asym_covs, scale=n)
    refuse_singular(NearSingularCovariance, "asym_cov", cond, singular & ~at_mean)
    return at_mean | (statistic <= chi2_quantile(coords.shape[-1], 1.0 - alpha))
