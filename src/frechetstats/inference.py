"""Two-sample chi-square tests on chart coordinates and multiple-testing
procedures (Bonferroni, Benjamini-Hochberg), plus the chi-square
distribution functions they rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidPoint, NearSingularCovariance, TooFewPoints
from .estimator import guarded_inverse
from .geometry import Sample


def _check_df(k):
    if k < 1:
        raise ValueError("degrees of freedom must be >= 1")


def _gamma_tail(tail, x, k):
    """``tail(k/2, x/2)`` of a regularized incomplete gamma function, for a
    scalar ``x`` (a float) or an array (a NaN entry gives NaN)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("x must be nonnegative")
    _check_df(k)
    p = tail(0.5 * k, 0.5 * x)
    return float(p) if p.ndim == 0 else p


def chi2_sf(x, k):
    """Upper tail P(chi2_k > x) via the regularized upper incomplete gamma
    function Q(k/2, x/2); ``x`` may be an array."""
    return _gamma_tail(special.gammaincc, x, k)


def chi2_cdf(x, k):
    """Lower tail P(chi2_k <= x); ``x`` may be an array."""
    return _gamma_tail(special.gammainc, x, k)


def chi2_quantile(k, prob):
    """Value q with P(chi2_k <= q) = prob."""
    _check_df(k)
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must be in (0, 1)")
    return float(2.0 * special.gammainccinv(0.5 * k, 1.0 - prob))


@dataclass(frozen=True)
class TwoSampleResult:
    """Chi-square two-sample comparison of chart-coordinate means."""

    statistic: float
    df: int
    p_value: float
    n1: int
    n2: int
    mean_x: np.ndarray
    mean_y: np.ndarray
    pooled_cov: np.ndarray


def chi2_two_sample(vx, vy):
    """Chi-square two-sample comparisons of B pairs of chart-image samples.

    ``vx`` and ``vy`` are (B, n1, s) and (B, n2, s) stacks; comparison b
    tests ``vx[b]`` against ``vy[b]`` with the Mahalanobis form

        T = (xbar - ybar)^T (S_x/n1 + S_y/n2)^-1 (xbar - ybar)

    of unbiased (n-1) group covariances, against chi-square(s).  Returns
    ``(statistic, p_value, cond, mean_x, mean_y, pooled)`` along the batch
    axis; a comparison whose pooled covariance is numerically singular
    (``guarded_inverse``) gets NaN statistic and p-value.  TooFewPoints for
    a group of fewer than 2 points or groups of fewer than s + 2 together.
    """
    n1, n2, s = vx.shape[1], vy.shape[1], vx.shape[2]
    if n1 < 2 or n2 < 2:
        raise TooFewPoints("each group needs at least 2 observations")
    if n1 + n2 < s + 2:
        raise TooFewPoints(f"need n1 + n2 >= {s + 2} for a rank-{s} covariance")
    mean_x = vx.mean(axis=1)
    mean_y = vy.mean(axis=1)
    cx = vx - mean_x[:, None, :]
    cy = vy - mean_y[:, None, :]
    cov_x = np.swapaxes(cx, 1, 2) @ cx * (1.0 / (n1 - 1))
    cov_y = np.swapaxes(cy, 1, 2) @ cy * (1.0 / (n2 - 1))
    pooled = cov_x / n1 + cov_y / n2

    inv, _, cond, singular = guarded_inverse(pooled)
    diff = (mean_x - mean_y)[:, None, :]
    statistic = np.maximum((diff @ inv @ np.swapaxes(diff, 1, 2))[:, 0, 0], 0.0)
    statistic[singular] = np.nan
    return statistic, chi2_sf(statistic, s), cond, mean_x, mean_y, pooled


def two_sample_tests(chart, block, reps, n1):
    """Two-sample chart tests of ``reps`` replications stacked in ``block``,
    each its first group (n1 rows) followed by its second, on their
    ``chart.test_images`` (in the charts stacked at their pooled means, or
    one chart for one replication).  The images are C-contiguous rows, so
    each replication's (n, s) images have one layout, and one arithmetic,
    in a block and alone.

    Returns ``(statistic, p_value, mean_x, mean_y, pooled)`` of
    ``chi2_two_sample`` along the replications.  Raises
    NearSingularCovariance masking the replications whose pooled covariance
    is numerically singular, and InvalidPoint masking all in a
    zero-dimensional chart (the spine of a book without spine coordinates).
    """
    if chart.s == 0:
        raise InvalidPoint("a zero-dimensional chart has no two-sample test",
                           np.ones(reps, dtype=bool))
    images = chart.test_images(block).reshape(reps, -1, chart.s)
    statistic, p_value, cond, *rest = chi2_two_sample(images[:, :n1], images[:, n1:])
    singular = np.isnan(statistic)
    if singular.any():
        raise NearSingularCovariance(f"pooled two-sample covariance is numerically singular "
                                     f"(condition number {cond[singular][0]:.3e})", singular)
    return (statistic, p_value, *rest)


def two_sample_test(space, sample_x, sample_y):
    """Test equality of two distributions through their chart-mean difference.

    Both samples' test images in the chart at their pooled mean estimate
    (on Euclidean and SPD spaces the global chart, which ignores its base)
    are compared by ``two_sample_tests``.  Raises NearSingularCovariance when
    the pooled covariance is numerically singular, TooFewPoints for too few,
    and ``space.mean``'s NoConvergence (its ``fit``: ``(means, iterations)``).
    """
    sample_x = space.check_sample(sample_x)
    sample_y = space.check_sample(sample_y)
    both = Sample.join([sample_x, sample_y])
    chart = space.chart_at(space.mean(both)[0])
    stat, p, mean_x, mean_y, cov = (a[0] for a in two_sample_tests(chart, both, 1, len(sample_x)))
    return TwoSampleResult(statistic=float(stat), df=chart.s, p_value=float(p), n1=len(sample_x),
                           n2=len(sample_y), mean_x=mean_x, mean_y=mean_y, pooled_cov=cov)


@dataclass(frozen=True)
class MultiTestResult:
    """Outcome of a multiple-testing procedure over m p-values.

    ``order`` lists original site indices by ascending p-value (ties broken
    by original index); ``rejected`` is indexed by original site.  For
    Bonferroni ``global_p`` is min(1, m * min p); for BH it is None and
    ``n_rejected`` counts the rejected prefix of ``order``.
    """

    method: str
    alpha: float
    order: np.ndarray
    sorted_pvalues: np.ndarray
    rejected: np.ndarray
    n_rejected: int
    global_p: float | None


def _validated_pvalues(pvalues, alpha):
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pvalues must be a nonempty 1-d sequence")
    if np.any(~np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("pvalues must lie in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return p


def bonferroni(pvalues, alpha=0.05):
    """Bonferroni correction: global p = min(1, m * min p); site i is
    rejected at level alpha iff p_i <= alpha / m."""
    p = _validated_pvalues(pvalues, alpha)
    m = p.size
    order = np.argsort(p, kind="stable")
    rejected = p <= alpha / m
    return MultiTestResult(
        method="bonferroni",
        alpha=float(alpha),
        order=order,
        sorted_pvalues=p[order],
        rejected=rejected,
        n_rejected=int(rejected.sum()),
        global_p=min(1.0, m * float(p.min())),
    )


def bh_fdr(pvalues, alpha=0.05):
    """Benjamini-Hochberg step-up procedure at false discovery rate alpha.

    Rejects the i smallest p-values, where i is the largest index with
    p_(i) <= i * alpha / m (none when no index qualifies).
    """
    p = _validated_pvalues(pvalues, alpha)
    m = p.size
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    thresholds = alpha * np.arange(1, m + 1) / m
    hits = np.nonzero(sorted_p <= thresholds)[0]
    k = int(hits[-1]) + 1 if hits.size else 0
    rejected = np.zeros(m, dtype=bool)
    rejected[order[:k]] = True
    return MultiTestResult(
        method="bh",
        alpha=float(alpha),
        order=order,
        sorted_pvalues=sorted_p,
        rejected=rejected,
        n_rejected=k,
        global_p=None,
    )
