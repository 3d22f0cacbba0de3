"""Two-sample chi-square tests on chart coordinates and multiple-testing
procedures (Bonferroni, Benjamini-Hochberg), plus the chi-square
distribution functions they rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import NearSingularCovariance
from .estimator import estimate_mean, guarded_inverse
from .geometry import Sample


def chi2_sf(x, k):
    """Upper tail P(chi2_k > x) via the regularized upper incomplete gamma
    function Q(k/2, x/2).  ``x`` may be an array (a NaN entry gives NaN);
    a scalar ``x`` gives a float."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("x must be nonnegative")
    if k < 1:
        raise ValueError("degrees of freedom must be >= 1")
    p = special.gammaincc(0.5 * k, 0.5 * x)
    return float(p) if p.ndim == 0 else p


def chi2_cdf(x, k):
    """Lower tail P(chi2_k <= x)."""
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if k < 1:
        raise ValueError("degrees of freedom must be >= 1")
    return float(special.gammainc(0.5 * k, 0.5 * x))


def chi2_quantile(k, prob):
    """Value q with P(chi2_k <= q) = prob."""
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
    (``guarded_inverse``) gets NaN statistic and p-value.
    """
    n1, n2, s = vx.shape[1], vy.shape[1], vx.shape[2]
    if n1 < 2 or n2 < 2:
        raise ValueError("each group needs at least 2 observations")
    if n1 + n2 < s + 2:
        raise ValueError(f"need n1 + n2 >= {s + 2} for a rank-{s} covariance")
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


def two_sample_test(space, sample_x, sample_y):
    """Test equality of two distributions through their chart-mean difference.

    Both samples are vectorized with the *same* chart (the space's global
    chart when it has one, otherwise the chart at the pooled mean estimate)
    and compared by ``chi2_two_sample``.  Raises NearSingularCovariance when
    the pooled covariance is numerically singular.
    """
    sample_x = space.check_sample(sample_x)
    sample_y = space.check_sample(sample_y)
    if space.has_global_chart:
        chart = space.chart_at()
    else:
        leaves = None
        if sample_x.leaves is not None:
            leaves = np.concatenate([sample_x.leaves, sample_y.leaves])
        both = Sample(space.kind, np.concatenate([sample_x.data, sample_y.data]), leaves)
        chart = space.chart_at(estimate_mean(space, both).mean)
    vx = chart.forward_many(sample_x)
    vy = chart.forward_many(sample_y)
    statistic, p_value, cond, mean_x, mean_y, pooled = chi2_two_sample(vx[None], vy[None])
    if np.isnan(statistic[0]):
        raise NearSingularCovariance(
            f"pooled two-sample covariance is numerically singular "
            f"(condition number {cond[0]:.3e})"
        )
    return TwoSampleResult(
        statistic=float(statistic[0]),
        df=chart.s,
        p_value=float(p_value[0]),
        n1=len(sample_x),
        n2=len(sample_y),
        mean_x=mean_x[0],
        mean_y=mean_y[0],
        pooled_cov=pooled[0],
    )


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


def _validated_pvalues(pvalues):
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pvalues must be a nonempty 1-d sequence")
    if np.any(~np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("pvalues must lie in [0, 1]")
    return p


def bonferroni(pvalues, alpha=0.05):
    """Bonferroni correction: global p = min(1, m * min p); site i is
    rejected at level alpha iff p_i <= alpha / m."""
    p = _validated_pvalues(pvalues)
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
    p = _validated_pvalues(pvalues)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
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
