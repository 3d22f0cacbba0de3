"""Two-sample chi-square tests on chart coordinates and multiple-testing
procedures (Bonferroni, Benjamini-Hochberg), plus the chi-square
distribution functions they rely on and ``quadratic_forms``, the one place
a region or test statistic ``d' S^-1 d`` is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgument, InvalidPoint, NearSingularCovariance, TooFewPoints
from .geometry import Sample, guarded_inverse, refuse_singular

# The chi-square functions are closed forms for an integer number k of
# degrees of freedom (the chart dimension, in the paper's limit): with
# y = x/2 and nu = (k mod 2)/2, the upper tail is the finite Poisson sum
#
#     P(chi2_k > x) = [erfc(sqrt(y)) if k is odd]
#                     + sum_{j < k//2} e^-y y^(j+nu) / Gamma(j+nu+1)
#
# of positive terms, each term the one before times y/(j+nu).

#: y above which e^-y is taken as two factors e^-y/2, one on the terms and
#: one on their sum, so a tail whose e^-y underflows (e^-709 is no longer
#: a normal float) keeps its digits
_SPLIT_Y = 700.0
#: y above which e^-y/2 underflows too, and each term is built in log space
_LOG_Y = 1400.0
#: stands in for y = inf in log space, where inf - inf would be NaN
_BIG_Y = 1e300
#: Newton steps of a quantile before it gives up (it takes about ten)
_QUANTILE_STEPS = 200

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _check_df(k):
    """The integer k of chi2_k; InvalidArgument for k < 1 or a fraction."""
    if k < 1:
        raise InvalidArgument("degrees of freedom must be >= 1")
    if not float(k).is_integer():
        raise InvalidArgument("degrees of freedom must be an integer")
    return int(k)


def _upper(y, k):
    """Q(k/2, y) = P(chi2_k > 2y) along a 1-d array y >= 0 (NaN gives NaN)."""
    y = np.minimum(y, _BIG_Y)
    nu = 0.5 * (k % 2)
    far = y > _LOG_Y
    near = np.where(far, 0.0, y)
    split = np.where(near > _SPLIT_Y, 0.5 * near, 0.0)
    term = np.exp(split - near)
    if nu:
        term = term * (2.0 * np.sqrt(near / np.pi))  # y^(1/2) / Gamma(3/2)
    total = np.zeros_like(y)
    for j in range(k // 2):
        if j:
            term = term * near / (j + nu)
        total = total + term
    q = total * np.exp(-split)
    if far.any():
        yf = y[far]
        q[far] = sum(np.exp((j + nu) * np.log(yf) - yf - math.lgamma(j + nu + 1.0))
                     for j in range(k // 2))
    if nu:
        q += _erfc(np.sqrt(y)).astype(float)
    return q


def _cdf(y, k):
    """P(k/2, y) = P(chi2_k <= 2y) along a 1-d array y >= 0: 1 - Q where
    Q <= 1/2, and elsewhere (below the median, where every ratio y/(a+n)
    is below 1) the convergent series

        e^-y y^a / Gamma(a+1) sum_n y^n / ((a+1)...(a+n)),   a = k/2,

    so a small lower tail keeps its relative accuracy.
    """
    sf = _upper(y, k)
    cdf = 1.0 - sf
    below = sf > 0.5
    a, yb = 0.5 * k, y[below]
    with np.errstate(divide="ignore"):
        term = np.exp(a * np.log(yb) - yb - math.lgamma(a + 1.0))
    total, n = term, 0
    while np.any(term > 0.25 * _EPS * total):
        n += 1
        term = term * yb / (a + n)
        total = total + term
    cdf[below] = total
    return cdf


def _tail(fn, x, k):
    """``fn(x/2, k)`` for a scalar ``x`` (a float) or an array of any shape."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise InvalidArgument("x must be nonnegative")
    p = fn(0.5 * x.ravel(), _check_df(k)).reshape(x.shape)
    return float(p) if p.ndim == 0 else p


def chi2_sf(x, k):
    """Upper tail P(chi2_k > x); ``x`` may be an array."""
    return _tail(_upper, x, k)


def chi2_cdf(x, k):
    """Lower tail P(chi2_k <= x); ``x`` may be an array."""
    return _tail(_cdf, x, k)


def chi2_quantile(k, prob):
    """Value q with P(chi2_k <= q) = prob."""
    k = _check_df(k)
    if not 0.0 < prob < 1.0:
        raise InvalidArgument("prob must be in (0, 1)")
    return _quantile(k, float(prob))


@lru_cache(maxsize=256)
def _quantile(k, prob):
    """``chi2_quantile``: Newton's method on the log of the smaller tail
    against log q, kept inside a bracket of the root; a step that would
    leave the bracket halves or doubles q, or bisects the bracket's logs.
    A quantile below the normal floats (k = 1 and prob below about 1e-154,
    say) is 0.0.  Memoized: a Monte Carlo run asks for one quantile per
    block."""
    upper = prob > 0.5
    tail, sign = (_upper, -1.0) if upper else (_cdf, 1.0)
    target = math.log1p(-prob) if upper else math.log(prob)
    a = 0.5 * k
    lo, hi, q = 0.0, math.inf, float(k)
    for _ in range(_QUANTILE_STEPS):
        y = 0.5 * q
        p = float(tail(np.array([y]), k)[0])
        excess = math.log(p) - target if p > 0.0 else -math.inf
        if sign * excess > 0.0:
            hi = q
        else:
            lo = q
        step, slope = math.nan, 0.0
        if p > 0.0:  # d log(tail) / d log(q) = +-y^a e^-y / (Gamma(a) tail)
            slope = sign * math.exp(a * math.log(y) - y - math.lgamma(a) - math.log(p))
        if slope:
            log_step = -excess / slope
            # done when the step is within the rounding of log(tail) itself
            if abs(log_step) <= _EPS * (2.0 + abs(target / slope)):
                return q * math.exp(log_step)
            step = q * math.exp(min(max(log_step, -700.0), 700.0))
        if hi - lo <= 4.0 * _EPS * q:
            return q
        if not lo < step < hi:
            step = 2.0 * q if hi == math.inf else 0.5 * q if lo == 0.0 else \
                math.sqrt(lo) * math.sqrt(hi)
        if step < _TINY:
            return 0.0
        q = step
    return q


def quadratic_forms(d, covs, scale=1.0):
    """``scale d_r' S_r^-1 d_r`` of R stacked (R, s) ``d`` and (R, s, s)
    ``covs`` (d scaled before the products), as ``(statistic, cond,
    singular)``: clamped at 0, NaN where ``guarded_inverse`` finds S_r
    numerically singular, with its condition numbers and mask."""
    inv, _, cond, singular = guarded_inverse(covs)
    statistic = np.maximum(((scale * d)[:, None, :] @ inv @ d[:, :, None])[:, 0, 0], 0.0)
    statistic[singular] = np.nan
    return statistic, cond, singular


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

    of unbiased (n-1) group covariances (``quadratic_forms``), against
    chi-square(s).  Returns ``(statistic, p_value, cond, singular, mean_x,
    mean_y, pooled)`` along the batch axis, NaN statistic and p-value where
    ``singular`` masks a numerically singular pooled covariance.  TooFewPoints
    for a group of fewer than 2 points or groups of fewer than s + 2 together.
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
    statistic, cond, singular = quadratic_forms(mean_x - mean_y, pooled)
    return statistic, chi2_sf(statistic, s), cond, singular, mean_x, mean_y, pooled


def two_sample_tests(chart, block, reps, n1):
    """Two-sample chart tests of ``reps`` replications stacked in ``block``,
    each its first group (n1 rows) followed by its second, on their
    ``chart.test_images`` (in the charts stacked at their pooled means).
    The images are C-contiguous rows, so each replication's (n, s) images
    have one layout, and one arithmetic, in a block and alone.

    Returns ``(statistic, p_value, mean_x, mean_y, pooled)`` of
    ``chi2_two_sample`` along the replications.  Raises
    NearSingularCovariance with ``chi2_two_sample``'s ``singular`` mask
    (numerically singular pooled covariances), and InvalidPoint masking all in a
    zero-dimensional chart (the spine of a book without spine coordinates).
    """
    if chart.s == 0:
        raise InvalidPoint("a zero-dimensional chart has no two-sample test",
                           np.ones(reps, dtype=bool))
    images = chart.test_images(block).reshape(reps, -1, chart.s)
    statistic, p_value, cond, singular, *rest = chi2_two_sample(images[:, :n1], images[:, n1:])
    refuse_singular(NearSingularCovariance, "pooled two-sample covariance", cond, singular)
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


def check_alpha(alpha):
    """Refuse a level outside (0, 1) (InvalidArgument)."""
    if not 0.0 < alpha < 1.0:
        raise InvalidArgument("alpha must be in (0, 1)")


def _validated_pvalues(pvalues, alpha):
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidArgument("pvalues must be a nonempty 1-d sequence")
    if np.any(~np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise InvalidArgument("pvalues must lie in [0, 1]")
    check_alpha(alpha)
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
