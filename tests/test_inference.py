import math

import numpy as np
import pytest
from scipy.integrate import quad

from frechetstats.errors import InvalidPoint, NearSingularCovariance, TooFewPoints
from frechetstats.geometry import euclidean_point, openbook_sample
from frechetstats.inference import (
    bh_fdr,
    bonferroni,
    chi2_cdf,
    chi2_quantile,
    chi2_sf,
    two_sample_test,
)
from frechetstats.spaces import EuclideanSpace, OpenBookSpace, SPDSpace

from conftest import AffineChartSpace, random_spd


def chi2_sf_quadrature(x, k):
    """Independent oracle: adaptive quadrature of the chi-square density
    over [0, x], complemented."""

    def density(t):
        return t ** (k / 2.0 - 1.0) * math.exp(-t / 2.0) / (2 ** (k / 2.0) * math.gamma(k / 2.0))

    val, err = quad(density, 0.0, x, limit=200)
    assert err < 1e-8  # quad's estimate is conservative; actual ~1e-15
    return 1.0 - val


# ---------------------------------------------------------------------------
# chi-square distribution functions


def test_chi2_sf_at_zero_is_one():
    for k in (1, 2, 5, 10):
        assert chi2_sf(0.0, k) == 1.0


def test_chi2_sf_two_dof_closed_form():
    for x in (0.1, 1.0, 3.0, 12.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-14)


def test_chi2_sf_one_dof_closed_form():
    # P(chi2_1 > x) = 2 (1 - Phi(sqrt(x)))
    for x in (0.2, 1.0, 4.0, 9.0):
        expected = math.erfc(math.sqrt(x / 2.0))
        assert chi2_sf(x, 1) == pytest.approx(expected, abs=1e-10)


def test_chi2_sf_six_dof_vs_quadrature():
    assert chi2_sf(12.5916, 6) == pytest.approx(0.05, abs=1e-4)
    for x in (1.0, 6.0, 12.5916, 25.0):
        assert chi2_sf(x, 6) == pytest.approx(chi2_sf_quadrature(x, 6), abs=1e-12)


def test_chi2_sf_monotone_and_complements_cdf():
    for k in (1, 3, 6):
        xs = np.linspace(0.0, 30.0, 200)
        sf = np.array([chi2_sf(x, k) for x in xs])
        assert np.all(np.diff(sf) < 0.0)
        for x in xs[::20]:
            assert chi2_sf(x, k) + chi2_cdf(x, k) == pytest.approx(1.0, abs=1e-12)


def test_chi2_quantile_round_trip():
    for k in (1, 2, 6):
        for prob in (0.05, 0.5, 0.95, 0.999):
            q = chi2_quantile(k, prob)
            assert chi2_cdf(q, k) == pytest.approx(prob, abs=1e-10)


def test_chi2_input_validation():
    with pytest.raises(ValueError):
        chi2_sf(-1.0, 3)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_quantile(3, 1.5)


def test_chi2_functions_share_one_degrees_of_freedom_check():
    for call in (lambda: chi2_sf(1.0, 0), lambda: chi2_cdf(1.0, 0), lambda: chi2_quantile(0, 0.95)):
        with pytest.raises(ValueError, match="degrees of freedom must be >= 1"):
            call()


def test_chi2_cdf_maps_an_array_as_chi2_sf_does():
    xs = np.array([0.0, 0.5, 3.0, 12.5916, np.nan])
    cdf = chi2_cdf(xs, 6)
    assert cdf.shape == xs.shape and np.isnan(cdf[-1])
    assert cdf[:-1].tolist() == [chi2_cdf(float(x), 6) for x in xs[:-1]]
    np.testing.assert_allclose(cdf[:-1] + chi2_sf(xs[:-1], 6), 1.0, rtol=0.0, atol=1e-12)
    with pytest.raises(ValueError, match="x must be nonnegative"):
        chi2_cdf(np.array([1.0, -1.0]), 6)


# ---------------------------------------------------------------------------
# two-sample test


def test_two_sample_identical_groups():
    sp = EuclideanSpace(2)
    sample = [euclidean_point(v) for v in [(0, 0), (1, 0), (0, 1), (2, 2)]]
    res = two_sample_test(sp, sample, list(sample))
    assert res.statistic == pytest.approx(0.0, abs=1e-20)
    assert res.p_value == 1.0
    assert res.df == 2


def test_two_sample_one_dimensional_unit_case():
    # each group has ddof-1 variance 2, so Sigma = 2/2 + 2/2 = 2 ... rescale
    # to make Sigma = 1 and the mean gap 1: use spread 1/sqrt(2)
    sp = EuclideanSpace(1)
    d = 1.0 / np.sqrt(2.0)
    xs = [euclidean_point([0.0 - d]), euclidean_point([0.0 + d])]
    ys = [euclidean_point([1.0 - d]), euclidean_point([1.0 + d])]
    res = two_sample_test(sp, xs, ys)
    assert res.statistic == pytest.approx(1.0, abs=1e-12)
    assert res.p_value == pytest.approx(0.31731, abs=1e-5)
    # oracle: p = 2 (1 - Phi(1))
    assert res.p_value == pytest.approx(math.erfc(1.0 / np.sqrt(2.0)), abs=1e-12)


def test_two_sample_chi2_six_quantile_maps_to_alpha():
    assert chi2_sf(12.5916, 6) == pytest.approx(0.05, abs=1e-4)


def test_two_sample_preconditions():
    sp = EuclideanSpace(4)
    pts = [euclidean_point(v) for v in np.eye(4)]
    with pytest.raises(TooFewPoints, match="each group needs at least 2 observations"):
        two_sample_test(sp, pts[:1], pts[1:])
    with pytest.raises(TooFewPoints, match=r"need n1 \+ n2 >= 6"):
        two_sample_test(sp, pts[:2], pts[:2])  # n1 + n2 < s + 2
    # still a ValueError, as it was before it had a class of its own
    with pytest.raises(ValueError):
        two_sample_test(sp, pts[1:], pts[:1])


def test_two_sample_near_singular_covariance():
    sp = EuclideanSpace(2)
    xs = [euclidean_point((0.0, 0.0)) for _ in range(5)]
    ys = [euclidean_point((1.0, 1.0)) for _ in range(5)]
    with pytest.raises(NearSingularCovariance):
        two_sample_test(sp, xs, ys)


def test_two_sample_on_the_spine_of_a_book_without_spine_coordinates():
    # the pooled mean is the book's one spine point, whose chart has no
    # coordinates to compare
    sp = OpenBookSpace(3, 0)
    xs = openbook_sample([1, 2, 3, 0], [[1.0], [1.0], [1.0], [0.0]])
    ys = openbook_sample([1, 2, 3], [[2.0], [1.0], [1.5]])
    with pytest.raises(InvalidPoint, match="zero-dimensional chart"):
        two_sample_test(sp, xs, ys)


def test_two_sample_statistic_affine_invariant(rng):
    inner = SPDSpace(3, "log_euclidean")
    xs = [random_spd(rng, log_scale=0.3) for _ in range(25)]
    ys = [random_spd(rng, log_scale=0.3) for _ in range(20)]
    base = two_sample_test(inner, xs, ys)
    for _ in range(5):
        mat = rng.normal(size=(6, 6)) + 4.0 * np.eye(6)
        wrapped = AffineChartSpace(inner, mat, rng.normal(size=6))
        res = two_sample_test(wrapped, xs, ys)
        assert res.statistic == pytest.approx(base.statistic, rel=1e-8)
        assert res.p_value == pytest.approx(base.p_value, rel=1e-8)


def test_two_sample_vech_scaling_does_not_change_decision(rng):
    # oracle: recompute the statistic from plain (unscaled) half-vectorized
    # logs; the Mahalanobis form is invariant to the sqrt(2) convention
    from frechetstats.spaces.spd import spd_logm

    sp = SPDSpace(3, "log_euclidean")
    xs = [random_spd(rng, log_scale=0.3) for _ in range(25)]
    ys = [random_spd(rng, log_scale=0.3) for _ in range(20)]
    res = two_sample_test(sp, xs, ys)

    iu = np.triu_indices(3)

    def plain_vech(sample):
        logs = spd_logm(np.stack([p.data for p in sample]))
        return logs[:, iu[0], iu[1]]

    vx, vy = plain_vech(xs), plain_vech(ys)
    diff = vx.mean(axis=0) - vy.mean(axis=0)
    pooled = np.cov(vx, rowvar=False, ddof=1) / len(xs) + np.cov(vy, rowvar=False, ddof=1) / len(ys)
    oracle = float(diff @ np.linalg.solve(pooled, diff))
    assert res.statistic == pytest.approx(oracle, rel=1e-8)


# ---------------------------------------------------------------------------
# multiple testing


def test_bonferroni_examples():
    res = bonferroni([0.001, 0.5], alpha=0.05)
    assert res.global_p == pytest.approx(0.002)
    assert list(res.rejected) == [True, False]

    pvals = np.full(75, 0.8)
    pvals[30] = 1.3e-9
    res = bonferroni(pvals, alpha=0.05)
    assert res.global_p == pytest.approx(75 * 1.3e-9)
    assert res.global_p < 1e-7

    res = bonferroni([1.0, 1.0, 1.0], alpha=0.05)
    assert res.global_p == 1.0
    assert not res.rejected.any()


def test_bh_examples():
    res = bh_fdr([0.01, 0.02, 0.03, 0.04], alpha=0.05)
    assert res.rejected.all() and res.n_rejected == 4

    res = bh_fdr([0.04, 0.9], alpha=0.05)
    assert not res.rejected.any()

    res = bh_fdr([1.0, 1.0], alpha=0.05)
    assert res.n_rejected == 0


def bh_brute_force(pvalues, alpha):
    """Literal step-up definition, used as the oracle."""
    p = np.asarray(pvalues, dtype=float)
    m = p.size
    order = sorted(range(m), key=lambda i: (p[i], i))
    best = 0
    for rank, idx in enumerate(order, start=1):
        if p[idx] <= rank * alpha / m:
            best = rank
    rejected = np.zeros(m, dtype=bool)
    for idx in order[:best]:
        rejected[idx] = True
    return rejected


def test_bh_matches_brute_force(rng):
    for _ in range(1000):
        m = int(rng.integers(1, 21))
        p = np.round(rng.random(m), 3)  # rounding forces ties
        alpha = float(rng.uniform(0.01, 0.2))
        assert np.array_equal(bh_fdr(p, alpha).rejected, bh_brute_force(p, alpha))


def test_bh_dominates_bonferroni(rng):
    for _ in range(500):
        m = int(rng.integers(1, 30))
        p = rng.random(m)
        alpha = 0.05
        bh = bh_fdr(p, alpha).rejected
        bonf = bonferroni(p, alpha).rejected
        assert np.all(bh | ~bonf)  # bonferroni rejections are a subset


def test_bh_prefix_property(rng):
    for _ in range(200):
        p = rng.random(int(rng.integers(1, 15)))
        res = bh_fdr(p, 0.1)
        flags_in_order = res.rejected[res.order]
        assert np.all(flags_in_order[: res.n_rejected])
        assert not flags_in_order[res.n_rejected :].any()


def test_pvalue_validation():
    with pytest.raises(ValueError):
        bonferroni([0.5, 1.2])
    with pytest.raises(ValueError):
        bh_fdr([-0.1], 0.05)
    with pytest.raises(ValueError):
        bh_fdr([0.5], 1.5)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.05])
def test_bonferroni_refuses_alpha_outside_the_unit_interval_as_bh_does(alpha):
    for correct in (bonferroni, bh_fdr):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            correct([0.01, 0.5], alpha)
