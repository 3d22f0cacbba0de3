import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from frechetstats.errors import FrechetStatsError, InvalidArgument, InvalidPoint
from frechetstats.errors import NearSingularCovariance, TooFewPoints
from frechetstats.geometry import euclidean_sample, guarded_inverse, openbook_sample
from frechetstats.inference import (
    bh_fdr,
    bonferroni,
    chi2_cdf,
    chi2_quantile,
    chi2_sf,
    quadratic_forms,
    two_sample_test,
)
from frechetstats.spaces import EuclideanSpace, OpenBookSpace, SPDSpace

from conftest import AffineChartSpace, random_spd_sample


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
    # exactly e^-x/2 wherever that is a normal float
    xs = np.linspace(0.0, 1400.0, 2801)
    np.testing.assert_array_equal(chi2_sf(xs, 2), np.exp(-xs / 2.0))


def test_chi2_sf_one_dof_closed_form():
    # P(chi2_1 > x) = 2 (1 - Phi(sqrt(x))) = erfc(sqrt(x/2)), exactly
    xs = np.linspace(0.0, 1500.0, 3001)
    assert chi2_sf(xs, 1).tolist() == [math.erfc(math.sqrt(x / 2.0)) for x in xs]


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
    for call in (lambda k: chi2_sf(1.0, k), lambda k: chi2_cdf(1.0, k),
                 lambda k: chi2_quantile(k, 0.95)):
        for k in (2.5, 1.0 + 1e-12, math.inf, math.nan):
            with pytest.raises(ValueError, match="degrees of freedom must be an integer"):
                call(k)
        with pytest.raises(ValueError, match="degrees of freedom must be >= 1"):
            call(0.5)
        assert call(6.0) == call(np.int64(6)) == call(6)


@pytest.mark.parametrize("call, message", [
    (lambda: chi2_sf(-1.0, 3), "x must be nonnegative"),
    (lambda: chi2_cdf(1.0, 0), "degrees of freedom must be >= 1"),
    (lambda: chi2_quantile(2.5, 0.5), "degrees of freedom must be an integer"),
    (lambda: chi2_quantile(3, 1.5), "prob must be in (0, 1)"),
    (lambda: bonferroni([]), "pvalues must be a nonempty 1-d sequence"),
    (lambda: bh_fdr([0.5, 1.2]), "pvalues must lie in [0, 1]"),
    (lambda: bh_fdr([0.5], 1.5), "alpha must be in (0, 1)"),
])
def test_domain_errors_are_typed_and_still_value_errors(call, message):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, FrechetStatsError) and isinstance(info.value, ValueError)
    assert str(info.value) == message


def test_chi2_functions_share_one_degrees_of_freedom_check():
    for call in (lambda: chi2_sf(1.0, 0), lambda: chi2_cdf(1.0, 0), lambda: chi2_quantile(0, 0.95)):
        with pytest.raises(ValueError, match="degrees of freedom must be >= 1"):
            call()


#: the degrees of freedom of the reference tests
REFERENCE_DFS = [*range(1, 13), 21, 55]


def _reference_grid(k):
    """x from 0 to past the point where P(chi2_k > x) underflows, dense near
    0 (where the lower tail is small) and in steps of 0.5 beyond."""
    tail = np.arange(1.0, 2 * 830.0 + 2 * k, 0.5)
    return np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 121), tail])


def _assert_matches_scipy(ours, ref):
    """Relative agreement to 1e-13 wherever scipy's value exceeds 1e-300,
    and to 2 L 2^-52 where the value e^-L is below about e^-230.  There
    both sides carry the rounding of a large exponent, about L ulps: scipy
    takes exp of a rounded L, and erfc(sqrt(y)) magnifies the rounding of
    sqrt(y) 2y times.  Against 40-digit mpmath scipy is off by up to
    1.15e-13 (k = 6, x = 1070) and the closed form by up to 9.2e-14
    (k = 1, x near 1400); the mpmath test below holds every value of the
    closed form to 1e-13."""
    ours, ref = np.asarray(ours), np.asarray(ref)
    kept = ref > 1e-300
    bound = np.maximum(1e-13, 2.0 * np.abs(np.log(ref[kept])) * np.finfo(float).eps)
    err = np.abs(ours[kept] / ref[kept] - 1.0)
    assert np.all(err <= bound), (err / bound).max()


@pytest.mark.parametrize("k", REFERENCE_DFS)
def test_chi2_tails_match_scipy(k):
    xs = _reference_grid(k)
    sf = special.gammaincc(0.5 * k, 0.5 * xs)
    assert sf[-1] == 0.0  # the grid reaches the underflow
    _assert_matches_scipy(chi2_sf(xs, k), sf)
    _assert_matches_scipy(chi2_cdf(xs, k), special.gammainc(0.5 * k, 0.5 * xs))


@pytest.mark.parametrize("k", REFERENCE_DFS)
def test_chi2_sf_matches_mpmath_to_1e_13(k):
    mpmath = pytest.importorskip("mpmath")
    xs = _reference_grid(k)[::7]
    with mpmath.workdps(40):
        exact = [mpmath.gammainc(0.5 * k, 0.5 * x, regularized=True) for x in xs]
        exact = np.array([float(v) for v in exact])
    kept = exact > 1e-300
    np.testing.assert_allclose(chi2_sf(xs, k)[kept], exact[kept], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("k", REFERENCE_DFS)
def test_chi2_quantile_matches_scipy(k):
    probs = np.linspace(1e-3, 1.0 - 1e-3, 51)
    qs = np.array([chi2_quantile(k, p) for p in probs])
    np.testing.assert_allclose(qs, 2.0 * special.gammainccinv(0.5 * k, 1.0 - probs),
                               rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(chi2_cdf(qs, k), probs, rtol=1e-13, atol=0.0)


def test_chi2_tails_at_the_edges():
    xs = np.array([0.0, np.inf, np.nan])
    for k in (1, 2, 3, 6, 55):
        sf, cdf = chi2_sf(xs, k), chi2_cdf(xs, k)
        assert sf[:2].tolist() == [1.0, 0.0] and cdf[:2].tolist() == [0.0, 1.0]
        assert np.isnan(sf[2]) and np.isnan(cdf[2])
        assert chi2_sf(0.0, k) == 1.0 and chi2_sf(math.inf, k) == 0.0
        assert math.isnan(chi2_sf(math.nan, k)) and math.isnan(chi2_cdf(math.nan, k))
    # quantiles far out in either tail, and one below the normal floats
    assert chi2_cdf(chi2_quantile(3, 1e-200), 3) == pytest.approx(1e-200, rel=1e-12)
    assert chi2_sf(chi2_quantile(6, 1.0 - 2.0 ** -50), 6) == pytest.approx(2.0 ** -50, rel=1e-12)
    assert chi2_quantile(1, 1e-300) == 0.0
    # a tail whose e^-x/2 underflows is still representable (and right)
    assert chi2_sf(1500.0, 100) == pytest.approx(special.gammaincc(50.0, 750.0), rel=1e-13)
    assert chi2_sf(3000.0, 1200) == pytest.approx(special.gammaincc(600.0, 1500.0), rel=1e-12)


def test_chi2_tails_give_a_scalar_the_bits_of_its_array_entry():
    xs = np.array([0.0, 0.5, 3.0, 12.5916, 800.0, 1420.0, 1600.0, 3000.0])
    for k in (1, 2, 5, 6, 600):
        sf, cdf = chi2_sf(xs, k), chi2_cdf(xs, k)
        assert sf.tolist() == [chi2_sf(float(x), k) for x in xs]
        assert cdf.tolist() == [chi2_cdf(float(x), k) for x in xs]
        np.testing.assert_array_equal(chi2_sf(xs.reshape(2, 4), k), sf.reshape(2, 4))


def test_chi2_cdf_maps_an_array_as_chi2_sf_does():
    xs = np.array([0.0, 0.5, 3.0, 12.5916, np.nan])
    cdf = chi2_cdf(xs, 6)
    assert cdf.shape == xs.shape and np.isnan(cdf[-1])
    assert cdf[:-1].tolist() == [chi2_cdf(float(x), 6) for x in xs[:-1]]
    np.testing.assert_allclose(cdf[:-1] + chi2_sf(xs[:-1], 6), 1.0, rtol=0.0, atol=1e-12)
    with pytest.raises(ValueError, match="x must be nonnegative"):
        chi2_cdf(np.array([1.0, -1.0]), 6)


# ---------------------------------------------------------------------------
# the quadratic-form kernel


def _covariances(rng, r, s):
    """R random SPD (s, s) covariances, s >= 2, with row 1 zero (condition
    number inf) and row 2 of condition number 1e13, both singular."""
    a = rng.normal(size=(r, s, s))
    covs = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(s)
    covs[1] = 0.0
    covs[2] = np.diag(np.r_[1.0, np.full(s - 1, 1e-13)])
    return covs


@pytest.mark.parametrize("s", [2, 3, 6])
def test_quadratic_forms_are_nan_exactly_on_the_singular_covariances(rng, s):
    covs = _covariances(rng, 6, s)
    statistic, cond, singular = quadratic_forms(rng.normal(size=(6, s)), covs)
    _, _, expected_cond, expected_singular = guarded_inverse(covs)
    assert singular.tolist() == expected_singular.tolist() == [False, True, True, False, False, False]
    assert cond.tobytes() == expected_cond.tobytes()
    assert np.isnan(statistic).tolist() == singular.tolist()
    assert np.all(statistic[~singular] > 0.0)


def test_quadratic_forms_of_a_zero_difference_are_zero_and_never_negative(rng):
    covs = _covariances(rng, 4, 3)[[0, 3]]
    assert quadratic_forms(np.zeros((2, 3)), covs, scale=50)[0].tolist() == [0.0, 0.0]
    # an indefinite matrix gives a negative form, which is clamped at 0
    statistic, _, singular = quadratic_forms(np.array([[0.0, 1.0]]), np.diag([1.0, -1.0])[None])
    assert statistic.tolist() == [0.0] and not singular.any()


@pytest.mark.parametrize("scale", [1.0, 37])
@pytest.mark.parametrize("r, s", [(2, 1), (7, 3), (75, 6)])
def test_each_quadratic_form_is_its_own_r1_call(rng, r, s, scale):
    covs = rng.normal(size=(r, s, s))
    covs = covs @ np.swapaxes(covs, 1, 2) + 0.01 * np.eye(s)
    d = rng.normal(size=(r, s)) * rng.uniform(1e-3, 1e3, size=(r, 1))
    stacked = quadratic_forms(d, covs, scale)
    for row in range(r):
        alone = quadratic_forms(d[row:row + 1], covs[row:row + 1], scale)
        for got, want in zip(alone, stacked):
            assert got.tobytes() == want[row:row + 1].tobytes()


def test_quadratic_forms_scale_the_difference_before_the_products(rng):
    # the confidence region's statistic is (n d)' S^-1 d, bit for bit
    covs = rng.normal(size=(50, 4, 4))
    covs = covs @ np.swapaxes(covs, 1, 2) + 0.01 * np.eye(4)
    d = rng.normal(size=(50, 4))
    inv = guarded_inverse(covs)[0]
    expected = ((37 * d)[:, None, :] @ inv @ d[:, :, None])[:, 0, 0]
    assert quadratic_forms(d, covs, scale=37)[0].tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# two-sample test


def test_two_sample_identical_groups():
    sp = EuclideanSpace(2)
    sample = euclidean_sample([(0, 0), (1, 0), (0, 1), (2, 2)])
    res = two_sample_test(sp, sample, sample)
    assert res.statistic == pytest.approx(0.0, abs=1e-20)
    assert res.p_value == 1.0
    assert res.df == 2


def test_two_sample_one_dimensional_unit_case():
    # each group has ddof-1 variance 2, so Sigma = 2/2 + 2/2 = 2 ... rescale
    # to make Sigma = 1 and the mean gap 1: use spread 1/sqrt(2)
    sp = EuclideanSpace(1)
    d = 1.0 / np.sqrt(2.0)
    xs = euclidean_sample([[0.0 - d], [0.0 + d]])
    ys = euclidean_sample([[1.0 - d], [1.0 + d]])
    res = two_sample_test(sp, xs, ys)
    assert res.statistic == pytest.approx(1.0, abs=1e-12)
    assert res.p_value == pytest.approx(0.31731, abs=1e-5)
    # oracle: p = 2 (1 - Phi(1))
    assert res.p_value == pytest.approx(math.erfc(1.0 / np.sqrt(2.0)), abs=1e-12)


def test_two_sample_chi2_six_quantile_maps_to_alpha():
    assert chi2_sf(12.5916, 6) == pytest.approx(0.05, abs=1e-4)


def test_two_sample_preconditions():
    sp = EuclideanSpace(4)
    first, rest = euclidean_sample(np.eye(4)).split([1, 3])
    two = rest.take(slice(0, 2))
    with pytest.raises(TooFewPoints, match="each group needs at least 2 observations"):
        two_sample_test(sp, first, rest)
    with pytest.raises(TooFewPoints, match=r"need n1 \+ n2 >= 6"):
        two_sample_test(sp, two, two)  # n1 + n2 < s + 2
    # still a ValueError, as it was before it had a class of its own
    with pytest.raises(ValueError):
        two_sample_test(sp, rest, first)


def test_two_sample_near_singular_covariance():
    sp = EuclideanSpace(2)
    xs = euclidean_sample(np.zeros((5, 2)))
    ys = euclidean_sample(np.ones((5, 2)))
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
    xs = random_spd_sample(rng, 25, log_scale=0.3)
    ys = random_spd_sample(rng, 20, log_scale=0.3)
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
    xs = random_spd_sample(rng, 25, log_scale=0.3)
    ys = random_spd_sample(rng, 20, log_scale=0.3)
    res = two_sample_test(sp, xs, ys)

    iu = np.triu_indices(3)

    def plain_vech(sample):
        logs = spd_logm(sample.data)
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
