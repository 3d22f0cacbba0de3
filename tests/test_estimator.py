import numpy as np
import pytest

from frechetstats.errors import (
    MixedSpacePoints,
    NearSingularCovariance,
    NearSingularHessian,
    NoConvergence,
)
from frechetstats.estimator import (
    FrechetFit,
    confidence_region_contains,
    estimate_mean,
    sandwich_covariance,
)
from frechetstats.geometry import Space, euclidean_point, openbook_point, spd_sample, sphere_point
from frechetstats.inference import chi2_quantile
from frechetstats.spaces import EuclideanSpace, OpenBookSpace, SPDSpace, SphereSpace
from frechetstats.spaces.sphere import sphere_exp
from frechetstats.spaces.spd import _vech_rows, spd_logm

from conftest import AffineChartSpace, random_point, space_instances


def euclid_sample(rng, n=40, dim=3):
    return [euclidean_point(v) for v in rng.normal(size=(n, dim))]


# ---------------------------------------------------------------------------
# estimate_mean


def test_mean_euclidean_triangle():
    sp = EuclideanSpace(2)
    fit = estimate_mean(sp, [euclidean_point(v) for v in [(0, 0), (2, 0), (1, 3)]])
    assert np.allclose(fit.mean.data, [1.0, 1.0], atol=1e-15)
    assert fit.strategy == "closed_form"


def test_mean_sphere_symmetric_pair_is_pole():
    sp = SphereSpace(3)
    pole = np.array([0.0, 0.0, 1.0])
    a = sphere_point(sphere_exp(pole, np.array([0.7, 0.0, 0.0])))
    b = sphere_point(sphere_exp(pole, np.array([-0.7, 0.0, 0.0])))
    fit = estimate_mean(sp, [a, b])
    assert np.allclose(fit.mean.data, pole, atol=1e-12)
    assert fit.strategy == "karcher"
    assert fit.grad_norm <= 1e-10


def test_mean_openbook_single_point():
    sp = OpenBookSpace(3, 1)
    p = openbook_point(2, (5.0, 1.0))
    fit = estimate_mean(sp, [p])
    assert fit.mean.close_to(p)
    assert fit.strategy == "openbook_exact"


def test_mean_rejects_mixed_sample():
    sp = EuclideanSpace(3)
    with pytest.raises(MixedSpacePoints):
        estimate_mean(sp, [euclidean_point((0, 0, 0)), sphere_point((0, 0, 1))])


@pytest.mark.parametrize("space", space_instances(), ids=repr)
def test_stationarity_of_fitted_mean(space, rng):
    for _ in range(10):
        sample = [random_point(space, rng) for _ in range(30)]
        if space.kind == "sphere":
            # keep the sample in one geodesic ball so the mean is unique
            center = np.array([0.0, 0.0, 1.0])
            sample = [
                sphere_point(sphere_exp(center, 0.4 * v.data - 0.4 * (v.data @ center) * center))
                for v in sample
            ]
        fit = estimate_mean(space, sample)
        assert fit.grad_norm <= 1e-10


def test_newton_matches_closed_form_on_euclidean(rng):
    sp = EuclideanSpace(3)
    sample = sp.check_sample(euclid_sample(rng))
    direct = estimate_mean(sp, sample)
    newton, _ = Space.mean_many(sp, sample, 1)
    assert np.allclose(newton[0].data, direct.mean.data, atol=1e-9)
    # a space without its own mean runs the Newton descent
    wrapped = estimate_mean(AffineChartSpace(sp, np.eye(3), np.zeros(3)), sample)
    assert wrapped.strategy == "newton"
    assert np.allclose(wrapped.mean.data, direct.mean.data, atol=1e-9)


def test_newton_matches_karcher_on_sphere(rng):
    sp = SphereSpace(3)
    center = np.array([0.0, 0.0, 1.0])
    sample = []
    for _ in range(50):
        v = rng.normal(size=3)
        v -= (v @ center) * center
        v *= rng.uniform(0, 0.4) / np.linalg.norm(v)
        sample.append(sphere_point(sphere_exp(center, v)))
    karcher = estimate_mean(sp, sample)
    newton, _ = Space.mean_many(sp, sp.check_sample(sample), 1)
    assert sp.distance(karcher.mean, newton[0]) < 1e-8


def test_no_convergence_carries_diagnostics(rng):
    sp = SphereSpace(3)
    center = np.array([0.0, 0.0, 1.0])
    sample = []
    for _ in range(9):
        v = rng.normal(size=3)
        v -= (v @ center) * center
        v *= rng.uniform(0.1, 0.9) / np.linalg.norm(v)
        sample.append(sphere_point(sphere_exp(center, v)))
    with pytest.raises(NoConvergence) as err:
        estimate_mean(sp, sample, max_iter=1, tol=1e-15)
    assert err.value.fit is not None
    assert err.value.fit.iterations == 1


# ---------------------------------------------------------------------------
# sandwich covariance


def test_sandwich_two_point_line():
    sp = EuclideanSpace(1)
    sample = [euclidean_point([-1.0]), euclidean_point([1.0])]
    fit = sandwich_covariance(sp, sample, estimate_mean(sp, sample))
    assert fit.lambda_n[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert fit.c_n[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert fit.asym_cov[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_euclidean_sandwich_equals_sample_covariance(rng):
    sp = EuclideanSpace(4)
    sample = euclid_sample(rng, n=60, dim=4)
    fit = sandwich_covariance(sp, sample, estimate_mean(sp, sample))
    rows = np.stack([p.data for p in sample])
    cov = np.cov(rows, rowvar=False, ddof=0)
    assert np.allclose(fit.asym_cov, cov, atol=1e-8)
    assert np.allclose(fit.lambda_n, 2.0 * np.eye(4), atol=1e-12)
    assert np.allclose(fit.c_n, 4.0 * cov, atol=1e-8)


def test_spd_log_euclidean_sandwich_is_chart_covariance(rng):
    sp = SPDSpace(3, "log_euclidean")
    sample = [random_point(sp, rng) for _ in range(50)]
    fit = sandwich_covariance(sp, sample, estimate_mean(sp, sample))
    vecs = _vech_rows(spd_logm(np.stack([p.data for p in sample])))
    cov = np.cov(vecs, rowvar=False, ddof=0)
    assert np.allclose(fit.asym_cov, cov, atol=1e-8)


def test_numeric_and_analytic_sandwich_agree(rng):
    sp = EuclideanSpace(3)
    sample = euclid_sample(rng)
    fit = estimate_mean(sp, sample)
    analytic = sandwich_covariance(sp, sample, fit)
    numeric = sandwich_covariance(sp, sample, fit, derivatives="numeric")
    assert np.allclose(analytic.asym_cov, numeric.asym_cov, atol=1e-6)


def test_sandwich_matrices_are_valid(rng):
    for space in space_instances():
        sample = [random_point(space, rng) for _ in range(25)]
        if space.kind == "sphere":
            center = np.array([0.0, 0.0, 1.0])
            sample = [
                sphere_point(sphere_exp(center, 0.3 * (p.data - (p.data @ center) * center)))
                for p in sample
            ]
        fit = sandwich_covariance(space, sample, estimate_mean(space, sample))
        assert np.min(np.linalg.eigvalsh(fit.c_n)) >= -1e-10  # PSD
        assert np.allclose(fit.asym_cov, fit.asym_cov.T, atol=1e-10)
        assert fit.lambda_pd is not None


def test_near_singular_hessian_raises(rng):
    # squashing one chart direction by 1e-7 drives cond(Lambda) ~ 1e14
    inner = EuclideanSpace(2)
    squash = AffineChartSpace(inner, np.diag([1.0, 1e-7]), np.zeros(2))
    sample = euclid_sample(rng, n=30, dim=2)
    # the squashed direction amplifies finite-difference roundoff, so only a
    # loose stationarity tolerance is reachable here
    fit = estimate_mean(squash, sample, tol=1e-5)
    with pytest.raises(NearSingularHessian):
        sandwich_covariance(squash, sample, fit)


def test_degenerate_spine_zero_dimensional_chart():
    sp = OpenBookSpace(2, 0)
    sample = [openbook_point(1, (1.0,)), openbook_point(2, (1.0,))]
    fit = estimate_mean(sp, sample)
    assert fit.mean.leaf == 0
    fit = sandwich_covariance(sp, sample, fit)
    assert fit.asym_cov.shape == (0, 0)
    assert confidence_region_contains(fit, np.zeros(0), 0.05)


# ---------------------------------------------------------------------------
# confidence regions


def _manual_fit(coords, asym_cov, n):
    class _Chart:
        s = len(coords)
        base = None

    return FrechetFit(
        mean=euclidean_point(coords),
        chart_coords=np.asarray(coords, dtype=float),
        n=n,
        iterations=0,
        grad_norm=0.0,
        strategy="closed_form",
        chart=_Chart(),
        asym_cov=np.asarray(asym_cov, dtype=float),
    )


def test_region_contains_center_for_any_alpha():
    fit = _manual_fit([0.4, -0.2], np.eye(2), 50)
    for alpha in (0.001, 0.05, 0.5, 0.999):
        assert confidence_region_contains(fit, fit.chart_coords, alpha)


def test_region_rejects_remote_candidate():
    # statistic = 100 * 0.3^2 = 9 > 3.841 (chi-square-1 0.95 quantile)
    fit = _manual_fit([0.0], [[1.0]], 100)
    assert not confidence_region_contains(fit, [0.3], 0.05)
    assert chi2_quantile(1, 0.95) == pytest.approx(3.8414588206941205, abs=1e-9)


def test_region_boundary_is_inclusive():
    q6 = chi2_quantile(6, 0.95)
    assert q6 == pytest.approx(12.5916, abs=2e-4)
    offset = np.sqrt(q6)
    while offset * offset > q6:
        offset = np.nextafter(offset, 0.0)
    coords = np.zeros(6)
    candidate = coords.copy()
    candidate[0] = offset
    fit = _manual_fit(coords, np.eye(6), 1)
    assert confidence_region_contains(fit, candidate, 0.05)


def test_region_near_singular_covariance():
    fit = _manual_fit([0.0, 0.0], np.diag([1.0, 1e-13]), 10)
    with pytest.raises(NearSingularCovariance):
        confidence_region_contains(fit, [0.1, 0.1], 0.05)


def test_confidence_decisions_affine_invariant(rng):
    inner = EuclideanSpace(3)
    mat = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    wrapped = AffineChartSpace(inner, mat, rng.normal(size=3))
    sample = euclid_sample(rng, n=80, dim=3)
    fit_inner = sandwich_covariance(inner, sample, estimate_mean(inner, sample))
    fit_wrapped = sandwich_covariance(wrapped, sample, estimate_mean(wrapped, sample))
    for _ in range(200):
        target = euclidean_point(rng.normal(size=3))
        inside_inner = confidence_region_contains(
            fit_inner, fit_inner.chart.forward(target), 0.05
        )
        inside_wrapped = confidence_region_contains(
            fit_wrapped, fit_wrapped.chart.forward(target), 0.05
        )
        assert inside_inner == inside_wrapped


def test_spd_fit_and_sandwich_take_the_matrix_log_once(rng, monkeypatch):
    import frechetstats.spaces.spd as spd_module

    calls = []
    logm = spd_module.spd_logm

    def counted(mats):
        calls.append(len(mats))
        return logm(mats)

    monkeypatch.setattr(spd_module, "spd_logm", counted)
    sp = SPDSpace(3, "log_euclidean")
    sample = spd_sample(np.stack([random_point(sp, rng).data for _ in range(40)]))
    fit = sandwich_covariance(sp, sample, estimate_mean(sp, sample))
    assert fit.asym_cov.shape == (6, 6)
    assert calls == [40]  # the sample; the mean's chart coordinates are its mean log
    with pytest.raises(ValueError, match="read-only"):
        spd_module._sample_logs(sample)[0, 0, 0] = 0.0
