import dataclasses

import numpy as np
import pytest

from frechetstats.errors import (
    InvalidDescriptor,
    MixedSpacePoints,
    NearSingularCovariance,
    NearSingularHessian,
    NoConvergence,
    TooFewPoints,
)
from frechetstats.estimator import (
    FrechetFit,
    confidence_region_contains,
    estimate_mean,
    sandwich_covariance,
)
from frechetstats.geometry import (
    Sample,
    Space,
    euclidean_point,
    euclidean_sample,
    openbook_point,
    openbook_sample,
    sphere_sample,
)
from frechetstats.inference import chi2_quantile
from frechetstats.spaces import EuclideanSpace, OpenBookSpace, SPDSpace, SphereSpace
from frechetstats.spaces.spd import _vech_rows, spd_logm

from conftest import AffineChartSpace, random_points, space_instances
from conftest import sphere_exp_sample


def euclid_sample(rng, n=40, dim=3):
    return euclidean_sample(rng.normal(size=(n, dim)))


def near_pole(sample, radius):
    """The sphere Sample of the exponentials at the pole e3 of ``radius``
    times the tangent part at e3 of each point of ``sample``: a sample in
    the geodesic ball of that radius about e3."""
    center = np.array([0.0, 0.0, 1.0])
    v = sample.data
    return sphere_exp_sample(center, radius * v - radius * (v @ center)[:, None] * center)


# ---------------------------------------------------------------------------
# estimate_mean


def test_mean_euclidean_triangle():
    sp = EuclideanSpace(2)
    fit = estimate_mean(sp, euclidean_sample([(0, 0), (2, 0), (1, 3)]))
    assert np.allclose(fit.mean.data, [1.0, 1.0], atol=1e-15)
    assert fit.strategy == "closed_form"


def test_mean_sphere_symmetric_pair_is_pole():
    sp = SphereSpace(3)
    pole = np.array([0.0, 0.0, 1.0])
    fit = estimate_mean(sp, sphere_exp_sample(pole, [(0.7, 0.0, 0.0), (-0.7, 0.0, 0.0)]))
    assert np.allclose(fit.mean.data, pole, atol=1e-12)
    assert fit.strategy == "newton"
    assert fit.grad_norm <= 1e-10


def test_mean_openbook_single_point():
    sp = OpenBookSpace(3, 1)
    p = openbook_point(2, (5.0, 1.0))
    fit = estimate_mean(sp, p)
    assert (fit.mean.kind, fit.mean.leaves.tolist()) == (p.kind, p.leaves.tolist())
    assert np.allclose(fit.mean.data, p.data, rtol=0.0, atol=1e-12)
    assert fit.strategy == "openbook_exact"


def test_mean_rejects_mixed_sample():
    sp = EuclideanSpace(3)
    with pytest.raises(MixedSpacePoints):
        estimate_mean(sp, sphere_sample([(0.0, 0.0, 1.0)]))
    with pytest.raises(MixedSpacePoints):
        Sample.join([euclidean_sample([(0.0, 0.0, 0.0)]), sphere_sample([(0.0, 0.0, 1.0)])])


@pytest.mark.parametrize("space", space_instances(), ids=repr)
def test_stationarity_of_fitted_mean(space, rng):
    for _ in range(10):
        sample = random_points(space, rng, 30)
        if space.kind == "sphere":
            # keep the sample in one geodesic ball so the mean is unique
            sample = near_pole(sample, 0.4)
        fit = estimate_mean(space, sample)
        assert fit.grad_norm <= 1e-10


def test_a_space_without_mean_many_cannot_be_instantiated():
    class NoMean(Space):
        kind = "euclidean"
        chart_dim = 1

        def distance_many(self, sample, q):
            return np.abs(sample.data[:, 0] - q.data[0])

        def chart_at(self, base):
            return EuclideanSpace(1).chart_at(base)

    with pytest.raises(TypeError, match="mean_many"):
        NoMean()


@pytest.mark.parametrize("space", space_instances(), ids=repr)
def test_an_empty_sample_has_no_mean(space, rng):
    with pytest.raises(TooFewPoints, match="sample must be nonempty"):
        estimate_mean(space, random_points(space, rng, 1).take(slice(0, 0)))
    with pytest.raises(MixedSpacePoints, match="got list"):
        estimate_mean(space, [])


def test_no_convergence_carries_diagnostics(rng, newton_budget):
    newton_budget(1, tol=1e-15)
    sp = SphereSpace(3)
    center = np.array([0.0, 0.0, 1.0])
    steps = []
    for _ in range(9):
        v = rng.normal(size=3)
        v -= (v @ center) * center
        v *= rng.uniform(0.1, 0.9) / np.linalg.norm(v)
        steps.append(v)
    with pytest.raises(NoConvergence) as err:
        estimate_mean(sp, sphere_exp_sample(center, steps))
    assert err.value.fit is not None
    assert err.value.fit.iterations == 1


# ---------------------------------------------------------------------------
# sandwich covariance


def test_sandwich_two_point_line():
    sp = EuclideanSpace(1)
    sample = euclidean_sample([[-1.0], [1.0]])
    fit = sandwich_covariance(sp, sample, estimate_mean(sp, sample))
    assert fit.lambda_n[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert fit.c_n[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert fit.asym_cov[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_sandwich_refuses_an_unknown_derivatives_mode(rng):
    sp = EuclideanSpace(2)
    sample = euclid_sample(rng, dim=2)
    fit = estimate_mean(sp, sample)
    with pytest.raises(InvalidDescriptor, match="unknown derivatives mode 'bogus'"):
        sandwich_covariance(sp, sample, fit, derivatives="bogus")


def test_euclidean_sandwich_equals_sample_covariance(rng):
    sp = EuclideanSpace(4)
    sample = euclid_sample(rng, n=60, dim=4)
    fit = sandwich_covariance(sp, sample, estimate_mean(sp, sample))
    cov = np.cov(sample.data, rowvar=False, ddof=0)
    assert np.allclose(fit.asym_cov, cov, atol=1e-8)
    assert np.allclose(fit.lambda_n, 2.0 * np.eye(4), atol=1e-12)
    assert np.allclose(fit.c_n, 4.0 * cov, atol=1e-8)


def test_spd_log_euclidean_sandwich_is_chart_covariance(rng):
    sp = SPDSpace(3, "log_euclidean")
    sample = random_points(sp, rng, 50)
    fit = sandwich_covariance(sp, sample, estimate_mean(sp, sample))
    vecs = _vech_rows(spd_logm(sample.data))
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
        sample = random_points(space, rng, 25)
        if space.kind == "sphere":
            sample = near_pole(sample, 0.3)
        fit = sandwich_covariance(space, sample, estimate_mean(space, sample))
        assert np.min(np.linalg.eigvalsh(fit.c_n)) >= -1e-10  # PSD
        assert np.allclose(fit.asym_cov, fit.asym_cov.T, atol=1e-10)
        assert fit.lambda_pd is not None


def test_near_singular_hessian_raises(rng):
    # squashing one chart direction by 1e-7 drives cond(Lambda) ~ 1e14
    inner = EuclideanSpace(2)
    squash = AffineChartSpace(inner, np.diag([1.0, 1e-7]), np.zeros(2))
    sample = euclid_sample(rng, n=30, dim=2)
    fit = estimate_mean(squash, sample)
    with pytest.raises(NearSingularHessian):
        sandwich_covariance(squash, sample, fit)


def test_degenerate_spine_zero_dimensional_chart():
    sp = OpenBookSpace(2, 0)
    sample = openbook_sample([1, 2], [(1.0,), (1.0,)])
    fit = estimate_mean(sp, sample)
    assert fit.mean.leaves.tolist() == [0]
    fit = sandwich_covariance(sp, sample, fit)
    assert fit.asym_cov.shape == (0, 0)
    assert confidence_region_contains(fit, np.zeros(0), 0.05)


# ---------------------------------------------------------------------------
# confidence regions


def _manual_fit(coords, asym_cov, n):
    class _Chart:
        s = len(coords)

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


def test_a_region_needs_a_covariance_and_a_level_in_the_unit_interval():
    fit = _manual_fit([0.0, 0.0], np.eye(2), 10)
    no_covariance = dataclasses.replace(fit, asym_cov=None)
    with pytest.raises(InvalidDescriptor, match="^fit has no covariance; run sandwich_covariance first$"):
        confidence_region_contains(no_covariance, [0.1, 0.1], 0.05)
    for alpha in (0.0, 1.0, 1.5):
        with pytest.raises(InvalidDescriptor, match=r"^alpha must be in \(0, 1\)$"):
            confidence_region_contains(fit, [0.1, 0.1], alpha)


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
            fit_inner, fit_inner.chart.forward_many(target)[0], 0.05
        )
        inside_wrapped = confidence_region_contains(
            fit_wrapped, fit_wrapped.chart.forward_many(target)[0], 0.05
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
    sample = random_points(sp, rng, 40)
    fit = sandwich_covariance(sp, sample, estimate_mean(sp, sample))
    assert fit.asym_cov.shape == (6, 6)
    assert calls == [40]  # the sample; the mean's chart coordinates are its mean log
    with pytest.raises(ValueError, match="read-only"):
        spd_module._sample_logs(sample)[0, 0, 0] = 0.0
