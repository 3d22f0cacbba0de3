import functools
import hashlib
import re

import numpy as np
import pytest
from scipy import special, stats

from frechetstats import simulate
from frechetstats.errors import (
    CutLocus,
    FrechetStatsError,
    InvalidDescriptor,
    InvalidPoint,
    NearSingularCovariance,
    NearSingularHessian,
    NoConvergence,
)
from frechetstats.estimator import confidence_region_contains, estimate_mean, sandwich_covariance
from frechetstats.inference import two_sample_test
from frechetstats.simulate import (
    GaussianDescriptor,
    OpenBookDescriptor,
    Sampler,
    SphereCapDescriptor,
    SphereTwoPointDescriptor,
    SPDLogGaussianDescriptor,
    _check_failures,
    mc_consistency,
    mc_coverage,
    mc_stickiness,
    mc_type1,
)
from frechetstats.spaces import EuclideanSpace, OpenBookSpace, SPDSpace, SphereSpace
from frechetstats.geometry import Sample, euclidean_sample, openbook_sample, sphere_point
from frechetstats.spaces.spd import spd_expm

from conftest import count_logm, seed_sequence_stream


def euclid_sampler(seed=0):
    return Sampler(
        EuclideanSpace(2), GaussianDescriptor(mean=(0.5, -1.0), cov=2.0), seed
    )


# ---------------------------------------------------------------------------
# draw determinism and descriptor validation


def test_draw_is_deterministic_per_seed_and_rep():
    s = euclid_sampler(seed=123)
    a = s.draw(20, rep=4)
    b = s.draw(20, rep=4)
    assert all(np.array_equal(p.data, q.data) for p, q in zip(a, b))
    c = s.draw(20, rep=5)
    assert not all(np.array_equal(p.data, q.data) for p, q in zip(a, c))


def test_draw_requires_positive_n():
    with pytest.raises(InvalidDescriptor, match="n must be >= 1"):
        euclid_sampler().draw(0)


def test_openbook_all_mass_on_one_leaf():
    space = OpenBookSpace(3, 1)
    d = OpenBookDescriptor(leaf_probs=(1.0, 0.0, 0.0), x0=("exponential", 1.0), spine_mean=(0.0,))
    pts = Sampler(space, d, 1).draw(50)
    assert pts.leaves.tolist() == [1] * 50


def test_cap_radius_zero_is_point_mass():
    space = SphereSpace(3)
    d = SphereCapDescriptor(center=(0.0, 0.0, 1.0), radius=0.0)
    pts = Sampler(space, d, 0).draw(10)
    assert all(np.allclose(p.data, [0, 0, 1]) for p in pts)


@pytest.mark.parametrize("descriptor, kind, message", [
    pytest.param(GaussianDescriptor(mean=(0.0, 0.0, 0.0)), "euclidean",
                 "gaussian descriptor requires a Euclidean space", id="gaussian"),
    pytest.param(SphereCapDescriptor(center=(0, 0, 1.0), radius=0.1), "sphere",
                 "cap descriptor requires a sphere space", id="cap"),
    pytest.param(SphereTwoPointDescriptor(a=(0, 0, 1.0), b=(0, 1.0, 0)), "sphere",
                 "two-point descriptor requires a sphere space", id="two-point"),
    pytest.param(SPDLogGaussianDescriptor(mean_log=tuple(map(tuple, np.eye(3))), scale=0.1), "spd",
                 "spd descriptor requires an SPD space", id="log-gaussian"),
    pytest.param(OpenBookDescriptor(leaf_probs=(0.5, 0.5)), "openbook",
                 "open-book descriptor requires an open-book space", id="openbook"),
])
def test_a_descriptor_refuses_a_space_of_another_kind_or_none(descriptor, kind, message):
    spaces = [EuclideanSpace(3), SphereSpace(3), SPDSpace(3), OpenBookSpace(2, 0), None]
    for space in spaces:
        if getattr(space, "kind", None) != kind:
            with pytest.raises(InvalidDescriptor, match=f"^{message}$"):
                descriptor.validate(space)


def test_stickiness_refuses_a_sampler_off_the_open_book():
    sampler = Sampler(EuclideanSpace(1), GaussianDescriptor(mean=(0.0,)), 0)
    with pytest.raises(InvalidDescriptor, match="^mc_stickiness requires an open-book sampler$"):
        mc_stickiness(sampler, 10, 10)


def test_invalid_descriptors_rejected():
    with pytest.raises(InvalidDescriptor):
        Sampler(SphereSpace(3), SphereCapDescriptor(center=(0, 0, 1.0), radius=-0.5), 0)
    with pytest.raises(InvalidDescriptor):
        Sampler(
            OpenBookSpace(2, 0),
            OpenBookDescriptor(leaf_probs=(0.7, 0.7), x0=("exponential", 1.0), spine_mean=()),
            0,
        )
    with pytest.raises(InvalidDescriptor):
        Sampler(EuclideanSpace(3), SphereCapDescriptor(center=(0, 0, 1.0), radius=0.1), 0)
    with pytest.raises(InvalidDescriptor):
        Sampler(
            OpenBookSpace(2, 0),
            OpenBookDescriptor(leaf_probs=(0.5, 0.5), x0=("poisson", 1.0), spine_mean=()),
            0,
        )


NAN = float("nan")


@pytest.mark.parametrize("space, descriptor, message", [
    pytest.param(OpenBookSpace(3, 0), OpenBookDescriptor(leaf_probs=(NAN, 0.5, 0.25)),
                 "leaf probabilities must be nonnegative with sum <= 1", id="leaf-prob"),
    pytest.param(OpenBookSpace(2, 1), OpenBookDescriptor(leaf_probs=(0.5, 0.5), spine_mean=(0.0,), spine_sd=NAN),
                 "spine_sd must be nonnegative", id="spine-sd"),
    pytest.param(OpenBookSpace(2, 0), OpenBookDescriptor(leaf_probs=(0.5, 0.5), x0=("exponential", NAN)),
                 "invalid parameter for height family 'exponential'", id="height-rate"),
    pytest.param(OpenBookSpace(2, 0), OpenBookDescriptor(leaf_probs=(0.5, 0.5), x0=("constant", NAN)),
                 "invalid parameter for height family 'constant'", id="height-constant"),
    pytest.param(SPDSpace(2), SPDLogGaussianDescriptor(mean_log=((0.0, 0.0), (0.0, 0.0)), scale=NAN),
                 "scale must be nonnegative", id="spd-scale"),
])
def test_a_nan_descriptor_parameter_is_refused(space, descriptor, message):
    with pytest.raises(InvalidDescriptor, match=f"^{re.escape(message)}$"):
        Sampler(space, descriptor, 0)


def test_gaussian_descriptor_allows_singular_covariance():
    space = EuclideanSpace(2)
    d = GaussianDescriptor(mean=(0.0, 0.0), cov=((1.0, 1.0), (1.0, 1.0)))
    pts = Sampler(space, d, 0).draw(50)
    assert np.allclose(pts.data[:, 0], pts.data[:, 1], atol=1e-12)  # degenerate direction


def test_a_sample_is_no_sampler_space():
    # a Sample has a kind, as a space does, but is refused with a typed error
    with pytest.raises(InvalidDescriptor, match="^a Sampler needs a space, got a Sample$"):
        Sampler(euclidean_sample(np.zeros((3, 2))), GaussianDescriptor((0.0, 0.0)), 1)


def test_cap_sampling_matches_radius_bound():
    space = SphereSpace(4)  # the Beta inverse-CDF path (ambient != 3)
    d = SphereCapDescriptor(center=(0.0, 0.0, 0.0, 1.0), radius=0.4)
    pts = Sampler(space, d, 0).draw(200)
    center = np.array([0.0, 0.0, 0.0, 1.0])
    dists = [2 * np.arcsin(min(1.0, np.linalg.norm(p.data - center) / 2)) for p in pts]
    assert max(dists) <= 0.4 + 1e-12


def test_narrow_cap_on_s9_is_drawn_exactly():
    # uniform proposals on S^9 land in this cap with probability ~1e-10
    radius, center = 0.1, np.eye(10)[-1]
    pts = Sampler(SphereSpace(10), SphereCapDescriptor(tuple(center), radius), 9).draw(10_000)
    theta = 2.0 * np.arcsin(np.minimum(1.0, np.linalg.norm(pts.data - center, axis=1) / 2.0))
    assert theta.max() <= radius + 1e-12
    # the colatitude follows the uniform law's, truncated to the cap:
    # (1 - cos theta) / 2 = sin(theta / 2)^2 is Beta(9/2, 9/2) below sin(r/2)^2
    top = special.betainc(4.5, 4.5, np.sin(radius / 2.0) ** 2)
    law = stats.kstest(theta, lambda t: special.betainc(4.5, 4.5, np.sin(t / 2.0) ** 2) / top)
    assert law.pvalue > 1e-3
    # and the direction is uniform about the center
    tangent = pts.data[:, :-1] / np.linalg.norm(pts.data[:, :-1], axis=1, keepdims=True)
    assert np.linalg.norm(tangent.mean(axis=0)) < 0.05


# ---------------------------------------------------------------------------
# closed-form population means


def test_population_means():
    s = euclid_sampler()
    assert np.allclose(s.population_mean().data, [0.5, -1.0])

    sph = SphereSpace(3)
    cap = Sampler(sph, SphereCapDescriptor(center=(0, 0, 1.0), radius=0.3), 0)
    assert np.allclose(cap.population_mean().data, [0, 0, 1])

    two = Sampler(
        sph, SphereTwoPointDescriptor(a=(1.0, 0, 0), b=(0, 1.0, 0)), 0
    )
    mid = two.population_mean()
    assert np.allclose(mid.data, np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    from frechetstats.geometry import sphere_point

    assert sph.distance_many(mid, sphere_point((1.0, 0, 0)))[0] == pytest.approx(
        sph.distance_many(mid, sphere_point((0, 1.0, 0)))[0], abs=1e-12
    )

    spd = SPDSpace(3, "log_euclidean")
    mlog = np.diag([0.5, 0.0, -0.5])
    lg = Sampler(spd, SPDLogGaussianDescriptor(mean_log=tuple(map(tuple, mlog)), scale=0.1), 0)
    assert np.allclose(lg.population_mean().data, spd_expm(mlog), atol=1e-12)

    with pytest.raises(InvalidDescriptor):
        Sampler(
            SPDSpace(3, "euclidean"),
            SPDLogGaussianDescriptor(mean_log=tuple(map(tuple, mlog)), scale=0.1),
            0,
        ).population_mean()


def test_openbook_population_moments():
    space = OpenBookSpace(3, 2)
    d = OpenBookDescriptor(
        leaf_probs=(0.5, 0.25, 0.25),
        x0=("exponential", 1.0),
        spine_mean=(1.0, -1.0),
        spine_sd=1.0,
    )
    m = d.population_folded_means(space)
    assert np.allclose(m, [0.0, -0.5, -0.5])
    # folded second moment of exp(1) is 2 on every leaf, so var = 2 - m^2
    assert d.population_folded_variance(space, 1) == pytest.approx(2.0)
    assert d.population_folded_variance(space, 2) == pytest.approx(2.0 - 0.25)
    mu = d.population_mean(space)
    assert mu.leaves.tolist() == [0] and np.allclose(mu.data, [0.0, 1.0, -1.0])

    d2 = OpenBookDescriptor(
        leaf_probs=(0.6, 0.2, 0.2), x0=("constant", 1.0), spine_mean=(0.0, 0.0)
    )
    assert np.allclose(d2.population_folded_means(space), [0.2, -0.6, -0.6])
    mu2 = d2.population_mean(space)
    assert mu2.leaves.tolist() == [1] and mu2.data[0, 0] == pytest.approx(0.2)

    d3 = OpenBookDescriptor(
        leaf_probs=(0.5, 0.5), x0=("half_gaussian", 2.0), spine_mean=()
    )
    m3 = d3.population_folded_means(OpenBookSpace(2, 0))
    assert np.allclose(m3, [0.0, 0.0])


def test_empirical_folded_means_match_population():
    space = OpenBookSpace(3, 1)
    d = OpenBookDescriptor(
        leaf_probs=(0.5, 0.3, 0.1), x0=("half_gaussian", 1.5), spine_mean=(0.0,)
    )
    sampler = Sampler(space, d, 99)
    from frechetstats.spaces import openbook_moments

    mom = openbook_moments(sampler.draw(40_000), 3)
    assert np.allclose(mom.folded_means, d.population_folded_means(space), atol=0.03)
    assert mom.spine_fraction == pytest.approx(0.1, abs=0.01)


# ---------------------------------------------------------------------------
# Monte Carlo experiments (fast smoke versions; full runs are acceptance)


def test_mc_coverage_euclidean_rough_band():
    rep = mc_coverage(euclid_sampler(7), n=100, reps=300, alpha=0.05)
    assert 0.90 <= rep.estimate <= 0.99
    assert rep.failures == 0
    assert rep.std_error == pytest.approx(
        np.sqrt(rep.estimate * (1 - rep.estimate) / 300), abs=1e-12
    )


def test_mc_coverage_alpha_half():
    rep = mc_coverage(euclid_sampler(11), n=200, reps=400, alpha=0.5)
    assert abs(rep.estimate - 0.5) < 0.09


def test_mc_coverage_numeric_matches_analytic_outcomes():
    a = mc_coverage(euclid_sampler(3), n=60, reps=200, alpha=0.05, derivatives="auto")
    b = mc_coverage(euclid_sampler(3), n=60, reps=200, alpha=0.05, derivatives="numeric")
    assert a.outcomes == b.outcomes


def test_mc_type1_reports_df():
    spd = SPDSpace(3, "log_euclidean")
    d = SPDLogGaussianDescriptor(mean_log=((0.0, 0, 0), (0, 0.0, 0), (0, 0, 0.0)), scale=0.2)
    rep = mc_type1(spd, Sampler(spd, d, 5), n1=40, n2=40, reps=100, alpha=0.05)
    assert rep.details["df"] == {6: 100}
    assert 0.0 <= rep.estimate <= 0.2
    # on the open book a test has D df at a spine pooled mean, D + 1 on a leaf
    book = book_sampler(5)
    rep = mc_type1(book.space, book, n1=40, n2=40, reps=100, alpha=0.05)
    assert set(rep.details["df"]) == {2, 3} and sum(rep.details["df"].values()) == 100


def test_mc_stickiness_fractions_sum_to_one():
    space = OpenBookSpace(3, 2)
    d = OpenBookDescriptor(
        leaf_probs=(0.45, 0.3, 0.25), x0=("exponential", 1.0), spine_mean=(0.0, 0.0)
    )
    rep = mc_stickiness(Sampler(space, d, 2), n=60, reps=100)
    assert sum(rep.details["fractions"].values()) == pytest.approx(1.0)
    assert len(rep.details["mean_x0"]) == 100


def test_mc_consistency_point_mass_has_zero_error():
    sph = SphereSpace(3)
    cap = Sampler(sph, SphereCapDescriptor(center=(0, 0, 1.0), radius=0.0), 0)
    table = mc_consistency(sph, cap, [50, 500], reps=5)
    assert all(err == 0.0 for _, err in table)


def test_failure_budget_enforced():
    failed = [(rep, "NoConvergence", "newton exhausted") for rep in range(25)]
    with pytest.raises(FrechetStatsError):
        _check_failures(failed, reps=100, experiment="unit")
    _check_failures(failed[:1], reps=200, experiment="unit")


@pytest.mark.parametrize(
    "run, message",
    [
        pytest.param(lambda: mc_coverage(euclid_sampler(), 0, 10, 0.05), "n must be >= 1",
                     id="coverage-n"),
        pytest.param(lambda: mc_coverage(euclid_sampler(), 10, 0, 0.05), "reps must be >= 1",
                     id="coverage-reps"),
        pytest.param(lambda: mc_coverage(euclid_sampler(), 10, 10, 0.0), r"alpha must lie in",
                     id="coverage-alpha"),
        pytest.param(lambda: mc_coverage(euclid_sampler(), 20, 10, 0.05, derivatives="bogus"),
                     "unknown derivatives mode 'bogus'", id="coverage-derivatives"),
        pytest.param(lambda: mc_stickiness(book_sampler(0), 0, 10), "n must be >= 1",
                     id="stickiness-n"),
        pytest.param(lambda: mc_stickiness(book_sampler(0), 10, 0), "reps must be >= 1",
                     id="stickiness-reps"),
        pytest.param(lambda: mc_type1(EuclideanSpace(2), euclid_sampler(), 10, 10, 10, 1.5),
                     r"alpha must lie in", id="type1-alpha"),
        pytest.param(lambda: mc_type1(EuclideanSpace(2), euclid_sampler(), 1, 10, 10, 0.05),
                     "n1 must be >= 2", id="type1-n1"),
        pytest.param(lambda: mc_type1(EuclideanSpace(2), euclid_sampler(), 10, 1, 10, 0.05),
                     "n2 must be >= 2", id="type1-n2"),
        pytest.param(lambda: mc_consistency(EuclideanSpace(2), euclid_sampler(), [], 10),
                     "n_grid names no sample size", id="consistency-empty-grid"),
        pytest.param(lambda: mc_consistency(EuclideanSpace(2), euclid_sampler(), [20, 0], 10),
                     "n must be >= 1", id="consistency-grid-entry"),
        pytest.param(lambda: mc_consistency(EuclideanSpace(2), euclid_sampler(), [20], 0),
                     "reps must be >= 1", id="consistency-reps"),
        # sizes and counts that are not integers
        pytest.param(lambda: mc_coverage(euclid_sampler(), 10.5, 20, 0.05),
                     "n must be an integer, got 10.5", id="coverage-float-n"),
        pytest.param(lambda: mc_coverage(euclid_sampler(), 10, 20.0, 0.05),
                     "reps must be an integer, got 20.0", id="coverage-float-reps"),
        pytest.param(lambda: mc_stickiness(book_sampler(0), True, 10),
                     "n must be an integer, got True", id="stickiness-bool-n"),
        pytest.param(lambda: mc_type1(EuclideanSpace(2), euclid_sampler(), 10, 10.5, 20, 0.05),
                     "n2 must be an integer, got 10.5", id="type1-float-n2"),
        pytest.param(lambda: mc_consistency(EuclideanSpace(2), euclid_sampler(), [10.7], 20),
                     "n must be an integer, got 10.7", id="consistency-float-grid"),
        pytest.param(lambda: mc_consistency(EuclideanSpace(2), euclid_sampler(), [10, 20.5], 20),
                     "n must be an integer, got 20.5", id="consistency-float-grid-entry"),
        # a sampler that is not a Sampler, a grid that is not a sequence
        pytest.param(lambda: mc_coverage(3.0, 10, 5, 0.05),
                     "^sampler must be a Sampler, got float$", id="coverage-sampler"),
        pytest.param(lambda: mc_stickiness(3.0, 10, 5), "^sampler must be a Sampler, got float$",
                     id="stickiness-sampler"),
        pytest.param(lambda: mc_type1(EuclideanSpace(2), None, 10, 10, 5, 0.05),
                     "^sampler must be a Sampler, got NoneType$", id="type1-sampler"),
        pytest.param(lambda: mc_consistency(EuclideanSpace(2), EuclideanSpace(2), [10], 5),
                     "^sampler must be a Sampler, got EuclideanSpace$", id="consistency-sampler"),
        pytest.param(lambda: mc_consistency(EuclideanSpace(2), euclid_sampler(), 10, 3),
                     "^n_grid must be an iterable of sample sizes, got 10$",
                     id="consistency-int-grid"),
    ],
)
def test_mc_arguments_are_refused_before_anything_is_drawn(run, message, monkeypatch):
    keys = record_streams(monkeypatch)
    with pytest.raises(InvalidDescriptor, match=message):
        run()
    assert keys == []


def test_mc_runs_take_numpy_integer_sizes():
    report = mc_coverage(euclid_sampler(3), np.int64(10), np.uint8(20), 0.05)
    assert report.outcomes == mc_coverage(euclid_sampler(3), 10, 20, 0.05).outcomes
    rows = mc_consistency(EuclideanSpace(2), euclid_sampler(3), [np.int32(10)], 5)
    assert rows == mc_consistency(EuclideanSpace(2), euclid_sampler(3), [10], 5)
    assert type(rows[0][0]) is int


def test_mc_reports_are_reproducible():
    a = mc_coverage(euclid_sampler(21), n=50, reps=100, alpha=0.05)
    b = mc_coverage(euclid_sampler(21), n=50, reps=100, alpha=0.05)
    assert a.estimate == b.estimate and a.outcomes == b.outcomes


# ---------------------------------------------------------------------------
# batched replications: the same outcomes, streams and failures as one fit
# per replication


MEAN_LOG = ((0.4, 0.05, 0.0), (0.05, 0.0, -0.02), (0.0, -0.02, -0.3))


def spd_sampler(seed, metric="log_euclidean", scale=0.15):
    return Sampler(SPDSpace(3, metric), SPDLogGaussianDescriptor(MEAN_LOG, scale), seed)


def euclid3_sampler(seed):
    cov = ((2.0, 0.3, 0.0), (0.3, 1.0, -0.2), (0.0, -0.2, 0.5))
    return Sampler(EuclideanSpace(3), GaussianDescriptor((1.0, -2.0, 0.5), cov), seed)


def book_sampler(seed, probs=(0.5, 0.25, 0.25)):
    return Sampler(
        OpenBookSpace(3, 2), OpenBookDescriptor(probs, ("exponential", 1.0), (0.0, 0.0)), seed
    )


# the open book's regimes: population mean on the spine, on leaf 1, and at
# the boundary (means on the spine and on leaves)
spine_book_sampler = functools.partial(book_sampler, probs=(0.3, 0.3, 0.3))
leaf_book_sampler = functools.partial(book_sampler, probs=(0.6, 0.2, 0.2))
boundary_book_sampler = book_sampler


def spineless_book_sampler(seed):
    # D = 0: a mean on the spine is pinned, in a zero-dimensional chart
    return Sampler(OpenBookSpace(3, 0), OpenBookDescriptor((0.5, 0.25, 0.25)), seed)


def record_streams(monkeypatch):
    keys = []
    rng = Sampler.rng

    def logged(sampler, rep=0, streams=None):
        keys.append(rep)
        return rng(sampler, rep, streams)

    monkeypatch.setattr(Sampler, "rng", logged)
    return keys


def fitted_replications(monkeypatch, space):
    """The replications of every later ``mean_many`` call on ``space``'s
    class, as a list: they sum to an experiment's replications when it fits
    each of them once, and no replication runs again."""
    fitted = []
    mean_many = type(space).mean_many

    def counted(self, sample, reps, **kwargs):
        fitted.append(reps)
        return mean_many(self, sample, reps, **kwargs)

    monkeypatch.setattr(type(space), "mean_many", counted)
    return fitted


def single_coverage(sampler, n, reps, alpha, derivatives="auto"):
    truth = sampler.population_mean()
    out = []
    for rep in range(reps):
        sample = sampler.draw(n, rep)
        fit = sandwich_covariance(sampler.space, sample, estimate_mean(sampler.space, sample),
                                  derivatives=derivatives)
        try:
            candidate = fit.chart.forward_many(truth)[0]
        except (CutLocus, InvalidPoint):
            out.append(False)
            continue
        out.append(bool(confidence_region_contains(fit, candidate, alpha)))
    return tuple(out)


def cap_sampler(seed, metric="intrinsic", radius=0.5):
    return Sampler(SphereSpace(3, metric), SphereCapDescriptor((0.0, 0.0, 1.0), radius), seed)


def chordal_cap_sampler(seed):
    return cap_sampler(seed, "extrinsic", 1.2)


def wide_cap_sampler(seed):
    return cap_sampler(seed, radius=1.5)


def wide_chordal_cap_sampler(seed):
    # at seed 31 and n = 200, 10 of 45 means have the truth outside the
    # open hemisphere of their chart: one block holds hits, misses and those
    return cap_sampler(seed, "extrinsic", 2.7)


@pytest.mark.parametrize(
    "make, derivatives, n, block_points",
    [
        pytest.param(spd_sampler, "auto", 200, 2048, id="spd_sampler"),
        pytest.param(spd_sampler, "numeric", 200, 2048, id="spd_sampler-numeric"),
        pytest.param(euclid3_sampler, "auto", 200, 2048, id="euclid3_sampler"),
        pytest.param(cap_sampler, "auto", 200, 2048, id="cap_sampler"),
        pytest.param(cap_sampler, "numeric", 200, 2048, id="cap_sampler-numeric"),
        # the default blocks: block-mates leave a replication's outcome alone
        pytest.param(cap_sampler, "numeric", 400, None, id="cap_sampler-numeric-default_blocks"),
        pytest.param(wide_cap_sampler, "auto", 200, 2048, id="wide_cap_sampler"),
        pytest.param(chordal_cap_sampler, "auto", 200, 2048, id="chordal_cap_sampler"),
        pytest.param(chordal_cap_sampler, "numeric", 200, 2048, id="chordal_cap_sampler-numeric"),
        pytest.param(wide_chordal_cap_sampler, "auto", 200, 2048, id="wide_chordal_cap_sampler"),
        pytest.param(spine_book_sampler, "auto", 200, 2048, id="spine_book_sampler"),
        pytest.param(leaf_book_sampler, "auto", 200, 2048, id="leaf_book_sampler"),
        pytest.param(boundary_book_sampler, "auto", 200, 2048, id="boundary_book_sampler"),
        pytest.param(boundary_book_sampler, "numeric", 200, 2048,
                     id="boundary_book_sampler-numeric"),
        pytest.param(spineless_book_sampler, "auto", 200, 2048, id="spineless_book_sampler"),
    ],
)
def test_batched_coverage_matches_single_fits(make, derivatives, n, block_points, monkeypatch):
    if block_points is not None:
        monkeypatch.setattr(simulate, "BLOCK_POINTS", block_points)
    reps, alpha = 45, 0.2
    assert reps * n > 2 * simulate.BLOCK_POINTS  # several blocks
    expected = single_coverage(make(31), n, reps, alpha, derivatives)
    assert not all(expected)  # misses as well as hits
    keys = record_streams(monkeypatch)
    sampler = make(31)
    fitted = fitted_replications(monkeypatch, sampler.space)
    report = mc_coverage(sampler, n, reps, alpha, derivatives=derivatives)
    assert report.outcomes == expected
    assert keys == list(range(reps))
    assert sum(fitted) == reps


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(spd_sampler, id="log_euclidean"),
        pytest.param(functools.partial(spd_sampler, metric="euclidean"), id="euclidean"),
        pytest.param(cap_sampler, id="geodesic_cap"),
        pytest.param(chordal_cap_sampler, id="chordal_cap"),
        pytest.param(spine_book_sampler, id="spine_book"),
        pytest.param(leaf_book_sampler, id="leaf_book"),
        pytest.param(boundary_book_sampler, id="boundary_book"),
    ],
)
def test_batched_type1_matches_single_tests(make, monkeypatch):
    monkeypatch.setattr(simulate, "BLOCK_POINTS", 2048)
    reps, n1, n2 = 45, 100, 90
    assert reps * (n1 + n2) > 2 * simulate.BLOCK_POINTS  # several blocks
    sampler = make(32)
    expected = tuple(
        two_sample_test(sampler.space, sampler.draw(n1, (r, 0)), sampler.draw(n2, (r, 1))).p_value
        <= 0.2
        for r in range(reps)
    )
    assert any(expected) and not all(expected)  # rejections as well as acceptances
    keys = record_streams(monkeypatch)
    fitted = fitted_replications(monkeypatch, sampler.space)
    report = mc_type1(sampler.space, sampler, n1, n2, reps, 0.2)
    assert report.outcomes == expected
    assert keys == [(r, g) for r in range(reps) for g in (0, 1)]
    assert sum(fitted) == reps


def test_batched_stickiness_matches_single_means(monkeypatch):
    reps, n = 45, 200
    sampler = book_sampler(33)
    means = [sampler.space.mean(sampler.draw(n, rep))[0] for rep in range(reps)]
    keys = record_streams(monkeypatch)
    report = mc_stickiness(sampler, n, reps)
    leaves = [m.leaves[0] for m in means]
    assert report.outcomes == tuple("spine" if leaf == 0 else f"leaf_{leaf}" for leaf in leaves)
    np.testing.assert_allclose(
        report.details["mean_x0"], [m.data[0, 0] for m in means], rtol=1e-12, atol=1e-15
    )
    assert keys == list(range(reps))


def chordal_two_point_sampler(seed):
    return Sampler(
        SphereSpace(3, "extrinsic"), SphereTwoPointDescriptor((1.0, 0.0, 0.0), (0.0, 0.6, 0.8)), seed
    )


@pytest.mark.parametrize(
    "make", [spd_sampler, euclid3_sampler, book_sampler, cap_sampler, chordal_two_point_sampler]
)
def test_batched_consistency_matches_single_fits(make, monkeypatch):
    monkeypatch.setattr(simulate, "BLOCK_POINTS", 2048)
    sampler = make(34)
    grid, reps = [20, 500], 20
    assert reps * grid[1] > 2 * simulate.BLOCK_POINTS  # several blocks
    expected = [
        (n, float(np.median([
            sampler.space.distance_many(estimate_mean(sampler.space, sampler.draw(n, (n, r))).mean,
                                        sampler.population_mean())[0]
            for r in range(reps)
        ])))
        for n in grid
    ]
    keys = record_streams(monkeypatch)
    fitted = fitted_replications(monkeypatch, sampler.space)
    assert mc_consistency(sampler.space, sampler, grid, reps) == expected  # exact
    assert keys == [(n, r) for n in grid for r in range(reps)]
    assert sum(fitted) == reps * len(grid)


def test_draw_many_rows_match_single_draws():
    samplers = [
        euclid3_sampler(1),
        spd_sampler(2),
        book_sampler(3),
        Sampler(SphereSpace(3), SphereCapDescriptor((0.0, 0.0, 1.0), 0.5), 4),
        Sampler(SphereSpace(4), SphereCapDescriptor((0.0, 0.0, 0.0, 1.0), 0.4), 5),
        Sampler(SphereSpace(3), SphereTwoPointDescriptor((1.0, 0.0, 0.0), (0.0, 0.6, 0.8)), 6),
    ]
    for sampler in samplers:
        keys = [0, (1, 0), (1, 1), 7]
        sizes = [13, 8, 21, 1]
        block = sampler.draw_many(sizes, keys)
        start = 0
        for key, size in zip(keys, sizes):
            one = sampler.draw(size, key)
            assert np.array_equal(block.data[start:start + size], one.data)
            if one.leaves is not None:
                assert np.array_equal(block.leaves[start:start + size], one.leaves)
            start += size
        assert len(block) == start


class AntipodalTruthCap(SphereCapDescriptor):
    """A cap whose stated population mean is the antipode of its center."""

    def population_mean(self, space):
        return sphere_point(-np.asarray(self.center, dtype=float))


@pytest.mark.parametrize("metric, radius", [("intrinsic", 0.0), ("extrinsic", 0.3)])
def test_truth_at_the_cut_locus_is_a_miss(metric, radius):
    # the truth is the antipode of the cap's center: at the cut locus of a
    # geodesic chart at the center, and in the far hemisphere of a chordal
    # chart at a mean near it, outside both charts' domains
    sampler = Sampler(SphereSpace(3, metric), AntipodalTruthCap((0.0, 0.0, 1.0), radius), 40)
    expected = single_coverage(sampler, 5, 12, 0.05)
    report = mc_coverage(sampler, 5, 12, 0.05)
    assert report.outcomes == expected == (False,) * 12
    assert report.failures == 0


def test_failed_block_falls_back_to_single_fits():
    # log-scale 6: some matrices have an eigenvalue ratio below 1e-14, so
    # some replications of the batched block fail with NotPositiveDefinite
    sampler = spd_sampler(35, scale=6.0)
    for derivatives in ("auto", "numeric"):
        failed = []
        for rep in range(40):
            sample = sampler.draw(10, rep)
            try:
                sandwich_covariance(sampler.space, sample, estimate_mean(sampler.space, sample),
                                    derivatives=derivatives)
            except FrechetStatsError as exc:
                failed.append((rep, type(exc).__name__))
        assert failed == [(rep, "NotPositiveDefinite") for rep in (2, 4, 10, 29, 31, 36)]
        with pytest.raises(FrechetStatsError) as batched:
            mc_coverage(sampler, 10, 40, 0.05, derivatives=derivatives)
        assert str(batched.value) == (
            "mc_coverage: 6/40 replications failed (budget 1%): NotPositiveDefinite x6; "
            "first failed keys 2, 4, 10, 29, 31, ..."
        )


def test_block_spending_the_iteration_budget_falls_back_to_single_fits(newton_budget):
    # with an iteration budget of 1 for the block and the single fits, some
    # Newton replications spend it; the block and estimate_mean share the
    # Newton mean's rule, so the same ones fail
    newton_budget(1)
    sampler = cap_sampler(37)
    space = sampler.space
    failed = []
    for r in range(10):
        try:
            estimate_mean(space, sampler.draw(30, (30, r)))
        except NoConvergence:
            failed.append((30, r))
    assert 0 < len(failed) < 10
    with pytest.raises(FrechetStatsError) as batched:
        mc_consistency(space, sampler, [30], 10)
    keys = ", ".join(map(str, failed[:5])) + (", ..." if len(failed) > 5 else "")
    assert str(batched.value) == (
        f"mc_consistency: {len(failed)}/10 replications failed (budget 1%): "
        f"NoConvergence x{len(failed)}; first failed keys {keys}"
    )


@pytest.mark.filterwarnings("error")
def test_consistency_checks_the_budget_before_an_empty_median(newton_budget):
    # an iteration budget of 0 fails every replication of n = 30: the
    # failure-budget error comes before any median of no errors is taken
    newton_budget(0)
    sampler = cap_sampler(37)
    space = sampler.space
    with pytest.raises(FrechetStatsError) as failed:
        mc_consistency(space, sampler, [30], 10)
    assert str(failed.value) == (
        "mc_consistency: 10/10 replications failed (budget 1%): NoConvergence x10; "
        "first failed keys (30, 0), (30, 1), (30, 2), (30, 3), (30, 4), ..."
    )


def test_coverage_counts_a_singular_region_as_a_replication_failure():
    # n = 1: every sandwich covariance is 0, so no region can be tested
    with pytest.raises(FrechetStatsError, match=r"^mc_coverage: 10/10 replications failed "
                       r"\(budget 1%\): NearSingularCovariance x10; first failed keys 0, 1, 2"):
        mc_coverage(euclid_sampler(39), 1, 10, 0.05)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(spine_book_sampler, id="spine"),
        pytest.param(leaf_book_sampler, id="leaf"),
        pytest.param(boundary_book_sampler, id="boundary"),
    ],
)
def test_openbook_type1_tests_every_regime(make):
    # a pooled mean on the spine tests the spine coordinates of every point,
    # leaf points included, so no replication fails
    sampler = make(38)
    report = mc_type1(sampler.space, sampler, 100, 100, 200, 0.05)
    assert report.failures == 0 and len(report.outcomes) == 200
    assert report.estimate <= 0.15


def test_chordal_type1_tests_samples_past_the_pooled_means_hemisphere():
    # a cap of radius 2.8 reaches far beyond the open hemisphere of its
    # mean: the test compares every point's tangent projection
    sampler = cap_sampler(38, "extrinsic", 2.8)
    report = mc_type1(sampler.space, sampler, 100, 100, 100, 0.05)
    assert report.failures == 0 and len(report.outcomes) == 100
    assert report.estimate <= 0.15


def test_openbook_charts_stack_by_stratum():
    space = OpenBookSpace(3, 2)
    spine = openbook_sample([0, 0], [[0.0, 1.0, 2.0], [0.0, -1.0, 0.5]])
    leaves = openbook_sample([1, 3], [[0.5, 1.0, 2.0], [0.2, -1.0, 0.5]])
    sample = book_sampler(39).draw(10)
    block = Sample.join([sample, sample])
    for bases in (spine, leaves):
        stacked = space.chart_at(bases)
        packed = stacked.pack(block).reshape(2, 10, -1)
        for r in range(2):
            single = space.chart_at(bases[r])
            assert np.array_equal(packed[r], single.pack(sample))
            assert np.array_equal(stacked.test_images(block)[10 * r : 10 * (r + 1)],
                                  single.test_images(sample))
    with pytest.raises(InvalidPoint, match="different strata"):
        space.chart_at(Sample.join([spine, leaves]))


def test_failure_budget_error_quotes_classes_and_keys(monkeypatch):
    sampler = Sampler(SphereSpace(3), SphereCapDescriptor((0.0, 0.0, 1.0), 0.5), 36)
    tests = simulate.two_sample_tests
    rows = {Sample.join([sampler.draw(20, (r, 0)), sampler.draw(20, (r, 1))]).data.tobytes(): r
            for r in range(100)}
    failing = {3, 11}

    def two_sample_tests(chart, block, reps, n1):
        # the replications of ``failing`` fail, those of one call in one
        # raise that masks them and names the first
        keys = [rows[group.tobytes()] for group in block.data.reshape(reps, -1, 3)]
        refused = np.isin(keys, list(failing))
        if refused.any():
            raise NearSingularCovariance(f"singular at {keys[np.argmax(refused)]}", refused)
        return tests(chart, block, reps, n1)

    monkeypatch.setattr(simulate, "two_sample_tests", two_sample_tests)
    with pytest.raises(FrechetStatsError, match=r"^mc_type1: 2/50 replications failed "
                       r"\(budget 1%\): NearSingularCovariance x2; first failed keys 3, 11$"):
        mc_type1(sampler.space, sampler, 20, 20, 50, 0.05)
    failing = {5}
    report = mc_type1(sampler.space, sampler, 20, 20, 100, 0.05)
    assert report.failures == 1
    assert report.details["failure_counts"] == {"NearSingularCovariance": 1}
    assert report.details["failed_reps"] == ((5, "NearSingularCovariance", "singular at 5"),)


@pytest.mark.parametrize("failing", [1, 7, 40])
def test_a_failing_block_runs_its_block_function_again_once(failing):
    # one raise refuses ``failing`` replications: the block function runs
    # twice whatever their number, and the others keep their outcomes
    sampler = euclid3_sampler(46)
    keys = list(range(60))
    block = sampler.draw_many(10, keys)
    firsts = sampler.space.mean_many(block, len(keys))[0].data[:, 0]
    limit = np.sort(firsts)[failing - 1]
    calls = []

    def batched(block, means):
        calls.append(len(means))
        refused = means.data[:, 0] <= limit
        if refused.any():
            raise NearSingularCovariance("refused", refused)
        return means.data[:, 0].tolist()

    failed = []
    out = simulate._outcomes(sampler.space, keys, block, batched, failed)
    assert calls == [60, 60 - failing]
    assert out == firsts[firsts > limit].tolist()
    assert failed == [(key, "NearSingularCovariance", "refused")
                      for key in keys if firsts[key] <= limit]


def test_a_non_finite_mean_fails_its_replication_and_a_non_finite_draw_aborts():
    # a block built unvalidated (the Sample constructor) with an infinite entry in
    # replication 2: its mean is refused, masked, and only it fails
    sampler = euclid3_sampler(47)
    keys = list(range(6))
    rows = sampler.draw_many(10, keys).data.copy()
    rows[25, 1] = np.inf
    failed = []
    out = simulate._outcomes(sampler.space, keys, Sample("euclidean", rows),
                             lambda block, means: means.data[:, 0].tolist(), failed)
    assert len(out) == 5
    assert failed == [(2, "InvalidPoint", "point payload contains non-finite entries")]
    # a draw is validated before its block runs: a non-finite one aborts
    with pytest.raises(InvalidPoint, match="non-finite"):
        mc_coverage(Sampler(EuclideanSpace(1), GaussianDescriptor(mean=(np.inf,), cov=1.0), 0),
                    5, 4, 0.05)


def test_a_failing_spd_block_is_fitted_at_most_twice(monkeypatch):
    # log-scale 6: 6 of 40 replications have a near-singular matrix; the
    # block's means are taken twice, and its sandwiches once
    sampler = spd_sampler(35, scale=6.0)
    fitted = fitted_replications(monkeypatch, sampler.space)
    sandwiches = []
    stacked = simulate.stacked_sandwich

    def counted(*args, **kwargs):
        sandwiches.append(len(args[1]))
        return stacked(*args, **kwargs)

    monkeypatch.setattr(simulate, "stacked_sandwich", counted)
    monkeypatch.setattr(simulate, "FAILURE_BUDGET", 0.5)
    report = mc_coverage(sampler, 10, 40, 0.05)
    assert report.failures == 6
    assert fitted == [40, 34] and sandwiches == [34]


def fail_at_mean(monkeypatch, space, mean):
    """Make every chart at ``mean`` (alone or among other bases) raise
    NearSingularHessian masking it, which fails the one replication whose
    mean it is."""
    chart_at = space.chart_at

    def failing(base):
        at_mean = np.all(np.isclose(np.atleast_2d(base.data), mean.data, rtol=0.0, atol=1e-9),
                         axis=1)
        if at_mean.any():
            raise NearSingularHessian("forced at one replication's mean", at_mean)
        return chart_at(base)

    monkeypatch.setattr(space, "chart_at", failing)


@pytest.mark.parametrize("experiment", ["coverage", "type1"])
def test_a_failing_block_keeps_the_outcomes_of_its_other_replications(experiment, monkeypatch):
    monkeypatch.setattr(simulate, "BLOCK_POINTS", 2048)
    reps, target = 100, 23
    if experiment == "coverage":
        sampler = cap_sampler(45)
        run = functools.partial(mc_coverage, sampler, 200, reps, 0.2)
        target_sample = sampler.draw(200, target)
    else:
        sampler = boundary_book_sampler(45)
        run = functools.partial(mc_type1, sampler.space, sampler, 100, 90, reps, 0.2)
        target_sample = Sample.join([sampler.draw(100, (target, 0)), sampler.draw(90, (target, 1))])
    expected = run()
    assert expected.failures == 0 and len(set(expected.outcomes)) == 2
    fail_at_mean(monkeypatch, sampler.space, sampler.space.mean(target_sample)[0])
    report = run()
    assert report.outcomes == expected.outcomes[:target] + expected.outcomes[target + 1:]
    assert report.details["failed_reps"] == (
        (target, "NearSingularHessian", "forced at one replication's mean"),
    )


# ---------------------------------------------------------------------------
# log-Gaussian SPD draws keep their matrix logs


def test_spd_blocks_take_the_log_of_no_drawn_matrix(monkeypatch):
    calls = count_logm(monkeypatch)
    sampler = Sampler(SPDSpace(3, "log_euclidean"),
                      SPDLogGaussianDescriptor(np.diag([0.3, 0.0, -0.2]), 0.3), 41)
    n, reps = 20, 150
    assert mc_coverage(sampler, n, reps, 0.05).failures == 0
    # the draws, their means and the truth all keep their logs
    assert calls == []
    calls.clear()
    assert mc_type1(sampler.space, sampler, 10, 12, reps, 0.05).failures == 0
    assert calls == []  # the global chart maps the drawn logs, not the means


def test_spd_draws_too_close_to_singular_still_fail_the_log_guard():
    # log-eigenvalues spread about 33.5 > ln(1e14): the draws keep no logs,
    # and spd_logm refuses every drawn sample
    sampler = Sampler(SPDSpace(3, "log_euclidean"),
                      SPDLogGaussianDescriptor(np.diag([17.0, 0.0, -16.5]), 0.3), 42)
    with pytest.raises(FrechetStatsError, match=r"^mc_coverage: 30/30 replications failed "
                       r"\(budget 1%\): NotPositiveDefinite x30; first failed keys 0, 1, 2"):
        mc_coverage(sampler, 10, 30, 0.05)


# ---------------------------------------------------------------------------
# streams: each key's SeedSequence stream, opened through Sampler.rng


def test_sampler_rng_alone_is_an_independent_seed_sequence_stream():
    sampler = Sampler(EuclideanSpace(2), GaussianDescriptor((0.0, 0.0)), 11)
    first, second = sampler.rng(4), sampler.rng((4, 1))
    assert first is not second
    a = first.standard_normal(5)
    b = second.standard_normal(5)
    assert np.array_equal(a, seed_sequence_stream(11, 4).standard_normal(5))
    assert np.array_equal(b, seed_sequence_stream(11, (4, 1)).standard_normal(5))
    assert np.array_equal(sampler.rng().random(3), seed_sequence_stream(11, 0).random(3))


def test_draw_many_draws_each_key_from_its_seed_sequence_stream():
    # identity covariance: the rows are the standard normals themselves
    sampler = Sampler(EuclideanSpace(3), GaussianDescriptor((0.0, 0.0, 0.0)), 21)
    keys, sizes = [5, (5, 0), (5, 1), 2**33, 5], [4, 1, 6, 3, 2]
    block = sampler.draw_many(sizes, keys)
    expected = [seed_sequence_stream(21, key).standard_normal((size, 3))
                for key, size in zip(keys, sizes)]
    assert np.array_equal(block.data, np.concatenate(expected))


_MEAN_LOG = ((0.4, 0.1, 0.0), (0.1, -0.2, 0.05), (0.0, 0.05, 0.3))

#: a sampler of every descriptor family (and of each branch of one), with
#: the sha256 of the bytes of its ``draw_many(DRAW_SIZES, DRAW_KEYS)``: the
#: data, an open book's leaves, and an SPD draw's not-kept mask and logs
DRAWS = {
    "gaussian": (lambda: Sampler(EuclideanSpace(3), GaussianDescriptor(
        (1.0, -2.0, 0.5), ((2.0, 0.3, 0.0), (0.3, 1.0, -0.2), (0.0, -0.2, 0.5))), 3),
        "efff855c8a4c40d93fbebdf1d931d05fabad4d9623eaef82ec60db8433a0b51d"),
    "spd": (lambda: Sampler(SPDSpace(3), SPDLogGaussianDescriptor(_MEAN_LOG, 0.15), 4),
            "78ab64723d9f86bbcf51c6d2869e942091b9c4873de9a09b3cbf0ac8a0f8e8c6"),
    # log scale 6: 7 of the 356 logs spread wider than KEPT_LOG_SPREAD
    "spd_wide": (lambda: Sampler(SPDSpace(3), SPDLogGaussianDescriptor(_MEAN_LOG, 6.0), 5),
                 "90a1afd7e37c93d978a2f827c655f103e4d40ebf5893c22eb4b5597622a374ed"),
    "spd_p2": (lambda: Sampler(SPDSpace(2, "euclidean"),
                               SPDLogGaussianDescriptor(((0.2, 0.1), (0.1, 0.0)), 0.5), 6),
               "8f29b185b103273f2b26e78a31d805ce23825b7dda535386429ae5228cd995df"),
    "cap_s2": (lambda: Sampler(SphereSpace(3), SphereCapDescriptor((0.0, 0.6, 0.8), 0.9), 7),
               "49e96f2aa6eb06a215e891b0602fd276da36ad13a66c1bf23fd0e28290e4cde5"),
    "cap_s4": (lambda: Sampler(SphereSpace(5),
                               SphereCapDescriptor((0.0, 0.0, 0.0, 0.6, 0.8), 1.3), 8),
               "9b6a625488ddd8eb37036a911bbfbbe31940ccba94e98b91bdcf19a83fdf85b8"),
    "cap_point": (lambda: Sampler(SphereSpace(3), SphereCapDescriptor((0.0, 0.0, 1.0), 0.0), 9),
                  "a1a82990740c037724651d068a9459546400597c11ecbddf41ccb62c5127fb2d"),
    "two_point": (lambda: Sampler(SphereSpace(3), SphereTwoPointDescriptor(
        (1.0, 0.0, 0.0), (0.0, 0.6, 0.8)), 10),
        "d02d462256389de5852509e59a23e064dbd190ae597799cff1d30983730fd4d4"),
    "book_exponential": (lambda: Sampler(OpenBookSpace(3, 2), OpenBookDescriptor(
        (0.5, 0.25, 0.25), ("exponential", 1.5), (0.5, -1.0), 0.7), 11),
        "b87d464ef4ded18d0c2ac26bd2b64b18e5eb6578bf9e064e53fb3481ac5405af"),
    "book_half_gaussian": (lambda: Sampler(OpenBookSpace(2, 1), OpenBookDescriptor(
        (0.3, 0.7), ("half_gaussian", 0.8), (0.2,)), 12),
        "3095112a22ca31889b274f8f55dd0a337edfc8570aa56ef566190f1f2564e59c"),
    "book_constant": (lambda: Sampler(OpenBookSpace(3, 0), OpenBookDescriptor(
        (0.2, 0.5, 0.3), ("constant", 1.25)), 13),
        "9ae665e906dc9f167a53469e7793215df3ceb8eaaeca1264f4c72422a8dde6ff"),
    # 0.25 spine mass, a different height family on each leaf
    "book_spine_mass": (lambda: Sampler(OpenBookSpace(3, 2), OpenBookDescriptor(
        (0.3, 0.2, 0.25), (("exponential", 2.0), ("half_gaussian", 0.6), ("constant", 0.5)),
        (0.0, 1.0), 1.2), 14),
        "473631aedbcf7cfdf24ee25128e098449a870f7a4ec899dc171e304a84e9f16a"),
}
DRAW_KEYS, DRAW_SIZES = [0, (1, 0), (1, 1), 7, 2**33, 7], [37, 1, 250, 3, 64, 1]


@pytest.mark.parametrize("family", DRAWS)
def test_draw_many_keeps_the_bits_of_every_descriptor_family(family):
    make, expected = DRAWS[family]
    sample = make().draw_many(DRAW_SIZES, DRAW_KEYS)
    digest = hashlib.sha256(np.ascontiguousarray(sample.data).tobytes())
    if sample.leaves is not None:
        digest.update(np.ascontiguousarray(sample.leaves, dtype=np.int64).tobytes())
    if sample._logs is not None:
        assert sample._logs.flags.c_contiguous  # the layout later reductions read
        digest.update(np.isnan(sample._logs[:, 0, 0]).tobytes())
        digest.update(sample._logs.tobytes())
    assert digest.hexdigest() == expected


def test_draw_many_opens_its_streams_through_rng_in_key_order(monkeypatch):
    # the benchmark's stream log wraps Sampler.rng and reads its first argument
    seen = []
    rng = Sampler.rng

    def logged(sampler, *args, **kwargs):
        seen.append(args[0])
        return rng(sampler, *args, **kwargs)

    monkeypatch.setattr(Sampler, "rng", logged)
    keys = [(3, 0), (3, 0), (4, 0), (4, 1), 9]
    for family, (make, _) in DRAWS.items():  # every descriptor family
        seen.clear()
        make().draw_many(5, keys)
        assert seen == keys, family


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, np.float64(3.0), "3", None])
def test_sampler_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(InvalidDescriptor, match="seed must be a non-negative integer"):
        Sampler(EuclideanSpace(2), GaussianDescriptor((0.0, 0.0)), seed)


def test_sampler_takes_numpy_integer_seeds():
    sampler = Sampler(EuclideanSpace(2), GaussianDescriptor((0.0, 0.0)), np.uint64(2**63 + 3))
    assert np.array_equal(sampler.rng(1).random(4), seed_sequence_stream(2**63 + 3, 1).random(4))


@pytest.mark.parametrize("key", [-1, 1.5, True, (1, -2), (), (1, 2.0), [1, 2], "1"])
def test_draw_many_refuses_a_key_that_is_not_a_non_negative_integer(key):
    sampler = Sampler(EuclideanSpace(2), GaussianDescriptor((0.0, 0.0)), 1)
    with pytest.raises(InvalidDescriptor, match="stream key"):
        sampler.draw_many(3, [0, key])
    with pytest.raises(InvalidDescriptor, match="stream key"):
        sampler.rng(key)


def test_draw_many_names_bad_sizes_and_empty_keys():
    sampler = Sampler(EuclideanSpace(2), GaussianDescriptor((0.0, 0.0)), 1)
    with pytest.raises(InvalidDescriptor, match="n must be >= 1"):
        sampler.draw_many([3, 0], [0, 1])
    with pytest.raises(InvalidDescriptor, match="keys name no replication"):
        sampler.draw_many(3, [])
    with pytest.raises(InvalidDescriptor, match="3 sample sizes for 2 keys"):
        sampler.draw_many([3, 4, 5], [0, 1])
    for sizes in (2.5, [3, 2.0], True):
        with pytest.raises(InvalidDescriptor, match="sample sizes must be integers"):
            sampler.draw_many(sizes, [0, 1])
