import re

import numpy as np
import pytest

from frechetstats.errors import CutLocus, InvalidDescriptor, InvalidPoint, NonUniqueProjection
from frechetstats.errors import MixedSpacePoints, NotPositiveDefinite
from frechetstats.geometry import (
    Sample,
    as_sample,
    euclidean_point,
    euclidean_sample,
    frechet_values,
    openbook_point,
    openbook_sample,
    spd_point,
    spd_sample,
    sphere_point,
    sphere_sample,
)
from frechetstats.spaces import (
    EuclideanSpace,
    OpenBookSpace,
    SPDSpace,
    SphereSpace,
    openbook_classify,
    openbook_moments,
    spd_expm,
    spd_logm,
    spd_vech,
    spd_vech_inv,
    tangent_basis,
)
from frechetstats.estimator import estimate_mean
from frechetstats.spaces.spd import KEPT_LOG_SPREAD, _sample_logs, _spectral, _vech_inv_rows
from frechetstats.spaces.spd import _vech_rows, spd_exp_sample

from conftest import count_logm, positive_folded_means, random_openbook_sample, random_spd
from conftest import vech_matrices
from conftest import sphere_exp_point, sphere_exp_sample


# ---------------------------------------------------------------------------
# construction


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: EuclideanSpace(0), "dimension must be >= 1", id="euclidean-dim"),
    pytest.param(lambda: SphereSpace(1), "ambient dimension must be >= 2", id="sphere-dim"),
    pytest.param(lambda: SphereSpace(3, "riemann"), "unknown sphere metric 'riemann'",
                 id="sphere-metric"),
    pytest.param(lambda: SPDSpace(0), "matrix size must be >= 1", id="spd-size"),
    pytest.param(lambda: SPDSpace(3, "riemann"), "unknown spd metric 'riemann'", id="spd-metric"),
    pytest.param(lambda: OpenBookSpace(1, 1), "an open book needs at least 2 leaves",
                 id="openbook-leaves"),
    pytest.param(lambda: OpenBookSpace(3, -1), "spine dimension must be >= 0",
                 id="openbook-spine"),
    # sizes that are not integers: NaN and infinity once escaped as ValueError
    # and OverflowError from int()
    pytest.param(lambda: EuclideanSpace(float("nan")), "dimension must be an integer, got nan",
                 id="euclidean-nan"),
    pytest.param(lambda: EuclideanSpace(2.5), "dimension must be an integer, got 2.5",
                 id="euclidean-fraction"),
    pytest.param(lambda: SPDSpace(float("nan")), "matrix size must be an integer, got nan",
                 id="spd-nan"),
    pytest.param(lambda: SphereSpace(float("inf")), "ambient dimension must be an integer, got inf",
                 id="sphere-inf"),
    pytest.param(lambda: OpenBookSpace(float("inf"), 2), "leaf count must be an integer, got inf",
                 id="openbook-inf"),
    pytest.param(lambda: OpenBookSpace(3, float("nan")),
                 "spine dimension must be an integer, got nan", id="openbook-spine-nan"),
])
def test_a_space_with_bad_sizes_or_metric_is_an_invalid_descriptor(build, message):
    with pytest.raises(InvalidDescriptor, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("call, shape", [
    pytest.param(lambda: spd_logm(np.zeros((3, 2))), "(3, 2)", id="logm-rectangle"),
    pytest.param(lambda: spd_logm(3.0), "()", id="logm-scalar"),
    pytest.param(lambda: spd_logm(np.ones(3)), "(3,)", id="logm-vector"),
    pytest.param(lambda: spd_logm(np.zeros((2, 0, 0))), "(2, 0, 0)", id="logm-empty-matrices"),
    pytest.param(lambda: spd_expm(np.zeros((4, 3, 2))), "(4, 3, 2)", id="expm-rectangles"),
])
def test_logm_and_expm_refuse_what_is_not_a_stack_of_square_matrices(call, shape):
    with pytest.raises(InvalidPoint, match=f"^expected a p x p matrix or a \\(\\.\\.\\., p, p\\) stack of them, "
                                           f"got shape {re.escape(shape)}$"):
        call()


@pytest.mark.parametrize("b, shape", [(np.zeros((0, 2)), "(0, 2)"), (np.eye(3)[None], "(1, 3, 3)"),
                                      (np.zeros(3), "(3,)")])
def test_spd_vech_refuses_what_is_not_a_square_matrix(b, shape):
    with pytest.raises(InvalidPoint, match=f"^expected a square matrix, got shape {re.escape(shape)}$"):
        spd_vech(b)


def test_spd_vech_inv_of_a_wrong_length_is_an_invalid_point():
    with pytest.raises(InvalidPoint, match=r"^expected a vector of length 6$"):
        spd_vech_inv(np.zeros(5), 3)


# ---------------------------------------------------------------------------
# sphere


def test_sphere_exp_quarter_circle():
    out = sphere_exp_point((0.0, 0.0, 1.0), (np.pi / 2, 0.0, 0.0))
    assert np.allclose(out.data, [1.0, 0.0, 0.0], atol=1e-12)


def test_sphere_log_at_self_is_zero():
    p = sphere_point((0.6, 0.8, 0.0))
    assert np.allclose(SphereSpace(3).chart_at(p).forward_many(p), 0.0, atol=1e-15)


def test_sphere_distance_quarter():
    sp = SphereSpace(3)
    d = sp.distance_many(sphere_point((1, 0, 0)), sphere_point((0, 1, 0)))[0]
    assert d == pytest.approx(np.pi / 2, abs=1e-12)


def test_sphere_log_exp_round_trip(rng):
    # the geodesic chart at b is the log map at b in b's tangent basis
    space = SphereSpace(3)
    for _ in range(500):
        b = rng.normal(size=3)
        b /= np.linalg.norm(b)
        v = rng.normal(size=3)
        v -= (v @ b) * b
        norm = rng.uniform(0.0, np.pi - 0.01)
        v *= norm / max(np.linalg.norm(v), 1e-300)
        chart = space.chart_at(sphere_point(b))
        log = chart.forward_many(sphere_exp_point(b, v))[0] @ tangent_basis(b)
        assert np.allclose(log, v, atol=1e-10)


def test_sphere_log_cut_locus():
    b = np.array([0.0, 0.0, 1.0])
    with pytest.raises(CutLocus):
        SphereSpace(3).chart_at(sphere_point(b)).forward_many(sphere_point(-b))


def test_sphere_extrinsic_project():
    # the chordal mean is the ambient mean projected onto the sphere
    space = SphereSpace(3, "extrinsic")

    def mean(*rows):
        return space.mean(sphere_sample(rows))[0].data

    assert np.allclose(mean([0.0, 0.6, 0.8], [0.0, -0.6, 0.8]), [0, 0, 1])
    assert np.allclose(mean([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), [np.sqrt(0.5), np.sqrt(0.5), 0.0])
    with pytest.raises(NonUniqueProjection):
        mean([0.0, 0.0, 1.0], [0.0, 0.0, -1.0])


def test_chordal_chart_rejects_the_far_hemisphere():
    # (0, 0.1, -0.995) and (0, 0.1, 0.995) project to the same tangent
    # coordinates at the north pole; only the second is in the chart
    space = SphereSpace(3, "extrinsic")
    near, far = (sphere_sample(np.array([[0.0, 0.1, z]]) / np.hypot(0.1, z)) for z in (0.995, -0.995))
    chart = space.chart_at(sphere_point((0.0, 0.0, 1.0)))
    assert np.allclose(chart.forward_many(near), [[0.1 / np.hypot(0.1, 0.995), 0.0]])
    for sample in (far, sphere_sample([[1.0, 0.0, 0.0]])):  # beyond and on the boundary
        with pytest.raises(InvalidPoint):
            chart.forward_many(sample)
    # a stack of two charts, the second at the south pole: each group of
    # rows is checked against its own base
    stacked = space.chart_at(sphere_sample([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    assert stacked.forward_many(sphere_sample(np.concatenate([near.data, far.data]))).shape == (2, 2)
    with pytest.raises(InvalidPoint):
        stacked.forward_many(sphere_sample(np.concatenate([near.data, near.data])))


def test_chordal_chart_refuses_coordinates_outside_its_unit_ball():
    space = SphereSpace(3, "extrinsic")
    chart = space.chart_at(sphere_point((0.0, 0.0, 1.0)))
    q = sphere_point((0.6, 0.0, 0.8))
    for x in ([1.0, 0.5], [0.6, 0.8]):  # beyond and on the boundary
        with pytest.raises(InvalidPoint, match="unit-hemisphere domain") as refused:
            chart.h_many(np.asarray([x]), chart.pack(q)[None])
        assert refused.value.refused.tolist() == [True]
    # a stack of three charts masks the rows of the coordinates outside
    stacked = space.chart_at(sphere_sample(np.tile([0.0, 0.0, 1.0], (3, 1))))
    packed = stacked.pack(sphere_sample(np.tile(q.data, (6, 1)))).reshape(3, 2, 3)
    with pytest.raises(InvalidPoint) as refused:
        stacked.h_many(np.array([[0.1, 0.2], [1.0, 0.5], [0.0, 0.0]]), packed)
    assert refused.value.refused.tolist() == [False, True, False]


def test_intrinsic_and_extrinsic_means_agree_when_concentrated(rng):
    # support in a small cap: the two notions of mean are nearly the same
    intrinsic = SphereSpace(3, "intrinsic")
    extrinsic = SphereSpace(3, "extrinsic")
    center = np.array([0.0, 0.0, 1.0])
    for _ in range(20):
        steps = []
        for _ in range(40):
            v = rng.normal(size=3)
            v -= (v @ center) * center
            v *= rng.uniform(0.0, 0.1) / np.linalg.norm(v)
            steps.append(v)
        sample = sphere_exp_sample(center, steps)
        mu_i = estimate_mean(intrinsic, sample).mean
        mu_e = estimate_mean(extrinsic, sample).mean
        assert intrinsic.distance_many(mu_i, mu_e)[0] < 0.02


# ---------------------------------------------------------------------------
# spd


def test_spd_logm_examples():
    assert np.allclose(spd_logm(np.diag([np.e, 1.0, 1.0])), np.diag([1.0, 0.0, 0.0]), atol=1e-12)
    assert np.allclose(spd_logm(np.eye(3)), np.zeros((3, 3)), atol=1e-15)


def test_spd_logm_two_by_two_oracle():
    # eigenpairs (3, (1,1)/sqrt2) and (1, (1,-1)/sqrt2) give
    # logm = (ln 3 / 2) * ones(2, 2)
    v1 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    v2 = np.array([1.0, -1.0]) / np.sqrt(2.0)
    expected = np.log(3.0) * np.outer(v1, v1) + np.log(1.0) * np.outer(v2, v2)
    got = spd_logm(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(got, expected, atol=1e-12)
    assert got[0, 1] == pytest.approx(np.log(3.0) / 2.0)


def test_spd_expm_logm_round_trip(rng):
    for _ in range(300):
        b = spd_vech_inv(rng.uniform(-3.0, 3.0, size=6), 3)
        # keep the spectrum within [-3, 3]
        w = np.linalg.eigvalsh(b)
        b *= 3.0 / max(3.0, np.max(np.abs(w)))
        assert np.linalg.norm(spd_logm(spd_expm(b)) - b) <= 1e-10


def test_spd_logm_rejects_non_pd():
    with pytest.raises(NotPositiveDefinite):
        spd_logm(np.diag([1.0, 0.0]))


def _diagonal_logs(spreads):
    """Diagonal log matrices of log-eigenvalues (s/2, 0, -s/2), one per
    spread s."""
    half = 0.5 * np.asarray(spreads, dtype=float)
    return np.stack([np.diag([h, 0.0, -h]) for h in half])


def test_spd_exp_sample_keeps_its_logs(rng):
    rows = rng.normal(scale=0.6, size=(40, 6))
    b = vech_matrices(rows, 3)
    sample = spd_exp_sample(rows, 3)
    assert np.array_equal(sample.data, np.swapaxes(sample.data, 1, 2))
    assert np.array_equal(spd_sample(sample.data).data, sample.data)
    # the Jacobi eigensolver's exponentials, within rounding of LAPACK's
    # (at most 3.3e-15 of the largest entry over 500 such stacks)
    w, v = np.linalg.eigh(b)
    ref = _spectral(np.exp(w), v)
    assert np.all(np.abs(sample.data - ref) <= 4e-15 * np.abs(ref).max(axis=(1, 2))[:, None, None])
    # and the drawn matrices are spd_expm's, bit for bit
    assert np.array_equal(sample.data, spd_expm(b))
    logs = _sample_logs(sample)
    assert np.array_equal(logs, b) and not logs.flags.writeable
    assert np.allclose(logs, spd_logm(sample.data), rtol=0.0, atol=1e-14)
    with pytest.raises(ValueError, match="read-only"):
        logs[0, 0, 0] = 0.0
    # the parts of a split, and their join, keep their rows of the logs
    parts = sample.split([15, 25])
    assert np.array_equal(_sample_logs(parts[1]), b[15:])
    joined = type(sample).join(parts[::-1])
    assert np.array_equal(_sample_logs(joined), np.concatenate([b[15:], b[:15]]))


def test_a_point_of_a_log_euclidean_mean_stack_carries_its_mean_log(rng, monkeypatch):
    space = SPDSpace(3, "log_euclidean")
    draws = spd_exp_sample(rng.normal(scale=0.6, size=(40, 6)), 3)
    means = space.mean_many(draws, 4)[0]
    chart = space.chart_at()
    calls = count_logm(monkeypatch)
    for i in range(4):
        point, taken = means[i], means.take([i])
        assert np.array_equal(point._logs, _sample_logs(taken))
        assert np.array_equal(_sample_logs(as_sample(point)), _sample_logs(taken))
        assert np.array_equal(chart.forward_many(point), chart.forward_many(taken))
        assert np.array_equal(space.distance_many(draws, point),
                              [space.distance_many(taken, q)[0] for q in draws])
    assert calls == []  # no mean's log is taken again from its matrix
    # a point the user builds carries no logs: spd_logm takes them
    user = spd_point(point.data[0])
    assert user._logs is None
    assert np.array_equal(_sample_logs(as_sample(user))[0], spd_logm(point.data[0]))
    assert calls == [1]


@pytest.mark.parametrize("p", [2, 4])
def test_spd_exp_sample_of_other_sizes_is_spd_expm(p, rng):
    # p != 3 is decomposed by LAPACK, as spd_expm is: the very same bits
    rows = rng.normal(scale=0.6, size=(40, p * (p + 1) // 2))
    b = vech_matrices(rows, p)
    sample = spd_exp_sample(rows, p)
    assert np.array_equal(sample.data, spd_expm(b))
    assert np.array_equal(_sample_logs(sample), b)


@pytest.mark.parametrize("spreads", [[31.0] * 5, [1.0, 1.0, 1.0, 31.0, 1.0], [1.0, 31.0, 1.0, 31.0, 1.0]])
def test_spd_exp_sample_leaves_wide_spreads_to_logm(spreads, monkeypatch):
    calls = count_logm(monkeypatch)
    # spreads between KEPT_LOG_SPREAD and ln(1e14) ~ 32.2 pass spd_logm's
    # guard; spd_logm takes those matrices' logs, and only theirs
    logs = _diagonal_logs(spreads)
    sample = spd_exp_sample(_vech_rows(logs), 3)
    kept = np.array(spreads) <= KEPT_LOG_SPREAD
    assert np.allclose(_sample_logs(sample), logs, rtol=0.0, atol=1e-12)
    assert np.array_equal(_sample_logs(sample)[kept], logs[kept])
    assert calls == [int(np.sum(~kept))]
    _sample_logs(sample)
    assert len(calls) == 1  # taken once
    calls.clear()
    _sample_logs(spd_exp_sample(_vech_rows(_diagonal_logs([KEPT_LOG_SPREAD] * 5)), 3))
    assert calls == []


def test_spd_exp_sample_names_the_near_singular_matrix_of_the_stack():
    # spreads 31 (taken by spd_logm) and 40 (refused by it) among kept ones
    sample = spd_exp_sample(_vech_rows(_diagonal_logs([1.0, 31.0, 1.0, 40.0, 40.0, 1.0])), 3)
    with pytest.raises(NotPositiveDefinite) as info:
        _sample_logs(sample)
    refused = [False, False, False, True, True, False]
    assert info.value.refused.tolist() == refused
    with pytest.raises(NotPositiveDefinite) as alone:
        spd_logm(sample.data)
    assert alone.value.refused.tolist() == refused and str(alone.value) == str(info.value)


def test_spd_vech_examples():
    assert np.allclose(spd_vech(np.eye(3)), [1, 1, 1, 0, 0, 0])
    b = np.zeros((3, 3))
    b[0, 1] = b[1, 0] = 1.0
    v = spd_vech(b)
    assert np.allclose(v, [0, 0, 0, np.sqrt(2), 0, 0])
    assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(b), abs=1e-15)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_vech_rows_gather_the_matrices_of_the_entry_scatter(p, rng):
    rows = rng.normal(size=(50, p * (p + 1) // 2))
    rows[3] = 0.0
    rows[4, -1] = -0.0
    mats = _vech_inv_rows(rows, p)
    assert mats.flags.c_contiguous
    assert mats.tobytes() == vech_matrices(rows, p).tobytes()  # -0.0 kept too


def test_spd_vech_round_trip(rng):
    for _ in range(100):
        b = spd_vech_inv(rng.normal(size=6), 3)
        assert np.allclose(spd_vech_inv(spd_vech(b), 3), b, atol=1e-15)
        assert np.linalg.norm(spd_vech(b)) == pytest.approx(np.linalg.norm(b), rel=1e-14)


def test_spd_mean_examples():
    log_euclidean, euclidean = SPDSpace(2, "log_euclidean"), SPDSpace(2, "euclidean")
    a = np.diag([np.e**2, 1.0])
    b = np.diag([np.e**-2, 1.0])
    assert np.allclose(log_euclidean.mean(spd_sample([a, b]))[0].data, np.eye(2), atol=1e-12)
    c = np.diag([1.0, 1.0])
    d = np.diag([3.0, 1.0])
    assert np.allclose(euclidean.mean(spd_sample([c, d]))[0].data, np.diag([2.0, 1.0]), atol=1e-15)
    assert np.allclose(log_euclidean.mean(spd_sample([a, a]))[0].data, a, atol=1e-12)
    assert np.allclose(euclidean.mean(spd_sample([a, a]))[0].data, a, atol=1e-15)


def test_log_euclidean_distance_orthogonal_invariance(rng):
    space = SPDSpace(3, "log_euclidean")
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    for _ in range(100):
        a = random_spd(rng)
        b = random_spd(rng)
        ra = spd_point(q @ a.data[0] @ q.T)
        rb = spd_point(q @ b.data[0] @ q.T)
        assert space.distance_many(ra, rb)[0] == pytest.approx(space.distance_many(a, b)[0],
                                                               abs=1e-10)


def test_flat_space_single_forms_are_the_plain_formulas(rng):
    # one point's distance and one sample's mean are the batches of one of
    # distance_many and mean_many; they must equal the textbook formulas
    # bit for bit
    euc = EuclideanSpace(4)
    rows = rng.normal(size=(25, 4))
    assert euc.mean(euclidean_sample(rows))[0].data[0].tolist() == rows.mean(axis=0).tolist()
    a, b = euclidean_point(rows[0]), euclidean_point(rows[1])
    assert euc.distance_many(a, b)[0] == float(np.linalg.norm(rows[0] - rows[1]))
    mats = np.stack([random_spd(rng).data[0] for _ in range(25)])
    for metric in ("euclidean", "log_euclidean"):
        space = SPDSpace(3, metric)
        logm = spd_logm if metric == "log_euclidean" else np.asarray
        a, b = spd_point(mats[0]), spd_point(mats[1])
        assert space.distance_many(a, b)[0] == float(np.linalg.norm(logm(mats[0]) - logm(mats[1])))
        expected = mats.mean(axis=0) if metric == "euclidean" else spd_expm(
            np.mean([spd_logm(m) for m in mats], axis=0)
        )
        assert np.allclose(space.mean(spd_sample(mats))[0].data, expected, rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# open book


def test_openbook_distance_examples():
    same = OpenBookSpace(3, 2).distance_many(openbook_point(1, (1.0, 2.0, 3.0)),
                                             openbook_point(1, (1.0, 2.0, 7.0)))[0]
    assert same == pytest.approx(4.0, abs=1e-15)
    space = OpenBookSpace(3, 1)
    cross = space.distance_many(openbook_point(1, (1.0, 0.0)), openbook_point(2, (2.0, 0.0)))[0]
    assert cross == pytest.approx(3.0, abs=1e-15)
    cross2 = space.distance_many(openbook_point(1, (1.0, 3.0)), openbook_point(2, (1.0, 7.0)))[0]
    assert cross2 == pytest.approx(np.sqrt(20.0), abs=1e-12)


def test_openbook_fold_examples():
    # the leaf chart at a base on leaf k is the fold f_k
    space = OpenBookSpace(3, 1)
    fold = [space.chart_at(openbook_point(k, (1.0, 0.0))).forward_many for k in (1, 2, 3)]
    assert np.allclose(fold[0](openbook_point(1, (2.0, 5.0))), [2.0, 5.0])
    assert np.allclose(fold[0](openbook_point(3, (2.0, 5.0))), [-2.0, 5.0])
    assert np.allclose(fold[1](openbook_point(0, (0.0, 5.0))), [0.0, 5.0])


def test_openbook_moments_example_three_leaves():
    sample = openbook_sample([1] * 6 + [2] * 2 + [3] * 2, np.ones((10, 1)))
    mom = openbook_moments(sample, 3)
    assert np.allclose(mom.folded_means, [0.2, -0.6, -0.6], atol=1e-15)
    assert np.allclose(mom.leaf_weights, [0.6, 0.2, 0.2])
    assert mom.spine_fraction == 0.0


def test_openbook_moments_all_spine():
    sample = openbook_sample(np.zeros(5, dtype=int), np.tile([0.0, 1.0], (5, 1)))
    mom = openbook_moments(sample, 2)
    assert np.allclose(mom.folded_means, 0.0)
    assert mom.spine_fraction == 1.0


def test_openbook_moments_refuses_a_sample_of_another_kind():
    with pytest.raises(MixedSpacePoints, match="^expected an openbook sample, got euclidean$"):
        openbook_moments(euclidean_sample(np.ones((3, 2))))


def test_openbook_moments_two_leaves():
    sample = openbook_sample([1, 1, 2], [(1.0,), (3.0,), (2.0,)])
    mom = openbook_moments(sample, 2)
    assert np.allclose(mom.folded_means, [2.0 / 3.0, -2.0 / 3.0])


def test_openbook_classify_examples():
    from frechetstats.spaces import OpenBookMoments

    def mom(m):
        m = np.asarray(m, dtype=float)
        return OpenBookMoments(
            leaf_weights=np.full(m.size, 1.0 / m.size),
            folded_means=m,
            spine_mean=np.zeros(0),
            spine_fraction=0.0,
            n=10,
        )

    assert openbook_classify(mom([0.2, -0.6, -0.6])).kind == "leaf"
    assert openbook_classify(mom([0.2, -0.6, -0.6])).leaf == 1
    assert openbook_classify(mom([-1 / 3, -1 / 3, -1 / 3])).kind == "spine"
    b = openbook_classify(mom([0.0, -0.5]))
    assert b.kind == "boundary" and b.leaf == 1


def test_openbook_frechet_mean_examples():
    sample = openbook_sample([1] * 6 + [2] * 2 + [3] * 2, np.tile([1.0, 0.0], (10, 1)))
    space = OpenBookSpace(3, 1)
    mu = space.mean(sample)[0]
    assert mu.leaves.tolist() == [1]
    assert np.allclose(mu.data, [0.2, 0.0], atol=1e-15)

    sample2 = openbook_sample([1, 2, 3], [(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])
    mu2 = space.mean(sample2)[0]
    assert mu2.leaves.tolist() == [0]
    assert np.allclose(mu2.data, [0.0, 2.0])

    single = openbook_point(2, (5.0, 1.0))
    mu3 = space.mean(single)[0]
    assert (mu3.kind, mu3.leaves.tolist()) == (single.kind, single.leaves.tolist())
    assert np.allclose(mu3.data, single.data, rtol=0.0, atol=1e-12)


def test_at_most_one_positive_folded_mean(rng):
    assert positive_folded_means(rng, rng.integers(1, 12, size=10_000)).max() <= 1


def test_openbook_mean_minimizes_frechet_function(rng):
    space = OpenBookSpace(3, 2)
    for _ in range(1000):
        sample = random_openbook_sample(rng, int(rng.integers(2, 15)))
        candidates = Sample.join([space.mean(sample)[0], random_openbook_sample(rng, 100)])
        values = frechet_values(space, sample, candidates)
        assert values[0] <= values[1:].min() + 1e-12


def test_openbook_triangle_inequality_bulk(rng):
    space = OpenBookSpace(3, 2)
    p, q, r = (random_openbook_sample(rng, 10_000) for _ in range(3))
    via = space.distance_many(p, q) + space.distance_many(q, r)
    assert np.all(space.distance_many(p, r) <= via + 1e-12)
