"""The geometry kernels of the Monte Carlo hot path: the batched 3x3 Jacobi
eigensolver that decomposes every SPD(3) stack, the component-major
sphere log map and geodesic distance of the Newton mean iteration and the
geodesic charts, and the cap draw.  Each is checked against the plain computation it
replaces, and for its rows' independence of their stack."""

import numpy as np
import pytest
from scipy import special

import frechetstats.spaces.spd as spd_module
import frechetstats.spaces.sphere as sphere_module
from frechetstats import simulate
from frechetstats.errors import CutLocus, InvalidPoint, NoConvergence, NotPositiveDefinite
from frechetstats.estimator import estimate_mean, stacked_sandwich
from frechetstats.geometry import Sample, row_dots, row_norms, row_products
from frechetstats.geometry import as_sample, spd_point, sphere_sample
from frechetstats.simulate import (
    Sampler,
    SPDLogGaussianDescriptor,
    SphereCapDescriptor,
    mc_coverage,
    mc_type1,
)
from frechetstats.spaces import SPDSpace, SphereSpace
from frechetstats.spaces.spd import KEPT_LOG_SPREAD, _vech_rows, spd_exp_sample
from frechetstats.spaces.spd import spd_expm, spd_logm
from frechetstats.spaces.sphere import MEAN_MAX_ITER, MEAN_TOL, _exp_rows, _newton_means
from frechetstats.spaces.sphere import _project_rows

from conftest import vech_matrices


# ---------------------------------------------------------------------------
# 3x3 Jacobi eigensolver


def _rotated(rng, eigenvalues):
    """Symmetric matrices Q diag(w) Q^T, one per row of ``eigenvalues``,
    with Haar-random orthogonal Q."""
    w = np.asarray(eigenvalues, dtype=float)
    q, r = np.linalg.qr(rng.normal(size=(len(w), 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    a = (q * w[:, None, :]) @ np.swapaxes(q, 1, 2)
    return 0.5 * (a + np.swapaxes(a, 1, 2))


def _stacks():
    rng = np.random.default_rng(11)
    m = 400
    base = rng.uniform(-15.0, 15.0, size=(m, 1))
    stacks = {
        "distinct": _rotated(rng, rng.uniform(-15.0, 15.0, size=(m, 3))),
        "double": _rotated(rng, np.hstack([base, base, rng.uniform(-15.0, 15.0, size=(m, 1))])),
        "triple": _rotated(rng, np.hstack([base, base, base])),
        "near double": _rotated(rng, np.hstack([base, base + 1e-12 * np.abs(base),
                                                rng.uniform(-15.0, 15.0, size=(m, 1))])),
        "cluster": _rotated(rng, base + [0.0, 1e-12, 2e-12]),
        "log spread 60": _rotated(rng, np.tile([30.0, 0.0, -30.0], (m, 1))),
        "diagonal": np.stack([np.diag(w) for w in rng.uniform(-15.0, 15.0, size=(m, 3))]),
        "diagonal double": np.stack([np.diag([w, 2.0, w]) for w in rng.uniform(-3.0, 3.0, m)]),
        "zero": np.zeros((4, 3, 3)),
        "identity": np.tile(np.eye(3), (4, 1, 1)),
    }
    stacks["scale 1e-200"] = 1e-200 * stacks["distinct"]
    stacks["cluster scale 1e-200"] = 1e-200 * stacks["cluster"]
    return stacks


STACKS = _stacks()


@pytest.mark.parametrize("name", list(STACKS))
def test_jacobi_matches_eigh(name):
    a = STACKS[name]
    w, v = spd_module._eigh(a)
    reference = np.linalg.eigvalsh(a)
    norm = np.max(np.abs(reference), axis=1)  # spectral norm of each matrix
    rebuilt = (v * w[:, None, :]) @ np.swapaxes(v, 1, 2)
    orthogonality = np.swapaxes(v, 1, 2) @ v - np.eye(3)
    assert np.all(np.max(np.abs(rebuilt - a), axis=(1, 2)) <= 1e-14 * norm)
    assert np.all(np.max(np.abs(orthogonality), axis=(1, 2)) <= 1e-14)
    assert np.all(np.max(np.abs(np.sort(w, axis=1) - reference), axis=1) <= 1e-14 * norm)


def test_jacobi_row_is_the_same_alone_and_in_a_stack():
    rng = np.random.default_rng(12)
    stack = np.concatenate([STACKS[name] for name in STACKS])
    stack = stack[rng.permutation(len(stack))][:2000]
    assert len(stack) == 2000
    w, v = spd_module._eigh(stack)
    for i in rng.choice(len(stack), size=40, replace=False):
        w1, v1 = spd_module._eigh(stack[i])
        assert np.array_equal(w1, w[i]) and np.array_equal(v1, v[i])


def test_jacobi_sends_unconverged_rows_to_eigh(monkeypatch):
    a = np.concatenate([STACKS["distinct"][:50], STACKS["diagonal"][:5]])
    monkeypatch.setattr(spd_module, "_JACOBI_SWEEPS", 0)
    w, v = spd_module._eigh(a)
    # without a sweep every non-diagonal matrix is left to eigh
    w_ref, v_ref = np.linalg.eigh(a[:50])
    assert np.array_equal(w[:50], w_ref) and np.array_equal(v[:50], v_ref)
    assert np.array_equal(w[50:], np.diagonal(a[50:], axis1=1, axis2=2))
    assert np.array_equal(v[50:], np.tile(np.eye(3), (5, 1, 1)))


def _symmetric_logs(shape, seed=13):
    """Symmetric matrices of every kind of ``STACKS`` with spectra within
    [-3, 3], in a (*shape, 3, 3) stack."""
    rng = np.random.default_rng(seed)
    kinds = ("distinct", "double", "triple", "near double", "cluster", "diagonal",
             "diagonal double", "identity")
    logs = np.concatenate([STACKS[name][:40] / 5.0 for name in kinds])
    return logs[rng.choice(len(logs), size=int(np.prod(shape)))].reshape(shape + (3, 3))


@pytest.mark.parametrize("sweeps", [spd_module._JACOBI_SWEEPS, 2])
@pytest.mark.parametrize("shape", [(240,), (12, 20)], ids=["n", "a-b"])
def test_logm_and_expm_of_a_matrix_are_its_row_of_any_stack(shape, sweeps, monkeypatch):
    # at 2 sweeps about a sixth of the matrices go to LAPACK, alone or stacked
    monkeypatch.setattr(spd_module, "_JACOBI_SWEEPS", sweeps)
    logs = _symmetric_logs(shape)
    exps = spd_expm(logs)
    mats = exps + np.eye(3)  # SPD, and not exponentials of the logs
    stacked = spd_logm(mats)
    assert exps.shape == stacked.shape == shape + (3, 3)
    for i in np.ndindex(shape):
        assert np.array_equal(spd_expm(logs[i]), exps[i]), i
        assert np.array_equal(spd_logm(mats[i]), stacked[i]), i


@pytest.mark.parametrize("p", [2, 3])
def test_logm_and_expm_refuse_non_finite_matrices(p):
    stack = np.tile(np.eye(p), (4, 1, 1))
    stack[1, 0, 0] = np.nan
    stack[3, 0, p - 1] = stack[3, p - 1, 0] = np.inf
    for f in (spd_logm, spd_expm):
        with pytest.raises(InvalidPoint, match="non-finite") as refused:
            f(stack)
        assert refused.value.refused.tolist() == [False, True, False, True]
        for matrix in stack[[1, 3]]:
            with pytest.raises(InvalidPoint, match="non-finite"):
                f(matrix)


def test_logm_refuses_the_rotated_near_singular_matrices_lapack_refuses():
    # eigenvalues (1, 0.5, r): Jacobi's errors (about 2e-15 of the largest)
    # leave its decision at ratio r the same as LAPACK's away from 1e-14
    rng = np.random.default_rng(14)
    ratios = np.repeat([1e-13, 2e-14, 5e-15, 0.0, -1e-13], 100)
    a = _rotated(rng, np.column_stack([np.ones_like(ratios), np.full_like(ratios, 0.5), ratios]))
    w = np.linalg.eigvalsh(a)
    lapack = w[:, 0] <= 1e-14 * np.maximum(w[:, -1], 0.0)
    assert lapack.tolist() == (ratios < 1e-14).tolist()
    with pytest.raises(NotPositiveDefinite) as refused:
        spd_logm(a)
    assert refused.value.refused.tolist() == lapack.tolist()
    for i in range(0, len(a), 10):
        if lapack[i]:
            with pytest.raises(NotPositiveDefinite):
                spd_logm(a[i])
        else:
            spd_logm(a[i])


def _sizes_seen_by_eigh(monkeypatch):
    """The number of 3x3 matrices of every later np.linalg.eigh call."""
    sizes = []
    eigh = np.linalg.eigh

    def counted(a):
        if np.shape(a)[-1] == 3:
            sizes.append(int(np.prod(np.shape(a)[:-2])))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return sizes


def _calls_of_jacobi(monkeypatch):
    """The number of matrices of every later ``_eigh3`` call."""
    sizes = []
    eigh3 = spd_module._eigh3

    def counted(a):
        sizes.append(len(a))
        return eigh3(a)

    monkeypatch.setattr(spd_module, "_eigh3", counted)
    return sizes


def test_spd_blocks_decompose_no_drawn_matrix_with_eigh(monkeypatch):
    sizes = _sizes_seen_by_eigh(monkeypatch)
    jacobi = _calls_of_jacobi(monkeypatch)
    sampler = Sampler(SPDSpace(3, "log_euclidean"),
                      SPDLogGaussianDescriptor(np.diag([0.4, 0.0, -0.3]), 0.15), 43)
    reps = 2 * (simulate.BLOCK_POINTS // 200) + 3  # three blocks of drawn matrices
    assert mc_coverage(sampler, 200, reps, 0.05).failures == 0
    # not even the truth's matrix: its copies keep the log it keeps
    assert jacobi == []
    assert mc_type1(sampler.space, sampler, 100, 100, reps, 0.05).failures == 0
    # no drawn matrix, and no mean, is ever built, and nothing goes to LAPACK
    assert jacobi == []
    assert sizes == []


# ---------------------------------------------------------------------------
# per-row logs of drawn SPD stacks


def test_spd_means_are_the_same_alone_and_in_a_block_with_wide_spreads():
    # log-eigenvalue spreads around 29.8: some drawn matrices keep their
    # logs, the others have them taken by spd_logm, row by row
    sampler = Sampler(SPDSpace(3, "log_euclidean"),
                      SPDLogGaussianDescriptor(np.diag([14.9, 0.0, -14.9]), 0.1), 7)
    n, reps = 20, 50
    block = sampler.draw_many(n, list(range(reps)))
    means, _ = sampler.space.mean_many(block, reps)
    for rep in range(reps):
        alone, _ = sampler.space.mean_many(sampler.draw(n, rep), 1)
        assert np.array_equal(alone.data[0], means.data[rep]), f"replication {rep}"


# ---------------------------------------------------------------------------
# deferred exponentials of drawn SPD stacks


def _drawn(n, seed=15):
    """Vech rows of n symmetric 3x3 matrices, and the matrices."""
    rows = np.random.default_rng(seed).normal(scale=0.4, size=(n, 6))
    return rows, vech_matrices(rows, 3)


def test_deferred_draw_builds_the_eager_bits_whole_split_and_joined():
    rows, logs = _drawn(300)
    eager = spd_expm(logs)
    assert np.array_equal(spd_exp_sample(rows, 3).data, eager)
    sizes = [120, 1, 179]
    parts = spd_exp_sample(rows, 3).split(sizes)
    # read out of order: each part builds its own rows
    for i in (2, 0, 1):
        assert np.array_equal(parts[i].data, np.split(eager, np.cumsum(sizes)[:-1])[i])
    deferred = spd_exp_sample(rows, 3).split(sizes)
    joined = Sample.join(deferred[::-1])
    assert np.array_equal(joined.data, np.concatenate([eager[121:], eager[120:121], eager[:120]]))
    # a join of a built part and deferred ones builds the rest
    mixed = spd_exp_sample(rows, 3).split(sizes)
    assert np.array_equal(mixed[1].data, eager[120:121])
    assert np.array_equal(Sample.join(mixed).data, eager)


def test_deferred_draw_builds_the_eager_bits_one_replication_at_a_time(monkeypatch):
    sampler = Sampler(SPDSpace(3, "log_euclidean"),
                      SPDLogGaussianDescriptor(np.diag([0.4, 0.0, -0.3]), 0.15), 44)
    keys, n = list(range(6)), 30
    block = sampler.draw_many(n, keys)
    eager = spd_expm(block._logs)  # every log kept at these spreads
    jacobi = _calls_of_jacobi(monkeypatch)
    # each replication's draw alone, and its rows taken from the block
    # (as a block that failed some replications takes the others'), builds
    # its own matrices
    alone = [sampler.draw(n, key).data for key in keys]
    taken = [simulate._part(block, len(keys), [key]).data for key in keys]
    assert jacobi == [n] * 2 * len(keys)
    assert np.array_equal(np.concatenate(alone), eager)
    assert np.array_equal(np.concatenate(taken), eager)


def test_deferred_draw_is_not_built_by_its_size_checks_or_parts(monkeypatch):
    jacobi = _calls_of_jacobi(monkeypatch)
    space = SPDSpace(3, "log_euclidean")
    sample = spd_exp_sample(_drawn(50)[0], 3)
    assert len(sample) == 50 and sample.shape == (50, 3, 3)
    assert space.check_sample(sample) is sample
    joined = Sample.join(sample.split([20, 30])[::-1])
    assert len(joined) == 50
    assert jacobi == []
    truth = space.mean(joined)[0]  # a mean is built from its log, not from the draw
    assert len(as_sample(truth)) == 1
    with pytest.raises(InvalidPoint):
        SPDSpace(2).check_sample(sample)
    assert jacobi == []  # nor the mean's matrix, which its log gives
    built = sample.data
    assert jacobi == [50]
    assert sample.data is built and jacobi == [50]  # built once


def test_a_point_of_a_draw_builds_its_own_matrix_alone(monkeypatch):
    rows, logs = _drawn(50)
    sample = spd_exp_sample(rows, 3)
    jacobi = _calls_of_jacobi(monkeypatch)
    point = sample[7]
    assert jacobi == []
    assert np.array_equal(point.data[0], spd_expm(logs[7]))
    assert jacobi == [1, 1]  # the point's matrix, then the reference's
    assert np.array_equal(point._logs[0], logs[7])


def test_repeated_distances_take_each_points_log_once(monkeypatch):
    space = SPDSpace(3)
    p, q = (spd_point(spd_expm(_drawn(1, seed)[1][0])) for seed in (18, 19))
    jacobi = _calls_of_jacobi(monkeypatch)
    first = space.distance_many(p, q)[0]
    assert jacobi == [1, 1]  # the log of p, then of q
    for _ in range(5):
        assert space.distance_many(p, q)[0] == first
        assert space.distance_many(q, p)[0] == first
    assert space.chart_at().forward_many(p).shape == (1, 6)
    assert jacobi == [1, 1]


def test_logs_a_draw_did_not_keep_are_taken_from_their_matrices_alone(monkeypatch):
    # log-eigenvalue spreads around 29.8: only the drawn matrices whose logs
    # were not kept are built, and their logs have the bits of the whole build
    sampler = Sampler(SPDSpace(3, "log_euclidean"),
                      SPDLogGaussianDescriptor(np.diag([14.9, 0.0, -14.9]), 0.1), 7)
    block = sampler.draw_many(20, list(range(10)))
    missing = np.isnan(block._logs[:, 0, 0])
    assert 0 < missing.sum() < len(block)
    jacobi = _calls_of_jacobi(monkeypatch)
    logs = spd_module._sample_logs(block)
    # the matrices not kept are built, then their logs taken
    assert jacobi == [missing.sum()] * 2
    assert np.array_equal(logs[missing], spd_module.spd_logm(block.data[missing]))
    assert jacobi == [missing.sum()] * 2 + [len(block), missing.sum()]


def _refused_alone(matrix):
    try:
        spd_module.spd_logm(matrix)
    except NotPositiveDefinite:
        return True
    return False


def test_a_refused_draw_masks_the_matrices_it_refuses():
    # log-scale 6: some drawn matrices are too close to singular; the
    # refusal masks exactly the rows spd_logm refuses one at a time, and
    # keeps no log
    sampler = Sampler(SPDSpace(3, "log_euclidean"),
                      SPDLogGaussianDescriptor(np.diag([0.4, 0.0, -0.3]), 6.0), 35)
    block = sampler.draw_many(10, list(range(40)))
    kept = block._logs
    with pytest.raises(NotPositiveDefinite) as refused:
        spd_module._sample_logs(block)
    alone = [_refused_alone(matrix) for matrix in block.data]
    assert 0 < sum(alone) < len(block)
    assert refused.value.refused.tolist() == alone
    assert block._logs is kept


def test_kept_logs_follow_the_exact_eigenvalues_near_the_spread_limit():
    rng = np.random.default_rng(16)
    m = 2000
    spreads = np.concatenate([np.linspace(29.9, 30.1, m - 400),
                              KEPT_LOG_SPREAD + rng.uniform(-1e-12, 1e-12, 400)])
    low = rng.uniform(-20.0, 5.0, m)
    # the middle eigenvalue anywhere between, or at the midpoint, where the
    # screening bound sqrt(2) ||L - tr(L)/3 I||_F is the spread itself
    middle = np.where(rng.random(m) < 0.5, low + rng.random(m) * spreads, low + 0.5 * spreads)
    rows = _vech_rows(_rotated(rng, np.column_stack([low, middle, low + spreads])))
    logs = vech_matrices(rows, 3)  # the matrices of the rows, to rounding the rotated ones
    sample = spd_exp_sample(rows, 3)
    w = np.linalg.eigvalsh(logs)
    exact = w[:, -1] - w[:, 0] <= KEPT_LOG_SPREAD
    kept = ~np.isnan(sample._logs[:, 0, 0])
    assert 0 < exact.sum() < m
    assert np.array_equal(kept, exact)
    assert np.array_equal(sample._logs[kept], logs[kept])


# ---------------------------------------------------------------------------
# component-major sphere kernels


def _log_rows(base, points):
    """Log map of each row of ``points`` at ``base``, one length-(d+1) row
    at a time: (n, d+1) rows at one (d+1,) base, or, with leading axes,
    ``points[r]`` at ``base[r]``; the reference for the component-major
    ``_logs``."""
    b = base[..., None, :]
    c = row_dots(points, b)
    if np.any(np.linalg.norm(points + b, axis=-1) < 1e-9):
        raise CutLocus("log map requested at the cut locus (antipode of base)")
    w = points - c[..., None] * b
    nw = np.linalg.norm(w, axis=-1)
    theta = np.arctan2(nw, np.clip(c, -1.0, 1.0))
    scale = np.where(nw < 1e-15, 0.0, theta / np.where(nw < 1e-15, 1.0, nw))
    return w * scale[..., None]


def _geodesic_rows(p, points):
    """Geodesic distances from ``p`` to each row of ``points`` (with leading
    axes: from ``p[r]`` to each row of ``points[r]``), one row at a time:
    the reference for the component-major ``_geodesics``."""
    return 2.0 * np.arcsin(np.minimum(1.0, 0.5 * row_norms(points - p[..., None, :])))


def _cap_points(ambient, radius, n, reps, seed=13):
    """An (reps, n, ambient) stack of samples of a cap around the last axis."""
    center = np.zeros(ambient)
    center[-1] = 1.0
    sampler = Sampler(SphereSpace(ambient), SphereCapDescriptor(tuple(center), radius), seed)
    return sampler.draw_many(n, list(range(reps))).data.reshape(reps, n, ambient)


#: (ambient dimension, cap radius, sample size): narrow and wide caps
CAPS = [(3, 0.5, 400), (3, 1.5, 60), (10, 0.3, 50), (10, 1.2, 200)]


def _karcher_rows(points, mu, tol, max_iter):
    """The Karcher fixed-point iteration on the (R, n, d+1) row layout, one
    length-(d+1) row at a time: the reference for ``_newton_means``."""
    mu = np.array(mu)
    f_mu = (_geodesic_rows(mu, points) ** 2).mean(axis=-1)
    iterations = np.full(len(mu), max_iter)
    todo = np.ones(len(mu), dtype=bool)
    for it in range(max_iter):
        step = _log_rows(mu, points).mean(axis=-2)
        done = todo & (2.0 * row_norms(step) <= tol)
        iterations[done] = it
        todo &= ~done
        if not todo.any():
            break
        limit = f_mu + 1e-15 * (1.0 + np.abs(f_mu))
        moving, tau = todo.copy(), 1.0
        while moving.any():
            cand = _exp_rows(mu, tau * step)
            f = (_geodesic_rows(cand, points) ** 2).mean(axis=-1)
            ok = moving & ((f <= limit) | (tau < 1e-8))
            mu[ok], f_mu[ok] = cand[ok], f[ok]
            moving &= ~ok
            tau *= 0.5
    return mu, iterations


@pytest.mark.parametrize("ambient, radius, n", CAPS)
def test_newton_means_agree_with_the_karcher_reference(ambient, radius, n):
    points = _cap_points(ambient, radius, n, 8)
    start = _project_rows(points.mean(axis=1))
    means, iterations, _ = _newton_means(points, start)
    ref_means, ref_iterations = _karcher_rows(points, start, MEAN_TOL, MEAN_MAX_ITER)
    assert np.all(ref_iterations < MEAN_MAX_ITER)
    assert np.all(iterations <= ref_iterations)
    assert np.max(np.abs(means - ref_means)) <= 1e-9


def test_newton_means_converge_on_a_wide_cap():
    # the Karcher fixed point contracts at a rate near 1 - 0.176 here and
    # spends the budget on about a fifth of these samples
    reps, n = 40, 200
    points = _cap_points(3, 2.9, n, reps)
    _, iterations = SphereSpace(3).mean_many(sphere_sample(points.reshape(-1, 3)), reps)
    assert np.all(iterations < MEAN_MAX_ITER)


def test_newton_means_refuse_the_replications_that_spend_the_budget(newton_budget):
    reps, n, budget = 40, 200, 4
    points = _cap_points(3, 2.9, n, reps)
    sample = sphere_sample(points.reshape(-1, 3))
    space = SphereSpace(3)
    full, iterations = space.mean_many(sample, reps)
    spent = iterations > budget  # their first ``budget`` steps are the same
    assert 0 < spent.sum() < reps
    newton_budget(budget)
    with pytest.raises(NoConvergence, match=rf"^newton exhausted {budget} iterations") as err:
        space.mean_many(sample, reps)
    assert err.value.refused.tolist() == spent.tolist()
    means, spent_iterations = err.value.fit
    assert np.array_equal(spent_iterations, np.minimum(iterations, budget))
    assert np.array_equal(means.data[~spent], full.data[~spent])
    # one spent replication alone: Space.mean raises, and estimate_mean's
    # partial fit holds its last iterate, the budget and the gradient there
    one = sphere_sample(points[np.argmax(spent)])
    with pytest.raises(NoConvergence) as alone:
        space.mean(one)
    assert alone.value.refused.tolist() == [True]
    with pytest.raises(NoConvergence) as fitted:
        estimate_mean(space, one)
    fit = fitted.value.fit
    last = alone.value.fit[0]
    assert fit.mean.kind == last.kind and len(fit.mean) == len(last) == 1
    assert np.array_equal(fit.mean.data, last.data) and fit.iterations == budget
    assert fit.grad_norm > MEAN_TOL


def test_karcher_means_refuse_the_cut_locus_in_a_block_and_alone():
    space = SphereSpace(3)
    p = np.array([0.6, 0.0, 0.8])
    # the extrinsic start of (p, p, -p) is p, whose antipode is a point
    antipodal = np.array([p, p, -p])
    fine = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.8], [0.6, 0.0, 0.8]])
    with pytest.raises(CutLocus):
        space.mean_many(sphere_sample(np.concatenate([fine, antipodal])), 2)
    with pytest.raises(CutLocus):
        space.mean_many(sphere_sample(antipodal), 1)
    means, _ = space.mean_many(sphere_sample(fine), 1)
    assert np.all(np.isfinite(means.data))


@pytest.mark.parametrize("ambient, radius, n", CAPS)
def test_geodesic_chart_kernels_match_the_row_layout(ambient, radius, n):
    def close(got, ref):
        # rounding level: within 1e-15, or 8 units in the last place of
        # values beyond 1 (the squared distances of the wide caps reach 2.6)
        return np.all(np.abs(got - ref) <= np.maximum(1e-15, 8.0 * np.spacing(np.abs(ref))))

    reps = 8
    points = _cap_points(ambient, radius, n, reps)
    space = SphereSpace(ambient)
    sample = sphere_sample(points.reshape(-1, ambient))
    means, _ = space.mean_many(sample, reps)
    chart = space.chart_at(means)
    x = np.random.default_rng(14).uniform(-0.1, 0.1, size=(reps, ambient - 1))  # off the origins
    assert close(chart.h_many(x, points),
                 _geodesic_rows(_exp_rows(means.data, chart._ambient(x)), points) ** 2)
    logs = _log_rows(means.data, points) @ chart._basis_t
    assert close(chart.forward_many(sample), logs.reshape(-1, ambient - 1))
    assert close(chart.grad_h_many(np.zeros_like(x), points), -2.0 * logs)
    assert close(space.distance_many(sphere_sample(points[0]), means[0]),
                 _geodesic_rows(means.data[0], points[0]))


def _hessian_rows(coords):
    """The Hessians of ``_hessians`` on the (..., n, s) row layout, each
    length-s row normed and scaled as one: its reference."""
    theta = np.linalg.norm(coords, axis=-1)
    small = theta < 1e-8
    safe = np.where(small, 1.0, theta)
    t = np.where(small, 1.0 - theta**2 / 3.0, safe / np.tan(safe))
    u = coords / np.where(theta[..., None] < 1e-15, 1.0, theta[..., None])
    u[theta < 1e-15] = 0.0
    outer_sum = np.swapaxes(u * (1.0 - t)[..., None], -1, -2) @ u / coords.shape[-2]
    return 2.0 * (outer_sum + t.mean(axis=-1)[..., None, None] * np.eye(coords.shape[-1]))


def _newton_gradient_rows(points, mu):
    """The Newton gradient -2 mean(log) at each row of ``mu`` in its
    tangent basis, a mean over axis -2 of the (R, n, s) coordinates: the
    reference for the sum over the long axis in ``_newton_means``."""
    basis_t = np.swapaxes(sphere_module.tangent_basis(mu), -1, -2)
    logs = sphere_module._logs(sphere_module._columns(points), mu)
    return -2.0 * (np.swapaxes(logs, -1, -2) @ basis_t).mean(axis=-2)


@pytest.mark.parametrize("ambient, radius, n", CAPS)
def test_newton_hessians_and_gradients_match_the_row_layout(ambient, radius, n):
    reps = 8
    points = _cap_points(ambient, radius, n, reps)
    start = _project_rows(points.mean(axis=1))
    means, _, grad_norms = _newton_means(points, start)
    assert np.array_equal(grad_norms, row_norms(_newton_gradient_rows(points, means)))
    basis_t = np.swapaxes(sphere_module.tangent_basis(start), -1, -2)
    coords = np.swapaxes(sphere_module._logs(sphere_module._columns(points), start), -1, -2) @ basis_t
    coords[:, :3] = [[0.0], [1e-16], [1e-9]]  # the rows that are not unit or not tan-scaled
    expected = _hessian_rows(coords)
    assert np.array_equal(sphere_module._hessians(coords), expected)
    # the (n, R, s) layout that the Newton iteration passes
    assert np.array_equal(sphere_module._hessians(
        np.ascontiguousarray(np.swapaxes(coords, 0, 1)).swapaxes(0, 1)), expected)


def _cap_rows(descriptor, ambient, level, direction):
    """The points of a cap draw built as (n, d+1) rows: the reference for
    ``SphereCapDescriptor.assemble``."""
    center = descriptor._center()
    basis = sphere_module.tangent_basis(center)
    if ambient == 3:
        theta = np.arccos(1.0 - level * (1.0 - np.cos(descriptor.radius)))
        phi = 2.0 * np.pi * direction
        dirs = np.cos(phi)[:, None] * basis[0] + np.sin(phi)[:, None] * basis[1]
        rows = np.cos(theta)[:, None] * center + np.sin(theta)[:, None] * dirs
    else:
        a = 0.5 * (ambient - 1)
        top = special.betainc(a, a, np.sin(0.5 * descriptor.radius) ** 2)
        w = special.betaincinv(a, a, level * top)
        dirs = row_products(direction, basis)
        dirs /= row_norms(dirs)[:, None]
        cos_t, sin_t = 1.0 - 2.0 * w, 2.0 * np.sqrt(w * (1.0 - w))
        rows = cos_t[:, None] * center + sin_t[:, None] * dirs
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("ambient", [3, 6, 10])
@pytest.mark.parametrize("radius", [0.5, 2.9])
def test_cap_draws_match_the_row_layout(ambient, radius):
    center = np.zeros(ambient)
    center[0], center[-1] = 0.6, 0.8
    descriptor = SphereCapDescriptor(tuple(center), radius)
    space = SphereSpace(ambient)
    rng = np.random.default_rng(17)
    (level, direction), draw = descriptor.variates(space, 3000)
    draw(rng, 0, 3000)
    got = descriptor.assemble((level, direction), space).data
    assert got.flags.c_contiguous
    assert np.array_equal(got, _cap_rows(descriptor, ambient, level, direction))


def _slow_block(reps=20, slow=6, n=400):
    """An (reps + slow, n, 3) block of narrow-cap samples (radius 0.5) with
    ``slow`` wide-cap samples (radius 2.9) among them, and its starts."""
    narrow, wide = _cap_points(3, 0.5, n, reps), _cap_points(3, 2.9, n, slow, seed=29)
    order = np.random.default_rng(18).permutation(reps + slow)
    points = np.concatenate([narrow, wide])[order]
    return points, _project_rows(points.mean(axis=1))


def test_newton_row_is_its_own_alone_or_in_a_block_with_slow_rows():
    points, start = _slow_block()
    means, iterations, grad_norms = _newton_means(points, start)
    assert iterations.max() > 5 * np.median(iterations)  # the wide caps iterate longest
    for r in range(len(points)):
        alone = _newton_means(points[r:r + 1], start[r:r + 1])
        assert np.array_equal(alone[0][0], means[r])
        assert alone[1][0] == iterations[r] and np.array_equal(alone[2][0], grad_norms[r])


def test_newton_row_refused_alone_is_refused_in_a_block(newton_budget):
    points, _ = _slow_block()
    space, budget = SphereSpace(3), 3
    newton_budget(budget)
    with pytest.raises(NoConvergence) as block:
        space.mean_many(sphere_sample(points.reshape(-1, 3)), len(points))
    means, iterations = block.value.fit
    refused = block.value.refused
    assert 0 < refused.sum() < len(points)
    messages = []
    for r in range(len(points)):
        one = sphere_sample(points[r])
        if refused[r]:
            with pytest.raises(NoConvergence) as alone:
                space.mean_many(one, 1)
            messages.append(str(alone.value))
            alone_means, alone_iterations = alone.value.fit
        else:
            alone_means, alone_iterations = space.mean_many(one, 1)
        assert np.array_equal(alone_means.data[0], means.data[r])
        assert alone_iterations[0] == iterations[r]
    # the block's message quotes the first refused replication's gradient
    assert str(block.value) == messages[0]


def test_newton_means_mask_a_cut_locus_among_the_live_rows(monkeypatch):
    # replication 0 converges at once; the cut locus met at the second step
    # masks replication 1 of the whole block, not row 0 of the live rows
    points = _cap_points(3, 0.5, 50, 3).copy()
    points[0] = points[0, 0]
    start = _project_rows(points.mean(axis=1))
    logs, calls = sphere_module._logs, []

    def cut_on_second_call(cols, base):
        calls.append(len(base))
        if len(calls) == 2:
            cut = np.zeros(cols.shape[::2], dtype=bool)
            cut[0, 7] = True
            raise CutLocus("log map requested at the cut locus (antipode of base)", cut)
        return logs(cols, base)

    monkeypatch.setattr(sphere_module, "_logs", cut_on_second_call)
    with pytest.raises(CutLocus) as err:
        _newton_means(points, start)
    assert calls == [3, 2]
    assert err.value.refused.shape == (3, 50)
    assert np.flatnonzero(err.value.refused).tolist() == [57]


def test_numeric_sandwich_copies_its_sample_component_major_once(monkeypatch):
    reps, n = 4, 80
    points = _cap_points(3, 0.5, n, reps)
    space = SphereSpace(3)
    means, _ = space.mean_many(sphere_sample(points.reshape(-1, 3)), reps)
    chart = space.chart_at(means)
    coords = chart.forward_many(means)
    expected = stacked_sandwich(chart, coords, points, derivatives="numeric")
    copies = []
    columns = sphere_module._columns
    monkeypatch.setattr(sphere_module, "_columns", lambda rows: copies.append(1) or columns(rows))
    fresh = space.chart_at(means)
    got = stacked_sandwich(fresh, coords, points, derivatives="numeric")
    # one copy for the 13 probes of h_many (4 for the gradient, 9 for the
    # Hessian), the same bits as a copy per probe
    assert len(copies) == 1
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)
