"""The geometry kernels of the Monte Carlo hot path: the batched 3x3 Jacobi
eigensolver that exponentiates drawn SPD stacks, and the component-major
sphere log map and geodesic distance of the Karcher iteration and the
geodesic charts.  Each is checked against the plain computation it
replaces, and for its rows' independence of their stack."""

import numpy as np
import pytest

import frechetstats.spaces.spd as spd_module
import frechetstats.spaces.sphere as sphere_module
from frechetstats import simulate
from frechetstats.errors import CutLocus, InvalidPoint, NoConvergence
from frechetstats.estimator import stacked_sandwich
from frechetstats.geometry import MEAN_MAX_ITER, MEAN_TOL, ROW_CACHE, Sample, row_dots, row_norms
from frechetstats.geometry import sphere_sample
from frechetstats.simulate import (
    Sampler,
    SPDLogGaussianDescriptor,
    SphereCapDescriptor,
    mc_coverage,
    mc_type1,
)
from frechetstats.spaces import SPDSpace, SphereSpace
from frechetstats.spaces.spd import KEPT_LOG_SPREAD, spd_exp_sample
from frechetstats.spaces.sphere import _exp_rows, _karcher_means, _project_rows


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
    w, v = spd_module._eigh3(a)
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
    w, v = spd_module._eigh3(stack)
    for i in rng.choice(len(stack), size=40, replace=False):
        w1, v1 = spd_module._eigh3(stack[i : i + 1])
        assert np.array_equal(w1[0], w[i]) and np.array_equal(v1[0], v[i])


def test_jacobi_sends_unconverged_rows_to_eigh(monkeypatch):
    a = np.concatenate([STACKS["distinct"][:50], STACKS["diagonal"][:5]])
    monkeypatch.setattr(spd_module, "_JACOBI_SWEEPS", 0)
    w, v = spd_module._eigh3(a)
    # without a sweep every non-diagonal matrix is left to eigh
    w_ref, v_ref = np.linalg.eigh(a[:50])
    assert np.array_equal(w[:50], w_ref) and np.array_equal(v[:50], v_ref)
    assert np.array_equal(w[50:], np.diagonal(a[50:], axis1=1, axis2=2))
    assert np.array_equal(v[50:], np.tile(np.eye(3), (5, 1, 1)))


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
    # the truth's matrix, the exponential of the log it keeps
    assert sizes == [1]
    sizes.clear()
    assert mc_type1(sampler.space, sampler, 100, 100, reps, 0.05).failures == 0
    assert sizes == []
    # no drawn matrix, and no mean, is ever built
    assert jacobi == []


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


def _drawn_logs(n, seed=15):
    b = np.random.default_rng(seed).normal(scale=0.4, size=(n, 3, 3))
    return 0.5 * (b + np.swapaxes(b, 1, 2))


def _eager(logs):
    """The exponentials of a stack of logs as a draw built them before it
    was deferred: ``_spectral(exp(w), v)`` of one ``_eigh3`` of the stack."""
    w, v = spd_module._eigh3(logs)
    return spd_module._spectral(np.exp(w), v)


def test_deferred_draw_builds_the_eager_bits_whole_split_and_joined():
    logs = _drawn_logs(300)
    eager = _eager(logs)
    assert np.array_equal(spd_exp_sample(logs).data, eager)
    sizes = [120, 1, 179]
    parts = spd_exp_sample(logs).split(sizes)
    # read out of order: each part builds its own rows
    for i in (2, 0, 1):
        assert np.array_equal(parts[i].data, np.split(eager, np.cumsum(sizes)[:-1])[i])
    deferred = spd_exp_sample(logs).split(sizes)
    joined = Sample.join(deferred[::-1])
    assert np.array_equal(joined.data, np.concatenate([eager[121:], eager[120:121], eager[:120]]))
    # a join of a built part and deferred ones builds the rest
    mixed = spd_exp_sample(logs).split(sizes)
    assert np.array_equal(mixed[1].data, eager[120:121])
    assert np.array_equal(Sample.join(mixed).data, eager)


def test_deferred_draw_builds_the_eager_bits_one_replication_at_a_time(monkeypatch):
    sampler = Sampler(SPDSpace(3, "log_euclidean"),
                      SPDLogGaussianDescriptor(np.diag([0.4, 0.0, -0.3]), 0.15), 44)
    keys, n = list(range(6)), 30
    block = sampler.draw_many(n, keys)
    eager = _eager(ROW_CACHE[block])  # every log kept at these spreads
    jacobi = _calls_of_jacobi(monkeypatch)

    def batched(block, means):
        raise NoConvergence("fit one replication at a time")

    seen = []
    out = simulate._outcomes(sampler.space, keys, block, [n] * len(keys), batched,
                             lambda sample: seen.append(sample.data) or True, [])
    assert out == [True] * len(keys)
    assert jacobi == [n] * len(keys)  # each replication builds its own matrices
    assert np.array_equal(np.concatenate(seen), eager)


def test_deferred_draw_is_not_built_by_its_size_checks_or_parts(monkeypatch):
    jacobi = _calls_of_jacobi(monkeypatch)
    space = SPDSpace(3, "log_euclidean")
    sample = spd_exp_sample(_drawn_logs(50))
    assert len(sample) == 50 and sample.shape == (50, 3, 3)
    assert space.check_sample(sample) is sample
    joined = Sample.join(sample.split([20, 30])[::-1])
    assert len(joined) == 50
    truth = space.mean(joined)[0]  # a mean is built from its log, not from the draw
    assert len(Sample.of(truth)) == 1
    with pytest.raises(InvalidPoint):
        SPDSpace(2).check_sample(sample)
    assert jacobi == []
    built = sample.data
    assert jacobi == [50]
    assert sample.data is built and jacobi == [50]  # built once


def test_kept_logs_follow_the_exact_eigenvalues_near_the_spread_limit():
    rng = np.random.default_rng(16)
    m = 2000
    spreads = np.concatenate([np.linspace(29.9, 30.1, m - 400),
                              KEPT_LOG_SPREAD + rng.uniform(-1e-12, 1e-12, 400)])
    low = rng.uniform(-20.0, 5.0, m)
    # the middle eigenvalue anywhere between, or at the midpoint, where the
    # screening bound sqrt(2) ||L - tr(L)/3 I||_F is the spread itself
    middle = np.where(rng.random(m) < 0.5, low + rng.random(m) * spreads, low + 0.5 * spreads)
    logs = _rotated(rng, np.column_stack([low, middle, low + spreads]))
    sample = spd_exp_sample(logs)
    w = np.linalg.eigvalsh(logs)
    exact = w[:, -1] - w[:, 0] <= KEPT_LOG_SPREAD
    kept = ~np.isnan(ROW_CACHE[sample][:, 0, 0])
    assert 0 < exact.sum() < m
    assert np.array_equal(kept, exact)
    assert np.array_equal(ROW_CACHE[sample][kept], logs[kept])


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
    """The Karcher iteration on the (R, n, d+1) row layout, one length-(d+1)
    row at a time: the reference for ``_karcher_means``."""
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
def test_karcher_means_match_the_row_layout(ambient, radius, n):
    points = _cap_points(ambient, radius, n, 8)
    start = _project_rows(points.mean(axis=1))
    means, iterations = _karcher_means(points, start, MEAN_TOL, MEAN_MAX_ITER)
    ref_means, ref_iterations = _karcher_rows(points, start, MEAN_TOL, MEAN_MAX_ITER)
    assert np.array_equal(iterations, ref_iterations)
    assert np.max(np.abs(means - ref_means)) <= 1e-15


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
