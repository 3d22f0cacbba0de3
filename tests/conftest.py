"""Shared fixtures: random point generators per space, an
affine-reparameterized chart wrapper used by the invariance tests and the
Newton budget of the geodesic sphere's means."""

import numpy as np
import pytest

import frechetstats.spaces.sphere as sphere_module
from frechetstats.geometry import Chart, Space, euclidean_sample, openbook_sample, row_norms
from frechetstats.geometry import spd_sample, sphere_sample
from frechetstats.spaces import EuclideanSpace, OpenBookSpace, SPDSpace, SphereSpace
from frechetstats.spaces.openbook import _folded_means
from frechetstats.spaces.spd import _vech_inv_rows, spd_expm
from frechetstats.spaces.sphere import _exp_rows


def seed_sequence_stream(seed, key):
    """numpy's own Generator on the Philox stream of ``key`` under ``seed``."""
    key = key if isinstance(key, tuple) else (key,)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def count_logm(monkeypatch):
    """The number of matrices of every later ``spd_logm`` call, as a list."""
    import frechetstats.spaces.spd as spd_module

    calls = []
    logm = spd_module.spd_logm

    def counted(mats):
        calls.append(len(mats))
        return logm(mats)

    monkeypatch.setattr(spd_module, "spd_logm", counted)
    return calls


def vech_matrices(rows, p):
    """The symmetric p x p matrices of (n, p(p+1)/2) vech rows, scattered
    entry by entry into zeroed matrices: the reference for the gather of
    ``spaces.spd._unvech_rows``."""
    rows = np.asarray(rows, dtype=float)
    b = np.zeros((len(rows), p, p))
    upper = np.triu_indices(p, k=1)
    b[:, np.arange(p), np.arange(p)] = rows[:, :p]
    b[:, upper[0], upper[1]] = b[:, upper[1], upper[0]] = rows[:, p:] / np.sqrt(2.0)
    return b


def random_spd_sample(rng, size, p=3, log_scale=1.0):
    """``size`` random SPD matrices, the exponentials of Gaussian symmetric
    matrices drawn as one array, as one Sample."""
    logs = _vech_inv_rows(log_scale * rng.normal(size=(size, p * (p + 1) // 2)), p)
    return spd_sample(spd_expm(logs))


def random_spd(rng, p=3, log_scale=1.0):
    return random_spd_sample(rng, 1, p, log_scale)


def random_openbook_sample(rng, size, n_leaves=3, spine_dim=2, spine_prob=0.2):
    """``size`` random open-book points, each on the spine with probability
    ``spine_prob`` and otherwise on a uniform leaf at height |N(0, 1)| +
    1e-12, with standard normal spine coordinates, drawn as arrays and
    validated as one Sample."""
    spine = rng.random(size) < spine_prob
    leaves = np.where(spine, 0, rng.integers(1, n_leaves + 1, size))
    x0 = np.where(spine, 0.0, np.abs(rng.normal(size=size)) + 1e-12)
    return openbook_sample(leaves, np.column_stack([x0, rng.normal(size=(size, spine_dim))]))


def positive_folded_means(rng, sizes):
    """The number of positive folded means of a random sample of each size
    of ``sizes`` on the open book with 3 leaves and a 1-d spine, grouped by
    size: one batched call of ``openbook_moments``' kernel per size."""
    counts = []
    for n in np.unique(sizes):
        reps = int(np.sum(sizes == n))
        sample = random_openbook_sample(rng, reps * n, 3, 1)
        heights = sample.data[:, 0].reshape(reps, n)
        folded = _folded_means(sample.leaves.reshape(reps, n), heights, 3)
        counts.append(np.sum(folded > 0.0, axis=1))
    return np.concatenate(counts)


def random_points(space, rng, size):
    """A Sample of ``size`` random points of ``space``, drawn as arrays."""
    if space.kind == "euclidean":
        return euclidean_sample(rng.normal(size=(size, space.dim)))
    if space.kind == "sphere":
        v = rng.normal(size=(size, space.ambient_dim))
        return sphere_sample(v / row_norms(v)[:, None])
    if space.kind == "spd":
        return random_spd_sample(rng, size, space.p)
    return random_openbook_sample(rng, size, space.n_leaves, space.spine_dim)


def random_point(space, rng):
    return random_points(space, rng, 1)


def sphere_exp_sample(base, v):
    """The sphere Sample of exp_base(v) of each row of an (n, d+1) ``v``, by
    the sphere's exponential-map kernel."""
    return sphere_sample(_exp_rows(np.asarray(base, dtype=float), np.asarray(v, dtype=float)))


def sphere_exp_point(base, v):
    """The one-row sphere Sample of exp_base(v), by the sphere's
    exponential-map kernel."""
    return sphere_exp_sample(base, np.asarray(v, dtype=float)[None])


def space_instances():
    return [
        EuclideanSpace(3),
        SphereSpace(3, "intrinsic"),
        SphereSpace(3, "extrinsic"),
        SPDSpace(3, "euclidean"),
        SPDSpace(3, "log_euclidean"),
        OpenBookSpace(3, 2),
    ]


class AffineChart(Chart):
    """Chart composed with an invertible affine map y = A x + b."""

    def __init__(self, space, inner, mat, offset):
        self.space = space
        self.inner = inner
        self.mat = np.asarray(mat, dtype=float)
        self.offset = np.asarray(offset, dtype=float)
        self.mat_inv = np.linalg.inv(self.mat)
        self.s = inner.s

    def _pull(self, y):
        return (np.asarray(y, dtype=float) - self.offset) @ self.mat_inv.T

    def forward_many(self, sample):
        return self.inner.forward_many(sample) @ self.mat.T + self.offset

    def pack(self, sample):
        return self.inner.pack(sample)

    def h_many(self, y, packed):
        return self.inner.h_many(self._pull(y), packed)


class AffineChartSpace(Space):
    """Same metric space and means, charts reparameterized by a fixed affine
    map; derivative information flows through central differences only."""

    def __init__(self, inner, mat, offset):
        self.inner = inner
        self.mat = mat
        self.offset = offset
        self.kind = inner.kind
        self.chart_dim = inner.chart_dim
        self.mean_strategy = inner.mean_strategy

    def distance_many(self, sample, q):
        return self.inner.distance_many(sample, q)

    def chart_at(self, base):
        return AffineChart(self, self.inner.chart_at(base), self.mat, self.offset)

    def mean_many(self, sample, reps):
        return self.inner.mean_many(sample, reps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def newton_budget(monkeypatch):
    """``newton_budget(max_iter, tol=MEAN_TOL)`` sets, for the test, the
    iteration budget and gradient-norm tolerance that the geodesic sphere's
    Newton means read when they run."""

    def set_budget(max_iter, tol=sphere_module.MEAN_TOL):
        monkeypatch.setattr(sphere_module, "MEAN_MAX_ITER", max_iter)
        monkeypatch.setattr(sphere_module, "MEAN_TOL", tol)

    return set_budget
