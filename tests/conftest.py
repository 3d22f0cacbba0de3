"""Shared fixtures: random point generators per space, an
affine-reparameterized chart wrapper used by the invariance tests and the
Newton budget of the geodesic sphere's means."""

import numpy as np
import pytest

import frechetstats.spaces.sphere as sphere_module
from frechetstats.geometry import Chart, Space, euclidean_point, openbook_point, openbook_sample
from frechetstats.geometry import spd_point, sphere_point
from frechetstats.spaces import EuclideanSpace, OpenBookSpace, SPDSpace, SphereSpace
from frechetstats.spaces.spd import spd_expm, spd_vech_inv


def random_euclidean(rng, dim=3):
    return euclidean_point(rng.normal(size=dim))


def random_sphere(rng, ambient=3):
    v = rng.normal(size=ambient)
    return sphere_point(v / np.linalg.norm(v))


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


def random_spd(rng, p=3, log_scale=1.0):
    b = spd_vech_inv(log_scale * rng.normal(size=p * (p + 1) // 2), p)
    return spd_point(spd_expm(b))


def random_openbook_coords(rng, n_leaves=3, spine_dim=2, spine_prob=0.2):
    """Leaf label and half-space coordinates of a random open-book point."""
    if rng.random() < spine_prob:
        return 0, np.concatenate([[0.0], rng.normal(size=spine_dim)])
    leaf = int(rng.integers(1, n_leaves + 1))
    x0 = abs(rng.normal()) + 1e-12
    return leaf, np.concatenate([[x0], rng.normal(size=spine_dim)])


def random_openbook(rng, n_leaves=3, spine_dim=2, spine_prob=0.2):
    return openbook_point(*random_openbook_coords(rng, n_leaves, spine_dim, spine_prob))


def random_openbook_sample(rng, n):
    """n random points of the open book with 3 leaves and a 2-d spine, drawn
    as by n calls of random_openbook and validated as one Sample."""
    leaves, coords = zip(*(random_openbook_coords(rng) for _ in range(n)))
    return openbook_sample(leaves, np.stack(coords))


def space_instances():
    return [
        EuclideanSpace(3),
        SphereSpace(3, "intrinsic"),
        SphereSpace(3, "extrinsic"),
        SPDSpace(3, "euclidean"),
        SPDSpace(3, "log_euclidean"),
        OpenBookSpace(3, 2),
    ]


def random_point(space, rng):
    if space.kind == "euclidean":
        return random_euclidean(rng, space.dim)
    if space.kind == "sphere":
        return random_sphere(rng, space.ambient_dim)
    if space.kind == "spd":
        return random_spd(rng, space.p)
    return random_openbook(rng, space.n_leaves, space.spine_dim)


class AffineChart(Chart):
    """Chart composed with an invertible affine map y = A x + b."""

    def __init__(self, inner, mat, offset):
        self.inner = inner
        self.mat = np.asarray(mat, dtype=float)
        self.offset = np.asarray(offset, dtype=float)
        self.mat_inv = np.linalg.inv(self.mat)
        self.s = inner.s
        self.base = inner.base

    def _pull(self, y):
        return self.mat_inv @ (np.asarray(y, dtype=float) - self.offset)

    def forward(self, p):
        return self.mat @ self.inner.forward(p) + self.offset

    def forward_many(self, sample):
        return self.inner.forward_many(sample) @ self.mat.T + self.offset

    def inverse(self, y):
        return self.inner.inverse(self._pull(y))

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
        return AffineChart(self.inner.chart_at(base), self.mat, self.offset)

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
