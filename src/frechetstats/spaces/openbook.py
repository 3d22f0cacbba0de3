"""Open book: K half-spaces R^D x [0, inf) glued along the shared spine R^D.

A point is (leaf k; x0, x1, ..., xD) with x0 > 0 on leaves and x0 = 0 on
the spine (leaf 0).  Within one closed leaf the distance is Euclidean;
across leaves the path runs through the spine, which amounts to reflecting
one point's x0 across the spine.  Folding leaf k to the full hyperplane
(identity on leaf k and the spine, x0 negated elsewhere) turns the Frechet
function into an ordinary least-squares problem, so sample means are exact:
the mean sits on leaf k at height m_k when the folded mean m_k is positive,
and on the spine when every m_k <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidPoint
from ..geometry import Chart, FlatChart, Sample, Space, as_sample, openbook_point, row_norms


def _fold(sample, k):
    """The rows of a Sample folded by f_k, as a new (n, D+1) array: x0 is
    negated on the rows of leaves other than k (kept on leaf k and the
    spine).  ``k == 0`` negates every leaf row's x0."""
    folded = np.array(sample.data)
    other = (sample.leaves != k) & (sample.leaves != 0)
    folded[other, 0] = -folded[other, 0]
    return folded


def _distances(sample, q):
    """Distance from each point of a Sample to the point ``q``: the
    Euclidean distance of the half-space coordinates after folding the
    sample onto q's leaf, which reflects x0 across the spine exactly for
    the points of other leaves."""
    return row_norms(_fold(sample, q.leaf) - q.data)


def openbook_distance(a, b):
    """Distance between two open-book points.

    Same leaf (or either point on the spine): Euclidean distance of the
    half-space coordinates.  Different leaves: Euclidean distance after
    reflecting one x0, i.e. sqrt((x0 + y0)^2 + ||rest difference||^2).
    """
    return float(_distances(Sample.of(a), b)[0])


def openbook_fold(k, p):
    """Folding map f_k: identity on leaf k and the spine, x0 negated on
    other leaves.  Returns a plain (D+1,) vector."""
    if k < 1:
        raise ValueError("fold index must be a leaf label >= 1")
    return _fold(Sample.of(p), k)[0]


@dataclass(frozen=True)
class OpenBookMoments:
    """Sample moments driving the location of the open-book mean.

    ``folded_means[k-1]`` is the sample mean of the zero-th coordinate of
    f_k; ``leaf_weights[k-1]`` the fraction of the sample on leaf k;
    ``spine_mean`` the mean of coordinates 1..D over the whole sample.
    """

    leaf_weights: np.ndarray
    folded_means: np.ndarray
    spine_mean: np.ndarray
    spine_fraction: float
    n: int


@dataclass(frozen=True)
class Classification:
    """Stratum of the mean: kind is ``leaf`` (m_k > 0), ``spine`` (all
    m_k < 0), or ``boundary`` (max_k m_k exactly 0)."""

    kind: str
    leaf: int | None = None


def _winner(folded):
    """Leaf label (1..K) of the largest folded mean along the last axis, and
    that mean: the Frechet mean lies on this leaf when it is positive, at
    the boundary when it is 0, and on the spine otherwise."""
    k = np.argmax(folded, axis=-1)
    return k + 1, np.take_along_axis(folded, k[..., None], axis=-1)[..., 0]


def _folded_means(leaves, x0, n_leaves):
    """(..., K) folded means of the samples whose (..., n) leaf labels and
    heights are given.  f_k keeps leaf-k heights, negates the others and
    fixes the spine, so its mean height is (2 s_k - total) / n, where the
    leaf sums s_k run over whole rows with the other leaves' heights
    zeroed."""
    on_leaf = leaves[..., None, :] == np.arange(1, n_leaves + 1)[:, None]  # (..., K, n)
    sums = np.where(on_leaf, x0[..., None, :], 0.0).sum(axis=-1)
    return (2.0 * sums - x0.sum(axis=-1)[..., None]) / x0.shape[-1]


def openbook_moments(sample, n_leaves=None):
    """Per-leaf occupation weights, folded means and the spine-block mean.

    ``n_leaves`` defaults to the largest leaf label present in the sample.
    """
    sample = as_sample(sample)
    leaves = sample.leaves
    coords = sample.data
    k_max = int(leaves.max(initial=0))
    n_leaves = k_max if n_leaves is None else int(n_leaves)
    if n_leaves < k_max:
        raise InvalidPoint("sample contains leaf labels beyond n_leaves")
    n = len(sample)
    counts = np.bincount(leaves, minlength=n_leaves + 1)
    return OpenBookMoments(
        leaf_weights=counts[1:] / n,
        folded_means=_folded_means(leaves, coords[:, 0], n_leaves),
        spine_mean=coords[:, 1:].mean(axis=0),
        spine_fraction=float(counts[0]) / n,
        n=n,
    )


def openbook_classify(moments):
    """Trichotomy of the mean's stratum from the folded means.

    At most one folded mean can be positive; the boundary case uses an
    exact zero (it has probability zero under continuous sampling).
    """
    m = moments.folded_means
    if m.size == 0:
        return Classification("spine")
    leaf, top = _winner(m)
    if top > 0.0:
        return Classification("leaf", int(leaf))
    if top == 0.0:
        return Classification("boundary", int(leaf))
    return Classification("spine")


def openbook_frechet_mean(sample, n_leaves=None):
    """Exact sample Frechet mean of an open-book sample (the batch of one of
    ``OpenBookSpace.mean_many``).

    ``n_leaves`` defaults to the largest leaf label present (at least 2);
    leaves the sample does not reach do not move the mean.
    """
    sample = as_sample(sample)
    n_leaves = max(int(sample.leaves.max()), 2) if n_leaves is None else n_leaves
    return OpenBookSpace(n_leaves, sample.data.shape[1] - 1).mean(sample)[0]


class OpenBookLeafChart(FlatChart):
    """Chart of a leaf stratum: the folding map f_k, s = D + 1, with
    h(x; q) = ||x - f_k(q)||^2."""

    def __init__(self, space, base):
        self.s = space.spine_dim + 1
        self.base = base
        self.leaf = base.leaf
        self.space = space

    def inverse(self, x):
        x = np.asarray(x, dtype=float)
        if x[0] < 0.0:
            raise InvalidPoint("coordinates outside the closed-leaf chart domain")
        return openbook_point(self.leaf if x[0] > 0.0 else 0, x)

    def pack(self, sample):
        """The folded sample f_k(Y_j), as an (n, D+1) matrix."""
        return _fold(sample, self.leaf)


class OpenBookSpineChart(Chart):
    """Chart of the spine stratum, s = D; the x0 offsets of the sample enter
    h only as an additive constant."""

    def __init__(self, space, base):
        self.s = space.spine_dim
        self.base = base
        self.space = space

    def inverse(self, x):
        return openbook_point(0, np.concatenate([[0.0], np.asarray(x, dtype=float)]))

    def pack(self, sample):
        return sample.data[:, 0] ** 2, sample.data[:, 1:]

    def forward_many(self, sample):
        if np.any(sample.leaves != 0):
            raise InvalidPoint("spine chart is only defined on the spine")
        return np.ascontiguousarray(sample.data[:, 1:])

    def h_many(self, x, packed):
        x0sq, rest = packed
        diff = rest - np.asarray(x, dtype=float)
        return x0sq + np.einsum("ij,ij->i", diff, diff)

    def grad_h_many(self, x, packed):
        _, rest = packed
        return 2.0 * (np.asarray(x, dtype=float) - rest)

    def hess_h_mean(self, x, packed):
        return 2.0 * np.eye(self.s)


class OpenBookSpace(Space):
    """Open book with ``n_leaves`` leaves glued along a D-dimensional spine."""

    kind = "openbook"
    mean_strategy = "openbook_exact"

    def __init__(self, n_leaves, spine_dim):
        if n_leaves < 2:
            raise ValueError("an open book needs at least 2 leaves")
        if spine_dim < 0:
            raise ValueError("spine dimension must be >= 0")
        self.n_leaves = int(n_leaves)
        self.spine_dim = int(spine_dim)
        self.chart_dim = self.spine_dim + 1
        self.point_shape = (self.spine_dim + 1,)

    def __repr__(self):
        return f"OpenBookSpace(n_leaves={self.n_leaves}, spine_dim={self.spine_dim})"

    def check_point(self, p):
        super().check_point(p)
        self._check_leaf(p.leaf)

    def check_sample(self, sample):
        sample = super().check_sample(sample)
        self._check_leaf(int(sample.leaves.max()))
        return sample

    def _check_leaf(self, leaf):
        if leaf > self.n_leaves:
            raise InvalidPoint(f"leaf label {leaf} exceeds n_leaves={self.n_leaves}")

    def distance_many(self, sample, q):
        self.check_point(q)
        return _distances(sample, q)

    def chart_at(self, base):
        self.check_point(base)
        if base.leaf == 0:
            return OpenBookSpineChart(self, base)
        return OpenBookLeafChart(self, base)

    def initial_guess(self, sample):
        return self.mean(sample)[0]

    def mean_many(self, sample, reps, **_):
        """Exact sample Frechet means, after 0 iterations: the squared
        distance separates into the folded x0 and the spine block, so a
        replication's mean is (k; m_k, mean of rest) when its largest folded
        mean m_k is positive, otherwise the spine point (0; 0, mean of rest).
        """
        data = sample.data.reshape(reps, -1, self.spine_dim + 1)
        folded = _folded_means(sample.leaves.reshape(reps, -1), data[..., 0], self.n_leaves)
        leaf, top = _winner(folded)
        on_leaf = top > 0.0
        coords = np.column_stack([np.where(on_leaf, top, 0.0), data[..., 1:].mean(axis=1)])
        # valid by construction: x0 > 0 exactly on the leaves
        return Sample(self.kind, coords, np.where(on_leaf, leaf, 0)), np.zeros(reps, dtype=int)
