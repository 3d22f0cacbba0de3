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

from ..errors import InvalidDescriptor, InvalidPoint, MixedSpacePoints
from ..geometry import FlatChart, Sample, Space, as_sample, group_differences, row_norms


def _fold(sample, k):
    """The rows of a Sample folded by f_k, as a new (n, D+1) array: x0 is
    negated on the rows of leaves other than k (kept on leaf k and the
    spine).  ``k == 0`` negates every leaf row's x0.  ``k`` may also be an
    (R,) array of leaves, one per group of R equal groups of rows."""
    folded = np.array(sample.data)
    leaves = sample.leaves.reshape(np.shape(k) + (-1,))
    other = ((leaves != np.asarray(k)[..., None]) & (leaves != 0)).reshape(-1)
    folded[other, 0] = -folded[other, 0]
    return folded


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
    MixedSpacePoints refuses a Sample of another kind.
    """
    sample = as_sample(sample)
    if sample.kind != "openbook":
        raise MixedSpacePoints(f"expected an openbook sample, got {sample.kind}")
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


class OpenBookLeafChart(FlatChart):
    """Charts of a leaf stratum: the folding map f_k, s = D + 1, with
    h(x; q) = ||x - f_k(q)||^2.  At R bases on leaves, the i-th chart folds
    onto the i-th base's leaf, of the (R,) ``leaves``."""

    def __init__(self, space, leaves):
        super().__init__(space)
        self.leaves = leaves

    def pack(self, sample):
        """The folded sample f_k(Y_j), as an (n, D+1) matrix."""
        return _fold(sample, self.leaves)


class OpenBookSpineChart(FlatChart):
    """Chart of the spine stratum, s = D, the same at every spine base: flat
    in the spine coordinates, the x0 of the sample entering h only as the
    additive x0^2.  So the test images are every point's spine coordinates."""

    def __init__(self, space):
        super().__init__(space)
        self.s = space.spine_dim

    def pack(self, sample):
        """(n, D+1) rows of x0^2, then the spine coordinates."""
        return np.column_stack([sample.data[:, 0] ** 2, sample.data[:, 1:]])

    def forward_many(self, sample):
        sample = self.space.check_sample(sample)
        if np.any(sample.leaves != 0):
            raise InvalidPoint("spine chart is only defined on the spine", sample.leaves != 0)
        return self.test_images(sample)

    def test_images(self, sample):
        return np.ascontiguousarray(sample.data[:, 1:])

    def h_many(self, x, packed):
        return packed[..., 0] + super().h_many(x, packed[..., 1:])

    def grad_h_many(self, x, packed):
        return super().grad_h_many(x, packed[..., 1:])


class OpenBookSpace(Space):
    """Open book with ``n_leaves`` leaves glued along a D-dimensional spine."""

    kind = "openbook"
    mean_strategy = "openbook_exact"

    def __init__(self, n_leaves, spine_dim):
        if n_leaves < 2:
            raise InvalidDescriptor("an open book needs at least 2 leaves")
        if spine_dim < 0:
            raise InvalidDescriptor("spine dimension must be >= 0")
        self.n_leaves = int(n_leaves)
        self.spine_dim = int(spine_dim)
        self.chart_dim = self.spine_dim + 1
        self.point_shape = (self.spine_dim + 1,)

    def __repr__(self):
        return f"OpenBookSpace(n_leaves={self.n_leaves}, spine_dim={self.spine_dim})"

    def check_sample(self, sample):
        sample = super().check_sample(sample)
        leaf = int(sample.leaves.max())
        if leaf > self.n_leaves:
            raise InvalidPoint(f"leaf label {leaf} exceeds n_leaves={self.n_leaves}")
        return sample

    def distance_many(self, sample, q):
        """The Euclidean distances of the half-space coordinates after
        folding each group of rows onto its target's leaf, which reflects x0
        across the spine exactly for the points of other leaves."""
        q = self.targets(sample, q)
        return row_norms(group_differences(_fold(sample, q.leaves), q.data))

    def chart_at(self, base):
        """Stacked charts lie in one stratum, all on the spine or all on leaves."""
        leaves = self.check_sample(base).leaves
        if leaves.all() != leaves.any():
            raise InvalidPoint("stacked chart bases lie in different strata (spine and leaves)")
        if leaves.any():
            return OpenBookLeafChart(self, leaves)
        return OpenBookSpineChart(self)

    def mean_many(self, sample, reps):
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
