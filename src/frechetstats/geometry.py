"""Core abstractions: tagged points and validated samples, sample-space
descriptors and charts, finite differences, and the empirical Frechet
function.

A *space* bundles a distance with a chart ``phi`` mapping a neighborhood of
the mean onto an open subset of R^s; ``h(x; q) = distance(phi^-1(x), q)^2``
is the squared-distance function expressed in chart coordinates.  Everything
downstream (mean estimation, sandwich covariances, two-sample tests) works on
``h`` and its first two derivatives.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPoint, MixedSpacePoints, NonFiniteValue

_EPS = float(np.finfo(float).eps)

#: Step scale for first-order central differences, eps**(1/3); the step
#: along coordinate r is the scale times max(1, |x_r|).
GRADIENT_STEP_SCALE = _EPS ** (1.0 / 3.0)

#: Step scale for second-order central differences, eps**(1/4).
#: The larger step keeps the roundoff error of the twice-differenced
#: quadratic terms below ~1e-6.
HESSIAN_STEP_SCALE = _EPS ** 0.25

#: tolerance of a sphere point's unit norm and of an SPD matrix's symmetry
POINT_ATOL = 1e-12

#: default gradient-norm tolerance and iteration budget of the iterative means
MEAN_TOL = 1e-10
MEAN_MAX_ITER = 200

#: read-only per-row arrays derived from a Sample's rows (an SPD sample's
#: matrix logs, NaN in the rows not taken yet), kept while the Sample lives;
#: ``Sample.split`` and ``Sample.join`` carry them to the parts and to the
#: joined Sample, and a Point taken from a Sample carries its row (kept
#: with the Point) to ``Sample.of`` and ``as_sample``
ROW_CACHE = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class Point:
    """Element of one of the supported sample spaces.

    ``kind`` is one of ``euclidean | sphere | spd | openbook``; ``data``
    holds the coordinate payload (vector, unit vector, SPD matrix, or the
    half-space coordinates ``(x0, x1, ..., xD)``).  ``leaf`` is meaningful
    for open-book points only: leaf 0 is the spine, and spine points always
    carry ``leaf == 0`` and ``x0 == 0``.
    """

    kind: str
    data: np.ndarray
    leaf: int = 0

    def close_to(self, other, atol=1e-12):
        if self.kind != other.kind or self.leaf != other.leaf:
            return False
        return bool(np.allclose(self.data, other.data, rtol=0.0, atol=atol))

    def __repr__(self):
        if self.kind == "openbook":
            return f"Point(openbook, leaf={self.leaf}, {np.array2string(self.data, precision=6)})"
        return f"Point({self.kind}, {np.array2string(self.data, precision=6)})"


@dataclass(frozen=True, eq=False)
class Sample:
    """Batch of n points of one kind, the form every sample takes inside
    the library.

    ``data`` is the read-only ``(n, ...)`` array of the points' payloads and
    ``leaves`` the read-only ``(n,)`` leaf labels of an open-book sample
    (None for the other kinds).  The constructors ``euclidean_sample``,
    ``sphere_sample``, ``spd_sample`` and ``openbook_sample`` validate the
    whole batch at once.  ``len``, indexing and iteration give Points.

    A Sample built with ``build`` is deferred: its ``data`` is
    ``build(rows)`` of the ``rows`` it was given, computed when ``data`` is
    first read (a drawn SPD stack holds its matrix logs and exponentiates
    them then).  ``build`` maps each row on its own and keeps the array's
    shape, so ``len``, ``shape``, ``split`` and ``join`` never call it, and a
    row's data has the same bits whichever part of a stack builds it.
    """

    kind: str
    _rows: np.ndarray
    leaves: np.ndarray | None = None
    _build: object = None

    def __post_init__(self):
        self._rows.setflags(write=False)
        if self.leaves is not None:
            self.leaves.setflags(write=False)

    @property
    def data(self):
        """The read-only (n, ...) payloads, built on the first read of a
        deferred Sample."""
        if self._build is not None:
            data = self._build(self._rows)
            data.setflags(write=False)
            object.__setattr__(self, "_rows", data)
            object.__setattr__(self, "_build", None)
        return self._rows

    @property
    def shape(self):
        """The shape of ``data``, read without building it."""
        return self._rows.shape

    def __len__(self):
        return self._rows.shape[0]

    def __getitem__(self, i):
        leaf = 0 if self.leaves is None else int(self.leaves[i])
        point = Point(self.kind, self.data[i], leaf)
        cached = ROW_CACHE.get(self)
        if cached is not None:
            ROW_CACHE[point] = cached[i]
        return point

    def split(self, sizes):
        """The consecutive Samples of ``sizes`` rows each that make up this
        one (deferred when it is), each with its rows of this one's cached
        row array."""
        stops = np.cumsum(sizes)[:-1]
        leaves = [None] * len(sizes) if self.leaves is None else np.split(self.leaves, stops)
        parts = [Sample(self.kind, rows, lv, self._build)
                 for rows, lv in zip(np.split(self._rows, stops), leaves)]
        cached = ROW_CACHE.get(self)
        if cached is not None:
            for part, rows in zip(parts, np.split(cached, stops)):
                ROW_CACHE[part] = rows  # read-only views
        return parts

    @classmethod
    def join(cls, parts):
        """The Sample of the rows of ``parts`` (Samples of one kind) in
        order, deferred when every part is deferred alike, with their cached
        row arrays joined when every part has one."""
        leaves = None if parts[0].leaves is None else np.concatenate([p.leaves for p in parts])
        build = parts[0]._build
        if any(p._build is not build for p in parts):
            build = None
        payloads = [p.data if build is None else p._rows for p in parts]
        joined = cls(parts[0].kind, np.concatenate(payloads), leaves, build)
        cached = [ROW_CACHE.get(p) for p in parts]
        if all(rows is not None for rows in cached):
            rows = np.concatenate(cached)
            rows.setflags(write=False)
            ROW_CACHE[joined] = rows
        return joined

    @classmethod
    def of(cls, p):
        """The Point ``p``, validated when it was built, as a Sample of one
        (not validated again), with its row of the cached row array of the
        Sample it was taken from."""
        sample = cls(p.kind, p.data[None], np.array([p.leaf]) if p.kind == "openbook" else None)
        cached = ROW_CACHE.get(p)
        if cached is not None:
            ROW_CACHE[sample] = cached[None]
        return sample


def _finite_rows(values, ndim):
    a = np.array(values, dtype=float, order="C")
    if a.ndim != ndim:
        raise InvalidPoint(f"expected a batch of {ndim - 1}-d payloads, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidPoint("point payload contains non-finite entries")
    return a


def row_dots(a, b):
    """Dot product of each row of an (..., k) array ``a`` with the matching
    row of ``b`` (leading axes broadcast), computed row by row exactly as
    np.dot computes the product of two vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_norms(rows):
    """Euclidean norm of each row of an (..., k) array, computed row by row
    exactly as np.linalg.norm computes the norm of one vector."""
    return np.sqrt(row_dots(rows, rows))


def row_products(rows, matrix):
    """``rows @ matrix`` for an (..., k) array, computed row by row as one
    vector times ``matrix`` (a (k, m) matrix, or a stack that broadcasts
    against the rows), so that a row's result does not depend on the other
    rows (a single matrix product of R rows need not round them all
    alike)."""
    return (rows[..., None, :] @ matrix)[..., 0, :]


def euclidean_sample(rows):
    """Sample of R^s from an (n, s) array."""
    return Sample("euclidean", _finite_rows(rows, 2))


def sphere_sample(rows):
    """Sample of S^d from an (n, d+1) array of unit vectors; each row's norm
    must be 1 within POINT_ATOL, and the row is divided by it."""
    a = _finite_rows(rows, 2)
    nrm = row_norms(a)
    bad = np.flatnonzero(np.abs(nrm - 1.0) > POINT_ATOL)
    if bad.size:
        raise InvalidPoint(
            f"sphere point has norm {float(nrm[bad[0]])!r}, not 1 within {POINT_ATOL}"
        )
    return Sample("sphere", a / nrm[:, None])


def spd_sample(mats):
    """Sample of SPD matrices from an (n, p, p) array; each matrix must be
    symmetric within POINT_ATOL (it is then symmetrized) and positive
    definite."""
    m = _finite_rows(mats, 3)
    if m.shape[1] != m.shape[2]:
        raise InvalidPoint("spd payload must be a square matrix")
    mt = np.swapaxes(m, 1, 2)
    if not np.allclose(m, mt, rtol=0.0, atol=POINT_ATOL):
        raise InvalidPoint("spd payload is not symmetric within tolerance")
    m = 0.5 * (m + mt)
    if np.any(np.linalg.eigvalsh(m)[:, 0] <= 0.0):
        raise InvalidPoint("spd payload has a non-positive eigenvalue")
    return Sample("spd", m)


def openbook_sample(leaves, coords):
    """Open-book sample from (n,) leaf labels and (n, D+1) half-space
    coordinates with x0 >= 0.

    Rows with ``x0 == 0`` lie on the spine and are canonicalized to leaf 0,
    so equality of glued boundary points is well defined.
    """
    c = _finite_rows(coords, 2)
    labels = np.asarray(leaves).astype(int)
    if c.shape[1] == 0 or labels.shape != (c.shape[0],):
        raise InvalidPoint("open-book sample needs one leaf label per row of coordinates")
    if np.any(c[:, 0] < 0.0):
        raise InvalidPoint("open-book coordinate x0 must be nonnegative")
    if np.any(labels < 0):
        raise InvalidPoint("leaf label must be nonnegative")
    labels = np.where(c[:, 0] == 0.0, 0, labels)
    if np.any((labels == 0) & (c[:, 0] > 0.0)):
        raise InvalidPoint("spine points (leaf 0) must have x0 == 0")
    return Sample("openbook", c, labels)


def as_sample(sample):
    """``sample`` as one Sample: a Sample is returned as is, a sequence of
    Points of one kind (validated when they were built) is stacked once,
    with their cached rows when every Point has one."""
    if len(sample) == 0:
        raise ValueError("sample must be nonempty")
    if isinstance(sample, Sample):
        return sample
    kind = sample[0].kind
    leaves = np.array([p.leaf for p in sample]) if kind == "openbook" else None
    stacked = Sample(kind, np.stack([p.data for p in sample]), leaves)
    cached = [ROW_CACHE.get(p) for p in sample]
    if all(row is not None for row in cached):
        rows = np.stack(cached)
        rows.setflags(write=False)
        ROW_CACHE[stacked] = rows
    return stacked


def euclidean_point(v):
    """Point of R^s."""
    return euclidean_sample(np.atleast_1d(np.asarray(v, dtype=float))[None])[0]


def sphere_point(v):
    """Unit vector in R^{d+1}; the norm must already be 1 within POINT_ATOL."""
    return sphere_sample(np.atleast_1d(np.asarray(v, dtype=float))[None])[0]


def spd_point(a):
    """Symmetric positive definite matrix."""
    return spd_sample(np.asarray(a, dtype=float)[None])[0]


def openbook_point(leaf, coords):
    """Open-book point: leaf label plus half-space coordinates (x0 >= 0);
    a point with ``x0 == 0`` is on the spine (leaf 0)."""
    return openbook_sample([int(leaf)], np.atleast_1d(np.asarray(coords, dtype=float))[None])[0]


def _check_finite(value):
    if not np.all(np.isfinite(value)):
        raise NonFiniteValue("function returned a non-finite value at a probe point")
    return value


def numeric_gradient(f, x):
    """Central differences along the last axis of ``x``, with the step
    GRADIENT_STEP_SCALE * max(1, |x_r|) along coordinate r, at one point (s,)
    or a stack (R, s) that ``f`` maps row by row.

    Of a scalar map the gradient, (..., s); of a vector map ``R^s -> R^n``
    the (..., n, s) rows of per-component gradients, which differentiate
    ``h(.; Y_j)`` for all sample points at once when a chart has no
    analytic gradient.  Raises NonFiniteValue if any probe evaluation is
    NaN or infinite.
    """
    x = np.asarray(x, dtype=float)
    steps = GRADIENT_STEP_SCALE * np.maximum(1.0, np.abs(x))
    cols = []
    for r in range(x.shape[-1]):
        e = np.zeros_like(x)
        e[..., r] = steps[..., r]
        fp = _check_finite(np.asarray(f(x + e), dtype=float))
        fm = _check_finite(np.asarray(f(x - e), dtype=float))
        # one step per point, broadcast over the components of a vector map
        step = steps[..., r].reshape(steps.shape[:-1] + (1,) * (fp.ndim - x.ndim + 1))
        cols.append((fp - fm) / (2.0 * step))
    if not cols:
        return np.zeros(np.shape(f(x)) + (0,))
    return np.stack(cols, axis=-1)


def numeric_hessian(f, x):
    """Second central differences along the last axis of ``x``, with the
    step HESSIAN_STEP_SCALE * max(1, |x_r|) along coordinate r, symmetrized
    as (H + H^T)/2: (s, s) at one point x (s,), or (R, s, s) at a stack
    (R, s) of points that the scalar map ``f`` maps row by row to (R,)
    values."""
    x = np.asarray(x, dtype=float)
    steps = HESSIAN_STEP_SCALE * np.maximum(1.0, np.abs(x))
    s = x.shape[-1]
    h = np.empty(x.shape + (s,))
    f0 = _check_finite(f(x))
    for r in range(s):
        er = np.zeros_like(x)
        er[..., r] = steps[..., r]
        fp = _check_finite(f(x + er))
        fm = _check_finite(f(x - er))
        h[..., r, r] = (fp - 2.0 * f0 + fm) / steps[..., r] ** 2
        for c in range(r + 1, s):
            ec = np.zeros_like(x)
            ec[..., c] = steps[..., c]
            fpp = _check_finite(f(x + er + ec))
            fpm = _check_finite(f(x + er - ec))
            fmp = _check_finite(f(x - er + ec))
            fmm = _check_finite(f(x - er - ec))
            mixed = (fpp - fpm - fmp + fmm) / (4.0 * steps[..., r] * steps[..., c])
            h[..., r, c] = h[..., c, r] = mixed
    return 0.5 * (h + np.swapaxes(h, -1, -2))


class Chart(ABC):
    """Chart ``phi: G -> U`` of a space, anchored at a base point.

    Subclasses provide the row forms: the chart map ``forward_many`` of a
    Sample, the inverse map, and a vectorized squared distance ``h_many``;
    ``forward`` of one point is the batch of one of ``forward_many``.
    Analytic derivative hooks may return ``None`` when a closed form is
    unavailable at the requested point, in which case callers fall back to
    central differences on ``h_many``.  The chart map and its inverse
    refuse a point outside the chart's domain; ``test_images``, the linear
    images a two-sample test compares, may map every point.

    A chart may be anchored at a Sample of R base points (of one stratum
    on the open book): it is then the R charts at once.  ``forward_many``
    and ``test_images`` map the i-th of R equal groups of consecutive
    sample rows in the i-th chart, ``pack`` returns an array whose rows
    regroup as (R, n, ...), and ``h_many`` and the derivative hooks take
    coordinates (R, s) and a packed sample per chart, (R, n, ...), and
    return their results with a leading axis R.
    """

    #: chart dimension s
    s: int
    #: base point the chart is anchored at
    base: Point
    #: the space the chart belongs to
    space: Space

    def forward(self, p):
        """Chart coordinates phi(p) in R^s."""
        self.space.check_point(p)
        return self.forward_many(Sample.of(p))[0]

    @abstractmethod
    def inverse(self, x):
        """Point phi^-1(x) for x in the chart domain."""

    @abstractmethod
    def pack(self, sample):
        """Precompute, from a Sample, arrays reused across h/derivative calls."""

    @abstractmethod
    def h_many(self, x, packed):
        """Vector of h(x; Y_j) = distance(phi^-1(x), Y_j)^2 over the sample."""

    @abstractmethod
    def forward_many(self, sample):
        """Chart coordinates of every point of a Sample, as an (n, s) matrix."""

    def test_images(self, sample):
        """The (n, s) images a two-sample test compares: the chart map."""
        return self.forward_many(sample)

    def h(self, x, q):
        return float(self.h_many(np.asarray(x, dtype=float), self.pack(Sample.of(q)))[0])

    def grad_h_many(self, x, packed):
        """Analytic (n, s) gradient rows of h(.; Y_j) at x, or None."""
        return None

    def hess_h_mean(self, x, packed):
        """Analytic s x s Hessian of the averaged h at x, or None."""
        return None


class FlatChart(Chart):
    """Chart in which h(x; Y_j) = ||x - y_j||^2 exactly, for the rows y_j
    that ``pack`` returns (the chart images; by default the payloads
    themselves), so the derivatives are analytic."""

    def pack(self, sample):
        return sample.data

    def forward_many(self, sample):
        return self.pack(sample)

    def h_many(self, x, packed):
        diff = packed - np.asarray(x, dtype=float)[..., None, :]
        return np.einsum("...ij,...ij->...i", diff, diff)

    def grad_h_many(self, x, packed):
        return 2.0 * (np.asarray(x, dtype=float)[..., None, :] - packed)

    def hess_h_mean(self, x, packed):
        return 2.0 * np.eye(self.s)


class Space(ABC):
    """Sample-space descriptor: distance plus charts.

    ``kind`` names the Point variant the space accepts and ``chart_dim`` is
    the dimension of the chart at a generic (top-stratum) point.
    """

    kind: str
    chart_dim: int
    #: shape of one point's payload (None: not checked)
    point_shape = None
    #: how ``mean_many`` finds the sample Frechet means (``FrechetFit.strategy``)
    mean_strategy = "newton"

    @abstractmethod
    def distance_many(self, sample, q):
        """Metric distance from each point of a Sample of this space to the
        point ``q``, as an (n,) array."""

    def distance(self, p, q):
        """Metric distance between two points of the space (the batch of one
        of ``distance_many``)."""
        self.check_point(p)
        return float(self.distance_many(Sample.of(p), q)[0])

    @abstractmethod
    def chart_at(self, base):
        """Chart anchored at ``base`` whose domain contains ``base``, or the
        charts at a Sample of R bases stacked in one chart (see ``Chart``)."""

    @abstractmethod
    def initial_guess(self, sample):
        """Cheap starting point for iterative mean estimation."""

    def check_point(self, p):
        if not isinstance(p, Point):
            got = getattr(p, "kind", type(p).__name__)
            raise MixedSpacePoints(f"expected a {self.kind} point, got {got}")
        self._check_payloads(p.kind, p.data.shape)

    def _check_payloads(self, kind, shape):
        if kind != self.kind:
            raise MixedSpacePoints(f"expected a {self.kind} point, got {kind}")
        if self.point_shape is not None and shape != self.point_shape:
            raise InvalidPoint(f"expected payload shape {self.point_shape}, got {shape}")

    def check_sample(self, sample):
        """The sample as one Sample of this space (a sequence of Points is
        checked point by point and converted once)."""
        if not isinstance(sample, Sample):
            for p in sample:
                self.check_point(p)
        sample = as_sample(sample)
        self._check_payloads(sample.kind, sample.shape[1:])  # shared by its rows
        return sample

    def check_bases(self, base):
        """The base of a chart, one Point or a Sample of R points, checked
        and as a Sample."""
        return self.check_sample([base] if isinstance(base, Point) else base)

    def mean(self, sample, *, tol=MEAN_TOL, max_iter=MEAN_MAX_ITER):
        """Sample Frechet mean as ``(point, iterations)``, the batch of one of
        ``mean_many``."""
        means, its = self.mean_many(self.check_sample(sample), 1, tol=tol, max_iter=max_iter)
        return means[0], int(its[0])

    def mean_many(self, sample, reps, *, tol=MEAN_TOL, max_iter=MEAN_MAX_ITER):
        """Sample Frechet means of ``reps`` equal-size samples stacked
        row-wise in one Sample, as ``(means, iterations)``: a Sample of the
        R means and their (R,) iteration counts.

        The default is a damped Newton descent on the chart coordinates at
        ``initial_guess``, one replication at a time, stopped once the
        gradient norm of the averaged h is at most ``tol`` (else after
        ``max_iter`` iterations), with central differences where the chart
        has no analytic derivatives."""
        parts = sample.split([len(sample) // reps] * reps)
        means, its = zip(*(_newton_mean(self, part, tol, max_iter) for part in parts))
        return as_sample(means), np.array(its)


def _newton_mean(space, sample, tol, max_iter):
    """The damped Newton descent of ``Space.mean_many`` on one sample."""
    start = space.initial_guess(sample)
    chart = space.chart_at(start)
    packed = chart.pack(sample)
    x = chart.forward(start)

    def fmean(xx):
        return float(np.mean(chart.h_many(xx, packed)))

    for it in range(max_iter):
        g = mean_gradient(chart, x, packed)
        if np.linalg.norm(g) <= tol:
            return chart.inverse(x), it
        hess = chart.hess_h_mean(x, packed)
        if hess is None:
            hess = numeric_hessian(fmean, x)
        try:
            step = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            step = -g
        f0 = fmean(x)
        tau = 1.0
        while fmean(x + tau * step) > f0 and tau > 1e-10:
            tau *= 0.5
        x = x + tau * step
    return chart.inverse(x), max_iter


def mean_gradient(chart, x, packed):
    """Gradient at ``x`` of the averaged h, analytic where the chart has it."""
    rows = chart.grad_h_many(x, packed)
    if rows is not None:
        return rows.mean(axis=0)
    return numeric_gradient(lambda xx: float(np.mean(chart.h_many(xx, packed))), x)


def frechet_value(space, sample, p):
    """Empirical Frechet function: the mean squared distance to ``p``."""
    sample = space.check_sample(sample)
    w = np.full(len(sample), 1.0 / len(sample))
    return float(w @ space.distance_many(sample, p) ** 2)
