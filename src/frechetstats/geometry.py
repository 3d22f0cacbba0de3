"""Core abstractions: validated samples, sample-space descriptors and
charts, finite differences, and the empirical Frechet function.

A *space* bundles a distance with a chart ``phi`` mapping a neighborhood of
the mean onto an open subset of R^s; ``h(x; q) = distance(phi^-1(x), q)^2``
is the squared-distance function expressed in chart coordinates.  Each space
finds its own sample Frechet means (``Space.mean_many``, batched over
replications); everything downstream of the mean (sandwich covariances,
two-sample tests) works on ``h`` and its first two derivatives.

A Sample is the one form of points in the library: a point is a one-row
Sample, and a chart at R bases (a Sample of R rows) is a stack of R charts.
A Sample carries what belongs to its rows as fields: the leaf labels of an
open-book sample, and the matrix logs of an SPD sample (``_logs``).
"""

from __future__ import annotations

import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDescriptor, InvalidPoint, MixedSpacePoints, NonFiniteValue, TooFewPoints

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

#: leading minors, of a matrix over its largest entry, that certify SPD(3)
_MINOR_MARGIN = 1e-8

#: condition-number ceiling beyond which Lambda_n (or a covariance) is
#: treated as numerically singular
COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class Sample:
    """Batch of n points of one kind, the form every sample takes inside
    the library.

    ``data`` is the read-only ``(n, ...)`` array of the points' payloads and
    ``leaves`` the read-only ``(n,)`` leaf labels of an open-book sample
    (None for the other kinds).  The constructors ``euclidean_sample``,
    ``sphere_sample``, ``spd_sample`` and ``openbook_sample`` validate the
    whole batch at once.  A point is a one-row Sample: indexing and
    iteration give the one-row Samples of the rows.

    A Sample built with ``build`` is deferred: its ``data`` is
    ``build(rows)`` of the ``rows`` it was given, computed when ``data`` is
    first read (a drawn SPD stack holds its matrix logs and exponentiates
    them then).  ``build`` maps each row on its own and keeps the array's
    shape, so ``len``, ``shape``, ``take`` and ``join`` never call it, and a
    row's data has the same bits whichever part of a stack builds it.

    ``_logs`` is None, or an SPD sample's read-only (n, p, p) matrix logs,
    NaN in the rows whose logs are not taken yet (see
    ``spaces.spd._sample_logs``, which fills them).  Indexing, ``take``
    and ``join`` carry them as they carry ``leaves``.
    """

    kind: str
    _rows: np.ndarray
    leaves: np.ndarray | None = None
    _build: object = None
    _logs: np.ndarray | None = None

    def __post_init__(self):
        for a in (self._rows, self.leaves, self._logs):
            if a is not None:
                a.setflags(write=False)

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
        i = range(len(self))[i]
        return self.take(slice(i, i + 1))

    def take(self, index):
        """The Sample of the rows ``index`` (a slice or integer array),
        deferred when this one is."""
        leaves, logs = (None if a is None else a[index] for a in (self.leaves, self._logs))
        return Sample(self.kind, self._rows[index], leaves, self._build, logs)

    def split(self, sizes):
        """The consecutive Samples of ``sizes`` rows each that make up this
        one (``take`` of each)."""
        return [self.take(slice(stop - size, stop)) for size, stop in zip(sizes, np.cumsum(sizes))]

    @classmethod
    def join(cls, parts):
        """The Sample of the rows of ``parts`` (Samples of one kind and
        payload shape, else MixedSpacePoints) in order, deferred when every
        part is deferred alike, with their logs when every part has them."""
        kind, shape = parts[0].kind, parts[0].shape[1:]
        if any(p.kind != kind or p.shape[1:] != shape for p in parts):
            raise MixedSpacePoints(f"a sample mixes {kind} points of shape {shape} with others")
        build = parts[0]._build
        if any(p._build is not build for p in parts):
            build = None
        payloads = [p.data if build is None else p._rows for p in parts]
        return cls(kind, np.concatenate(payloads), _joined([p.leaves for p in parts]),
                   build, _joined([p._logs for p in parts]))


def _joined(arrays):
    """The arrays concatenated, or None when an array is None."""
    return None if any(a is None for a in arrays) else np.concatenate(arrays)


class _Refusals:
    """The rows a batch validator refuses, check after check.  ``check``
    refuses the rows that hold a True entry of ``bad`` (an array of at
    least one axis, rows first) and that no earlier check refused;
    ``message`` is its text, or a function of the index of the first row
    it refuses.  ``rows`` is the mask of the rows refused so far (None while
    there are none), and ``raise_any`` raises one InvalidPoint masking them,
    with the message of the check that refused the first of them."""

    def __init__(self):
        self.rows = None
        self._messages = {}  # the first row each check refuses -> its message

    def check(self, bad, message):
        if not bad.any():
            return
        rows = bad.reshape(len(bad), -1).any(axis=1)
        if self.rows is not None:
            rows &= ~self.rows
        if rows.any():
            first = int(np.argmax(rows))
            self._messages[first] = message(first) if callable(message) else message
            self.rows = rows if self.rows is None else self.rows | rows

    def raise_any(self):
        if self.rows is not None:
            raise InvalidPoint(self._messages[min(self._messages)], self.rows)


def _finite_rows(values, ndim, refusals):
    """``values`` as a float array of ``ndim`` axes (InvalidPoint, not
    masked, for a wrong shape); ``refusals`` refuses the rows that hold a
    non-finite entry, whose entries are then 0 in the array, so the later
    checks of the ``*_sample`` validators compute on finite values."""
    a = np.array(values, dtype=float, order="C")
    if a.ndim != ndim:
        raise InvalidPoint(f"expected a batch of {ndim - 1}-d payloads, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        refusals.check(~finite, "point payload contains non-finite entries")
        a[~finite] = 0.0
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


def group_differences(rows, targets):
    """Each of R equal groups of consecutive rows of an (n, ...) array
    minus its row of the (R, ...) ``targets``, as an (n, ...) array: the
    pairing of ``Space.distance_many``."""
    groups = rows.reshape(targets.shape[:1] + (-1,) + rows.shape[1:])
    return (groups - targets[:, None]).reshape(rows.shape)


def row_products(rows, matrix):
    """``rows @ matrix`` for an (..., k) array, computed row by row as one
    vector times ``matrix`` (a (k, m) matrix, or a stack that broadcasts
    against the rows), so that a row's result does not depend on the other
    rows (a single matrix product of R rows need not round them all
    alike)."""
    return (rows[..., None, :] @ matrix)[..., 0, :]


def guarded_inverse(matrices):
    """Inverses of the symmetric parts of a (..., s, s) stack of nonempty
    square matrices, through their eigendecompositions, as ``(inv, w, cond,
    singular)``: the symmetrized inverses, the eigenvalues, the condition
    numbers max|w| / min|w| (inf when an eigenvalue is 0) and the mask of
    those beyond COND_LIMIT, treated as numerically singular.  A singular
    matrix gets a finite stand-in for its inverse (its eigenvalues replaced
    by 1), so callers decide what it means."""
    m = np.asarray(matrices, dtype=float)
    w, v = np.linalg.eigh(0.5 * (m + np.swapaxes(m, -1, -2)))
    absw = np.abs(w)
    amax, amin = absw.max(axis=-1), absw.min(axis=-1)
    cond = np.divide(amax, amin, out=np.full_like(amax, np.inf), where=amin > 0.0)
    singular = cond > COND_LIMIT
    inv = (v / np.where(singular[..., None], 1.0, w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    return 0.5 * (inv + np.swapaxes(inv, -1, -2)), w, cond, singular


def refuse_singular(error, what, cond, refused):
    """Raise ``error`` masking ``refused``, if any: "<what> is numerically singular (...)"."""
    if refused.any():
        raise error(f"{what} is numerically singular (condition number "
                    f"{float(cond[refused].flat[0]):.3e})", refused)


def euclidean_sample(rows):
    """Sample of R^s from an (n, s) array."""
    refusals = _Refusals()
    a = _finite_rows(rows, 2, refusals)
    refusals.raise_any()
    return Sample("euclidean", a)


def sphere_sample(rows):
    """Sample of S^d from an (n, d+1) array of unit vectors; each row's norm
    must be 1 within POINT_ATOL, and the row is divided by it."""
    refusals = _Refusals()
    a = _finite_rows(rows, 2, refusals)
    nrm = row_norms(a)
    refusals.check(np.abs(nrm - 1.0) > POINT_ATOL,
                   lambda i: f"sphere point has norm {float(nrm[i])!r}, not 1 within {POINT_ATOL}")
    refusals.raise_any()
    return Sample("sphere", a / nrm[:, None])


#: column names of the upper-triangle row format of an SPD(3) matrix
UPPER_COLUMNS = ("a11", "a12", "a13", "a22", "a23", "a33")
_UPPER = np.triu_indices(3)


def upper_to_matrix(values):
    """Symmetric 3x3 matrices from (..., 6) upper-triangle rows in the
    order of UPPER_COLUMNS."""
    v = np.asarray(values, dtype=float)
    m = np.empty(v.shape[:-1] + (3, 3))
    m[..., _UPPER[0], _UPPER[1]] = v
    m[..., _UPPER[1], _UPPER[0]] = v
    return m


def matrix_to_upper(m):
    """Upper-triangle rows (..., 6) of (..., 3, 3) matrices, in the order of
    UPPER_COLUMNS."""
    return np.asarray(m)[..., _UPPER[0], _UPPER[1]]


def _uncertified(m):
    """Mask of the symmetric (n, 3, 3) matrices that the leading minors do
    not certify positive definite (see ``spd_sample``)."""
    upper = matrix_to_upper(m)
    scale = np.abs(upper).max(axis=1)
    a11, a12, a13, a22, a23, a33 = (upper / np.where(scale > 0.0, scale, 1.0)[:, None]).T
    minor = a11 * a22 - a12 * a12
    det = a33 * minor - a11 * a23 * a23 + a12 * (2.0 * a13 * a23) - a22 * a13 * a13
    return ~((a11 > _MINOR_MARGIN) & (minor > _MINOR_MARGIN) & (det > _MINOR_MARGIN))


def spd_sample(mats):
    """Sample of SPD matrices from an (n, p, p) array; each matrix must be
    symmetric within POINT_ATOL (it is then symmetrized) and positive
    definite (InvalidPoint masks the matrices that are not).

    eigvalsh refuses a matrix whose smallest eigenvalue is <= 0; for p == 3
    it sees only the matrices the leading minors do not certify.  Over its
    largest absolute entry (no product overflows) a matrix has lambda_max
    <= 3, so minors a11, a11*a22 - a12**2 and det above _MINOR_MARGIN give
    lambda_min >= det/9 > 1e-9 of that entry, far beyond eigvalsh's error of
    about 1e-15 of it: the decisions and the mask are eigvalsh's.  The zero
    matrix is never certified."""
    refusals = _Refusals()
    m = _finite_rows(mats, 3, refusals)
    if m.shape[1] != m.shape[2]:
        raise InvalidPoint("spd payload must be a square matrix")
    mt = np.swapaxes(m, 1, 2)
    refusals.check(np.abs(m - mt) > POINT_ATOL,  # np.allclose with rtol=0
                   "spd payload is not symmetric within tolerance")
    m = 0.5 * (m + mt)
    unsure = _uncertified(m) if m.shape[1] == 3 else np.ones(len(m), dtype=bool)
    if refusals.rows is not None:
        unsure &= ~refusals.rows  # eigvalsh sees only finite, symmetric matrices
    if unsure.any():
        unsure[unsure] = np.linalg.eigvalsh(m[unsure])[:, 0] <= 0.0
        refusals.check(unsure, "spd payload has a non-positive eigenvalue")
    refusals.raise_any()
    return Sample("spd", m)


def openbook_sample(leaves, coords):
    """Open-book sample from (n,) leaf labels and (n, D+1) half-space
    coordinates with x0 >= 0.

    Rows with ``x0 == 0`` lie on the spine and are canonicalized to leaf 0,
    so equality of glued boundary points is well defined.  A label that is
    not an integer (nan and infinity included) or does not fit int64 is
    refused before the labels are cast to int; so is every label that is
    no real number (a bool, a string or a time delta among them).
    """
    refusals = _Refusals()
    c = _finite_rows(coords, 2, refusals)
    labels = np.asarray(leaves)
    if c.shape[1] == 0 or labels.shape != (c.shape[0],):
        raise InvalidPoint("open-book sample needs one leaf label per row of coordinates")
    if labels.dtype.kind not in "iuf":  # of bools, strings, ... only an object's real entries
        real = np.array([labels.dtype.kind == "O" and isinstance(x, numbers.Real)
                         and not isinstance(x, (bool, np.timedelta64)) for x in labels], dtype=bool)
        refusals.check(~real, "leaf must be an integer")
        labels = np.where(real, labels.astype(object), 0)
    if labels.dtype.kind in "fuO":  # uint64 or object: some label is beyond int64
        with np.errstate(invalid="ignore"):
            bad = ~(abs(labels) < 2**63) | (labels % 1 != 0)  # also nan
        refusals.check(bad, "leaf must be an integer")
        labels = np.where(bad, 0, labels)
    labels = labels.astype(int)
    refusals.check(c[:, 0] < 0.0, "open-book coordinate x0 must be nonnegative")
    refusals.check(labels < 0, "leaf label must be nonnegative")
    refusals.check((labels == 0) & (c[:, 0] > 0.0), "spine points (leaf 0) must have x0 == 0")
    refusals.raise_any()
    return Sample("openbook", c, np.where(c[:, 0] == 0.0, 0, labels))


def as_sample(sample):
    """``sample``, a nonempty Sample: TooFewPoints for an empty Sample,
    MixedSpacePoints for anything else (a list or tuple too)."""
    if not isinstance(sample, Sample):
        raise MixedSpacePoints(f"expected a Sample, got {type(sample).__name__}")
    if len(sample) == 0:
        raise TooFewPoints("sample must be nonempty")
    return sample


def check_space(space):
    """Refuse a ``space`` that has no ``check_sample``, or is a class
    (InvalidDescriptor)."""
    if isinstance(space, type) or not callable(getattr(space, "check_sample", None)):
        raise InvalidDescriptor(f"space must be a Space, got {type(space).__name__}")


def euclidean_point(v):
    """One-row Sample of the point ``v`` of R^s."""
    return euclidean_sample(np.atleast_1d(np.asarray(v, dtype=float))[None])


def sphere_point(v):
    """One-row Sample of the unit vector ``v`` in R^{d+1}; the norm must
    already be 1 within POINT_ATOL."""
    return sphere_sample(np.atleast_1d(np.asarray(v, dtype=float))[None])


def spd_point(a):
    """One-row Sample of the symmetric positive definite matrix ``a``."""
    return spd_sample(np.asarray(a, dtype=float)[None])


def openbook_point(leaf, coords):
    """One-row open-book Sample: leaf label plus half-space coordinates
    (x0 >= 0); a point with ``x0 == 0`` is on the spine (leaf 0).  A leaf
    that is not an integer (nan included) is refused, as by
    ``openbook_sample``."""
    return openbook_sample([leaf], np.atleast_1d(np.asarray(coords, dtype=float))[None])


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
    """The charts ``phi: G -> U`` of a space anchored at a Sample of R base
    points (of one stratum on the open book), stacked: one chart is the
    stack of R = 1.

    Subclasses provide the row forms: the chart map ``forward_many`` of a
    Sample and a vectorized squared distance ``h_many``.  Analytic
    derivative hooks may return ``None`` when a closed form is unavailable
    at the requested point, in which case callers fall back to central
    differences on ``h_many``.  The chart map refuses a point outside the
    chart's domain; ``test_images``, the linear images a two-sample test
    compares, may map every point.

    ``forward_many`` and ``test_images`` map the i-th of R equal groups of
    consecutive sample rows in the i-th chart, ``pack`` returns an array
    whose rows regroup as (R, n, ...), and ``h_many`` and the derivative
    hooks take coordinates (R, s) and a packed sample per chart,
    (R, n, ...), and return their results with a leading axis R.
    """

    #: chart dimension s
    s: int
    #: the space the chart belongs to
    space: Space

    def __init__(self, space):
        self.s = space.chart_dim
        self.space = space

    @abstractmethod
    def pack(self, sample):
        """Precompute, from a Sample, arrays reused across h/derivative calls."""

    @abstractmethod
    def h_many(self, x, packed):
        """Vector of h(x; Y_j) = distance(phi^-1(x), Y_j)^2 over the sample."""

    @abstractmethod
    def forward_many(self, sample):
        """Chart coordinates of every point of a Sample, as an (n, s) matrix;
        MixedSpacePoints for anything but a Sample of the chart's space."""

    def test_images(self, sample):
        """The (n, s) images a two-sample test compares: the chart map."""
        return self.forward_many(sample)

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
        return self.pack(self.space.check_sample(sample))

    def h_many(self, x, packed):
        diff = packed - np.asarray(x, dtype=float)[..., None, :]
        return np.einsum("...ij,...ij->...i", diff, diff)

    def grad_h_many(self, x, packed):
        return 2.0 * (np.asarray(x, dtype=float)[..., None, :] - packed)

    def hess_h_mean(self, x, packed):
        return 2.0 * np.eye(self.s)


class Space(ABC):
    """Sample-space descriptor: distance plus charts.

    ``kind`` names the kind of Sample the space accepts and ``chart_dim``
    is the dimension of the chart at a generic (top-stratum) point.
    """

    kind: str
    chart_dim: int
    #: shape of one point's payload (None: not checked)
    point_shape = None
    #: how ``mean_many`` finds the sample Frechet means (``FrechetFit.strategy``)
    mean_strategy: str

    @abstractmethod
    def distance_many(self, sample, q):
        """Metric distances, as an (n,) array, from the points of a Sample of
        this space to the R points of the Sample ``q``: from each of R equal
        groups of consecutive sample rows to its row of ``q`` (see
        ``targets``); a one-row ``q`` is one point for every row."""

    def targets(self, sample, q):
        """The checked Sample ``q`` of ``distance_many(sample, q)``, after
        checking ``sample``; MixedSpacePoints unless ``sample``'s rows form
        ``len(q)`` equal groups."""
        sample, q = self.check_sample(sample), self.check_sample(q)
        if len(sample) % len(q):
            raise MixedSpacePoints(f"{len(sample)} sample rows do not form {len(q)} equal groups")
        return q

    @abstractmethod
    def chart_at(self, base):
        """The charts at the R rows of the Sample ``base``, each of whose
        domain contains its base, stacked in one chart (see ``Chart``)."""

    def check_sample(self, sample):
        """The Sample ``sample``, checked as one of this space (see
        ``as_sample``)."""
        sample = as_sample(sample)
        if sample.kind != self.kind:
            raise MixedSpacePoints(f"expected a {self.kind} point, got {sample.kind}")
        if self.point_shape is not None and sample.shape[1:] != self.point_shape:
            raise InvalidPoint(f"expected payload shape {self.point_shape}, got {sample.shape[1:]}")
        return sample

    def mean(self, sample):
        """Sample Frechet mean as ``(one-row Sample, iterations)``, the batch
        of one of ``mean_many``."""
        means, its = self.mean_many(self.check_sample(sample), 1)
        return means, int(its[0])

    @abstractmethod
    def mean_many(self, sample, reps):
        """Sample Frechet means of ``reps`` equal-size samples stacked
        row-wise in one Sample, as ``(means, iterations)``: a Sample of the
        R means and their (R,) iteration counts.  An iterative mean raises
        NoConvergence, masking the replications it could not converge, with
        ``(means, iterations)`` as the partial fit."""


def mean_gradient(chart, x, packed):
    """Gradient at ``x`` of the averaged h, analytic where the chart has it;
    (R, s) at the (R, s) coordinates of R fits in a stacked chart."""
    rows = chart.grad_h_many(x, packed)
    if rows is not None:
        return rows.mean(axis=-2)
    return numeric_gradient(lambda xx: chart.h_many(xx, packed).mean(axis=-1), x)


def frechet_values(space, sample, candidates):
    """Empirical Frechet function, the mean squared distance from the
    sample's points, at each of the m rows of the Sample ``candidates``,
    as an (m,) array: one grouped ``distance_many`` of the sample repeated
    m times."""
    check_space(space)
    sample, candidates = space.check_sample(sample), space.check_sample(candidates)
    n = len(sample)
    # each point's distance to itself fills what the sample keeps for its
    # distances (an SPD sample's matrix logs), which the repeats carry
    space.distance_many(sample, sample)
    d = space.distance_many(sample.take(np.tile(np.arange(n), len(candidates))), candidates)
    return row_dots(d.reshape(-1, n) ** 2, np.full(n, 1.0 / n))
