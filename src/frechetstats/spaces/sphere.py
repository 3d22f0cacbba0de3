"""Unit sphere S^d embedded in R^{d+1}, with intrinsic (geodesic) and
extrinsic (chordal) metrics.

The intrinsic chart at a base point is the log map expressed in an
orthonormal tangent basis; the extrinsic chart is the linear projection
onto that tangent basis.  The intrinsic chart excludes the antipode of
the base, the extrinsic chart the closed hemisphere opposite the base.

The log map and the geodesic distance are written once, for every caller
(charts, distances, derivatives and Newton means), on points stored
component-major: an (..., d+1, n) array of coordinates (``_columns``).
Every per-point quantity (the dot with the base, the log-map scale, the
geodesic distance) is an (..., n) array of one numpy operation per
coordinate, summed over the coordinates in their order, where the row
layout would reduce length-(d+1) rows one at a time.
A point's arithmetic is thus its own, alone or in any stack.

No block kernel reduces or broadcasts over the short coordinate axis
(length 2 or 3 on S^2): numpy pays a loop per row there, and such a
reduction of a (20, 400, 2) block costs about ten times the same sum laid
out along a long axis, with the same bits.  So:

- per-point norms and sums run over the coordinates (``_coordinate_sum``,
  ``_coordinate_norms``), each term an operation over the n points;
- the Newton gradient's mean over the sample sums its (n, R, s) layout
  over axis 0, the points, one after the other as numpy's mean over axis
  -2 of the (R, n, s) layout does;
- Frechet functions and the Hessians' mean of theta*cot(theta) reduce
  over the last axis of C-contiguous (..., n) arrays, numpy's pairwise sum;
- the Hessians' outer products and the tangent coordinates are matrix
  products over the points (BLAS), and every other per-point quantity is
  one operation per coordinate.
"""

from __future__ import annotations

import numpy as np

from ..errors import CutLocus, InvalidDescriptor, InvalidPoint, NoConvergence, NonUniqueProjection
from ..geometry import Chart, Space, group_differences, row_dots, row_norms, row_products
from ..geometry import sphere_sample

_CUT_TOL = 1e-9

#: gradient-norm tolerance and iteration budget of the geodesic means
MEAN_TOL = 1e-10
MEAN_MAX_ITER = 200


def tangent_basis(base):
    """Deterministic orthonormal basis of the tangent space at ``base``, or
    at each row of an (R, d+1) stack of bases.

    Rows of the returned (d, d+1) matrix (of each matrix of the (R, d, d+1)
    stack) are orthonormal and orthogonal to the base (Householder
    completion of the base vector).
    """
    b = np.asarray(base, dtype=float)
    e0 = np.zeros_like(b)
    e0[..., 0] = np.where(b[..., 0] >= 0.0, 1.0, -1.0)
    u = b + e0
    u = u / row_norms(u)[..., None]
    # columns 1..d of the reflection I - 2uu^T are orthonormal and _|_ b
    basis = -2.0 * (u[..., 1:, None] * u[..., None, :])
    basis[..., 1:] += np.eye(b.shape[-1] - 1)
    return basis


def _exp_rows(base, v):
    """Exponential map at each row of an (..., d+1) ``base`` of that row of ``v``."""
    nv = row_norms(v)[..., None]
    zero = nv == 0.0
    out = np.cos(nv) * base + np.sin(nv) * (v / np.where(zero, 1.0, nv))
    return np.where(zero, base, out / row_norms(out)[..., None])


def _project_rows(m):
    """Each row of an (R, d+1) array divided by its norm; raises
    NonUniqueProjection for a row of norm at most 1e-12."""
    nrm = row_norms(m)
    if np.any(nrm <= 1e-12):
        raise NonUniqueProjection("ambient mean is at the center of the sphere")
    return m / nrm[:, None]


def _columns(rows):
    """Points given as (..., n, d+1) rows, or one (d+1,) point, as the
    C-contiguous (..., d+1, n) array of their coordinates."""
    return np.ascontiguousarray(np.swapaxes(np.atleast_2d(np.asarray(rows, dtype=float)), -1, -2))


def _coordinate_sum(a):
    """The (..., n) sum over axis -2 of an (..., d+1, n) array, one
    coordinate after the other in their order."""
    out = a[..., 0, :].copy()
    for k in range(1, a.shape[-2]):
        out += a[..., k, :]
    return out


def _coordinate_norms(rows):
    """``np.linalg.norm(rows, axis=-1)`` of an (..., k) array, bit for bit,
    as a C-contiguous array.  numpy adds fewer than 8 squares in order, so
    a short row's squares are summed one coordinate at a time, each an
    operation over the long axes; numpy adds 8 or more pairwise, and such
    rows are left to it."""
    if rows.shape[-1] >= 8:
        return np.ascontiguousarray(np.linalg.norm(rows, axis=-1))
    return np.sqrt(_coordinate_sum(np.swapaxes(rows * rows, -1, -2)))


def _geodesics(cols, p):
    """Geodesic distances 2 arcsin(|y - p| / 2) from each row of ``p``
    (..., d+1) to the points y of the matching ``cols`` (..., d+1, n)."""
    diff = cols - p[..., :, None]
    return 2.0 * np.arcsin(np.minimum(1.0, 0.5 * np.sqrt(_coordinate_sum(diff * diff))))


def _logs(cols, base):
    """Log maps, as (..., d+1, n) tangent vectors, of the points of ``cols``
    (..., d+1, n) at the matching rows of ``base`` (..., d+1); CutLocus,
    masking them, for points within 1e-9 of the antipode of their base."""
    b = base[..., :, None]
    c = _coordinate_sum(cols * b)
    # |p + b|^2 = 2 + 2c >= 1 for unit vectors with c >= -1/2, so the norms
    # are taken only when some dot is smaller
    if c.min(initial=0.0) < -0.5:
        cut = np.sqrt(_coordinate_sum((cols + b) ** 2)) < _CUT_TOL
        if cut.any():
            raise CutLocus("log map requested at the cut locus (antipode of base)", cut)
    w = cols - c[..., None, :] * b
    nw = np.sqrt(_coordinate_sum(w * w))
    theta = np.arctan2(nw, np.clip(c, -1.0, 1.0))
    small = nw < 1e-15
    scale = np.where(small, 0.0, theta / np.where(small, 1.0, nw))
    return w * scale[..., None, :]


def _hessians(coords):
    """Hessians of the Frechet functions at their bases, (..., s, s), from
    the (..., n, s) log-map coordinates of the points in an orthonormal
    tangent basis at each base: the eigenvalues of Hess(d^2)/2 are 1 along
    the geodesic and theta*cot(theta) orthogonal to it (unit curvature)."""
    theta = _coordinate_norms(coords)  # C-contiguous: t's mean is a pairwise sum in any layout
    small = theta < 1e-8
    safe = np.where(small, 1.0, theta)
    t = np.where(small, 1.0 - theta**2 / 3.0, safe / np.tan(safe))
    unit = ~(theta < 1e-15)
    u, w = np.zeros_like(coords), np.empty_like(coords)  # the unit directions, and (1 - t) u
    for k in range(coords.shape[-1]):
        np.divide(coords[..., k], theta, out=u[..., k], where=unit)
        np.multiply(u[..., k], 1.0 - t, out=w[..., k])
    outer_sum = np.swapaxes(w, -1, -2) @ u / coords.shape[-2]
    return 2.0 * (outer_sum + t.mean(axis=-1)[..., None, None] * np.eye(coords.shape[-1]))


def _newton_means(points, mu):
    """Riemannian Newton iteration for the geodesic means of an (R, n, d+1)
    stack of samples from the (R, d+1) starts ``mu``: the means, the (R,)
    iteration counts and the gradient norms at the means.  A row stops once
    its gradient norm is at most MEAN_TOL; a row still above it after
    MEAN_MAX_ITER steps has its gradient taken once more, at its last
    iterate, and its count is MEAN_MAX_ITER.  Each step is the Newton step
    in the tangent basis at the current mean where the Hessian there is
    positive definite, else the gradient step -g/2 (the Karcher step).  Each
    row halves its own step while the step raises its Frechet function,
    with arithmetic independent of the other rows.  The samples still
    iterating are carried as one (R', d+1, n) array of coordinates; a row
    that stops leaves it."""
    cols = _columns(points)
    mu = np.array(mu)
    f_mu = (_geodesics(cols, mu) ** 2).mean(axis=-1)  # Frechet function at mu
    means = mu.copy()
    iterations = np.full(len(mu), MEAN_MAX_ITER)
    grad_norms = np.empty(len(mu))
    live = np.arange(len(mu))  # the replications still iterating: the rows of cols, mu, f_mu
    for it in range(MEAN_MAX_ITER + 1):
        basis = tangent_basis(mu)  # (R', d, d+1)
        try:
            logs = _logs(cols, mu)
        except CutLocus as err:
            cut = np.zeros((len(means), cols.shape[-1]), dtype=bool)
            cut[live] = err.refused
            raise CutLocus(str(err), cut) from None
        # the log-map coordinates laid out (n, R', d), so that the gradient
        # sums over the long axis 0, in the order of a sum over axis -2
        coords = np.empty(cols.shape[-1:] + basis.shape[:-1])
        np.matmul(np.swapaxes(logs, -1, -2), np.swapaxes(basis, -1, -2),
                  out=np.swapaxes(coords, 0, 1))
        g = -2.0 * (coords.sum(axis=0) / cols.shape[-1])
        norms = row_norms(g)
        grad_norms[live], means[live] = norms, mu
        done = norms <= MEAN_TOL
        iterations[live[done]] = it
        if done.all() or it == MEAN_MAX_ITER:
            break
        if done.any():
            keep = ~done
            live, cols, mu, f_mu = live[keep], cols[keep], mu[keep], f_mu[keep]
            basis, coords, g = basis[keep], coords[:, keep], g[keep]
        hess = _hessians(np.swapaxes(coords, 0, 1))
        newton = np.linalg.eigvalsh(hess)[:, 0] > 0.0
        x = -0.5 * g
        x[newton] = np.linalg.solve(hess[newton], -g[newton, :, None])[..., 0]
        step = row_products(x, basis)
        # allow rounding-level increases, or the damping can stall the
        # iteration just above the gradient tolerance
        limit = f_mu + 1e-15 * (1.0 + np.abs(f_mu))
        moving, tau = np.ones(len(mu), dtype=bool), 1.0
        while moving.any():
            cand = _exp_rows(mu, tau * step)
            f = (_geodesics(cols, cand) ** 2).mean(axis=-1)
            ok = moving & ((f <= limit) | (tau < 1e-8))
            mu[ok], f_mu[ok] = cand[ok], f[ok]
            moving &= ~ok
            tau *= 0.5
    return means, iterations, grad_norms


class _TangentChart(Chart):
    """Charts at the R rows of the Sample ``base``, each in the orthonormal
    tangent basis of its base, stacked; the packed sample is its array of
    unit vectors."""

    def __init__(self, space, base):
        super().__init__(space)
        self._b = space.check_sample(base).data  # (R, d+1)
        self._basis_t = np.swapaxes(tangent_basis(self._b), -1, -2)  # (R, d+1, d)

    def pack(self, sample):
        return sample.data

    def forward_many(self, sample):
        return self._in_basis(self.space.check_sample(sample), self._tangent)

    def _in_basis(self, sample, tangent):
        # the (n, s) coordinates of ``tangent`` of the rows, one group per chart
        rows = sample.data.reshape(len(self._b), -1, self._b.shape[-1])
        return row_products(tangent(rows), self._basis_t[..., None, :, :]).reshape(-1, self.s)

    def _ambient(self, x):
        """Chart coordinates (R, s) as ambient tangent vectors (R, d+1)."""
        return (self._basis_t @ np.asarray(x, dtype=float)[..., None])[..., 0]


class SphereIntrinsicChart(_TangentChart):
    """Log-map charts at the bases, each in its base's orthonormal tangent basis.

    Gradient and Hessian of h are closed-form at the chart origin (where the
    estimator evaluates them); elsewhere callers fall back to differences.
    """

    _packed = None

    def _tangent(self, rows):
        return np.swapaxes(_logs(_columns(rows), self._b), -1, -2)

    def h_many(self, x, packed):
        return _geodesics(self._columns_of(packed), _exp_rows(self._b, self._ambient(x))) ** 2

    def _columns_of(self, packed):
        """``_columns(packed)``, kept for the last read-only packed sample:
        the probes of a numeric sandwich share one copy."""
        if self._packed is not packed or packed.flags.writeable:
            self._packed, self._packed_columns = packed, _columns(packed)
        return self._packed_columns

    def _at_origin(self, x):
        """Whether ``x`` is the origin of the chart, of every chart of a stack."""
        return bool(np.all(row_norms(np.asarray(x, dtype=float)) < 1e-14))

    def grad_h_many(self, x, packed):
        if not self._at_origin(x):
            return None
        return -2.0 * (self._tangent(packed) @ self._basis_t)

    def hess_h_mean(self, x, packed):
        if not self._at_origin(x):
            return None
        return _hessians(self._tangent(packed) @ self._basis_t)


class SphereExtrinsicChart(_TangentChart):
    """Tangent-projection charts of the open hemisphere around each base
    (InvalidPoint masks the points, or coordinates, outside it); h is the
    squared chordal distance.

    Analytic derivatives are available at every chart point via the
    differential of the hemisphere parameterization.  The test images are
    the projections of all points (the extrinsic test of Bhattacharya and
    Patrangenaru compares the projected ambient means).
    """

    def test_images(self, sample):
        return self._in_basis(sample, np.asarray)

    def _tangent(self, rows):
        outside = row_dots(rows, self._b[..., None, :]) <= 0.0
        if outside.any():
            raise InvalidPoint("point outside the open hemisphere of the chordal chart's base",
                               outside)
        return rows

    def _point_at(self, x):
        x = np.asarray(x, dtype=float)
        sq = row_dots(x, x)
        outside = sq >= 1.0
        if np.any(outside):
            raise InvalidPoint("chart coordinates outside the unit-hemisphere domain", outside)
        gamma = np.sqrt(1.0 - sq)
        return self._ambient(x) + gamma[..., None] * self._b, gamma

    def h_many(self, x, packed):
        p, _ = self._point_at(x)
        diff = packed - p[..., None, :]
        return np.einsum("...ij,...ij->...i", diff, diff)

    def grad_h_many(self, x, packed):
        x = np.asarray(x, dtype=float)
        _, gamma = self._point_at(x)
        # d(point)/d(x)
        jac = self._basis_t - self._b[..., :, None] * x[..., None, :] / gamma[..., None, None]
        return -2.0 * (packed @ jac)

    def hess_h_mean(self, x, packed):
        x = np.asarray(x, dtype=float)
        _, gamma = self._point_at(x)
        g = gamma[..., None, None]
        scale = 2.0 * row_dots(self._b, packed.mean(axis=-2))[..., None, None]
        return scale * (np.eye(self.s) / g + x[..., :, None] * x[..., None, :] / g**3)


class SphereSpace(Space):
    """S^d in R^{d+1} under the geodesic or the chordal metric."""

    kind = "sphere"

    def __init__(self, ambient_dim, metric="intrinsic"):
        if ambient_dim < 2:
            raise InvalidDescriptor("ambient dimension must be >= 2")
        if metric not in ("intrinsic", "extrinsic"):
            raise InvalidDescriptor(f"unknown sphere metric {metric!r}")
        self.ambient_dim = int(ambient_dim)
        self.metric = metric
        self.chart_dim = self.ambient_dim - 1
        self.point_shape = (self.ambient_dim,)
        self.mean_strategy = "newton" if metric == "intrinsic" else "closed_form"

    def __repr__(self):
        return f"SphereSpace(ambient_dim={self.ambient_dim}, metric={self.metric!r})"

    def distance_many(self, sample, q):
        q = self.targets(sample, q).data
        if self.metric == "intrinsic":
            groups = sample.data.reshape(len(q), -1, self.ambient_dim)
            return _geodesics(_columns(groups), q).reshape(-1)
        return row_norms(group_differences(sample.data, q))

    def chart_at(self, base):
        if self.metric == "intrinsic":
            return SphereIntrinsicChart(self, base)
        return SphereExtrinsicChart(self, base)

    def mean_many(self, sample, reps):
        """The extrinsic means (0 iterations) under the chordal metric; under
        the geodesic metric, Newton iteration from them (``_newton_means``).
        NoConvergence masks the replications whose gradient norm is still
        above MEAN_TOL after MEAN_MAX_ITER steps; its ``fit`` is ``(means,
        iterations)`` of every replication."""
        points = sample.data.reshape(reps, -1, self.ambient_dim)
        start = sphere_sample(_project_rows(points.mean(axis=1)))
        if self.metric == "extrinsic":
            return start, np.zeros(reps, dtype=int)
        means, iterations, grad_norms = _newton_means(points, start.data)
        means, refused = sphere_sample(means), grad_norms > MEAN_TOL
        if refused.any():
            raise NoConvergence(f"newton exhausted {MEAN_MAX_ITER} iterations (grad norm "
                                f"{grad_norms[refused][0]:.3e})", (means, iterations), refused)
        return means, iterations
