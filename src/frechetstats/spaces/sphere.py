"""Unit sphere S^d embedded in R^{d+1}, with intrinsic (geodesic) and
extrinsic (chordal) metrics.

The intrinsic chart at a base point is the log map expressed in an
orthonormal tangent basis; the extrinsic chart is the linear projection
onto that tangent basis.  Both charts exclude the antipode of the base.
"""

from __future__ import annotations

import numpy as np

from ..errors import CutLocus, NonUniqueProjection
from ..geometry import Chart, Space, row_norms, row_products, sphere_point

_CUT_TOL = 1e-9


def sphere_distance(p, q):
    """Geodesic distance 2*arcsin(||p - q|| / 2) between unit vectors.

    The chord form is exactly symmetric in its arguments and accurate away
    from the antipodal configuration.
    """
    return float(_geodesic_rows(np.asarray(q, dtype=float), np.asarray(p, dtype=float)[None])[0])


def sphere_exp(base, v):
    """Exponential map: cos(|v|) base + sin(|v|) v/|v| (base when v = 0)."""
    b = np.asarray(base, dtype=float)
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return b.copy()
    out = np.cos(nv) * b + np.sin(nv) * (v / nv)
    return out / np.linalg.norm(out)


def sphere_log(base, p):
    """Inverse of the exponential map on the geodesic ball of radius pi.

    Raises CutLocus when ``p`` is within 1e-9 of the antipode of ``base``.
    """
    return _log_rows(np.asarray(base, dtype=float), np.asarray(p, dtype=float)[None])[0]


def sphere_extrinsic_project(m):
    """Nearest point on the sphere, m/||m||.

    Raises NonUniqueProjection when ||m|| <= 1e-12 (every point of the
    sphere is then equally close).
    """
    m = np.asarray(m, dtype=float)
    nrm = float(np.linalg.norm(m))
    if nrm <= 1e-12:
        raise NonUniqueProjection("ambient mean is at the center of the sphere")
    return m / nrm


def tangent_basis(base):
    """Deterministic orthonormal basis of the tangent space at ``base``.

    Rows of the returned (d, d+1) matrix are orthonormal and orthogonal to
    ``base`` (Householder completion of the base vector).
    """
    b = np.asarray(base, dtype=float)
    n = b.size
    e0 = np.zeros(n)
    e0[0] = 1.0 if b[0] >= 0.0 else -1.0
    u = b + e0
    u /= np.linalg.norm(u)
    # columns 1..d of the reflection I - 2uu^T are orthonormal and _|_ b
    basis = -2.0 * np.outer(u[1:], u)
    basis[:, 1:] += np.eye(n - 1)
    return basis


def _log_rows(base, points):
    """Log map of each row of ``points`` at ``base``; (n, d+1) tangent rows."""
    c = row_products(points, base[:, None])[:, 0]
    if np.any(np.linalg.norm(points + base, axis=1) < _CUT_TOL):
        raise CutLocus("log map requested at the cut locus (antipode of base)")
    w = points - np.outer(c, base)
    nw = np.linalg.norm(w, axis=1)
    theta = np.arctan2(nw, np.clip(c, -1.0, 1.0))
    scale = np.where(nw < 1e-15, 0.0, theta / np.where(nw < 1e-15, 1.0, nw))
    return w * scale[:, None]


def _geodesic_rows(p, points):
    """Geodesic distances from ``p`` to each row of ``points``."""
    return 2.0 * np.arcsin(np.minimum(1.0, 0.5 * row_norms(points - p)))


class _TangentChart(Chart):
    """Chart at ``base`` in the orthonormal tangent basis of ``base``; the
    packed sample is its (n, d+1) array of unit vectors."""

    def __init__(self, space, base):
        space.check_point(base)
        self.s = space.chart_dim
        self.base = base
        self.space = space
        self._b = np.array(base.data, dtype=float)
        self._basis = tangent_basis(self._b)

    def pack(self, sample):
        return sample.data


class SphereIntrinsicChart(_TangentChart):
    """Log-map chart at ``base`` in an orthonormal tangent basis.

    Gradient and Hessian of h are closed-form at the chart origin (where the
    estimator evaluates them); elsewhere callers fall back to differences.
    """

    def inverse(self, x):
        return sphere_point(sphere_exp(self._b, self._basis.T @ np.asarray(x, dtype=float)))

    def forward_many(self, sample):
        return row_products(_log_rows(self._b, sample.data), self._basis.T)

    def h_many(self, x, packed):
        p = sphere_exp(self._b, self._basis.T @ np.asarray(x, dtype=float))
        return _geodesic_rows(p, packed) ** 2

    def _at_origin(self, x):
        return float(np.linalg.norm(x)) < 1e-14

    def grad_h_many(self, x, packed):
        if not self._at_origin(x):
            return None
        logs = _log_rows(self._b, packed)
        return -2.0 * (logs @ self._basis.T)

    def hess_h_mean(self, x, packed):
        if not self._at_origin(x):
            return None
        logs = _log_rows(self._b, packed) @ self._basis.T
        theta = np.linalg.norm(logs, axis=1)
        # eigenvalues of Hess(d^2)/2: 1 along the geodesic, theta*cot(theta)
        # orthogonal to it (unit curvature)
        small = theta < 1e-8
        safe = np.where(small, 1.0, theta)
        t = np.where(small, 1.0 - theta**2 / 3.0, safe / np.tan(safe))
        u = logs / np.where(theta[:, None] < 1e-15, 1.0, theta[:, None])
        u[theta < 1e-15] = 0.0
        n = packed.shape[0]
        outer_sum = (u * (1.0 - t)[:, None]).T @ u / n
        return 2.0 * (outer_sum + float(np.mean(t)) * np.eye(self.s))


class SphereExtrinsicChart(_TangentChart):
    """Tangent-projection chart; h is the squared chordal distance.

    Analytic derivatives are available at every chart point via the
    differential of the hemisphere parameterization.
    """

    def _point_at(self, x):
        x = np.asarray(x, dtype=float)
        sq = float(x @ x)
        if sq >= 1.0:
            raise ValueError("chart coordinates outside the unit-hemisphere domain")
        gamma = np.sqrt(1.0 - sq)
        return self._basis.T @ x + gamma * self._b, gamma

    def inverse(self, x):
        p, _ = self._point_at(x)
        return sphere_point(p / np.linalg.norm(p))

    def forward_many(self, sample):
        return row_products(sample.data, self._basis.T)

    def h_many(self, x, packed):
        p, _ = self._point_at(x)
        diff = packed - p
        return np.einsum("ij,ij->i", diff, diff)

    def grad_h_many(self, x, packed):
        x = np.asarray(x, dtype=float)
        p, gamma = self._point_at(x)
        jac = self._basis.T - np.outer(self._b, x) / gamma  # d(point)/d(x)
        return -2.0 * (packed @ jac)

    def hess_h_mean(self, x, packed):
        x = np.asarray(x, dtype=float)
        _, gamma = self._point_at(x)
        mbar = packed.mean(axis=0)
        return 2.0 * float(self._b @ mbar) * (np.eye(self.s) / gamma + np.outer(x, x) / gamma**3)


class SphereSpace(Space):
    """S^d in R^{d+1} under the geodesic or the chordal metric."""

    kind = "sphere"

    def __init__(self, ambient_dim, metric="intrinsic"):
        if ambient_dim < 2:
            raise ValueError("ambient dimension must be >= 2")
        if metric not in ("intrinsic", "extrinsic"):
            raise ValueError(f"unknown sphere metric {metric!r}")
        self.ambient_dim = int(ambient_dim)
        self.metric = metric
        self.chart_dim = self.ambient_dim - 1
        self.point_shape = (self.ambient_dim,)
        self.mean_strategy = "karcher" if metric == "intrinsic" else "closed_form"

    def __repr__(self):
        return f"SphereSpace(ambient_dim={self.ambient_dim}, metric={self.metric!r})"

    def distance_many(self, sample, q):
        self.check_point(q)
        if self.metric == "intrinsic":
            return _geodesic_rows(q.data, sample.data)
        return row_norms(sample.data - q.data)

    def chart_at(self, base):
        if self.metric == "intrinsic":
            return SphereIntrinsicChart(self, base)
        return SphereExtrinsicChart(self, base)

    def initial_guess(self, sample):
        """Projection of the ambient mean; exact minimizer of the chordal
        Frechet function."""
        m = self.check_sample(sample).data.mean(axis=0)
        return sphere_point(sphere_extrinsic_project(m))

    def mean(self, sample, *, tol=1e-10, max_iter=200, **_):
        """Sample Frechet mean as ``(point, iterations)``: the extrinsic
        mean (0 iterations) under the chordal metric; under the geodesic
        metric, Karcher fixed-point iteration from the extrinsic mean,
        stopped once the gradient norm is at most ``tol``."""
        sample = self.check_sample(sample)
        if self.metric == "extrinsic":
            return self.initial_guess(sample), 0
        points = sample.data
        mu = self.initial_guess(sample).data
        for it in range(max_iter):
            step = _log_rows(mu, points).mean(axis=0)
            if 2.0 * np.linalg.norm(step) <= tol:
                return sphere_point(mu), it
            f0 = float(np.mean(_geodesic_rows(mu, points) ** 2))
            # allow rounding-level increases, or the damping loop can stall
            # the iteration just above the gradient tolerance
            slack = 1e-15 * (1.0 + abs(f0))
            tau = 1.0
            while True:
                cand = sphere_exp(mu, tau * step)
                if float(np.mean(_geodesic_rows(cand, points) ** 2)) <= f0 + slack or tau < 1e-8:
                    break
                tau *= 0.5
            mu = cand
        return sphere_point(mu), max_iter
