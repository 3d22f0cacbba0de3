"""Symmetric positive definite p x p matrices under the Euclidean
(Frobenius) and log-Euclidean metrics.

Both metrics admit a global isometric chart: ``vech`` of the matrix itself,
or of its matrix logarithm.  The off-diagonal entries of ``vech`` carry a
sqrt(2) factor so the chart preserves the Frobenius norm exactly, which
reduces both geometries to the Euclidean case (closed-form means, analytic
derivatives, sandwich covariance equal to the chart-vector covariance).
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

from ..errors import NotPositiveDefinite
from ..geometry import FlatChart, Space, as_sample, row_norms, spd_point, spd_sample

_SQRT2 = np.sqrt(2.0)

#: column names of the upper-triangle row format of an SPD(3) matrix
UPPER_COLUMNS = ("a11", "a12", "a13", "a22", "a23", "a33")
_UPPER = np.triu_indices(3)


def _eigh(a):
    """Eigendecomposition of the symmetric part of each matrix of a
    (..., p, p) stack."""
    a = np.asarray(a, dtype=float)
    return np.linalg.eigh(0.5 * (a + np.swapaxes(a, -1, -2)))


def _spectral(w, v):
    """The symmetrized matrices V diag(w) V^T of a (..., p, p) stack."""
    out = np.einsum("...ij,...j,...kj->...ik", v, w, v)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def spd_logm(a):
    """Matrix logarithm of an SPD matrix, or of each matrix of a (..., p, p)
    stack, via symmetric eigendecomposition.  A matrix whose eigenvalue
    ratio is at most 1e-14 raises NotPositiveDefinite, whose ``index`` is
    the flat position of the first such matrix in the stack."""
    w, v = _eigh(a)
    bad = np.flatnonzero(w[..., 0] <= 1e-14 * np.maximum(w[..., -1], 0.0))
    if bad.size:
        raise NotPositiveDefinite(
            f"matrix has near-zero or negative eigenvalue {w[..., 0].flat[bad[0]]:.3e}",
            index=int(bad[0]),
        )
    return _spectral(np.log(w), v)


def spd_expm(b):
    """Matrix exponential of a symmetric matrix, or of each matrix of a
    (..., p, p) stack (always SPD)."""
    w, v = _eigh(b)
    return _spectral(np.exp(w), v)


def spd_vech(b):
    """Isometric vectorization: diagonal entries, then sqrt(2)-scaled upper
    off-diagonals in row-major order, so ||vech(B)||_2 = ||B||_F."""
    return _vech_rows(np.asarray(b, dtype=float)[None])[0]


def spd_vech_inv(x, p):
    """Inverse of spd_vech for a p x p symmetric matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p * (p + 1) // 2,):
        raise ValueError(f"expected a vector of length {p * (p + 1) // 2}")
    return _vech_inv_rows(x[None], p)[0]


@functools.cache
def _indices(p):
    """Read-only (diagonal, strict upper row, strict upper column) index
    arrays of a p x p matrix, built once per p."""
    out = (np.arange(p),) + np.triu_indices(p, k=1)
    for a in out:
        a.setflags(write=False)
    return out


def _vech_rows(mats):
    """Batched spd_vech over an (n, p, p) stack."""
    idx, *iu = _indices(mats.shape[-1])
    diag = mats[:, idx, idx]
    return np.concatenate([diag, _SQRT2 * mats[:, iu[0], iu[1]]], axis=1)


def _vech_inv_rows(x, p):
    """Batched spd_vech_inv over (n, p(p+1)/2) rows."""
    x = np.asarray(x, dtype=float)
    b = np.zeros((x.shape[0], p, p))
    idx, *iu = _indices(p)
    b[:, idx, idx] = x[:, :p]
    off = x[:, p:] / _SQRT2
    b[:, iu[0], iu[1]] = off
    b[:, iu[1], iu[0]] = off
    return b


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


#: read-only matrix logs of SPD samples, kept while their sample lives
_LOGS = weakref.WeakKeyDictionary()


def _sample_logs(sample):
    """Matrix logs of an SPD sample's matrices as a read-only (n, p, p)
    array, taken on the first request and kept with the sample, so that
    the mean and the chart image of one fit share them."""
    logs = _LOGS.get(sample)
    if logs is None:
        logs = spd_logm(sample.data)
        logs.setflags(write=False)
        _LOGS[sample] = logs
    return logs


def spd_mean(sample, metric="log_euclidean"):
    """Closed-form Frechet mean of SPD matrices under either metric (the
    batch of one of ``SPDSpace.mean_many``).

    Euclidean: entrywise mean (SPD by convexity of the cone).
    Log-Euclidean: expm of the mean of matrix logs.
    """
    sample = as_sample(sample)
    return SPDSpace(sample.data.shape[-1], metric).mean(sample)[0]


class SPDChart(FlatChart):
    """Global vech chart (of the matrix, or of its log); h is exactly the
    squared chart-space Euclidean distance."""

    def __init__(self, space):
        self.s = space.chart_dim
        self.base = None
        self.space = space
        self._log = space.metric == "log_euclidean"

    def inverse(self, x):
        b = spd_vech_inv(x, self.space.p)
        return spd_point(spd_expm(b) if self._log else b)

    def pack(self, sample):
        return _vech_rows(_sample_logs(sample) if self._log else sample.data)


class SPDSpace(Space):
    """SPD(p) under the Euclidean or log-Euclidean metric."""

    kind = "spd"
    has_global_chart = True
    stacks_charts = True
    mean_strategy = "closed_form"

    def __init__(self, p, metric="log_euclidean"):
        if p < 1:
            raise ValueError("matrix size must be >= 1")
        if metric not in ("euclidean", "log_euclidean"):
            raise ValueError(f"unknown spd metric {metric!r}")
        self.p = int(p)
        self.metric = metric
        self.chart_dim = self.p * (self.p + 1) // 2
        self.point_shape = (self.p, self.p)

    def __repr__(self):
        return f"SPDSpace(p={self.p}, metric={self.metric!r})"

    def chart_at(self, base=None):
        if base is not None:
            self.check_bases(base)
        return SPDChart(self)

    def initial_guess(self, sample):
        return self.mean(sample)[0]

    def mean_many(self, sample, reps, **_):
        """Closed-form Frechet means (see ``spd_mean``), after 0 iterations."""
        p = self.p
        if self.metric == "euclidean":
            means = sample.data.reshape(reps, -1, p, p).mean(axis=1)
        else:
            means = spd_expm(_sample_logs(sample).reshape(reps, -1, p, p).mean(axis=1))
        return spd_sample(means), np.zeros(reps, dtype=int)

    def distance_many(self, sample, q):
        self.check_point(q)
        if self.metric == "euclidean":
            diff = sample.data - q.data
        else:
            diff = spd_logm(sample.data) - spd_logm(q.data)
        return row_norms(diff.reshape(len(diff), -1))
