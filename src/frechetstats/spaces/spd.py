"""Symmetric positive definite p x p matrices under the Euclidean
(Frobenius) and log-Euclidean metrics.

Both metrics admit a global isometric chart: ``vech`` of the matrix itself,
or of its matrix logarithm.  The off-diagonal entries of ``vech`` carry a
sqrt(2) factor so the chart preserves the Frobenius norm exactly, which
reduces both geometries to the Euclidean case (closed-form means, analytic
derivatives, sandwich covariance equal to the chart-vector covariance).

An SPD sample's matrix logs are its ``_logs`` field, filled by
``_sample_logs`` when first needed.  A drawn log-Gaussian stack
(``spd_exp_sample``) is a deferred Sample: its matrix logs, gathered from
its drawn vech rows, are that field, and it builds its matrices only when
its ``data`` is read.  A log-Euclidean fit reads only the logs (means,
chart images, sandwiches, tests), so log-Euclidean Monte Carlo builds no
drawn matrix; the Euclidean metric reads the matrices, and a row taken
from the sample (a one-row Sample) builds its own alone.  Log-Euclidean
means likewise keep their mean logs, and ``spd_expm`` builds their
matrices when they are read.

Every matrix log and exponential, of user data or of a draw, comes from
one decomposition, ``_eigh``: LAPACK's for p != 3, and for p = 3 a batched
cyclic Jacobi eigensolver (``_eigh3``) that keeps the six unique entries of
every matrix as (n,) arrays, so each numpy operation covers the whole stack;
a matrix still unconverged after a fixed number of sweeps goes to LAPACK.
Eigenvalues are within 1e-14 of the largest in magnitude (about 2e-15
measured), a relative error of that size in an exponential.  The choice
depends only on p, so a matrix gets the same bits drawn or read, alone or
in any stack; one matrix alone costs about 0.2 ms, against LAPACK's 0.006.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import InvalidDescriptor, InvalidPoint, NotPositiveDefinite
from ..geometry import FlatChart, Sample, Space, group_differences, row_norms, space_size
from ..geometry import spd_sample
from ..geometry import UPPER_COLUMNS, matrix_to_upper, upper_to_matrix  # noqa: F401 (re-exported)

_SQRT2 = np.sqrt(2.0)

#: widest spread of log-eigenvalues (the log of the eigenvalue ratio) at
#: which ``spd_exp_sample`` keeps the logs it exponentiates; safely below
#: ln(1e14) ~ 32.2, where ``spd_logm`` refuses a matrix as near-singular
KEPT_LOG_SPREAD = 30.0

#: sweeps of the 3x3 Jacobi eigensolver, and the tolerance of its test for
#: the slow matrices that ``_eigh`` decomposes by np.linalg.eigh instead
_JACOBI_SWEEPS = 4
_JACOBI_TOL = 1e-15

#: the rotations (p, q) of a cyclic sweep, each with the positions in the
#: off-diagonal list (a12, a13, a23) of the entries (p, q), (r, p) and
#: (r, q) it changes, r being the third index
_ROTATIONS = ((0, 1, 0, 1, 2), (0, 2, 1, 0, 2), (1, 2, 2, 0, 1))


def _symmetric(a):
    """The symmetric part of each matrix of a (..., p, p) stack."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _spectral(w, v):
    """The symmetrized matrices V diag(w) V^T of a (..., p, p) stack."""
    return _symmetric((v * w[..., None, :]) @ np.swapaxes(v, -1, -2))


def _eigh(a):
    """Eigenvalues (..., p) and orthonormal eigenvectors (..., p, p, one per
    column) of the symmetric part of each matrix of a (..., p, p) stack:
    unordered from ``_eigh3`` for p = 3, but LAPACK's for the matrices it
    leaves unconverged and for every other p.  InvalidPoint masks the
    matrices with a non-finite entry, and refuses outright an array that is
    not a stack of p x p matrices, p >= 1."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise InvalidPoint(f"expected a p x p matrix or a (..., p, p) stack of them, got shape {a.shape}")
    nonfinite = ~np.isfinite(a).all(axis=(-2, -1))
    if nonfinite.any():
        raise InvalidPoint("matrix has a non-finite entry", nonfinite)
    a = _symmetric(a)
    if a.shape[-1] != 3:
        return np.linalg.eigh(a)
    flat = a.reshape(-1, 3, 3)
    w, v, slow = _eigh3(flat)
    if slow.size:
        w[slow], v[slow] = np.linalg.eigh(flat[slow])
    return w.reshape(a.shape[:-1]), v.reshape(a.shape)


def spd_logm(a):
    """Matrix logarithm of an SPD matrix, or of each matrix of a (..., p, p)
    stack, via symmetric eigendecomposition (``_eigh``).  A matrix whose
    eigenvalue ratio is at most 1e-14 raises NotPositiveDefinite, which
    masks every such matrix of the stack and quotes the smallest eigenvalue
    of the first.  For p = 3 the ratio is Jacobi's, so a matrix within
    about 2e-15 of its largest eigenvalue of the threshold may be decided
    otherwise than by LAPACK's."""
    w, v = _eigh(a)
    refused = w.min(axis=-1) <= 1e-14 * np.maximum(w.max(axis=-1), 0.0)
    if refused.any():
        low = w.reshape(-1, w.shape[-1])[np.flatnonzero(refused)[0]].min()
        raise NotPositiveDefinite(f"matrix has near-zero or negative eigenvalue {low:.3e}", refused)
    return _spectral(np.log(w), v)


def spd_expm(b):
    """Matrix exponential of a symmetric matrix, or of each matrix of a
    (..., p, p) stack (always SPD), via ``_eigh``."""
    w, v = _eigh(b)
    return _spectral(np.exp(w), v)


def _eigh3(a):
    """Eigenvalues (n, 3) and orthonormal eigenvectors (n, 3, 3, one per
    column) of an (n, 3, 3) stack of symmetric matrices, as np.linalg.eigh
    gives them but in no particular order, and the indices of the slow
    matrices: _JACOBI_SWEEPS cyclic Jacobi sweeps over the whole stack at
    once, each matrix's arithmetic independent of the others', leave a slow
    matrix's largest off-diagonal entry above _JACOBI_TOL times its largest."""
    d = [a[:, 0, 0], a[:, 1, 1], a[:, 2, 2]]
    off = [a[:, 0, 1], a[:, 0, 2], a[:, 1, 2]]
    largest = np.max(np.abs(d + off), axis=0)  # over the six unique entries
    zero = np.zeros(len(a))
    cols = [np.zeros((3, len(a))) for _ in range(3)]  # eigenvector j as cols[j][k]
    for j in range(3):
        cols[j][j] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_JACOBI_SWEEPS):
            for p, q, pq, rp, rq in _ROTATIONS:
                # t, c and s: tangent, cosine and sine of the rotation
                # angle that zeroes entry (p, q)
                apq = off[pq]
                theta = (d[q] - d[p]) / (2.0 * apq)
                t = 1.0 / (theta + np.copysign(np.sqrt(theta * theta + 1.0), theta))
                t[np.isnan(t)] = 0.0  # 0/0: apq = 0 on an equal diagonal pair, no rotation
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                g = t * apq
                d[p], d[q], off[pq] = d[p] - g, d[q] + g, zero
                off[rp], off[rq] = c * off[rp] - s * off[rq], s * off[rp] + c * off[rq]
                cols[p], cols[q] = c * cols[p] - s * cols[q], s * cols[p] + c * cols[q]
    w = np.stack(d, axis=-1)
    v = np.stack(cols, axis=-1).transpose(1, 0, 2)
    return w, v, np.flatnonzero(np.max(np.abs(off), axis=0) > _JACOBI_TOL * largest)


def spd_exp_sample(rows, p):
    """Sample of the matrix exponentials (SPD by construction) of the
    symmetric p x p matrices whose isometric vech rows (``spd_vech``) are
    the (n, p(p+1)/2) ``rows``.  The sample is deferred: it holds the
    matrices and exponentiates them (``spd_expm``) only when its data is
    read, which no log-Euclidean fit does.  It keeps them as the sample's
    read-only matrix logs, so that no fit takes them again, but only the
    logs whose eigenvalues spread at most KEPT_LOG_SPREAD; ``spd_logm``
    takes the others when first needed (see ``_sample_logs``), and refuses
    a near-singular matrix as it would any other sample's.  The spread of
    a log L is at most sqrt(2) ||L - tr(L)/p I||_F, read off the rows, so
    only the logs whose bound is not below KEPT_LOG_SPREAD by more than
    rounding have their eigenvalues taken (``eigvalsh``) to decide."""
    # the columns make each sum one pass over whole arrays, not n short ones
    logs, cols = _unvech_rows(rows, p)
    mid = cols[:p].sum(axis=0) / p
    cols[:p] -= mid  # the diagonal's deviations from mid, then all squared
    cols *= cols
    bound = _SQRT2 * np.sqrt(cols[:p].sum(axis=0) + 2.0 * cols[p:].sum(axis=0))
    near = np.flatnonzero(bound > KEPT_LOG_SPREAD - 1e-12 * (KEPT_LOG_SPREAD + np.abs(mid)))
    kept = logs
    if near.size:
        w = np.linalg.eigvalsh(logs[near])
        wide = near[w[:, -1] - w[:, 0] > KEPT_LOG_SPREAD]
        if wide.size:
            kept = logs.copy()
            kept[wide] = np.nan  # not kept
    return Sample("spd", logs, None, spd_expm, kept)


def _expm_sample(logs):
    """Sample of the matrix exponentials of an (n, p, p) stack of symmetric
    matrices that keeps the stack as its read-only matrix logs, deferred:
    ``spd_expm`` takes the exponentials when its data is read.
    Log-Euclidean means are such samples, so that their chart coordinates
    are their mean logs, not the logs of their exponentials."""
    logs = _symmetric(logs)
    return Sample("spd", logs, None, spd_expm, logs)


def spd_vech(b):
    """Isometric vectorization: diagonal entries, then sqrt(2)-scaled upper
    off-diagonals in row-major order, so ||vech(B)||_2 = ||B||_F.
    InvalidPoint when ``b`` is not a square matrix."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise InvalidPoint(f"expected a square matrix, got shape {b.shape}")
    return _vech_rows(b[None])[0]


def spd_vech_inv(x, p):
    """Inverse of spd_vech for a p x p symmetric matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p * (p + 1) // 2,):
        raise InvalidPoint(f"expected a vector of length {p * (p + 1) // 2}")
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
    """Batched spd_vech over an (n, p, p) stack, as C-contiguous rows."""
    p = mats.shape[-1]
    idx, *iu = _indices(p)
    rows = np.empty((mats.shape[0], p * (p + 1) // 2))
    rows[:, :p] = mats[:, idx, idx]
    np.multiply(_SQRT2, mats[:, iu[0], iu[1]], out=rows[:, p:])
    return rows


def _unvech_rows(x, p):
    """The (n, p, p) symmetric matrices of (n, p(p+1)/2) vech rows, and the
    (p(p+1)/2, n) columns of their diagonal, then upper entries."""
    idx, *iu = _indices(p)
    pos = np.diag(idx)  # each matrix entry's column
    pos[iu[0], iu[1]] = pos[iu[1], iu[0]] = p + np.arange(len(iu[0]))
    div = np.concatenate([np.ones(p), np.full(len(iu[0]), _SQRT2)])[:, None]
    cols = np.divide(np.asarray(x, dtype=float).T, div, out=np.empty((len(div), len(x))))
    return np.ascontiguousarray(cols[pos].transpose(2, 0, 1)), cols


def _vech_inv_rows(x, p):
    """Batched spd_vech_inv over (n, p(p+1)/2) rows."""
    return _unvech_rows(x, p)[0]


def _sample_logs(sample):
    """Matrix logs of an SPD sample's matrices as a read-only (n, p, p)
    array, kept as the sample's ``_logs`` so that the mean, the chart
    images and the distances of one fit share them.  The logs not kept yet
    (all, unless the sample was built from them; the NaN rows of
    ``spd_exp_sample``'s) are taken by one ``spd_logm`` of their matrices
    alone, built alone; its NotPositiveDefinite (or InvalidPoint) masks the
    refused rows of the whole sample and keeps no log."""
    logs = sample._logs
    if logs is None:
        logs = np.full(sample.shape, np.nan)
    missing = np.flatnonzero(np.isnan(logs[:, 0, 0]))
    if not missing.size:
        return logs
    logs = logs.copy()
    try:
        logs[missing] = spd_logm(sample.take(missing).data)
    except (InvalidPoint, NotPositiveDefinite) as exc:
        refused = np.zeros(len(sample), dtype=bool)
        refused[missing] = exc.refused
        raise type(exc)(str(exc), refused) from None
    logs.setflags(write=False)
    object.__setattr__(sample, "_logs", logs)  # as Sample.data keeps its build
    return logs


class SPDChart(FlatChart):
    """Global vech chart (of the matrix, or of its log); h is exactly the
    squared chart-space Euclidean distance."""

    def __init__(self, space):
        super().__init__(space)
        self._log = space.metric == "log_euclidean"

    def pack(self, sample):
        return _vech_rows(_sample_logs(sample) if self._log else sample.data)


class SPDSpace(Space):
    """SPD(p) under the Euclidean or log-Euclidean metric."""

    kind = "spd"
    mean_strategy = "closed_form"

    def __init__(self, p, metric="log_euclidean"):
        self.p = space_size(p, "matrix size")
        if self.p < 1:
            raise InvalidDescriptor("matrix size must be >= 1")
        if metric not in ("euclidean", "log_euclidean"):
            raise InvalidDescriptor(f"unknown spd metric {metric!r}")
        self.metric = metric
        self.chart_dim = self.p * (self.p + 1) // 2
        self.point_shape = (self.p, self.p)

    def __repr__(self):
        return f"SPDSpace(p={self.p}, metric={self.metric!r})"

    def chart_at(self, base=None):
        if base is not None:
            self.check_sample(base)
        return SPDChart(self)

    def mean_many(self, sample, reps):
        """Closed-form Frechet means, after 0 iterations: the entrywise means
        (SPD by convexity of the cone) under the Euclidean metric, the
        exponentials of the mean matrix logs under the log-Euclidean one,
        which keep their mean logs (``_expm_sample``)."""
        p, its = self.p, np.zeros(reps, dtype=int)
        if self.metric == "euclidean":
            return spd_sample(sample.data.reshape(reps, -1, p, p).mean(axis=1)), its
        return _expm_sample(_sample_logs(sample).reshape(reps, -1, p, p).mean(axis=1)), its

    def distance_many(self, sample, q):
        q = self.targets(sample, q)
        if self.metric == "euclidean":
            diff = group_differences(sample.data, q.data)
        else:
            diff = group_differences(_sample_logs(sample), _sample_logs(q))
        return row_norms(diff.reshape(len(diff), -1))
