"""Seeded samplers for each space and Monte Carlo experiments that check
the asymptotic behavior of the estimators empirically: confidence-region
coverage, open-book stickiness fractions, two-sample type-I error, and
consistency decay of the mean.

Randomness runs through counter-based Philox streams keyed by
(seed, replication), so replication r is reproducible independent of the
order in which replications execute (see ``streams``).

The experiments run their replications in blocks of at most BLOCK_POINTS
sample points.  Each replication draws its raw variates from its own
stream into the block's arrays; the descriptor turns the whole block into
points at once.  A block's means come from one ``mean_many`` call, and
each group of replications whose means share a stratum (all of them, but
on the open book) is run in the charts at its means, stacked.  A kernel that refuses
some rows or fits of a stack raises an error that masks them; the block
records a failure for each replication they belong to and runs the rest
of its replications again, through the same function.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import CutLocus, FrechetStatsError, InvalidDescriptor, InvalidPoint
from .estimator import check_derivatives, confidence_regions_contain, stacked_sandwich
from .geometry import Sample, euclidean_point, euclidean_sample, openbook_point
from .geometry import openbook_sample, row_norms, row_products
from .geometry import sphere_point, sphere_sample
from .inference import two_sample_tests
from .spaces.spd import _expm_sample, spd_exp_sample, spd_vech
from .spaces.sphere import _columns, _coordinate_norms, _coordinate_sum, _exp_rows
from .spaces.sphere import _logs, tangent_basis
from .streams import Streams, is_count

#: estimation failures tolerated (as a fraction of replications) before a
#: Monte Carlo run is aborted instead of silently dropping replications
FAILURE_BUDGET = 0.01

#: sample points drawn and fitted together in one block of replications;
#: bounds the memory of the batched experiments.  On the small-n Monte Carlo
#: benchmark workload as it was when BENCH_13.json was recorded (one core of
#: a 2-core Xeon, two runs each; the kernels have changed since), blocks of
#: 2,048, 4,096, 8,192 and 16,384 points ran 4,380, 5,440, 6,240 and 6,940
#: replications/s at a peak RSS of 122.4, 124.4, 125.8 and 130.4 MB: the
#: last doubling buys 11% for three times the memory step of the one before.
BLOCK_POINTS = 8192

#: failed replications quoted by key in a failure-budget error
QUOTED_KEYS = 5


# ---------------------------------------------------------------------------
# distribution descriptors
# ``variates(space, size)``: a block's raw variate arrays and ``draw(rng,
# start, end)``, which fills one replication's rows with its stream's RNG
# calls and only what must be done per replication (the open book's leaf
# counts, the Gaussian product); ``assemble`` does the rest once per block.


@dataclass(frozen=True)
class GaussianDescriptor:
    """Multivariate normal on R^s; ``cov`` may be a scalar (isotropic) or a
    full covariance matrix."""

    mean: tuple
    cov: object = 1.0

    def _cov_matrix(self, dim):
        c = np.asarray(self.cov, dtype=float)
        if c.ndim == 0:
            return float(c) * np.eye(dim)
        if c.shape != (dim, dim):
            raise InvalidDescriptor("covariance shape does not match the dimension")
        return c

    def validate(self, space):
        if getattr(space, "kind", None) != "euclidean":
            raise InvalidDescriptor("gaussian descriptor requires a Euclidean space")
        m = np.asarray(self.mean, dtype=float)
        if m.shape != (space.dim,):
            raise InvalidDescriptor("mean length does not match the space dimension")
        c = self._cov_matrix(space.dim)
        if not np.allclose(c, c.T) or np.linalg.eigvalsh(c)[0] < 0.0:
            raise InvalidDescriptor("covariance must be symmetric PSD")

    def variates(self, space, size):
        # eigen root instead of Cholesky: singular PSD covariances are legal
        w, v = np.linalg.eigh(self._cov_matrix(space.dim))
        root_t = (v * np.sqrt(np.maximum(w, 0.0))).T
        rows = np.empty((size, space.dim))
        # one product per replication, in place: BLAS computes a single row
        # by another path than a stack of rows, so a product over the whole
        # block would change the draws of n = 1
        return (rows,), lambda rng, start, end: np.matmul(
            rng.standard_normal(out=rows[start:end]), root_t, out=rows[start:end])

    def assemble(self, variates, space):
        (rows,) = variates
        return euclidean_sample(np.add(rows, np.asarray(self.mean, dtype=float), out=rows))

    def population_mean(self, space):
        return euclidean_point(self.mean)


@dataclass(frozen=True)
class SphereCapDescriptor:
    """Uniform distribution on a geodesic cap; radius 0 is a point mass at
    the center.  The population mean is the center by symmetry.

    Points are drawn exactly in every dimension: the colatitude by
    inverting its CDF on the cap, the direction uniformly in the tangent
    space at the center."""

    center: tuple
    radius: float

    def validate(self, space):
        if getattr(space, "kind", None) != "sphere":
            raise InvalidDescriptor("cap descriptor requires a sphere space")
        c = np.asarray(self.center, dtype=float)
        if c.shape != (space.ambient_dim,):
            raise InvalidDescriptor("center length does not match the ambient dimension")
        if abs(np.linalg.norm(c) - 1.0) > 1e-9:
            raise InvalidDescriptor("cap center must be a unit vector")
        if not 0.0 <= self.radius < np.pi:
            raise InvalidDescriptor("cap radius must lie in [0, pi)")

    def _center(self):
        center = np.asarray(self.center, dtype=float)
        return center / np.linalg.norm(center)

    def variates(self, space, size):
        if self.radius == 0.0:
            return (np.empty((size, 0)),), lambda rng, start, end: None
        # the colatitude's CDF level, then the azimuth's on S^2, a Gaussian
        # tangent direction on S^d
        s2 = space.ambient_dim == 3
        level, direction = np.empty(size), np.empty((size,) if s2 else (size, space.chart_dim))
        method = "random" if s2 else "standard_normal"

        def draw(rng, start, end):
            rng.random(out=level[start:end])
            getattr(rng, method)(out=direction[start:end])

        return (level, direction), draw

    def assemble(self, variates, space):
        center = self._center()
        if self.radius == 0.0:
            return sphere_sample(np.tile(center, (len(variates[0]), 1)))
        level, direction = variates
        basis = tangent_basis(center)
        if space.ambient_dim == 3:
            # exact inverse-CDF sampling of the colatitude on S^2, the
            # points built and normalized as (3, n) columns
            theta = np.arccos(1.0 - level * (1.0 - np.cos(self.radius)))
            phi = 2.0 * np.pi * direction
            cos_t, sin_t, cos_p, sin_p = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
            cols, rows = np.empty((3, len(level))), np.empty((len(level), 3))
            for k in range(3):
                np.add(cos_t * center[k], sin_t * (cos_p * basis[0, k] + sin_p * basis[1, k]),
                       out=cols[k])
            nrm = np.sqrt(_coordinate_sum(cols * cols))
            for k in range(3):
                np.divide(cols[k], nrm, out=rows[:, k])
            return Sample("sphere", rows)  # unit rows by construction
        # on S^d, w = (1 - cos theta) / 2 is Beta(d/2, d/2) under the
        # uniform law; invert its CDF truncated to the cap, w <= sin(r/2)^2
        # (scipy is imported here, the one place the library needs it)
        from scipy import special

        a = 0.5 * space.chart_dim
        top = special.betainc(a, a, np.sin(0.5 * self.radius) ** 2)
        w = special.betaincinv(a, a, level * top)
        dirs = row_products(direction, basis)
        dirs /= row_norms(dirs)[:, None]
        cos_t, sin_t = 1.0 - 2.0 * w, 2.0 * np.sqrt(w * (1.0 - w))
        rows = cos_t[:, None] * center + sin_t[:, None] * dirs
        return Sample("sphere", rows / _coordinate_norms(rows)[:, None])  # unit rows by construction

    def population_mean(self, space):
        return sphere_point(self._center())


@dataclass(frozen=True)
class SphereTwoPointDescriptor:
    """Half/half mixture of two fixed points; the population mean is their
    geodesic midpoint."""

    a: tuple
    b: tuple

    def validate(self, space):
        if getattr(space, "kind", None) != "sphere":
            raise InvalidDescriptor("two-point descriptor requires a sphere space")
        for v in (self.a, self.b):
            u = np.asarray(v, dtype=float)
            if u.shape != (space.ambient_dim,) or abs(np.linalg.norm(u) - 1.0) > 1e-9:
                raise InvalidDescriptor("two-point support must be unit vectors")
        if np.linalg.norm(np.asarray(self.a) + np.asarray(self.b)) < 1e-9:
            raise InvalidDescriptor("antipodal support has no unique mean")

    def variates(self, space, size):
        u = np.empty(size)
        return (u,), lambda rng, start, end: rng.random(out=u[start:end])

    def assemble(self, variates, space):
        (u,) = variates
        return sphere_sample(np.where((u < 0.5)[:, None], self.a, self.b))

    def population_mean(self, space):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        half = 0.5 * _logs(_columns(b), a)[:, 0]
        return sphere_point(_exp_rows(a[None], half[None])[0])


@dataclass(frozen=True)
class SPDLogGaussianDescriptor:
    """expm of a Gaussian symmetric matrix: isotropic normal with standard
    deviation ``scale`` per isometric-vech coordinate around ``mean_log``;
    a block's matrices are built from its vech rows (``spd_exp_sample``)."""

    mean_log: tuple
    scale: float

    def validate(self, space):
        if getattr(space, "kind", None) != "spd":
            raise InvalidDescriptor("spd descriptor requires an SPD space")
        m = np.asarray(self.mean_log, dtype=float)
        if m.shape != (space.p, space.p) or not np.allclose(m, m.T, atol=1e-10):
            raise InvalidDescriptor("mean_log must be a symmetric matrix of the space's size")
        if not self.scale >= 0.0:  # NaN too
            raise InvalidDescriptor("scale must be nonnegative")

    def variates(self, space, size):
        z = np.empty((size, space.chart_dim))
        return (z,), lambda rng, start, end: rng.standard_normal(out=z[start:end])

    def assemble(self, variates, space):
        (z,) = variates
        z *= self.scale
        z += spd_vech(np.asarray(self.mean_log, dtype=float))  # the drawn vech rows
        return spd_exp_sample(z, space.p)

    def population_mean(self, space):
        if space.metric != "log_euclidean":
            raise InvalidDescriptor(
                "closed-form population mean of the expm-gaussian family is only "
                "available under the log-Euclidean metric"
            )
        # expm(mean_log), which keeps mean_log as its matrix log
        return _expm_sample(np.asarray(self.mean_log, dtype=float)[None])


#: each height family, with the Generator method that draws its standard variates
_X0_FAMILIES = {"constant": None, "exponential": "standard_exponential",
                "half_gaussian": "standard_normal"}


def _x0_moments(family, param):
    """Mean and second moment of a height family."""
    p = float(param)
    if family == "constant":
        return p, p**2
    if family == "exponential":
        return 1.0 / p, 2.0 / p**2
    return p * np.sqrt(2.0 / np.pi), p**2


@dataclass(frozen=True)
class OpenBookDescriptor:
    """Open-book sampling law: leaf occupation probabilities (any remainder
    is spine mass), a nonnegative height family per leaf, and a shared
    Gaussian law for the spine-parallel coordinates.

    Height families: ``("constant", c)``, ``("exponential", rate)``,
    ``("half_gaussian", scale)``, drawn as standard exponential and normal
    variates, leaf by leaf, and scaled once per block.
    """

    leaf_probs: tuple
    x0: object = ("exponential", 1.0)
    spine_mean: tuple = ()
    spine_sd: float = 1.0

    def _families(self, n_leaves):
        fams = self.x0
        if fams and isinstance(fams[0], str):
            fams = [tuple(fams)] * n_leaves
        fams = [tuple(f) for f in fams]
        if len(fams) != n_leaves:
            raise InvalidDescriptor("need one height family per leaf")
        for name, param in fams:
            if name not in _X0_FAMILIES:
                raise InvalidDescriptor(f"unknown height family {name!r}")
            if not (float(param) > 0.0 or (name == "constant" and float(param) == 0.0)):  # NaN too
                raise InvalidDescriptor(f"invalid parameter for height family {name!r}")
        return fams

    def validate(self, space):
        if getattr(space, "kind", None) != "openbook":
            raise InvalidDescriptor("open-book descriptor requires an open-book space")
        probs = np.asarray(self.leaf_probs, dtype=float)
        if probs.shape != (space.n_leaves,):
            raise InvalidDescriptor("need one occupation probability per leaf")
        if not (np.all(probs >= 0.0) and probs.sum() <= 1.0 + 1e-12):  # NaN too
            raise InvalidDescriptor("leaf probabilities must be nonnegative with sum <= 1")
        if np.asarray(self.spine_mean, dtype=float).shape != (space.spine_dim,):
            raise InvalidDescriptor("spine_mean length must equal the spine dimension")
        if not self.spine_sd >= 0.0:  # NaN too
            raise InvalidDescriptor("spine_sd must be nonnegative")
        self._families(space.n_leaves)

    def variates(self, space, size):
        methods = [_X0_FAMILIES[name] for name, _ in self._families(space.n_leaves)]
        edges = np.cumsum(np.asarray(self.leaf_probs, dtype=float))
        leaf, z = np.empty(size, dtype=np.intp), np.empty((size, space.spine_dim))
        heights = np.empty((space.n_leaves, size))  # each leaf's, in the order drawn
        drawn = [0] * space.n_leaves

        def draw(rng, start, end):
            # each point's leaf index (its label less one; n_leaves for spine
            # mass), whose counts size the height draws
            leaf[start:end] = np.searchsorted(edges, rng.random(end - start), side="right")
            counts = np.bincount(leaf[start:end], minlength=space.n_leaves + 1)[:-1]
            for k, count in enumerate(counts.tolist()):
                if count and methods[k]:
                    getattr(rng, methods[k])(out=heights[k, drawn[k] : drawn[k] + count])
                drawn[k] += count
            rng.standard_normal(out=z[start:end])

        return (leaf, heights, z), draw

    def assemble(self, variates, space):
        leaf, heights, z = variates
        coords = np.zeros((len(leaf), space.spine_dim + 1))
        x0 = coords[:, 0]  # 0 on the spine mass
        for k, (name, param) in enumerate(self._families(space.n_leaves)):
            rows = leaf == k
            if name == "constant":
                x0[rows] = float(param)
                continue
            h, c = heights[k, : np.count_nonzero(rows)], float(param)
            # exponential(1 / rate) and |normal(0, scale)|, bit for bit
            x0[rows] = (1.0 / c) * h if name == "exponential" else np.abs(c * h)
        np.add(np.asarray(self.spine_mean, dtype=float), self.spine_sd * z, out=coords[:, 1:])
        return openbook_sample(np.where(leaf < space.n_leaves, leaf + 1, 0), coords)  # 0: spine

    def _leaf_moments(self, space):
        """(K, 2): each leaf's probability times the mean and the second
        moment of its heights."""
        probs = np.asarray(self.leaf_probs, dtype=float)[:, None]
        return probs * np.array([_x0_moments(*f) for f in self._families(space.n_leaves)])

    def population_folded_means(self, space):
        """Closed-form folded means m_k of the sampling law."""
        contrib = self._leaf_moments(space)[:, 0]
        return 2.0 * contrib - contrib.sum()

    def population_folded_variance(self, space, k):
        """Variance of the zero-th coordinate of f_k under the law."""
        second = float(self._leaf_moments(space)[:, 1].sum())
        return second - float(self.population_folded_means(space)[k - 1]) ** 2

    def population_mean(self, space):
        m = self.population_folded_means(space)
        k = int(np.argmax(m))
        # height 0, when no folded mean is positive, puts the mean on the spine
        return openbook_point(k + 1, np.concatenate([[max(0.0, m[k])], self.spine_mean]))


# ---------------------------------------------------------------------------
# sampler and experiments


@dataclass(frozen=True)
class Sampler:
    """Space + distribution descriptor + seed; the only source of randomness
    for the Monte Carlo experiments.  The seed is a non-negative integer, and
    so is a replication key or each entry of a tuple key."""

    space: object
    descriptor: object
    seed: int

    def __post_init__(self):
        if not is_count(self.seed):
            raise InvalidDescriptor(f"seed must be a non-negative integer, got {self.seed!r}")
        # a Sample has a kind too, which the descriptors' kind checks would accept
        if isinstance(self.space, Sample):
            raise InvalidDescriptor(f"a Sampler needs a space, got a {type(self.space).__name__}")
        self.descriptor.validate(self.space)

    def rng(self, rep=0, streams=None):
        """Generator at the start of the replication-``rep`` stream, the
        stream of ``SeedSequence(seed, spawn_key=rep)``, which keys with the
        same words share (``2**32`` and ``(0, 1)``, see ``streams``).
        Alone, it is a Generator of its own; with ``streams`` (this seed's
        ``Streams`` over keys that include ``rep``), it is their shared
        Generator, which draws ``rep``'s stream until the next is opened."""
        return (Streams(self.seed, [rep]) if streams is None else streams).open(rep)

    def draw(self, n, rep=0):
        """Sample of n i.i.d. points from the replication-``rep`` stream."""
        return self.draw_many(n, [rep])

    def draw_many(self, n, keys):
        """Samples of n i.i.d. points from the stream of each replication
        key, stacked row-wise in one Sample: the rows of ``keys[i]`` follow
        those of ``keys[i - 1]``.  ``n`` may also be one size per key.  The
        streams are opened in key order, one ``rng`` call per key on one
        bit generator for the call; each key draws its rows of the block's
        variates, and the descriptor turns them all into points at once."""
        if len(keys) == 0:
            raise InvalidDescriptor("keys name no replication")
        sizes = np.asarray(n)
        if sizes.dtype.kind not in "iu":
            raise InvalidDescriptor(f"sample sizes must be integers, got {n!r}")
        try:
            sizes = np.broadcast_to(sizes, (len(keys),))
        except ValueError:
            raise InvalidDescriptor(f"{np.size(n)} sample sizes for {len(keys)} keys") from None
        if np.any(sizes < 1):
            raise InvalidDescriptor("n must be >= 1")
        streams = Streams(self.seed, keys)
        ends = np.cumsum(sizes).tolist()
        variates, draw = self.descriptor.variates(self.space, ends[-1])
        for key, start, end in zip(keys, [0, *ends], ends):
            draw(self.rng(key, streams), start, end)
        return self.descriptor.assemble(variates, self.space)

    def population_mean(self):
        return self.descriptor.population_mean(self.space)


@dataclass(frozen=True)
class MCReport:
    """Monte Carlo summary: point estimate with binomial standard error,
    per-replication outcomes, and the count of failed replications.

    ``details['failed_reps']`` lists each failed replication as (key,
    exception class, message) and ``details['failure_counts']`` counts
    them by class."""

    experiment: str
    reps: int
    estimate: float
    std_error: float
    failures: int
    outcomes: tuple
    details: dict = field(default_factory=dict)


def _binomial_se(p_hat, n_eff):
    return float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_eff)) if n_eff else float("nan")


def _failure_details(failed):
    counts = dict(Counter(name for _, name, _ in failed))
    return {"failed_reps": tuple(failed), "failure_counts": counts}


def _check_failures(failed, reps, experiment):
    """Abort when the ``(key, class, message)`` records of ``failed``
    exceed the failure budget of ``reps`` replications."""
    if len(failed) > FAILURE_BUDGET * reps:
        counts = _failure_details(failed)["failure_counts"]
        by_class = ", ".join(f"{name} x{count}" for name, count in sorted(counts.items()))
        keys = ", ".join(str(key) for key, _, _ in failed[:QUOTED_KEYS])
        more = ", ..." if len(failed) > QUOTED_KEYS else ""
        raise FrechetStatsError(
            f"{experiment}: {len(failed)}/{reps} replications failed "
            f"(budget {FAILURE_BUDGET:.0%}): {by_class}; first failed keys {keys}{more}"
        )


def _check_run(sampler, reps, alpha=None, least=1, **sizes):
    """Refuse, before anything is drawn, a ``sampler`` that is not a
    Sampler, a run of no replications, an ``alpha`` outside (0, 1), or a
    count of replications or a sample size that is not an integer or is
    below ``least``."""
    if not isinstance(sampler, Sampler):
        raise InvalidDescriptor(f"sampler must be a Sampler, got {type(sampler).__name__}")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise InvalidDescriptor(f"alpha must lie in (0, 1), got {alpha!r}")
    for name, value, low in (("reps", reps, 1), *((k, v, least) for k, v in sizes.items())):
        if not is_count(value):
            raise InvalidDescriptor(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise InvalidDescriptor(f"{name} must be >= {low}, got {value!r}")


def _blocks(keys, points):
    """``keys`` in consecutive blocks of at most BLOCK_POINTS sample points,
    ``points`` per replication (at least one replication per block)."""
    per = max(1, BLOCK_POINTS // points)
    return [keys[i : i + per] for i in range(0, len(keys), per)]


def _part(sample, count, groups):
    """The Sample of the ``groups`` of ``sample``'s ``count`` equal groups
    of consecutive rows."""
    return sample.take(np.arange(len(sample)).reshape(count, -1)[groups].reshape(-1))


def _outcomes(space, keys, block, batched, failed):
    """Outcomes, in key order, of the replications ``keys`` of a block of
    samples of equal size (a replication's groups in a row):
    ``batched(stack, means)`` of each group of replications whose means
    share a stratum (all of them, but on the open book), stacked.  A raise
    that masks rows or fits of the stack being run fails the replications
    they belong to, each recorded in ``failed`` (in key order) as (key,
    class, message), and the others run again; any other raise aborts.
    ``mean_many`` is such a kernel: it masks the replications whose
    iterative mean did not converge (NoConvergence)."""
    reps = len(keys)
    live, out, refused = np.arange(reps), [], {}  # the replications not failed yet
    while live.size:
        sample = block if len(live) == reps else _part(block, reps, live)
        stack = live  # the replications of the call in progress
        try:
            means, _ = space.mean_many(sample, len(live))
            strata = np.zeros(len(live), bool) if means.leaves is None else means.leaves > 0
            if strata.all() or not strata.any():
                out = batched(sample, means)
                break
            grouped = {}
            for rows in (np.flatnonzero(~strata), np.flatnonzero(strata)):
                stack = live[rows]
                parts = [_part(s, len(live), rows) for s in (sample, means)]
                grouped.update(zip(rows.tolist(), batched(*parts)))
            out = [grouped[i] for i in range(len(live))]
            break
        except FrechetStatsError as exc:
            mask = np.asarray([] if exc.refused is None else exc.refused, dtype=bool)
            if not mask.any() or mask.size % len(stack):
                raise
            hit = stack[mask.reshape(len(stack), -1).any(axis=1)]
            refused.update((i, (keys[i], type(exc).__name__, str(exc))) for i in hit.tolist())
            live = live[~np.isin(live, hit)]
    failed += [refused[i] for i in sorted(refused)]
    return out


def _rate_report(experiment, reps, outcomes, failed, **details):
    """MCReport of the fraction of true outcomes, once the failures are
    within the budget."""
    _check_failures(failed, reps, f"mc_{experiment}")
    est = float(np.mean(outcomes)) if outcomes else float("nan")
    return MCReport(experiment=experiment, reps=reps, estimate=est,
                    std_error=_binomial_se(est, len(outcomes)), failures=len(failed),
                    outcomes=tuple(outcomes), details={**details, **_failure_details(failed)})


def mc_coverage(sampler, n, reps, alpha, derivatives="auto"):
    """Empirical coverage of the (1 - alpha) sandwich confidence ellipsoid.

    Each replication fits the mean and covariance on a fresh sample and
    checks whether the chart image of the *true* population mean falls in
    the region.  Replications where the true mean lies outside the fitted
    chart's domain count as misses; numeric failures are counted separately
    and tolerated only up to the failure budget.  A block of replications
    is fitted as arrays, in either ``derivatives`` mode, in the charts at
    its means stacked (one stack per stratum on the open book).  An
    unknown ``derivatives`` mode raises InvalidDescriptor before anything
    is drawn.
    """
    _check_run(sampler, reps, alpha, n=n)
    check_derivatives(derivatives)
    space = sampler.space
    truth = sampler.population_mean()

    def batched(block, means):
        chart = space.chart_at(means)
        coords = chart.forward_many(means)
        packed = chart.pack(block).reshape(len(means), n, -1)
        asym = stacked_sandwich(chart, coords, packed, derivatives=derivatives)[2]
        # the truth in the charts at the means; outside a chart's domain, a
        # miss whose candidate is the mean itself, the others retried once
        truths, inside = truth.take(np.zeros(len(means), int)), True
        try:
            candidates = chart.forward_many(truths)
        except (InvalidPoint, CutLocus) as exc:
            inside = ~np.reshape(exc.refused, len(means))
            rows = np.arange(len(means)) + np.where(inside, 0, len(means))
            retry = chart.forward_many(Sample.join([truths, means]).take(rows))
            candidates = np.where(inside[:, None], retry, coords)
        return (inside & confidence_regions_contain(n, coords, asym, candidates, alpha)).tolist()

    outcomes, failed = [], []
    for keys in _blocks(list(range(reps)), n):
        outcomes += _outcomes(space, keys, sampler.draw_many(n, keys), batched, failed)
    return _rate_report("coverage", reps, outcomes, failed,
                        alpha=alpha, n=n, derivatives=derivatives)


def mc_stickiness(sampler, n, reps):
    """Fractions of replications whose exact open-book mean lands on the
    spine versus each leaf.

    The point estimate is the fraction landing in the population-predicted
    stratum (spine fraction when the population folded means have no strict
    winner).  ``details['mean_x0']`` records the height of each
    replication's mean for boundary-regime diagnostics.  The means of a
    whole block come from one ``mean_many`` call.
    """
    _check_run(sampler, reps, n=n)
    space = sampler.space
    if getattr(space, "kind", None) != "openbook":
        raise InvalidDescriptor("mc_stickiness requires an open-book sampler")
    pop_m = sampler.descriptor.population_folded_means(space)
    pop_leaf = int(np.argmax(pop_m)) + 1 if float(np.max(pop_m)) > 0.0 else 0
    tags, heights = [], []
    names = ["spine"] + [f"leaf_{k}" for k in range(1, space.n_leaves + 1)]  # one string each
    for keys in _blocks(list(range(reps)), n):
        means, _ = space.mean_many(sampler.draw_many(n, keys), len(keys))
        tags += [names[leaf] for leaf in means.leaves.tolist()]
        heights += means.data[:, 0].tolist()
    fractions = {tag: tags.count(tag) / reps for tag in sorted(set(tags))}
    target = names[pop_leaf]
    est = fractions.get(target, 0.0)
    return MCReport(
        experiment="stickiness",
        reps=reps,
        estimate=est,
        std_error=_binomial_se(est, reps),
        failures=0,
        outcomes=tuple(tags),
        details={
            "n": n,
            "target": target,
            "fractions": fractions,
            "mean_x0": tuple(heights),
            "population_folded_means": tuple(float(v) for v in pop_m),
        },
    )


def mc_type1(space, sampler, n1, n2, reps, alpha):
    """Empirical type-I error of the two-sample chart test under H0.

    Both groups are drawn from the sampler's distribution.  A block of
    replications is tested by ``two_sample_tests`` in the charts at their
    pooled means, stacked.  ``details['df']`` counts the tests by degrees
    of freedom (on the open book D at a pooled mean on the spine, D + 1 on
    a leaf).
    """
    _check_run(sampler, reps, alpha, least=2, n1=n1, n2=n2)
    if repr(sampler.space) != repr(space):
        raise InvalidDescriptor("sampler and space arguments disagree")

    def batched(block, means):
        chart = space.chart_at(means)
        p_values = two_sample_tests(chart, block, len(means), n1)[1]
        return [(reject, chart.s) for reject in (p_values <= alpha).tolist()]

    results, failed = [], []
    for block_reps in _blocks(list(range(reps)), n1 + n2):
        keys = [key for rep in block_reps for key in ((rep, 0), (rep, 1))]
        block = sampler.draw_many([n1, n2] * len(block_reps), keys)
        results += _outcomes(space, block_reps, block, batched, failed)
    return _rate_report("type1", reps, [reject for reject, _ in results], failed, alpha=alpha,
                        n1=n1, n2=n2, df=dict(sorted(Counter(df for _, df in results).items())))


def mc_consistency(space, sampler, n_grid, reps):
    """Median distance between the estimated and true mean at each sample
    size; returns a list of (n, median error) rows.  A block of
    replications is fitted with one ``mean_many`` call and scored with one
    ``distance_many`` call."""
    try:
        n_grid = list(n_grid)
    except TypeError:
        raise InvalidDescriptor(
            f"n_grid must be an iterable of sample sizes, got {n_grid!r}") from None
    if not n_grid:
        raise InvalidDescriptor("n_grid names no sample size")
    for n in n_grid:
        _check_run(sampler, reps, n=n)
    if repr(sampler.space) != repr(space):
        raise InvalidDescriptor("sampler and space arguments disagree")
    truth = sampler.population_mean()

    def batched(block, means):
        return space.distance_many(means, truth).tolist()

    runs, failed = [], []
    for n in n_grid:
        errs = []
        runs.append((n, errs))
        for keys in _blocks([(n, rep) for rep in range(reps)], n):
            errs += _outcomes(space, keys, sampler.draw_many(n, keys), batched, failed)
    _check_failures(failed, reps * len(runs), "mc_consistency")
    return [(int(n), float(np.median(errs)) if errs else float("nan")) for n, errs in runs]
