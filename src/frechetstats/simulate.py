"""Seeded samplers for each space and Monte Carlo experiments that check
the asymptotic behavior of the estimators empirically: confidence-region
coverage, open-book stickiness fractions, two-sample type-I error, and
consistency decay of the mean.

Randomness runs through counter-based Philox streams keyed by
(seed, replication), so replication r is reproducible independent of the
order in which replications execute.

The experiments run their replications in blocks of at most BLOCK_POINTS
sample points.  Each replication draws its raw variates from its own
stream; the descriptor turns the whole block into points at once.  A
block's means come from one ``mean_many`` call, and each group of
replications whose means share a stratum (all of them, but on the open
book) is run in the charts at its means, stacked.  A block in which a
replication fails or spends the iteration budget runs again one
replication at a time, which records each failure as a single fit does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import (
    CutLocus,
    FrechetStatsError,
    InvalidDescriptor,
    InvalidPoint,
    NearSingularCovariance,
    NearSingularHessian,
    NoConvergence,
    NotPositiveDefinite,
)
from .estimator import (
    confidence_region_contains,
    confidence_regions_contain,
    estimate_mean,
    sandwich_covariance,
    stacked_sandwich,
)
from .geometry import MEAN_MAX_ITER, Sample, as_sample, euclidean_point, euclidean_sample
from .geometry import openbook_point, openbook_sample, row_norms, row_products
from .geometry import sphere_point, sphere_sample
from .inference import two_sample_test, two_sample_tests
from .spaces.euclidean import EuclideanSpace
from .spaces.openbook import OpenBookSpace
from .spaces.spd import SPDSpace, _expm_sample, _vech_inv_rows, spd_exp_sample, spd_vech
from .spaces.sphere import SphereSpace, sphere_exp, sphere_log, tangent_basis

#: estimation failures tolerated (as a fraction of replications) before a
#: Monte Carlo run is aborted instead of silently dropping replications
FAILURE_BUDGET = 0.01

#: sample points drawn and fitted together in one block of replications;
#: bounds the memory of the batched experiments.  On the small-n Monte Carlo
#: benchmark workload (one core of a 2-core Xeon, two runs each), blocks of
#: 2,048, 4,096, 8,192 and 16,384 points ran 4,380, 5,440, 6,240 and 6,940
#: replications/s at a peak RSS of 122.4, 124.4, 125.8 and 130.4 MB: the
#: last doubling buys 11% for three times the memory step of the one before.
BLOCK_POINTS = 8192

#: failed replications quoted by key in a failure-budget error
QUOTED_KEYS = 5

_REP_FAILURES = (
    NoConvergence,
    NearSingularHessian,
    NearSingularCovariance,
    CutLocus,
    NotPositiveDefinite,
    InvalidPoint,
)


def _stream(seed, key):
    key = (key,) if isinstance(key, (int, np.integer)) else tuple(int(k) for k in key)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# distribution descriptors


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
        if not isinstance(space, EuclideanSpace):
            raise InvalidDescriptor("gaussian descriptor requires a Euclidean space")
        m = np.asarray(self.mean, dtype=float)
        if m.shape != (space.dim,):
            raise InvalidDescriptor("mean length does not match the space dimension")
        c = self._cov_matrix(space.dim)
        if not np.allclose(c, c.T) or np.linalg.eigvalsh(c)[0] < 0.0:
            raise InvalidDescriptor("covariance must be symmetric PSD")

    def variates(self, rng, n, space):
        c = self._cov_matrix(space.dim)
        # eigen root instead of Cholesky: singular PSD covariances are legal
        w, v = np.linalg.eigh(c)
        root = v * np.sqrt(np.maximum(w, 0.0))
        # one product per replication: BLAS computes a single row by another
        # path than a stack of rows, so a product over the whole block would
        # change the draws of n = 1
        return (rng.standard_normal((n, space.dim)) @ root.T,)

    def assemble(self, variates, space):
        (z,) = variates
        return euclidean_sample(np.asarray(self.mean, dtype=float) + z)

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
        if not isinstance(space, SphereSpace):
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

    def variates(self, rng, n, space):
        if self.radius == 0.0:
            return (np.empty((n, 0)),)
        if space.ambient_dim == 3:
            u = rng.random(n)
            return (np.column_stack([u, rng.random(n)]),)
        # the colatitude's CDF level, then a Gaussian tangent direction
        return (np.column_stack([rng.random(n), rng.standard_normal((n, space.chart_dim))]),)

    def assemble(self, variates, space):
        (v,) = variates
        center = self._center()
        if self.radius == 0.0:
            return sphere_sample(np.tile(center, (len(v), 1)))
        basis = tangent_basis(center)
        if space.ambient_dim == 3:
            # exact inverse-CDF sampling of the colatitude on S^2
            theta = np.arccos(1.0 - v[:, 0] * (1.0 - np.cos(self.radius)))
            phi = 2.0 * np.pi * v[:, 1]
            dirs = np.cos(phi)[:, None] * basis[0] + np.sin(phi)[:, None] * basis[1]
            rows = np.cos(theta)[:, None] * center + np.sin(theta)[:, None] * dirs
        else:
            # on S^d, w = (1 - cos theta) / 2 is Beta(d/2, d/2) under the
            # uniform law; invert its CDF truncated to the cap, w <= sin(r/2)^2
            a = 0.5 * space.chart_dim
            top = special.betainc(a, a, np.sin(0.5 * self.radius) ** 2)
            w = special.betaincinv(a, a, v[:, 0] * top)
            dirs = row_products(v[:, 1:], basis)
            dirs /= row_norms(dirs)[:, None]
            cos_t, sin_t = 1.0 - 2.0 * w, 2.0 * np.sqrt(w * (1.0 - w))
            rows = cos_t[:, None] * center + sin_t[:, None] * dirs
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        return Sample("sphere", rows)  # unit rows by construction

    def population_mean(self, space):
        return sphere_point(self._center())


@dataclass(frozen=True)
class SphereTwoPointDescriptor:
    """Half/half mixture of two fixed points; the population mean is their
    geodesic midpoint."""

    a: tuple
    b: tuple

    def validate(self, space):
        if not isinstance(space, SphereSpace):
            raise InvalidDescriptor("two-point descriptor requires a sphere space")
        for v in (self.a, self.b):
            u = np.asarray(v, dtype=float)
            if u.shape != (space.ambient_dim,) or abs(np.linalg.norm(u) - 1.0) > 1e-9:
                raise InvalidDescriptor("two-point support must be unit vectors")
        if np.linalg.norm(np.asarray(self.a) + np.asarray(self.b)) < 1e-9:
            raise InvalidDescriptor("antipodal support has no unique mean")

    def variates(self, rng, n, space):
        return (rng.random(n),)

    def assemble(self, variates, space):
        (u,) = variates
        return sphere_sample(np.where((u < 0.5)[:, None], self.a, self.b))

    def population_mean(self, space):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        return sphere_point(sphere_exp(a, 0.5 * sphere_log(a, b)))


@dataclass(frozen=True)
class SPDLogGaussianDescriptor:
    """expm of a Gaussian symmetric matrix: isotropic normal with standard
    deviation ``scale`` per isometric-vech coordinate around ``mean_log``."""

    mean_log: tuple
    scale: float

    def validate(self, space):
        if not isinstance(space, SPDSpace):
            raise InvalidDescriptor("spd descriptor requires an SPD space")
        m = np.asarray(self.mean_log, dtype=float)
        if m.shape != (space.p, space.p) or not np.allclose(m, m.T, atol=1e-10):
            raise InvalidDescriptor("mean_log must be a symmetric matrix of the space's size")
        if self.scale < 0.0:
            raise InvalidDescriptor("scale must be nonnegative")

    def variates(self, rng, n, space):
        return (rng.standard_normal((n, space.chart_dim)),)

    def assemble(self, variates, space):
        (z,) = variates
        z = spd_vech(np.asarray(self.mean_log, dtype=float)) + self.scale * z
        return spd_exp_sample(_vech_inv_rows(z, space.p))

    def population_mean(self, space):
        if space.metric != "log_euclidean":
            raise InvalidDescriptor(
                "closed-form population mean of the expm-gaussian family is only "
                "available under the log-Euclidean metric"
            )
        # expm(mean_log), which keeps mean_log as its matrix log
        return _expm_sample(np.asarray(self.mean_log, dtype=float)[None])[0]


_X0_FAMILIES = ("constant", "exponential", "half_gaussian")


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
    ``("half_gaussian", scale)``.
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
            if float(param) < 0.0 or (name != "constant" and float(param) <= 0.0):
                raise InvalidDescriptor(f"invalid parameter for height family {name!r}")
        return fams

    def validate(self, space):
        if not isinstance(space, OpenBookSpace):
            raise InvalidDescriptor("open-book descriptor requires an open-book space")
        probs = np.asarray(self.leaf_probs, dtype=float)
        if probs.shape != (space.n_leaves,):
            raise InvalidDescriptor("need one occupation probability per leaf")
        if np.any(probs < 0.0) or probs.sum() > 1.0 + 1e-12:
            raise InvalidDescriptor("leaf probabilities must be nonnegative with sum <= 1")
        if np.asarray(self.spine_mean, dtype=float).shape != (space.spine_dim,):
            raise InvalidDescriptor("spine_mean length must equal the spine dimension")
        if self.spine_sd < 0.0:
            raise InvalidDescriptor("spine_sd must be nonnegative")
        self._families(space.n_leaves)

    def _draw_x0(self, rng, family, count):
        name, param = family
        if name == "constant":
            return np.full(count, float(param))
        if name == "exponential":
            return rng.exponential(scale=1.0 / float(param), size=count)
        return np.abs(rng.normal(0.0, float(param), size=count))

    def variates(self, rng, n, space):
        probs = np.asarray(self.leaf_probs, dtype=float)
        fams = self._families(space.n_leaves)
        edges = np.cumsum(probs)
        labels = np.searchsorted(edges, rng.random(n), side="right") + 1
        labels[labels > space.n_leaves] = 0  # spine mass
        x0 = np.zeros(n)
        for k in range(1, space.n_leaves + 1):
            mask = labels == k
            if mask.any():
                x0[mask] = self._draw_x0(rng, fams[k - 1], int(mask.sum()))
        return labels, x0, rng.standard_normal((n, space.spine_dim))

    def assemble(self, variates, space):
        labels, x0, z = variates
        rest = np.asarray(self.spine_mean, dtype=float) + self.spine_sd * z
        return openbook_sample(labels, np.column_stack([x0, rest]))

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
    for the Monte Carlo experiments."""

    space: object
    descriptor: object
    seed: int

    def __post_init__(self):
        self.descriptor.validate(self.space)

    def rng(self, rep=0):
        return _stream(self.seed, rep)

    def draw(self, n, rep=0):
        """Sample of n i.i.d. points from the replication-``rep`` stream."""
        return self.draw_many(n, [rep])

    def draw_many(self, n, keys):
        """Samples of n i.i.d. points from the stream of each replication
        key, stacked row-wise in one Sample: the rows of ``keys[i]`` follow
        those of ``keys[i - 1]``.  ``n`` may also be one size per key.  The
        streams are opened in key order and the descriptor turns all their
        variates into points at once."""
        sizes = np.broadcast_to(np.asarray(n, dtype=int), (len(keys),))
        if np.any(sizes < 1):
            raise ValueError("n must be >= 1")
        parts = [
            self.descriptor.variates(self.rng(key), int(size), self.space)
            for key, size in zip(keys, sizes)
        ]
        return self.descriptor.assemble(tuple(map(np.concatenate, zip(*parts))), self.space)

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


def _failure(key, exc):
    return key, type(exc).__name__, str(exc)


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


def _blocks(keys, points):
    """``keys`` in consecutive blocks of at most BLOCK_POINTS sample points,
    ``points`` per replication (at least one replication per block)."""
    per = max(1, BLOCK_POINTS // points)
    return [keys[i : i + per] for i in range(0, len(keys), per)]


def _outcomes(space, keys, block, sizes, batched, single, failed):
    """Outcomes of the replications ``keys`` of a block of samples of
    ``sizes`` rows each (a replication's groups in a row): ``batched(block,
    means)`` per stratum of their means, unless that raises or a replication
    spends the iteration budget, otherwise ``single(*groups)`` per
    replication, each failure recorded in ``failed``."""
    reps = len(keys)
    try:
        means, iterations = space.mean_many(block, reps)
        if np.any(iterations >= MEAN_MAX_ITER):
            raise NoConvergence(f"a replication exhausted {MEAN_MAX_ITER} iterations")
        strata = np.zeros(reps, dtype=bool) if means.leaves is None else means.leaves > 0
        if strata.all() or not strata.any():
            return batched(block, means)
        parts = [s.split([len(s) // reps] * reps) for s in (block, means)]
        out = {}
        for rows in (np.flatnonzero(~strata), np.flatnonzero(strata)):
            out.update(zip(rows, batched(*(Sample.join([p[i] for i in rows]) for p in parts))))
        return [out[i] for i in range(reps)]
    except FrechetStatsError:
        pass  # one replication at a time attributes each failure
    groups = block.split(sizes)
    per = len(groups) // len(keys)
    out = []
    for i, key in enumerate(keys):
        try:
            out.append(single(*groups[i * per : (i + 1) * per]))
        except _REP_FAILURES as exc:
            failed.append(_failure(key, exc))
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
    its means stacked (one stack per stratum on the open book).
    """
    space = sampler.space
    truth = sampler.population_mean()

    def truth_coords(chart, means):
        # the truth in the charts at the means; outside one's domain, a miss
        try:
            return chart.forward_many(as_sample([truth] * len(means))), True
        except (InvalidPoint, CutLocus):
            if len(means) == 1:
                return chart.forward_many(means), False
            one = [truth_coords(space.chart_at(m), m) for m in means.split([1] * len(means))]
            return np.concatenate([c for c, _ in one]), np.array([inside for _, inside in one])

    def batched(block, means):
        chart = space.chart_at(means)
        coords = chart.forward_many(means)
        packed = chart.pack(block).reshape(len(means), n, -1)
        asym = stacked_sandwich(chart, coords, packed, derivatives=derivatives)[2]
        candidates, inside = truth_coords(chart, means)
        return (inside & confidence_regions_contain(n, coords, asym, candidates, alpha)).tolist()

    def single(sample):
        fit = estimate_mean(space, sample)
        fit = sandwich_covariance(space, sample, fit, derivatives=derivatives)
        try:
            candidate = fit.chart.forward(truth)
        except (InvalidPoint, CutLocus):
            return False
        return bool(confidence_region_contains(fit, candidate, alpha))

    outcomes, failed = [], []
    for keys in _blocks(list(range(reps)), n):
        outcomes += _outcomes(space, keys, sampler.draw_many(n, keys), [n] * len(keys), batched,
                              single, failed)
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
    space = sampler.space
    if not isinstance(space, OpenBookSpace):
        raise InvalidDescriptor("mc_stickiness requires an open-book sampler")
    pop_m = sampler.descriptor.population_folded_means(space)
    pop_leaf = int(np.argmax(pop_m)) + 1 if float(np.max(pop_m)) > 0.0 else 0
    tags, heights = [], []
    for keys in _blocks(list(range(reps)), n):
        means, _ = space.mean_many(sampler.draw_many(n, keys), len(keys))
        tags += ["spine" if leaf == 0 else f"leaf_{leaf}" for leaf in means.leaves.tolist()]
        heights += means.data[:, 0].tolist()
    fractions = {tag: tags.count(tag) / reps for tag in sorted(set(tags))}
    target = "spine" if pop_leaf == 0 else f"leaf_{pop_leaf}"
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


def mc_type1(space, sampler, n1, n2, reps, alpha, identical_groups=False):
    """Empirical type-I error of the two-sample chart test under H0.

    Both groups are drawn from the sampler's distribution; with
    ``identical_groups`` the second group reuses the first group's stream
    (degenerate sanity mode with statistic 0).  A block of replications is
    tested by ``two_sample_tests`` in the charts at their pooled means,
    stacked.  ``details['df']`` counts the tests by degrees of freedom (on
    the open book D at a pooled mean on the spine, D + 1 on a leaf).
    """
    if repr(sampler.space) != repr(space):
        raise InvalidDescriptor("sampler and space arguments disagree")

    def batched(block, means):
        chart = space.chart_at(means)
        p_values = two_sample_tests(chart, block, len(means), n1)[1]
        return [(reject, chart.s) for reject in (p_values <= alpha).tolist()]

    def single(x, y):
        test = two_sample_test(space, x, y)
        return bool(test.p_value <= alpha), test.df

    results, failed = [], []
    for block_reps in _blocks(list(range(reps)), n1 + n2):
        keys = [key for rep in block_reps for key in ((rep, 0), (rep, 0 if identical_groups else 1))]
        sizes = [n1, n2] * len(block_reps)
        results += _outcomes(space, block_reps, sampler.draw_many(sizes, keys), sizes, batched,
                             single, failed)
    return _rate_report("type1", reps, [reject for reject, _ in results], failed, alpha=alpha,
                        n1=n1, n2=n2, df=dict(sorted(Counter(df for _, df in results).items())))


def mc_consistency(space, sampler, n_grid, reps):
    """Median distance between the estimated and true mean at each sample
    size; returns a list of (n, median error) rows.  A block of
    replications is fitted with one ``mean_many`` call and scored with one
    ``distance_many`` call."""
    if repr(sampler.space) != repr(space):
        raise InvalidDescriptor("sampler and space arguments disagree")
    truth = sampler.population_mean()

    def batched(block, means):
        return space.distance_many(means, truth).tolist()

    def single(sample):
        return space.distance(estimate_mean(space, sample).mean, truth)

    runs, failed = [], []
    for n in map(int, n_grid):
        errs = []
        runs.append((n, errs))
        for keys in _blocks([(n, rep) for rep in range(reps)], n):
            errs += _outcomes(space, keys, sampler.draw_many(n, keys), [n] * len(keys), batched,
                              single, failed)
    _check_failures(failed, reps * len(runs), "mc_consistency")
    return [(n, float(np.median(errs)) if errs else float("nan")) for n, errs in runs]
