"""Property tests (hypothesis) for the row kernels of every space: a
point's results (a one-row Sample's) are its row of a batch's, bit for bit
(one fit's sandwich is its row of the stacked sandwich), the distances are
metrics, and the charts and folds satisfy their defining identities; and
for the multiple-testing procedures.

Every case is drawn as arrays and validated as one Sample by the library's
batch validators; a single point is a one-row draw."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frechetstats.errors import FrechetStatsError, NoConvergence
from frechetstats.estimator import estimate_mean, sandwich_covariance, stacked_sandwich
from frechetstats.geometry import (
    Sample,
    euclidean_sample,
    openbook_sample,
    row_dots,
    row_norms,
    spd_sample,
    sphere_sample,
)
from frechetstats.inference import bh_fdr, bonferroni, two_sample_test, two_sample_tests
from frechetstats.simulate import Sampler, SPDLogGaussianDescriptor
from frechetstats.spaces import openbook_classify, openbook_moments
from frechetstats.spaces.openbook import _fold
from frechetstats.spaces.spd import _vech_inv_rows, spd_expm, spd_logm, spd_vech_inv

from conftest import space_instances

# few, reproducible examples: the suite stays fast and never flaky
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

coordinate = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
height = st.floats(0.0, 3.0, allow_nan=False)


def entries(dtype, shape, elements):
    """Strategy for arrays of ``shape`` whose every entry is its own draw of
    ``elements``, as the entries of a list are: no fill value shared by
    many entries, which would make most rows of a sample one point."""
    return arrays(dtype, shape, elements=elements, fill=st.nothing())


def unit_rows(v):
    """The sphere Sample of the rows of ``v`` over their norms; a row of
    norm at most 0.1 is replaced by the first unit vector."""
    nrm = row_norms(v)
    short = nrm <= 0.1
    v = np.where(short[:, None], np.eye(v.shape[1])[0], v)
    return sphere_sample(v / np.where(short, 1.0, nrm)[:, None])


def book_rows(leaves, heights, spine):
    """The open-book Sample of rows on leaves ``leaves`` (0: the spine) at
    ``heights`` (0 on the spine) with spine coordinates ``spine``."""
    return openbook_sample(leaves, np.column_stack([np.where(leaves == 0, 0.0, heights), spine]))


def samples(space, min_size, max_size=None):
    """Strategy for a Sample of ``min_size`` points of ``space`` (of
    ``min_size`` to ``max_size``, when given), drawn as arrays."""
    if max_size is not None:
        return st.integers(min_size, max_size).flatmap(lambda n: samples(space, n))
    n = min_size
    if space.kind == "euclidean":
        return entries(float, (n, space.dim), coordinate).map(euclidean_sample)
    if space.kind == "sphere":
        return entries(float, (n, space.ambient_dim), coordinate).map(unit_rows)
    if space.kind == "spd":
        return entries(float, (n, space.chart_dim), coordinate).map(
            lambda v: spd_sample(spd_expm(_vech_inv_rows(v / 3.0, space.p))))
    return st.builds(
        book_rows,
        entries(np.int64, n, st.integers(0, space.n_leaves)),
        entries(float, n, height),
        entries(float, (n, space.spine_dim), coordinate),
    )


def in_domain(space, base, sample):
    """Mask of the rows of ``sample`` in the domain where the chart at the
    point ``base`` is invertible."""
    if space.kind == "sphere":
        c = row_dots(sample.data, base.data[0])
        return c > 0.05 if space.metric == "extrinsic" else c > -0.9
    if space.kind == "openbook":
        leaf = base.leaves[0]
        return (sample.leaves == 0) | ((sample.leaves == leaf) & (leaf != 0))
    return np.ones(len(sample), dtype=bool)


SPACES = space_instances()


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_the_strategies_reach_the_edge_cases(space):
    drawn = []

    # the draws of two of the tests below
    @settings(SETTINGS, max_examples=50)
    @given(base=samples(space, 1), sample=samples(space, 1, 6))
    def draw(base, sample):
        drawn.append((base, sample))

    draw()
    rows = Sample.join([part for base, sample in drawn for part in (base, sample)])
    # hypothesis draws the end of a range itself now and then, but how often
    # depends on the constants it mines from the modules loaded: a draw
    # reaches an end when it comes within 0.1 of it
    if space.kind == "euclidean":  # both ends of the coordinate range
        assert rows.data.min() <= -2.9 and rows.data.max() >= 2.9
    elif space.kind == "sphere":  # a row that the chart at the base does not map
        assert any(not in_domain(space, base, sample).all() for base, sample in drawn)
    elif space.kind == "spd":  # a matrix log entry at the end of the range, 3 / 3
        assert np.abs(spd_logm(rows.data)).max() >= 2.9 / 3.0
    else:  # spine rows, every leaf label and the heights 0 and 3
        assert set(rows.leaves) == set(range(space.n_leaves + 1))
        assert rows.data[:, 0].min() == 0.0 and rows.data[:, 0].max() >= 2.9


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_the_strategies_draw_distinct_rows(space):
    distinct = []

    # the size of the blocks of the mean tests below
    @SETTINGS
    @given(sample=samples(space, 24))
    def draw(sample):
        distinct.append(len(np.unique(sample.data.reshape(len(sample), -1), axis=0)))

    draw()
    # a shared fill value would make most rows of a block one point
    assert sum(distinct) >= 0.8 * 24 * len(distinct)


@pytest.mark.parametrize("space", SPACES, ids=repr)
@SETTINGS
@given(data=st.data())
def test_forward_is_its_row_of_forward_many(space, data):
    base = data.draw(samples(space, 1))
    pts = data.draw(samples(space, 1, 6))
    chart = space.chart_at(base)
    kept = np.flatnonzero(in_domain(space, base, pts))
    pts = pts.take(kept) if kept.size else base
    rows = chart.forward_many(pts)
    for i, p in enumerate(pts):
        assert np.array_equal(chart.forward_many(p), rows[i : i + 1])


@pytest.mark.parametrize("space", SPACES, ids=repr)
@SETTINGS
@given(data=st.data())
def test_distance_is_its_row_of_distance_many_and_symmetric(space, data):
    pts = data.draw(samples(space, 1, 6))
    q = data.draw(samples(space, 1))
    rows = space.distance_many(pts, q)
    for i, p in enumerate(pts):
        d = space.distance_many(p, q)[0]
        assert d == rows[i]
        assert d == space.distance_many(q, p)[0]
    assert space.distance_many(q, q)[0] == 0.0


@pytest.mark.parametrize("space", SPACES, ids=repr)
@SETTINGS
@given(data=st.data())
def test_triangle_inequality_holds(space, data):
    p, q, r = (data.draw(samples(space, 1)) for _ in range(3))
    via = space.distance_many(p, q)[0] + space.distance_many(q, r)[0]
    assert space.distance_many(p, r)[0] <= via * (1.0 + 1e-12) + 1e-12


@pytest.mark.parametrize("space", SPACES, ids=repr)
@SETTINGS
@given(data=st.data(), reps=st.integers(1, 4), n=st.integers(1, 6))
def test_mean_is_its_row_of_mean_many(space, data, reps, n):
    block = data.draw(samples(space, reps * n))
    singles = []
    for part in block.split([n] * reps):
        try:
            singles.append(space.mean(part))
        except FrechetStatsError as exc:
            singles.append(type(exc))
    try:
        means, iterations = space.mean_many(block, reps)
    except FrechetStatsError as exc:
        # a block fails exactly when one of its replications fails alone
        assert type(exc) in singles
        return
    assert len(means) == reps and iterations.shape == (reps,)
    for r, single in enumerate(singles):
        assert not isinstance(single, type), f"replication {r} raised {single.__name__} alone"
        mean, it = single
        assert np.array_equal(means[r].data, mean.data)
        assert np.array_equal(means[r].leaves, mean.leaves) and iterations[r] == it


def by_stratum(block, means, reps):
    """(rows, block part, means part) for each group of a block's
    replications whose means share a stratum, the groups in which the Monte
    Carlo experiments stack their charts (one group off the open book)."""
    strata = np.zeros(reps, dtype=bool) if means.leaves is None else means.leaves > 0
    parts, mean_parts = block.split([len(block) // reps] * reps), means.split([1] * reps)
    for stratum in np.unique(strata):
        rows = np.flatnonzero(strata == stratum)
        yield rows, Sample.join([parts[i] for i in rows]), Sample.join([mean_parts[i] for i in rows])


@pytest.mark.parametrize("space", SPACES, ids=repr)
@pytest.mark.parametrize("derivatives", ["auto", "numeric"])
@SETTINGS
@given(data=st.data(), reps=st.integers(1, 4), n=st.integers(1, 8))
def test_sandwich_is_its_row_of_the_stacked_sandwich(space, derivatives, data, reps, n):
    block = data.draw(samples(space, reps * n))
    singles = []
    for part in block.split([n] * reps):
        try:
            fit = estimate_mean(space, part)
            singles.append(sandwich_covariance(space, part, fit, derivatives=derivatives))
        except FrechetStatsError as exc:
            singles.append(type(exc))
    # a replication that spends the iteration budget fails alone, not in a block
    assume(NoConvergence not in singles)
    stacked = {}
    try:
        means, _ = space.mean_many(block, reps)
        for rows, part, part_means in by_stratum(block, means, reps):
            chart = space.chart_at(part_means)
            coords = chart.forward_many(part_means)
            packed = chart.pack(part).reshape((len(rows), n, -1))
            results = stacked_sandwich(chart, coords, packed, derivatives=derivatives)
            stacked.update({r: [a[i] for a in (coords, *results)] for i, r in enumerate(rows)})
    except FrechetStatsError as exc:
        # a block fails exactly when one of its replications fails alone
        assert type(exc) in singles
        return
    for r, fit in enumerate(singles):
        assert not isinstance(fit, type), f"replication {r} raised {fit.__name__} alone"
        coords, lam, c, asym, cond, pd = stacked[r]
        assert np.array_equal(fit.chart_coords, coords)
        assert np.array_equal(fit.lambda_n, lam)
        assert np.array_equal(fit.c_n, c)
        assert np.array_equal(fit.asym_cov, asym)
        assert fit.lambda_cond == cond and fit.lambda_pd == pd


def clustered(space, size):
    """Strategy for a Sample of ``size`` points of ``space`` that the chart
    at the mean of any sample of them maps: sphere points within 41 degrees
    of a pole, so that each is less than 90 degrees from the mean."""
    if space.kind != "sphere":
        return samples(space, size)

    def near_pole(v):
        v = np.column_stack([v[:, :-1], np.abs(v[:, -1]) + 5.0])
        return sphere_sample(v / row_norms(v)[:, None])

    return entries(float, (size, space.ambient_dim), coordinate).map(near_pole)


@pytest.mark.parametrize("space", SPACES, ids=repr)
@SETTINGS
@given(data=st.data(), reps=st.integers(1, 4), n1=st.integers(2, 6), n2=st.integers(2, 6))
def test_two_sample_test_is_its_row_of_two_sample_tests(space, data, reps, n1, n2):
    n2 += space.chart_dim  # n1 + n2 >= s + 4
    n = n1 + n2
    block = data.draw(clustered(space, reps * n))
    singles = []
    for part in block.split([n] * reps):
        try:
            singles.append(two_sample_test(space, *part.split([n1, n2])))
        except FrechetStatsError as exc:
            singles.append(type(exc))
    # a replication that spends the iteration budget fails alone, not in a block
    assume(NoConvergence not in singles)
    stacked = {}
    try:
        means, _ = space.mean_many(block, reps)
        for rows, part, part_means in by_stratum(block, means, reps):
            chart = space.chart_at(part_means)
            results = two_sample_tests(chart, part, len(rows), n1)
            stacked.update({r: [a[i] for a in results] + [chart.s] for i, r in enumerate(rows)})
    except FrechetStatsError as exc:
        # a block fails exactly when one of its replications fails alone
        assert type(exc) in singles
        return
    for r, res in enumerate(singles):
        assert not isinstance(res, type), f"replication {r} raised {res.__name__} alone"
        statistic, p_value, mean_x, mean_y, pooled, df = stacked[r]
        assert res.statistic == statistic and res.p_value == p_value and res.df == df
        assert np.array_equal(res.mean_x, mean_x) and np.array_equal(res.mean_y, mean_y)
        assert np.array_equal(res.pooled_cov, pooled)


def _replication_results(space, sample, reps, n1):
    """Means, chart images and two-sample statistics of ``reps`` stacked
    replications, as the block experiments compute them."""
    means, _ = space.mean_many(sample, reps)
    chart = space.chart_at(means)
    return means.data, chart.forward_many(sample), two_sample_tests(chart, sample, reps, n1)[0]


@pytest.mark.parametrize("space", [space for space in SPACES if space.kind == "spd"], ids=repr)
@SETTINGS
@given(mean_log=entries(float, 6, coordinate), scale=st.floats(0.05, 1.0),
       seed=st.integers(0, 2**32 - 1), reps=st.integers(1, 4), n1=st.integers(2, 6),
       n2=st.integers(7, 10))
def test_spd_replication_is_the_same_alone_in_a_block_and_split(space, mean_log, scale, seed,
                                                                reps, n1, n2):
    sampler = Sampler(space, SPDLogGaussianDescriptor(spd_vech_inv(mean_log / 3.0, 3), scale),
                      seed)
    keys = [(r, g) for r in range(reps) for g in (0, 1)]
    block = sampler.draw_many([n1, n2] * reps, keys)
    means, images, statistics = _replication_results(space, block, reps, n1)
    n = n1 + n2
    for r, part in enumerate(block.split([n] * reps)):
        alone = sampler.draw_many([n1, n2], keys[2 * r : 2 * r + 2])
        for sample in (alone, part):
            mean, image, statistic = _replication_results(space, sample, 1, n1)
            assert np.array_equal(mean[0], means[r])
            assert np.array_equal(image, images[r * n : (r + 1) * n])
            assert statistic[0] == statistics[r]
        assert two_sample_test(space, *part.split([n1, n2])).statistic == statistics[r]


@pytest.mark.parametrize("space", SPACES, ids=repr)
@SETTINGS
@given(data=st.data())
def test_chart_inverse_undoes_forward(space, data):
    # the chart's inverse is h's, h(x; q) = d(phi^-1(x), q)^2: at x = phi(p)
    # it is d(p, q)^2, 0 at q = p
    base = data.draw(samples(space, 1))
    p = data.draw(samples(space, 1))
    chart = space.chart_at(base)
    assume(in_domain(space, base, p)[0])
    sample = Sample.join([base, p])
    h = chart.h_many(chart.forward_many(p), chart.pack(sample)[None])[0]
    assert np.allclose(np.sqrt(h), space.distance_many(sample, p), rtol=1e-9, atol=1e-9)


OPEN_BOOK = next(space for space in SPACES if space.kind == "openbook")


@SETTINGS
@given(p=samples(OPEN_BOOK, 1), q=samples(OPEN_BOOK, 1), k=st.integers(1, OPEN_BOOK.n_leaves))
def test_fold_identities(p, q, k):
    folded = _fold(p, k)[0]
    # f_k is the identity on leaf k and the spine and reflects x0 elsewhere
    expected = p.data[0].copy()
    if p.leaves[0] not in (0, k):
        expected[0] = -expected[0]
    assert np.array_equal(folded, expected)
    # folding onto q's leaf turns the distance to q into a Euclidean one
    leaf = q.leaves[0]
    if leaf:
        distance = float(np.linalg.norm(_fold(p, leaf)[0] - q.data[0]))
        assert OPEN_BOOK.distance_many(p, q)[0] == distance
        # ... and the leaf chart at q is f_{leaf(q)}
        assert np.array_equal(OPEN_BOOK.chart_at(q).forward_many(p)[0], _fold(p, leaf)[0])


@SETTINGS
@given(
    data=st.data(),
    reps=st.integers(1, 4),
    n=st.integers(1, 12),
)
def test_moments_and_mean_many_share_the_folded_means(data, reps, n):
    k = OPEN_BOOK.n_leaves
    leaves = np.array(data.draw(st.lists(st.integers(0, k), min_size=reps * n, max_size=reps * n)))
    heights = np.array(data.draw(st.lists(st.floats(0.0, 3.0, allow_nan=False),
                                          min_size=reps * n, max_size=reps * n)))
    heights[leaves == 0] = 0.0
    coords = np.column_stack([heights, np.zeros((reps * n, OPEN_BOOK.spine_dim))])
    block = openbook_sample(leaves, coords)
    means, _ = OPEN_BOOK.mean_many(block, reps)
    for r in range(reps):
        rows = slice(r * n, (r + 1) * n)
        mom = openbook_moments(openbook_sample(block.leaves[rows], coords[rows]), k)
        folded = np.where(block.leaves[rows] == np.arange(1, k + 1)[:, None],
                          coords[rows, 0], -coords[rows, 0]).mean(axis=1)
        assert np.allclose(mom.folded_means, folded, rtol=0.0, atol=1e-12)
        tag = openbook_classify(mom)
        stratum = (means.leaves[r], means.data[r, 0])
        if tag.kind == "leaf":
            assert stratum == (tag.leaf, mom.folded_means[tag.leaf - 1])
        else:
            assert stratum == (0, 0.0)


pvalue = st.floats(0.0, 1.0, allow_nan=False)
level = st.floats(0.001, 0.5, allow_nan=False)


@SETTINGS
@given(data=st.data(), pvalues=st.lists(pvalue, min_size=1, max_size=20), alpha=level)
def test_bh_lowering_a_pvalue_never_unrejects(data, pvalues, alpha):
    i = data.draw(st.integers(0, len(pvalues) - 1))
    lowered = list(pvalues)
    lowered[i] = data.draw(st.floats(0.0, pvalues[i], allow_nan=False))
    before = bh_fdr(pvalues, alpha).rejected
    after = bh_fdr(lowered, alpha).rejected
    assert np.all(after[before])


@SETTINGS
@given(pvalues=st.lists(pvalue, min_size=1, max_size=20), alpha=level)
def test_bh_rejects_the_k_smallest_pvalues_of_the_step_up_rule(pvalues, alpha):
    p = np.array(pvalues)
    res = bh_fdr(p, alpha)
    k, m = res.n_rejected, p.size
    assert int(res.rejected.sum()) == k
    if 0 < k < m:
        assert p[res.rejected].max() <= p[~res.rejected].min()
    # step-up: k is the largest rank whose p-value is under its threshold
    sorted_p = np.sort(p)
    if k:
        assert sorted_p[k - 1] <= k * alpha / m
    assert all(sorted_p[j - 1] > j * alpha / m for j in range(k + 1, m + 1))


@SETTINGS
@given(pvalues=st.lists(pvalue, min_size=1, max_size=20), alpha=level)
def test_bonferroni_rejections_are_bh_rejections(pvalues, alpha):
    bonf = bonferroni(pvalues, alpha).rejected
    assert np.all(bh_fdr(pvalues, alpha).rejected[bonf])
