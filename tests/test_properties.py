"""Property tests (hypothesis) for the row kernels of every space: the
single-point forms are the batch of one of the row forms, bit for bit (one
fit's sandwich is its row of the stacked sandwich), the distances are
metrics, and the charts and folds satisfy their defining identities; and
for the multiple-testing procedures."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frechetstats.errors import FrechetStatsError, NoConvergence
from frechetstats.estimator import estimate_mean, sandwich_covariance, stacked_sandwich
from frechetstats.geometry import (
    as_sample,
    euclidean_point,
    openbook_point,
    openbook_sample,
    spd_point,
    sphere_point,
)
from frechetstats.inference import bh_fdr, bonferroni
from frechetstats.spaces import openbook_classify, openbook_fold, openbook_moments
from frechetstats.spaces.spd import spd_expm, spd_vech_inv

from conftest import space_instances

# few, reproducible examples: the suite stays fast and never flaky
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

coordinate = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def vectors(size):
    return st.lists(coordinate, min_size=size, max_size=size).map(np.array)


def points(space):
    """Strategy for the points of ``space``."""
    if space.kind == "euclidean":
        return vectors(space.dim).map(euclidean_point)
    if space.kind == "sphere":
        return (
            vectors(space.ambient_dim)
            .filter(lambda v: np.linalg.norm(v) > 0.1)
            .map(lambda v: sphere_point(v / np.linalg.norm(v)))
        )
    if space.kind == "spd":
        return vectors(space.chart_dim).map(lambda v: spd_point(spd_expm(spd_vech_inv(v / 3.0, space.p))))
    return st.builds(
        lambda leaf, x0, rest: openbook_point(leaf, np.concatenate([[x0 if leaf else 0.0], rest])),
        st.integers(0, space.n_leaves),
        st.floats(0.0, 3.0, allow_nan=False),
        vectors(space.spine_dim),
    )


def in_domain(space, chart, p):
    """Whether ``p`` lies in the domain where ``chart`` is invertible."""
    if space.kind == "sphere":
        c = float(p.data @ chart.base.data)
        return c > 0.05 if space.metric == "extrinsic" else c > -0.9
    if space.kind == "openbook":
        return p.leaf in (0, chart.base.leaf) and (chart.base.leaf != 0 or p.leaf == 0)
    return True


SPACES = space_instances()


@pytest.mark.parametrize("space", SPACES, ids=repr)
@SETTINGS
@given(data=st.data())
def test_forward_is_its_row_of_forward_many(space, data):
    base = data.draw(points(space))
    pts = data.draw(st.lists(points(space), min_size=1, max_size=6))
    chart = space.chart_at(base)
    pts = [p for p in pts if in_domain(space, chart, p)] or [base]
    rows = chart.forward_many(as_sample(pts))
    for i, p in enumerate(pts):
        assert np.array_equal(chart.forward(p), rows[i])


@pytest.mark.parametrize("space", SPACES, ids=repr)
@SETTINGS
@given(data=st.data())
def test_distance_is_its_row_of_distance_many_and_symmetric(space, data):
    pts = data.draw(st.lists(points(space), min_size=1, max_size=6))
    q = data.draw(points(space))
    rows = space.distance_many(as_sample(pts), q)
    for i, p in enumerate(pts):
        d = space.distance(p, q)
        assert d == rows[i]
        assert d == space.distance(q, p)
    assert space.distance(q, q) == 0.0


@pytest.mark.parametrize("space", SPACES, ids=repr)
@SETTINGS
@given(data=st.data())
def test_triangle_inequality_holds(space, data):
    p, q, r = (data.draw(points(space)) for _ in range(3))
    via = space.distance(p, q) + space.distance(q, r)
    assert space.distance(p, r) <= via * (1.0 + 1e-12) + 1e-12


@pytest.mark.parametrize("space", SPACES, ids=repr)
@SETTINGS
@given(data=st.data(), reps=st.integers(1, 4), n=st.integers(1, 6))
def test_mean_is_its_row_of_mean_many(space, data, reps, n):
    block = as_sample(data.draw(st.lists(points(space), min_size=reps * n, max_size=reps * n)))
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
        assert np.array_equal(means.data[r], mean.data)
        assert means[r].leaf == mean.leaf and iterations[r] == it


@pytest.mark.parametrize("space", [space for space in SPACES if space.stacks_charts], ids=repr)
@pytest.mark.parametrize("derivatives", ["auto", "numeric"])
@SETTINGS
@given(data=st.data(), reps=st.integers(1, 4), n=st.integers(1, 8))
def test_sandwich_is_its_row_of_the_stacked_sandwich(space, derivatives, data, reps, n):
    block = as_sample(data.draw(st.lists(points(space), min_size=reps * n, max_size=reps * n)))
    singles = []
    for part in block.split([n] * reps):
        try:
            fit = estimate_mean(space, part)
            singles.append(sandwich_covariance(space, part, fit, derivatives=derivatives))
        except FrechetStatsError as exc:
            singles.append(type(exc))
    # a replication that spends the iteration budget fails alone, not in a block
    assume(NoConvergence not in singles)
    try:
        means, _ = space.mean_many(block, reps)
        chart = space.chart_at(means)
        packed = chart.pack(block)
        coords = chart.forward_many(means)
        lam, c, asym, cond, pd = stacked_sandwich(
            chart, coords, packed.reshape((reps, n) + packed.shape[1:]), derivatives=derivatives
        )
    except FrechetStatsError as exc:
        # a block fails exactly when one of its replications fails alone
        assert type(exc) in singles
        return
    for r, fit in enumerate(singles):
        assert not isinstance(fit, type), f"replication {r} raised {fit.__name__} alone"
        assert np.array_equal(fit.chart_coords, coords[r])
        assert np.array_equal(fit.lambda_n, lam[r])
        assert np.array_equal(fit.c_n, c[r])
        assert np.array_equal(fit.asym_cov, asym[r])
        assert fit.lambda_cond == cond[r] and fit.lambda_pd == pd[r]


@pytest.mark.parametrize("space", SPACES, ids=repr)
@SETTINGS
@given(data=st.data())
def test_chart_inverse_undoes_forward(space, data):
    base = data.draw(points(space))
    p = data.draw(points(space))
    chart = space.chart_at(base)
    assume(in_domain(space, chart, p))
    back = chart.inverse(chart.forward(p))
    assert back.kind == p.kind and back.leaf == p.leaf
    assert np.allclose(back.data, p.data, rtol=1e-9, atol=1e-9)


OPEN_BOOK = next(space for space in SPACES if space.kind == "openbook")


@SETTINGS
@given(p=points(OPEN_BOOK), q=points(OPEN_BOOK), k=st.integers(1, OPEN_BOOK.n_leaves))
def test_fold_identities(p, q, k):
    folded = openbook_fold(k, p)
    # f_k is the identity on leaf k and the spine and reflects x0 elsewhere
    expected = p.data.copy()
    if p.leaf not in (0, k):
        expected[0] = -expected[0]
    assert np.array_equal(folded, expected)
    # folding onto q's leaf turns the distance to q into a Euclidean one
    if q.leaf:
        assert OPEN_BOOK.distance(p, q) == float(np.linalg.norm(openbook_fold(q.leaf, p) - q.data))
        # ... and the leaf chart at q is f_{leaf(q)}
        assert np.array_equal(OPEN_BOOK.chart_at(q).forward(p), openbook_fold(q.leaf, p))


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
