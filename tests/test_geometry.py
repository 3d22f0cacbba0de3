import numpy as np
import pytest

from frechetstats import geometry
from frechetstats.spaces import spd as spd_module
from frechetstats.errors import InvalidPoint, MixedSpacePoints, NonFiniteValue, TooFewPoints
from frechetstats.geometry import (
    GRADIENT_STEP_SCALE,
    HESSIAN_STEP_SCALE,
    Sample,
    as_sample,
    euclidean_point,
    euclidean_sample,
    frechet_values,
    numeric_gradient,
    numeric_hessian,
    openbook_point,
    openbook_sample,
    spd_point,
    spd_sample,
    sphere_point,
    sphere_sample,
)
from frechetstats.estimator import estimate_mean, sandwich_covariance
from frechetstats.inference import two_sample_test
from frechetstats.spaces import EuclideanSpace, OpenBookSpace, SPDSpace, SphereSpace
from frechetstats.spaces import openbook_moments

from conftest import random_point, random_points, space_instances


# ---------------------------------------------------------------------------
# point invariants


def test_sphere_point_requires_unit_norm():
    sphere_point((1.0, 0.0, 0.0))
    with pytest.raises(InvalidPoint):
        sphere_point((1.0, 1.0, 0.0))


def test_spd_point_requires_symmetry_and_positivity():
    spd_point(np.eye(2))
    with pytest.raises(InvalidPoint):
        spd_point(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(InvalidPoint):
        spd_point(np.diag([1.0, -0.5]))


# ---------------------------------------------------------------------------
# spd_sample's leading-minor certificate decides as eigvalsh does

#: smallest over largest eigenvalue of the test matrices (their middle one is 0.5)
SPD_RATIOS = (-1e-3, -1e-16, 0.0, 1e-17, 1e-9, geometry._MINOR_MARGIN, 1.0)
SPD_SCALES = tuple(10.0 ** np.arange(-300, 301, 50))


def spd_stack(ratios, scales, seed=0):
    """Symmetric 3x3 matrices with eigenvalues (1, 0.5, ratio) * scale: a
    diagonal one and a randomly rotated one per (ratio, scale)."""
    rng = np.random.default_rng(seed)
    mats = []
    for scale in scales:
        for ratio in ratios:
            w = np.array([1.0, 0.5, ratio])
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            rotated = (q * w) @ q.T
            mats += [np.diag(w) * scale, 0.5 * (rotated + rotated.T) * scale]
    return np.array(mats)


def refusals(mats):
    """spd_sample's refused mask of ``mats``, all False when it accepts them."""
    try:
        spd_sample(mats)
    except InvalidPoint as exc:
        assert str(exc) == "spd payload has a non-positive eigenvalue"
        return exc.refused
    return np.zeros(len(mats), dtype=bool)


def eigvalsh_refusals(mats):
    return np.linalg.eigvalsh(mats)[:, 0] <= 0.0


@pytest.mark.parametrize("scale", SPD_SCALES)
def test_spd_sample_refuses_what_eigvalsh_refuses_at_every_scale(scale):
    # pytest turns any RuntimeWarning (an overflow, say) into a failure
    mats = np.concatenate([spd_stack(SPD_RATIOS, [scale]), np.zeros((1, 3, 3))])
    expected = eigvalsh_refusals(mats)
    assert expected.any() and not expected.all()
    np.testing.assert_array_equal(refusals(mats), expected)
    for m, refused in zip(mats, expected):
        np.testing.assert_array_equal(refusals(m[None]), [refused])


def test_spd_sample_refuses_what_eigvalsh_refuses_in_a_mixed_stack():
    mats = np.concatenate([spd_stack(SPD_RATIOS, SPD_SCALES, seed=1), np.zeros((2, 3, 3))])
    mats = mats[np.random.default_rng(2).permutation(len(mats))]
    np.testing.assert_array_equal(refusals(mats), eigvalsh_refusals(mats))
    well = spd_stack([1.0], SPD_SCALES, seed=3)
    assert not refusals(well).any()
    assert spd_sample(well).data.tobytes() == well.tobytes()  # exactly symmetric already


def test_spd_sample_sends_eigvalsh_only_the_uncertified_matrices(monkeypatch):
    sent = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sent.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    well = spd_stack([1.0], SPD_SCALES, seed=4)
    spd_sample(well)
    assert sent == []
    # a tiny or negative eigenvalue, or none at all, is never certified
    ill = np.concatenate([spd_stack((-1e-3, -1e-16, 0.0, 1e-17), SPD_SCALES, seed=5),
                          np.zeros((1, 3, 3))])
    mixed = np.concatenate([well, ill])
    order = np.random.default_rng(6).permutation(len(mixed))
    with pytest.raises(InvalidPoint) as info:
        spd_sample(mixed[order])
    assert len(sent) == 1
    is_ill = order >= len(well)
    np.testing.assert_array_equal(sent[0], mixed[order][is_ill])
    np.testing.assert_array_equal(info.value.refused, eigvalsh_refusals(mixed[order]))
    sent.clear()
    spd_sample(np.stack([np.eye(2), np.diag([2.0, 1.0])]))  # p != 3 goes to eigvalsh
    assert [a.shape for a in sent] == [(2, 2, 2)]


def test_openbook_point_canonicalizes_spine():
    p = openbook_point(2, (0.0, 5.0))
    assert p.leaves.tolist() == [0]
    with pytest.raises(InvalidPoint):
        openbook_point(1, (-0.5, 0.0))
    with pytest.raises(InvalidPoint):
        openbook_point(0, (1.0, 0.0))


def test_wrong_payload_shape_or_leaf_label_raises_invalid_point():
    with pytest.raises(InvalidPoint):
        estimate_mean(EuclideanSpace(3), euclidean_point([1.0, 2.0]))
    with pytest.raises(InvalidPoint):
        estimate_mean(OpenBookSpace(2, 1), openbook_point(3, (1.0, 0.0)))
    with pytest.raises(InvalidPoint):
        openbook_moments(openbook_point(3, (1.0, 0.0)), 2)
    for leaf in (float("nan"), float("inf"), 1.5, 10**30, 2**63, "2", True, np.True_, 2 + 0j):
        with pytest.raises(InvalidPoint, match="^leaf must be an integer$"):
            openbook_point(leaf, (1.0, 0.0))
    coords = [(1.0, 0.0), (1.0, 0.0)]
    for leaves in (np.array(["1", "x"]), np.array([1, "2"], dtype=object),
                   np.array([1, True], dtype=object), np.array([1, None], dtype=object),
                   np.array([1, np.timedelta64(1, "s")], dtype=object)):
        with pytest.raises(InvalidPoint, match="^leaf must be an integer$"):
            openbook_sample(leaves, coords)
    # an integral float, in a float or an object array, is a label
    for leaves in (np.array([1.0, 2.0]), np.array([1, 2.0], dtype=object)):
        assert openbook_sample(leaves, coords).leaves.tolist() == [1, 2]
    # a list of points is no sample, whatever its points hold
    with pytest.raises(MixedSpacePoints, match="got list"):
        estimate_mean(EuclideanSpace(3), [euclidean_point([1.0, 2.0])])


def test_openbook_leaf_label_beyond_n_leaves_is_caught_in_any_row():
    space = OpenBookSpace(2, 1)
    coords = [[1.0, 0.0], [0.5, 1.0], [2.0, -1.0]]
    good = openbook_sample([1, 2, 1], coords)
    bad = openbook_sample([1, 3, 1], coords)  # the bad label is not in row 0
    fit = estimate_mean(space, good)
    calls = [
        lambda: space.check_sample(bad),
        lambda: estimate_mean(space, bad),
        lambda: sandwich_covariance(space, bad, fit),
        lambda: frechet_values(space, bad, fit.mean),
        lambda: two_sample_test(space, good, bad),
    ]
    for call in calls:
        with pytest.raises(InvalidPoint, match="leaf label 3 exceeds n_leaves=2"):
            call()


# each validator's cases: a batch (the arrays it takes, sharing their rows)
# whose refused rows fail one check, or several ("mixed"), among rows that pass
_NAN, _ASYM = np.full((2, 2), np.nan), np.array([[1.0, 0.5], [0.0, 1.0]])
VALIDATOR_CASES = {
    "euclidean non-finite": (euclidean_sample, [[1.0, 2.0], [np.nan, 0.0], [0.0, 0.0], [np.inf, 1.0]]),
    "sphere non-finite": (sphere_sample, [[1.0, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 1.0, 0.0]]),
    "sphere norm": (sphere_sample, [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
    "spd non-finite": (spd_sample, [np.eye(2), _NAN, 2.0 * np.eye(2), np.diag([1.0, -np.inf])]),
    "spd symmetry": (spd_sample, [np.eye(2), _ASYM, 2.0 * np.eye(2), _ASYM.T]),
    "spd eigenvalue": (spd_sample, [np.eye(2), np.diag([1.0, -0.5]), np.zeros((2, 2)), np.eye(2)]),
    "openbook non-finite": (openbook_sample, [1, 2, 1], [[1.0, 0.0], [np.nan, 1.0], [0.0, 3.0]]),
    "openbook x0": (openbook_sample, [1, 2, 1, 2], [[1.0, 0.0], [-0.5, 1.0], [0.0, 3.0], [-1.0, 0.0]]),
    "openbook label": (openbook_sample, [1, -2, 1, -1], [[1.0, 0.0], [0.5, 1.0], [0.0, 3.0], [0.0, 0.0]]),
    "openbook spine": (openbook_sample, [1, 0, 0, 2], [[1.0, 0.0], [0.5, 1.0], [0.0, 3.0], [2.0, 0.0]]),
    "openbook fractional label": (openbook_sample, [1, 1.5, 2, 2.75], [[1.0, 0.0], [0.5, 1.0], [1.0, 3.0], [2.0, 0.0]]),
    "openbook label beyond int64": (openbook_sample, [1, 1e20, 2, -1e19], [[1.0, 0.0], [0.5, 1.0], [1.0, 3.0], [2.0, 0.0]]),
    "openbook int label beyond int64": (openbook_sample, [1, 10**30, 2, 2**64], [[1.0, 0.0], [0.5, 1.0], [1.0, 3.0], [2.0, 0.0]]),
    "openbook non-finite label": (openbook_sample, [1, np.nan, 2, np.inf], [[1.0, 0.0], [0.5, 1.0], [1.0, 3.0], [2.0, 0.0]]),
    "spd mixed": (spd_sample, [_ASYM, np.eye(2), _NAN]),
    "spd mixed, non-finite first": (spd_sample, [np.eye(2), np.diag([np.inf, 1.0]), _ASYM, -np.eye(2)]),
    "sphere mixed": (sphere_sample, [[0.0, 0.0, 2.0], [1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]),
    "openbook mixed": (openbook_sample, [1, -1, 1, 0], [[-1.0, 0.0], [np.inf, 1.0], [0.0, 3.0], [1.0, 0.0]]),
}


def _refuses(validate, *arrays):
    try:
        validate(*arrays)
    except InvalidPoint:
        return True
    return False


@pytest.mark.parametrize("case", VALIDATOR_CASES)
def test_a_validator_masks_the_rows_it_refuses_one_at_a_time(case):
    validate, *arrays = VALIDATOR_CASES[case]
    arrays = [np.asarray(a) for a in arrays]
    alone = [_refuses(validate, *(a[i : i + 1] for a in arrays)) for i in range(len(arrays[0]))]
    assert 0 < sum(alone) < len(alone)
    with pytest.raises(InvalidPoint) as refused:
        validate(*arrays)
    assert refused.value.refused.tolist() == alone
    # every check runs before the raise; the message is the first bad row's
    first = alone.index(True)
    with pytest.raises(InvalidPoint) as first_alone:
        validate(*(a[first : first + 1] for a in arrays))
    assert str(refused.value) == str(first_alone.value)


def test_a_wrong_payload_shape_is_not_masked():
    calls = [
        lambda: euclidean_sample(np.ones(3)),
        lambda: sphere_sample(np.ones((2, 3, 1))),
        lambda: spd_sample(np.ones((2, 2, 3))),
        lambda: openbook_sample([1, 1], [[1.0, 0.0]]),
    ]
    for call in calls:
        with pytest.raises(InvalidPoint) as refused:
            call()
        assert refused.value.refused is None


def test_point_payload_is_immutable():
    p = euclidean_point((1.0, 2.0))
    with pytest.raises(ValueError):
        p.data[0] = 3.0


@pytest.mark.parametrize("sample", [
    euclidean_sample([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    openbook_sample([1, 0, 2], [[1.0, 0.5], [0.0, 2.0], [3.0, -1.0]]),
], ids=["euclidean", "openbook"])
def test_a_point_is_the_one_row_sample_of_its_index(sample):
    n = len(sample)
    points = list(sample)
    assert len(points) == n
    for i, p in enumerate(points):
        assert isinstance(p, Sample) and len(p) == 1 and p.kind == sample.kind
        assert np.array_equal(p.data, sample.data[i : i + 1])
        if sample.leaves is None:
            assert p.leaves is None
        else:
            assert p.leaves.tolist() == [sample.leaves[i]]
        back = sample[i - n]  # negative indices count from the end
        assert np.array_equal(back.data, p.data) and np.array_equal(back.leaves, p.leaves)
    assert np.array_equal(sample[-1].data[0], sample.data[-1])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            sample[i]


def test_points_and_lists_of_points_are_checked_as_samples():
    space = EuclideanSpace(2)
    p = euclidean_point((0.0, 1.0))
    assert space.check_sample(p) is p  # a point is a one-row Sample
    # a Sample holds one kind and one payload shape
    with pytest.raises(MixedSpacePoints):
        Sample.join([p, sphere_point((0.0, 1.0))])
    with pytest.raises(MixedSpacePoints, match="mixes euclidean points of shape"):
        Sample.join([p, euclidean_point((0.0, 1.0, 2.0))])
    with pytest.raises(MixedSpacePoints, match="got list"):
        space.check_sample([p, np.zeros(2)])
    # the targets of distance_many are a Sample of as many rows as form
    # groups of the sample's rows
    sample = euclidean_sample([[0.0, 0.0], [1.0, 0.0]])
    targets = euclidean_sample([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    calls = [
        lambda: space.distance_many(p, 3.0),
        lambda: space.distance_many(3.0, p),
        lambda: space.distance_many(sample, targets),  # 2 rows form no 3 equal groups
        lambda: space.chart_at(3.0),
        lambda: frechet_values(space, sample, 3.0),
    ]
    for call in calls:
        with pytest.raises(MixedSpacePoints):
            call()


@pytest.mark.parametrize("space", space_instances(), ids=repr)
def test_grouped_distances_are_the_per_pair_distances(space, rng):
    sample = random_points(space, rng, 12)
    for targets in (random_points(space, rng, 12), random_points(space, rng, 3), sample[5]):
        rows = space.distance_many(sample, targets)
        group = len(sample) // len(targets)
        pairs = [space.distance_many(p, targets[i // group])[0] for i, p in enumerate(sample)]
        assert rows.tolist() == pairs


def test_a_list_or_tuple_of_points_is_refused():
    space = EuclideanSpace(2)
    p, q = euclidean_point((0.0, 1.0)), euclidean_point((1.0, 0.0))
    calls = {
        "list": [lambda: as_sample([p]), lambda: estimate_mean(space, [p]),
                 lambda: estimate_mean(space, []), lambda: frechet_values(space, [p, q], q)],
        "tuple": [lambda: space.check_sample((p, q)), lambda: as_sample(()),
                  lambda: sandwich_covariance(space, (p, q), estimate_mean(space, p)),
                  lambda: two_sample_test(space, (p, q), (q, p))],
    }
    for name, refused in calls.items():
        for call in refused:
            with pytest.raises(MixedSpacePoints, match=f"got {name}"):
                call()
    # an empty Sample is a sample too small for a mean
    with pytest.raises(TooFewPoints, match="sample must be nonempty"):
        estimate_mean(space, euclidean_sample(np.zeros((0, 2))))


def test_a_chart_checks_the_point_of_forward_against_its_space():
    # the chart map and the distances refuse a point of another kind, the
    # sample of distance_many as well as its targets
    pole, origin = sphere_point((0.0, 0.0, 1.0)), euclidean_point((0.0, 0.0, 0.0))
    book = OpenBookSpace(3, 2)
    charts = [
        EuclideanSpace(3).chart_at(),
        SPDSpace(3, "euclidean").chart_at(),
        book.chart_at(openbook_point(1, (1.0, 0.0, 0.0))),
        book.chart_at(openbook_point(0, (0.0, 0.0, 0.0))),
        SphereSpace(3, "intrinsic").chart_at(pole),
        SphereSpace(3, "extrinsic").chart_at(pole),
    ]
    for chart in charts:
        own = chart.space.kind == "sphere"
        foreign = origin if own else pole
        with pytest.raises(MixedSpacePoints, match=f"got {foreign.kind}"):
            chart.forward_many(foreign)
        here = pole if own else random_point(chart.space, np.random.default_rng(0))
        for args in ((foreign, here), (here, foreign)):
            with pytest.raises(MixedSpacePoints, match=f"got {foreign.kind}"):
                chart.space.distance_many(*args)


# ---------------------------------------------------------------------------
# frechet_values


def test_frechet_value_euclidean_pair():
    sp = EuclideanSpace(1)
    sample = euclidean_sample([[0.0], [2.0]])
    values = frechet_values(sp, sample, euclidean_sample([[1.0], [0.0], [3.0]]))
    assert values == pytest.approx([1.0, 2.0, 5.0])
    assert frechet_values(sp, sample, euclidean_point([1.0])).shape == (1,)


def test_frechet_value_identity_is_zero():
    sp = EuclideanSpace(2)
    q = euclidean_point((0.3, -0.7))
    assert frechet_values(sp, q, q)[0] == 0.0


def test_frechet_value_sphere_quarter_circles():
    sp = SphereSpace(3)
    sample = sphere_sample([(1, 0, 0), (0, 1, 0)])
    value = frechet_values(sp, sample, sphere_point((0, 0, 1)))[0]
    assert value == pytest.approx((np.pi / 2) ** 2, abs=1e-12)


def test_frechet_values_take_each_spd_log_once(monkeypatch):
    rng = np.random.default_rng(31)
    a = rng.normal(size=(140, 3, 3))
    matrices = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(3)
    space = SPDSpace(3, "log_euclidean")
    sample, candidates = spd_sample(matrices[:40]), spd_sample(matrices[40:])
    decomposed = []
    eigh = spd_module._eigh
    monkeypatch.setattr(spd_module, "_eigh", lambda m: decomposed.append(len(m)) or eigh(m))
    values = frechet_values(space, sample, candidates)
    # the 40 sample matrices and the 100 candidates, each once (the sample
    # repeated once per candidate took 4,000 logs)
    assert sum(decomposed) == 140
    weights = np.full(40, 1.0 / 40)
    for i in range(0, 100, 9):
        assert values[i] == geometry.row_dots(space.distance_many(sample, candidates[i]) ** 2, weights)


def test_frechet_value_rejects_mixed_points():
    sp = EuclideanSpace(3)
    with pytest.raises(MixedSpacePoints):
        frechet_values(sp, sphere_sample([(0, 0, 1)]), euclidean_point((0, 0, 0)))
    with pytest.raises(MixedSpacePoints):
        frechet_values(sp, euclidean_sample([(0, 0, 0)]), sphere_point((0, 0, 1)))


# ---------------------------------------------------------------------------
# finite differences


def test_numeric_gradient_quadratic():
    g = numeric_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]))
    assert np.allclose(g, [2.0, 4.0], atol=1e-8)


def test_numeric_gradient_constant_function():
    g = numeric_gradient(lambda x: 3.25, np.array([0.4, -1.0, 7.0]))
    assert np.allclose(g, 0.0, atol=1e-10)


def test_numeric_gradient_product():
    g = numeric_gradient(lambda x: float(x[0] * x[1]), np.array([3.0, 5.0]))
    assert np.allclose(g, [5.0, 3.0], atol=1e-8)


def test_numeric_hessian_identity_quadratic():
    h = numeric_hessian(lambda x: float(x @ x), np.array([1.0, 2.0]))
    assert np.allclose(h, 2.0 * np.eye(2), atol=1e-6)


def test_numeric_hessian_general_quadratic():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    h = numeric_hessian(lambda x: float(x @ m @ x), np.array([3.0, 5.0]))
    assert np.allclose(h, m + m.T, atol=1e-5)
    assert np.allclose(h, h.T)


def test_numeric_hessian_of_squared_distance_is_twice_identity():
    sp = EuclideanSpace(2)
    chart = sp.chart_at()
    packed = chart.pack(euclidean_sample([(0.4, -1.1)]))
    h = numeric_hessian(lambda x: float(chart.h_many(x, packed)[0]), np.array([0.9, 0.2]))
    assert np.allclose(h, 2.0 * np.eye(2), atol=1e-6)


def test_non_finite_probe_raises():
    def f(x):
        return float("nan") if x[0] > 1.0 else float(x @ x)

    with pytest.raises(NonFiniteValue):
        numeric_gradient(f, np.array([1.0, 0.0]))


def test_difference_steps_scale_with_the_coordinates():
    eps = np.finfo(float).eps
    assert GRADIENT_STEP_SCALE == pytest.approx(eps ** (1 / 3))
    assert HESSIAN_STEP_SCALE == pytest.approx(eps ** (1 / 4))
    x = np.array([0.25, -3.0, 40.0])
    scale = np.maximum(1.0, np.abs(x))

    def probe_offsets(differentiate):
        probes = []

        def f(v):
            probes.append(v - x)
            return float(v @ v)

        differentiate(f, x)
        return np.array(probes)

    # (x + h) - x rounds, so the steps are compared to 1e-9 relative
    # each gradient probe moves one coordinate by +-eps^(1/3) max(1, |x_r|)
    offsets = probe_offsets(numeric_gradient)
    assert offsets.shape == (6, 3)
    assert np.all(np.count_nonzero(offsets, axis=1) == 1)
    np.testing.assert_allclose(np.abs(offsets).sum(axis=1),
                               np.repeat(GRADIENT_STEP_SCALE * scale, 2), rtol=1e-9)
    # the Hessian probes x, x +- h_r e_r and x +- h_r e_r +- h_c e_c with
    # h_r = eps^(1/4) max(1, |x_r|)
    offsets = probe_offsets(numeric_hessian)
    assert offsets.shape == (1 + 6 + 12, 3)
    steps = HESSIAN_STEP_SCALE * scale
    np.testing.assert_allclose(np.where(offsets == 0.0, steps, np.abs(offsets)),
                               np.broadcast_to(steps, offsets.shape), rtol=1e-9)


def test_numeric_gradient_of_a_vector_map_has_one_row_per_component():
    # per-row gradients of (sin(3x) e^y, cos(xy)), to central-difference accuracy
    def fvec(v):
        return np.array([np.sin(3.0 * v[0]) * np.exp(v[1]), np.cos(v[0] * v[1])])

    x, y = 0.7, -0.3
    exact = np.array(
        [
            [3.0 * np.cos(3.0 * x) * np.exp(y), np.sin(3.0 * x) * np.exp(y)],
            [-y * np.sin(x * y), -x * np.sin(x * y)],
        ]
    )
    rows = numeric_gradient(fvec, np.array([x, y]))
    assert rows.shape == (2, 2)
    assert np.max(np.abs(rows - exact)) < 1e-9


# ---------------------------------------------------------------------------
# metric and chart properties across all concrete spaces


@pytest.mark.parametrize("space", space_instances(), ids=repr)
def test_distance_metric_axioms(space, rng):
    p, q = random_points(space, rng, 1000), random_points(space, rng, 1000)
    d_pq = space.distance_many(p, q)
    assert np.array_equal(d_pq, space.distance_many(q, p))  # bit-exact symmetry
    assert np.all(d_pq >= 0.0)
    assert np.all(space.distance_many(p, p) == 0.0)


@pytest.mark.parametrize("space", space_instances(), ids=repr)
def test_triangle_inequality(space, rng):
    p, q, r = (random_points(space, rng, 1000) for _ in range(3))
    via = space.distance_many(p, q) + space.distance_many(q, r)
    assert np.all(space.distance_many(p, r) <= via + 1e-12)


def _random_chart_point(space, base, rng):
    """Random point inside the chart domain anchored at ``base``."""
    if space.kind == "openbook":
        return base
    if space.kind == "sphere" and space.metric == "extrinsic":
        while True:  # extrinsic chart covers the open hemisphere around base
            p = random_point(space, rng)
            if p.data[0] @ base.data[0] > 0.05:
                return p
    return random_point(space, rng)


@pytest.mark.parametrize("space", space_instances(), ids=repr)
def test_chart_round_trip_and_h_consistency(space, rng):
    # the chart's inverse is h's: at x = phi(p), h(x; q) is d(p, q)^2
    for _ in range(200):
        base = random_point(space, rng)
        chart = space.chart_at(base)
        p = _random_chart_point(space, base, rng)
        x = chart.forward_many(p)
        q = random_point(space, rng)
        h = chart.h_many(x, chart.pack(q)[None])[0, 0]
        assert h == pytest.approx(space.distance_many(q, p)[0] ** 2, abs=1e-10)


def test_openbook_leaf_chart_covers_own_leaf(rng):
    from frechetstats.spaces import OpenBookSpace

    space = OpenBookSpace(3, 2)
    base = openbook_point(2, (1.0, 0.0, 0.0))
    chart = space.chart_at(base)
    for _ in range(200):
        p = openbook_point(2, np.concatenate([[abs(rng.normal()) + 1e-9], rng.normal(size=2)]))
        x = chart.forward_many(p)
        assert np.array_equal(x, p.data)  # the identity on the chart's own leaf
        q = random_point(space, rng)
        h = chart.h_many(x, chart.pack(q)[None])[0, 0]
        assert h == pytest.approx(space.distance_many(q, p)[0] ** 2, abs=1e-10)
