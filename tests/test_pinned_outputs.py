"""Pinned outputs: short seeded Monte Carlo runs and a small fiber sweep
must reproduce values recorded from an earlier version of the library.

Replication outcomes (hits, rejections, strata) must match exactly;
floating-point statistics match to rtol 1e-12, and the multiple-testing
rejection sets exactly.  A change that alters the samplers' arithmetic or
the estimators' numerics shows up here.
"""

import numpy as np
import pytest

from frechetstats import simulate
from frechetstats.fiber import fiber_site_tests, generate_fiber_dataset
from frechetstats.spaces import EuclideanSpace, OpenBookSpace, SPDSpace, SphereSpace

MEAN_LOG = ((0.4, 0.05, 0.0), (0.05, 0.0, -0.02), (0.0, -0.02, -0.3))
EUCLID_COV = ((2.0, 0.3, 0.0), (0.3, 1.0, -0.2), (0.0, -0.2, 0.5))


def spd(seed, metric="log_euclidean"):
    return simulate.Sampler(
        SPDSpace(3, metric), simulate.SPDLogGaussianDescriptor(MEAN_LOG, 0.15), seed
    )


def euclid(seed):
    return simulate.Sampler(
        EuclideanSpace(3), simulate.GaussianDescriptor((1.0, -2.0, 0.5), EUCLID_COV), seed
    )


def cap(seed, ambient=3, metric="intrinsic", radius=0.5):
    center = (0.0,) * (ambient - 1) + (1.0,)
    return simulate.Sampler(
        SphereSpace(ambient, metric), simulate.SphereCapDescriptor(center, radius), seed
    )


def two_point(seed):
    return simulate.Sampler(
        SphereSpace(3, "extrinsic"),
        simulate.SphereTwoPointDescriptor((1.0, 0.0, 0.0), (0.0, 0.6, 0.8)),
        seed,
    )


def book(seed, probs=(0.5, 0.25, 0.25)):
    return simulate.Sampler(
        OpenBookSpace(3, 2),
        simulate.OpenBookDescriptor(probs, ("exponential", 1.0), (0.0, 0.0)),
        seed,
    )


def bits(outcomes):
    return "".join("1" if o else "0" for o in outcomes)


def test_coverage_outcomes_are_pinned():
    assert bits(simulate.mc_coverage(spd(101), 60, 40, 0.05).outcomes) == (
        "1111101111111111111111011111011111111111"
    )
    assert bits(simulate.mc_coverage(euclid(102), 40, 40, 0.05).outcomes) == (
        "1111111111111111111111111010111110110111"
    )
    numeric = simulate.mc_coverage(cap(103), 80, 20, 0.05, derivatives="numeric")
    assert bits(numeric.outcomes) == "11110111111111111111"
    geodesic = simulate.mc_coverage(cap(111, radius=1.2), 40, 40, 0.2)
    assert bits(geodesic.outcomes) == "1001110111011111110111001111111011111111"
    chordal = simulate.mc_coverage(cap(112, metric="extrinsic", radius=1.2), 40, 40, 0.2)
    assert bits(chordal.outcomes) == "1111101011110101011111111101110001011110"


def test_type1_outcomes_are_pinned():
    sampler = spd(104, "euclidean")
    report = simulate.mc_type1(sampler.space, sampler, 30, 25, 40, 0.2)
    assert bits(report.outcomes) == "0000000010100000000000011011010000101000"


def test_stickiness_outcomes_are_pinned():
    report = simulate.mc_stickiness(book(105), 100, 40)
    assert " ".join(report.outcomes) == (
        "spine leaf_1 spine leaf_1 leaf_1 spine spine leaf_1 leaf_1 spine "
        "spine spine spine spine spine spine spine spine spine spine "
        "leaf_1 leaf_1 spine spine leaf_1 spine spine leaf_1 leaf_1 spine "
        "leaf_1 leaf_1 leaf_1 spine leaf_1 spine spine leaf_1 spine spine"
    )


def test_consistency_tables_are_pinned():
    expected = [
        0.05726054386231931, 0.0328266011523646,  # S^3 cap (rejection sampler)
        0.10379401320512738, 0.029828902393415794,  # SPD(3) log-Euclidean
        0.29042628937080955, 0.07484236917072556,  # chordal sphere, two points
        0.5646440002191503, 0.19874903140610406,  # open book, leaf 1
        0.3632128914608658, 0.2532648358756741,  # R^3
    ]
    got = []
    for sampler in (cap(106, 4), spd(107), two_point(110), book(108, (0.6, 0.2, 0.2)), euclid(109)):
        table = simulate.mc_consistency(sampler.space, sampler, [20, 80], 5)
        assert [n for n, _ in table] == [20, 80]
        got.extend(err for _, err in table)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


FIBER_EXPECTED = {
    "log_euclidean": (
        [5.2591238916107885, 24.709638638376216, 11.658877458864744, 91.24616017792647,
         102.77235245293217, 65.16306432424467, 154.8784539261371, 8.92404776865591,
         27.38561385928208, 14.666641383654156, 11.333448910446169, 21.88437287071121],
        [0.511033779428322, 0.0003864065090998515, 0.07002609808078054, 1.669243695691522e-17,
         6.619555778211011e-20, 3.995547761030475e-12, 7.189161525774896e-31,
         0.1778948456768392, 0.00012259596176365475, 0.023014139612553112,
         0.07860153094467669, 0.001270694318877044],
        [1, 2, 3, 4, 5, 6, 8, 9, 10, 11],
        [1, 3, 4, 5, 6, 8, 11],
    ),
    "euclidean": (
        [3.8777018598061286, 23.555087539752705, 10.983162349290533, 88.6889584255765,
         88.10722016548827, 61.616276441482306, 117.47090283030562, 9.524563387530184,
         27.459769168300532, 14.753216460238173, 11.861241229342475, 20.967223920546747],
        [0.6932224334206383, 0.0006303683861878284, 0.08889821636520628, 5.671101038111531e-17,
         7.488646552838742e-17, 2.1118891197740262e-11, 5.534438346290017e-23,
         0.14615472111530461, 0.00011872785453137866, 0.022265469854265998,
         0.06513690363095215, 0.0018596578315861168],
        [1, 3, 4, 5, 6, 8, 9, 10, 11],
        [1, 3, 4, 5, 6, 8, 11],
    ),
}


@pytest.mark.parametrize("metric", sorted(FIBER_EXPECTED))
def test_fiber_site_statistics_are_pinned(metric):
    ds = generate_fiber_dataset(
        n_group1=9, n_group0=7, n_sites=12, effect_sites=range(3, 7), effect_size=0.6, seed=5
    )
    results, _ = fiber_site_tests(ds, metric, alpha=0.1)
    stats, pvals, bh, bonf = FIBER_EXPECTED[metric]
    np.testing.assert_allclose([r.statistic for r in results], stats, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose([r.p_value for r in results], pvals, rtol=1e-12, atol=0.0)
    assert [r.site for r in results if r.bh_rejected] == bh
    assert [r.site for r in results if r.bonferroni_rejected] == bonf
