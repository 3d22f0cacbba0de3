"""The argument contract (README, "Argument contract"): every public entry
point that takes a count, a level or a mode refuses a bad one with a
``FrechetStatsError`` subclass, at once, before any work.  One table of
entry points, each crossed with the same bad values, every call under a
time limit."""

import contextlib
import signal

import numpy as np
import pytest

from frechetstats import (
    EuclideanSpace,
    GaussianDescriptor,
    OpenBookDescriptor,
    OpenBookSpace,
    Sampler,
    SphereSpace,
    SPDSpace,
    bh_fdr,
    bonferroni,
    chi2_quantile,
    chi2_sf,
    confidence_region_contains,
    estimate_mean,
    euclidean_sample,
    mc_consistency,
    mc_coverage,
    mc_stickiness,
    mc_type1,
    sandwich_covariance,
)
from frechetstats.errors import FrechetStatsError
from frechetstats.fiber import fiber_site_tests, generate_fiber_dataset

#: not a count, a level or a mode: a bool, a fraction, NaN, infinity, a
#: string, None, a list, an array, a negative number and a count past int64
BAD = [True, 2.5, float("nan"), float("inf"), "3", None, [1], np.array([1, 2]), -1, 2**63]
#: seconds each call may take before it counts as a hang
LIMIT = 0.5

EUCLID = Sampler(EuclideanSpace(2), GaussianDescriptor((0.0, 0.0)), 0)
BOOK = Sampler(OpenBookSpace(3, 1), OpenBookDescriptor((0.5, 0.25, 0.25), spine_mean=(0.0,)), 0)
SAMPLE = euclidean_sample(np.random.default_rng(0).normal(size=(20, 2)))
FIT = sandwich_covariance(EuclideanSpace(2), SAMPLE, estimate_mean(EuclideanSpace(2), SAMPLE))
DATASET = generate_fiber_dataset(3, 3, 2)

#: (entry point and argument, call of the bad value)
ENTRY_POINTS = {
    "EuclideanSpace-dim": lambda v: EuclideanSpace(v),
    "SphereSpace-ambient_dim": lambda v: SphereSpace(v),
    "SphereSpace-metric": lambda v: SphereSpace(3, v),
    "SPDSpace-p": lambda v: SPDSpace(v),
    "SPDSpace-metric": lambda v: SPDSpace(3, v),
    "OpenBookSpace-n_leaves": lambda v: OpenBookSpace(v, 1),
    "OpenBookSpace-spine_dim": lambda v: OpenBookSpace(3, v),
    "Sampler-seed": lambda v: Sampler(EuclideanSpace(2), GaussianDescriptor((0.0, 0.0)), v),
    "mc_coverage-n": lambda v: mc_coverage(EUCLID, v, 10, 0.05),
    "mc_coverage-reps": lambda v: mc_coverage(EUCLID, 10, v, 0.05),
    "mc_coverage-alpha": lambda v: mc_coverage(EUCLID, 10, 10, v),
    "mc_coverage-derivatives": lambda v: mc_coverage(EUCLID, 10, 10, 0.05, derivatives=v),
    "mc_stickiness-n": lambda v: mc_stickiness(BOOK, v, 10),
    "mc_stickiness-reps": lambda v: mc_stickiness(BOOK, 10, v),
    "mc_type1-n1": lambda v: mc_type1(EUCLID.space, EUCLID, v, 10, 10, 0.05),
    "mc_type1-n2": lambda v: mc_type1(EUCLID.space, EUCLID, 10, v, 10, 0.05),
    "mc_type1-reps": lambda v: mc_type1(EUCLID.space, EUCLID, 10, 10, v, 0.05),
    "mc_type1-alpha": lambda v: mc_type1(EUCLID.space, EUCLID, 10, 10, 10, v),
    "mc_consistency-n_grid": lambda v: mc_consistency(EUCLID.space, EUCLID, [10, v], 10),
    "mc_consistency-reps": lambda v: mc_consistency(EUCLID.space, EUCLID, [10], v),
    "confidence_region_contains-alpha": lambda v: confidence_region_contains(FIT, [0.0, 0.0], v),
    "bonferroni-alpha": lambda v: bonferroni([0.01, 0.5], v),
    "bh_fdr-alpha": lambda v: bh_fdr([0.01, 0.5], v),
    "fiber_site_tests-alpha": lambda v: fiber_site_tests(DATASET, alpha=v),
    "fiber_site_tests-metric": lambda v: fiber_site_tests(DATASET, metric=v),
    "chi2_quantile-k": lambda v: chi2_quantile(v, 0.95),
    "chi2_quantile-prob": lambda v: chi2_quantile(3, v),
    "chi2_sf-k": lambda v: chi2_sf(1.0, v),
    "sandwich_covariance-derivatives":
        lambda v: sandwich_covariance(EuclideanSpace(2), SAMPLE, FIT, derivatives=v),
}

#: a seed is entropy of any size, as SeedSequence takes it, not a count:
#: 2**63 is a seed
SEED_BAD = BAD[:-1]


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_each_bad_count_level_or_mode_is_refused_with_a_typed_error(entry):
    wrong = []
    for value in SEED_BAD if entry == "Sampler-seed" else BAD:
        try:
            with time_limit(LIMIT):
                ENTRY_POINTS[entry](value)
        except FrechetStatsError:
            continue
        except Exception as exc:  # noqa: BLE001 - the contract is what is checked
            wrong.append((value, f"{type(exc).__name__}: {exc}"))
        else:
            wrong.append((value, "accepted"))
    assert wrong == []
