"""Self-tests of the benchmark harness: the tail-percentile rule, the
host-speed probe, self-time arithmetic on a synthetic span tree, the
tracer's install/restore, the fiber oracle on a hand-built two-site
dataset, the pooled Monte Carlo bands, and the metric rules.

Run with ``python3 -m pytest benchmarks/test_harness.py`` from the
repository root.
"""

import contextlib
import io
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402
import oracle  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from frechetstats import cli, geometry, simulate  # noqa: E402
from frechetstats.fiber import FIBER_COLUMNS  # noqa: E402
from frechetstats.spaces import EuclideanSpace  # noqa: E402


# --- tail-percentile rule ---------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = metrics.tail(list(range(100, 0, -1)))
    assert (value, pct, beyond) == (90, 90.0, 10)
    value, pct, beyond = metrics.tail([float(v) for v in range(1, 26)])
    assert (value, pct, beyond) == (15.0, 60.0, 10)


def test_tail_falls_back_to_maximum_below_the_median():
    # with 15 samples, 10 beyond would put the "tail" at p33
    assert metrics.tail(list(range(15))) == (14, 100.0, 0)
    assert metrics.tail([3.0]) == (3.0, 100.0, 0)


def test_nearest_rank_median():
    assert metrics.nearest_rank([4, 1, 3, 2], 50.0) == 2
    assert metrics.nearest_rank([5, 1, 3], 50.0) == 3


def test_end_to_end_rates():
    calls = [workloads.Call("a", 0.5, ops=1, failed=0, items=75, scaled=0.25),
             workloads.Call("a", 0.4, ops=1, failed=1, items=0, scaled=0.2),
             workloads.Call("a", 0.7, ops=1, failed=0, items=75, scaled=0.35),
             workloads.Call("b", 1.5, ops=1, failed=0, items=25, scaled=0.75)]
    setups = [(1.0, 1.5), (3.0, 4.0), (2.5, 2.0)]
    gated, reported, _ = metrics.end_to_end(calls, setups, 100.0)
    # median scaled repeat of each call: a at 0.25 s with 50 items on
    # average, b at 0.75 s with 25
    assert gated["items_per_s"] == 75 / 1.0
    assert gated["setup_s"] == 2.0
    assert reported["busy_items_per_s"] == 175 / 3.1
    assert reported["failed_frac"] == 0.25
    assert reported["command_s_tail"] == 1.5


# --- host-speed probe -----------------------------------------------------------


def test_probe_scales_by_the_mean_sample():
    p = probe.Probe()
    p.samples = [0.001, 0.003]
    # 1.004 s elapsed, 0.004 s of it probing, kernel at 10x its reference time
    assert math.isclose(p.scaled(1.004), 1.0 * probe.REFERENCE_S / 0.002)
    assert math.isclose(p.own_seconds(1.004), 1.0)


def test_probe_samples_on_the_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    p = probe.Probe()
    p.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 10 * probe.PERIOD_S:
        sum(range(1000))
    p.stop()
    p.stop()
    assert len(p.samples) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


# --- self-time arithmetic -----------------------------------------------------


def _synthetic_tree():
    #  0 root [0, 10]
    #  +- 1 a [1, 4]
    #  +- 2 b [5, 9]
    #     +- 3 c [6, 7]
    #  4 root [10, 12] (second operation, no children)
    return {
        "layer": np.array(["root", "a", "b", "c", "root"]),
        "start": np.array([0.0, 1.0, 5.0, 6.0, 10.0]),
        "end": np.array([10.0, 4.0, 9.0, 7.0, 12.0]),
        "parent": np.array([-1, 0, 0, 2, -1]),
        "op": np.array([1, 1, 1, 1, 2]),
        "raised": np.array([False, False, True, False, False]),
    }


def test_self_times_subtract_direct_children_only():
    t = _synthetic_tree()
    selfs = spans.self_times(t["start"], t["end"], t["parent"])
    assert selfs.tolist() == [3.0, 3.0, 3.0, 1.0, 2.0]
    # self times partition the top-level spans' durations
    assert selfs.sum() == 12.0


def test_layer_summary_aggregates_by_layer():
    summary = spans.layer_summary(_synthetic_tree())
    assert summary == {"root": (2, 5.0), "a": (1, 3.0), "b": (1, 3.0), "c": (1, 1.0)}


def test_rep_failures_counts_fits_that_raised_inside_mc():
    t = {
        "layer": np.array(["simulate.mc", "estimator.estimate_mean", "estimator.estimate_mean",
                           "inference.two_sample_test", "estimator.estimate_mean"]),
        "parent": np.array([-1, 0, 0, 0, 3]),
        "raised": np.array([False, True, False, True, True]),
    }
    # the nested estimate_mean raised inside the test: one replication, not two
    assert spans.rep_failures(t) == 2


def test_tracer_records_nesting_and_operations():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    def failing():
        raise ValueError("boom")

    wrapped_inner = tracer.wrap("inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = tracer.wrap("outer", outer)
    tracer.op = 7
    assert wrapped_outer(1) == 4
    with pytest.raises(ValueError):
        tracer.wrap("failing", failing)()
    a = tracer.arrays()
    assert a["layer"].tolist() == ["outer", "inner", "failing"]
    assert a["parent"].tolist() == [-1, 0, -1]
    assert a["op"].tolist() == [7, 7, 7]
    assert a["raised"].tolist() == [False, False, True]
    selfs = spans.self_times(a["start"], a["end"], a["parent"])
    assert np.all(selfs >= 0.0)


def test_tracer_install_wraps_every_binding_and_restores_them():
    originals = {
        "spd_point": geometry.spd_point,
        "draw": simulate.Sampler.draw,
        "check_sample": geometry.Space.check_sample,
    }
    tracer = spans.Tracer()
    missing = tracer.install()
    try:
        assert missing == []
        assert geometry.spd_point is not originals["spd_point"]
        # the copy bound by ``from .geometry import spd_point`` is wrapped too
        assert sys.modules["frechetstats.fiber"].spd_point is geometry.spd_point
        assert simulate.Sampler.draw is not originals["draw"]
        sampler = simulate.Sampler(EuclideanSpace(2),
                                   simulate.GaussianDescriptor(mean=(0.0, 0.0)), 3)
        simulate.mc_coverage(sampler, n=20, reps=2, alpha=0.05)
    finally:
        tracer.restore()
    assert geometry.spd_point is originals["spd_point"]
    assert sys.modules["frechetstats.fiber"].spd_point is originals["spd_point"]
    assert simulate.Sampler.draw is originals["draw"]
    assert geometry.Space.check_sample is originals["check_sample"]
    summary = spans.layer_summary(tracer.arrays())
    assert summary["simulate.mc"][0] == 1
    assert summary["simulate.draw"][0] == 2
    assert tracer.counters["simulate.draw.points"] == 40


def test_stream_log_flags_reused_streams():
    log = spans.StreamLog()
    log.install()
    try:
        sampler = simulate.Sampler(EuclideanSpace(2),
                                   simulate.GaussianDescriptor(mean=(0.0, 0.0)), 5)
        sampler.draw(3, 0)
        sampler.draw(3, (1, 0))
        assert log.duplicates() == 0
        sampler.draw(3, 0)
    finally:
        log.restore()
    assert log.keys == [(5, (0,)), (5, (1, 0)), (5, (0,))]
    assert log.duplicates() == 1


# --- fiber oracle on a hand-built two-site dataset -----------------------------


def _spd_from_log(rng, shift):
    b = rng.normal(scale=0.2, size=(3, 3))
    b = 0.5 * (b + b.T) + shift * np.eye(3)
    w, v = np.linalg.eigh(b)
    return (v * np.exp(w)) @ v.T


def _write_two_site_dataset(path):
    """Fifteen subjects per group; site 0 carries a large group effect, site 1
    none."""
    rng = np.random.default_rng(42)
    lines = [",".join(FIBER_COLUMNS)]
    for i in range(30):
        group = int(i < 15)
        for site in range(2):
            m = _spd_from_log(rng, 1.0 if (group and site == 0) else 0.0)
            upper = (m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2])
            lines.append(f"s{i},{group},{site}," + ",".join(f"{v:.17g}" for v in upper))
    path.write_text("\n".join(lines) + "\n")


def _by_hand(path, site):
    """Hotelling-type statistic with scipy's logm and an explicit inverse."""
    from scipy import linalg, stats

    groups, tensors = oracle.read_dataset(path)
    rows = {0: [], 1: []}
    for subject, group in groups.items():
        log = linalg.logm(tensors[(subject, site)]).real
        iu = np.triu_indices(3, k=1)
        rows[group].append(np.concatenate([np.diag(log), np.sqrt(2.0) * log[iu]]))
    x, y = np.array(rows[1]), np.array(rows[0])
    d = x.mean(0) - y.mean(0)
    sx = (x - x.mean(0)).T @ (x - x.mean(0)) / (len(x) - 1)
    sy = (y - y.mean(0)).T @ (y - y.mean(0)) / (len(y) - 1)
    t = float(d @ np.linalg.inv(sx / len(x) + sy / len(y)) @ d)
    return t, float(stats.chi2.sf(t, 6))


def _run_fiber(data, out):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["fiber", str(data), "--metric", "log-euclidean", "--output", str(out)])
    return code, out.read_text(), buf.getvalue()


def test_oracle_matches_hand_computation(tmp_path):
    data = tmp_path / "two_sites.csv"
    _write_two_site_dataset(data)
    exp = oracle.expected_fiber(str(data), "log-euclidean")
    for site in range(2):
        t, p = _by_hand(data, site)
        assert math.isclose(exp.sites[site].statistic, t, rel_tol=1e-8)
        assert math.isclose(exp.sites[site].p_value, p, rel_tol=1e-6)
    assert exp.sites[0].p_value < 0.025 < exp.sites[1].p_value
    assert exp.bh == frozenset({0}) and exp.bonferroni == frozenset({0})
    assert exp.exit_code == 0


def test_oracle_accepts_the_library_and_rejects_tampering(tmp_path):
    data, out = tmp_path / "two_sites.csv", tmp_path / "sites.csv"
    _write_two_site_dataset(data)
    exp = oracle.expected_fiber(str(data), "log-euclidean")
    code, table, summary = _run_fiber(data, out)
    assert oracle.compare_fiber(exp, code, table, summary) == []

    header, site0, site1 = table.splitlines()
    parts = site0.split(",")
    parts[1] = repr(float(parts[1]) * (1.0 + 1e-7))
    bumped = "\n".join([header, ",".join(parts), site1]) + "\n"
    assert any("statistic" in p for p in oracle.compare_fiber(exp, code, bumped, summary))
    parts = site1.split(",")
    parts[5] = "1"
    flipped = "\n".join([header, site0, ",".join(parts)]) + "\n"
    assert any("BH" in p for p in oracle.compare_fiber(exp, code, flipped, summary))
    assert any("exit code" in p for p in oracle.compare_fiber(exp, 4, table, summary))


def test_bh_step_up_is_the_literal_rule():
    assert oracle.bh_step_up([0.01, 0.04, 0.03, 0.5], 0.05) == {0}
    assert oracle.bh_step_up([0.01, 0.02, 0.03, 0.04], 0.05) == {0, 1, 2, 3}
    # step-up: a large rank that qualifies rescues smaller ones that do not
    assert oracle.bh_step_up([0.02, 0.03, 0.035], 0.05) == {0, 1, 2}
    assert oracle.bh_step_up([0.9], 0.05) == set()


def test_binomial_band_holds_the_expected_count():
    lo, hi = workloads.binomial_band(0.95, 200)
    assert lo < 190 < hi <= 200
    lo, hi = workloads.binomial_band(0.05, 200)
    assert lo == 0 and 10 < hi < 40


def _pooled_verdicts(hits_per_call, truth_index):
    """Run MCSmallN.finish on fake 200-replication calls of one
    configuration; returns (pooled verdict, failed replications)."""
    cfg = workloads.MCSmallN.configs[truth_index]
    calls = [workloads.Call(cfg.label, 1.0, ops=200, failed=0, items=200,
                            detail={"hits": h, "n": 200}) for h in hits_per_call]
    checks = workloads.Checks()
    workloads.MCSmallN(0, "").finish(calls, checks)
    return checks.all_passed, sum(c.failed for c in calls)


def test_pooled_band_catches_a_shifted_coverage():
    cycles = workloads.MCSmallN.min_cycles
    # 0.90 coverage in every call: each call alone (180/200) passes its band
    lo, hi = workloads.binomial_band(workloads.MCSmallN.configs[0].truth, 200)
    assert lo <= 180 <= hi
    assert _pooled_verdicts([180] * cycles, 0) == (False, 200 * cycles)
    assert _pooled_verdicts([190] * cycles, 0) == (True, 0)
    # the SPD configuration's measured coverage, 0.933, passes
    assert _pooled_verdicts([187, 186] * (cycles // 2), 0) == (True, 0)


def test_pooled_band_catches_an_inflated_type1_rate():
    type1 = [i for i, c in enumerate(workloads.MCSmallN.configs) if c.label.startswith("type1")][0]
    truth = workloads.MCSmallN.configs[type1].truth
    # three times the nominal rate, 30/200 per call, passes each per-call band
    assert workloads.binomial_band(truth, 200)[1] >= 30
    cycles = workloads.MCSmallN.min_cycles
    assert _pooled_verdicts([30] * cycles, type1) == (False, 200 * cycles)
    # the asymptotic test's measured rate, 0.065, passes
    assert _pooled_verdicts([13] * cycles, type1) == (True, 0)
    assert _pooled_verdicts([10] * cycles, type1) == (True, 0)


# --- metric rules ------------------------------------------------------------------


def test_every_per_layer_metric_has_a_rule():
    empty = spans.Tracer().arrays()
    names = []
    for workload in workloads.WORKLOADS:
        values = metrics.per_layer(workload, empty, {}, [], 0.01)
        assert all(k.startswith(workload + ".") for k in values)
        names += values
    assert names == [m["name"] for m in metrics.SPEC["per_layer"]]


def test_overhead_compares_the_fastest_repeat_of_each_call():
    untraced = [[1.0, 2.0], [1.2, 1.8]]
    traced = [[1.5, 2.0], [1.1, 2.4]]
    # fastest untraced 1.0 + 1.8, fastest traced 1.1 + 2.0
    assert math.isclose(metrics.overhead(untraced, traced), 3.1 / 2.8 - 1.0)
