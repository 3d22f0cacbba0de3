"""The benchmark's three workloads.

Each workload is a closed loop: one caller in one process runs a fixed
*cycle* of calls into the library, checks every output, and starts the next
cycle only when the previous one is done.  All inputs derive from the
workload seed.  Calls go through module attributes (``cli.main``,
``simulate.mc_coverage``, ...) so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

from frechetstats import cli, simulate
from frechetstats.spaces import EuclideanSpace, OpenBookSpace, SPDSpace, SphereSpace

import oracle

#: two-sided tail probability of the binomial bands; a correct library
#: fails a band this rarely, at any seed
BAND_TAIL = 1e-7

SPD_MEAN_LOG = ((0.4, 0.05, 0.0), (0.05, 0.0, -0.02), (0.0, -0.02, -0.3))
EUCLID_MEAN = (1.0, -2.0, 0.5)
EUCLID_COV = ((2.0, 0.3, 0.0), (0.3, 1.0, -0.2), (0.0, -0.2, 0.5))
CAP = dict(center=(0.0, 0.0, 1.0), radius=0.5)
#: The confidence regions and the two-sample test are asymptotic, so at
#: these sample sizes their rates are not exactly nominal.  The bands accept
#: the ranges of the package's acceptance criteria 3 and 6.  Measured with
#: 10,000 replications each: coverage 0.946 (Euclidean), 0.933 (SPD),
#: 0.950 (sphere); type-I rate 0.065 (20,000 replications).  A band around
#: exactly 0.95 or 0.05 fails once it pools enough calls.
COVERAGE_RANGE = (0.935, 0.965)
TYPE1_RANGE = (0.035, 0.065)


@dataclass
class Call:
    """One timed call: its latency, the operations it attempted and failed,
    the work items it completed, and an outcome for repeat comparisons;
    ``scaled`` is the latency at the host-speed probe's reference speed."""

    label: str
    seconds: float
    ops: int
    failed: int
    items: int
    outcome: object = None
    detail: dict = field(default_factory=dict)
    cycle: int = 0
    scaled: float = 0.0


class Checks:
    """Verdicts of the correctness checks, tallied per check name."""

    def __init__(self):
        self.tally = {}
        self.notes = {}

    def record(self, name, passed, note=""):
        ok, bad = self.tally.get(name, (0, 0))
        self.tally[name] = (ok + bool(passed), bad + (not passed))
        if not passed and name not in self.notes:
            self.notes[name] = note

    @property
    def all_passed(self):
        return all(bad == 0 for _, bad in self.tally.values())

    def lines(self):
        for name, (ok, bad) in sorted(self.tally.items()):
            verdict = "PASS" if bad == 0 else "FAIL"
            note = f" first failure: {self.notes[name]}" if bad else ""
            yield f"check {name}: {verdict} ({ok} passed, {bad} failed){note}"


def timed_call(checks, label, fn, probe=None):
    """(result, seconds, seconds at the reference speed) of ``fn()``, the
    last from ``probe`` sampling the host's speed during the call (0.0
    without one); an exception is recorded as a failed call and gives
    result None, so one broken call does not end the run."""
    if probe is not None:
        probe.start()
    start = time.perf_counter()
    try:
        result = fn()
    except Exception:
        result = None
        checks.record("calls.completed", False, f"{label}: {traceback.format_exc(limit=2)}")
    else:
        checks.record("calls.completed", True)
    finally:
        elapsed = time.perf_counter() - start
        if probe is not None:
            probe.stop()
    if probe is None:
        return result, elapsed, 0.0
    return result, probe.own_seconds(elapsed), probe.scaled(elapsed)


def sampler_seed(seed, cycle, index):
    """Seed of the ``index``-th sampler in cycle ``cycle``; distinct for
    every call of a run, so no two replications share a Philox stream."""
    return seed * 1_000_000 + cycle * 10 + index


def binomial_band(p0, n):
    """Counts k with P(X <= k) and P(X >= k) both above BAND_TAIL / 2 under
    Binomial(n, p0).  ``p0`` may be a (low, high) range of rates; the band
    then covers every rate in it."""
    from scipy import stats

    low, high = p0 if isinstance(p0, tuple) else (p0, p0)
    lo = stats.binom.ppf(BAND_TAIL / 2, n, low)
    hi = stats.binom.isf(BAND_TAIL / 2, n, high)
    return int(lo), int(hi)


# ---------------------------------------------------------------------------


class FiberStudy:
    name = "fiber_study"
    metrics = ("log-euclidean", "euclidean")
    min_cycles = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.data = os.path.join(workdir, "fiber.csv")
        self.sites = os.path.join(workdir, "sites.csv")
        self.expected = {}

    def _command(self, metric):
        argv = ["fiber", self.data, "--metric", metric, "--output", self.sites]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def setup(self):
        code = cli.main([
            "gen-fiber", "--effect-sites", "10-20", "--effect-size", "0.3",
            "--seed", str(self.seed), "--output", self.data,
        ])
        if code != 0:
            raise RuntimeError(f"gen-fiber exited with {code}")
        self._command(self.metrics[0])

    def prepare(self):
        self.expected = {m: oracle.expected_fiber(self.data, m) for m in self.metrics}

    def cycle(self, index, checks, on_call=None, probe=None):
        calls = []
        for metric in self.metrics:
            if on_call is not None:
                on_call(None)
            label = f"fiber --metric {metric}"
            result, seconds, scaled = timed_call(checks, label, lambda: self._command(metric),
                                                 probe)
            n_sites = len(self.expected[metric].sites)
            problems = ["command raised"]
            if result is not None:
                code, summary = result
                with open(self.sites) as fh:
                    table = fh.read()
                problems = oracle.compare_fiber(self.expected[metric], code, table, summary)
                checks.record(f"fiber.oracle.{metric}", not problems, "; ".join(problems[:3]))
                result = (code, table, summary)
            calls.append(Call(
                label=label, seconds=seconds, ops=1, failed=int(bool(problems)),
                items=0 if problems else n_sites, outcome=result, detail={"sites": n_sites},
                scaled=scaled,
            ))
        return calls

    def finish(self, calls, checks):
        pass


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCConfig:
    """One Monte Carlo call of a cycle; ``truth`` is the population value of
    the proportion the call estimates (or the range of accepted values),
    ``target`` the stickiness target it must report."""

    label: str
    sampler: object
    run: object
    truth: object = None
    tag: str = ""
    target: str = None
    rep_of: object = None


def _coverage(sampler, n, reps, **kw):
    return simulate.mc_coverage(sampler, n=n, reps=reps, alpha=0.05, **kw)


def band_check(checks, name, truth, hits, n, where=""):
    """Record whether ``hits`` of ``n`` lies in the binomial band of
    ``truth``; returns the verdict."""
    lo, hi = binomial_band(truth, n) if n else (0, -1)
    ok = lo <= hits <= hi
    checks.record(name, ok, f"{where}{hits}/{n} outside [{lo}, {hi}] around {truth}")
    return ok


def _spd(seed):
    return simulate.Sampler(
        SPDSpace(3, "log_euclidean"),
        simulate.SPDLogGaussianDescriptor(mean_log=SPD_MEAN_LOG, scale=0.15), seed,
    )


def _euclid(seed, cov=EUCLID_COV):
    return simulate.Sampler(
        EuclideanSpace(3), simulate.GaussianDescriptor(mean=EUCLID_MEAN, cov=cov), seed
    )


def _cap(seed):
    return simulate.Sampler(SphereSpace(3), simulate.SphereCapDescriptor(**CAP), seed)


def _openbook(seed, leaf_probs, x0, spine_sd=1.0):
    return simulate.Sampler(
        OpenBookSpace(3, 2),
        simulate.OpenBookDescriptor(
            leaf_probs=leaf_probs, x0=x0, spine_mean=(0.0, 0.0), spine_sd=spine_sd
        ),
        seed,
    )


class MonteCarlo:
    """A cycle calls every configuration once with ``reps`` replications."""

    configs = ()
    reps = 1
    #: replications per ``reps`` (one per sample size on a grid)
    ops_per_rep = 1
    min_cycles = 1

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        for index, cfg in enumerate(self.configs):
            cfg.run(cfg.sampler(sampler_seed(self.seed, 99_999, index)), 1)

    def prepare(self):
        binomial_band(0.5, 2)  # imports scipy.stats outside the timed loop

    def cycle(self, index, checks, on_call=None, probe=None):
        calls = []
        for i, cfg in enumerate(self.configs):
            sampler = cfg.sampler(sampler_seed(self.seed, index, i))
            if on_call is not None:
                on_call(cfg.rep_of or (lambda key: key))
            result, seconds, scaled = timed_call(checks, cfg.label,
                                                 lambda: cfg.run(sampler, self.reps), probe)
            if result is None:
                ops = self.reps * self.ops_per_rep
                call = Call(label=cfg.label, seconds=seconds, ops=ops, failed=ops, items=0)
            else:
                call = self._score(cfg, result, seconds, checks)
            call.scaled = scaled
            calls.append(call)
        return calls

    def finish(self, calls, checks):
        pass


class MCSmallN(MonteCarlo):
    name = "mc_small_n"
    reps = 200
    # the pooled band checks see at least 12 x 200 replications per
    # configuration: a coverage of 0.90 (a covariance 20% too small), or a
    # type-I rate of three times 0.05, falls outside them
    min_cycles = 12
    configs = (
        MCConfig("coverage spd(3) log-euclidean n=200", _spd,
                 lambda s, r: _coverage(s, 200, r), COVERAGE_RANGE, "coverage_spd"),
        MCConfig("coverage euclidean R^3 n=200", _euclid,
                 lambda s, r: _coverage(s, 200, r), COVERAGE_RANGE, "coverage_euclidean"),
        MCConfig("coverage sphere S^2 cap 0.5 n=400 numeric", _cap,
                 lambda s, r: _coverage(s, 400, r, derivatives="numeric"),
                 COVERAGE_RANGE, "coverage_sphere"),
        MCConfig("type1 spd(3) n1=n2=100", _spd,
                 lambda s, r: simulate.mc_type1(s.space, s, n1=100, n2=100, reps=r, alpha=0.05),
                 TYPE1_RANGE, "type1", rep_of=lambda key: key[:1]),
        MCConfig("stickiness open book boundary n=400",
                 lambda seed: _openbook(seed, (0.5, 0.25, 0.25), ("exponential", 1.0)),
                 lambda s, r: simulate.mc_stickiness(s, n=400, reps=r),
                 0.5, "stickiness_spine_0.5", target="spine"),
    )

    def _score(self, cfg, report, seconds, checks):
        ok = report.failures <= simulate.FAILURE_BUDGET * report.reps
        checks.record("mc.failure_budget", ok,
                      f"{cfg.label}: {report.failures}/{report.reps} failed")
        if cfg.target is not None:
            target = report.details.get("target")
            ok_target = target == cfg.target
            checks.record("mc.stickiness_target", ok_target, f"target {target}")
            ok = ok and ok_target
        n = len(report.outcomes)
        hits = round(report.estimate * n) if n else 0
        ok = band_check(checks, f"mc.band.{cfg.tag}", cfg.truth, hits, n, f"{cfg.label}: ") and ok
        failed = report.reps if not ok else report.failures
        return Call(label=cfg.label, seconds=seconds, ops=report.reps, failed=failed,
                    items=report.reps - failed,
                    outcome=(report.estimate, report.failures, report.outcomes),
                    detail={"hits": hits, "n": n})

    def finish(self, calls, checks):
        """Each configuration's estimate pooled over the run's calls must lie
        in the band too; a failure fails every replication of that
        configuration in the run."""
        for cfg in self.configs:
            mine = [c for c in calls if c.label == cfg.label and "n" in c.detail]
            if not mine:
                continue
            hits = sum(c.detail["hits"] for c in mine)
            n = sum(c.detail["n"] for c in mine)
            if not band_check(checks, f"mc.pooled_band.{cfg.tag}", cfg.truth, hits, n,
                              f"{cfg.label} over {len(mine)} calls: "):
                for c in mine:
                    c.failed, c.items = c.ops, 0


#: the consistency ratio median_err(5000) / median_err(500) must lie in this
#: band (sqrt(500/5000) = 0.316 in the limit)
RATIO_BAND = (0.2, 0.5)
N_GRID = (500, 5000)


def _consistency(sampler, reps):
    return simulate.mc_consistency(sampler.space, sampler, list(N_GRID), reps)


class MCLargeN(MonteCarlo):
    name = "mc_large_n"
    # 8 replications per call; the ratio check pools the per-call medians of
    # at least 15 calls per space, which keeps its false-alarm rate near 1e-5
    # on the sphere (two-dimensional errors, the widest medians)
    reps = 8
    ops_per_rep = len(N_GRID)
    min_cycles = 15
    configs = (
        MCConfig("consistency euclidean R^3", lambda s: _euclid(s, 1.5), _consistency),
        MCConfig("consistency sphere S^2 cap 0.5", _cap, _consistency),
        MCConfig("consistency spd(3) log-euclidean", _spd, _consistency),
        MCConfig("consistency open book leaf 1",
                 lambda seed: _openbook(seed, (0.6, 0.2, 0.2), ("constant", 1.0)), _consistency),
    )

    def _score(self, cfg, table, seconds, checks):
        grid = tuple(n for n, _ in table)
        errs = tuple(e for _, e in table)
        ok = grid == N_GRID and all(math.isfinite(e) and e > 0.0 for e in errs)
        checks.record("mc.consistency_table", ok, f"{cfg.label}: {table}")
        ops = self.reps * self.ops_per_rep
        return Call(label=cfg.label, seconds=seconds, ops=ops, failed=0 if ok else ops,
                    items=ops if ok else 0, outcome=tuple(table), detail={"errs": errs})

    def finish(self, calls, checks):
        """Pooled ratio check per space; a failure fails every replication
        of that space in the run."""
        for cfg in self.configs:
            mine = [c for c in calls if c.label == cfg.label and not c.failed]
            if not mine:
                continue
            small = statistics.median(c.detail["errs"][0] for c in mine)
            large = statistics.median(c.detail["errs"][1] for c in mine)
            ratio = large / small
            ok = RATIO_BAND[0] <= ratio <= RATIO_BAND[1]
            checks.record("mc.band.consistency_ratio", ok,
                          f"{cfg.label}: ratio {ratio:.3f} over {len(mine)} calls")
            if not ok:
                for c in mine:
                    c.failed, c.items = c.ops, 0


WORKLOADS = {w.name: w for w in (FiberStudy, MCSmallN, MCLargeN)}
