"""Independent recomputation of the fiber study, used to check every
``fiber`` command the benchmark runs.

The oracle reads the dataset CSV itself and shares no code with the
library: eigh-based matrix logarithm, isometric vech, group means, unbiased
covariances, the Mahalanobis statistic, ``scipy.stats.chi2.sf``, and a
literal Benjamini-Hochberg step-up and Bonferroni over the tested sites.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

#: statistics must agree to this relative tolerance; loose enough for any
#: summation order (a vectorised sweep), tight enough to catch a wrong formula
STAT_RTOL = 1e-9
#: p-values inherit the statistic's error amplified by about T/2
P_RTOL = 1e-6
TINY_P = 1e-5
COND_LIMIT = 1e12
EXIT_OK = 0
EXIT_PARTIAL = 4
SITE_HEADER = "site,statistic,df,p_value,tiny_p,bh_rejected,bonferroni_rejected"


@dataclass(frozen=True)
class SiteExpectation:
    statistic: float
    p_value: float
    failed: bool


@dataclass(frozen=True)
class FiberExpectation:
    sites: tuple
    df: int
    bh: frozenset
    bonferroni: frozenset
    exit_code: int


def read_dataset(path):
    """(groups by subject, tensors[subject][site]) from the dataset CSV."""
    groups, tensors = {}, {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            subject, group, site = row[0], int(row[1]), int(row[2])
            a11, a12, a13, a22, a23, a33 = (float(v) for v in row[3:9])
            groups[subject] = group
            tensors[(subject, site)] = np.array(
                [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]]
            )
    return groups, tensors


def _logm(m):
    w, v = np.linalg.eigh(m)
    out = v @ np.diag(np.log(w)) @ v.T
    return 0.5 * (out + out.T)


def _vech(m):
    s = np.sqrt(2.0)
    return np.array([m[0, 0], m[1, 1], m[2, 2], s * m[0, 1], s * m[0, 2], s * m[1, 2]])


def _site_test(x, y):
    from scipy import stats

    n1, n2 = len(x), len(y)
    diff = x.mean(axis=0) - y.mean(axis=0)
    pooled = np.cov(x, rowvar=False, ddof=1) / n1 + np.cov(y, rowvar=False, ddof=1) / n2
    w = np.abs(np.linalg.eigvalsh(pooled))
    if w.min() == 0.0 or w.max() / w.min() > COND_LIMIT:
        return SiteExpectation(float("nan"), float("nan"), True)
    t = max(float(diff @ np.linalg.solve(pooled, diff)), 0.0)
    return SiteExpectation(t, float(stats.chi2.sf(t, x.shape[1])), False)


def bh_step_up(pvalues, alpha):
    """Indices rejected by the literal BH step-up rule."""
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: (pvalues[i], i))
    best = 0
    for rank, idx in enumerate(order, start=1):
        if pvalues[idx] <= rank * alpha / m:
            best = rank
    return set(order[:best])


def expected_fiber(path, metric, alpha=0.05):
    """What ``fiber <path> --metric <metric> --alpha <alpha>`` must produce.

    ``metric`` is ``log-euclidean`` or ``euclidean``; group 1 is compared
    with group 0 at every site.
    """
    groups, tensors = read_dataset(path)
    n_sites = max(site for _, site in tensors) + 1
    transform = _logm if metric == "log-euclidean" else (lambda m: m)
    sites = []
    for site in range(n_sites):
        vecs = {g: np.array([_vech(transform(tensors[(s, site)]))
                             for s in sorted(groups) if groups[s] == g]) for g in (0, 1)}
        sites.append(_site_test(vecs[1], vecs[0]))
    tested = [i for i, s in enumerate(sites) if not s.failed]
    pvals = [sites[i].p_value for i in tested]
    bh = {tested[j] for j in bh_step_up(pvals, alpha)}
    bonf = {tested[j] for j, p in enumerate(pvals) if p <= alpha / len(pvals)}
    return FiberExpectation(
        sites=tuple(sites),
        df=6,
        bh=frozenset(bh),
        bonferroni=frozenset(bonf),
        exit_code=EXIT_PARTIAL if len(tested) < n_sites else EXIT_OK,
    )


def _close(a, b, rtol):
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or a == b


def compare_fiber(expected, exit_code, csv_text, summary_text):
    """List of mismatches between one fiber command's outputs and the
    oracle (empty when the command is correct)."""
    problems = []
    if exit_code != expected.exit_code:
        problems.append(f"exit code {exit_code}, expected {expected.exit_code}")
    lines = csv_text.splitlines()
    if not lines or lines[0] != SITE_HEADER:
        return problems + ["site CSV header differs"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(expected.sites):
        return problems + [f"{len(rows)} site rows, expected {len(expected.sites)}"]
    bh, bonf = set(), set()
    for site, (row, exp) in enumerate(zip(rows, expected.sites)):
        if int(row[0]) != site:
            problems.append(f"row {site + 1} is site {row[0]}")
            continue
        stat, df, p = float(row[1]), int(row[2]), float(row[3])
        if not _close(stat, exp.statistic, STAT_RTOL):
            problems.append(f"site {site}: statistic {stat!r}, expected {exp.statistic!r}")
        if not _close(p, exp.p_value, P_RTOL):
            problems.append(f"site {site}: p-value {p!r}, expected {exp.p_value!r}")
        if df != expected.df:
            problems.append(f"site {site}: df {df}, expected {expected.df}")
        tiny = (not exp.failed) and exp.p_value < TINY_P
        if row[4] != str(int(tiny)):
            problems.append(f"site {site}: tiny_p flag {row[4]}")
        if row[5] == "1":
            bh.add(site)
        if row[6] == "1":
            bonf.add(site)
    if bh != expected.bh:
        problems.append(f"BH rejects {sorted(bh)}, expected {sorted(expected.bh)}")
    if bonf != expected.bonferroni:
        problems.append(f"Bonferroni rejects {sorted(bonf)}, expected {sorted(expected.bonferroni)}")
    try:
        summary = json.loads(summary_text)
    except json.JSONDecodeError:
        return problems + ["summary JSON unreadable"]
    failed = [i for i, s in enumerate(expected.sites) if s.failed]
    if summary.get("bh_rejections") != len(expected.bh) or summary.get("failed_sites") != failed:
        problems.append("summary JSON disagrees with the site table")
    return problems
