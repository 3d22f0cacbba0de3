"""Fiber-tract batch pipeline: a per-(subject, site) SPD(3) dataset format,
a synthetic generator with a controllable group effect, and the per-site
two-sample sweep with Bonferroni and BH correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPoint
from .geometry import spd_point, spd_sample
from .inference import NearSingularCovariance, bh_fdr, bonferroni, two_sample_test
from .simulate import _stream
from .spaces.spd import UPPER_COLUMNS, SPDSpace, matrix_to_upper, spd_expm, spd_logm
from .spaces.spd import spd_vech_inv, upper_to_matrix

#: canonical column order of the dataset CSV
FIBER_COLUMNS = ("subject", "group", "site") + UPPER_COLUMNS

#: p-values below this are flagged as outside the reliable range of the
#: chi-square approximation
TINY_P = 1e-5


class FiberParseError(ValueError):
    """Malformed dataset file; the message names the offending line."""


@dataclass(frozen=True)
class FiberDataset:
    """Per-(subject, site) SPD(3) tensors for a two-group study.

    ``tensors[i, s]`` is the 3x3 matrix of subject i at site s; ``groups``
    holds each subject's group label (0 or 1).
    """

    subjects: tuple
    groups: np.ndarray
    tensors: np.ndarray

    @property
    def n_sites(self):
        return self.tensors.shape[1]

    def site_samples(self, site):
        """(group-0 sample, group-1 sample) at one site."""
        mats = self.tensors[:, site]
        return spd_sample(mats[self.groups == 0]), spd_sample(mats[self.groups == 1])


def parse_fiber_csv(lines):
    """Parse the dataset format (header + one row per subject/site pair).

    Raises FiberParseError naming the 1-based line of the first problem.
    """
    rows = {}
    groups = {}
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not header_seen:
            if tuple(c.strip() for c in line.split(",")) != FIBER_COLUMNS:
                raise FiberParseError(
                    f"line {lineno}: expected header {','.join(FIBER_COLUMNS)!r}"
                )
            header_seen = True
            continue
        parts = [c.strip() for c in line.split(",")]
        if len(parts) != len(FIBER_COLUMNS):
            raise FiberParseError(f"line {lineno}: expected {len(FIBER_COLUMNS)} columns")
        subject = parts[0]
        try:
            group = int(parts[1])
            site = int(parts[2])
            values = [float(v) for v in parts[3:]]
        except ValueError as exc:
            raise FiberParseError(f"line {lineno}: {exc}") from exc
        if group not in (0, 1):
            raise FiberParseError(f"line {lineno}: group must be 0 or 1")
        if site < 0:
            raise FiberParseError(f"line {lineno}: site must be nonnegative")
        if subject in groups and groups[subject] != group:
            raise FiberParseError(f"line {lineno}: subject {subject!r} changes group")
        groups[subject] = group
        if (subject, site) in rows:
            raise FiberParseError(f"line {lineno}: duplicate (subject, site) pair")
        try:
            spd_point(upper_to_matrix(values))
        except InvalidPoint as exc:
            raise FiberParseError(f"line {lineno}: matrix is not SPD ({exc})") from exc
        rows[(subject, site)] = values
    if not header_seen:
        raise FiberParseError("line 1: empty file, header expected")
    if not rows:
        raise FiberParseError("line 2: no data rows")

    subjects = tuple(sorted(groups))
    n_sites = max(site for _, site in rows) + 1
    uppers = np.empty((len(subjects), n_sites, len(UPPER_COLUMNS)))
    for i, subject in enumerate(subjects):
        for site in range(n_sites):
            if (subject, site) not in rows:
                raise FiberParseError(
                    f"subject {subject!r} is missing site {site} (every pair required)"
                )
            uppers[i, site] = rows[(subject, site)]
    return FiberDataset(
        subjects=subjects,
        groups=np.array([groups[s] for s in subjects], dtype=int),
        tensors=upper_to_matrix(uppers),
    )


def write_fiber_csv(dataset, stream):
    stream.write(",".join(FIBER_COLUMNS) + "\n")
    uppers = matrix_to_upper(dataset.tensors)
    for i, subject in enumerate(dataset.subjects):
        for site in range(dataset.n_sites):
            values = ",".join(f"{v:.17g}" for v in uppers[i, site])
            stream.write(f"{subject},{dataset.groups[i]},{site},{values}\n")


def generate_fiber_dataset(
    n_group1=28,
    n_group0=18,
    n_sites=75,
    effect_sites=(),
    effect_size=0.3,
    noise_scale=0.15,
    seed=0,
):
    """Synthetic two-group tensor dataset along a fiber tract.

    Tensors are expm of Gaussian perturbations (sd ``noise_scale`` per
    isometric-vech coordinate) of a site-dependent base log-tensor; at the
    designated sites group 1's mean log is shifted by ``effect_size`` along
    the normalized diagonal direction.
    """
    if n_group0 < 2 or n_group1 < 2 or n_sites < 1:
        raise ValueError("need at least 2 subjects per group and 1 site")
    effect = set(int(s) for s in effect_sites)
    if effect and (min(effect) < 0 or max(effect) >= n_sites):
        raise ValueError("effect sites must lie in [0, n_sites)")
    n = n_group1 + n_group0
    subjects = tuple(f"subj{i:03d}" for i in range(n))
    groups = np.array([1] * n_group1 + [0] * n_group0)
    base = spd_logm(np.diag([1.5, 1.0, 0.7]))
    shift = effect_size * np.eye(3) / np.sqrt(3.0)
    tensors = np.empty((n, n_sites, 3, 3))
    for i in range(n):
        for site in range(n_sites):
            # gentle anisotropy trend along the tract
            m = base.copy()
            m[0, 0] += 0.1 * np.sin(2.0 * np.pi * site / n_sites)
            if groups[i] == 1 and site in effect:
                m = m + shift
            rng = _stream(seed, (i, site))
            noise = spd_vech_inv(noise_scale * rng.standard_normal(6), 3)
            tensors[i, site] = spd_expm(m + noise)
    return FiberDataset(subjects=subjects, groups=groups, tensors=tensors)


@dataclass(frozen=True)
class SiteTestResult:
    """Per-site two-sample outcome with multiple-testing flags."""

    site: int
    statistic: float
    df: int
    p_value: float
    tiny_p: bool
    bh_rejected: bool
    bonferroni_rejected: bool
    failed: bool = False


def fiber_site_tests(dataset, metric="log_euclidean", alpha=0.05):
    """Two-sample test at every site plus Bonferroni/BH over the tract.

    Returns (results ordered by site, summary dict).  Sites whose pooled
    covariance is near-singular are reported with NaN statistics, excluded
    from the corrections, and listed in the summary.
    """
    space = SPDSpace(3, metric)
    stats, pvals, ok_sites, failed_sites = [], [], [], []
    for site in range(dataset.n_sites):
        g0, g1 = dataset.site_samples(site)
        try:
            res = two_sample_test(space, g1, g0)
        except NearSingularCovariance:
            failed_sites.append(site)
            stats.append(float("nan"))
            pvals.append(float("nan"))
            continue
        ok_sites.append(site)
        stats.append(res.statistic)
        pvals.append(res.p_value)
    ok_pvals = [pvals[s] for s in ok_sites]
    bh = bh_fdr(ok_pvals, alpha) if ok_sites else None
    bonf = bonferroni(ok_pvals, alpha) if ok_sites else None
    bh_flags = dict(zip(ok_sites, bh.rejected)) if bh else {}
    bonf_flags = dict(zip(ok_sites, bonf.rejected)) if bonf else {}
    results = [
        SiteTestResult(
            site=site,
            statistic=stats[site],
            df=space.chart_dim,
            p_value=pvals[site],
            tiny_p=bool(pvals[site] < TINY_P) if site not in failed_sites else False,
            bh_rejected=bool(bh_flags.get(site, False)),
            bonferroni_rejected=bool(bonf_flags.get(site, False)),
            failed=site in failed_sites,
        )
        for site in range(dataset.n_sites)
    ]
    summary = {
        "metric": metric,
        "alpha": alpha,
        "n_sites": dataset.n_sites,
        "n_tested": len(ok_sites),
        "bonferroni_global_p": bonf.global_p if bonf else float("nan"),
        "bh_rejections": bh.n_rejected if bh else 0,
        "failed_sites": failed_sites,
    }
    return results, summary


def write_site_csv(results, stream):
    """site,statistic,df,p_value,tiny_p,bh_rejected,bonferroni_rejected"""
    stream.write("site,statistic,df,p_value,tiny_p,bh_rejected,bonferroni_rejected\n")
    for r in results:
        stream.write(
            f"{r.site},{r.statistic:.17g},{r.df},{r.p_value:.17g},"
            f"{int(r.tiny_p)},{int(r.bh_rejected)},{int(r.bonferroni_rejected)}\n"
        )
