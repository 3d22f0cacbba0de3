"""Fiber-tract batch pipeline: a per-(subject, site) SPD(3) dataset format,
a synthetic generator with a controllable group effect, and the per-site
two-sample sweep with Bonferroni and BH correction.

The pipeline works on whole arrays: the parser checks each line as it reads
it, a dataset validates all its tensors in one batch when it is built, and
the sweep maps every tensor to the chart at once and tests all sites in one
batched chi-square computation (``inference.chi2_two_sample``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPoint, NotPositiveDefinite
from .geometry import Sample, spd_point, spd_sample
from .inference import bh_fdr, bonferroni, chi2_two_sample
from .simulate import _stream
from .spaces.spd import UPPER_COLUMNS, SPDSpace, matrix_to_upper, spd_expm, spd_logm
from .spaces.spd import _vech_inv_rows, upper_to_matrix

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
    holds each subject's group label (0 or 1).  The tensors are validated
    as SPD once, when the dataset is built, and kept read-only, so the sweep
    maps them without checking them again.
    """

    subjects: tuple
    groups: np.ndarray
    tensors: np.ndarray

    def __post_init__(self):
        tensors = np.asarray(self.tensors, dtype=float)
        if tensors.ndim != 4 or tensors.shape[2:] != (3, 3):
            raise InvalidPoint(f"tensors must be (subjects, sites, 3, 3), got {tensors.shape}")
        valid = spd_sample(tensors.reshape(-1, 3, 3)).data
        object.__setattr__(self, "tensors", valid.reshape(tensors.shape))

    @property
    def n_sites(self):
        return self.tensors.shape[1]


def _spd_error(rows):
    """FiberParseError naming the first non-SPD matrix among the
    ``(lineno, upper-triangle values)`` of ``rows``, or None."""
    if not rows:
        return None
    try:
        spd_sample(upper_to_matrix([values for _, values in rows.values()]))
    except InvalidPoint:
        # spd_point is spd_sample on a batch of one, so some row fails alone
        for lineno, values in rows.values():
            try:
                spd_point(upper_to_matrix(values))
            except InvalidPoint as exc:
                return FiberParseError(f"line {lineno}: matrix is not SPD ({exc})")
        raise
    return None


def _read_line(line, groups, rows):
    """((subject, site), values) of one data line, checked against the lines
    before it; raises FiberParseError with the problem (no line number)."""
    parts = line.split(",")
    if len(parts) != len(FIBER_COLUMNS):
        raise FiberParseError(f"expected {len(FIBER_COLUMNS)} columns")
    subject = parts[0].strip()
    try:  # int and float ignore surrounding whitespace
        group = int(parts[1])
        site = int(parts[2])
        values = list(map(float, parts[3:]))
    except ValueError as exc:
        raise FiberParseError(str(exc)) from exc
    if group not in (0, 1):
        raise FiberParseError("group must be 0 or 1")
    if site < 0:
        raise FiberParseError("site must be nonnegative")
    if groups.setdefault(subject, group) != group:
        raise FiberParseError(f"subject {subject!r} changes group")
    if (subject, site) in rows:
        raise FiberParseError("duplicate (subject, site) pair")
    return (subject, site), values


def parse_fiber_csv(lines):
    """Parse the dataset format (header + one row per subject/site pair).

    Each line is checked as it is read and the tensors are validated
    together at the end.  Raises FiberParseError naming the 1-based line of
    the first problem.
    """
    rows = {}  # (subject, site) -> (lineno, values), in file order
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
        try:
            pair, values = _read_line(line, groups, rows)
        except FiberParseError as exc:
            # a non-SPD matrix on an earlier line is the first problem of the file
            raise _spd_error(rows) or FiberParseError(f"line {lineno}: {exc}") from None
        rows[pair] = (lineno, values)
    if not header_seen:
        raise FiberParseError("line 1: empty file, header expected")
    if not rows:
        raise FiberParseError("line 2: no data rows")

    subjects = tuple(sorted(groups))
    n_sites = max(site for _, site in rows) + 1
    if len(rows) < len(subjects) * n_sites:
        subject, site = next(
            (subject, site) for subject in subjects for site in range(n_sites)
            if (subject, site) not in rows
        )
        raise _spd_error(rows) or FiberParseError(
            f"subject {subject!r} is missing site {site} (every pair required)"
        )
    index = {subject: i for i, subject in enumerate(subjects)}
    uppers = np.empty((len(subjects), n_sites, len(UPPER_COLUMNS)))
    uppers[[index[subject] for subject, _ in rows], [site for _, site in rows]] = [
        values for _, values in rows.values()
    ]
    try:
        return FiberDataset(
            subjects=subjects,
            groups=np.array([groups[s] for s in subjects], dtype=int),
            tensors=upper_to_matrix(uppers),
        )
    except InvalidPoint:
        raise _spd_error(rows) from None


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
    logs = np.broadcast_to(spd_logm(np.diag([1.5, 1.0, 0.7])), (n, n_sites, 3, 3)).copy()
    # gentle anisotropy trend along the tract
    logs[:, :, 0, 0] += 0.1 * np.sin(2.0 * np.pi * np.arange(n_sites) / n_sites)
    if effect:
        logs[np.ix_(groups == 1, sorted(effect))] += effect_size * np.eye(3) / np.sqrt(3.0)
    z = np.array(
        [_stream(seed, (i, site)).standard_normal(6) for i in range(n) for site in range(n_sites)]
    )
    noise = _vech_inv_rows(noise_scale * z, 3).reshape(logs.shape)
    return FiberDataset(subjects=subjects, groups=groups, tensors=spd_expm(logs + noise))


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

    The dataset's tensors are mapped to the chart together, and all sites
    are tested in one batch by ``chi2_two_sample``.  Returns (results
    ordered by site, summary dict).  Sites whose pooled covariance is
    near-singular are reported with NaN statistics, excluded from the
    corrections, and listed in the summary (``failed_sites``), each with
    its reason and the condition number of its pooled covariance (None when
    infinite) in ``failed_site_details``.  Raises NotPositiveDefinite,
    naming the subject and site, for a tensor too close to singular for the
    log-Euclidean chart.
    """
    space = SPDSpace(3, metric)
    n, n_sites = dataset.tensors.shape[:2]
    sample = Sample("spd", dataset.tensors.reshape(n * n_sites, 3, 3))  # validated by the dataset
    try:
        images = space.chart_at().forward_many(sample)
    except NotPositiveDefinite as exc:
        subject, site = divmod(exc.index, n_sites)
        raise NotPositiveDefinite(
            f"subject {dataset.subjects[subject]!r} site {site}: tensor has eigenvalue ratio "
            f"at most 1e-14, too close to singular for the {metric} metric",
            index=exc.index,
        ) from None
    images = images.reshape(n, n_sites, space.chart_dim)
    images = np.swapaxes(images, 0, 1)  # (site, subject, coordinate)
    stats, pvals, cond, _, _, _ = chi2_two_sample(
        images[:, dataset.groups == 1], images[:, dataset.groups == 0]
    )
    failed = np.isnan(stats)
    ok = ~failed
    bh = np.zeros(n_sites, dtype=bool)
    bonf = np.zeros(n_sites, dtype=bool)
    bh_result = bonf_result = None
    if ok.any():
        bh_result = bh_fdr(pvals[ok], alpha)
        bonf_result = bonferroni(pvals[ok], alpha)
        bh[ok] = bh_result.rejected
        bonf[ok] = bonf_result.rejected
    tiny = ok & (pvals < TINY_P)
    results = [
        SiteTestResult(
            site=site,
            statistic=float(stats[site]),
            df=space.chart_dim,
            p_value=float(pvals[site]),
            tiny_p=bool(tiny[site]),
            bh_rejected=bool(bh[site]),
            bonferroni_rejected=bool(bonf[site]),
            failed=bool(failed[site]),
        )
        for site in range(n_sites)
    ]
    failed_sites = np.flatnonzero(failed).tolist()
    summary = {
        "metric": metric,
        "alpha": alpha,
        "n_sites": n_sites,
        "n_tested": int(ok.sum()),
        "bonferroni_global_p": bonf_result.global_p if bonf_result else float("nan"),
        "bh_rejections": bh_result.n_rejected if bh_result else 0,
        "failed_sites": failed_sites,
        "failed_site_details": [
            {"site": site, "reason": "pooled covariance is numerically singular",
             "condition": float(cond[site]) if np.isfinite(cond[site]) else None}
            for site in failed_sites
        ],
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
