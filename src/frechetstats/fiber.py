"""Fiber-tract batch pipeline: a per-(subject, site) SPD(3) dataset format,
a synthetic generator with a controllable group effect, and the per-site
two-sample sweep with Bonferroni and BH correction.

The pipeline works on whole arrays.  The parser reads a well-formed file's
columns in one ``np.loadtxt`` pass; a file that numpy's parser refuses is
read again field by field (``CHUNK_LINES`` lines at a time), which refuses
the bad lines by mask, so that an error names the first bad line.  It then
checks the columns as arrays, refusing lines the same way, and fills the
tensors in one scatter.  A dataset validates all its tensors in one batch
when it is built; the sweep maps every tensor to the chart at once and
tests all sites in one batched chi-square computation
(``inference.chi2_two_sample``), whose ``singular`` mask names the failed
sites.  The CLI's point files are read by the same reader (``read_table``,
``read_columns``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat

import numpy as np

from .errors import InvalidDescriptor, InvalidPoint, NotPositiveDefinite
from .geometry import UPPER_COLUMNS, Sample, _Refusals, matrix_to_upper, spd_sample, upper_to_matrix
from .inference import bh_fdr, bonferroni, check_alpha, chi2_two_sample
from .spaces.spd import SPDSpace, _vech_inv_rows, spd_expm, spd_logm
from .streams import Streams

#: canonical column order of the dataset CSV
FIBER_COLUMNS = ("subject", "group", "site") + UPPER_COLUMNS

#: data lines the refusal path (``_read_fields``) splits into fields at once;
#: only one chunk's field strings are alive at a time, which bounds its memory
CHUNK_LINES = 512

#: the array type of a column of each converter but ``str.strip``'s (object)
_DTYPES = {float: float, int: np.int64}

#: U+001C-U+001F: numpy's parser skips them around a number, as str.strip
#: does, but float and int refuse them
_SEPARATORS = "\x1c\x1d\x1e\x1f"

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


def read_table(lines, error, header):
    """``(columns, body, numbers)`` of a table file: the stripped fields of
    its header line, its stripped non-blank lines after it and their 1-based
    line numbers.  ``header(columns)`` is the header's problem, or None;
    ``error(message)`` is the exception raised for an empty file, a header
    with a problem or no data lines, its message naming the line.
    """
    stripped = list(map(str.strip, lines))
    body = list(filter(None, stripped))
    if not body:
        raise error("line 1: empty file, header expected")
    numbers = list(compress(count(1), stripped)) if len(body) < len(stripped) else range(1, len(body) + 1)
    columns = tuple(c.strip() for c in body.pop(0).split(","))
    problem = header(columns)
    if problem is not None:
        raise error(f"line {numbers[0]}: {problem}")
    if not body:
        raise error(f"line {numbers[0] + 1}: no data rows")
    return columns, body, numbers[1:]


def read_columns(body, kinds, refusals):
    """The columns of the data lines ``body``, split at commas into one
    field per converter of ``kinds`` (``float``, ``int`` or ``str.strip``,
    which all ignore the whitespace around a field): (n,) arrays of float,
    int64 (object if a value does not fit) or object.

    One ``np.loadtxt`` pass (``_load_table``) reads every file that
    numpy's C parser accepts whole and that holds none of ``_SEPARATORS``:
    it checks the number of fields of every line, then accepts no field
    that ``float`` or ``int`` refuses, and gives a field they accept their
    bits.  Any other file, including one with a field only Python reads
    (``1_5``, non-ASCII digits, an int beyond int64), is read again by
    ``_read_fields``, which alone refuses lines through ``refusals`` and so
    names them.
    """
    dtypes = [_DTYPES.get(kind, object) for kind in kinds]
    table = _load_table(body, dtypes)
    if table is None:
        return _read_fields(body, kinds, refusals)
    return [np.fromiter(map(kind, table[name]), object, len(table)) if dtype is object else table[name]
            for kind, dtype, name in zip(kinds, dtypes, table.dtype.names)]


def _load_table(body, dtypes):
    """The lines ``body`` as one structured array of fields of ``dtypes``
    read by ``np.loadtxt``, or None if it refuses them or they hold one of
    ``_SEPARATORS``.  An object field holds the field's raw text, NUL
    included."""
    if any(map("".join(body).__contains__, _SEPARATORS)):
        return None
    try:
        return np.loadtxt(body, [("", dtype) for dtype in dtypes], delimiter=",", comments=None,
                          quotechar=None, ndmin=1)
    except ValueError:
        return None


def _read_fields(body, kinds, refusals):
    """``read_columns`` field by field, for a file ``np.loadtxt`` refuses.

    ``refusals`` refuses the lines with a wrong number of fields, then,
    column after column, the lines with a field its converter rejects, with
    the exception's text; a refused field holds ``kind("0")``.  Each column
    of ``CHUNK_LINES`` lines is converted with one call; only a chunk column
    that fails is converted again, field by field.
    """
    n, width = len(body), len(kinds)
    wrong = np.fromiter(map(str.count, body, repeat(",")), np.intp, n) != width - 1
    if wrong.any():
        refusals.check(wrong, f"expected {width} columns")
        body = [",".join("0" * width) if w else line for w, line in zip(wrong.tolist(), body)]
    dtypes = [_DTYPES.get(kind, object) for kind in kinds]
    pieces = [[] for _ in kinds]
    for start in range(0, n, CHUNK_LINES):
        fields = ",".join(body[start:start + CHUNK_LINES]).split(",")
        for k, (kind, dtype, piece) in enumerate(zip(kinds, dtypes, pieces)):
            column = fields[k::width]
            try:  # an int column has few distinct fields (group, site): convert each once
                convert = {field: int(field) for field in set(column)}.__getitem__ if kind is int else kind
                piece.append(np.fromiter(map(convert, column), dtype, len(column)))
            except (ValueError, OverflowError):  # OverflowError: an int beyond int64
                piece.append(_convert(kind, column, start, n, refusals))
    return [np.concatenate(piece) for piece in pieces]


def _convert(kind, fields, start, n, refusals):
    """``kind`` of each field of the lines from ``start`` on (of ``n``), one
    at a time, as an array; ``refusals`` refuses the lines it rejects."""
    values, problems = [], {}
    for row, field in enumerate(fields, start):
        try:
            values.append(kind(field))
        except ValueError as exc:
            values.append(kind("0"))
            problems[row] = str(exc)
    bad = np.zeros(n, dtype=bool)
    bad[list(problems)] = True
    refusals.check(bad, problems.__getitem__)
    return np.array(values, float if kind is float else object)


def raise_refused(refusals, numbers, error):
    """Raise ``error`` naming the first line that ``refusals`` refused, with
    its message, if it refused any (``numbers`` are the lines' numbers)."""
    try:
        refusals.raise_any()
    except InvalidPoint as exc:
        raise error(f"line {numbers[int(np.argmax(exc.refused))]}: {exc}") from None


def parse_fiber_csv(lines):
    """Parse the dataset format (header + one row per subject/site pair).

    The data lines are read as columns (``read_columns``) and checked as
    arrays, and the tensors are validated together when the dataset is
    built.  Each check refuses the lines it finds wrong among those no
    earlier check refused: group, site, a subject changing group (its first
    line sets its group), a repeated pair, a matrix that is not SPD.  A
    FiberParseError names the file's first refused line, or else the first
    missing (subject, site) pair.
    """
    _, body, numbers = read_table(lines, FiberParseError, lambda columns: None if columns == FIBER_COLUMNS
                                  else f"expected header {','.join(FIBER_COLUMNS)!r}")
    n = len(body)
    refusals = _Refusals()
    subject, group, site, *uppers = read_columns(body, (str.strip, int, int) + (float,) * 6, refusals)
    refusals.check((group != 0) & (group != 1), "group must be 0 or 1")
    refusals.check(site < 0, "site must be nonnegative")
    # the checks below read refused lines too: a refused line can only make
    # a later line look wrong, so the first refused line stays the same
    subjects = sorted(set(subject))
    index = {name: i for i, name in enumerate(subjects)}
    row = np.fromiter(map(index.__getitem__, subject), np.intp, n)
    group = group == 1
    group_of = np.zeros(len(subjects), dtype=bool)
    group_of[row] = group  # some line's group
    if not np.array_equal(group_of[row], group):
        group_of = group[np.unique(row, return_index=True)[1]]  # the first line's
        refusals.check(group != group_of[row], lambda i: f"subject {subject[i]!r} changes group")
    uppers = np.column_stack(uppers)
    n_sites = int(site.max()) + 1  # a Python int: the largest int64 site does not wrap
    if refusals.rows is None and n == len(subjects) * n_sites:  # before allocating anything n_sites long
        filled = np.zeros((len(subjects), n_sites), dtype=bool)
        filled[row, site] = True  # n rows fill all n pairs only if no pair repeats
        if filled.all():
            grid = np.empty((len(subjects), n_sites, len(UPPER_COLUMNS)))
            grid[row, site] = uppers
            try:
                return FiberDataset(tuple(subjects), group_of.astype(int), upper_to_matrix(grid))
            except InvalidPoint:
                pass  # its first non-SPD line is found below, in file order
    first = np.unique(row * n + np.unique(site, return_inverse=True)[1], return_index=True)[1]
    repeated = np.ones(n, dtype=bool)
    repeated[first] = False
    refusals.check(repeated, "duplicate (subject, site) pair")
    try:
        spd_sample(upper_to_matrix(uppers))
    except InvalidPoint as exc:
        refusals.check(exc.refused, f"matrix is not SPD ({exc})")
    raise_refused(refusals, numbers, FiberParseError)
    # every line is fine, so the pairs are distinct and a subject has fewer than n_sites
    short = int(np.argmax(np.bincount(row, minlength=len(subjects)) < n_sites))
    taken = set(site[row == short].tolist())
    missing = next(k for k in count() if k not in taken)
    raise FiberParseError(f"subject {subjects[short]!r} is missing site {missing} (every pair required)")


def write_fiber_csv(dataset, stream):
    """Write ``dataset`` in the dataset format, in one formatted pass."""
    line = "%s,%d,%d" + ",%.17g" * len(UPPER_COLUMNS) + "\n"
    pairs = [(subject, group, site) for subject, group in zip(dataset.subjects, dataset.groups.tolist())
             for site in range(dataset.n_sites)]
    uppers = matrix_to_upper(dataset.tensors).reshape(len(pairs), -1).tolist()
    stream.write(",".join(FIBER_COLUMNS) + "\n" + "".join([line % (*p, *u) for p, u in zip(pairs, uppers)]))


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
        raise InvalidDescriptor("need at least 2 subjects per group and 1 site")
    effect = set(int(s) for s in effect_sites)
    if effect and (min(effect) < 0 or max(effect) >= n_sites):
        raise InvalidDescriptor("effect sites must lie in [0, n_sites)")
    n = n_group1 + n_group0
    subjects = tuple(f"subj{i:03d}" for i in range(n))
    groups = np.array([1] * n_group1 + [0] * n_group0)
    logs = np.broadcast_to(spd_logm(np.diag([1.5, 1.0, 0.7])), (n, n_sites, 3, 3)).copy()
    # gentle anisotropy trend along the tract
    logs[:, :, 0, 0] += 0.1 * np.sin(2.0 * np.pi * np.arange(n_sites) / n_sites)
    if effect:
        logs[np.ix_(groups == 1, sorted(effect))] += effect_size * np.eye(3) / np.sqrt(3.0)
    keys = [(i, site) for i in range(n) for site in range(n_sites)]
    streams = Streams(seed, keys)
    z = np.empty((len(keys), 6))
    for key, row in zip(keys, z):
        streams.open(key).standard_normal(out=row)
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
    log-Euclidean chart, and InvalidArgument for ``alpha`` outside (0, 1).
    """
    check_alpha(alpha)
    space = SPDSpace(3, metric)
    n, n_sites = dataset.tensors.shape[:2]
    sample = Sample("spd", dataset.tensors.reshape(n * n_sites, 3, 3))  # validated by the dataset
    try:
        images = space.chart_at().test_images(sample)
    except NotPositiveDefinite as exc:
        subject, site = divmod(int(exc.refused.argmax()), n_sites)
        raise NotPositiveDefinite(
            f"subject {dataset.subjects[subject]!r} site {site}: tensor has eigenvalue ratio "
            f"at most 1e-14, too close to singular for the {metric} metric",
            exc.refused,
        ) from None
    images = images.reshape(n, n_sites, space.chart_dim)
    images = np.swapaxes(images, 0, 1)  # (site, subject, coordinate)
    stats, pvals, cond, failed, *_ = chi2_two_sample(
        images[:, dataset.groups == 1], images[:, dataset.groups == 0]
    )
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
