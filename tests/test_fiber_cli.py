import io
import json
import re

import numpy as np
import pytest

from frechetstats import cli, fiber
from frechetstats.cli import CLIInputError, load_points, main
from frechetstats.errors import InvalidArgument, InvalidDescriptor, InvalidPoint, NearSingularCovariance
from frechetstats.fiber import (
    FiberDataset,
    FiberParseError,
    fiber_site_tests,
    generate_fiber_dataset,
    parse_fiber_csv,
    write_fiber_csv,
    write_site_csv,
)
from frechetstats.geometry import UPPER_COLUMNS, Sample, spd_sample
from frechetstats.inference import two_sample_test
from frechetstats.simulate import Sampler, SphereCapDescriptor
from frechetstats.spaces import SPDSpace, SphereSpace

SITE_HEADER = "site,statistic,df,p_value,tiny_p,bh_rejected,bonferroni_rejected"


# ---------------------------------------------------------------------------
# dataset parsing and generation


def test_generate_defaults_mirror_study_shape():
    ds = generate_fiber_dataset(seed=1, n_sites=5)
    assert len(ds.subjects) == 46
    assert int((ds.groups == 1).sum()) == 28
    assert int((ds.groups == 0).sum()) == 18
    full = generate_fiber_dataset(seed=1)
    assert full.n_sites == 75


def test_fiber_csv_round_trip():
    ds = generate_fiber_dataset(seed=3, n_sites=4, n_group1=4, n_group0=3)
    buf = io.StringIO()
    write_fiber_csv(ds, buf)
    parsed = parse_fiber_csv(io.StringIO(buf.getvalue()))
    assert parsed.subjects == ds.subjects
    assert np.array_equal(parsed.groups, ds.groups)
    assert np.allclose(parsed.tensors, ds.tensors, rtol=0, atol=0)  # 17g is exact


def test_parse_errors_name_the_line():
    good = "subject,group,site,a11,a12,a13,a22,a23,a33\n"
    with pytest.raises(FiberParseError, match="line 1"):
        parse_fiber_csv(io.StringIO("bad,header\n"))
    with pytest.raises(FiberParseError, match="line 2"):
        parse_fiber_csv(io.StringIO(good + "s0,0,0,1,0,0,1,0\n"))  # short row
    with pytest.raises(FiberParseError, match="line 2"):
        parse_fiber_csv(io.StringIO(good + "s0,0,0,1,0,x,1,0,1\n"))  # bad float
    with pytest.raises(FiberParseError, match="line 2: matrix is not SPD"):
        parse_fiber_csv(io.StringIO(good + "s0,0,0,-1,0,0,1,0,1\n"))
    with pytest.raises(FiberParseError, match="line 2: matrix is not SPD"):
        # the first problem is reported, even when a later line is malformed
        parse_fiber_csv(io.StringIO(good + "s0,0,0,-1,0,0,1,0,1\n" + "s1,0,0,1,0,x,1,0,1\n"))
    with pytest.raises(FiberParseError, match="line 3: matrix is not SPD"):
        parse_fiber_csv(io.StringIO(good + "s0,0,0,1,0,0,1,0,1\n" + "s1,0,0,1,0,nan,1,0,1\n"))
    with pytest.raises(FiberParseError, match="line 2: matrix is not SPD"):
        # a non-finite line after the first non-SPD one does not hide it
        parse_fiber_csv(io.StringIO(good + "s0,0,0,-1,0,0,1,0,1\n" + "s0,0,1,1,0,0,1,0,1\n"
                                    + "s1,1,0,1,0,0,1,0,1\n" + "s1,1,1,1,0,nan,1,0,1\n"))
    with pytest.raises(FiberParseError, match="duplicate"):
        parse_fiber_csv(
            io.StringIO(good + "s0,0,0,1,0,0,1,0,1\n" + "s0,0,0,1,0,0,1,0,1\n")
        )
    with pytest.raises(FiberParseError, match="changes group"):
        parse_fiber_csv(
            io.StringIO(good + "s0,0,0,1,0,0,1,0,1\n" + "s0,1,1,1,0,0,1,0,1\n")
        )
    with pytest.raises(FiberParseError, match="missing site"):
        parse_fiber_csv(
            io.StringIO(good + "s0,0,0,1,0,0,1,0,1\n" + "s1,1,1,1,0,0,1,0,1\n")
        )
    for text, message in [
        (good + "s0,2,0,1,0,0,1,0,1\n", "line 2: group must be 0 or 1"),
        (good + "s0,0,-1,1,0,0,1,0,1\n", "line 2: site must be nonnegative"),
        # fails before anything a billion sites long is allocated
        (good + "s0,0,1000000000,1,0,0,1,0,1\n",
         "subject 's0' is missing site 0 (every pair required)"),
        # a site at or beyond the int64 limit is still a missing site, and
        # still a repeated pair
        (good + f"s0,0,{2**63 - 1},1,0,0,1,0,1\n",
         "subject 's0' is missing site 0 (every pair required)"),
        (good + f"s0,0,{10**30},1,0,0,1,0,1\n",
         "subject 's0' is missing site 0 (every pair required)"),
        (good + f"s0,0,{10**30},1,0,0,1,0,1\n" * 2, "line 3: duplicate (subject, site) pair"),
        # a short and a long line that, split together, would read as two good rows
        (good + "a,0,0,1,0,0,1,0\n" + "1,2,0,0,1,0,0,1,0,1\n", "line 2: expected 9 columns"),
        # the non-SPD line comes before the duplicate
        (good + "s0,0,0,1,0,0,1,0,1\n" + "s1,0,0,-1,0,0,1,0,1\n" + "s0,0,0,1,0,0,1,0,1\n",
         "line 3: matrix is not SPD (spd payload has a non-positive eigenvalue)"),
        (good, "line 2: no data rows"),
        ("\n \n" + good + "\n", "line 4: no data rows"),
    ]:
        with pytest.raises(FiberParseError) as info:
            parse_fiber_csv(io.StringIO(text))
        assert str(info.value) == message


def test_reordered_and_padded_files_give_the_same_dataset(tmp_path, monkeypatch):
    # 17 significant digits are exact, so every layout of the generated file
    # must give the generated dataset back bit for bit
    ds = generate_fiber_dataset(seed=11, n_sites=60, n_group1=5, n_group0=4)
    buf = io.StringIO()
    write_fiber_csv(ds, buf)
    header, *rows = buf.getvalue().splitlines()
    rng = np.random.default_rng(0)
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    padded = [" " + " , ".join(row.split(",")) + "\t" for row in shuffled]
    *head, last = shuffled
    fields = last.split(",")
    arabic = ",".join(fields[:3] + [field.replace("1", "\u0661") for field in fields[3:]])
    assert arabic != last
    variants = {
        "shuffled": "\n".join([header] + shuffled) + "\n",
        "blank lines": "\n \n" + header + "\n\n" + "\n\n".join(shuffled) + "\n\n",
        "crlf": "\r\n".join([header] + shuffled) + "\r\n",
        "padded": "\n".join([" " + header + " "] + padded),
        # numpy's parser refuses the Arabic-Indic digit one that float reads as 1
        "one line of Arabic-Indic ones": "\n".join([header] + head + [arabic]) + "\n",
    }
    expected_sites = tmp_path / "expected.csv"
    canonical = write(tmp_path / "canonical.csv", buf.getvalue())
    assert main(["fiber", canonical, "--output", str(expected_sites)]) == 0
    field_reads = []
    read_fields = fiber._read_fields
    monkeypatch.setattr(fiber, "_read_fields", lambda *args: field_reads.append(1) or read_fields(*args))
    for name, text in variants.items():
        del field_reads[:]
        parsed = parse_fiber_csv(io.StringIO(text))
        assert len(field_reads) == (name == "one line of Arabic-Indic ones"), name
        assert parsed.subjects == ds.subjects, name
        assert parsed.groups.dtype == ds.groups.dtype, name
        assert parsed.groups.tobytes() == ds.groups.tobytes(), name
        assert parsed.tensors.tobytes() == ds.tensors.tobytes(), name
        # the command reads the same file with universal newlines
        path = tmp_path / "variant.csv"
        path.write_bytes(text.encode())
        sites = tmp_path / "sites.csv"
        assert main(["fiber", str(path), "--output", str(sites)]) == 0, name
        assert sites.read_bytes() == expected_sites.read_bytes(), name


# line-local corruptions of a data line's fields, each with the message
# the line gets; None marks the fiber-only ones
CORRUPTIONS = [
    (lambda f: f[:-1], "expected {width} columns", "expected {width} columns"),
    (lambda f: f[:-1] + ["1.2.3"], "could not convert string to float: '1.2.3'",
     "could not convert string to float: '1.2.3'"),
    (lambda f: f[:-3] + ["-1"] + f[-2:], "matrix is not SPD (spd payload has a non-positive eigenvalue)",
     "spd payload has a non-positive eigenvalue"),
    (lambda f: f[:-4] + ["nan"] + f[-3:], "matrix is not SPD (point payload contains non-finite entries)",
     "point payload contains non-finite entries"),
    (lambda f: f[:1] + ["g"] + f[2:], "invalid literal for int() with base 10: 'g'", None),
    (lambda f: f[:1] + ["2"] + f[2:], "group must be 0 or 1", None),
    (lambda f: f[:2] + ["-1"] + f[3:], "site must be nonnegative", None),
]


def _corrupt(rows, rng, cli):
    """``rows`` with 1-3 of them corrupted, and the expected (line, message)
    of the first corrupted line (the header is line 1)."""
    rows = list(rows)
    kinds = [c for c in CORRUPTIONS if c[2] is not None] if cli else CORRUPTIONS
    corrupted = {}
    for i in rng.choice(len(rows), size=rng.integers(1, 4), replace=False).tolist():
        change, fiber_message, cli_message = kinds[rng.integers(len(kinds))]
        width = len(rows[i].split(","))
        rows[i] = ",".join(change(rows[i].split(",")))
        corrupted[i + 2] = (cli_message if cli else fiber_message).format(width=width)
    first = min(corrupted)
    return rows, f"line {first}: {corrupted[first]}"


@pytest.mark.parametrize("sites", [3, 60])  # 60 sites: 540 rows
def test_corrupted_lines_report_the_first_one(sites, tmp_path):
    ds = generate_fiber_dataset(seed=8, n_sites=sites, n_group1=5, n_group0=4)
    buf = io.StringIO()
    write_fiber_csv(ds, buf)
    header, *rows = buf.getvalue().splitlines()
    spd_rows = [",".join(row.split(",")[3:]) for row in rows]
    rng = np.random.default_rng(sites)
    for attempt in range(400 // sites + 20):
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        lines, message = _corrupt(shuffled, rng, cli=False)
        with pytest.raises(FiberParseError) as info:
            parse_fiber_csv(io.StringIO("\n".join([header] + lines) + "\n"))
        assert str(info.value) == message
        lines, message = _corrupt(spd_rows[:2 * sites], rng, cli=True)
        # a new file each time: truncating one to rewrite it can wait for its writeback
        path = write(tmp_path / f"points{attempt}.csv", "\n".join([",".join(UPPER_COLUMNS)] + lines) + "\n")
        with pytest.raises(CLIInputError) as info:
            load_points(path, "spd")
        assert str(info.value) == f"{path}: {message}"


# fields that numpy's C parser and Python's float, int and str.strip read
# differently, put in line 2 of a file: (column, field, a field Python reads
# the same, or the file's message).  A point file is split into lines as a
# dataset file is, only at \n, \r\n and \r, so a tensor column may hold
# any of U+001C-U+001F.
DIFFERENT_FIELDS = [
    ("a11", "1_5", "15", None),
    ("a11", "١.٥", "1.5", None),
    ("a11", "１.５", "1.5", None),
    ("a11", "\xa01.5\t", "1.5", None),
    ("a11", "1.5#", None, "line 2: could not convert string to float: '1.5#'"),
    ("a11", '"1.5"', None, "line 2: could not convert string to float: '\"1.5\"'"),
    ("a11", "1.5\x1f", None, "line 2: could not convert string to float: '1.5\\x1f'"),
    ("a22", "\x1f1.5", None, "line 2: could not convert string to float: '\\x1f1.5'"),
    ("a12", "\x1c1.5", None, "line 2: could not convert string to float: '\\x1c1.5'"),
    ("a13", "1.5\x1e", None, "line 2: could not convert string to float: '1.5\\x1e'"),
    ("a33", "1.5\x0c", "1.5", None),
    ("a11", "1.5\x00", None, "line 2: could not convert string to float: '1.5\\x00'"),
    ("group", "١", "1", None),
    ("group", "\x1c1", None, "line 2: invalid literal for int() with base 10: '\\x1c1'"),
    ("site", "0_0", "0", None),
    ("site", "0\x1d", None, "line 2: invalid literal for int() with base 10: '0\\x1d'"),
    ("site", str(10**30), None, "subject 'subj000' is missing site 0 (every pair required)"),
    ("subject", " subj000", "subj000", None),
    ("subject", "\tsubj000\t", "subj000", None),
    ("subject", "\xa0subj000\xa0", "subj000", None),
    ("subject", "\x1esubj000\x1f", "subj000", None),
]


def _fiber_lines():
    """Header and rows of a small generated dataset file; its line 2 is
    subject subj000 (group 1) at site 0."""
    ds = generate_fiber_dataset(seed=6, n_sites=2, n_group1=2, n_group0=2)
    buf = io.StringIO()
    write_fiber_csv(ds, buf)
    return buf.getvalue().splitlines()


def _line_2_with(lines, column, field):
    """``lines`` as a file whose line 2 holds ``field`` in ``column``."""
    header, first, *rest = lines
    fields = first.split(",")
    fields[header.split(",").index(column)] = field
    return "\n".join([header, ",".join(fields)] + rest) + "\n"


def _points_file(path, text):
    """The tensors of the dataset file ``text`` as an SPD point file."""
    rows = [",".join(line.split(",")[3:]) for line in text.split("\n")[1:-1]]
    return write(path, "\n".join([",".join(UPPER_COLUMNS)] + rows) + "\n")


@pytest.mark.parametrize("column, field, same, message", DIFFERENT_FIELDS)
def test_a_field_is_read_as_python_reads_it(column, field, same, message, tmp_path):
    lines = _fiber_lines()
    text = _line_2_with(lines, column, field)
    points = _points_file(tmp_path / "points.csv", text)
    if message is not None:
        with pytest.raises(FiberParseError) as info:
            parse_fiber_csv(io.StringIO(text))
        assert str(info.value) == message
        if column in UPPER_COLUMNS:  # the CLI's point files are read by the same reader
            with pytest.raises(CLIInputError) as info:
                load_points(points, "spd")
            assert str(info.value) == f"{points}: {message}"
        return
    parsed, expected = (parse_fiber_csv(io.StringIO(_line_2_with(lines, column, f))) for f in (field, same))
    assert parsed.subjects == expected.subjects
    assert parsed.groups.tobytes() == expected.groups.tobytes()
    assert parsed.tensors.tobytes() == expected.tensors.tobytes()
    same_points = _points_file(tmp_path / "same.csv", _line_2_with(lines, column, same))
    assert load_points(points, "spd")[1].data.tobytes() == load_points(same_points, "spd")[1].data.tobytes()


@pytest.mark.parametrize("name", ["s\x00j", "subj000" + "x" * 293, "subj000#1", '"subj000"', "'subj000"])
def test_a_subject_keeps_every_character_but_the_surrounding_whitespace(name):
    header, *rows = _fiber_lines()
    padded = [row.replace("subj000,", f" {name}\t,") for row in rows]
    parsed = parse_fiber_csv(io.StringIO("\n".join([header] + padded)))
    expected = parse_fiber_csv(io.StringIO("\n".join([header] + rows)))
    assert parsed.subjects == (name,) + expected.subjects[1:]  # subj000 and its rename sort first
    assert parsed.tensors.tobytes() == expected.tensors.tobytes()


@pytest.mark.parametrize("end", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_a_point_file_is_split_into_lines_only_at_line_ends(end, tmp_path):
    # line 2 ends in ``end``, which str.strip drops, and line 3 holds "x";
    # str.splitlines would also end a line at ``end`` and so name line 4
    path = write(tmp_path / "points.csv", "\n".join([",".join(UPPER_COLUMNS), "1,0,0,1,0,1" + end, "x"]) + "\n")
    with pytest.raises(CLIInputError) as info:
        load_points(path, "spd")
    assert str(info.value) == f"{path}: line 3: expected 6 columns"


def test_cli_point_file_header_is_checked_before_its_rows(tmp_path, capsys):
    bad = write(tmp_path / "bad.csv", "a,b\n")
    assert main(["mean", bad, "--space", "spd"]) == 2
    assert f"{bad}: line 1: expected header 'a11,a12,a13,a22,a23,a33'" in capsys.readouterr().err


def test_identical_groups_give_unit_pvalues():
    # duplicate the same tensors under both group labels; groups need more
    # than s = 6 subjects apiece for a nonsingular covariance
    base = generate_fiber_dataset(seed=5, n_sites=3, n_group1=9, n_group0=9)
    tensors = base.tensors.copy()
    tensors[9:] = tensors[:9]
    ds = FiberDataset(subjects=base.subjects, groups=base.groups, tensors=tensors)
    results, summary = fiber_site_tests(ds, metric="log_euclidean", alpha=0.05)
    for r in results:
        assert r.statistic == pytest.approx(0.0, abs=1e-18)
        assert r.p_value == 1.0
        assert r.df == 6
    assert summary["bh_rejections"] == 0


@pytest.mark.parametrize("metric", ["log_euclidean", "euclidean"])
def test_batched_sweep_matches_per_site_two_sample_test(metric):
    ds = generate_fiber_dataset(
        seed=8, n_sites=9, n_group1=7, n_group0=6, effect_sites=(2, 5), effect_size=0.5
    )
    tensors = ds.tensors.copy()
    tensors[:, 4] = np.eye(3)  # identical tensors: singular pooled covariance at site 4
    ds = FiberDataset(subjects=ds.subjects, groups=ds.groups, tensors=tensors)
    results, summary = fiber_site_tests(ds, metric)
    space = SPDSpace(3, metric)
    for r in results:
        mats = ds.tensors[:, r.site]
        try:
            ref = two_sample_test(space, spd_sample(mats[ds.groups == 1]),
                                  spd_sample(mats[ds.groups == 0]))
        except NearSingularCovariance:
            assert r.failed and np.isnan(r.statistic) and np.isnan(r.p_value)
            continue
        assert not r.failed
        assert r.statistic == ref.statistic
        assert r.p_value == ref.p_value
    assert summary["failed_sites"] == [4]
    assert summary["n_tested"] == 8
    (detail,) = summary["failed_site_details"]
    assert detail["site"] == 4
    assert detail["reason"] == "pooled covariance is numerically singular"
    # identical tensors: the pooled covariance is exactly 0, so its
    # condition number is infinite and reported as JSON null
    assert detail["condition"] is None
    assert json.loads(json.dumps(summary))["failed_site_details"] == [detail]


def test_df_is_six_everywhere():
    ds = generate_fiber_dataset(seed=6, n_sites=8, n_group1=5, n_group0=5)
    for metric in ("euclidean", "log_euclidean"):
        results, _ = fiber_site_tests(ds, metric=metric)
        assert all(r.df == 6 for r in results)


def test_site_csv_header_is_stable():
    ds = generate_fiber_dataset(seed=7, n_sites=2, n_group1=4, n_group0=4)
    results, _ = fiber_site_tests(ds)
    buf = io.StringIO()
    write_site_csv(results, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == SITE_HEADER
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# CLI


def write(path, text):
    path.write_text(text)
    return str(path)


def test_cli_mean_euclidean_two_points(tmp_path, capsys):
    inp = write(tmp_path / "pts.csv", "x\n0\n2\n")
    assert main(["mean", inp, "--space", "euclidean"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mean"] == [1.0]
    assert out["n"] == 2
    assert out["asym_cov_over_n"] == [[0.5]]


def test_cli_mean_single_point_zero_covariance(tmp_path, capsys):
    inp = write(tmp_path / "one.csv", "x,y\n0.25,0.75\n")
    assert main(["mean", inp, "--space", "euclidean"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mean"] == [0.25, 0.75]
    assert out["asym_cov_over_n"] == [[0.0, 0.0], [0.0, 0.0]]


def test_cli_mean_malformed_row_names_line(tmp_path, capsys):
    inp = write(tmp_path / "bad.csv", "x,y\n1,2\noops,3\n")
    assert main(["mean", inp, "--space", "euclidean"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_cli_mean_degenerate_geometry_exits_3(tmp_path, capsys):
    # antipodal pair: the ambient mean is the center, no unique projection
    inp = write(tmp_path / "anti.csv", "x,y,z\n0,0,1\n0,0,-1\n")
    assert main(["mean", inp, "--space", "sphere"]) == 3
    assert "failed" in capsys.readouterr().err


def test_cli_mean_sphere_and_spd(tmp_path, capsys):
    sph = write(tmp_path / "sph.csv", "x,y,z\n1,0,0\n0,1,0\n")
    assert main(["mean", sph, "--space", "sphere"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["mean"], np.array([1, 1, 0]) / np.sqrt(2))

    spd = write(
        tmp_path / "spd.csv",
        "a11,a12,a13,a22,a23,a33\n1,0,0,1,0,1\n4,0,0,4,0,4\n",
    )
    assert main(["mean", spd, "--space", "spd", "--metric", "log-euclidean"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["mean"], [2.0, 0.0, 0.0, 2.0, 0.0, 2.0])


@pytest.mark.parametrize("command", ["mean", "test2"])
def test_cli_spd_points_name_the_first_bad_line(command, tmp_path, capsys):
    header, good = "a11,a12,a13,a22,a23,a33\n", "2,0.1,0,1,0,1\n"
    ok = write(tmp_path / "ok.csv", header + good + good)
    for rows, message in [
        (good + "1,2,0,1,0,1\n" + "1,0,0,1,0,-1\n", "line 3: spd payload has a non-positive eigenvalue"),
        (good + good + "0,0,0,0,0,0\n", "line 4: spd payload has a non-positive eigenvalue"),
        (good + "\n" + "1,0,0,1,0,nan\n" + "1,2,0,1,0,1\n", "line 4: point payload contains non-finite"),
        ("1,2,0,1,0,1\n" + good + good + "1,0,0,1,0,nan\n",
         "line 2: spd payload has a non-positive eigenvalue"),
        # a non-SPD line before a line that is not numbers
        (good + "-1,0,0,1,0,1\n" + "x,0,0,1,0,1\n", "line 3: spd payload has a non-positive eigenvalue"),
    ]:
        bad = write(tmp_path / "bad.csv", header + rows)
        inputs = [bad] if command == "mean" else [ok, bad]
        assert main([command, *inputs, "--space", "spd"]) == 2
        assert f"{bad}: {message}" in capsys.readouterr().err


def test_cli_mean_openbook(tmp_path, capsys):
    ob = write(tmp_path / "ob.csv", "leaf,x0,x1\n1,1,0\n1,3,2\n2,2,4\n")
    assert main(["mean", ob, "--space", "openbook"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mean"]["leaf"] == 1
    assert np.allclose(out["mean"]["coords"], [2 / 3, 2.0])


def test_cli_mean_openbook_non_integer_leaf_exits_2(tmp_path, capsys):
    for label in ("1.5", "inf", "nan"):
        inp = write(tmp_path / "book.csv", f"leaf,x0,x1\n1,0.5,0.1\n{label},1.0,0.2\n")
        assert main(["mean", inp, "--space", "openbook"]) == 2
        assert "line 3: leaf must be an integer" in capsys.readouterr().err


def test_cli_test2(tmp_path, capsys):
    a = write(tmp_path / "a.csv", "x\n-0.7071067811865476\n0.7071067811865476\n")
    b = write(tmp_path / "b.csv", "x\n0.2928932188134524\n1.7071067811865476\n")
    assert main(["test2", a, b, "--space", "euclidean"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["statistic"] == pytest.approx(1.0, abs=1e-9)
    assert out["df"] == 1


@pytest.mark.parametrize("alpha", ["5", "0", "1", "-0.1", "nan"])
def test_cli_test2_refuses_alpha_outside_the_unit_interval(alpha, tmp_path, capsys):
    a = write(tmp_path / "a.csv", "x\n0\n1\n2\n")
    assert main(["test2", a, a, "--space", "euclidean", "--alpha", alpha]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "alpha must be in (0, 1), got" in err


@pytest.mark.parametrize("command", ["mean", "test2"])
@pytest.mark.parametrize("space, metric, text", [
    pytest.param("sphere", "bogus", "x,y,z\n0,0,1\n0,1,0\n1,0,0\n", id="sphere"),
    pytest.param("sphere", "riemann", "x,y,z\n0,0,1\n0,1,0\n1,0,0\n", id="sphere-riemann"),
    pytest.param("spd", "intrinsic", ",".join(UPPER_COLUMNS) + "\n1,0,0,1,0,1\n2,0,0,1,0,1\n",
                 id="spd"),
])
def test_cli_refuses_a_metric_the_space_does_not_have(command, space, metric, text, tmp_path,
                                                      capsys):
    inp = write(tmp_path / "points.csv", text)
    inputs = [inp] if command == "mean" else [inp, inp]
    assert main([command, *inputs, "--space", space, "--metric", metric]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and repr(metric) in err


def test_cli_test2_dimension_mismatch_exits_2(tmp_path, capsys):
    a = write(tmp_path / "a.csv", "x,y\n0,1\n1,0\n2,2\n")
    b = write(tmp_path / "b.csv", "x,y,z\n0,1,2\n1,0,2\n2,2,2\n")
    assert main(["test2", a, b, "--space", "euclidean"]) == 2
    assert "shape (2,), got (3,)" in capsys.readouterr().err


def test_cli_test2_one_point_group_exits_2(tmp_path, capsys):
    a = write(tmp_path / "a.csv", "x,y\n0,1\n")
    b = write(tmp_path / "b.csv", "x,y\n0,1\n1,0\n2,2\n")
    assert main(["test2", a, b, "--space", "euclidean"]) == 2
    assert "each group needs at least 2 observations" in capsys.readouterr().err


def test_cli_gen_fiber_and_fiber_round_trip(tmp_path, capsys):
    data = tmp_path / "fiber.csv"
    rc = main(
        [
            "gen-fiber",
            "--sites", "6",
            "--group1-size", "6",
            "--group0-size", "5",
            "--effect-sites", "2-3",
            "--seed", "9",
            "--output", str(data),
        ]
    )
    assert rc == 0
    out = tmp_path / "sites.csv"
    assert main(["fiber", str(data), "--output", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_sites"] == 6
    assert summary["failed_sites"] == []
    lines = out.read_text().splitlines()
    assert lines[0] == SITE_HEADER
    assert len(lines) == 7


def test_cli_gen_fiber_refuses_a_reversed_site_range(tmp_path, capsys):
    out = tmp_path / "fiber.csv"
    assert main(["gen-fiber", "--effect-sites", "3,20-10", "--output", str(out)]) == 2
    assert "effect site range '20-10' is reversed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (["--group1-size", "1"], dict(n_group1=1), "need at least 2 subjects per group and 1 site"),
        (["--group0-size", "1"], dict(n_group0=1), "need at least 2 subjects per group and 1 site"),
        (["--sites", "0"], dict(n_sites=0), "need at least 2 subjects per group and 1 site"),
        (["--sites", "5", "--effect-sites", "3-5"], dict(n_sites=5, effect_sites=[3, 4, 5]),
         "effect sites must lie in [0, n_sites)"),
    ],
)
def test_gen_fiber_refuses_bad_sizes_with_a_typed_error(args, kwargs, message, tmp_path, capsys):
    with pytest.raises(InvalidDescriptor, match=re.escape(message)):
        generate_fiber_dataset(**kwargs)
    out = tmp_path / "fiber.csv"
    assert main(["gen-fiber", *args, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    data, sites, made = tmp_path / "fiber.csv", tmp_path / "sites.csv", tmp_path / "made.csv"
    with open(data, "w") as fh:
        write_fiber_csv(generate_fiber_dataset(seed=2, n_sites=8, n_group1=5, n_group0=4), fh)
    calls = [
        ["fiber", str(data), "--metric", "euclidean", "--alpha", "0.1", "--output", str(sites)],
        ["gen-fiber", "--sites", "8", "--group1-size", "5", "--group0-size", "4", "--output", str(made)],
        ["gen-fiber", "--effect-sites", "20-10", "--seed", "3", "--output", str(made)],
        ["fiber", str(data), "--output", str(sites)],
    ]

    def run(argv):
        for path in (sites, made):
            path.unlink(missing_ok=True)
        code = main(argv)
        files = [path.read_bytes() if path.exists() else None for path in (sites, made)]
        return code, capsys.readouterr(), files

    firsts = []
    for argv in calls:
        cli.build_parser.cache_clear()
        firsts.append(run(argv))
    cli.build_parser.cache_clear()
    assert [run(argv) for argv in calls] == firsts  # one parser, built by the first call
    assert [code for code, _, _ in firsts] == [0, 0, 2, 0]
    assert firsts[0][1].out != firsts[3][1].out  # the second fiber call took the default metric
    assert cli.build_parser.cache_info().misses == 1


def test_cli_gen_fiber_reproducible_bytes(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gen-fiber", "--sites", "4", "--group1-size", "4", "--group0-size", "3",
            "--seed", "17"]
    assert main(args + ["--output", str(f1)]) == 0
    assert main(args + ["--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_cli_fiber_partial_failure_exit_code(tmp_path, capsys):
    # site 0 identical across subjects -> singular pooled covariance
    ds = generate_fiber_dataset(seed=4, n_sites=3, n_group1=5, n_group0=4)
    tensors = ds.tensors.copy()
    tensors[:, 0] = np.eye(3)
    broken = FiberDataset(subjects=ds.subjects, groups=ds.groups, tensors=tensors)
    data = tmp_path / "broken.csv"
    with open(data, "w") as fh:
        write_fiber_csv(broken, fh)
    out = tmp_path / "sites.csv"
    assert main(["fiber", str(data), "--output", str(out)]) == 4
    summary = json.loads(capsys.readouterr().out)
    assert summary["failed_sites"] == [0]
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + all three sites still emitted
    assert lines[1].startswith("0,nan")


@pytest.mark.parametrize("noise_scale", [0.0, 0.15])
def test_fiber_refuses_alpha_outside_the_unit_interval_even_when_every_site_fails(
        noise_scale, tmp_path, capsys):
    # with no noise every site's pooled covariance is singular, so no site
    # reaches the corrections, which used to be the only check of alpha
    ds = generate_fiber_dataset(5, 5, 2, noise_scale=noise_scale)
    for alpha in (5.0, 0.0, 1.0, float("nan")):
        with pytest.raises(InvalidArgument, match=r"alpha must be in \(0, 1\)"):
            fiber_site_tests(ds, alpha=alpha)
    data = tmp_path / "data.csv"
    with open(data, "w") as fh:
        write_fiber_csv(ds, fh)
    out = tmp_path / "sites.csv"
    assert main(["fiber", str(data), "--alpha", "5", "--output", str(out)]) == 2
    assert "alpha must be in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sizes", [(5, 1), (1, 5), (3, 4)])
def test_cli_fiber_too_few_subjects_exits_2(tmp_path, capsys, sizes):
    # one subject in a group, or n1 + n0 < 8 for the 6-d chart covariance
    ds = generate_fiber_dataset(seed=2, n_sites=2, n_group1=5, n_group0=5)
    n1, n0 = sizes
    keep = np.concatenate([np.arange(n1), 5 + np.arange(n0)])
    small = FiberDataset(
        subjects=tuple(ds.subjects[i] for i in keep),
        groups=ds.groups[keep],
        tensors=ds.tensors[keep],
    )
    data = tmp_path / "small.csv"
    with open(data, "w") as fh:
        write_fiber_csv(small, fh)
    assert main(["fiber", str(data), "--output", str(tmp_path / "sites.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_fiber_parse_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path / "bad.csv", "subject,group\n")
    out = tmp_path / "sites.csv"
    assert main(["fiber", bad, "--output", str(out)]) == 2


@pytest.mark.parametrize("command", ["fiber", "mean", "test2"])
def test_cli_undecodable_input_exits_2_naming_the_path(tmp_path, capsys, command):
    bad = tmp_path / "latin1.csv"
    if command == "fiber":
        bad.write_bytes(b"subject,group,site,a11,a12,a13,a22,a23,a33\nsubj\xe9,0,0,1,0,0,1,0,1\n")
        argv = ["fiber", str(bad), "--output", str(tmp_path / "sites.csv")]
    else:
        bad.write_bytes(b"x\n0\n2\xe9\n")
        good = write(tmp_path / "good.csv", "x\n0\n2\n")
        inputs = [str(bad)] if command == "mean" else [good, str(bad)]
        argv = [command, *inputs, "--space", "euclidean"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 text" in err


def test_cli_output_in_missing_directory_exits_2_naming_the_path(tmp_path, capsys):
    data = tmp_path / "fiber.csv"
    args = ["--sites", "2", "--group1-size", "5", "--group0-size", "4"]
    assert main(["gen-fiber", *args, "--output", str(data)]) == 0
    points = write(tmp_path / "pts.csv", "x\n0\n2\n")
    descriptor = write(tmp_path / "cons.json", json.dumps({
        "space": {"kind": "euclidean", "dim": 1},
        "distribution": {"kind": "gaussian", "mean": [0.0]},
        "n_grid": [5],
        "reps": 2,
    }))
    out = str(tmp_path / "missing" / "out.csv")
    for argv in (
        ["gen-fiber", *args, "--output", out],
        ["fiber", str(data), "--output", out],
        ["mean", points, "--space", "euclidean", "--output", out],
        ["test2", points, points, "--space", "euclidean", "--output", out],
        ["simulate", descriptor, "--experiment", "consistency", "--output", out],
    ):
        assert main(argv) == 2, argv[0]
        assert out in capsys.readouterr().err, argv[0]


def test_cli_simulate_deterministic_json(tmp_path, capsys):
    desc = write(
        tmp_path / "exp.json",
        json.dumps(
            {
                "space": {"kind": "openbook", "leaves": 3, "spine_dim": 2},
                "distribution": {
                    "kind": "openbook",
                    "leaf_probs": [1 / 3, 1 / 3, 1 / 3],
                    "x0": ["constant", 1.0],
                    "spine_mean": [0.0, 0.0],
                    "spine_sd": 1.0,
                },
                "n": 100,
                "reps": 100,
            }
        ),
    )
    assert main(["simulate", desc, "--experiment", "stickiness", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", desc, "--experiment", "stickiness", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["estimate"] >= 0.99
    assert report["target"] == "spine"


def test_cli_simulate_consistency_table(tmp_path, capsys):
    desc = write(
        tmp_path / "cons.json",
        json.dumps(
            {
                "space": {"kind": "euclidean", "dim": 2},
                "distribution": {"kind": "gaussian", "mean": [0.0, 0.0], "cov": 1.0},
                "n_grid": [20, 80],
                "reps": 30,
            }
        ),
    )
    assert main(["simulate", desc, "--experiment", "consistency", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [row[0] for row in report["table"]] == [20, 80]
    assert report["table"][1][1] < report["table"][0][1]


def test_cli_simulate_type1_on_the_open_book_spine(tmp_path, capsys):
    # pooled means on the spine: every test compares the spine coordinates
    desc = write(
        tmp_path / "type1.json",
        json.dumps(
            {
                "space": {"kind": "openbook", "leaves": 3, "spine_dim": 2},
                "distribution": {"kind": "openbook", "leaf_probs": [0.3, 0.3, 0.3],
                                 "spine_mean": [0.0, 0.0]},
                "n1": 60,
                "n2": 50,
                "reps": 100,
            }
        ),
    )
    assert main(["simulate", desc, "--experiment", "type1", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == 0 and 0.0 <= report["estimate"] <= 0.15
    # D = 2 df at a spine pooled mean, D + 1 = 3 at the few on a leaf
    assert set(report["df"]) == {"2", "3"} and sum(report["df"].values()) == 100
    assert report["df"]["2"] > report["df"]["3"]


@pytest.mark.parametrize(
    "experiment, run",
    [
        pytest.param("coverage", {"n": 0}, id="coverage-n"),
        pytest.param("coverage", {"n": 10, "reps": 0}, id="coverage-reps"),
        pytest.param("type1", {"n1": 10, "n2": 10, "alpha": 1.5}, id="type1-alpha"),
    ],
)
def test_cli_simulate_refuses_bad_run_arguments(experiment, run, tmp_path, capsys):
    desc = write(
        tmp_path / "run.json",
        json.dumps({"space": {"kind": "euclidean", "dim": 2},
                    "distribution": {"kind": "gaussian", "mean": [0.0, 0.0], "cov": 1.0},
                    "reps": 20, **run}),
    )
    assert main(["simulate", desc, "--experiment", experiment]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "InvalidDescriptor" in err


EUCLID_RUN = {"space": {"kind": "euclidean", "dim": 2},
              "distribution": {"kind": "gaussian", "mean": [0.0, 0.0], "cov": 1.0},
              "n": 10, "n1": 10, "n2": 10, "n_grid": [5, 10], "reps": 20}


@pytest.mark.parametrize(
    "experiment, changes, field",
    [
        pytest.param("coverage", {"n": 10.7}, "n", id="n"),
        pytest.param("stickiness", {"n": True}, "n", id="n-bool"),
        pytest.param("coverage", {"reps": 20.5}, "reps", id="reps"),
        pytest.param("type1", {"n1": 10.5}, "n1", id="n1"),
        pytest.param("type1", {"n2": "10"}, "n2", id="n2-string"),
        pytest.param("consistency", {"n_grid": [5, 7.5]}, "n_grid", id="n_grid"),
        pytest.param("coverage", {"space": {"kind": "euclidean", "dim": 2.9}}, "dim", id="dim"),
        pytest.param("coverage", {"space": {"kind": "sphere", "ambient_dim": 3.5}},
                     "ambient_dim", id="ambient_dim"),
        pytest.param("coverage", {"space": {"kind": "spd", "p": 3.01}}, "p", id="p"),
        pytest.param("coverage", {"space": {"kind": "openbook", "leaves": 2.5, "spine_dim": 1}},
                     "leaves", id="leaves"),
        pytest.param("coverage", {"space": {"kind": "openbook", "leaves": 3, "spine_dim": 1e400}},
                     "spine_dim", id="spine_dim-inf"),
    ],
)
def test_cli_simulate_refuses_non_integral_sizes(experiment, changes, field, tmp_path, capsys):
    desc = write(tmp_path / "run.json", json.dumps({**EUCLID_RUN, **changes}))
    assert main(["simulate", desc, "--experiment", experiment]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "InvalidDescriptor" in err and f"{field} must be an integer" in err


@pytest.mark.parametrize(
    "changes, message",
    [
        pytest.param({"space": 5}, "space must be a JSON object, got 5", id="space"),
        pytest.param({"distribution": 7}, "distribution must be a JSON object, got 7", id="distribution"),
        pytest.param({"space": {"kind": "sphere", "ambient_dim": 2, "metric": 5}},
                     "metric must be a string, got 5", id="metric"),
        pytest.param({"space": {"kind": "sphere", "ambient_dim": 1}},
                     "ambient dimension must be >= 2", id="ambient_dim-1"),
    ],
)
def test_cli_simulate_refuses_malformed_descriptors(changes, message, tmp_path, capsys):
    desc = write(tmp_path / "run.json", json.dumps({**EUCLID_RUN, **changes}))
    assert main(["simulate", desc, "--experiment", "coverage"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "InvalidDescriptor" in err and message in err


def test_cli_simulate_accepts_integral_float_sizes(tmp_path, capsys):
    runs = []
    for sizes in ({"n_grid": [5, 10], "reps": 20}, {"n_grid": [5.0, 10.0], "reps": 20.0}):
        desc = write(tmp_path / "run.json", json.dumps({**EUCLID_RUN, **sizes}))
        assert main(["simulate", desc, "--experiment", "consistency", "--seed", "4"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    space = {"space": {"kind": "euclidean", "dim": 2.0}, "n": 10.0}
    desc = write(tmp_path / "run.json", json.dumps({**EUCLID_RUN, **space}))
    assert main(["simulate", desc, "--experiment", "coverage"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 10


def test_cli_test2_chordal_sphere_past_the_pooled_means_hemisphere(tmp_path, capsys):
    # caps of radius 2.8 reach beyond the open hemisphere of the pooled mean
    sampler = Sampler(SphereSpace(3, "extrinsic"), SphereCapDescriptor((0.0, 0.0, 1.0), 2.8), 4)
    x, y = sampler.draw(40, 0), sampler.draw(50, 1)
    pooled = SphereSpace(3, "extrinsic").mean(Sample.join([x, y]))[0]
    assert np.any(np.concatenate([x.data, y.data]) @ pooled.data[0] < 0.0)
    paths = []
    for name, sample in (("x.csv", x), ("y.csv", y)):
        rows = "".join(",".join(map(repr, row)) + "\n" for row in sample.data.tolist())
        paths.append(write(tmp_path / name, "x,y,z\n" + rows))
    assert main(["test2", *paths, "--space", "sphere", "--metric", "extrinsic"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["df"] == 2 and 0.0 <= out["p_value"] <= 1.0


def test_cli_simulate_bad_descriptor(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", '{"space": {"kind": "nowhere"}}')
    assert main(["simulate", bad, "--experiment", "coverage"]) == 2


def test_cli_fiber_near_singular_tensor_exits_2(tmp_path, capsys):
    ds = generate_fiber_dataset(seed=3, n_sites=4, n_group1=5, n_group0=5)
    tensors = ds.tensors.copy()
    tensors[6, 2] = np.diag([1.0, 1.0, 1e-15])  # positive definite, eigenvalue ratio 1e-15
    data = tmp_path / "near.csv"
    with open(data, "w") as fh:
        write_fiber_csv(FiberDataset(ds.subjects, ds.groups, tensors), fh)
    out = tmp_path / "sites.csv"
    assert main(["fiber", str(data), "--output", str(out)]) == 2
    assert "subject 'subj006' site 2" in capsys.readouterr().err
    assert main(["fiber", str(data), "--metric", "euclidean", "--output", str(out)]) == 0


def test_fiber_command_validates_the_tensors_once(tmp_path, monkeypatch):
    import frechetstats.fiber as fiber_module

    data = tmp_path / "fiber.csv"
    assert main(["gen-fiber", "--seed", "2", "--output", str(data)]) == 0
    calls = []
    validate = fiber_module.spd_sample

    def counted(mats, *args):
        calls.append(len(mats))
        return validate(mats, *args)

    monkeypatch.setattr(fiber_module, "spd_sample", counted)
    assert main(["fiber", str(data), "--output", str(tmp_path / "sites.csv")]) == 0
    assert calls == [46 * 75]


def test_fiber_dataset_sends_no_tensor_to_eigvalsh(monkeypatch):
    # the benchmark's dataset shape: every tensor is certified by its minors
    ds = generate_fiber_dataset(seed=1, effect_sites=range(10, 21), effect_size=0.3)
    sent = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sent.append(len(a)) or eigvalsh(a))
    FiberDataset(ds.subjects, ds.groups, ds.tensors)
    assert sent == []


def test_dataset_built_from_arrays_is_validated():
    ds = generate_fiber_dataset(seed=6, n_sites=2, n_group1=3, n_group0=3)
    assert not ds.tensors.flags.writeable
    tensors = ds.tensors.copy()
    tensors[1, 0] = -np.eye(3)
    with pytest.raises(InvalidPoint):
        FiberDataset(ds.subjects, ds.groups, tensors)
    with pytest.raises(InvalidPoint):
        FiberDataset(ds.subjects, ds.groups, ds.tensors[..., :2, :2])


def test_cli_refuses_a_negative_seed(tmp_path, capsys):
    assert main(["gen-fiber", "--seed", "-1", "--output", str(tmp_path / "f.csv")]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    desc = tmp_path / "run.json"
    desc.write_text(json.dumps({"space": {"kind": "euclidean", "dim": 2},
                                "distribution": {"kind": "gaussian", "mean": [0.0, 0.0]},
                                "n": 10, "reps": 5}))
    assert main(["simulate", str(desc), "--experiment", "coverage", "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
