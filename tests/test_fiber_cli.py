import io
import json

import numpy as np
import pytest

from frechetstats.cli import main
from frechetstats.errors import InvalidPoint, NearSingularCovariance
from frechetstats.fiber import (
    FiberDataset,
    FiberParseError,
    fiber_site_tests,
    generate_fiber_dataset,
    parse_fiber_csv,
    write_fiber_csv,
    write_site_csv,
)
from frechetstats.geometry import spd_sample
from frechetstats.inference import two_sample_test
from frechetstats.spaces import SPDSpace

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
        assert r.statistic == pytest.approx(ref.statistic, rel=1e-12, abs=0.0)
        assert r.p_value == pytest.approx(ref.p_value, rel=1e-12, abs=0.0)
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


def test_cli_test2_dimension_mismatch_exits_2(tmp_path, capsys):
    a = write(tmp_path / "a.csv", "x,y\n0,1\n1,0\n2,2\n")
    b = write(tmp_path / "b.csv", "x,y,z\n0,1,2\n1,0,2\n2,2,2\n")
    assert main(["test2", a, b, "--space", "euclidean"]) == 2
    assert "shape (2,), got (3,)" in capsys.readouterr().err


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


def test_dataset_built_from_arrays_is_validated():
    ds = generate_fiber_dataset(seed=6, n_sites=2, n_group1=3, n_group0=3)
    assert not ds.tensors.flags.writeable
    tensors = ds.tensors.copy()
    tensors[1, 0] = -np.eye(3)
    with pytest.raises(InvalidPoint):
        FiberDataset(ds.subjects, ds.groups, tensors)
    with pytest.raises(InvalidPoint):
        FiberDataset(ds.subjects, ds.groups, ds.tensors[..., :2, :2])
