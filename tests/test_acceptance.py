"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Monte Carlo criteria use
fixed seeds; the expected values and bands come from closed-form analysis
where available (see the per-test notes).
"""

import functools
import math
import time

import numpy as np
from scipy import stats as scipy_stats

import frechetstats as fs
from frechetstats.cli import main as cli_main
from frechetstats.spaces.spd import _vech_inv_rows, _vech_rows, spd_logm
from conftest import AffineChartSpace, positive_folded_means, random_openbook_sample


def check(criterion, passed, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


SPD_MEAN_LOG = ((0.4, 0.05, 0.0), (0.05, 0.0, -0.02), (0.0, -0.02, -0.3))


def spd_sampler(seed):
    return fs.Sampler(
        fs.SPDSpace(3, "log_euclidean"),
        fs.SPDLogGaussianDescriptor(mean_log=SPD_MEAN_LOG, scale=0.15),
        seed,
    )


# ---------------------------------------------------------------------------


def test_criterion_1_euclidean_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    space = fs.EuclideanSpace(6)
    worst_mean, worst_cov = 0.0, 0.0
    for _ in range(100):
        rows = rng.normal(size=(50, 6)) @ np.diag(rng.uniform(0.5, 2.0, size=6))
        sample = fs.euclidean_sample(rows)
        fit = fs.sandwich_covariance(space, sample, fs.estimate_mean(space, sample))
        worst_mean = max(worst_mean, float(np.max(np.abs(fit.mean.data - rows.mean(axis=0)))))
        cov = np.cov(rows, rowvar=False, ddof=0)
        rel = np.linalg.norm(fit.asym_cov - cov) / np.linalg.norm(cov)
        worst_cov = max(worst_cov, float(rel))
    elapsed = time.perf_counter() - start
    check(
        1,
        worst_mean <= 1e-12 and worst_cov <= 1e-8 and elapsed < 5.0,
        f"mean err {worst_mean:.2e} (<=1e-12), cov rel err {worst_cov:.2e} (<=1e-8), "
        f"{elapsed:.2f}s (<5s)",
    )


def test_criterion_2_spd_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    space = fs.SPDSpace(3, "log_euclidean")
    worst_mean, worst_cov = 0.0, 0.0
    for _ in range(100):
        logs = _vech_inv_rows(0.4 * rng.normal(size=(40, 6)), 3)
        sample = fs.spd_sample(fs.spd_expm(logs))
        fit = fs.sandwich_covariance(space, sample, fs.estimate_mean(space, sample))
        expected = fs.spd_expm(logs.mean(axis=0))
        worst_mean = max(worst_mean, float(np.linalg.norm(fit.mean.data - expected)))
        cov = np.cov(_vech_rows(spd_logm(sample.data)), rowvar=False, ddof=0)
        worst_cov = max(worst_cov, float(np.linalg.norm(fit.asym_cov - cov) / np.linalg.norm(cov)))
    elapsed = time.perf_counter() - start
    check(
        2,
        worst_mean <= 1e-10 and worst_cov <= 1e-8 and elapsed < 10.0,
        f"mean err {worst_mean:.2e} (<=1e-10), cov rel err {worst_cov:.2e} (<=1e-8), "
        f"{elapsed:.2f}s (<10s)",
    )


def test_criterion_3_clt_coverage():
    start = time.perf_counter()
    euclid = fs.Sampler(
        fs.EuclideanSpace(3),
        fs.GaussianDescriptor(
            mean=(1.0, -2.0, 0.5), cov=((2.0, 0.3, 0.0), (0.3, 1.0, -0.2), (0.0, -0.2, 0.5))
        ),
        seed=0,
    )
    sphere = fs.Sampler(
        fs.SphereSpace(3), fs.SphereCapDescriptor(center=(0.0, 0.0, 1.0), radius=0.5), seed=0
    )
    runs = {
        "euclidean R^3 (n=200)": fs.mc_coverage(euclid, n=200, reps=2000, alpha=0.05),
        "spd(3) log-euclidean (n=200)": fs.mc_coverage(spd_sampler(8), n=200, reps=2000, alpha=0.05),
        "sphere S^2 cap 0.5 (n=400, numeric)": fs.mc_coverage(
            sphere, n=400, reps=2000, alpha=0.05, derivatives="numeric"
        ),
    }
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{name}: {r.estimate:.4f}" for name, r in runs.items())
    ok = all(0.935 <= r.estimate <= 0.965 and r.failures <= 20 for r in runs.values())
    check(3, ok and elapsed < 300.0, f"{detail} (band [0.935, 0.965]), {elapsed:.0f}s (<300s)")


def _boundary_descriptor():
    return fs.OpenBookDescriptor(
        leaf_probs=(0.5, 0.25, 0.25), x0=("exponential", 1.0), spine_mean=(0.0, 0.0), spine_sd=1.0
    )


@functools.lru_cache(maxsize=1)
def _boundary_run():
    space = fs.OpenBookSpace(3, 2)
    sampler = fs.Sampler(space, _boundary_descriptor(), seed=0)
    return fs.mc_stickiness(sampler, n=400, reps=2000)


def test_criterion_4_stickiness_trichotomy():
    start = time.perf_counter()
    space = fs.OpenBookSpace(3, 2)
    all_neg = fs.Sampler(
        space,
        fs.OpenBookDescriptor(
            leaf_probs=(1 / 3, 1 / 3, 1 / 3), x0=("constant", 1.0), spine_mean=(0.0, 0.0)
        ),
        seed=0,
    )
    r_neg = fs.mc_stickiness(all_neg, n=100, reps=500)

    leaf_one = fs.Sampler(
        space,
        fs.OpenBookDescriptor(
            leaf_probs=(0.6, 0.2, 0.2), x0=("constant", 1.0), spine_mean=(0.0, 0.0)
        ),
        seed=0,
    )
    r_leaf = fs.mc_stickiness(leaf_one, n=100, reps=500)
    leaf_frac = r_leaf.details["fractions"].get("leaf_1", 0.0)

    r_half = _boundary_run()
    spine_half = r_half.details["fractions"].get("spine", 0.0)
    elapsed = time.perf_counter() - start
    ok = r_neg.estimate >= 0.99 and leaf_frac >= 0.95 and abs(spine_half - 0.5) <= 0.04
    check(
        4,
        ok and elapsed < 120.0,
        f"all-neg spine {r_neg.estimate:.4f} (>=0.99), m1=0.2 leaf-1 {leaf_frac:.4f} (>=0.95), "
        f"m1=0 spine {spine_half:.4f} (0.5±0.04), {elapsed:.0f}s (<120s)",
    )


def test_criterion_5_boundary_half_normal_law():
    report = _boundary_run()
    n = report.details["n"]
    space = fs.OpenBookSpace(3, 2)
    sigma = math.sqrt(_boundary_descriptor().population_folded_variance(space, 1))
    values = np.array(
        [
            math.sqrt(n) * h
            for h, tag in zip(report.details["mean_x0"], report.outcomes)
            if tag == "leaf_1"
        ]
    )
    ks = scipy_stats.kstest(values, lambda t: 2.0 * scipy_stats.norm.cdf(t / sigma) - 1.0)
    check(
        5,
        ks.pvalue >= 0.01 and len(values) > 500,
        f"KS p {ks.pvalue:.4f} (>=0.01) on {len(values)} leaf-conditioned reps, "
        f"half-normal sigma {sigma:.4f}",
    )


def test_criterion_6_type_one_error():
    space = fs.SPDSpace(3, "log_euclidean")
    report = fs.mc_type1(space, spd_sampler(0), n1=100, n2=100, reps=2000, alpha=0.05)
    ok = 0.035 <= report.estimate <= 0.065 and report.details["df"] == {6: 2000}
    check(
        6,
        ok,
        f"rejection rate {report.estimate:.4f} (band [0.035, 0.065]), "
        f"df {report.details['df']} (every test 6)",
    )


def test_criterion_7_consistency_decay():
    grid = [50, 500, 5000]
    samplers = {
        "euclidean": fs.Sampler(
            fs.EuclideanSpace(3), fs.GaussianDescriptor(mean=(1.0, -2.0, 0.5), cov=1.5), 0
        ),
        "sphere": fs.Sampler(
            fs.SphereSpace(3), fs.SphereCapDescriptor(center=(0.0, 0.0, 1.0), radius=0.5), 0
        ),
        "spd": spd_sampler(0),
        "openbook": fs.Sampler(
            fs.OpenBookSpace(3, 2),
            fs.OpenBookDescriptor(
                leaf_probs=(0.6, 0.2, 0.2), x0=("constant", 1.0), spine_mean=(0.0, 0.0)
            ),
            0,
        ),
    }
    details, ok = [], True
    for name, sampler in samplers.items():
        table = fs.mc_consistency(sampler.space, sampler, grid, reps=200)
        errs = [e for _, e in table]
        ratio = errs[2] / errs[1]
        ok = ok and errs[0] > errs[1] > errs[2] and 0.2 <= ratio <= 0.5
        details.append(f"{name}: medians {errs[0]:.4f}>{errs[1]:.4f}>{errs[2]:.4f}, ratio {ratio:.3f}")
    check(7, ok, "; ".join(details) + " (ratio band [0.2, 0.5])")


def test_criterion_8_deterministic_inference_oracles():
    # chi-square closed forms
    ok_closed = all(
        abs(fs.chi2_sf(x, 2) - math.exp(-x / 2)) <= 1e-10
        and abs(fs.chi2_sf(x, 1) - math.erfc(math.sqrt(x / 2.0))) <= 1e-10
        for x in (0.3, 1.0, 4.0, 11.0)
    )
    ok_quantile = abs(fs.chi2_sf(12.5916, 6) - 0.05) <= 1e-4

    # BH against literal step-up on 1000 random vectors
    rng = np.random.default_rng(8)
    ok_bh = True
    for _ in range(1000):
        m = int(rng.integers(1, 21))
        p = np.round(rng.random(m), 3)
        alpha = float(rng.uniform(0.01, 0.25))
        order = sorted(range(m), key=lambda i: (p[i], i))
        best = 0
        for rank, idx in enumerate(order, start=1):
            if p[idx] <= rank * alpha / m:
                best = rank
        brute = np.zeros(m, dtype=bool)
        brute[order[:best]] = True
        ok_bh = ok_bh and np.array_equal(fs.bh_fdr(p, alpha).rejected, brute)

    # affine chart invariance of the two-sample statistic
    inner = fs.SPDSpace(3, "log_euclidean")
    xs = spd_sampler(1).draw(25, rep=0)
    ys = spd_sampler(1).draw(20, rep=1)
    base = fs.two_sample_test(inner, xs, ys)
    ok_affine = True
    for k in range(5):
        mat = rng.normal(size=(6, 6)) + 4.0 * np.eye(6)
        res = fs.two_sample_test(AffineChartSpace(inner, mat, rng.normal(size=6)), xs, ys)
        ok_affine = ok_affine and abs(res.statistic - base.statistic) <= 1e-8 * base.statistic
    check(
        8,
        ok_closed and ok_quantile and ok_bh and ok_affine,
        f"closed forms {ok_closed}, chi2_6 quantile->0.05 {ok_quantile}, "
        f"bh brute-force 1000/1000 {ok_bh}, affine invariance {ok_affine}",
    )


def test_criterion_9_geometry_kernel():
    rng = np.random.default_rng(9)
    b = _vech_inv_rows(rng.uniform(-3.0, 3.0, size=(200, 6)), 3)
    w = np.linalg.eigvalsh(b)
    b *= (3.0 / np.maximum(3.0, np.abs(w).max(axis=1)))[:, None, None]
    worst_roundtrip = float(np.linalg.norm(fs.spd_logm(fs.spd_expm(b)) - b, axis=(1, 2)).max())

    positives = positive_folded_means(rng, rng.integers(1, 12, size=10_000))
    positive_violations = int(np.sum(positives > 1))

    space = fs.OpenBookSpace(3, 2)
    min_violations = 0
    for _ in range(1000):
        sample = random_openbook_sample(rng, int(rng.integers(2, 12)))
        candidates = fs.Sample.join([space.mean(sample)[0], random_openbook_sample(rng, 100)])
        values = fs.frechet_values(space, sample, candidates)
        min_violations += bool(values[0] > values[1:].min() + 1e-12)

    p, q, r = (random_openbook_sample(rng, 10_000) for _ in range(3))
    via = space.distance_many(p, q) + space.distance_many(q, r)
    triangle_violations = int(np.sum(space.distance_many(p, r) > via + 1e-12))

    check(
        9,
        worst_roundtrip <= 1e-10
        and positive_violations == 0
        and min_violations == 0
        and triangle_violations == 0,
        f"expm/logm roundtrip {worst_roundtrip:.2e} (<=1e-10), "
        f"multi-positive folded means {positive_violations}/10000, "
        f"minimality violations {min_violations}/1000, "
        f"triangle violations {triangle_violations}/10000",
    )


def test_criterion_10_end_to_end_pipeline(tmp_path, capsys):
    effect = set(range(10, 21))
    gen_args = [
        "gen-fiber",
        "--effect-sites", "10-20",
        "--effect-size", "0.3",
        "--seed", "0",
    ]
    data1, data2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    assert cli_main(gen_args + ["--output", str(data1)]) == 0
    assert cli_main(gen_args + ["--output", str(data2)]) == 0
    bytes_equal = data1.read_bytes() == data2.read_bytes()

    details, ok = [f"dataset bytes identical {bytes_equal}"], bytes_equal
    for metric in ("log-euclidean", "euclidean"):
        out1 = tmp_path / f"sites-{metric}-1.csv"
        out2 = tmp_path / f"sites-{metric}-2.csv"
        assert cli_main(["fiber", str(data1), "--metric", metric, "--output", str(out1)]) == 0
        assert cli_main(["fiber", str(data1), "--metric", metric, "--output", str(out2)]) == 0
        capsys.readouterr()
        same = out1.read_bytes() == out2.read_bytes()
        rejected = set()
        for line in out1.read_text().splitlines()[1:]:
            parts = line.split(",")
            if parts[5] == "1":
                rejected.add(int(parts[0]))
        hits = len(rejected & effect)
        false = len(rejected - effect)
        ok = ok and same and hits >= math.ceil(0.8 * len(effect)) and false <= 2
        details.append(f"{metric}: {hits}/{len(effect)} effect sites, {false} null sites, bytes {same}")
    check(10, ok, "; ".join(details) + " (need >=80% effect, <=2 null)")
