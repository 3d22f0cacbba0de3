"""Command-line front end.

Subcommands: ``mean`` (Frechet mean + sandwich covariance of a point file),
``test2`` (two-sample chart test), ``fiber`` (per-site two-sample sweep over
a tensor dataset with BH/Bonferroni), ``simulate`` (Monte Carlo experiment
from a JSON descriptor), ``gen-fiber`` (synthetic tensor dataset).

Exit codes: 0 success, 2 input error, 3 convergence failure, 4 partial
numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial

import numpy as np

from .errors import (
    FrechetStatsError,
    InvalidDescriptor,
    InvalidPoint,
    NearSingularCovariance,
    NearSingularHessian,
    NoConvergence,
    NotPositiveDefinite,
)
from .errors import choice, count, level
from .estimator import estimate_mean, sandwich_covariance
from .fiber import (
    FiberParseError,
    fiber_site_tests,
    generate_fiber_dataset,
    parse_fiber_csv,
    raise_refused,
    read_columns,
    read_table,
    write_fiber_csv,
    write_site_csv,
)
from .geometry import UPPER_COLUMNS, _Refusals, euclidean_sample, matrix_to_upper, openbook_sample
from .geometry import spd_sample, sphere_sample, upper_to_matrix
from .inference import two_sample_test
from .simulate import (
    GaussianDescriptor,
    OpenBookDescriptor,
    Sampler,
    SPDLogGaussianDescriptor,
    SphereCapDescriptor,
    SphereTwoPointDescriptor,
    mc_consistency,
    mc_coverage,
    mc_stickiness,
    mc_type1,
)
from .spaces import EuclideanSpace, OpenBookSpace, SPDSpace, SphereSpace

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOCONVERGENCE = 3
EXIT_PARTIAL = 4


SPACE_KINDS = ("euclidean", "sphere", "spd", "openbook")


class CLIInputError(ValueError):
    pass


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _normalize_metric(metric):
    if metric is not None and not isinstance(metric, str):  # from a JSON descriptor
        raise InvalidDescriptor(f"metric must be a string, got {metric!r}")
    return metric.replace("-", "_") if metric else None


def _read_input(path, read):
    """``read(fh)`` of the text file at ``path``, opened as UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return read(fh)
        except UnicodeDecodeError as exc:
            raise CLIInputError(f"{path}: not UTF-8 text ({exc})") from None


def _header_problem(space_kind, columns):
    """The problem of a point file's header line for ``space_kind``, or None."""
    if space_kind == "sphere" and len(columns) < 2:
        return "too few coordinate columns"
    if space_kind == "spd" and columns != UPPER_COLUMNS:
        return f"expected header {','.join(UPPER_COLUMNS)!r}"
    if space_kind == "openbook" and (len(columns) < 2 or columns[0] != "leaf"):
        return "expected header 'leaf,x0[,x1,...]'"
    return None


def load_points(path, space_kind, metric=None):
    """Read a point file (mandatory header line) into (space, Sample).

    The rows are read as float columns and validated as one batch; a
    CLIInputError names the file's first bad line, or an unknown space."""
    choice(space_kind, SPACE_KINDS, "space", CLIInputError)

    def error(message):
        return CLIInputError(f"{path}: {message}")

    columns, body, numbers = _read_input(
        path, lambda fh: read_table(fh, error, partial(_header_problem, space_kind)))
    metric = _normalize_metric(metric)
    refusals = _Refusals()
    values = np.column_stack(read_columns(body, (float,) * len(columns), refusals))
    try:
        if space_kind == "euclidean":
            space, sample = EuclideanSpace(len(columns)), euclidean_sample(values)
        elif space_kind == "sphere":
            space, sample = SphereSpace(len(columns), metric or "intrinsic"), sphere_sample(values)
        elif space_kind == "spd":
            space = SPDSpace(3, metric or "log_euclidean")
            sample = spd_sample(upper_to_matrix(values))
        else:
            sample = openbook_sample(values[:, 0], values[:, 1:])
            space = OpenBookSpace(max(2, int(sample.leaves.max())), len(columns) - 2)
    except InvalidPoint as exc:
        refusals.check(exc.refused, str(exc))
    except InvalidDescriptor as exc:  # a metric the space does not have
        raise CLIInputError(str(exc)) from None
    raise_refused(refusals, numbers, error)
    return space, space.check_sample(sample)


def _point_json(point):
    """The JSON payload of a one-row Sample."""
    if point.kind == "spd":
        return matrix_to_upper(point.data[0])
    if point.kind == "openbook":
        return {"leaf": int(point.leaves[0]), "coords": list(point.data[0])}
    return list(point.data[0])


def _emit_json(payload, output):
    # numpy arrays and scalars are the payloads' only non-JSON values
    text = json.dumps(payload, indent=2, default=lambda o: o.tolist()) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_mean(args):
    space, sample = load_points(args.input, args.space, args.metric)
    try:
        fit = estimate_mean(space, sample)
    except NoConvergence as exc:
        return _fail(f"mean estimation did not converge: {exc}", EXIT_NOCONVERGENCE)
    except FrechetStatsError as exc:
        # degenerate geometry (cut locus, non-unique projection, ...)
        return _fail(f"mean estimation failed: {exc}", EXIT_NOCONVERGENCE)
    code = EXIT_OK
    payload = {
        "space": args.space,
        "metric": getattr(space, "metric", None),
        "n": fit.n,
        "strategy": fit.strategy,
        "iterations": fit.iterations,
        "grad_norm": fit.grad_norm,
        "mean": _point_json(fit.mean),
        "chart_coords": fit.chart_coords,
    }
    try:
        fit = sandwich_covariance(space, sample, fit)
        payload["asym_cov_over_n"] = fit.asym_cov / fit.n
        payload["lambda_cond"] = fit.lambda_cond
        payload["lambda_pd"] = fit.lambda_pd
    except NearSingularHessian as exc:
        payload["asym_cov_over_n"] = None
        payload["covariance_error"] = str(exc)
        code = EXIT_PARTIAL
    _emit_json(payload, args.output)
    return code


def cmd_test2(args):
    level(args.alpha, "alpha", CLIInputError)
    space, sample_x = load_points(args.input_x, args.space, args.metric)
    _, sample_y = load_points(args.input_y, args.space, args.metric)
    try:
        res = two_sample_test(space, sample_x, sample_y)
    except NearSingularCovariance as exc:
        return _fail(str(exc), EXIT_PARTIAL)
    except (InvalidPoint, ValueError) as exc:  # e.g. files of different dimensions
        return _fail(str(exc), EXIT_INPUT)
    except FrechetStatsError as exc:
        return _fail(str(exc), EXIT_NOCONVERGENCE)
    _emit_json(
        {
            "space": args.space,
            "metric": getattr(space, "metric", None),
            "statistic": res.statistic,
            "df": res.df,
            "p_value": res.p_value,
            "n1": res.n1,
            "n2": res.n2,
            "rejected_at_alpha": bool(res.p_value <= args.alpha),
            "alpha": args.alpha,
        },
        args.output,
    )
    return EXIT_OK


def cmd_fiber(args):
    dataset = _read_input(args.input, parse_fiber_csv)
    metric = _normalize_metric(args.metric) or "log_euclidean"
    try:
        results, summary = fiber_site_tests(dataset, metric=metric, alpha=args.alpha)
    except (ValueError, NotPositiveDefinite) as exc:  # too few subjects, a near-singular tensor
        return _fail(str(exc), EXIT_INPUT)
    with open(args.output, "w") as fh:
        write_site_csv(results, fh)
    _emit_json(summary, None)
    return EXIT_PARTIAL if summary["failed_sites"] else EXIT_OK


def _integer(field, value):
    """A descriptor size: a JSON integer or an integral float such as 10.0, as a count."""
    if type(value) is float and value.is_integer():  # not nan or inf
        value = int(value)
    return count(value, field, 0, InvalidDescriptor)


def _space_from_config(cfg):
    if not isinstance(cfg, dict):
        raise InvalidDescriptor(f"space must be a JSON object, got {cfg!r}")
    kind = cfg.get("kind")
    if kind == "euclidean":
        return EuclideanSpace(_integer("dim", cfg["dim"]))
    if kind == "sphere":
        return SphereSpace(_integer("ambient_dim", cfg["ambient_dim"]), _normalize_metric(cfg.get("metric")) or "intrinsic")
    if kind == "spd":
        return SPDSpace(_integer("p", cfg["p"]), _normalize_metric(cfg.get("metric")) or "log_euclidean")
    if kind == "openbook":
        return OpenBookSpace(_integer("leaves", cfg["leaves"]), _integer("spine_dim", cfg["spine_dim"]))
    raise InvalidDescriptor(f"unknown space kind {kind!r}")


def _descriptor_from_config(cfg):
    if not isinstance(cfg, dict):
        raise InvalidDescriptor(f"distribution must be a JSON object, got {cfg!r}")
    kind = cfg.get("kind")
    if kind == "gaussian":
        return GaussianDescriptor(mean=tuple(cfg["mean"]), cov=cfg.get("cov", 1.0))
    if kind == "cap_uniform":
        return SphereCapDescriptor(center=tuple(cfg["center"]), radius=float(cfg["radius"]))
    if kind == "two_point":
        return SphereTwoPointDescriptor(a=tuple(cfg["a"]), b=tuple(cfg["b"]))
    if kind == "log_gaussian":
        return SPDLogGaussianDescriptor(
            mean_log=tuple(tuple(row) for row in cfg["mean_log"]),
            scale=float(cfg["scale"]),
        )
    if kind == "openbook":
        return OpenBookDescriptor(
            leaf_probs=tuple(cfg["leaf_probs"]),
            x0=cfg.get("x0", ("exponential", 1.0)),
            spine_mean=tuple(cfg.get("spine_mean", ())),
            spine_sd=float(cfg.get("spine_sd", 1.0)),
        )
    raise InvalidDescriptor(f"unknown distribution kind {kind!r}")


def cmd_simulate(args):
    try:
        cfg = _read_input(args.descriptor, json.load)
        space = _space_from_config(cfg["space"])
        descriptor = _descriptor_from_config(cfg["distribution"])
        sampler = Sampler(space=space, descriptor=descriptor, seed=args.seed)
        reps = _integer("reps", cfg.get("reps", 200))
        if args.experiment == "coverage":
            report = mc_coverage(
                sampler,
                n=_integer("n", cfg["n"]),
                reps=reps,
                alpha=float(cfg.get("alpha", args.alpha)),
                derivatives=cfg.get("derivatives", "auto"),
            )
        elif args.experiment == "stickiness":
            report = mc_stickiness(sampler, n=_integer("n", cfg["n"]), reps=reps)
        elif args.experiment == "type1":
            report = mc_type1(
                space,
                sampler,
                n1=_integer("n1", cfg["n1"]),
                n2=_integer("n2", cfg["n2"]),
                reps=reps,
                alpha=float(cfg.get("alpha", args.alpha)),
            )
        else:
            table = mc_consistency(space, sampler, [_integer("n_grid", v) for v in cfg["n_grid"]], reps)
            _emit_json(
                {
                    "experiment": "consistency",
                    "reps": reps,
                    "seed": args.seed,
                    "table": [[n, err] for n, err in table],
                },
                args.output,
            )
            return EXIT_OK
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, InvalidDescriptor) as exc:
        return _fail(f"descriptor error: {exc!r}", EXIT_INPUT)
    except FrechetStatsError as exc:
        # too many failed replications, or numeric degeneracy mid-experiment
        return _fail(str(exc), EXIT_PARTIAL)
    payload = {
        "experiment": report.experiment,
        "reps": report.reps,
        "seed": args.seed,
        "estimate": report.estimate,
        "std_error": report.std_error,
        "failures": report.failures,
    }
    for key in ("fractions", "target", "alpha", "n", "n1", "n2", "df"):
        if key in report.details:
            payload[key] = report.details[key]
    _emit_json(payload, args.output)
    return EXIT_OK


def _parse_site_ranges(text):
    sites = set()
    if not text:
        return sites
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "-" in chunk:
            lo, hi = map(int, chunk.split("-", 1))
            if lo > hi:
                raise ValueError(f"effect site range {chunk!r} is reversed")
            sites.update(range(lo, hi + 1))
        elif chunk:
            sites.add(int(chunk))
    return sites


def cmd_gen_fiber(args):
    try:
        effect_sites = _parse_site_ranges(args.effect_sites)
        dataset = generate_fiber_dataset(
            n_group1=args.group1_size,
            n_group0=args.group0_size,
            n_sites=args.sites,
            effect_sites=effect_sites,
            effect_size=args.effect_size,
            noise_scale=args.noise_scale,
            seed=args.seed,
        )
    except (ValueError, InvalidDescriptor) as exc:  # e.g. a negative seed
        return _fail(str(exc), EXIT_INPUT)
    with open(args.output, "w") as fh:
        write_fiber_csv(dataset, fh)
    return EXIT_OK


@cache  # one parser per process: parse_args leaves it as it was
def build_parser():
    parser = argparse.ArgumentParser(
        prog="frechetstats",
        description="Frechet means and nonparametric inference on non-Euclidean spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mean", help="Frechet mean and sandwich covariance of a point file")
    p.add_argument("input")
    p.add_argument("--space", required=True, choices=SPACE_KINDS)
    p.add_argument("--metric", help="sphere: intrinsic|extrinsic; spd: euclidean|log-euclidean")
    p.add_argument("--output")
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("test2", help="two-sample chart test between two point files")
    p.add_argument("input_x")
    p.add_argument("input_y")
    p.add_argument("--space", required=True, choices=SPACE_KINDS)
    p.add_argument("--metric")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--output")
    p.set_defaults(func=cmd_test2)

    p = sub.add_parser("fiber", help="per-site two-sample sweep with BH/Bonferroni")
    p.add_argument("input")
    p.add_argument("--metric", default="log-euclidean", choices=["euclidean", "log-euclidean"])
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--output", required=True, help="per-site CSV path")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("simulate", help="Monte Carlo experiment from a JSON descriptor")
    p.add_argument("descriptor")
    p.add_argument(
        "--experiment",
        required=True,
        choices=["coverage", "stickiness", "type1", "consistency"],
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-fiber", help="generate a synthetic fiber-tract tensor dataset")
    p.add_argument("--group1-size", type=int, default=28)
    p.add_argument("--group0-size", type=int, default=18)
    p.add_argument("--sites", type=int, default=75)
    p.add_argument("--effect-sites", default="", help="e.g. '10-20' or '3,7,12-15'")
    p.add_argument("--effect-size", type=float, default=0.3)
    p.add_argument("--noise-scale", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen_fiber)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CLIInputError, FiberParseError, OSError) as exc:  # OSError names its path
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
