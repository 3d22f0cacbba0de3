"""The rules that compute each metric.

``BENCHMARK.json`` at the repository root is the one list of metric names,
units, directions and bounds; this module only computes values for them.
End-to-end metrics come from the timed run, per-layer metrics (named
``<workload>.<layer>.<statistic>``) from the traced run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from spans import FUNCTION_LAYERS, METHOD_LAYERS, layer_summary, rep_failures

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: reported with every timed run but not gated: percentiles of command
#: latency follow the host's load more than the program
REPORTED = {
    "command_s_p50": ("s", "median latency of one command: a fiber CLI invocation, "
                           "or one Monte Carlo experiment call"),
    "command_s_tail": ("s", "command latency at the highest percentile with 10 "
                            "samples beyond it"),
    "busy_items_per_s": ("1/s", "work items per second over the whole run"),
    "failed_frac": ("fraction", "failed operations / attempted operations"),
}

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def layer_names(workload):
    """The workload's per-layer metrics, without the workload prefix."""
    prefix = workload + "."
    return [m["name"][len(prefix):] for m in SPEC["per_layer"] if m["name"].startswith(prefix)]


def nearest_rank(values, pct):
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    v = sorted(values)
    return v[max(1, math.ceil(pct / 100.0 * len(v))) - 1]


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile, samples beyond) at the highest percentile that
    leaves ``beyond`` samples above it.  With too few samples for that
    percentile to reach the median, the maximum (nothing beyond it)."""
    v = sorted(values)
    n = len(v)
    rank = n - beyond
    if rank < math.ceil(n / 2):
        return v[-1], 100.0, 0
    return v[rank - 1], 100.0 * rank / n, beyond


def reference_rate(calls):
    """Items per second at the probe's reference speed (see ``probe``) of
    one cycle with every call at its median: sum over call labels of the
    mean items per call, over the sum of the median scaled latencies."""
    labels = {}
    for c in calls:
        labels.setdefault(c.label, []).append(c)
    items = sum(float(np.mean([c.items for c in mine])) for mine in labels.values())
    seconds = sum(float(np.median([c.scaled for c in mine])) for mine in labels.values())
    return items / seconds if seconds > 0 else 0.0


def end_to_end(calls, setups, peak_rss_mb):
    """({metric: value} for every end-to-end metric of BENCHMARK.json,
    {reported metric: value}, {name: note}).  ``setups`` holds (seconds,
    seconds at the reference speed) of each set-up; set-up time is the
    median of the second."""
    latencies = [c.seconds for c in calls]
    busy = sum(latencies)
    items = sum(c.items for c in calls)
    ops = sum(c.ops for c in calls)
    tail_value, pct, beyond = tail(latencies)
    values = {
        "setup_s": float(np.median([scaled for _, scaled in setups])),
        "peak_rss_mb": peak_rss_mb,
        "items_per_s": reference_rate(calls),
    }
    gated = {m["name"]: values[m["name"]] for m in SPEC["end_to_end"]}
    reported = {
        "command_s_p50": nearest_rank(latencies, 50.0),
        "command_s_tail": tail_value,
        "busy_items_per_s": items / busy if busy > 0 else 0.0,
        "failed_frac": sum(c.failed for c in calls) / ops if ops else 1.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} at the reference speed; as measured: "
                   + ", ".join(f"{raw:.4f}" for raw, _ in setups),
        "peak_rss_mb": "peak resident set size of the run's process",
        "items_per_s": f"at the reference speed, median repeat of each of "
                       f"{len({c.label for c in calls})} calls",
        "command_s_p50": f"p50 of n={len(latencies)}",
        "command_s_tail": f"p{pct:.1f} of n={len(latencies)}, {beyond} beyond",
        "busy_items_per_s": f"{items} items in {busy:.3f} busy s, as measured",
        "failed_frac": f"of {ops} operations",
    }
    return gated, reported, notes


def overhead(untraced, traced):
    """Cost of tracing as a fraction of the untraced time: each call at its
    fastest repeat, traced against untraced.  ``untraced`` and ``traced``
    are lists of passes, each a list of call latencies in cycle order."""
    fastest_u = np.min(np.asarray(untraced, dtype=float), axis=0).sum()
    fastest_t = np.min(np.asarray(traced, dtype=float), axis=0).sum()
    return float(fastest_t / fastest_u - 1.0) if fastest_u > 0 else 0.0


def per_layer(workload, arrays, counters, calls, overhead_frac):
    """The workload's per-layer metrics from one traced pass."""
    summary = layer_summary(arrays)
    wrapped = set(FUNCTION_LAYERS) | set(METHOD_LAYERS)

    def calls_of(layer):
        return summary.get(layer, (0, 0.0))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    site_tests = sum(c.detail.get("sites", 0) for c in calls)
    derived = {
        "fiber.parse_fiber_csv.rows": counters.get("fiber.parse_fiber_csv.rows", 0.0),
        "fiber.site_samples.per_site": ratio(calls_of("fiber.site_samples"), site_tests),
        "simulate.draw.points": counters.get("simulate.draw.points", 0.0),
        "simulate.rep_failures": rep_failures(arrays) if arrays["layer"].size else 0,
        "estimator.iterations_mean": ratio(counters.get("estimator.iterations", 0.0),
                                           counters.get("estimator.iterative_fits", 0.0)),
        "spaces.chart_pack.per_fit": ratio(calls_of("spaces.chart_pack"),
                                           calls_of("estimator.estimate_mean")),
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name in layer_names(workload):
        layer, stat = name.rsplit(".", 1)
        if name in derived:
            value = derived[name]
        elif layer in wrapped and stat in ("calls", "self_s"):
            value = calls_of(layer) if stat == "calls" else summary.get(layer, (0, 0.0))[1]
        else:
            raise KeyError(f"no rule computes the per-layer metric {workload}.{name}")
        out[f"{workload}.{name}"] = float(value)
    return out
