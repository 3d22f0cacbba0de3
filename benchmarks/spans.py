"""In-memory span tracing for the benchmark's traced run.

The tracer wraps library functions from the outside: for every listed
public function it replaces each module attribute and class attribute that
binds it with a timing wrapper, and puts the originals back on ``restore``.
Library code is never edited.  A span is ``(id, layer, start, end, parent,
op)``; ``parent`` is the id of the innermost span open when the call began
(-1 at the top) and ``op`` the operation the call belongs to (one fiber
command or one Monte Carlo replication).

Self time of a span is its duration minus the durations of its direct
children.  Calls in one thread nest strictly, so the children never overlap
and their durations sum to the part of the interval they cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

#: public functions wrapped per layer, as (module, attribute) of the
#: defining module; every other module attribute bound to the same object
#: is wrapped too (``from .x import f`` copies the binding)
FUNCTION_LAYERS = {
    "cli.main": [("frechetstats.cli", "main")],
    "fiber.parse_fiber_csv": [("frechetstats.fiber", "parse_fiber_csv")],
    "fiber.fiber_site_tests": [("frechetstats.fiber", "fiber_site_tests")],
    "fiber.write_site_csv": [("frechetstats.fiber", "write_site_csv")],
    "inference.two_sample_test": [("frechetstats.inference", "two_sample_test")],
    "inference.multitest": [
        ("frechetstats.inference", "bh_fdr"),
        ("frechetstats.inference", "bonferroni"),
    ],
    "simulate.mc": [
        ("frechetstats.simulate", "mc_coverage"),
        ("frechetstats.simulate", "mc_stickiness"),
        ("frechetstats.simulate", "mc_type1"),
        ("frechetstats.simulate", "mc_consistency"),
    ],
    "estimator.estimate_mean": [("frechetstats.estimator", "estimate_mean")],
    "estimator.sandwich_covariance": [("frechetstats.estimator", "sandwich_covariance")],
    "estimator.confidence_region_contains": [
        ("frechetstats.estimator", "confidence_region_contains")
    ],
    "geometry.point_ctor": [
        ("frechetstats.geometry", "euclidean_point"),
        ("frechetstats.geometry", "sphere_point"),
        ("frechetstats.geometry", "spd_point"),
        ("frechetstats.geometry", "openbook_point"),
        ("frechetstats.geometry", "_point_unchecked"),
    ],
    "geometry.numeric_diff": [
        ("frechetstats.geometry", "numeric_gradient"),
        ("frechetstats.geometry", "numeric_hessian"),
        ("frechetstats.geometry", "gradient_rows"),
    ],
}

#: methods wrapped per layer, as (module, base class, method names); the
#: names are wrapped on the base and on every subclass that defines them
METHOD_LAYERS = {
    "fiber.site_samples": ("frechetstats.fiber", "FiberDataset", ("site_samples",)),
    "simulate.draw": ("frechetstats.simulate", "Sampler", ("draw",)),
    "spaces.mean": ("frechetstats.geometry", "Space", ("mean",)),
    "spaces.chart_pack": ("frechetstats.geometry", "Chart", ("pack",)),
    "spaces.chart_forward": ("frechetstats.geometry", "Chart", ("forward", "forward_many")),
    "geometry.check_sample": ("frechetstats.geometry", "Space", ("check_sample",)),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "frechetstats" or name.startswith("frechetstats."))]


def _package_classes(base):
    seen = {}
    for mod in _package_modules():
        for value in vars(mod).values():
            if isinstance(value, type) and issubclass(value, base):
                seen[id(value)] = value
    return list(seen.values())


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_function(self, module, name, make_wrapper):
        """Wrap ``module.name`` at every package-module binding; returns the
        number of bindings replaced (0 when the function does not exist)."""
        original = getattr(sys.modules.get(module), name, None)
        if original is None:
            return 0
        wrapper = make_wrapper(original)
        count = 0
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)
                    count += 1
        return count

    def replace_methods(self, module, base_name, names, make_wrapper):
        base = getattr(sys.modules.get(module), base_name, None)
        if base is None:
            return 0
        count = 0
        for cls in _package_classes(base):
            for name in names:
                fn = cls.__dict__.get(name)
                if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
                    self.set(cls, name, make_wrapper(fn))
                    count += 1
        return count

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.raised = set()
        self.counters = defaultdict(float)
        self.next_id = 0
        self.op = 0
        #: layers for which ``install`` found nothing to wrap
        self.missing = []
        self._patches = Patches()

    def wrap(self, layer, fn, on_result=None):
        spans, stack, raised = self.spans, self.stack, self.raised
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised.add(sid)
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, layer, start, end, parent, tracer.op))
            if on_result is not None:
                on_result(tracer.counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every listed function and method; returns the layers for
        which nothing could be wrapped."""
        missing = []
        for layer, targets in FUNCTION_LAYERS.items():
            hook = COUNTER_HOOKS.get(layer)
            n = sum(
                self._patches.replace_function(mod, name, lambda fn, l=layer, h=hook: self.wrap(l, fn, h))
                for mod, name in targets
            )
            if n == 0:
                missing.append(layer)
        for layer, (mod, base, names) in METHOD_LAYERS.items():
            hook = COUNTER_HOOKS.get(layer)
            n = self._patches.replace_methods(
                mod, base, names, lambda fn, l=layer, h=hook: self.wrap(l, fn, h)
            )
            if n == 0:
                missing.append(layer)
        self.missing = missing
        return missing

    def restore(self):
        self._patches.restore()

    def arrays(self):
        """Spans as id-ordered arrays (layer names as a string array)."""
        rows = sorted(self.spans)
        ids = np.array([r[0] for r in rows], dtype=np.int64)
        if ids.size and not np.array_equal(ids, np.arange(ids.size)):
            raise RuntimeError("span ids are not contiguous")
        return {
            "layer": np.array([r[1] for r in rows], dtype=str),
            "start": np.array([r[2] for r in rows], dtype=float),
            "end": np.array([r[3] for r in rows], dtype=float),
            "parent": np.array([r[4] for r in rows], dtype=np.int64),
            "op": np.array([r[5] for r in rows], dtype=np.int64),
            "raised": np.isin(ids, sorted(self.raised)),
        }

    def save(self, path):
        np.savez_compressed(path, **self.arrays())


def _count_draw(counters, args, kwargs, result):
    counters["simulate.draw.points"] += len(result)


def _count_rows(counters, args, kwargs, result):
    counters["fiber.parse_fiber_csv.rows"] += result.tensors.shape[0] * result.tensors.shape[1]


def _count_iterations(counters, args, kwargs, result):
    if result.strategy in ("karcher", "newton"):
        counters["estimator.iterative_fits"] += 1
        counters["estimator.iterations"] += result.iterations


COUNTER_HOOKS = {
    "simulate.draw": _count_draw,
    "fiber.parse_fiber_csv": _count_rows,
    "estimator.estimate_mean": _count_iterations,
}


def self_times(start, end, parent):
    """Per-span self time: duration minus the direct children's durations."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def rep_failures(arrays):
    """Replications the library dropped: fits or tests that raised directly
    inside a Monte Carlo experiment call."""
    parent = arrays["parent"]
    under_mc = np.zeros(parent.size, dtype=bool)
    top = parent >= 0
    under_mc[top] = arrays["layer"][parent[top]] == "simulate.mc"
    fits = np.isin(
        arrays["layer"],
        ["estimator.estimate_mean", "estimator.sandwich_covariance", "inference.two_sample_test"],
    )
    return int(np.sum(under_mc & fits & arrays["raised"]))


def layer_summary(arrays):
    """{layer: (calls, self_s)} from the arrays of ``Tracer.arrays``."""
    selfs = self_times(arrays["start"], arrays["end"], arrays["parent"])
    out = {}
    for layer in np.unique(arrays["layer"]):
        mask = arrays["layer"] == layer
        out[str(layer)] = (int(mask.sum()), float(selfs[mask].sum()))
    return out


def stream_key(seed, rep):
    """Canonical (seed, key tuple) of a replication's Philox stream."""
    rep = rep if isinstance(rep, tuple) else (rep,)
    return (int(seed), tuple(int(k) for k in rep))


class StreamLog:
    """Records the Philox stream of every ``Sampler.rng`` call, so a run can
    check that no two replications share a stream.  ``on_stream`` sees each
    key as it is drawn (the traced run uses it to number operations)."""

    def __init__(self, on_stream=None):
        self.keys = []
        self.on_stream = on_stream
        self._patches = Patches()

    def install(self):
        return self._patches.replace_methods("frechetstats.simulate", "Sampler", ("rng",), self._wrap)

    def _wrap(self, fn):
        log = self

        @functools.wraps(fn)
        def rng(sampler, *args, **kwargs):
            rep = args[0] if args else kwargs.get("rep", 0)
            key = stream_key(sampler.seed, rep)
            log.keys.append(key)
            if log.on_stream is not None:
                log.on_stream(key)
            return fn(sampler, *args, **kwargs)

        return rng

    def restore(self):
        self._patches.restore()

    def duplicates(self):
        """Number of stream draws that reuse an earlier stream."""
        return len(self.keys) - len(set(self.keys))
