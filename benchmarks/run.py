"""frechetstats benchmark: three closed-loop workloads, a timed run for the
end-to-end metrics and a separate traced run for the per-layer breakdown.

Run from the repository root:

    python3 benchmarks/run.py --workload fiber_study --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload mc_small_n --seed 1 --seconds 30 --trace 1
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

``--trace 0`` times the workload for ``--seconds`` (whole cycles, at least
the workload's minimum) and reports the end-to-end metrics.  ``--trace 1``
runs every workload's fixed traced pass, each in its own process, and
reports every per-layer metric.  ``--workload all`` runs each workload's
timed run in its own process, then the traced run, and prints every metric
and check verdict; a workload that errors is reported as failed and the
others still run.

Time metrics are given at the host-speed probe's reference speed (see
``probe.py``): a timer samples a fixed kernel during every timed call and
every set-up, and each is scaled by how slow the core was meanwhile.  On a
shared 2-core host this took the run-to-run spread (IQR/median of ten runs)
of ``items_per_s`` from 18% to 8% on ``fiber_study`` and from 27% to 2% on
``mc_small_n``.

``BENCHMARK.json`` gates ``fiber_study`` and ``mc_small_n``.
``mc_large_n`` runs here and in the traced run but is not gated: a third
gated workload would not fit the time the checker allows for all runs,
and its throughput (n=5000 samples, cache-heavy kernels) moved by 17-30%
IQR/median between unscaled runs of the same code.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, with the
machine they ran on, also go to ``.bench_out/``.
"""

import os

# one BLAS/OpenMP thread: must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import atexit  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402,F401  (its import is not part of set-up time)

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from probe import Probe  # noqa: E402

#: set-up time runs from here, sampled by the host-speed probe
T0 = time.perf_counter()
SETUP_PROBE = Probe()
SETUP_PROBE.start()
atexit.register(SETUP_PROBE.stop)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: set-ups per timed run: the run's own and the rest each in a fresh
#: process, spread over the timed loop; set-up time is their median
SETUPS = 5
#: whole cycles per traced pass
TRACE_CYCLES = {"fiber_study": 2, "mc_small_n": 1, "mc_large_n": 1}
CHILD_TIMEOUT_S = 170


def _import_library():
    if not (SRC / "frechetstats" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'frechetstats'} not found; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import frechetstats

    if Path(frechetstats.__file__).resolve().parent != (SRC / "frechetstats").resolve():
        sys.exit(f"error: imported frechetstats from {frechetstats.__file__}, not {SRC}")


def environment():
    """Machine and library versions recorded with every result."""
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _workdir(tag):
    path = OUT / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _child(args, role, workload, timeout=CHILD_TIMEOUT_S):
    """Run this script in a fresh process; returns (last JSON line or None,
    the other output lines)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, [f"{workload} {role}: timed out after {timeout} s"]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()[-3:]
        return None, lines + [f"{workload} {role}: exit code {proc.returncode}"] + err
    try:
        return json.loads(lines[-1]), lines[:-1]
    except json.JSONDecodeError:
        return None, lines + [f"{workload} {role}: no result line"]


def _emit(result, lines, name, record=None):
    """Print the human-readable lines, save the result with the machine it
    ran on (and ``record``), print the JSON line."""
    env = environment()
    for line in lines:
        print(line)
    print("environment " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}.json", "w") as fh:
        json.dump({**result, "environment": env, **(record or {})}, fh, indent=2)
    print(json.dumps(result))


# ---------------------------------------------------------------------------


def _setup_done():
    """(seconds, seconds at the probe's reference speed) since T0."""
    elapsed = time.perf_counter() - T0
    SETUP_PROBE.stop()
    return SETUP_PROBE.own_seconds(elapsed), SETUP_PROBE.scaled(elapsed)


def run_setup(args):
    """Set up once in this fresh process and report the time it took."""
    import workloads

    work = _workdir(f"setup-{args.workload}")
    try:
        workloads.WORKLOADS[args.workload](args.seed, str(work)).setup()
        print(json.dumps({"setup_s": _setup_done()}))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_timed(args):
    import metrics
    import workloads
    from spans import StreamLog

    work = _workdir(args.workload)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(work))
        wl.setup()
        setups = [_setup_done()]

        def setup_child():
            child, out = _child(args, "setup", args.workload)
            if child is None:
                sys.exit("error: set-up process failed: " + " | ".join(out))
            setups.append(tuple(child["setup_s"]))

        wl.prepare()

        checks = workloads.Checks()
        streams = StreamLog()
        streams.install()
        probe = Probe()
        calls, cycle, busy = [], 0, 0.0
        while cycle < wl.min_cycles or busy < args.seconds:
            start = time.perf_counter()
            for call in wl.cycle(cycle, checks, probe=probe):
                call.cycle = cycle
                calls.append(call)
            busy += time.perf_counter() - start
            cycle += 1
            if len(setups) < SETUPS and busy >= len(setups) * args.seconds / SETUPS:
                setup_child()
        streams.restore()
        while len(setups) < SETUPS:
            setup_child()
        wl.finish(calls, checks)
        if args.workload != "fiber_study":
            dup = streams.duplicates()
            checks.record("mc.streams_unique", bool(streams.keys) and dup == 0,
                          f"{dup} of {len(streams.keys)} streams reused")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gated, reported, notes = metrics.end_to_end(calls, setups, peak)
    attempted = sum(c.ops for c in calls)
    failed = sum(c.failed for c in calls)
    lines = [f"workload {args.workload} seed {args.seed}: {cycle} cycles, "
             f"{len(calls)} commands, {busy:.1f} busy s"]
    lines += list(checks.lines())
    units = {**metrics.UNITS, **{k: v[0] for k, v in metrics.REPORTED.items()}}
    for name, value in {**gated, **reported}.items():
        lines.append(f"metric {name} = {value:.6g} {units[name]}  ({notes.get(name, '')})")
    alias = "sites_per_s" if args.workload == "fiber_study" else "reps_per_s"
    lines.append(f"metric {alias} = {gated['items_per_s']:.6g} 1/s  (items_per_s)")
    result = {
        "correct": checks.all_passed and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in gated.items()},
    }
    record = {"seed": args.seed, "checks": list(checks.lines()),
              "reported": {k: {"value": v, "unit": units[k], "note": notes.get(k, "")}
                           for k, v in reported.items()},
              "setups": setups,
              "calls": [[c.cycle, c.label, c.seconds, c.scaled, c.items] for c in calls]}
    _emit(result, lines, f"result-{args.workload}", record)


class _OpNumbering:
    """Numbers the traced run's operations: one per fiber command, one per
    Monte Carlo replication (new replication key on ``Sampler.rng``)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.rep_of = None
        self.last = None

    def on_call(self, rep_of):
        self.rep_of, self.last = rep_of, None
        if rep_of is None:
            self.tracer.op += 1

    def on_stream(self, key):
        if self.rep_of is None:
            return
        seed, rep = key
        current = (seed, self.rep_of(rep))
        if current != self.last:
            self.tracer.op += 1
            self.last = current


def run_trace_one(args):
    """The fixed traced pass of one workload.  The same seeds run five
    times: an untraced warm-up, then untraced, traced, traced, untraced.
    The spans of the first traced pass give the per-layer metrics.  The
    other three passes run under the host-speed probe (which would add its
    own time to the spans) and give the cost of tracing at the reference
    speed.  Every pass must repeat the warm-up's outcomes exactly."""
    import metrics
    import workloads
    from spans import StreamLog, Tracer

    work = _workdir(f"trace-{args.workload}")
    checks = workloads.Checks()
    cycles = TRACE_CYCLES[args.workload]
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(work))
        wl.setup()
        wl.prepare()

        def one_pass(tracer=None, probe=None):
            """(calls, stream log, tracer) of one pass; traced when a tracer
            is given, sampled when a probe is."""
            numbering = _OpNumbering(tracer) if tracer is not None else None
            log = StreamLog(on_stream=numbering and numbering.on_stream)
            log.install()
            if tracer is not None:
                tracer.install()
            try:
                calls = []
                for cycle in range(cycles):
                    calls += wl.cycle(cycle, checks, numbering and numbering.on_call, probe)
            finally:
                if tracer is not None:
                    tracer.restore()
                log.restore()
            return calls, log, tracer

        probe = Probe()
        passes = [one_pass(), one_pass(probe=probe), one_pass(Tracer()),
                  one_pass(Tracer(), probe), one_pass(probe=probe)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain, plain_log, _ = passes[0]
    traced, traced_log, tracer = passes[2]
    for i, (calls, _, _) in enumerate(passes[1:], start=2):
        same = [a.outcome == b.outcome and a.outcome is not None for a, b in zip(plain, calls)]
        checks.record("trace.repeat_identical", len(plain) == len(calls) and all(same),
                      f"pass {i}: {len(same) - sum(same)} of {len(same)} calls differ")
    if args.workload != "fiber_study":
        dup = plain_log.duplicates()
        checks.record("mc.streams_unique", bool(plain_log.keys) and dup == 0,
                      f"{dup} of {len(plain_log.keys)} streams reused")
        checks.record("trace.streams_repeat", plain_log.keys == traced_log.keys,
                      "the traced pass drew other streams")
    latencies = [[c.seconds for c in calls] for calls, _, _ in passes]
    scaled = [[c.scaled for c in passes[i][0]] for i in (1, 3, 4)]
    overhead_frac = metrics.overhead([scaled[0], scaled[2]], [scaled[1]])
    arrays = tracer.arrays()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{args.workload}.npz")
    values = metrics.per_layer(args.workload, arrays, tracer.counters, traced, overhead_frac)
    lines = [f"traced {args.workload} seed {args.seed}: {len(traced)} calls, "
             f"{len(tracer.spans)} spans, pass seconds (warm-up, untraced, traced, traced, "
             "untraced) "
             + ", ".join(f"{sum(t):.3f}" for t in latencies)
             + "; at the reference speed (untraced, traced, untraced) "
             + ", ".join(f"{sum(t):.3f}" for t in scaled)]
    # the two untraced passes run the same work; unless tracing costs more
    # than they differ by, the host's noise hides its cost
    noise = abs(sum(scaled[0]) - sum(scaled[2])) / min(sum(scaled[0]), sum(scaled[2]))
    lines.append(f"trace.overhead_frac {overhead_frac:+.3f}, untraced passes differ by {noise:.3f}"
                 + (" (unresolved)" if overhead_frac <= noise else ""))
    if tracer.missing:
        lines.append(f"note: nothing to wrap for layers {', '.join(tracer.missing)}")
    lines += list(checks.lines())
    all_calls = [c for calls, _, _ in passes for c in calls]
    failed = sum(c.failed for c in all_calls)
    result = {
        "correct": checks.all_passed and failed == 0,
        "attempted": sum(c.ops for c in all_calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": metrics.UNITS[k]} for k, v in values.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result))


def run_trace_all(args):
    """Per-layer metrics of every workload, each traced in its own process."""
    import metrics
    import workloads

    lines, results = [], []
    for name in workloads.WORKLOADS:
        result, out = _child(args, "trace", name)
        lines += out
        results.append((name, result))
    merged = _combine(results, lines)
    for spec in metrics.SPEC["per_layer"]:
        m = merged["metrics"].get(spec["name"])
        if m is not None:
            lines.append(f"layer {spec['name']} = {m['value']:.6g} {m['unit']}")
    _emit(merged, lines, "trace")


def _combine(results, lines, prefix=False):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, result in results:
        if result is None:
            lines.append(f"workload {name}: FAILED (no result)")
            merged["correct"] = False
            merged["attempted"] += 1
            merged["failed"] += 1
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}" if prefix else key] = value
    return merged


def run_all(args):
    """Every workload's timed run, each in its own process, then the traced
    run; one failing workload does not stop the others."""
    import workloads

    results = []
    for name in workloads.WORKLOADS:
        result, out = _child(args, "timed", name, timeout=3 * CHILD_TIMEOUT_S)
        for line in out:
            print(line, flush=True)
        results.append((name, result))
    args.trace = 1
    trace, out = _child(args, "trace-all", "all", timeout=3 * CHILD_TIMEOUT_S)
    for line in out:
        print(line, flush=True)
    lines = []
    merged = _combine(results + [("trace", trace)], lines, prefix=True)
    for line in lines:
        print(line)
    print(json.dumps(merged))


def main(argv=None):
    _import_library()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("timed", "setup", "trace", "trace-all"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    role = args.role or ("trace-all" if args.trace else "timed")
    if args.workload == "all" and role != "trace-all":
        role = "all"
    if role not in ("timed", "setup"):
        SETUP_PROBE.stop()
    return {"timed": run_timed, "setup": run_setup, "trace": run_trace_one,
            "trace-all": run_trace_all, "all": run_all}[role](args)


if __name__ == "__main__":
    main()
