#!/usr/bin/env python3
"""The gerbe benchmark: one workload, one seed, one client in a closed loop.

    python3 perfbench/run.py --workload known-ladder --seed 1 --seconds 55 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory, so nothing needs installing.  Each call goes straight
into gerbe in this process: ``gerbe.cli.main(argv)`` with stdout captured,
or ``gerbe._backend.linking_sweep(n, c)``.  The next call starts when the
previous one has returned.  Every output is checked against an answer
computed in set-up (see workloads.py), outside the call's latency.

The run visits every item of the workload once, and then goes on
visiting them, the long calls more often, for ``--seconds`` seconds.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` pairs each
plain visit with a traced one and prints the per-layer metrics (see
tracing.py).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a
JSON record of the run and its environment.  The exit code is 1 when any
item failed, 2 when gerbe's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

# one BLAS thread, set before anything imports numpy (children inherit
# it): on a host of a few shared cores a second thread, and starting it in
# every set-up, measures the scheduler rather than gerbe
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# named here, not taken from workloads.WORKLOADS: importing workloads
# imports numpy, which belongs to the timed set-up
WORKLOADS = ("random-spectra", "known-ladder")
CORRUPTIONS = ("chi", "order", "gram")
# set-ups timed for setup_s: this process's own, then fresh processes
# spread evenly over the measured seconds
SETUP_SAMPLES = 15
# a visit repeats a short call until this much call time has passed, so
# that millisecond calls get enough samples for a steady median
VISIT_SECONDS = 0.1
MAX_REPEATS = 50
# calls shorter than this are visited as often as calls this long
SHARE_FLOOR = 1.0
BAND = 0.1  # half-width of the band a percentile is averaged over

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics, each per traced pass unless it is a ratio or a maximum
PER_LAYER_UNITS = {
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "graph.parse_graph.self_s": "s",
    "graph.epsilon_matrix.self_s": "s",
    "graph.graph_automorphisms.self_s": "s",
    "graph.graph_automorphisms.found": "count",
    "exactpoly.char_poly.self_s": "s",
    "exactpoly.char_poly.calls": "count",
    "exactpoly.squarefree_decomposition.self_s": "s",
    "exactpoly.real_roots_with_multiplicity.self_s": "s",
    "exactpoly.roots.rational": "count",
    "exactpoly.roots.irrational": "count",
    "exactpoly.chi.lead_bits_max": "bits",
    "quadspace.jacobi_eigh.self_s": "s",
    "quadspace.jacobi_eigh.calls": "count",
    "quadspace.rank.self_s": "s",
    "quadspace.rank.calls": "count",
    "quadspace.gram_factorize.self_s": "s",
    "quadspace.isometry_between.self_s": "s",
    "quadspace.isometry_between.calls": "count",
    "sheaf.line_classes.self_s": "s",
    "sheaf.partition_from_sign_matrix.self_s": "s",
    "sheaf.restrict_to_Y.self_s": "s",
    "sheaf.check_class_linking.self_s": "s",
    "autgroup.enumerate_group.self_s": "s",
    "autgroup.elements": "count",
    "autgroup.orbits_on_lines.self_s": "s",
    "autgroup.realize_isometry.self_s": "s",
    "autgroup.realize_isometry.calls": "count",
    "kernels.signed_stabilizer.self_s": "s",
    "kernels.signed_stabilizer.solutions": "count",
    "kernels.linking_sweep.self_s": "s",
    "kernels.linking_sweep.graphs": "count",
    "kernels.linking_sweep.pass_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # negative controls: perturb one kind of expected answer
    ap.add_argument("--corrupt", choices=CORRUPTIONS, help=argparse.SUPPRESS)
    # child mode used to time set-up in fresh processes
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args, start):
    """Import gerbe, write the seeded inputs and compute the expected
    answers; returns (items, seconds since start)."""
    sys.path.insert(0, str(SRC))
    import gerbe.cli  # timed: importing gerbe is part of set-up
    import workloads

    if not Path(gerbe.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gerbe was imported from {gerbe.cli.__file__}, not {SRC}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    items = workloads.build(args.workload, args.seed, workdir, args.corrupt)
    return items, perf_counter() - start


def fresh_setup_seconds(args):
    """Set-up time of one fresh process running the same set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# running items

def call(item, cli_main):
    """One timed call; returns (seconds, output, error or None)."""
    from gerbe import _backend

    if item.sweep is not None:
        t0 = perf_counter()
        try:
            result = _backend.linking_sweep(*item.sweep)
        except Exception as exc:  # a failed item, reported and counted
            return perf_counter() - t0, None, f"raised {exc!r}"
        return perf_counter() - t0, result, None
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(item.argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    except Exception as exc:  # a failed item, reported and counted
        return perf_counter() - t0, None, f"raised {exc!r}"
    dt = perf_counter() - t0
    if code != 0:
        return dt, None, f"exit {code}: {err.getvalue().strip()}"
    return dt, out.getvalue(), None


def run_item(item, cli_main, tracer=None):
    """Run and check one item; returns (seconds, errors)."""
    import workloads

    if tracer is not None:
        tracer.item = item.id
    dt, output, error = call(item, cli_main)
    if error is not None:
        return dt, [error]
    if tracer is not None and item.argv is not None:
        tracer.add("cli.stdout_bytes", len(output))
    try:
        return dt, workloads.check(item, output)
    except Exception as exc:  # malformed output is a failed item
        return dt, [f"output check raised {exc!r}"]


def visit(item, cli_main, times, failures, tracer=None):
    """Call an item once, or again and again while the calls have taken
    less than VISIT_SECONDS, recording each call's time and failure.  The
    garbage the previous visit left is collected first, outside the
    timing."""
    gc.collect()
    spent = 0.0
    for _ in range(MAX_REPEATS):
        dt, errors = run_item(item, cli_main, tracer)
        times.append(dt)
        if errors:
            failures.append((item, errors))
        spent += dt
        if spent >= VISIT_SECONDS:
            return


def next_item(plain, visits):
    """The item to visit next: each in turn until every one has been
    visited, then the one furthest behind its share of visits.  An item's
    share is the square root of its median call time, with every call
    shorter than SHARE_FLOOR counted as that long, so that a few long calls
    get the extra samples their weight in a pass needs (the allocation that
    makes a sum of per-call times steadiest for the time spent)."""
    if 0 in visits:
        return visits.index(0)
    shares = [max(statistics.median(p), SHARE_FLOOR) ** 0.5 for p in plain]
    return min(range(len(visits)), key=lambda k: visits[k] / shares[k])


def measure(items, seconds, tracer=None, fresh_setup=None):
    """Visit the items, as next_item chooses, until `seconds` have passed,
    and at least once each.  With a tracer, each plain visit is paired
    with a traced one, the traced one first on every other visit.  Without
    one, `fresh_setup()` is timed between visits, SETUP_SAMPLES - 1 times
    spread evenly over the run.  Returns (plain, traced, failures, set-up
    seconds): per item, the seconds of each plain and each traced call;
    every failed call; and each fresh set-up's seconds."""
    import gerbe.cli

    traced_main = tracer.wrap("cli.main", gerbe.cli.main) if tracer else None
    plain = [[] for _ in items]
    traced = [[] for _ in items]
    visits = [0] * len(items)
    failures = []
    setups = []
    want_setups = SETUP_SAMPLES - 1 if fresh_setup is not None else 0
    start = perf_counter()
    while True:
        k = next_item(plain, visits)
        traced_first = (k + visits[k]) % 2
        if tracer is not None and traced_first:
            with tracer.install():
                visit(items[k], traced_main, traced[k], failures, tracer)
        visit(items[k], gerbe.cli.main, plain[k], failures)
        if tracer is not None and not traced_first:
            with tracer.install():
                visit(items[k], traced_main, traced[k], failures, tracer)
        visits[k] += 1
        elapsed = perf_counter() - start
        if len(setups) < want_setups and elapsed >= len(setups) * seconds / want_setups:
            setups.append(fresh_setup())
        if 0 not in visits and elapsed >= seconds:
            # a short run still takes every set-up sample
            setups += [fresh_setup() for _ in range(want_setups - len(setups))]
            return plain, traced, failures, setups


# ---------------------------------------------------------------------------
# metrics

def band_quantile(values, p):
    """The empirical quantile function averaged over [p - BAND, p + BAND]:
    a percentile that the noise of one value moves less than it moves a
    single order statistic."""
    lo, hi = (p - BAND) * len(values), (p + BAND) * len(values)
    return sum(v * max(0.0, min(k + 1, hi) - max(k, lo))
               for k, v in enumerate(sorted(values))) / (hi - lo)


def end_to_end(items, plain, setup_samples):
    """The end-to-end metrics.  Throughput is calls of a pass over the sum
    of their mean times in the run; latency is per call, one sample per
    call of a pass: the median of its times in the run."""
    lat_ms = [statistics.median(s) * 1e3 for s in plain]
    return {
        "items_per_s": len(items) / sum(statistics.fmean(s) for s in plain),
        "latency_p50_ms": band_quantile(lat_ms, 0.5),
        "latency_p75_ms": band_quantile(lat_ms, 0.75),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(items, plain, traced, tracer):
    """Per-layer metrics.  Self times and counts are per pass: each item's
    totals divided by the number of its traced calls, summed."""
    ncalls = {item.id: len(t) for item, t in zip(items, traced)}
    selfs = tracer.self_times()
    totals = defaultdict(float)
    for (item, span), (self_s, calls) in selfs.items():
        totals[span + ".self_s"] += self_s / ncalls[item]
        totals[span + ".calls"] += calls / ncalls[item]
    for (item, key), amount in tracer.counts.items():
        totals[key] += amount / ncalls[item]
    values = {name: totals.get(name, 0.0) for name in PER_LAYER_UNITS}
    values["exactpoly.chi.lead_bits_max"] = tracer.maxima.get("exactpoly.chi.lead_bits_max", 0)
    graphs = totals["kernels.linking_sweep.graphs"]
    # vacuously 1.0 on a workload that sweeps nothing
    values["kernels.linking_sweep.pass_ratio"] = (
        totals["kernels.linking_sweep.passing"] / graphs if graphs else 1.0)
    values["trace.overhead_ratio"] = (sum(statistics.median(s) for s in traced)
                                      / sum(statistics.median(s) for s in plain))
    # time in the wrapped layer functions over the traced calls' time, per
    # pass; cli.main's own time (argparse, JSON, printing, and whatever it
    # calls that is not wrapped) counts as uncovered
    covered = sum(s / ncalls[item] for (item, span), (s, _) in selfs.items()
                  if span != "cli.main")
    values["trace.coverage"] = covered / sum(sum(t) / len(t) for t in traced)
    return values


def environment(seed):
    import gerbe
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "backend": gerbe.backend_name(),
        "GERBE_BACKEND": os.environ.get("GERBE_BACKEND"),
        "GERBE_MAX_N": os.environ.get("GERBE_MAX_N"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "seed": seed,
    }


def main(argv=None):
    start = perf_counter()
    args = parse_args(argv)
    if not (SRC / "gerbe" / "__init__.py").is_file():
        print(f"gerbe sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        items, setup_s = setup(args, start)
        if args.setup_only:
            print(setup_s)
            return 0
        from tracing import Tracer

        tracer = Tracer() if args.trace else None
        # a traced run reports no setup_s, and fresh set-ups would only
        # take time from it
        fresh = None if tracer else (lambda: fresh_setup_seconds(args))
        plain, traced, failures, setups = measure(items, args.seconds, tracer, fresh)
        setup_samples = [setup_s] + setups
    finally:
        shutil.rmtree(WORK / f"{args.workload}-{os.getpid()}", ignore_errors=True)

    attempted = sum(len(p) + len(t) for p, t in zip(plain, traced))
    failed = len(failures)
    e2e = end_to_end(items, plain, setup_samples)
    if tracer is not None:
        values, units = per_layer(items, plain, traced, tracer), PER_LAYER_UNITS
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values, units = e2e, END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "items_per_pass": len(items),
        "plain_calls": sum(len(p) for p in plain),
        "traced_calls": sum(len(t) for t in traced),
        "latency_samples": len(items),
        "setup_samples": setup_samples,
        "failed_ratio": failed / attempted,
        "end_to_end": e2e,
        "item_ms": {item.id: statistics.median(p) * 1e3 for item, p in zip(items, plain)},
        "env": environment(args.seed),
        "failures": [{"item": item.id, "errors": errors} for item, errors in failures[:20]],
    }
    for name, value in values.items():
        print(f"{name:48} {value:14.6g} {units[name]}")
    print(f"{'failed_ratio':48} {failed / attempted:14.6g} ratio")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
