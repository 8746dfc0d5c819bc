"""Run one workload of the faro benchmark and print its metrics.

    python3 perfbench/run.py --workload array-2way --seed 1 --seconds 25 --trace 0

Run it from the root of a faro source checkout: faro is imported from
``src/`` next to this directory, and the metric names and units come from
``BENCHMARK.json`` at the root. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` spends half the time untraced and half traced and
reports the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment, the sample counts and notes.
Without faro's sources the run prints no result and exits with status 2.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

NOTES = (
    "times are wall times rescaled by a speed probe timed around each call to a machine "
    "on which the probe takes probe_nominal_ns; unscaled figures are under 'unscaled'",
    "kernel_path is faro._fastpath.HAVE_COMPILED: pure-Python and compiled numbers are not comparable",
    "buffer and file bytes are computed from lengths and record size, not measured",
    "file-apply moves_per_elem replays each call in-process on a list: moves depend only on kind and length",
    "peak_rss_mb is the max ru_maxrss over the faro apply children (os.wait4) on file-apply, "
    "and this process's own ru_maxrss on the in-process workloads",
    "known limit: k-way moves per element grow with n at k=5 and k=7 (see kway.moves_per_elem.k5/.k7)",
)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(values):
    """Highest percentile with at least ten samples above it: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100 * (n - 10) / n


def elems_per_s(samples, ns=lambda s: s.scaled_ns) -> float:
    return sum(s.call.n for s in samples) / (sum(ns(s) for s in samples) / 1e9)


def llc_bytes():
    """Last-level cache size as glibc reports it, or None."""
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() and int(out) > 0 else None


def environment(args, workload, samples):
    import numpy
    import faro._fastpath

    llc = llc_bytes()
    largest = max((s.call.n for s in samples), default=0) * workload.itemsize
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_path": "compiled" if faro._fastpath.HAVE_COMPILED else "pure-python",
        "nproc": os.cpu_count(),
        "llc_bytes": llc,
        "largest_buffer_bytes": largest,
        "largest_buffer_fits_llc": None if llc is None else largest <= llc,
        "notes": NOTES,
    }


def by_kind(samples) -> dict:
    """Moves per element for each kind, inverse kinds included."""
    moves, elems = {}, {}
    for s in samples:
        moves[s.call.kind] = moves.get(s.call.kind, 0) + s.moves
        elems[s.call.kind] = elems.get(s.call.kind, 0) + s.call.n
    return {kind: moves[kind] / elems[kind] for kind in sorted(moves)}


def end_to_end_run(args, wl, workdir):
    from perfbench import workloads

    setup, setup_failed = workloads.measure_setup(wl, SRC, workdir, SETUP_REPEATS)
    samples = workloads.measure(wl, workloads.schedule(args.workload, args.seed), args.seconds)
    per_elem = [s.scaled_ns / s.call.n for s in samples]
    raw_per_elem = [s.ns / s.call.n for s in samples]
    tail_ns, tail_pct = tail(per_elem)
    if isinstance(wl, workloads.FileWorkload):
        rss_kb = max(s.rss_kb for s in samples)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = sum(not s.ok for s in samples)
    metrics = {
        "setup_s": statistics.median(setup),
        "elems_per_s": elems_per_s(samples),
        "ns_per_elem_p50": statistics.median(per_elem),
        "ns_per_elem_tail": tail_ns,
        "moves_per_elem": sum(s.moves for s in samples) / sum(s.call.n for s in samples),
        "peak_rss_mb": rss_kb / 1024,
    }
    details = {
        "calls": len(samples),
        "ns_per_elem_tail_percentile": tail_pct,
        "failed_ratio": failed / len(samples),
        "setup_runs": len(setup),
        "probe_ns_median": statistics.median(s.probe_ns for s in samples),
        "probe_nominal_ns": wl.probe_nominal_ns,
        "unscaled": {
            "elems_per_s": elems_per_s(samples, ns=lambda s: s.ns),
            "ns_per_elem_p50": statistics.median(raw_per_elem),
            "ns_per_elem_tail": tail(raw_per_elem)[0],
        },
        "moves_per_elem_by_kind": by_kind(samples),
    }
    return samples, metrics, details, len(samples) + len(setup), failed + setup_failed


def traced_run(args, wl, time_units):
    from perfbench import spans, workloads

    half = args.seconds / 2
    plain = workloads.measure(wl, workloads.schedule(args.workload, args.seed), half)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = workloads.measure(wl, workloads.schedule(args.workload, args.seed), half, tracer)
    metrics = tracer.layer_metrics()
    is_file = isinstance(wl, workloads.FileWorkload)
    metrics["cli.bytes_in"] = sum(s.call.n for s in traced) * wl.itemsize if is_file else 0
    metrics["cli.bytes_out"] = sum(s.call.n for s in traced if s.ran) * wl.itemsize if is_file else 0
    # the same calls on both sides: the schedule restarts for the traced half
    common = min(len(plain), len(traced))
    metrics["trace.overhead_ratio"] = elems_per_s(plain[:common]) / elems_per_s(traced[:common])
    metrics["trace.accounted_ratio"] = spans.self_time_ns(metrics) / sum(s.ns for s in traced)
    # span times are rescaled by one factor, from the traced half's median probe
    probe = statistics.median(s.probe_ns for s in traced)
    for name in metrics:
        if name in time_units:
            metrics[name] *= wl.probe_nominal_ns / probe
    moves = sum(s.moves for s in traced)
    details = {
        "calls_untraced": len(plain),
        "calls_traced": len(traced),
        "spans": len(tracer.spans),
        "probe_ns_median": probe,
        "total_moves": moves,
        "moves_accounted": spans.walk_and_rotate_moves(metrics) == moves,
    }
    samples = plain + traced
    return samples, metrics, details, len(samples), sum(not s.ok for s in samples)


def main(argv=None) -> int:
    if not (SRC / "faro" / "__init__.py").is_file():
        print(f"perfbench: faro sources not found at {SRC}; run from a faro checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    sys.path[:0] = [str(SRC), str(ROOT)]
    import faro

    if Path(faro.__file__).resolve().parent != (SRC / "faro").resolve():
        print(f"perfbench: imported faro from {faro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads

    # one core for this process and its children, so that the speed probes
    # see the same core as the calls they rescale
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = workloads.make(args.workload, args.seed, workdir, SRC, in_process=bool(args.trace))
        if args.trace:
            time_units = {m["name"] for m in spec["per_layer"] if m["unit"].startswith("ns")}
            samples, metrics, details, attempted, failed = traced_run(args, wl, time_units)
        else:
            samples, metrics, details, attempted, failed = end_to_end_run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sched_setaffinity(0, cpus)
    selfcheck = wl.reference_selfcheck()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    details.update(environment(args, wl, samples), cpu=cpu, reference_selfcheck=selfcheck)
    print(json.dumps({"perfbench": details}))
    print(json.dumps({
        "correct": failed == 0 and selfcheck,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
