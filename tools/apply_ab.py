"""Paired A/B of ``faro apply`` children at two revisions of faro.

    PYTHONPATH=src python3 tools/apply_ab.py BASE [CHANGE] [--rounds 15] [--seed 1]

Exports ``src/`` at the git revision BASE and at CHANGE (the working tree
when CHANGE is omitted) into temporary directories, ``git archive`` for a
revision, and has each side build its kernel once. It then pins itself,
and so its children, to one CPU, as perfbench does, and runs
``python -m faro.cli apply --verify --record-size 64`` children on files of
2, 3, 4, 6, 8, 11 and 16 MiB of 64-byte records, in each of the four
two-way kinds: in and out, forward and ``--inverse``. Each call runs once
on each side, on a fresh copy of the same file, and which side goes first
alternates call by call. Each copy is a new file, removed after its
child: a child that replaced a file an earlier child had left waited for
the disk to release that file's synced blocks, which on an ext4 disk
mounted with ``discard`` added 0.15-0.6 s to a child and hid faro's own
time. Every result is checked against ``faro.oracle.oracle_shuffle``, or the
script stops. Children inherit this process's environment: with
``PYTHONDONTWRITEBYTECODE=1`` each compiles faro's source, as a child of a
fresh checkout does.

For each size it prints the median over rounds of each side's wall time
for the four kinds, their ratio change/base, the rounds CHANGE won,
BASE's interquartile range as a share of its median, and each side's
median peak RSS of a child, its ``ru_maxrss`` from ``os.wait4``; the last
row sums the per-size medians. Linux carries the peak RSS of the process
that spawns a child into the child's ``ru_maxrss``, and this process holds
the largest file and its expected digests, so each child is spawned and
timed by a small, fresh launcher interpreter, whose own start is not
timed. The times are wall times of the children, unscaled: no speed probe
runs between calls.

This script is a measuring tool: pytest does not collect it, and nothing in
faro imports it. It needs git, a C compiler and ``Python.h``.
"""

import argparse
import hashlib
import io
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

from faro.oracle import oracle_shuffle
from faro.permcore import IN_SHUFFLE, OUT_SHUFFLE

RECORD = 64
SIZES_MIB = (2, 3, 4, 6, 8, 11, 16)
KINDS = (("in", False), ("in", True), ("out", False), ("out", True))

# runs the command given as its arguments and prints its exit code, its
# wall seconds and its peak RSS in KiB
LAUNCHER = (
    "import os, subprocess, sys, time\n"
    "start = time.perf_counter()\n"
    "proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)\n"
)


def export(rev, root, where):
    """`where`/src holding faro's source at git revision `rev` (the working tree for None)."""
    if rev is None:
        shutil.copytree(os.path.join(root, "src"), os.path.join(where, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    else:
        archive = subprocess.run(["git", "-C", root, "archive", rev, "src"], capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(where, filter="data")
    src = os.path.join(where, "src")
    env = {**os.environ, "PYTHONPATH": src}
    # the first import builds the kernel into the export's __pycache__
    built = subprocess.run([sys.executable, "-c", "import faro._fastpath as f; print(f.BUILD_ERROR or '')"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if built:
        sys.exit(f"{rev or 'working tree'}: {built}")
    return env


def expected_digest(data, kind, inverse):
    """sha256 of what apply --kind `kind` [--inverse] leaves of the records in `data`."""
    records = [data[i : i + RECORD] for i in range(0, len(data), RECORD)]
    # the item at position j after the shuffle came from order[j]
    order = oracle_shuffle(range(len(records)), IN_SHUFFLE if kind == "in" else OUT_SHUFFLE)
    if inverse:
        result = [None] * len(records)
        for j, i in enumerate(order):
            result[i] = records[j]
    else:
        result = [records[i] for i in order]
    return hashlib.sha256(b"".join(result)).hexdigest()


def run(env, path, data, kind, inverse):
    """Wall seconds and peak RSS in bytes of one apply child on a fresh copy of `data` at `path`,
    and the digest it left; `path` is removed."""
    with open(path, "wb") as handle:
        handle.write(data)
    argv = [sys.executable, "-m", "faro.cli", "apply", "--kind", kind, *(["--inverse"] if inverse else []),
            "--verify", "--record-size", str(RECORD), path]
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, check=True)
    code, seconds, rss_kb = done.stdout.split()
    if code != "0":
        sys.exit(f"apply exited {code}: {done.stderr.strip()}")
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    os.unlink(path)
    return float(seconds), int(rss_kb) * 1024, digest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of the base")
    parser.add_argument("change", nargs="?", help="git revision of the change (default: the working tree)")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--seed", default="1")
    args = parser.parse_args(argv)
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True, check=True)
    root = root.stdout.strip()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    payload = random.Random(args.seed).randbytes(max(SIZES_MIB) << 20)
    digests = {(mib, kind, inverse): expected_digest(payload[: mib << 20], kind, inverse)
               for mib in SIZES_MIB for kind, inverse in KINDS}
    with tempfile.TemporaryDirectory(prefix="apply-ab-") as where:
        sides = {}
        for label, rev in (("base", args.base), ("change", args.change)):
            os.mkdir(os.path.join(where, label))
            sides[label] = export(rev, root, os.path.join(where, label))
        path = os.path.join(where, "records.bin")
        print(f"base {args.base}, change {args.change or 'working tree'}, seed {args.seed}, "
              f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}", flush=True)
        # per side and size, the summed time of the four kinds in each round,
        # and the peak RSS of every child
        totals = {label: {mib: [] for mib in SIZES_MIB} for label in sides}
        peaks = {label: {mib: [] for mib in SIZES_MIB} for label in sides}
        turn = 0
        for _ in range(args.rounds):
            spent = {label: dict.fromkeys(SIZES_MIB, 0.0) for label in sides}
            for mib in SIZES_MIB:
                for kind, inverse in KINDS:
                    order = list(sides) if turn % 2 == 0 else list(sides)[::-1]
                    turn += 1
                    for label in order:
                        seconds, peak, digest = run(sides[label], path, payload[: mib << 20], kind, inverse)
                        if digest != digests[mib, kind, inverse]:
                            sys.exit(f"{label}: apply --kind {kind} {'--inverse ' * inverse}of {mib} MiB "
                                     "left other records than the oracle")
                        spent[label][mib] += seconds
                        peaks[label][mib].append(peak)
            for label in sides:
                for mib in SIZES_MIB:
                    totals[label][mib].append(spent[label][mib])
    print(f"{'MiB':>5} {'rounds':>6} {'base ms':>9} {'change ms':>9} {'change/base':>11} {'wins':>6} {'base IQR':>8} "
          f"{'base MB':>8} {'change MB':>9}")
    sums = [0.0, 0.0]
    for mib in SIZES_MIB:
        base, change = totals["base"][mib], totals["change"][mib]
        mid, changed = statistics.median(base), statistics.median(change)
        q1, _, q3 = statistics.quantiles(base, n=4)
        wins = sum(c < b for b, c in zip(base, change))
        sums[0] += mid
        sums[1] += changed
        print(f"{mib:>5} {args.rounds:>6} {mid * 1e3:>9.1f} {changed * 1e3:>9.1f} {changed / mid:>11.3f} "
              f"{wins:>3}/{args.rounds:<2} {(q3 - q1) / mid:>8.1%} "
              f"{statistics.median(peaks['base'][mib]) / 1e6:>8.1f} {statistics.median(peaks['change'][mib]) / 1e6:>9.1f}")
    print(f"{'sum':>5} {'':>6} {sums[0] * 1e3:>9.1f} {sums[1] * 1e3:>9.1f} {sums[1] / sums[0]:>11.3f}")


if __name__ == "__main__":
    main()
