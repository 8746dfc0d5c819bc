"""Paired in-process A/B of two builds of faro's native kernel.

    PYTHONPATH=src python3 tools/kernel_ab.py BASE [CHANGE] [--rounds 21] [--record-rounds 11]

Builds ``src/faro/_kernel.c`` as it stands at the git revision BASE and at
CHANGE (the working tree when CHANGE is omitted), each into a temporary
directory, and loads both into this one process. Five schedules then run
through faro's public calls, with ``faro._fastpath._native`` switched
between the two kernels call by call: each call runs once on each kernel,
on its own copy of the same input, and which kernel goes first alternates
round by round. Both kernels must leave the same items, or the script
stops. The Python side of faro is the working tree's for both, so the two
kernels must export the entries it calls per call. Every arity's table is
built once, before the first round, by the kernel faro loaded at import;
so a base kernel without the ``ladder`` entry can still be alternated,
and no round pays for a table.

For each schedule it prints the median over rounds of each kernel's summed
call time, their ratio change/base, the rounds CHANGE won, and BASE's
interquartile range as a share of its median. A change whose ratio lies
above 1 by more than that range is slower than the spread of BASE's own
rounds. The schedules:

- lists: ``k_shuffle`` + ``k_unshuffle`` at k = 3..8, sixteen lengths
  each over 2^10..2^16, as in perfbench's list-kway;
- int64: ``in_shuffle`` + ``un_shuffle`` of int64 ndarrays, six even
  lengths over 2^16..2^19;
- records64: ``in_shuffle`` + ``un_shuffle`` of ``RecordBuffer``s of
  64-byte records over bytearrays of 2, 4, 8 and 16 MiB (``--record-rounds``);
- records3 and bytes: ``k_shuffle`` + ``k_unshuffle`` at k = 2, 3, 5 of
  3-byte records and of bytearrays, lengths 2^14 and 2^17.

This script is a measuring tool: pytest does not collect it, and nothing in
faro imports it. It needs numpy, git, a C compiler and ``Python.h``.
"""

import argparse
import gc
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from faro import _fastpath, in_shuffle, k_shuffle, k_unshuffle, kway, un_shuffle
from faro.shuffle import RecordBuffer

KERNEL = "src/faro/_kernel.c"


def build(rev, root, label):
    """The kernel module built from _kernel.c at git revision `rev` (the working tree for None)."""
    if rev is None:
        with open(os.path.join(root, KERNEL), "rb") as handle:
            source = handle.read()
    else:
        source = subprocess.run(["git", "-C", root, "show", f"{rev}:{KERNEL}"], capture_output=True, check=True).stdout
    # a loaded module stays usable once its directory is gone
    with tempfile.TemporaryDirectory(prefix=f"kernel-ab-{label}-") as where:
        path = os.path.join(where, "_kernel.c")
        with open(path, "wb") as handle:
            handle.write(source)
        saved, _fastpath._SOURCE = _fastpath._SOURCE, path
        try:
            return _fastpath._load()
        finally:
            _fastpath._SOURCE = saved


def spread(lo, hi, count, multiple):
    """`count` lengths log-spread over [lo, hi], each a multiple of `multiple`."""
    return [int(lo * (hi / lo) ** (i / (count - 1))) // multiple * multiple for i in range(count)]


def both_ways(forward, inverse, *args):
    def call(buf):
        forward(buf, *args)
        inverse(buf, *args)

    return call


def schedule(name, rng):
    """The (call, input, copy) triples of one round of schedule `name`."""
    calls = []
    if name == "lists":
        for k in range(3, 9):
            for n in spread(2**10, 2**16, 16, k):
                calls.append((both_ways(k_shuffle, k_unshuffle, k), [rng.random() for _ in range(n)], list))
    elif name == "int64":
        for n in spread(2**16, 2**19, 6, 2):
            data = np.frombuffer(rng.randbytes(8 * n), dtype=np.int64)
            calls.append((both_ways(in_shuffle, un_shuffle), data, np.copy))
    elif name == "records64":
        for mib in (2, 4, 8, 16):
            data = rng.randbytes(mib << 20)
            calls.append((both_ways(in_shuffle, un_shuffle), data, lambda d: RecordBuffer(bytearray(d), 64)))
    else:
        size = 3 if name == "records3" else 1
        wrap = (lambda d: RecordBuffer(bytearray(d), 3)) if size == 3 else bytearray
        for k in (2, 3, 5):
            for n in (2**14 // k * k, 2**17 // k * k):
                calls.append((both_ways(k_shuffle, k_unshuffle, k), rng.randbytes(n * size), wrap))
    return calls


def items(buf):
    """What a buffer holds, for comparing the two kernels' results."""
    if isinstance(buf, RecordBuffer):
        buf = buf.data
    return buf.tolist() if isinstance(buf, np.ndarray) else bytes(buf) if isinstance(buf, bytearray) else buf


def measure(name, rounds, kernels, seed):
    """Per kernel, the summed call time of each round, in seconds."""
    totals = {label: [] for label in kernels}
    for r in range(rounds):
        calls = schedule(name, random.Random(f"{seed}-{name}-{r}"))
        order = list(kernels) if r % 2 == 0 else list(kernels)[::-1]
        spent = dict.fromkeys(kernels, 0.0)
        for call, data, copy in calls:
            left = {}
            for label in order:
                buf = copy(data)
                _fastpath._native = kernels[label]
                start = time.perf_counter()
                call(buf)
                spent[label] += time.perf_counter() - start
                left[label] = items(buf)
            if left["base"] != left["change"]:
                sys.exit(f"{name}: the two kernels left different items")
        for label in kernels:
            totals[label].append(spent[label])
    return totals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of the base kernel")
    parser.add_argument("change", nargs="?", help="git revision of the changed kernel (default: the working tree)")
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--record-rounds", type=int, default=11, help="rounds of the records64 schedule")
    parser.add_argument("--seed", default="1")
    parser.add_argument(
        "--only", nargs="*", default=["lists", "int64", "records64", "records3", "bytes"], help="schedules to run"
    )
    args = parser.parse_args(argv)
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True, check=True)
    root = root.stdout.strip()
    saved = _fastpath._native
    for k in range(2, kway.MAX_K + 1):
        kway._table(k)  # built by the kernel loaded at import, for both sides
    gc.disable()  # no collection inside a timed call: the inputs hold no cycles
    kernels = {"base": build(args.base, root, "base"), "change": build(args.change, root, "change")}
    print(f"base {args.base}, change {args.change or 'working tree'}, seed {args.seed}")
    print(f"{'schedule':<10} {'rounds':>6} {'base ms':>9} {'change ms':>9} {'change/base':>11} {'wins':>6} {'base IQR':>8}")
    try:
        for name in args.only:
            rounds = args.record_rounds if name == "records64" else args.rounds
            totals = measure(name, rounds, kernels, args.seed)
            base, change = totals["base"], totals["change"]
            mid = statistics.median(base)
            q1, _, q3 = statistics.quantiles(base, n=4)
            wins = sum(c < b for b, c in zip(base, change))
            print(
                f"{name:<10} {rounds:>6} {mid * 1e3:>9.2f} {statistics.median(change) * 1e3:>9.2f} "
                f"{statistics.median(change) / mid:>11.3f} {wins:>3}/{rounds:<2} {(q3 - q1) / mid:>8.1%}",
                flush=True,
            )
    finally:
        _fastpath._native = saved
        gc.enable()


if __name__ == "__main__":
    main()
