"""Innermost element-moving loops.

These are the reference loops, and the path of every buffer the native
kernel does not take: list subclasses, strided or read-only arrays, and
everything when the kernel did not build (lists too when it was built
without ``Python.h``). ``_kernel.c`` holds the same two loops in C for
ndarrays, ``RecordBuffer`` and lists; the test suite runs both paths on the
same inputs and requires equal results and equal instrumentation counts.

All slots here are 0-based. Callers own validation and instrumentation; these
loops only move elements.
"""


def reverse_slots(buf, lo, hi):
    # swap ends inward: (hi - lo) // 2 swaps, one temporary per swap
    hi -= 1
    while lo < hi:
        buf[lo], buf[hi] = buf[hi], buf[lo]
        lo += 1
        hi -= 1


def cycle_walk(buf, base, leader, mult, modulus):
    # Realize one permutation cycle: hold buf[base + leader] in a temporary,
    # then follow the orbit of `leader` under j -> j * mult (mod modulus),
    # swapping the temporary into each visited slot until the orbit closes.
    # Local positions j are 1-based; the slot for j is buf[base + j]. The
    # native twin in _kernel.c walks the same cycle the other way, pulling
    # each slot's item from j * mult^-1, and leaves the same permutation.
    j = leader
    t = buf[base + j]
    while True:
        j = j * mult % modulus
        p = base + j
        buf[p], t = t, buf[p]
        if j == leader:
            break
