"""Innermost element-moving loops, and the check behind ``faro apply --verify``.

These are the reference loops, and the path of every buffer that
``_fastpath.kernel`` does not send to ``_kernel.c``, which holds the same
three loops in C; the test suite runs both paths on the same inputs and
requires equal results, equal instrumentation counts and equal answers.

All slots here are 0-based. Callers own validation and instrumentation; these
loops only move or compare elements.
"""


def reverse_slots(buf, lo, hi):
    # swap ends inward: (hi - lo) // 2 swaps, one temporary per swap
    hi -= 1
    while lo < hi:
        buf[lo], buf[hi] = buf[hi], buf[lo]
        lo += 1
        hi -= 1


def cycle_walk(buf, base, leader, mult, modulus, p, count):
    # Realize the cycles led by leader * p^s for s < count, one permutation
    # cycle each: hold buf[base + leader] in a temporary, then follow the
    # orbit of `leader` under j -> j * mult (mod modulus), swapping the
    # temporary into each visited slot until the orbit closes. Local
    # positions j are 1-based; the slot for j is buf[base + j]. The native
    # twin in _kernel.c walks a ladder in one call and leaves the same
    # permutation: it pushes items along x mult as this loop does when that
    # step is fast (every forward pass), and otherwise pulls them along
    # x mult^-1 (every inverse pass).
    for _ in range(count):
        j = leader
        t = buf[base + j]
        while True:
            j = j * mult % modulus
            slot = base + j
            buf[slot], t = t, buf[slot]
            if j == leader:
                break
        leader *= p


def agree_items(chunk, res, itemsize, base, mult, modulus, j0, count):
    # True iff item i of chunk equals item base + ((j0 + i) * mult % modulus)
    # of res for every i in 0..count-1, items being runs of itemsize bytes;
    # the twin of agree_items in _kernel.c. Reads only; _fastpath.agree
    # checks the arguments.
    chunk, res = memoryview(chunk).cast("B"), memoryview(res).cast("B")
    for i in range(count):
        at = (base + (j0 + i) * mult % modulus) * itemsize
        if chunk[i * itemsize : (i + 1) * itemsize] != res[at : at + itemsize]:
            return False
    return True
