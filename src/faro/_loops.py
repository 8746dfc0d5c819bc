"""Innermost element-moving loops, and the check behind ``faro apply --verify``.

These are the reference loops, and the path of every buffer that
``_fastpath`` does not send to ``_kernel.c``, which holds the same loops in
C: the reversal, the block gather (its k - 1 rotations by conjoined triple
reversal), the cycle walk and the check. ``kway``'s Python block loop, the
twin of the native ``shuffle`` pass, calls the gather and the walk;
``faro.rotate`` calls the reversal. The test suite runs both paths on the
same inputs and requires equal results, equal instrumentation counts and
equal answers.

All slots here are 0-based. Callers own validation and instrumentation; these
loops only move or compare elements, and the gather returns its moves.
"""


def reverse_slots(buf, lo, hi):
    # swap ends inward: (hi - lo) // 2 swaps, one temporary per swap
    hi -= 1
    while lo < hi:
        buf[lo], buf[hi] = buf[hi], buf[lo]
        lo += 1
        hi -= 1


def rotate_slots(buf, lo, w, d):
    # Rotate the w slots at lo right by d, for 0 <= d <= w, by conjoined
    # triple reversal (Igor van den Hoven, https://github.com/scandum/rotate),
    # and return its moves; the twin of conjoined in _kernel.c. It makes the
    # reversals of the left side A, the first w - d slots, of the right side
    # B and of all w in one sweep: cursors a and b walk A inward from its
    # ends and c and e walk B, and each step hands the items round a cycle of
    # cursors, one temporary at most. First, while both sides last, b takes
    # a's item, a takes c's, c takes e's and e takes b's (4 moves a step);
    # then, over the rest of the longer side, a 3-cycle (3 moves); last, what
    # lies between a and e is reversed by swaps (2 moves). Equal sides are a
    # block swap, and d = 0 or w moves nothing.
    left = w - d
    s = min(left, d)
    g = w - s
    a, b, c, e = lo, lo + left, lo + left, lo + w
    if s == 0 or s == g:
        for i in range(s):
            buf[a + i], buf[c + i] = buf[c + i], buf[a + i]
        return 2 * s
    for _ in range(s // 2):
        b -= 1
        e -= 1
        buf[b], buf[a], buf[c], buf[e] = buf[a], buf[c], buf[e], buf[b]
        a += 1
        c += 1
    if left < d:
        while e - c >= 2:
            e -= 1
            buf[c], buf[e], buf[a] = buf[e], buf[a], buf[c]
            a += 1
            c += 1
    else:
        while b - a >= 2:
            b -= 1
            e -= 1
            buf[b], buf[a], buf[e] = buf[a], buf[e], buf[b]
            a += 1
    reverse_slots(buf, a, e)
    return s // 2 + 3 * (g // 2) + 2 * ((s + g % 2) // 2)


def gather_slots(buf, offset, part, b, k, inverse):
    # The k - 1 rotations of the gather of the block at offset, whose k parts
    # of `part` slots each begin at offset + t * part, and the moves they
    # make; the twin of gather_items in _kernel.c. The gather rotates
    # [offset + t * b, offset + t * part + b) right by b for t = 1..k-1:
    # after rotation t the first b slots of parts 0..t sit together at
    # offset, and the rests of the parts follow in part order. With
    # `inverse` it scatters: the same windows for t = k-1..1, each rotated
    # right by its width less b. Each rotation is rotate_slots'.
    moves = 0
    for t in range(k - 1, 0, -1) if inverse else range(1, k):
        rest = t * (part - b)
        moves += rotate_slots(buf, offset + t * b, rest + b, rest if inverse else b)
    return moves


def cycle_walk(buf, base, leader, mult, modulus, p, count):
    # Realize the cycles led by leader * p^s for s < count, one permutation
    # cycle each: hold buf[base + leader] in a temporary, then follow the
    # orbit of `leader` under j -> j * mult (mod modulus), swapping the
    # temporary into each visited slot until the orbit closes. Local
    # positions j are 1-based; the slot for j is buf[base + j]. The native
    # twin in _kernel.c walks a ladder in one call and leaves the same
    # permutation: it pushes items along x mult as this loop does, save on
    # an inverse k-way pass with k * modulus <= 2^32, where it pulls them
    # along x mult^-1 = x k (see struct step there).
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
