"""The Python twin of the native pass, and the check behind ``faro apply --verify``.

These are the reference loops, and the path of every buffer that
``_fastpath`` does not send to ``_kernel.c``, which holds the same loops in
C: the block gather (its k - 1 rotations by conjoined triple reversal,
each ending in a reversal), the cycle walk and the check. ``_pure_pass``
is the twin of the native ``shuffle`` pass: it tiles a range by
``_blocks`` and runs the gather and the walk on each block. ``_ladder`` is
the twin of the kernel's ``ladder`` entry, which builds each arity's table
of rungs for ``kway._table``. The test
suite runs both paths on the same inputs and requires equal results, equal
instrumentation counts and equal answers.

Nothing imports this module while the kernel is loaded, save for a call
that takes the twin: ``_fastpath`` imports it on first use, so a ``faro
apply`` child does not compile it.

All slots here are 0-based. Callers own validation; the loops only move or
compare elements, the gather returns its moves, a block's walks and the
tail sweep their moves and cycles, and the pass its counts.
"""

import struct
from bisect import bisect_right

from .kway import _ROW


def _ladder(k, bases):
    # The rows of k's ladder from its bases, as bytes: the Python twin of
    # the kernel's ladder entry, and the reference the tests hold it to.
    rows = []
    for p, reps in bases:
        power, j = p, 1
        while power < 1 << 63:
            for m in (power, 2 * power) if k % 2 else (power,):
                if m < 1 << 63 and (m - 1) % k == 0:
                    rows.append((m, p, j, len(reps), *reps, *(0,) * (_ROW - 4 - len(reps))))
            power *= p
            j += 1
    words = [word for row in sorted(rows, reverse=True) for word in row]
    # packed in one call, into the int64 rows the kernel's entry returns
    return struct.pack(f"{len(words)}q", *words)


def _blocks(lo, hi, table, backward=False):
    """Greedy tiling of [lo, hi) by the rungs of `table` (see ``kway._table``),
    as runs (offset, modulus, p, j, reps, count), left to right, or with
    `backward` right to left.

    A run is `count` adjacent blocks of modulus - 1 elements each, of the
    table's largest rung that fits what remains, and reps are that rung's
    coset representatives. The run takes as many of them as fit, so each
    run is one bisection of the table's moduli and one division, whatever
    its count. What fits no block comes last, as a tail run with p = j = 0,
    no reps, count = 1 and modulus = its length + 1; at k = 2, where 3 is a
    base, there is never a tail. Backward, a scan of the tiling from lo
    finds each run, the one that ends where the run after it starts: the
    tiling is rescanned per run instead of being stored, which keeps the
    state constant.
    """
    ascending = table[-_ROW::-_ROW]  # the moduli, smallest first
    done = hi
    while done > lo:
        offset = lo
        while True:
            # the row of the largest rung whose block fits hi - offset items
            r = len(table) - _ROW * bisect_right(ascending, hi - offset + 1)
            if r == len(table):
                modulus, p, j, d, count = hi - offset + 1, 0, 0, 0, 1
            else:
                modulus, p, j, d = table[r : r + 4]
                count = (hi - offset) // (modulus - 1)
            end = offset + count * (modulus - 1)
            if end == done or not backward:
                yield offset, modulus, p, j, tuple(table[r + 4 : r + 4 + d]), count
            if end == done:
                break
            offset = end
        done = offset if backward else lo


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


def _general_cycle_passes(buf, offset, j, p, reps, mult, modulus):
    # modulus is p^j, or 2p^j for odd k. For s = 0..j-1 and each coset
    # representative c, c * p^s leads the cycle of the positions whose
    # p-part is p^s and whose cofactor is c mod p; when modulus is even
    # that cycle holds only the odd ones, led by c or c + p, whichever is
    # odd, and 2c * p^s leads the even ones. One cycle_walk call takes each
    # ladder of leaders, s < j. The cycles hold every position but p^j,
    # which is fixed under an odd multiplier and is not walked; the moves
    # are those positions plus one hold per cycle. Returns (moves, cycles).
    base = offset - 1
    twin = modulus % 2 == 0
    for c in reps:
        cycle_walk(buf, base, c + p if twin and c % 2 == 0 else c, mult, modulus, p, j)
        if twin:
            cycle_walk(buf, base, 2 * c, mult, modulus, p, j)
    cycles = len(reps) * (1 + twin) * j
    return modulus - 1 - twin + cycles, cycles


def _bounded_cycle_shuffle(buf, offset, length, mult):
    # Permute buf[offset : offset+length] by local i -> i*mult mod (length+1)
    # using the minimum-of-orbit leader rule: a position starts a cycle only
    # if probing its whole orbit meets nothing smaller. Quadratic in `length`
    # and constant space; the pass only uses it for the tiling's tail, whose
    # size is bounded by the base table, not the buffer. Returns (moves,
    # cycles).
    modulus = length + 1
    base = offset - 1
    moves = cycles = 0
    for lead in range(1, length + 1):
        probe = lead * mult % modulus
        if probe == lead:
            continue
        steps = 1
        while probe > lead:
            probe = probe * mult % modulus
            steps += 1
        if probe != lead:
            continue
        cycle_walk(buf, base, lead, mult, modulus, 1, 1)
        moves += steps + 1
        cycles += 1
    return moves, cycles


def _pure_pass(buf, lo, hi, k, inverse, table):
    """The Python twin of the native pass, ``shuffle`` in ``_kernel.c``.

    Shuffles buf[lo:hi] k ways, or with `inverse` unshuffles it, by
    ``gather_slots`` and ``cycle_walk``, and returns the counts: (rotate
    moves, walk moves, tail moves, blocks, cycles). It tiles by the rungs of
    `table`, the native pass's table, and takes each run's coset
    representatives from its rung's row. As in the kernel's ``run_blocks``,
    each block is gathered, then placed; inverse, right to left, each is
    placed, then scattered.
    """
    rotate = walk = tail = blocks = cycles = 0
    for start, modulus, p, j, reps, count in _blocks(lo, hi, table, inverse):
        blocks += count
        mult = pow(k, -1, modulus) if inverse else k
        if j == 0:
            moves, walked = _bounded_cycle_shuffle(buf, start, modulus - 1, mult)
            tail += moves
            cycles += walked
            continue
        b = (modulus - 1) // k
        for i in range(count):
            offset = start + (count - 1 - i if inverse else i) * (modulus - 1)
            part = (hi - offset) // k
            if not inverse:
                rotate += gather_slots(buf, offset, part, b, k, False)
            moves, walked = _general_cycle_passes(buf, offset, j, p, reps, mult, modulus)
            walk += moves
            cycles += walked
            if inverse:
                rotate += gather_slots(buf, offset, part, b, k, True)
    return rotate, walk, tail, blocks, cycles


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
