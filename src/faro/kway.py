"""k-way generalization of the in-place shuffle, for small k.

A k-way shuffle of kn elements cuts the array into k equal parts and
interleaves them, sending 1-based position i to k*i mod (kn + 1). Prime
arities q run directly, block by block, as the two-way construction does;
composite k factors into prime passes, since consecutive passes with
arities q1, q2 compose to q1*q2*i mod (len + 1), the (q1*q2)-way map. That
also covers k whose power residues can never generate a full unit group
(4 and 9, being perfect squares, have no primitive-root base at all).

A block of m - 1 elements is placed by cycle leaders in constant space when
q generates the units mod m. Primitive roots exist modulo p^j and 2p^j for
odd primes p (Gauss). If q is a primitive root of p^2 it is one of every
p^j, and for odd q also of every 2p^j, whose units mirror those mod p^j. So
each prime arity has a fixed table of such bases p, ``_BASES``, and two
kinds of block:

  * modulus p^j: the j cycles are led by p^0 .. p^(j-1);
  * modulus 2p^j, odd q only: 2j cycles led by p^s and 2p^s, and the
    position p^j is a fixed point.

These leaders are in closed form (Jain, arXiv:0805.1598), so one call of
the buffer's walk realizes a whole ladder of them, p^s or 2p^s for s < j.

A block is admissible when q divides m - 1, so that each part contributes
a whole slice; the gather step is q - 1 successive right rotations that
pull the first slice of each part to the front. A gather costs in
proportion to the window left, so the gaps of the block ladder set the
moves per element. One base alone leaves gaps of x3 (q = 2, p = 3), x25
(q = 3), x81 (q = 5) and x1331 (q = 7) between admissible blocks; the
rungs of the whole table, merged, are at most x2.1, x2.7, x7.7 and x9.2
apart up to 2^20. Every admissible rung below 2^63 is listed once, largest
first, in a constant ladder per arity, ``_LADDERS``, so the greedy tiling
takes one bisect per run of equal blocks.

Leftovers smaller than the smallest admissible block are bounded by the
table alone, so they are permuted by a constant-space minimum-leader sweep
whose quadratic cost is a constant independent of the buffer length.

This module holds the only shuffle driver, one forward and one inverse
prime pass over a range. The 2-way shuffles of ``shuffle`` are its q = 2
case. The paper tiles them with 3^k - 1 blocks alone; faro's q = 2 table
has eight odd bases, every power of which is admissible, and since 3 is
among them no tail is left.

Each call mutates one buffer and assumes exclusive access to it while it
runs.
"""

from bisect import bisect_left

from . import _fastpath
from .permcore import kway_kind, validate_order
from .rotate import rotate_right

__all__ = ["k_shuffle", "k_unshuffle", "MAX_K"]

MAX_K = 9

# The bases p of each prime arity q: primes with q a primitive root of p^2,
# hence of every p^j and, for odd q, of every 2p^j. Sorted by p^e, where
# e = ord_q(p) is the first power whose block is admissible. A test checks
# the table; nothing is searched at import.
_BASES = {
    2: (3, 5, 11, 13, 19, 29, 37, 53),
    3: (7, 19, 5, 31, 43, 79, 127, 139),
    5: (3, 7, 17, 23, 37, 43, 47, 53),
    7: (71, 127, 13, 211, 239, 379, 491, 547),
}

# aux accounting for every arity, 2-way included: the driver's locals plus
# those of its deepest callee, independent of input size
_DRIVER_AUX_WORDS = 24


def _prime_factors(k: int) -> list[int]:
    out = []
    n, q = k, 2
    while q * q <= n:
        while n % q == 0:
            out.append(q)
            n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _ladder(q):
    # Every admissible modulus of q's bases below 2^63 (the kernel's int64
    # positions), largest first, as (modulus, p, j): p^j, and 2p^j, whenever
    # q divides modulus - 1. At q = 2 that is every p^j, since the bases are
    # odd, and never 2p^j.
    rungs = []
    for p in _BASES[q]:
        power, j = p, 1
        while power < 1 << 63:
            rungs += [(m, p, j) for m in (power, 2 * power) if m < 1 << 63 and (m - 1) % q == 0]
            power *= p
            j += 1
    return tuple(sorted(rungs, reverse=True))


# The block ladder of each prime arity, built once from _BASES: 149, 111, 64
# and 62 rungs for q = 2, 3, 5, 7. _FITS holds each rung's 1 - modulus, in
# ascending order, so that bisect finds the largest block that fits.
_LADDERS = {q: _ladder(q) for q in _BASES}
_FITS = {q: tuple(1 - modulus for modulus, _, _ in ladder) for q, ladder in _LADDERS.items()}


def _blocks(lo, hi, q):
    """Greedy tiling of [lo, hi), left to right, as runs (offset, modulus, p, j, count).

    A run is `count` adjacent blocks of modulus - 1 elements each, where
    modulus is p^j or, for odd q, 2p^j, with p from the base table of q. Its
    block is the largest admissible one across the table that fits what
    remains; admissible means q divides modulus - 1, so that every part
    gives the block a whole slice. The run takes as many of them as fit, so
    each run is one bisect of q's ladder and one division, whatever its
    count. What fits no block comes last, as a tail run with p = j = 0,
    count = 1 and modulus = its length + 1; at q = 2, where 3 is a base,
    there is never a tail.
    """
    ladder, fits = _LADDERS[q], _FITS[q]
    offset = lo
    while offset < hi:
        i = bisect_left(fits, offset - hi)
        if i == len(ladder):
            yield offset, hi - offset + 1, 0, 0, 1
            return
        modulus, p, j = ladder[i]
        count = (hi - offset) // (modulus - 1)
        yield offset, modulus, p, j, count
        offset += count * (modulus - 1)


def _general_cycle_passes(buf, offset, j, p, mult, modulus, instr, walk):
    # modulus is p^j, or 2p^j for odd q. For s = 0..j-1, p^s leads the
    # cycle of the positions whose p-part is p^s; when modulus is even that
    # cycle holds only the odd ones, and 2p^s leads the even ones. One walk
    # call takes each ladder of leaders, p^s and 2p^s for s < j. The cycles
    # hold every position but p^j, which is fixed under an odd multiplier
    # and is not walked; the moves are those positions plus one hold per
    # cycle.
    base = offset - 1
    twin = modulus % 2 == 0
    walk(buf, base, 1, mult, modulus, p, j)
    if twin:
        walk(buf, base, 2, mult, modulus, p, j)
    if instr is not None:
        instr.walk_moves += modulus - 1 - twin + (1 + twin) * j


def _bounded_cycle_shuffle(buf, offset, length, mult, instr, walk):
    # Permute buf[offset : offset+length] by local i -> i*mult mod (length+1)
    # using the minimum-of-orbit leader rule: a position starts a cycle only
    # if probing its whole orbit meets nothing smaller. Quadratic in `length`
    # and constant space; callers only use it for block-plan leftovers, whose
    # size is bounded by the base table, not the buffer.
    modulus = length + 1
    base = offset - 1
    moves = 0
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
        walk(buf, base, lead, mult, modulus, 1, 1)
        moves += steps + 1
    if instr is not None:
        instr.tail_moves += moves


def _gather_parts(buf, offset, part, b, q, instr, reverse):
    # After rotation t, the first b elements of parts 1..t+1 sit contiguously
    # at `offset` and the part remainders stay in part order behind them.
    for t in range(1, q):
        rotate_right(buf, offset + t * b, offset + t * part + b, b, instr, reverse=reverse)


def _scatter_parts(buf, offset, part, b, q, instr, reverse):
    # Undo _gather_parts: the same windows in reverse order, each rotated
    # right by its width minus b.
    for t in range(q - 1, 0, -1):
        rotate_right(
            buf, offset + t * b, offset + t * part + b, t * (part - b), instr, reverse=reverse
        )


def _prime_shuffle_range(buf, lo, hi, q, instr, kernel):
    # The q-way shuffle of buf[lo:hi] for a prime q, block by block: gather
    # the block's slice of every part to the front of what remains, then
    # place the block by its cycle passes. The 2-way shuffles are q = 2.
    # `kernel` is the buffer's (reverse, walk) pair from _fastpath.kernel.
    reverse, walk = kernel
    if instr is not None:
        instr.note_aux(_DRIVER_AUX_WORDS)
    for start, modulus, p, j, count in _blocks(lo, hi, q):
        if j == 0:
            _bounded_cycle_shuffle(buf, start, modulus - 1, q, instr, walk)
            continue
        for offset in range(start, start + count * (modulus - 1), modulus - 1):
            _gather_parts(buf, offset, (hi - offset) // q, (modulus - 1) // q, q, instr, reverse)
            _general_cycle_passes(buf, offset, j, p, q, modulus, instr, walk)


def _prime_unshuffle_range(buf, lo, hi, q, instr, kernel):
    # Exact inverse of _prime_shuffle_range: undo the runs right to left,
    # the tail first, and each run's blocks right to left. A scan of the
    # tiling finds the run that ends at `done`; the tiling is rescanned per
    # run instead of being stored, which keeps the state constant.
    reverse, walk = kernel
    if instr is not None:
        instr.note_aux(_DRIVER_AUX_WORDS)
    done = hi
    while done > lo:
        for start, modulus, p, j, count in _blocks(lo, hi, q):
            if start + count * (modulus - 1) == done:
                break
        mult = pow(q, -1, modulus)
        for offset in range(done - modulus + 1, start - 1, 1 - modulus):
            if j == 0:
                _bounded_cycle_shuffle(buf, offset, modulus - 1, mult, instr, walk)
            else:
                _general_cycle_passes(buf, offset, j, p, mult, modulus, instr, walk)
                _scatter_parts(buf, offset, (hi - offset) // q, (modulus - 1) // q, q, instr, reverse)
        done = start


def _check_k_buffer(buf, k: int) -> None:
    if not 2 <= k <= MAX_K:
        raise ValueError(f"supported arities are 2..{MAX_K}, got {k}")
    validate_order(kway_kind(k), len(buf))


def k_shuffle(buf, k: int, instr=None) -> None:
    """In-place k-way shuffle: the element at 1-based i moves to k*i mod (len + 1).

    Prime arities use the cycle-leader construction directly; composite
    arities apply one pass per prime factor (with multiplicity), which
    composes to the same permutation.
    """
    _check_k_buffer(buf, k)
    kernel = _fastpath.kernel(buf)
    for q in _prime_factors(k):
        _prime_shuffle_range(buf, 0, len(buf), q, instr, kernel)


def k_unshuffle(buf, k: int, instr=None) -> None:
    """Exact inverse of :func:`k_shuffle`."""
    _check_k_buffer(buf, k)
    kernel = _fastpath.kernel(buf)
    for q in reversed(_prime_factors(k)):
        _prime_unshuffle_range(buf, 0, len(buf), q, instr, kernel)
