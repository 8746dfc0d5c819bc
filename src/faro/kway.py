"""k-way generalization of the in-place shuffle, for small k.

A k-way shuffle of kn elements cuts the array into k equal parts and
interleaves them, sending 1-based position i to k*i mod (kn + 1). Every
arity 2..9 runs in one pass, block by block, as the two-way construction
does. The paper reaches composite arities by composing one pass per prime
factor, and squares (4, 9) only that way, since a square residue is never a
primitive root; faro needs neither.

A block of m - 1 elements is placed by cycle leaders in constant space when
the cycles of x k mod m have leaders in closed form. Take an odd prime p
with k^(p-1) != 1 mod p^2, so that the order of k mod p^t is ord_p(k) *
p^(t-1). Then <k> holds the whole kernel of the reduction (Z/p^t)^x ->
(Z/p)^x, and its d = (p - 1) / ord_p(k) cosets are fixed by the residue mod
p, for every t. So each base p of the arity's table, ``_BASES``, comes with
``reps``, the smallest member c of each coset of <k mod p> in (Z/p)^x, and
gives two kinds of block:

  * modulus p^j: the d*j cycles are led by c * p^s, for s < j;
  * modulus 2p^j, odd k only: 2d*j cycles, led by c' * p^s and 2c * p^s,
    where c' is c, or c + p when c is even, so that it is odd; the position
    p^j is a fixed point.

These leaders are in closed form (Jain, arXiv:0805.1598, for d = 1; Fich,
Munro and Poblete, "Permuting in place", 1995), so one walk realizes a
whole ladder of them, c * p^s for s < j. When k = 1 mod p
every cycle of the last level would be a fixed point, so no table holds
such a p. At d = 1, k is a primitive root of p^2, which is the paper's case
and that of every 2-way base.

A block is admissible when k divides m - 1, so that each part contributes
a whole slice; the gather step is k - 1 successive right rotations, each
by conjoined triple reversal (the three reversals of triple reversal in
one sweep, about 1.5 moves per item of the window against 2), that pull
the first slice of each part to the front.
One gather makes them and counts their moves, and its inverse, the
scatter, likewise. A gather costs
in proportion to the window left, so the gaps of the block ladder set the
moves per element. Every admissible rung below 2^63 is listed once, largest
first, with its coset representatives, in one constant table of int64 rows
per arity, ``_table(k)``, so the greedy tiling takes one bisection per run
of equal blocks. The first call of an arity has the table built, by the
kernel's ``ladder`` entry, or without the kernel by its Python twin
``_loops._ladder``, and every later call reuses it.

Leftovers smaller than the smallest admissible block are bounded by the
table alone, so they are permuted by a constant-space minimum-leader sweep
whose quadratic cost is a constant independent of the buffer length.

This module holds the only shuffle driver, one pass over a range, forward
or inverse. The 2-way shuffles of ``shuffle`` are its k = 2 case.
The paper tiles them with 3^k - 1 blocks alone; faro's 2-way table has
32 odd bases, every power of which is admissible, and since 3 is among
them no tail is left.

A public call checks its arguments, calling ``validate_order`` only to raise,
and makes one call of ``_pass``: an exact list goes straight to the kernel's
``shuffle`` entry, which takes every one, and the rest, or all without a
kernel, to ``_fastpath.shuffle``, which runs the native pass or, on a
buffer the pass refuses, its Python twin, ``_loops._pure_pass``. The twin
tiles by ``_loops._blocks``, the tiling's reference; neither is compiled in
a process whose buffers all go native.

Each call mutates one buffer and assumes exclusive access to it while it
runs.
"""

from . import _fastpath
from .permcore import kway_kind, validate_order
# unused here; kept bound because perfbench swaps faro.kway.rotate_right by name
from .rotate import rotate_right  # noqa: F401

__all__ = ["k_shuffle", "k_unshuffle", "MAX_K"]

MAX_K = 9

# The bases of each arity k, as (p, reps): odd primes p coprime to k, with
# k^(p-1) != 1 mod p^2 and k != 1 mod p, each with the smallest member of
# every coset of <k mod p> in (Z/p)^x, at most 8 of them. Sorted by p. A
# test checks the table; nothing is searched at import. Each arity's 32
# bases were picked from the primes below 1500, greedily and then by swaps,
# to cut the moves over every length up to 6000 and, for k >= 3, the time
# of lists up to 2^16, where each walk and rotation cost microseconds
# from Python, or, for k = 2, the moves of random lengths up to 2^21. The
# base of the smallest admissible block stays, which at k = 2, 4, 5, 6 and
# 9 has k elements, so that only k = 3, 7 and 8 leave a tail. At k = 2 the
# candidates were only the primes with d = 1, so that a block p^j has j
# cycles, led by p^0 .. p^(j-1).
#
# _TABLE spells each base "p:c,c,...", or "p" alone when its one coset
# representative is 1 (k is a primitive root of p^2). Strings, since every
# import compiles this module where bytecode is not cached, and nested
# tuple literals of this size took 2.6 ms to compile against 0.06 ms.
_TABLE = {
    2: "3 5 11 13 19 29 37 53 59 61 67 101 139 181 211 269 317 389 419 467 509 547 587 659 773 "
        "907 947 1019 1091 1171 1237 1499",
    3: "5 7 17 19 29 31 37:1,2 43 47:1,5 53 59:1,2 67:1,2,4 71:1,7 79 89 97:1,5 113 127 139 149 "
        "157:1,2 163 199 211 223 227:1,2 233 241:1,7 257 641 809 1087",
    4: "5:1,2 7:1,3 11:1,2 13:1,2 17:1,2,3,6 19:1,2 29:1,2 37:1,2 41:1,2,3,6 53:1,2 59:1,2 "
        "61:1,2 67:1,2 71:1,7 83:1,2 101:1,2 139:1,2 149:1,2 173:1,2 181:1,2 197:1,2 199:1,3 "
        "211:1,2 229:1,2,3,5,6,7 239:1,7 317:1,2 461:1,2 557:1,2 977:1,2,3,6 1109:1,2 1301:1,2 "
        "1493:1,2",
    5: "3 7 11:1,2 13:1,2,4 23 41:1,3 43 53 61:1,2 83 101:1,2,4,8 109:1,2,4,8 131:1,2 139:1,2 "
        "151:1,3 179:1,2 211:1,2,4,8,16,29 229:1,2 239:1,7 311:1,11 421:1,2 593 863 911:1,7 953 "
        "1013 1051:1,2 1093 1283 1373 1481:1,3 1483",
    6: "7:1,2,3 11 13 19:1,2 31:1,2,3,4,8 41 53:1,2 59 61 67:1,2 73:1,5 79 89 "
        "97:1,2,3,4,5,7,10,20 103 109 127 139:1,2,3,4,8,9 151 157 181:1,2,3 199 211:1,2 223 233 "
        "277 397 547:1,2 757 1039 1249:1,7 1381",
    7: "11 13 23 29:1,2,4,8 37:1,2,3,5 41 43:1,2,3,4,5,9,10 47:1,5 53:1,2 61 67 71 79 97 107 "
        "127 131:1,2 137:1,3 139:1,2 151 163 197:1,2 211 239 251:1,2 379 463:1,2,4 547 739 1019 "
        "1187 1439",
    8: "5 13:1,2,4 17:1,3 19:1,2,4 41:1,3 43:1,3,7 47:1,5 53 61:1,2,4 67:1,2,4 83 "
        "89:1,3,5,9,11,13,19,33 97:1,2,4,5,10,19 101 113:1,3,5,9 137:1,3 149 179 "
        "193:1,2,4,5,10,11 199:1,2,3,4,6,11 211:1,2,4 223:1,3,5,9,13,19 233:1,3,5,7,9,17,27,29 "
        "239:1,7 313:1,2,3,5,10,15 401:1,3 457:1,3,5,7,13,31 569:1,3 809:1,3 929:1,3 1361:1,3 "
        "1481:1,3,5,11",
    9: "5:1,2 7:1,3 17:1,3 19:1,2 23:1,5 31:1,3 37:1,2,3,5 53:1,2 59:1,2 71:1,7 89:1,3 "
        "109:1,2,4,8 113:1,3 127:1,3 163:1,2 181:1,2,4,7 197:1,2 199:1,3 233:1,3 241:1,2,7,13 "
        "251:1,2 487:1,3 541:1,2,4,8 631:1,3 797:1,2 811:1,2 887:1,5 991:1,2,3,4,6,7 1031:1,7 "
        "1063:1,3 1283:1,2 1499:1,2",
}


def _bases(text):
    # the (p, reps) of each "p:c,c,..." or "p" in a _TABLE entry
    bases = []
    for base in text.split():
        p, _, reps = base.partition(":")
        bases.append((int(p), tuple(map(int, reps.split(","))) if reps else (1,)))
    return tuple(bases)


_BASES = {k: _bases(text) for k, text in _TABLE.items()}
_KINDS = {k: kway_kind(k) for k in _TABLE}

# aux accounting for every arity: the driver's locals plus those of its
# deepest callee, the coset representatives and their cursor among them,
# independent of input size
_DRIVER_AUX_WORDS = 26

# int64s per rung of a table: the modulus, p, j, d and 8 representatives
_ROW = 12
_TABLES = {}  # each arity's ladder, as _table built it


def _table(k):
    """k's block ladder, as the passes read it, built on the first call for k and kept in ``_TABLES``.

    One row of ``_ROW`` int64s per rung, largest modulus first: the modulus,
    p, j, the number d of p's coset representatives and the representatives,
    padded with zeros to 8. The rungs are every admissible modulus of k's
    bases below 2^63 (the kernel's int64 positions): p^j, and for odd k 2p^j
    (2p^j - 1 is odd), whenever k divides modulus - 1. An arity's ladder
    holds 179 to 324 rungs, so a process builds only those it uses. In a
    fresh process the kernel's ``ladder`` entry builds one in a median
    13-16 us; without the kernel, ``_loops._ladder`` builds the same bytes
    in 0.3-0.4 ms.
    """
    if k in _TABLES:
        return _TABLES[k]
    native = _fastpath._native
    if native is None:
        from . import _loops

        build = _loops._ladder
    else:
        build = native.ladder
    rows = build(k, _BASES[k])
    return _TABLES.setdefault(k, memoryview(rows).cast("q"))


def _pass(buf, lo, hi, k, inverse, instr):
    # one pass over buf[lo:hi], its counts added to instr; an exact list
    # goes straight to the kernel's entry, every other buffer by _fastpath
    native, table = _fastpath._native, _TABLES.get(k) or _table(k)
    run = native.shuffle if type(buf) is list and native else _fastpath.shuffle
    rotate, walk, tail, blocks, cycles = run(buf, lo, hi, k, inverse, table)
    if instr is not None:
        if instr.aux_words_peak < _DRIVER_AUX_WORDS:  # not max(), which parses keywords per call
            instr.aux_words_peak = _DRIVER_AUX_WORDS
        instr.rotate_moves += rotate
        instr.walk_moves += walk
        instr.tail_moves += tail
        instr.blocks += blocks
        instr.cycles += cycles


def _check_k_buffer(buf, k: int) -> None:
    if k not in _KINDS:
        raise ValueError(f"supported arities are 2..{MAX_K}, got {k}")
    validate_order(_KINDS[k], len(buf))


def k_shuffle(buf, k: int, instr=None) -> None:
    """In-place k-way shuffle: the element at 1-based i moves to k*i mod (len + 1).

    One pass of the cycle-leader construction, for every arity 2..9.
    """
    if k not in _KINDS or (n := len(buf)) % k:
        _check_k_buffer(buf, k)  # raises
    _pass(buf, 0, n, k, False, instr)


def k_unshuffle(buf, k: int, instr=None) -> None:
    """Exact inverse of :func:`k_shuffle`."""
    if k not in _KINDS or (n := len(buf)) % k:
        _check_k_buffer(buf, k)  # raises
    _pass(buf, 0, n, k, True, instr)
