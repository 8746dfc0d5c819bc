"""k-way generalization of the in-place shuffle, for small k.

A k-way shuffle of kn elements cuts the array into k equal parts and
interleaves them, sending 1-based position i to k*i mod (kn + 1). The
two-way construction carries over once 3 is replaced by a suitable prime:

  * pick an odd prime p, coprime to k, with k a primitive root of p^2
    (and therefore of every power p^j);
  * blocks of p^j - 1 elements split into k cycles-per-level, led by the
    local positions p^0 .. p^(j-1);
  * the gather step becomes k - 1 successive right rotations that pull the
    first slice of each part to the front.

Block sizes must also be divisible by k so each part contributes a whole
slice; powers where that fails are skipped. Prime arities run directly this
way; composite k factors into prime passes, since consecutive passes with
arities q1, q2 compose to q1*q2*i mod (len + 1), the (q1*q2)-way map. That
also covers k whose power residues can never generate a full unit group
(4 and 9, being perfect squares, have no primitive-root base at all).

Leftovers smaller than the smallest admissible block are bounded by the
base alone, so they are permuted by a constant-space minimum-leader sweep
whose quadratic cost is a constant independent of the buffer length.

This module holds the only shuffle driver, one forward and one inverse
prime pass over a range. The 2-way shuffles of ``shuffle`` are its q = 2,
p = 3 case, where every power of 3 is admissible and no tail is left.

Each call mutates one buffer and assumes exclusive access to it while it
runs.
"""

from dataclasses import dataclass
from functools import cache
from math import gcd

from . import _fastpath
from .numtheory import euler_totient, is_primitive_root
from .rotate import rotate_right

__all__ = ["KwayBase", "find_base", "k_shuffle", "k_unshuffle", "MAX_K"]

MAX_K = 9
_PRIME_SEARCH_LIMIT = 100

# aux accounting for every arity, 2-way included: the driver's locals plus
# those of its deepest callee, independent of input size
_DRIVER_AUX_WORDS = 24


@dataclass(frozen=True)
class KwayBase:
    """A prime base p whose powers give cycle-leader blocks for arity k."""

    k: int
    p: int

    def __post_init__(self):
        if __debug__:
            for j in (1, 2, 3, 4):
                assert is_primitive_root(self.k, self.p**j), (
                    f"{self.k} is not a primitive root of {self.p}^{j}"
                )


@cache
def find_base(k: int) -> KwayBase:
    """Smallest odd prime p <= 100 making k a primitive root of p^2.

    Raises ValueError("no base found ...") when the bounded search fails,
    which marks the arity as unsupported by the direct construction; squares
    such as k = 4 or 9 can never qualify, since their residues only reach
    half of any unit group.
    """
    _check_arity(k)
    for p in range(3, _PRIME_SEARCH_LIMIT + 1, 2):
        # phi(p) = p - 1 exactly when p is prime
        if euler_totient(p) == p - 1 and gcd(k, p) == 1 and is_primitive_root(k, p * p):
            return KwayBase(k=k, p=p)
    raise ValueError(f"no base found for k={k} among odd primes <= {_PRIME_SEARCH_LIMIT}")


def _check_arity(k: int) -> None:
    if not 2 <= k <= MAX_K:
        raise ValueError(f"supported arities are 2..{MAX_K}, got {k}")


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


def _blocks(lo, hi, p, q):
    """Greedy tiling of [lo, hi), left to right, as (offset, modulus, j).

    Each block holds modulus - 1 = p^j - 1 elements and is the largest
    admissible one that fits what remains. Admissible means q | p^j - 1,
    which holds exactly when e = ord_q(p) divides j, so the scan steps
    through p^e, p^2e, ... and never tests a power it cannot use. Blocks
    never grow along the tiling, so the scan climbs once, then only
    descends. What fits no block comes last, as a tail with j = 0 and
    modulus = its length + 1; at q = 2, p = 3 there is never a tail.
    """
    step, e = p, 1
    while step % q != 1:
        step *= p
        e += 1
    modulus, j = 1, 0
    while modulus * step - 1 <= hi - lo:
        modulus *= step
        j += e
    offset = lo
    while j > 0:
        if modulus - 1 <= hi - offset:
            yield offset, modulus, j
            offset += modulus - 1
        else:
            modulus //= step
            j -= e
    if offset < hi:
        yield offset, hi - offset + 1, 0


def _general_cycle_passes(buf, offset, j, p, mult, modulus, instr):
    # leaders p^s for s = 0..j-1; the cycle led by p^s has length
    # phi(p^(j-s)), so the passes place all p^j - 1 elements exactly once
    walk = _fastpath.walk_fn(buf)
    base = offset - 1
    leader = 1
    level = modulus
    for _ in range(j):
        walk(buf, base, leader, mult, modulus)
        if instr is not None:
            instr.add_moves(level // p * (p - 1) + 1)
        leader *= p
        level //= p


def _bounded_cycle_shuffle(buf, offset, length, mult, instr):
    # Permute buf[offset : offset+length] by local i -> i*mult mod (length+1)
    # using the minimum-of-orbit leader rule: a position starts a cycle only
    # if probing its whole orbit meets nothing smaller. Quadratic in `length`
    # and constant space; callers only use it for block-plan leftovers, whose
    # size is bounded by the base, not the buffer.
    modulus = length + 1
    walk = _fastpath.walk_fn(buf)
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
        walk(buf, base, lead, mult, modulus)
        moves += steps + 1
    if instr is not None:
        instr.add_moves(moves)


def _gather_parts(buf, offset, part, b, q, instr):
    # After rotation t, the first b elements of parts 1..t+1 sit contiguously
    # at `offset` and the part remainders stay in part order behind them.
    for t in range(1, q):
        rotate_right(buf, offset + t * b, offset + t * part + b, b, instr)


def _scatter_parts(buf, offset, part, b, q, instr):
    # Undo _gather_parts: the same windows in reverse order, each rotated
    # right by its width minus b.
    for t in range(q - 1, 0, -1):
        rotate_right(buf, offset + t * b, offset + t * part + b, t * (part - b), instr)


def _prime_shuffle_range(buf, lo, hi, q, instr):
    # The q-way shuffle of buf[lo:hi] for a prime q, block by block: gather
    # the block's slice of every part to the front of what remains, then
    # place the block by its cycle passes. The 2-way shuffles are q = 2.
    if instr is not None:
        instr.note_aux(_DRIVER_AUX_WORDS)
    p = find_base(q).p
    for offset, modulus, j in _blocks(lo, hi, p, q):
        if j == 0:
            _bounded_cycle_shuffle(buf, offset, modulus - 1, q, instr)
        else:
            _gather_parts(buf, offset, (hi - offset) // q, (modulus - 1) // q, q, instr)
            _general_cycle_passes(buf, offset, j, p, q, modulus, instr)


def _prime_unshuffle_range(buf, lo, hi, q, instr):
    # Exact inverse of _prime_shuffle_range: undo the items right to left,
    # the tail first. The tiling is rescanned for each item instead of being
    # stored, which keeps the state constant; the scans total O(blocks^2).
    if instr is not None:
        instr.note_aux(_DRIVER_AUX_WORDS)
    p = find_base(q).p
    done = hi
    while done > lo:
        for offset, modulus, j in _blocks(lo, hi, p, q):
            if offset + modulus - 1 == done:
                break
        mult = pow(q, -1, modulus)
        if j == 0:
            _bounded_cycle_shuffle(buf, offset, modulus - 1, mult, instr)
        else:
            _general_cycle_passes(buf, offset, j, p, mult, modulus, instr)
            _scatter_parts(buf, offset, (hi - offset) // q, (modulus - 1) // q, q, instr)
        done = offset


def _check_k_buffer(buf, k: int) -> None:
    _check_arity(k)
    if len(buf) % k != 0:
        raise ValueError(f"length {len(buf)} is not divisible by k={k}")


def k_shuffle(buf, k: int, instr=None) -> None:
    """In-place k-way shuffle: the element at 1-based i moves to k*i mod (len + 1).

    Prime arities use the cycle-leader construction directly; composite
    arities apply one pass per prime factor (with multiplicity), which
    composes to the same permutation.
    """
    _check_k_buffer(buf, k)
    for q in _prime_factors(k):
        _prime_shuffle_range(buf, 0, len(buf), q, instr)


def k_unshuffle(buf, k: int, instr=None) -> None:
    """Exact inverse of :func:`k_shuffle`."""
    _check_k_buffer(buf, k)
    for q in reversed(_prime_factors(k)):
        _prime_unshuffle_range(buf, 0, len(buf), q, instr)
