"""k-way generalization of the in-place shuffle, for small k.

A k-way shuffle of kn elements cuts the array into k equal parts and
interleaves them, sending 1-based position i to k*i mod (kn + 1). The
two-way machinery carries over once 3 is replaced by a suitable prime:

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

As with the two-way core, each call mutates one buffer and assumes
exclusive access to it while it runs.
"""

from dataclasses import dataclass
from math import gcd

from . import _fastpath
from .numtheory import is_primitive_root
from .rotate import rotate_right

__all__ = ["KwayBase", "find_base", "k_shuffle", "k_unshuffle", "MAX_K"]

MAX_K = 9
_PRIME_SEARCH_LIMIT = 100

# aux accounting: driver locals + deepest callee, independent of input size
_KWAY_AUX_WORDS = 24
_TAIL_AUX_WORDS = 9


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


def _odd_primes_to(limit: int):
    sieve = bytearray([1]) * (limit + 1)
    for n in range(2, limit + 1):
        if sieve[n]:
            for mult in range(n * n, limit + 1, n):
                sieve[mult] = 0
    return [n for n in range(3, limit + 1) if sieve[n]]


def find_base(k: int) -> KwayBase:
    """Smallest odd prime p <= 100 making k a primitive root of p^2.

    Raises ValueError("no base found ...") when the bounded search fails,
    which marks the arity as unsupported by the direct construction; squares
    such as k = 4 or 9 can never qualify, since their residues only reach
    half of any unit group.
    """
    _check_arity(k)
    for p in _odd_primes_to(_PRIME_SEARCH_LIMIT):
        if gcd(k, p) == 1 and is_primitive_root(k, p * p):
            return KwayBase(k=k, p=p)
    raise ValueError(f"no base found for k={k} among odd primes <= {_PRIME_SEARCH_LIMIT}")


def _check_arity(k: int) -> None:
    if not 2 <= k <= MAX_K:
        raise ValueError(f"supported arities are 2..{MAX_K}, got {k}")


_BASES: dict[int, KwayBase] = {}


def _base_for(q: int) -> KwayBase:
    if q not in _BASES:
        _BASES[q] = find_base(q)
    return _BASES[q]


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


def _largest_admissible(remaining: int, p: int, q: int):
    """Largest (p^j, j) with p^j - 1 <= remaining and q | p^j - 1, else None."""
    modulus, j = 1, 0
    best = None
    while modulus * p - 1 <= remaining:
        modulus *= p
        j += 1
        if (modulus - 1) % q == 0:
            best = (modulus, j)
    return best


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
    if length == 0:
        return
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
        instr.note_aux(_TAIL_AUX_WORDS)


def _gather_parts(buf, offset, part, b, q, instr):
    # After rotation t, the first b elements of parts 1..t+1 sit contiguously
    # at `offset` and the part remainders stay in part order behind them.
    for t in range(1, q):
        lo = offset + t * b
        hi = offset + t * part + b
        rotate_right(buf, lo, hi, b, instr)


def _prime_shuffle_range(buf, lo, hi, q, instr):
    p = _base_for(q).p
    offset, remaining = lo, hi - lo
    while remaining > 0:
        found = _largest_admissible(remaining, p, q)
        if found is None:
            _bounded_cycle_shuffle(buf, offset, remaining, q, instr)
            return
        modulus, j = found
        block = modulus - 1
        _gather_parts(buf, offset, remaining // q, block // q, q, instr)
        _general_cycle_passes(buf, offset, j, p, q, modulus, instr)
        offset += block
        remaining -= block


def _prime_unshuffle_range(buf, lo, hi, q, instr):
    p = _base_for(q).p
    # locate the leftover tail, which the forward pass permuted last
    offset, remaining = lo, hi - lo
    while remaining > 0:
        found = _largest_admissible(remaining, p, q)
        if found is None:
            break
        offset += found[0] - 1
        remaining -= found[0] - 1
    if remaining > 0:
        _bounded_cycle_shuffle(buf, offset, remaining, pow(q, -1, remaining + 1), instr)
    # undo full blocks right to left, rescanning the greedy tiling each time
    done = offset
    while done > lo:
        offset, remaining = lo, hi - lo
        while True:
            modulus, j = _largest_admissible(remaining, p, q)
            block = modulus - 1
            if offset + block >= done:
                break
            offset += block
            remaining -= block
        assert offset + block == done, "rewind landed off a block boundary"
        _general_cycle_passes(buf, offset, j, p, pow(q, -1, modulus), modulus, instr)
        part, b = remaining // q, block // q
        for t in range(q - 1, 0, -1):
            w_lo = offset + t * b
            w_hi = offset + t * part + b
            rotate_right(buf, w_lo, w_hi, (w_hi - w_lo) - b, instr)
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
    if instr is not None:
        instr.note_aux(_KWAY_AUX_WORDS)
    for q in _prime_factors(k):
        _prime_shuffle_range(buf, 0, len(buf), q, instr)


def k_unshuffle(buf, k: int, instr=None) -> None:
    """Exact inverse of :func:`k_shuffle`."""
    _check_k_buffer(buf, k)
    if instr is not None:
        instr.note_aux(_KWAY_AUX_WORDS)
    for q in reversed(_prime_factors(k)):
        _prime_unshuffle_range(buf, 0, len(buf), q, instr)
