"""Index maps and cycle analysis for the shuffle permutation families.

This is the pure math layer: positions are 1-based throughout, matching the
convention that an array of 2n cards occupies positions 1..2n and an
in-shuffle sends position i to 2i mod (2n+1). The buffer-mutating layer
(``faro.shuffle``) owns the conversion to 0-based storage.

Every kind is one affine map on an interior of positions (``_target_map``),
and ``validate_order`` is the one length rule, which the shuffles apply to
their buffers too.

Cycle decompositions here may use memory proportional to the order; they are
the analysis and test surface, not the in-place shuffling path.
"""

from collections import namedtuple
from math import lcm

from .numtheory import multiplicative_order

__all__ = [
    "ShuffleKind",
    "IN_SHUFFLE",
    "OUT_SHUFFLE",
    "kway_kind",
    "CycleDecomposition",
    "in_target",
    "out_target",
    "k_target",
    "cycle_decomposition",
    "permutation_order",
]


class ShuffleKind(namedtuple("ShuffleKind", "family k")):
    """A permutation family: perfect in-shuffle, out-shuffle, or k-way.

    ``k`` is the interleave arity; it is 2 for the in- and out-shuffle and
    at least 2 for the k-way family. A kind is an immutable named tuple,
    compared and hashed by value. ``kway_kind(2)`` names the same
    permutation as ``IN_SHUFFLE`` but does not compare equal to it.
    """

    __slots__ = ()

    def __new__(cls, family: str, k: int = 2):
        if family not in ("in", "out", "kway"):
            raise ValueError(f"unknown shuffle family {family!r}")
        if family == "kway":
            if k < 2:
                raise ValueError(f"k-way arity must be >= 2, got {k}")
        elif k != 2:
            raise ValueError(f"{family}-shuffle has fixed arity 2")
        return super().__new__(cls, family, k)

    def __str__(self):
        if self.family == "kway":
            return f"k:{self.k}"
        return self.family


IN_SHUFFLE = ShuffleKind("in")
OUT_SHUFFLE = ShuffleKind("out")


def kway_kind(k: int) -> ShuffleKind:
    return ShuffleKind("kway", k)


class CycleDecomposition(namedtuple("CycleDecomposition", "cycles order")):
    """Disjoint moving cycles of a permutation on {1..order}.

    Each cycle is rotated so its smallest position leads, and cycles are
    listed by increasing leader. Fixed points are omitted: only positions
    that actually move appear.
    """

    __slots__ = ()

    def moved_count(self) -> int:
        return sum(len(c) for c in self.cycles)


def in_target(i: int, order: int) -> int:
    """Destination of position i under the in-shuffle of `order` elements.

    The map is i -> 2i mod (order + 1) on 1-based positions.
    """
    return _target(IN_SHUFFLE, order, i)


def out_target(i: int, order: int) -> int:
    """Destination of position i under the out-shuffle of `order` elements.

    Positions 1 and `order` are fixed; the interior is the in-shuffle of
    order - 2 elements shifted by one.
    """
    return _target(OUT_SHUFFLE, order, i)


def k_target(i: int, order: int, k: int) -> int:
    """Destination of position i under the k-way shuffle: i -> k*i mod (order + 1)."""
    return _target(kway_kind(k), order, i)


def validate_order(kind: ShuffleKind, order: int) -> None:
    """Raise ValueError unless `order` is a legal length for `kind`.

    This is the one length rule, for buffers and index maps alike.
    """
    if kind.family == "kway":
        if order < 0 or order % kind.k != 0:
            raise ValueError(f"order {order} is not divisible by k={kind.k}")
    elif order < 0 or order % 2 != 0:
        raise ValueError(f"order must be even and >= 0, got {order}")
    elif kind.family == "out" and order < 2:
        raise ValueError(f"out-shuffle needs order >= 2, got {order}")


def _target(kind: ShuffleKind, order: int, i: int) -> int:
    validate_order(kind, order)
    if not 1 <= i <= order:
        raise ValueError(f"position {i} out of range 1..{order}")
    return _target_map(kind, order)(i)


def _target_map(kind: ShuffleKind, order: int):
    # Every kind is one map, i -> e + k(i - e) mod (order - 2e + 1) on
    # e < i <= order - e, with e = 1 for the out-shuffle, whose two ends
    # stay, and e = 0 otherwise. Positions outside that range are fixed.
    e = 1 if kind.family == "out" else 0
    k, modulus, last = kind.k, order - 2 * e + 1, order - e
    return lambda i: e + k * (i - e) % modulus if e < i <= last else i


def cycle_decomposition(kind: ShuffleKind, order: int) -> CycleDecomposition:
    """All moving cycles of the permutation, by visited-marking traversal.

    Scanning leaders in increasing position guarantees the canonical form:
    each cycle starts at its minimum and cycles appear in leader order.
    Uses one mark per position, so memory is proportional to `order`.
    """
    validate_order(kind, order)
    target = _target_map(kind, order)
    seen = bytearray(order + 1)
    cycles = []
    for lead in range(1, order + 1):
        if seen[lead]:
            continue
        j = target(lead)
        if j == lead:
            continue
        cycle = [lead]
        seen[lead] = 1
        while j != lead:
            cycle.append(j)
            seen[j] = 1
            j = target(j)
        cycles.append(tuple(cycle))
    return CycleDecomposition(cycles=tuple(cycles), order=order)


def permutation_order(kind: ShuffleKind, order: int) -> int:
    """Least t >= 1 with t applications of the shuffle equal to the identity.

    Computed as the lcm of the cycle lengths, which keeps it an independent
    check against the number-theoretic route (multiplicative order of the
    arity modulo order + 1).
    """
    decomposition = cycle_decomposition(kind, order)
    return lcm(*(len(c) for c in decomposition.cycles)) if decomposition.cycles else 1


def in_shuffle_order(order: int) -> int:
    """Number-theoretic route to the same quantity: ord of 2 mod (order + 1)."""
    validate_order(IN_SHUFFLE, order)
    if order == 0:
        return 1
    return multiplicative_order(2, order + 1)
