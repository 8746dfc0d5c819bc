"""In-place perfect (faro) shuffles in linear time and constant extra space.

The library permutes arbitrary even-length buffers (and k-way divisible ones)
without scratch arrays, by reducing each length to blocks of p^j - 1 elements
(and 2p^j - 1 for odd k) whose shuffle cycles are located in closed form.
The paper's 2-way blocks are 3^k - 1; faro tiles the 2-way shuffles with the
powers of 32 bases p, 3 among them. Where the paper composes one pass per
prime factor of k, faro shuffles every arity 2..9 in one pass, with cycle
leaders c * p^s for c over the coset representatives of <k> mod p.
Instrumentation counters certify the linear-move and constant-auxiliary-
space behaviour, a naive out-of-place oracle supplies ground truth, and the
``faro`` CLI applies the permutations to files of fixed-size records.
"""

from .kway import k_shuffle, k_unshuffle
from .numtheory import euler_totient, is_primitive_root, multiplicative_order
from .oracle import oracle_interleave, oracle_shuffle
from .permcore import (
    IN_SHUFFLE,
    OUT_SHUFFLE,
    CycleDecomposition,
    ShuffleKind,
    cycle_decomposition,
    in_target,
    k_target,
    kway_kind,
    out_target,
    permutation_order,
)
from .rotate import reverse_range, rotate_right
from .shuffle import (
    Instrumentation,
    RecordBuffer,
    in_shuffle,
    out_shuffle,
    un_out_shuffle,
    un_shuffle,
)

__version__ = "0.1.0"

__all__ = [
    "CycleDecomposition",
    "IN_SHUFFLE",
    "Instrumentation",
    "OUT_SHUFFLE",
    "RecordBuffer",
    "ShuffleKind",
    "cycle_decomposition",
    "euler_totient",
    "in_shuffle",
    "in_target",
    "is_primitive_root",
    "k_shuffle",
    "k_target",
    "k_unshuffle",
    "kway_kind",
    "multiplicative_order",
    "oracle_interleave",
    "oracle_shuffle",
    "out_shuffle",
    "out_target",
    "permutation_order",
    "reverse_range",
    "rotate_right",
    "un_out_shuffle",
    "un_shuffle",
]
