"""In-place perfect (faro) shuffles in linear time and constant extra space.

The library permutes arbitrary even-length buffers (and k-way divisible ones)
without scratch arrays, by reducing each length to blocks of p^j - 1 elements
(3^k - 1 for the 2-way shuffles) whose shuffle cycles are located in closed
form. Instrumentation counters certify the linear-move and
constant-auxiliary-space behaviour, a naive out-of-place oracle supplies
ground truth, and the ``faro`` CLI applies the permutations to files of
fixed-size records.
"""

from .kway import KwayBase, find_base, k_shuffle, k_unshuffle
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
    Block,
    BlockPlan,
    Instrumentation,
    RecordBuffer,
    in_shuffle,
    out_shuffle,
    plan_blocks,
    un_out_shuffle,
    un_shuffle,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockPlan",
    "CycleDecomposition",
    "IN_SHUFFLE",
    "Instrumentation",
    "KwayBase",
    "OUT_SHUFFLE",
    "RecordBuffer",
    "ShuffleKind",
    "cycle_decomposition",
    "euler_totient",
    "find_base",
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
    "plan_blocks",
    "reverse_range",
    "rotate_right",
    "un_out_shuffle",
    "un_shuffle",
]
