"""In-place perfect shuffles in linear time and constant extra space.

The in-shuffle of 2n elements sends 1-based position i to 2i mod (2n + 1).
Direct cycle-following needs a way to find each cycle in constant space, and
that exists exactly when 2n = 3^k - 1: the multiplicative group mod 3^k is
generated by 2, so the k cycles are led by local positions 3^0 .. 3^(k-1)
and the cycle led by 3^s has length phi(3^k) / 3^s.

General even lengths reduce to that case:

    1. take the largest block 2m = 3^k - 1 that fits the remaining window;
    2. right-rotate the middle of the window so the block's two halves
       become adjacent (triple reversal, one temporary);
    3. run the k cycle-leader passes on the block;
    4. advance past the block and repeat on the rest.

Step 4 is a loop, not a recursion, so control state stays constant. Each
element is placed once by its block's cycle-leader pass and touched a
bounded number of times by rotations, giving at most a small constant times
the length in single-element moves.

The buffer layer is 0-based half-open; every call into the 1-based math
above documents the shift. Buffers are anything indexable with integer
get/set and a length: lists, numpy arrays, or ``RecordBuffer`` views over
packed bytes; ``_fastpath`` sends the last two to the native kernel.

Every operation mutates exactly one buffer and assumes exclusive access to
it for the duration of the call; there is no shared state, so distinct
buffers can be shuffled concurrently.
"""

from dataclasses import dataclass

from . import _fastpath
from .rotate import rotate_right

__all__ = [
    "Instrumentation",
    "Block",
    "BlockPlan",
    "RecordBuffer",
    "plan_blocks",
    "gather_rotate",
    "cycle_leader_pass",
    "in_shuffle",
    "un_shuffle",
    "out_shuffle",
    "un_out_shuffle",
]

# aux accounting upper bounds (element temporaries + integer locals kept
# live by the routine and its deepest callee); all independent of input size
_CYCLE_LEADER_AUX_WORDS = 8
_DRIVER_AUX_WORDS = 14
_UNDO_DRIVER_AUX_WORDS = 18


@dataclass
class Instrumentation:
    """Operation counters that make the complexity claims measurable.

    ``moves`` counts single-element move operations: every element written
    into the buffer, plus one temporary load per cycle-leader pass (the hold
    slot). A swap contributes two moves.

    ``aux_words_peak`` is the high-water mark of auxiliary state declared by
    the routines: element-sized temporaries plus integer bookkeeping slots,
    as documented constants per routine. The in-place property shows up as
    this peak staying a small constant regardless of buffer length.

    Pass ``instr=None`` to any operation to skip counting entirely.
    """

    moves: int = 0
    aux_words_peak: int = 0

    def add_moves(self, n: int) -> None:
        self.moves += n

    def note_aux(self, words: int) -> None:
        if words > self.aux_words_peak:
            self.aux_words_peak = words


class RecordBuffer:
    """Mutable sequence of fixed-size records over a contiguous bytearray.

    Records are opaque: the shuffles read, hold and write whole records and
    never look inside. The backing bytearray is shared, not copied.
    """

    __slots__ = ("data", "record_size")

    def __init__(self, data: bytearray, record_size: int):
        if record_size < 1:
            raise ValueError(f"record size must be >= 1, got {record_size}")
        if len(data) % record_size != 0:
            raise ValueError(
                f"buffer of {len(data)} bytes is not a whole number of "
                f"{record_size}-byte records"
            )
        self.data = data
        self.record_size = record_size

    def __len__(self) -> int:
        return len(self.data) // self.record_size

    def __getitem__(self, i: int) -> bytes:
        rs = self.record_size
        if not 0 <= i < len(self):
            raise IndexError(f"record {i} out of range")
        return bytes(self.data[i * rs : (i + 1) * rs])

    def __setitem__(self, i: int, record) -> None:
        rs = self.record_size
        if not 0 <= i < len(self):
            raise IndexError(f"record {i} out of range")
        if len(record) != rs:
            raise ValueError(f"record must be {rs} bytes, got {len(record)}")
        self.data[i * rs : (i + 1) * rs] = record

    def tobytes(self) -> bytes:
        return bytes(self.data)


@dataclass(frozen=True)
class Block:
    """One cycle-leader sub-problem: 2m = 3^k - 1 elements at `offset`."""

    offset: int
    m: int
    k: int

    @property
    def size(self) -> int:
        return 2 * self.m


@dataclass(frozen=True)
class BlockPlan:
    """Greedy tiling of a length into 3^k - 1 blocks, left to right."""

    blocks: tuple[Block, ...]
    total: int


def _largest_block(remaining: int) -> tuple[int, int]:
    """Largest modulus 3^k with 3^k - 1 <= remaining; needs remaining >= 2."""
    modulus, k = 3, 1
    while modulus * 3 - 1 <= remaining:
        modulus *= 3
        k += 1
    return modulus, k


def plan_blocks(total: int) -> BlockPlan:
    """Tile `total` elements with the largest 3^k - 1 block at each step.

    The greedy rule keeps every block at least a third of what remains, so
    the number of blocks is logarithmic and rotation work stays linear.
    """
    if total < 0 or total % 2 != 0:
        raise ValueError(f"length must be even and >= 0, got {total}")
    blocks = []
    offset, remaining = 0, total
    while remaining > 0:
        modulus, k = _largest_block(remaining)
        blocks.append(Block(offset=offset, m=(modulus - 1) // 2, k=k))
        offset += modulus - 1
        remaining -= modulus - 1
    return BlockPlan(blocks=tuple(blocks), total=total)


def gather_rotate(buf, offset: int, n: int, m: int, instr=None) -> None:
    """Bring the block's second half next to its first half.

    Within the window of 2n remaining elements at `offset`, right-rotates
    the 1-based slice [m+1, n+m] by distance m, i.e. the 0-based half-open
    range [offset+m, offset+n+m). When m = n the rotation distance equals
    the window and nothing moves.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if offset < 0 or offset + 2 * n > len(buf):
        raise ValueError(
            f"window of {2 * n} at offset {offset} exceeds length {len(buf)}"
        )
    rotate_right(buf, offset + m, offset + n + m, m, instr)


def _cycle_passes(buf, offset: int, k: int, mult: int, modulus: int, instr) -> None:
    # leaders are local 1-based positions 3^s for s = 0..k-1; the slot of
    # local position j is offset + j - 1
    walk = _fastpath.walk_fn(buf)
    base = offset - 1
    leader = 1
    cycle_len = 2 * modulus // 3  # phi(3^k), then divided by 3 per level
    for _ in range(k):
        walk(buf, base, leader, mult, modulus)
        if instr is not None:
            instr.add_moves(cycle_len + 1)
        leader *= 3
        cycle_len //= 3
    if instr is not None:
        instr.note_aux(_CYCLE_LEADER_AUX_WORDS)


def cycle_leader_pass(buf, offset: int, k: int, instr=None) -> None:
    """In-shuffle the 3^k - 1 elements at `offset` by cycle leading.

    For each leader, one element is held in a temporary while the orbit of
    j -> 2j mod 3^k is walked, placing every block element exactly once;
    the pass costs (3^k - 1) + k moves and one element temporary.
    """
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    modulus = 3**k
    if offset < 0 or offset + modulus - 1 > len(buf):
        raise ValueError(
            f"block of {modulus - 1} at offset {offset} exceeds length {len(buf)}"
        )
    _cycle_passes(buf, offset, k, 2, modulus, instr)


def _in_shuffle_range(buf, lo: int, hi: int, instr) -> None:
    # the tail-recursive step of the reduction, flattened to a loop
    if instr is not None:
        instr.note_aux(_DRIVER_AUX_WORDS)
    offset, remaining = lo, hi - lo
    while remaining > 0:
        modulus, k = _largest_block(remaining)
        block = modulus - 1
        gather_rotate(buf, offset, remaining // 2, block // 2, instr)
        _cycle_passes(buf, offset, k, 2, modulus, instr)
        offset += block
        remaining -= block


def _un_shuffle_range(buf, lo: int, hi: int, instr) -> None:
    # Undo blocks right to left. The forward tiling is recomputed by a fresh
    # greedy scan per block instead of materializing the plan, keeping
    # auxiliary state constant; the scans total O(log^2) index arithmetic.
    if instr is not None:
        instr.note_aux(_UNDO_DRIVER_AUX_WORDS)
    done = hi
    while done > lo:
        offset, remaining = lo, hi - lo
        while True:
            modulus, k = _largest_block(remaining)
            block = modulus - 1
            if offset + block >= done:
                break
            offset += block
            remaining -= block
        assert offset + block == done, "rewind landed off a block boundary"
        # invert one forward step: cycle passes with the inverse map
        # (multiplier = inverse of 2 mod 3^k), then the opposite rotation
        _cycle_passes(buf, offset, k, (modulus + 1) // 2, modulus, instr)
        n, m = remaining // 2, block // 2
        rotate_right(buf, offset + m, offset + n + m, n - m, instr)
        done = offset


def _check_even(buf) -> int:
    n = len(buf)
    if n % 2 != 0:
        raise ValueError(f"in-shuffle is defined only for even lengths, got {n}")
    return n


def in_shuffle(buf, instr=None) -> None:
    """In-place in-shuffle: the element at 1-based i moves to 2i mod (len + 1).

    Equivalently, the second half is interleaved into the first with the
    first card of the second half coming out on top.
    """
    n = _check_even(buf)
    _in_shuffle_range(buf, 0, n, instr)


def un_shuffle(buf, instr=None) -> None:
    """Exact inverse of :func:`in_shuffle`, block by block in reverse."""
    n = _check_even(buf)
    _un_shuffle_range(buf, 0, n, instr)


def out_shuffle(buf, instr=None) -> None:
    """In-place out-shuffle: first and last elements stay put.

    The interior len - 2 elements undergo an in-shuffle, which is the whole
    permutation of the interleave that keeps the original top card on top.
    """
    n = _check_even(buf)
    if n < 2:
        raise ValueError(f"out-shuffle needs at least 2 elements, got {n}")
    _in_shuffle_range(buf, 1, n - 1, instr)


def un_out_shuffle(buf, instr=None) -> None:
    """Exact inverse of :func:`out_shuffle`."""
    n = _check_even(buf)
    if n < 2:
        raise ValueError(f"out-shuffle needs at least 2 elements, got {n}")
    _un_shuffle_range(buf, 1, n - 1, instr)
