"""In-place perfect shuffles in linear time and constant extra space.

The in-shuffle of 2n elements sends 1-based position i to 2i mod (2n + 1).
Direct cycle-following needs a way to find each cycle in constant space, and
that exists exactly when 2n = 3^k - 1: the multiplicative group mod 3^k is
generated by 2, so the k cycles are led by local positions 3^0 .. 3^(k-1)
and the cycle led by 3^s has length phi(3^k) / 3^s.

General even lengths reduce to that case:

    1. take the largest block 2m = 3^k - 1 that fits the remaining window;
    2. right-rotate the middle of the window so the block's two halves
       become adjacent (triple reversal, one temporary; faro makes its
       three reversals in one sweep, by conjoined triple reversal);
    3. run the k cycle-leader passes on the block;
    4. advance past the block and repeat on the rest.

That is the paper's construction. faro runs it as the k = 2 case of the
one-pass driver in ``kway``, which serves every arity 2..9 without the
paper's composition of prime passes, and there is only that one driver:
the four functions here check their arguments and run it on [0, n), or on
the interior [1, n - 1) for the out-shuffles. The driver tiles with a denser
ladder than 3^k - 1 alone: 2 is a primitive root of p^2, hence of every
p^k, for each of its 32 odd bases p (3 to 1499, ``kway._BASES[2]``), so
every block p^k - 1 has the k cycle leaders p^0 .. p^(k-1). The smaller
gaps between blocks leave smaller windows to rotate after each block.
Step 4 is a loop, not a recursion, so control state stays constant. Each
element is placed once by its block's cycle-leader pass and touched a
bounded number of times by rotations, giving at most a small constant
times the length in single-element moves.

The buffer layer is 0-based half-open; every call into the 1-based math
above documents the shift. Buffers are anything indexable with integer
get/set and a length: lists, numpy arrays, other memory, or ``RecordBuffer``
views over packed bytes; each that the compiled kernel takes runs its
one-call pass (see ``kway``), and the rest the pure-Python twin.

Every operation mutates exactly one buffer and assumes exclusive access to
it for the duration of the call; there is no shared state, so distinct
buffers can be shuffled concurrently.
"""

from .kway import _pass
from .permcore import IN_SHUFFLE, OUT_SHUFFLE, validate_order
# unused here; kept bound because perfbench swaps faro.shuffle.rotate_right by name
from .rotate import rotate_right  # noqa: F401

__all__ = [
    "Instrumentation",
    "RecordBuffer",
    "in_shuffle",
    "un_shuffle",
    "out_shuffle",
    "un_out_shuffle",
]


class Instrumentation:
    """Operation counters that make the complexity claims measurable.

    ``moves`` counts single-element move operations: every element written
    into the buffer, plus one temporary load per cycle-leader pass (the hold
    slot). A swap contributes two moves. It is the sum of three layers:
    ``rotate_moves`` (the gather and scatter rotations),
    ``walk_moves`` (the cycle-leader walks of the blocks) and ``tail_moves``
    (the leftover sweep of the arities whose smallest block leaves one).

    ``blocks`` counts the blocks placed, a leftover tail as one, and
    ``cycles`` the cycles walked, the tail's included. A block of modulus
    m walks its m - 1 elements, less the fixed point of a 2p^j block, plus
    one hold per cycle, so the walk and tail moves are the moving positions
    plus ``cycles``.

    ``aux_words_peak`` is the high-water mark of auxiliary state declared by
    the routines: element-sized temporaries plus integer bookkeeping slots,
    as documented constants per routine. The in-place property shows up as
    this peak staying a small constant regardless of buffer length. It
    declares what the tests check on the program: the compiled pass's
    frames are bounded and call no allocator, and the heap peak of a pass
    of its Python twin does not grow with the buffer.

    Every counter starts at 0. Two instances are equal when all their
    counters are, and being mutable, they are not hashable.

    Pass ``instr=None`` to any operation to skip counting entirely.
    """

    __slots__ = ("rotate_moves", "walk_moves", "tail_moves", "blocks", "cycles", "aux_words_peak")

    def __init__(self, rotate_moves=0, walk_moves=0, tail_moves=0, blocks=0, cycles=0,
                 aux_words_peak=0):
        self.rotate_moves = rotate_moves
        self.walk_moves = walk_moves
        self.tail_moves = tail_moves
        self.blocks = blocks
        self.cycles = cycles
        self.aux_words_peak = aux_words_peak

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self):
        counters = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({counters})"

    @property
    def moves(self) -> int:
        return self.rotate_moves + self.walk_moves + self.tail_moves


class RecordBuffer:
    """Mutable sequence of fixed-size records over a buffer of bytes.

    Records are opaque: the shuffles read, hold and write whole records and
    never look inside. The backing buffer, a bytearray or an mmap, say, is
    shared, not copied.
    """

    __slots__ = ("data", "record_size")

    def __init__(self, data: bytearray, record_size: int):
        if record_size < 1:
            raise ValueError(f"record size must be >= 1, got {record_size}")
        if memoryview(data).nbytes != len(data):  # so that len(data) counts bytes
            raise ValueError(f"a buffer of {len(data)} items that are not single bytes")
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


def in_shuffle(buf, instr=None) -> None:
    """In-place in-shuffle: the element at 1-based i moves to 2i mod (len + 1).

    Equivalently, the second half is interleaved into the first with the
    first card of the second half coming out on top.
    """
    if (n := len(buf)) % 2:
        validate_order(IN_SHUFFLE, n)
    _pass(buf, 0, n, 2, False, instr)


def un_shuffle(buf, instr=None) -> None:
    """Exact inverse of :func:`in_shuffle`, block by block in reverse."""
    if (n := len(buf)) % 2:
        validate_order(IN_SHUFFLE, n)
    _pass(buf, 0, n, 2, True, instr)


def out_shuffle(buf, instr=None) -> None:
    """In-place out-shuffle: first and last elements stay put.

    The interior len - 2 elements undergo an in-shuffle, which is the whole
    permutation of the interleave that keeps the original top card on top.
    """
    if (n := len(buf)) % 2 or n < 2:
        validate_order(OUT_SHUFFLE, n)
    _pass(buf, 1, n - 1, 2, False, instr)


def un_out_shuffle(buf, instr=None) -> None:
    """Exact inverse of :func:`out_shuffle`."""
    if (n := len(buf)) % 2 or n < 2:
        validate_order(OUT_SHUFFLE, n)
    _pass(buf, 1, n - 1, 2, True, instr)
