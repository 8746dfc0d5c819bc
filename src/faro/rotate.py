"""Range reversal and cyclic shift by triple reversal, on lists: private.

Not part of faro's public surface, and nothing in faro calls it: a block's
rotations are one gather, by conjoined triple reversal. It stays only
because perfbench's ``TARGETS`` name ``faro.rotate.reverse_range``, and
``faro.kway`` and ``faro.shuffle`` bind ``rotate_right`` from here for the
same reason; it goes once perfbench reads its layers from the counters
(ROADMAP item 1b).

Ranges are 0-based and half-open. A right cyclic shift of window [lo, hi)
by distance d is

    reverse [lo, hi); reverse [lo, lo+d); reverse [lo+d, hi)

at 2 * (w//2 + d//2 + (w-d)//2) moves for a window of w items, with one
item-sized temporary. Both functions take lists alone, which they reverse
by swaps of their own: this module is imported with ``kway``, and leaves
``_loops``, the Python twin, off that path.
"""

# aux accounting: 1 element temporary + 2 cursor words
_REVERSE_AUX_WORDS = 3
# reversal's slots + window/distance bookkeeping
_ROTATE_AUX_WORDS = 5


def _check_range(buf, lo: int, hi: int) -> None:
    if not isinstance(buf, list):
        raise TypeError(f"expected a list, got {type(buf).__name__}")
    if not 0 <= lo <= hi <= len(buf):
        raise ValueError(f"range [{lo}, {hi}) out of bounds for length {len(buf)}")


def _reverse(buf, lo, hi):
    # swap ends inward: (hi - lo) // 2 swaps, one temporary per swap
    hi -= 1
    while lo < hi:
        buf[lo], buf[hi] = buf[hi], buf[lo]
        lo += 1
        hi -= 1


def reverse_range(buf, lo: int, hi: int, instr=None) -> None:
    """Reverse buf[lo:hi] in place with (hi - lo) // 2 swaps."""
    _check_range(buf, lo, hi)
    _reverse(buf, lo, hi)
    if instr is not None:
        instr.rotate_moves += 2 * ((hi - lo) // 2)
        instr.aux_words_peak = max(instr.aux_words_peak, _REVERSE_AUX_WORDS)


def rotate_right(buf, lo: int, hi: int, d: int, instr=None) -> None:
    """Cyclic right shift of buf[lo:hi] by d slots, by triple reversal.

    The element at p lands at lo + ((p - lo + d) mod (hi - lo)). Distances
    0 and hi - lo are the identity and move nothing.
    """
    _check_range(buf, lo, hi)
    w = hi - lo
    if not 0 <= d <= w:
        raise ValueError(f"distance {d} out of range 0..{w}")
    if d == 0 or d == w:
        return
    _reverse(buf, lo, hi)
    _reverse(buf, lo, lo + d)
    _reverse(buf, lo + d, hi)
    if instr is not None:
        instr.rotate_moves += 2 * (w // 2 + d // 2 + (w - d) // 2)
        instr.aux_words_peak = max(instr.aux_words_peak, _ROTATE_AUX_WORDS)
