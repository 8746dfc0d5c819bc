"""In-place range reversal and cyclic shift by triple reversal.

Ranges are 0-based and half-open. A right cyclic shift of window [lo, hi) by
distance d is realized as

    reverse [lo, hi); reverse [lo, lo+d); reverse [lo+d, hi)

which costs at most 2 * (w//2 + d//2 + (w-d)//2) single-element moves for a
window of w elements and needs exactly one element-sized temporary (the swap
slot) no matter how large the window is.

Both functions reverse by the native ``reverse``, which serves nothing
else, or, for a buffer it refuses, by its twin ``_loops.reverse_slots``, as
``_fastpath.resolve`` binds them once per call. The shuffle driver does
not call them: a block's rotations are one gather, which leaves the same
items by conjoined triple reversal, the three reversals in one sweep, in
about 1.5 moves per element of the window where these take about 2.
"""

from . import _fastpath, _loops

__all__ = ["reverse_range", "rotate_right"]

# aux accounting: 1 element temporary + 2 cursor words
_REVERSE_AUX_WORDS = 3
# reversal's slots + window/distance bookkeeping
_ROTATE_AUX_WORDS = 5


def _check_range(buf, lo: int, hi: int) -> None:
    if not 0 <= lo <= hi <= len(buf):
        raise ValueError(f"range [{lo}, {hi}) out of bounds for length {len(buf)}")


def reverse_range(buf, lo: int, hi: int, instr=None) -> None:
    """Reverse buf[lo:hi] in place with (hi - lo) // 2 swaps."""
    _check_range(buf, lo, hi)
    _fastpath.resolve(buf, "reverse", _loops.reverse_slots)(buf, lo, hi)
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
    reverse = _fastpath.resolve(buf, "reverse", _loops.reverse_slots)
    reverse(buf, lo, hi)
    reverse(buf, lo, lo + d)
    reverse(buf, lo + d, hi)
    if instr is not None:
        instr.rotate_moves += 2 * (w // 2 + d // 2 + (w - d) // 2)
        instr.aux_words_peak = max(instr.aux_words_peak, _ROTATE_AUX_WORDS)
