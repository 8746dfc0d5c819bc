"""Differential property tests over the one shuffle driver.

Every kind (in, out, k:2..9) runs in both directions through the one-pass
driver in ``faro.kway``; the 2-way kinds are its k = 2 case. Lengths
are drawn mostly next to the block sizes c * p^j - 1 of every base in the
table, where the greedy tiling changes shape, and just below the smallest
block, where only the k-way tail is left.

The reference is a ``CountingList``, which always takes the pure loops. A
plain list, an int64 ndarray and one drawn buffer must match it, counters
included: an ndarray of a drawn dtype, or a ``RecordBuffer`` over a
bytearray with a drawn record size up to 257, one byte past the C walk's
256-byte column.
"""

import random

from conftest import CountingList
from hypothesis import given, settings
from hypothesis import strategies as st

from faro.kway import _BASES, k_shuffle, k_unshuffle
from faro.oracle import oracle_shuffle
from faro.permcore import IN_SHUFFLE, OUT_SHUFFLE, kway_kind
from faro.shuffle import (
    Instrumentation,
    RecordBuffer,
    in_shuffle,
    out_shuffle,
    un_out_shuffle,
    un_shuffle,
)

try:
    import numpy as np
except ImportError:
    np = None

MAX_LENGTH = 3000
KINDS = ["in", "out"] + [f"k:{k}" for k in range(2, 10)]
# a drawn buffer is an ndarray of one of these dtypes, or records of 1..257
# bytes, the sizes next to 8 (the kernel's word) and 256 (its column) often
SHAPES = [st.sampled_from([1, 7, 8, 9, 255, 256, 257]), st.integers(1, 257)]
if np is not None:
    SHAPES.append(st.sampled_from(["int8", "float64", "complex128", "bool", "V3"]))


def _kind_calls(kind):
    """(shuffle kind, arity, forward, inverse) for a kind name."""
    if kind == "in":
        return IN_SHUFFLE, 2, in_shuffle, un_shuffle
    if kind == "out":
        return OUT_SHUFFLE, 2, out_shuffle, un_out_shuffle
    k = int(kind[2:])
    return (
        kway_kind(k),
        k,
        lambda buf, instr=None: k_shuffle(buf, k, instr),
        lambda buf, instr=None: k_unshuffle(buf, k, instr),
    )


def _rungs(k, limit):
    """The admissible moduli p^j and, for odd k, 2p^j of k's bases, up to limit."""
    rungs = set()
    for p, _ in _BASES[k]:
        power = p
        while power <= limit:
            rungs |= {m for m in (power, 2 * power) if (m - 1) % k == 0}
            power *= p
    return sorted(rungs)


def _near_blocks(k):
    """c * p^j - 1 + d for every base p of the arity k, c in {1, 2}, d in
    {0, ±1, ±k}; and tails just below k's smallest block."""
    near = set()
    for p, _ in _BASES[k]:
        for c in (1, 2):
            block = c * p - 1
            while block <= MAX_LENGTH:
                near |= {block + d for d in (-k, -1, 0, 1, k)}
                block = (block + 1) * p - 1
    smallest = _rungs(k, MAX_LENGTH)[0] - 1
    near |= {smallest - d for d in range(1, 2 * k + 1)}
    return sorted(near)


def _moves_bound(kind, k, n):
    """Moves one pass of arity k may take on n elements, from its table.

    The pass tiles greedily: block i, of B_i = M_i - 1 elements with M_i the
    largest rung not above W_i + 1, sits in a window of W_i elements (W_0 =
    n, less 2 for an out-shuffle, and W_(i+1) = W_i - B_i):
      * its gather rotates windows of t(W_i - B_i)/k + B_i/k elements for
        t = 1..k-1, at two moves per element at most: (k - 1)(W_i - B_i)
        + 2(k - 1)B_i/k moves;
      * its cycle passes write each of its elements once, plus one hold
        load per cycle: d * j of them for M_i = p^j and 2d * j for 2p^j,
        where d is the number of coset representatives of p.
    What no rung fits is the tail, which moves at most twice per element.
    Bounding every W_i - B_i by (r - 1) M_i, for the largest ratio r of
    consecutive rungs, would give 1 + 2(k - 1)/k + (k - 1)(r - 1) moves per
    element; but r is set by the sparse rungs at the bottom of the ladder,
    which only the last, small windows use, and (k - 1)(r - 1) grows with k.
    Summed block by block, the bound is tighter at every length than one
    such term per prime factor of k, which is what the arities that were
    composed of prime passes had.
    """
    if kind == "out":
        n -= 2
    cycles = {}  # admissible modulus -> cycles of its block
    for p, reps in _BASES[k]:
        power, j = p, 1
        while power <= n + 1:
            for c in (1, 2):
                if (c * power - 1) % k == 0:
                    cycles[c * power] = len(reps) * c * j
            power *= p
            j += 1
    moves, window = 0, n
    while window:
        fits = [m for m in cycles if m - 1 <= window]
        if not fits:
            return moves + 2 * window
        block = max(fits) - 1
        moves += (k - 1) * (window - block) + 2 * (k - 1) * block / k + block + cycles[block + 1]
        window -= block
    return moves


def _legal_length(kind, arity, raw):
    """Round `raw` down to a legal length; an out-shuffle gets it as interior."""
    raw = max(raw, 0)
    if kind == "out":
        return raw - raw % 2 + 2
    return raw - raw % arity


def _drawn_buffer(shape, n, rng):
    """(buffer, itemsize, payload) holding n random items: records of `shape`
    bytes over a bytearray when `shape` is an int, else an ndarray of that dtype."""
    if isinstance(shape, int):
        payload = rng.randbytes(n * shape)
        return RecordBuffer(bytearray(payload), shape), shape, payload
    itemsize = np.dtype(shape).itemsize
    payload = rng.randbytes(n * itemsize)
    if shape == "bool":
        payload = bytes(b & 1 for b in payload)  # a numpy bool byte is 0 or 1
    return np.frombuffer(bytearray(payload), dtype=shape), itemsize, payload


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), inverse=st.booleans(), data=st.data())
def test_every_kind_matches_the_oracle_and_round_trips(kind, inverse, data):
    shuffle_kind, arity, forward, backward = _kind_calls(kind)
    raw = data.draw(
        st.one_of(st.sampled_from(_near_blocks(arity)), st.integers(0, MAX_LENGTH)),
        label="raw length",
    )
    n = _legal_length(kind, arity, raw)
    if inverse:
        forward, backward = backward, forward
    original = list(range(n))

    # the reference: a list subclass always takes the pure loops of _loops
    buf, instr = CountingList(original), Instrumentation()
    forward(buf, instr)
    assert instr.moves <= _moves_bound(kind, arity, n)
    assert instr.aux_words_peak == 26
    if inverse:
        assert oracle_shuffle(buf, shuffle_kind) == original
    else:
        assert buf == oracle_shuffle(original, shuffle_kind)
    result = list(buf)
    backward(buf)
    assert buf == original

    # the native kernel, where it was built, on a list, an int64 ndarray and
    # the drawn buffer
    shape = data.draw(st.one_of(*SHAPES), label="dtype or record size")
    seed = data.draw(st.integers(0, 2**32 - 1), label="payload seed")
    drawn, itemsize, payload = _drawn_buffer(shape, n, random.Random(seed))
    others = [list(original), drawn]
    if np is not None:
        others.append(np.arange(n, dtype=np.int64))
    for other in others:
        other_instr = Instrumentation()
        forward(other, other_instr)
        if other is drawn:
            expected = b"".join(payload[i * itemsize : (i + 1) * itemsize] for i in result)
            assert drawn.tobytes() == expected, shape
        else:
            assert list(other) == result
        assert other_instr == instr  # every layer's moves and the aux peak
