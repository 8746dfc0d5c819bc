"""Differential property tests over the one shuffle driver.

Every kind (in, out, k:2..9) runs in both directions through the prime
driver in ``faro.kway``; the 2-way kinds are its q = 2, p = 3 case. Lengths
are drawn mostly next to the block sizes p^j - 1, where the greedy tiling
changes shape and the k-way tail appears.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from faro.kway import _prime_factors, find_base, k_shuffle, k_unshuffle
from faro.oracle import oracle_shuffle
from faro.permcore import IN_SHUFFLE, OUT_SHUFFLE, kway_kind
from faro.shuffle import Instrumentation, in_shuffle, out_shuffle, un_out_shuffle, un_shuffle

try:
    import numpy as np
except ImportError:
    np = None

MAX_LENGTH = 3000
KINDS = ["in", "out"] + [f"k:{k}" for k in range(2, 10)]


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


def _near_blocks(arity):
    """p^j - 1 + d for the base p of each prime factor q, d in {0, ±1, ±q}."""
    near = set()
    for q in set(_prime_factors(arity)):
        p = find_base(q).p
        block = p - 1
        while block <= MAX_LENGTH:
            near |= {block + d for d in (-q, -1, 0, 1, q)}
            block = (block + 1) * p - 1
    return sorted(near)


def _legal_length(kind, arity, raw):
    """Round `raw` down to a legal length; an out-shuffle gets it as interior."""
    raw = max(raw, 0)
    if kind == "out":
        return raw - raw % 2 + 2
    return raw - raw % arity


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

    buf, instr = list(original), Instrumentation()
    forward(buf, instr)
    if inverse:
        assert oracle_shuffle(buf, shuffle_kind) == original
    else:
        assert buf == oracle_shuffle(original, shuffle_kind)
    result = list(buf)
    backward(buf)
    assert buf == original

    if np is not None:
        array, array_instr = np.arange(n, dtype=np.int64), Instrumentation()
        forward(array, array_instr)
        assert array.tolist() == result
        assert (array_instr.moves, array_instr.aux_words_peak) == (
            instr.moves,
            instr.aux_words_peak,
        )
