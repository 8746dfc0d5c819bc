import random
from math import gcd

import pytest

from faro import _fastpath, kway
from faro.kway import _prime_factors, k_shuffle, k_unshuffle
from faro.numtheory import euler_totient, is_primitive_root, multiplicative_order
from faro.oracle import oracle_shuffle
from faro.permcore import cycle_decomposition, kway_kind
from faro.rotate import rotate_right
from faro.shuffle import Instrumentation, in_shuffle


@pytest.mark.parametrize("k", [4, 9])
def test_squares_have_no_base(k):
    # a square residue generates at most half of any unit group, so no
    # prime p makes it a primitive root of p^2: squares are reached only by
    # composing prime passes
    for p in range(3, 101, 2):
        if euler_totient(p) == p - 1 and gcd(k, p) == 1:
            assert not is_primitive_root(k, p * p), p


def test_k_shuffle_arity_two_is_bit_identical_to_in_shuffle():
    rng = random.Random(20)
    for _ in range(40):
        length = 2 * rng.randrange(0, 1000)
        reference = [rng.randrange(10**9) for _ in range(length)]
        via_k, direct = list(reference), list(reference)
        k_instr, in_instr = Instrumentation(), Instrumentation()
        k_shuffle(via_k, 2, k_instr)
        in_shuffle(direct, in_instr)
        assert via_k == direct
        assert k_instr.moves == in_instr.moves


def test_k_shuffle_examples():
    buf = list(range(1, 13))
    k_shuffle(buf, 3)
    assert buf == [9, 5, 1, 10, 6, 2, 11, 7, 3, 12, 8, 4]
    assert buf == oracle_shuffle(list(range(1, 13)), kway_kind(3))


def test_k3_exact_block_structure():
    # 24 = 5^2 - 1 is a single block: leaders at local 1 and 5 with cycle
    # lengths phi(25) = 20 and phi(5) = 4, so 24 placements + 2 loads
    decomposition = cycle_decomposition(kway_kind(3), 24)
    assert [c[0] for c in decomposition.cycles] == [1, 5]
    assert [len(c) for c in decomposition.cycles] == [20, 4]

    instr = Instrumentation()
    buf = list(range(24))
    k_shuffle(buf, 3, instr)
    assert buf == oracle_shuffle(list(range(24)), kway_kind(3))
    assert instr.moves == 24 + 2


def test_base_table_is_valid():
    # every prime factor of a supported arity has a table; each entry is a
    # prime p coprime to q with q a primitive root of p^2, so of every p^j
    # and, for odd q, of every 2p^j; entries are sorted by their first
    # admissible power p^e, e = ord_q(p)
    assert set(kway._BASES) == {q for k in range(2, 10) for q in _prime_factors(k)}
    assert kway._BASES[2] == (3, 5, 11, 13, 19, 29, 37, 53)
    for q, bases in kway._BASES.items():
        for p in bases:
            assert p > 2 and euler_totient(p) == p - 1, p
            assert gcd(p, q) == 1, p
            assert is_primitive_root(q, p * p), (q, p)
        firsts = [p ** multiplicative_order(p, q) for p in bases]
        assert firsts == sorted(firsts), q


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_ladder_is_every_admissible_rung_largest_first(q):
    # brute force: p^j, and 2p^j for odd q, of every base below 2^63, kept
    # when q divides modulus - 1
    ladder = kway._LADDERS[q]
    moduli = [modulus for modulus, _, _ in ladder]
    assert all(a > b for a, b in zip(moduli, moduli[1:]))
    expected = set()
    for p in kway._BASES[q]:
        for j in range(1, 64):
            for c in (1, 2) if q > 2 else (1,):
                if c * p**j < 1 << 63 and (c * p**j - 1) % q == 0:
                    expected.add((c * p**j, p, j))
    assert set(ladder) == expected
    assert kway._FITS[q] == tuple(1 - modulus for modulus in moduli)


def _naive_blocks(lo, hi, q):
    # the largest admissible block that fits, one block at a time
    offset = lo
    while offset < hi:
        fits = [rung for rung in kway._LADDERS[q] if rung[0] - 1 <= hi - offset]
        if not fits:
            yield offset, hi - offset + 1, 0, 0
            return
        modulus, p, j = fits[0]
        yield offset, modulus, p, j
        offset += modulus - 1


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_blocks_are_the_naive_greedy_tiling(q):
    rng = random.Random(q)
    for case in range(200):
        lo = rng.choice((0, 1, rng.randrange(0, 1000)))
        hi = lo + q * rng.choice((rng.randrange(0, 100), rng.randrange(0, 1 << 20)))
        runs = list(kway._blocks(lo, hi, q))
        # one run per modulus: each takes every block of its size that fits
        moduli = [modulus for _, modulus, _, _, _ in runs]
        assert all(a > b for a, b in zip(moduli, moduli[1:])), (lo, hi)
        assert all(count >= 1 for *_, count in runs), (lo, hi)
        blocks = [
            (offset, modulus, p, j)
            for start, modulus, p, j, count in runs
            for offset in range(start, start + count * (modulus - 1), modulus - 1)
        ]
        assert blocks == list(_naive_blocks(lo, hi, q)), (lo, hi)


@pytest.mark.parametrize("k,n", [(2, 19_998), (3, 900), (5, 4_000), (7, 2_100)])
def test_moves_split_by_layer(k, n, monkeypatch):
    # rotate_moves are the moves made inside the gather and scatter
    # rotations; walk_moves and tail_moves are, for each block and for the
    # tail, its moving positions plus one hold load per cycle; moves is
    # their sum
    rotated = []

    def counted(buf, lo, hi, d, instr, **kernel):
        before = instr.moves
        rotate_right(buf, lo, hi, d, instr, **kernel)
        rotated.append(instr.moves - before)

    monkeypatch.setattr(kway, "rotate_right", counted)
    walk = tail = 0
    for _, modulus, _, j, count in kway._blocks(0, n, k):
        cycles = cycle_decomposition(kway_kind(k), modulus - 1)
        if j:
            walk += count * (cycles.moved_count() + len(cycles.cycles))
        else:
            tail += cycles.moved_count() + len(cycles.cycles)
    # q = 2 and 5 have a block of q elements (moduli 3 and 6), so no tail
    assert (tail > 0) == (k in (3, 7))
    for call in (k_shuffle, k_unshuffle):
        rotated.clear()
        instr = Instrumentation()
        call(list(range(n)), k, instr)
        assert (instr.rotate_moves, instr.walk_moves, instr.tail_moves) == (sum(rotated), walk, tail)
        assert sum(rotated) > 0
        assert instr.moves == sum(rotated) + walk + tail


@pytest.mark.parametrize("k,p,j,moves", [(3, 5, 3, 254), (5, 3, 5, 494)])
def test_single_twin_block(k, p, j, moves, monkeypatch):
    # 2p^j - 1 elements form one block mod 2p^j: leaders p^s and 2p^s for
    # s < j, the cycles through them of length phi(p^(j - s)), and p^j a
    # fixed point that is never walked. So the gather rotates nothing and
    # the moves are every element but p^j, plus one hold load per leader.
    modulus = 2 * p**j
    n = modulus - 1
    assert list(kway._blocks(0, n, k)) == [(0, modulus, p, j, 1)]
    leaders = sorted(c * p**s for s in range(j) for c in (1, 2))
    decomposition = cycle_decomposition(kway_kind(k), n)
    assert [cycle[0] for cycle in decomposition.cycles] == leaders
    assert [len(cycle) for cycle in decomposition.cycles] == [
        euler_totient(p ** (j - s)) for s in range(j) for _ in (1, 2)
    ]
    assert moves == modulus - 2 + 2 * j

    walked, rotations = [], Instrumentation()
    real_kernel = _fastpath.kernel

    def kernel(buf):
        reverse, walk = real_kernel(buf)

        def spy(buf, base, leader, mult, modulus, p, count):
            walked.extend(leader * p**s for s in range(count))
            walk(buf, base, leader, mult, modulus, p, count)

        return reverse, spy

    monkeypatch.setattr(_fastpath, "kernel", kernel)
    monkeypatch.setattr(
        kway,
        "rotate_right",
        lambda buf, lo, hi, d, instr, **kernel: rotate_right(buf, lo, hi, d, rotations, **kernel),
    )
    for call in (k_shuffle, k_unshuffle):
        walked.clear()
        buf, instr = list(range(n)), Instrumentation()
        call(buf, k, instr)
        if call is k_shuffle:
            assert buf == oracle_shuffle(list(range(n)), kway_kind(k))
        else:
            assert oracle_shuffle(buf, kway_kind(k)) == list(range(n))
        assert sorted(walked) == leaders
        assert instr.moves == moves
        assert rotations.moves == 0


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_k_shuffle_matches_oracle_small(k):
    for count in range(0, 76):
        length = k * count
        buf = list(range(length))
        k_shuffle(buf, k)
        assert buf == oracle_shuffle(list(range(length)), kway_kind(k)), length


@pytest.mark.parametrize("k", [6, 7, 8, 9])
def test_k_shuffle_matches_oracle_high_arity(k):
    rng = random.Random(21)
    counts = list(range(0, 20)) + [rng.randrange(20, 150) for _ in range(8)]
    counts += [190, 200, 380]  # k=7 in the gap between its rungs 547 and 71^2
    for count in counts:
        length = k * count
        buf = list(range(length))
        k_shuffle(buf, k)
        assert buf == oracle_shuffle(list(range(length)), kway_kind(k)), length


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 9])
def test_k_unshuffle_inverts(k):
    rng = random.Random(22)
    for _ in range(25):
        length = k * rng.randrange(0, 300)
        reference = [rng.random() for _ in range(length)]
        buf = list(reference)
        k_shuffle(buf, k)
        k_unshuffle(buf, k)
        assert buf == reference
        k_unshuffle(buf, k)
        k_shuffle(buf, k)
        assert buf == reference


def test_p_adic_valuation_classifies_cycles():
    # for length p^j - 1 the cycle led by p^s holds exactly the positions
    # divisible by p^s and no higher power
    for k, p, j in ((3, 5, 4), (5, 3, 4)):
        length = p**j - 1
        decomposition = cycle_decomposition(kway_kind(k), length)
        assert len(decomposition.cycles) == j
        for s, cycle in enumerate(decomposition.cycles):
            assert cycle[0] == p**s
            assert len(cycle) == euler_totient(p ** (j - s))
            for member in cycle:
                assert member % p**s == 0
                assert member % p ** (s + 1) != 0


def test_k_shuffle_rejects_bad_input():
    with pytest.raises(ValueError):
        k_shuffle([1, 2, 3, 4], 3)
    with pytest.raises(ValueError):
        k_shuffle([1, 2], 1)
    with pytest.raises(ValueError):
        k_shuffle(list(range(20)), 10)
    with pytest.raises(ValueError):
        k_unshuffle([1, 2, 3, 4], 3)


def test_kway_auxiliary_space_is_constant():
    for k in (2, 3, 4, 5):
        peaks = set()
        for count in (3, 300, 30_000):
            instr = Instrumentation()
            k_shuffle(list(range(k * count)), k, instr)
            peaks.add(instr.aux_words_peak)
        assert max(peaks) <= 64
        assert len(peaks) == 1


def test_single_block_rotation_moves_are_bounded():
    # the gather for one block costs at most 2k moves per element of the
    # enclosing window
    k = 3
    length = 48  # one 24-block plus a 24-element remainder window
    instr = Instrumentation()
    k_shuffle(list(range(length)), k, instr)
    assert instr.moves <= 2 * k * length + length + 16
