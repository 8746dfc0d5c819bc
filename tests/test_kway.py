import random
import tracemalloc
from math import gcd

import pytest

from conftest import conjoined_moves, rungs, spy

from faro import _fastpath, _loops, kway
from faro.kway import MAX_K, k_shuffle, k_unshuffle
from faro.numtheory import euler_totient, is_primitive_root, multiplicative_order
from faro.oracle import oracle_shuffle
from faro.permcore import IN_SHUFFLE, OUT_SHUFFLE, cycle_decomposition, kway_kind, validate_order
from faro.shuffle import Instrumentation, in_shuffle, out_shuffle, un_out_shuffle, un_shuffle


@pytest.mark.parametrize("k", [4, 9])
def test_squares_have_no_base(k):
    # a square residue generates at most half of any unit group, so no
    # prime p makes it a primitive root of p^2: the paper reaches squares
    # only by composing prime passes, while every base of their tables has
    # two or more coset representatives
    for p in range(3, 101, 2):
        if euler_totient(p) == p - 1 and gcd(k, p) == 1:
            assert not is_primitive_root(k, p * p), p
    assert all(len(reps) >= 2 for _, reps in kway._BASES[k])


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


# the 2-way bases: 32 primes below 1500 with 2 a primitive root of p^2
TABLE_2 = (
    3, 5, 11, 13, 19, 29, 37, 53, 59, 61, 67, 101, 139, 181, 211, 269,
    317, 389, 419, 467, 509, 547, 587, 659, 773, 907, 947, 1019, 1091, 1171, 1237, 1499,
)


def test_base_table_is_valid():
    # every supported arity has a table, sorted by p; each entry is an odd
    # prime p coprime to k, with k^(p-1) != 1 mod p^2 (so the order of k
    # mod p^t is ord_p(k) * p^(t-1) and the cosets of <k> mod every p^t are
    # fixed by the residue mod p) and k != 1 mod p, and its reps are the
    # smallest member of each of the d = (p - 1) / ord_p(k) <= 8 cosets of
    # <k mod p> in (Z/p)^x
    assert set(kway._BASES) == set(range(2, kway.MAX_K + 1))
    assert kway._BASES[2] == tuple((p, (1,)) for p in TABLE_2)
    # d = 1 at k = 2: a block p^j then has j cycles, the exponent that
    # _loops._blocks gives and the 2-way move audits count as its leaders
    assert all(reps == (1,) for _, reps in kway._BASES[2])
    for k, bases in kway._BASES.items():
        primes = [p for p, _ in bases]
        assert primes == sorted(set(primes)), k
        for p, reps in bases:
            assert p > 2 and euler_totient(p) == p - 1, p
            assert gcd(p, k) == 1 and k % p != 1, (k, p)
            order = multiplicative_order(k, p)
            assert multiplicative_order(k, p * p) == order * p, (k, p)
            smallest, seen = [], set()
            for c in range(1, p):
                if c not in seen:
                    smallest.append(c)
                    seen |= {c * pow(k, t, p) % p for t in range(order)}
            assert reps == tuple(smallest), (k, p)
            assert len(reps) == (p - 1) // order <= 8, (k, p)
            # d = 1 is the paper's case: k is a primitive root of p^2
            assert (len(reps) == 1) == is_primitive_root(k, p * p), (k, p)


@pytest.mark.parametrize("q", range(2, 10))
def test_ladder_is_every_admissible_rung_largest_first(q):
    # brute force: p^j, and 2p^j for odd q, of every base below 2^63, kept
    # when q divides modulus - 1, each row with p's coset representatives,
    # padded with zeros; both builders, the Python one and the kernel's,
    # make these rows, byte for byte, and _table keeps one of them
    expected = set()
    for p, reps in kway._BASES[q]:
        for j in range(1, 64):
            for c in (1, 2) if q > 2 else (1,):
                if c * p**j < 1 << 63 and (c * p**j - 1) % q == 0:
                    expected.add((c * p**j, p, j, reps))
    built = [_loops._ladder(q, kway._BASES[q])]
    if _fastpath._native is not None:
        built.append(_fastpath._native.ladder(q, kway._BASES[q]))
    assert all(type(rows) is bytes and rows == built[0] for rows in built)
    assert kway._table(q).tobytes() == built[0]
    table = memoryview(built[0]).cast("q")
    ladder = rungs(table)
    moduli = [modulus for modulus, *_ in ladder]
    assert all(a > b for a, b in zip(moduli, moduli[1:]))
    assert set(ladder) == expected
    assert len(table) == 12 * len(ladder)
    assert all(not any(table[r + 4 + table[r + 3] : r + 12]) for r in range(0, len(table), 12))


def _naive_blocks(lo, hi, q):
    # the largest admissible block that fits, one block at a time
    offset, ladder = lo, rungs(kway._table(q))
    while offset < hi:
        fits = [rung for rung in ladder if rung[0] - 1 <= hi - offset]
        if not fits:
            yield offset, hi - offset + 1, 0, 0, ()
            return
        yield offset, *fits[0]
        offset += fits[0][0] - 1


@pytest.mark.parametrize("q", range(2, 10))
def test_blocks_are_the_naive_greedy_tiling(q):
    rng = random.Random(q)
    for case in range(200):
        lo = rng.choice((0, 1, rng.randrange(0, 1000)))
        hi = lo + q * rng.choice((rng.randrange(0, 100), rng.randrange(0, 1 << 20)))
        runs = list(_loops._blocks(lo, hi, kway._table(q)))
        # one run per modulus: each takes every block of its size that fits
        moduli = [modulus for _, modulus, *_ in runs]
        assert all(a > b for a, b in zip(moduli, moduli[1:])), (lo, hi)
        assert all(count >= 1 for *_, count in runs), (lo, hi)
        blocks = [
            (offset, modulus, p, j, reps)
            for start, modulus, p, j, reps, count in runs
            for offset in range(start, start + count * (modulus - 1), modulus - 1)
        ]
        assert blocks == list(_naive_blocks(lo, hi, q)), (lo, hi)
        # the inverse takes the same runs, right to left
        assert list(_loops._blocks(lo, hi, kway._table(q), backward=True)) == runs[::-1], (lo, hi)


@pytest.mark.parametrize(
    "k,n",
    [(2, 19_998), (3, 900), (4, 4_000), (5, 4_000), (6, 3_000), (7, 2_093), (8, 4_000),
     (9, 3_600)],
)
def test_moves_split_by_layer(k, n):
    # rotate_moves are the moves made inside the gather and scatter
    # rotations, the closed form of the conjoined triple reversal over
    # every block's windows;
    # walk_moves and tail_moves are, for each block and for the tail, its
    # moving positions plus one hold load per cycle; moves is their sum.
    # blocks counts every block, the tail as one, and cycles every cycle
    # walked. A block of modulus m moves its m - 1 positions but the fixed
    # point p^j of a twin 2p^j, in d * j cycles, twice that for a twin,
    # where d is the number of coset representatives of p.
    walk = tail = blocks = walked = 0
    for _, modulus, p, j, reps, count in _loops._blocks(0, n, kway._table(k)):
        cycles = cycle_decomposition(kway_kind(k), modulus - 1)
        blocks += count
        walked += count * len(cycles.cycles)
        if j:
            twin = modulus % 2 == 0
            block_cycles = len(reps) * (1 + twin) * j
            assert (cycles.moved_count(), len(cycles.cycles)) == (modulus - 1 - twin, block_cycles)
            walk += count * (cycles.moved_count() + len(cycles.cycles))
        else:
            tail += cycles.moved_count() + len(cycles.cycles)
    # every arity but 3, 7 and 8 has a block of k elements (modulus k + 1 =
    # p or 2p), so only those three leave a tail
    assert (tail > 0) == (k in (3, 7, 8))
    for call in (k_shuffle, k_unshuffle):
        rotated = _rotation_moves(n, k, inverse=call is k_unshuffle)
        instr = Instrumentation()
        call(list(range(n)), k, instr)
        assert (instr.rotate_moves, instr.walk_moves, instr.tail_moves) == (rotated, walk, tail)
        assert (instr.blocks, instr.cycles) == (blocks, walked)
        assert rotated > 0
        assert instr.moves == rotated + walk + tail


def _rotation_moves(n, k, inverse):
    # the moves of the driver's gather rotations over [0, n), or with
    # `inverse` of its scatter rotations: the closed form of the conjoined
    # triple reversal over every block's windows, t * (part - b) + b items
    # rotated by b, or by the rest when scattering
    moves = 0
    for start, modulus, p, j, _, count in _loops._blocks(0, n, kway._table(k)):
        for offset in range(start, start + count * (modulus - 1), modulus - 1) if j else ():
            part, b = (n - offset) // k, (modulus - 1) // k
            for t in range(1, k):
                rest = t * (part - b)
                moves += conjoined_moves(rest + b, rest if inverse else b)
    return moves


@pytest.mark.parametrize("k", range(2, 10))
def test_leaders_meet_every_cycle_once(k, monkeypatch):
    # the leaders of a block's cycle passes, c * p^s and, for a twin block,
    # c' * p^s and 2c * p^s, lie on distinct moving cycles and cover them
    # all, for every rung of the ladder up to 5000
    leaders = []

    def walk(buf, base, leader, mult, modulus, p, count):
        leaders.extend(leader * p**s for s in range(count))

    monkeypatch.setattr(_loops, "cycle_walk", walk)
    for modulus, p, j, reps in rungs(kway._table(k)):
        if modulus > 5000:
            continue
        leaders.clear()
        _loops._general_cycle_passes(None, 0, j, p, reps, k, modulus)
        cycles = cycle_decomposition(kway_kind(k), modulus - 1).cycles
        owner = {i: c for c, cycle in enumerate(cycles) for i in cycle}
        met = sorted(owner.get(leader, -1) for leader in leaders)
        assert met == list(range(len(cycles))), modulus


# Worst and mean moves per element over the sweep of
# test_one_pass_beats_the_prime_passes, as the driver made them with bases of
# which k was a primitive root and one pass per prime factor of k: the
# 2-way table for 4 and 8, 2 then 3 for 6, 3 twice for 9. For 2, those of
# its earlier table of eight bases, 3 to 53.
_PRIME_PASSES = {
    2: (2.687, 2.252),
    3: (4.069, 3.112),
    4: (5.371, 4.489),
    5: (15.2, 5.323),
    6: (6.771, 5.344),
    7: (27.457, 11.411),
    8: (8.066, 6.725),
    9: (8.275, 6.222),
}


@pytest.mark.parametrize("k", range(2, 10))
def test_one_pass_beats_the_prime_passes(k):
    # every multiple of k up to 6000 and 150 random ones up to 2^16, both
    # directions, longest first on one list: each round trip restores it,
    # and cutting its end leaves the next length
    rng = random.Random(13)
    lengths = list(range(k, 6001, k))
    lengths += [k * rng.randrange(1, (1 << 16) // k + 1) for _ in range(150)]
    buf = list(range(max(lengths)))
    ratios = []
    for n in sorted(lengths, reverse=True):
        del buf[n:]
        for call in (k_shuffle, k_unshuffle):
            instr = Instrumentation()
            call(buf, k, instr)
            ratios.append(instr.moves / n)
    assert buf == list(range(k))
    worst, mean = _PRIME_PASSES[k]
    assert max(ratios) <= worst
    assert sum(ratios) / len(ratios) <= mean


@pytest.mark.parametrize("k,p,j,moves", [(3, 5, 3, 254), (5, 3, 5, 494)])
def test_single_twin_block(k, p, j, moves, monkeypatch):
    # 2p^j - 1 elements form one block mod 2p^j: leaders p^s and 2p^s for
    # s < j, the cycles through them of length phi(p^(j - s)), and p^j a
    # fixed point that is never walked. So the gather rotates nothing and
    # the moves are every element but p^j, plus one hold load per leader.
    modulus = 2 * p**j
    n = modulus - 1
    assert list(_loops._blocks(0, n, kway._table(k))) == [(0, modulus, p, j, (1,), 1)]
    leaders = sorted(c * p**s for s in range(j) for c in (1, 2))
    decomposition = cycle_decomposition(kway_kind(k), n)
    assert [cycle[0] for cycle in decomposition.cycles] == leaders
    assert [len(cycle) for cycle in decomposition.cycles] == [
        euler_totient(p ** (j - s)) for s in range(j) for _ in (1, 2)
    ]
    assert moves == modulus - 2 + 2 * j

    # the pass, native or its Python twin, counts no rotate or tail moves,
    # one block and 2j cycles; the twin walks each leader's ladder once
    walked, rotated = [], []
    gather, walk = _loops.gather_slots, _loops.cycle_walk

    def gather_spy(*args):
        rotated.append(gather(*args))
        return rotated[-1]

    def walk_spy(buf, base, leader, mult, modulus, p, count):
        walked.extend(leader * p**s for s in range(count))
        walk(buf, base, leader, mult, modulus, p, count)

    monkeypatch.setattr(_loops, "gather_slots", gather_spy)
    monkeypatch.setattr(_loops, "cycle_walk", walk_spy)
    for call in (k_shuffle, k_unshuffle):
        for native in (True, False):
            walked.clear()
            rotated.clear()
            buf, instr = list(range(n)), Instrumentation()
            with monkeypatch.context() as m:
                if not native:
                    m.setattr(_fastpath, "_native", None)  # as when the kernel did not build
                with spy() as ran:
                    call(buf, k, instr)
            if call is k_shuffle:
                assert buf == oracle_shuffle(list(range(n)), kway_kind(k))
            else:
                assert oracle_shuffle(buf, kway_kind(k)) == list(range(n))
            # a list meets the kernel's entry without _fastpath, the twin through it
            compiled = native and _fastpath.HAVE_COMPILED
            assert ran == ({"shuffle": 1} if compiled else {"fastpath": 1, "twin": 1})
            assert ran.returned == [(0, moves, 0, 1, 2 * j)]
            assert instr.moves == moves and instr.rotate_moves == 0
            if not native:
                assert sorted(walked) == leaders
                assert rotated == [0]


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


@pytest.mark.parametrize("kind", ["in", "out", *range(2, 10), 10])
def test_length_check_agrees_with_validate_order(kind):
    # The public functions check the length inline and call validate_order
    # only to raise: at every length from 0 to 3k + 2 they take what it
    # takes and refuse the rest with its message, unmoved. An unsupported
    # arity is refused at every length, by its own message.
    if kind == "in":
        shuffle_kind, calls = IN_SHUFFLE, (in_shuffle, un_shuffle)
    elif kind == "out":
        shuffle_kind, calls = OUT_SHUFFLE, (out_shuffle, un_out_shuffle)
    else:
        shuffle_kind = kway_kind(kind)
        calls = (lambda buf: k_shuffle(buf, kind), lambda buf: k_unshuffle(buf, kind))
    for n in range(3 * shuffle_kind.k + 3):
        try:
            validate_order(shuffle_kind, n)
            message = None
        except ValueError as exc:
            message = str(exc)
        if shuffle_kind.family == "kway" and kind > MAX_K:
            message = f"supported arities are 2..{MAX_K}, got {kind}"
        for call in calls:
            buf = list(range(n))
            if message is None:
                call(buf)
                assert sorted(buf) == list(range(n)), (kind, n)
                continue
            with pytest.raises(ValueError) as refused:
                call(buf)
            assert str(refused.value) == message, (kind, n)
            assert buf == list(range(n)), (kind, n)


def test_kway_auxiliary_space_is_constant():
    for k in (2, 3, 4, 5):
        peaks = set()
        for count in (3, 300, 30_000):
            instr = Instrumentation()
            k_shuffle(list(range(k * count)), k, instr)
            peaks.add(instr.aux_words_peak)
        assert max(peaks) <= 64
        assert len(peaks) == 1


@pytest.mark.parametrize("k", [2, 3, 7])
def test_pure_pass_heap_does_not_grow_with_the_buffer(k):
    # aux_words_peak declares constant space; this measures it on the
    # Python twin, which a list subclass takes with or without the kernel.
    # tracemalloc's peak over one pass read 2,166-2,422 bytes at every n
    # from 2^10 to 2^16, at most 256 bytes more at 2^16 than at 2^10, the
    # same run after run; a list of a block's items, or of the slots of one
    # of its cycles, would add kilobytes at 2^16.
    class Sub(list):
        pass

    kway._table(k)  # built before, as by an earlier call of the arity
    peaks = []
    for n in (1 << 10, 1 << 16):
        buf = Sub(range(n // k * k))
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            k_shuffle(buf, k)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        assert list(buf) == oracle_shuffle(list(range(len(buf))), kway_kind(k))
    assert peaks[1] <= peaks[0] + 512, peaks


def test_single_block_rotation_moves_are_bounded():
    # the gather for one block costs at most 2k moves per element of the
    # enclosing window
    k = 3
    length = 48  # one 24-block plus a 24-element remainder window
    instr = Instrumentation()
    k_shuffle(list(range(length)), k, instr)
    assert instr.moves <= 2 * k * length + length + 16
