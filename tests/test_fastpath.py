import array
import mmap
import os
import random
import re
import shutil
import struct
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
import tracemalloc
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from conftest import CountingList, conjoined_moves, rungs, spy

import faro
from faro import _fastpath, _loops, cli, kway
from faro.kway import _blocks, _table, k_shuffle, k_unshuffle
from faro.numtheory import is_primitive_root
from faro.oracle import oracle_shuffle
from faro.permcore import IN_SHUFFLE, OUT_SHUFFLE, cycle_decomposition, kway_kind
from faro.shuffle import RecordBuffer, in_shuffle, out_shuffle, un_out_shuffle, un_shuffle

needs_kernel = pytest.mark.skipif(not _fastpath.HAVE_COMPILED, reason=str(_fastpath.BUILD_ERROR))
HEADERS = sysconfig.get_paths()["include"]
HAVE_HEADERS = os.path.exists(os.path.join(HEADERS, "Python.h"))
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(faro.__file__).parents[1])}
TESTS = str(Path(__file__).parent)


@needs_kernel
def test_walk_step_matches_python_at_the_edges_of_each_path():
    # A walk of a k-way pass steps by x k, forward pushing and inverse
    # pulling, while k * m <= 2^32, and past it pushes by x k forward and
    # x k^-1 inverse; step(j, k, inverse, m, s) is the s-th slot after j,
    # computed as the walk computes it, by one look-ahead fastmod while
    # k^4 * m <= 2^32
    step = _fastpath._native.step
    rng = random.Random(51)
    moduli = {3, 4, 5, 8, 9, 11, 243, 2 * 7**5, 3**12, 2**32 - 5, 2**32 + 15, 3**39}
    # past 2^32 no arity has a fast step, so every step there is mulmod's
    # 128-bit product mod m
    moduli |= {2**62 - 1, 2**62, 2**62 + 1} | {2**63 - d for d in range(1, 40)}
    moduli |= {rng.randrange(2**61, 2**63) for _ in range(30)}
    # Lemire's fastmod serves the k-way steps while k * m <= 2^32, and the
    # look-ahead by s slots while k^s * m <= 2^32
    for q in range(2, 10):
        for s in range(1, 5):
            moduli |= set(range(2**32 // q**s - 3, 2**32 // q**s + 4))
    for m in sorted(moduli):
        for k in range(2, min(m, 10)):
            for inverse in (False, True):
                if gcd(k, m) != 1:
                    assert step(1, k, inverse, m) == -1, (k, inverse, m)
                    continue
                f = pow(k, -1, m) if inverse and k * m > 2**32 else k
                for j in {0, 1, 2, m // 2, m - 2, m - 1, *(rng.randrange(1, m) for _ in range(8))}:
                    assert step(j, k, inverse, m) == j * f % m, (j, k, inverse, m)
                    for s in range(1, 5):
                        assert step(j, k, inverse, m, s) == j * pow(f, s, m) % m, (j, k, inverse, m, s)


@needs_kernel
def test_step_refuses_what_is_no_residue():
    step = _fastpath._native.step
    for j, k, m in ((7, 2, 7), (-1, 2, 7), (1, 7, 7), (1, 8, 7), (1, 1, 7), (1, 10, 11), (0, 2, 0), (0, 2, -3)):
        with pytest.raises(ValueError, match="residue"):
            step(j, k, False, m)
    for j, k, m in ((2**64, 2, 7), (1, 2, 2**63)):
        with pytest.raises(OverflowError):
            step(j, k, False, m)
    for args in ((1, 2, 0), (1, 2, 0, 7, 1, 1)):
        with pytest.raises(TypeError):
            step(*args)
    assert step(1, 3, False, 9) == -1 and step(1, 2, True, 8) == -1  # no unit, no step
    for s in (0, 5, -1):
        with pytest.raises(ValueError, match="look-ahead"):
            step(1, 2, False, 7, s)


@needs_kernel
def test_ladder_refuses_bad_calls_before_it_allocates():
    # ladder refuses k outside 2..9, p below 3, no coset representative or
    # more than 8, more than 64 bases, and what is no int, no tuple or no
    # int64. Each bad call below but those on k carries 63 good bases of 3
    # before its bad one; a ladder of 64 of them takes about 240 KB, and no
    # refused call's traced peak reaches 4 KiB, so each refusal comes before
    # the table is allocated.
    ladder = _fastpath._native.ladder
    three = (3, (1,))
    good = (three,) * 63
    assert ladder(2, good + (three,)) == kway._ladder(2, good + (three,))
    assert ladder(2, ()) == b""
    cases = [
        (ValueError, (1, good)),
        (ValueError, (10, good)),
        (ValueError, (-(2**63), good)),
        (ValueError, (2, good + ((2, (1,)),))),
        (ValueError, (2, good + ((-5, (1,)),))),
        (ValueError, (2, good + ((5, ()),))),
        (ValueError, (2, good + ((5, tuple(range(1, 10))),))),
        (ValueError, (2, good + (three, three))),
        (TypeError, (2.0, good)),
        (TypeError, (2, list(good))),
        (TypeError, (2, good + ([5, (1,)],))),
        (TypeError, (2, good + ((5, (1,), 0),))),
        (TypeError, (2, good + ((5, [1]),))),
        (TypeError, (2, good + (("5", (1,)),))),
        (TypeError, (2, good + ((5.0, (1,)),))),
        (TypeError, (2, good + ((5, (1, 2.0)),))),
        (TypeError, (2,)),
        (TypeError, (2, good, 0)),
        (OverflowError, (2**64, good)),
        (OverflowError, (2, good + ((2**63, (1,)),))),
        (OverflowError, (2, good + ((5, (1, -(2**63) - 1)),))),
    ]
    for error, args in cases:
        tracemalloc.start()
        try:
            with pytest.raises(error):
                ladder(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096, (error, args[0], args[1:] and args[1][-1:])


@needs_kernel
def test_native_ladder_matches_the_python_ladder_at_the_edges():
    # Byte for byte, on bases no arity has: the largest p, rungs either side
    # of 2^63 for p^j and for 2p^j (2 * 4^31 = 2^63 would split 7 ways),
    # bases that are powers of one number (equal moduli, the larger p
    # first), and random sets of up to 64 bases.
    edges = [
        (2, ((2**63 - 1, (1,)),)),
        (3, ((2**62 - 1, (1, 2)), (2**62 + 1, (1,)))),
        (7, ((4, (1,)), (2**31, (1, 3)))),
        (5, ((3, (1,)), (2**31 - 1, (1,)), (3_037_000_493, (1, 2, 3)))),
        (2, ((3, (1,)), (9, (1, 2)), (27, (4,)), (81, (1,)))),
        (7, ((3, (1,)), (9, (1, 2)), (27, (4,)), (81, (1,)))),
    ]
    rng = random.Random(33)
    for _ in range(40):
        odd = sorted({rng.randrange(3, 1 << rng.choice((8, 16, 32, 63))) | 1 for _ in range(rng.randint(1, 64))})
        bases = tuple((p, tuple(rng.randrange(1, p) for _ in range(rng.randint(1, 8)))) for p in odd)
        edges.append((rng.randint(2, 9), bases))
    for k, bases in edges:
        assert _fastpath._native.ladder(k, bases) == kway._ladder(k, bases), (k, bases[:3])


@needs_kernel
@pytest.mark.parametrize("m", [654_427, 654_967], ids=["ahead", "one-step"])
def test_walk_switches_look_ahead_at_f4_m_2_32(m):
    # A 9-way walk looks four slots ahead while 9^4 * m <= 2^32, that is
    # m <= 654,620, and steps one slot at a time above. m is a prime = 1 mod
    # 9 of which 3 is a primitive root, so x 9 has two cycles, led by 1 and
    # 3: a pass over a table of one rung, whose one ladder is 1 * 3^s for
    # s < 2, walks all of them in one block of m - 1 items.
    assert all(m % d for d in range(2, 810)) and is_primitive_root(3, m) and m % 9 == 1
    assert 9**4 * m <= 2**32 if m < 654_620 else 9 * m <= 2**32 < 9**4 * m
    table = memoryview(struct.pack("12q", m, 3, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0)).cast("q")
    items = np.random.default_rng(m).integers(-(2**63), 2**63 - 1, m - 1, dtype=np.int64)
    shuffled = np.empty_like(items)
    shuffled[np.arange(1, m, dtype=np.int64) * 9 % m - 1] = items  # the 9-way oracle: j -> 9j mod m
    for inverse, before, after in ((False, items, shuffled), (True, shuffled, items)):
        buf = before.copy()
        with spy() as ran:
            run = _fastpath.resolve(buf, kway._pure_pass)
            assert run(buf, 0, m - 1, 9, inverse, table) == (0, m + 1, 0, 1, 2)
        assert ran == {"resolve": 1, "shuffle": 1}, inverse
        assert np.array_equal(buf, after), inverse


def _random_buffer(kind, n, rng):
    """A buffer of n random items, and a function that reads them as a list.

    `kind` is "list", "ndarray" (int64), "masked" (an int64 MaskedArray,
    about a third of it masked) or the size of the records of a
    RecordBuffer over a bytearray.
    """
    if kind == "list":
        buf = [rng.random() for _ in range(n)]
        return buf, buf.copy
    if kind in ("ndarray", "masked"):
        data = np.frombuffer(bytearray(rng.randbytes(8 * n)), dtype=np.int64)
        if kind == "ndarray":
            return data, data.tolist
        buf = np.ma.array(data, mask=[rng.random() < 0.3 for _ in range(n)])
        return buf, lambda: list(zip(buf.data.tolist(), np.ma.getmaskarray(buf).tolist()))
    buf = RecordBuffer(bytearray(rng.randbytes(n * kind)), kind)
    return buf, lambda: [bytes(buf.data[i * kind : (i + 1) * kind]) for i in range(n)]


def _pass_table(k, rung):
    """k's table, or with `rung` a table of that one rung of it."""
    table = kway._table(k)
    if rung is None:
        return table
    r = table.tolist()[::12].index(rung) * 12
    return table[r : r + 12]


@cache
def _pure_pass_of(k, lo, hi, n, inverse, rung=None):
    """(order, counts) of the pure pass over [lo, hi) of n items by the
    table of `_pass_table`: the old position of the item at each position
    after it, as the oracle has it, and the pass's counts."""
    order = list(range(n))
    counts = kway._pure_pass(order, lo, hi, k, inverse, _pass_table(k, rung))
    moved, kind = [i - lo for i in order[lo:hi]], kway_kind(k)
    if inverse:
        assert oracle_shuffle(moved, kind) == list(range(hi - lo))
    else:
        assert moved == oracle_shuffle(list(range(hi - lo)), kind)
    assert order[:lo] + order[hi:] == [*range(lo), *range(hi, n)]
    return order, counts


def _check_pass(kind, k, lo, hi, n, inverse, rng, rung=None):
    """The counts of the native pass over [lo, hi) of a fresh random buffer
    of n items (see _random_buffer), by k's table or the one `rung` of it,
    checked to leave the items and the counts of the pure pass."""
    buf, items = _random_buffer(kind, n, rng)
    before = items()
    with spy() as ran:
        run = _fastpath.resolve(buf, kway._pure_pass)
        counts = run(buf, lo, hi, k, inverse, _pass_table(k, rung))
    order, expected = _pure_pass_of(k, lo, hi, n, inverse, rung)
    case = (kind, k, lo, hi, n, inverse, rung)
    # a MaskedArray resolves its data and its mask, and moves both natively
    native = {"resolve": 3, "shuffle": 2} if kind == "masked" else {"resolve": 1, "shuffle": 1}
    assert ran == native, case
    assert counts == expected, case
    assert items() == [before[i] for i in order], case
    return counts


@needs_kernel
@pytest.mark.parametrize("itemsize", [1, 8, 9, 64, 256, 257, "list", "ndarray"])
def test_native_walk_matches_the_pure_walk(itemsize, most=1100):
    # A pass over one exact block is its walks alone: its gather rotates
    # nothing. Every rung of every arity up to `most` items, p^j and twin
    # 2p^j blocks of one to eight coset representatives, pushing x k and
    # pulling x k^-1, inside 3 items before and 2 after; their cycles close
    # on every one of a look-ahead's four slots. Records of 256 bytes fill
    # the walk's column, and of 257 take a second column of one byte.
    rng = random.Random(str(itemsize))
    for k in range(2, 10):
        for m, *_ in rungs(_table(k)):
            if m - 1 <= most:
                for inverse in (False, True):
                    counts = _check_pass(itemsize, k, 3, m + 2, m + 4, inverse, rng)
                    assert counts[0] == 0 and counts[3] == 1, (k, m)


@needs_kernel
@pytest.mark.parametrize("itemsize", [1, 3, 8, 64, 257])
def test_native_agree_matches_the_pure_agree(itemsize, moduli=range(2, 31)):
    # every unit mult mod m <= 30 over the whole of 1..m-1, and every window
    # j0 .. j0 + count - 1 under the smallest unit above 1 (few wraps) and
    # m - 1 (a wrap at almost every step); each against the moved items and
    # against copies with one byte flipped at the first, middle and last item
    rng = random.Random(itemsize)
    for m in moduli:
        base = m % 3 - 1
        items = [rng.randbytes(itemsize) for _ in range(m)]
        units = [u for u in range(1, m) if gcd(u, m) == 1]
        for mult in units:
            moved = bytearray(itemsize * (base + m))
            for j in range(1, m):
                t = base + j * mult % m
                moved[t * itemsize : (t + 1) * itemsize] = items[j]
            results = [(moved, True)]
            for j in sorted({1, m // 2, m - 1}):
                flipped = bytearray(moved)
                flipped[(base + j) * itemsize + rng.randrange(itemsize)] ^= 1 << rng.randrange(8)
                results.append((flipped, False))
            windows = [(1, m - 1)]
            if mult in (units[1:2] + units[-1:]):
                windows = [(j0, count) for j0 in range(1, m) for count in range(1, m - j0 + 1)]
            for res, whole in results:
                for j0, count in windows:
                    chunk = b"".join(items[j0 : j0 + count])
                    args = (chunk, res, itemsize, base, mult, m, j0, count)
                    same = _loops.agree_items(*args)
                    assert _fastpath._native.agree(*args) is same, (m, mult, j0, count)
                    if count == m - 1:
                        assert same is whole, (m, mult)


@needs_kernel
def test_forward_and_inverse_walks_run_at_one_speed():
    # Both directions of every walk step by x k without a division: forward
    # passes push along x k, inverse ones pull along it. A direction
    # that fell back to one, or to a copy call per item, would be far
    # slower. Each pass is one exact block of its arity's ladder, the
    # largest of at most 2^17 items, so it rotates nothing and fits in L2:
    # it is bound by the step rather than by memory.
    for k in range(2, 10):
        m = next(m for m, *_ in rungs(_table(k)) if m - 1 <= 1 << 17)
        buf = np.arange(m - 1, dtype=np.int64)
        run, table = _fastpath.resolve(buf, kway._pure_pass), kway._table(k)

        # forward and inverse alternate round by round, so that a slow
        # phase of the machine slows both directions alike
        times = {False: [], True: []}
        for _ in range(7):
            for inverse in (False, True):
                start = time.perf_counter()
                counts = run(buf, 0, m - 1, k, inverse, table)
                times[inverse].append(time.perf_counter() - start)
                assert counts[0] == 0 and counts[3] == 1, (k, counts)
        forward, inverse = min(times[False]), min(times[True])
        assert max(forward, inverse) <= 2 * min(forward, inverse), (k, forward, inverse)
        assert sorted(buf.tolist()) == list(range(m - 1))


def test_read_only_ndarray_raises_and_stays_unmodified(tmp_path):
    for length in (8, 10, 242, 1000):
        buf = np.arange(length, dtype=np.int64)
        buf.flags.writeable = False
        with pytest.raises(ValueError):
            in_shuffle(buf)
        assert buf.tolist() == list(range(length))
        # read-only memory of other types: the pure loops' first write raises
        payload = bytes(i % 251 for i in range(length))
        (tmp_path / "records").write_bytes(payload)
        with open(tmp_path / "records", "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), length, access=mmap.ACCESS_READ)
        for buf in (payload, memoryview(payload), mapped):
            with pytest.raises(TypeError):
                in_shuffle(buf)
            assert bytes(buf) == payload
        mapped.close()


def test_strided_view_matches_oracle_through_fallback():
    for length in (10, 242, 1000):
        backing = np.arange(2 * length, dtype=np.int64)
        view = backing[::2]
        in_shuffle(view)
        assert view.tolist() == oracle_shuffle(list(range(0, 2 * length, 2)), IN_SHUFFLE)
        assert backing[1::2].tolist() == list(range(1, 2 * length, 2))

        backing = np.arange(3 * length, dtype=np.int64)
        k_shuffle(backing[::-1], 3)
        assert backing[::-1].tolist() == oracle_shuffle(
            list(range(3 * length - 1, -1, -1)), kway_kind(3)
        )


def _refuse_bad_passes(shuffle, buf):
    """Every bad call of a native pass over 26 items raises before any item moves.

    `shuffle(buf, lo, hi, k, inverse, table)` is the native pass bound to
    the buffer. The rows of a table of one rung for [0, 26) at k = 2, mod
    27 = 3^3 as kway._table(2) has it, are spoilt one field at a time.
    """
    table = kway._table(2)

    def rung(*row):
        return array.array("q", [*row, *[0] * (12 - len(row))])

    for inverse in (False, True):
        # ranges that leave the buffer
        for lo, hi in ((0, 28), (-2, 24), (4, 2)):
            with pytest.raises(IndexError):
                shuffle(buf, lo, hi, 2, inverse, table)
        # lengths that k does not divide, and arities outside 2..9
        for lo, hi, k in ((0, 25, 2), (0, 26, 3), (0, 20, 1), (0, 20, 10), (0, 0, -2)):
            with pytest.raises(ValueError):
                shuffle(buf, lo, hi, k, inverse, kway._table(min(max(k, 2), 9)))
        for bad in (
            table[:-1],  # truncated mid-row
            array.array("d", [float(x) for x in rung(27, 3, 3, 1, 1)]),  # of floats
            rung(16, 2, 4, 1, 1),  # 2 is no unit mod 16, nor divides 15
            rung(1, 3, 3, 1, 1),  # a block of no items
            rung(27, 3, 4, 1, 1),  # the ladder's last leader is 3^3 = 27
            rung(27, 3, 3, 1, 0),  # leader 0 is fixed
            rung(27, 3, 3, 1, 27),  # leader 27 is outside 1..26
            rung(27, 3, 3, 2, 1, 2**62),  # so is its second representative
            rung(27, 6148914691236517206, 2, 1, 3),  # 3p wraps into range in int64
            rung(27, 3, 3, 0, 1),  # no ladders
            rung(27, 3, 3, 9, 1, 2, 4, 5, 7, 8, 10, 11, 13),  # more than 8
            rung(27, 1, 3, 1, 1),  # p = 1 walks one cycle three times
            rung(27, 3, 0, 1, 1),  # no rungs to its ladders
        ):
            with pytest.raises(ValueError):
                shuffle(buf, 0, 26, 2, inverse, bad)
        with pytest.raises(ValueError):  # 3 is a unit mod 20 but does not divide 19
            shuffle(buf, 0, 24, 3, inverse, rung(20, 19, 1, 1, 1))
        for bad in ([27, 3, 3, 1, 1], None):
            with pytest.raises(TypeError):
                shuffle(buf, 0, 26, 2, inverse, bad)
        # integers beyond int64 are refused, not wrapped into range
        for lo, hi, k in ((2**64, 2**64 + 26, 2), (0, 2**64 + 26, 2), (0, 26, 2**64 + 2)):
            with pytest.raises(OverflowError):
                shuffle(buf, lo, hi, k, inverse, table)


def _bounded_buffers():
    """Fresh buffers of 26 items: an int64 ndarray, 3-byte records, and a
    view of the first 26 items of a longer int64 array."""
    return [np.arange(26, dtype=np.int64), RecordBuffer(bytearray(range(78)), 3), np.arange(40, dtype=np.int64)[:26]]


@needs_kernel
@pytest.mark.parametrize("buf", _bounded_buffers(), ids=["ndarray", "records", "view"])
def test_native_walk_refuses_to_leave_the_buffer(buf):
    # the pass as resolve binds it to the buffer, the record size among its
    # arguments for the records: every bad call raises the pass's own
    # error, and none runs the twin; a view of the first 26 items of a
    # longer array leaves the items past it alone
    owner = getattr(buf, "base", None)
    before, past = buf.tobytes(), None if owner is None else owner[26:].tolist()
    with spy() as ran:
        run = _fastpath.resolve(buf, kway._pure_pass)
        _refuse_bad_passes(run, buf)
        assert buf.tobytes() == before
        assert run(buf, 0, 26, 2, False, kway._table(2)) == (0, 29, 0, 1, 3)
    assert buf.tobytes() != before
    assert owner is None or owner[26:].tolist() == past
    assert set(ran) == {"resolve", "shuffle"} and ran["resolve"] == 1, ran


@needs_kernel
@pytest.mark.parametrize(
    "kind",
    ["list", "ndarray", "records1", "records3", "records8", "records9", "records64", "records256",
     "records257", "records300", "masked"],
)
def test_native_gather_matches_its_rotations_exhaustively(kind, most=300):
    # Every length divisible by k up to `most`, at k = 2..9, forward and
    # inverse, over the whole buffer: the native pass gathers and scatters
    # every block of its tiling by conjoined triple reversal, and leaves the
    # items and the five counts of the pure pass, whose rotations are
    # rotate_slots'. 1, 3 and 9 B records take the word loops' byte tails,
    # and 256 B and wider ones the walk's column edge. Both passes also take
    # tables of one rung, 13, 31 and 97 of k = 2, 3 and 8, and tile by it
    # alone, then a tail: at k = 2, 100 items make 8 blocks of 12 and a
    # tail of 4.
    rng = random.Random(kind)
    kind = int(kind[7:]) if kind.startswith("records") else kind
    for k, rung in [*((k, None) for k in range(2, 10)), (2, 13), (3, 31), (8, 97)]:
        for n in range(k, most + 1, k):
            for inverse in (False, True):
                _check_pass(kind, k, 0, n, n, inverse, rng, rung)
    assert _pure_pass_of(2, 0, 100, 100, False, 13)[1] == (348, 104, 5, 9, 9)


def test_rotation_closed_form_counts_the_pure_writes():
    # the closed form is at most triple reversal's count for every window
    # up to 300, and is the number of writes the pure rotation makes, each
    # of them observed, for every window up to 100 and one of 300 items
    for w in range(301):
        for d in range(w + 1):
            moves = conjoined_moves(w, d)
            assert moves <= (2 * (w // 2 + d // 2 + (w - d) // 2) if 0 < d < w else 0), (w, d)
            if w <= 100 or w == 300:
                buf = CountingList(range(w))
                assert _loops.rotate_slots(buf, 0, w, d) == moves == buf.sets, (w, d)
                assert buf == [(i - d) % w for i in range(w)], (w, d)


@needs_kernel
def test_entries_refuse_memory_of_python_objects():
    # an object ndarray's memory is references: moving them without the GIL
    # could free an object under another thread, so the pass refuses it,
    # directly as through resolve, which sends an object array to the pure
    # loops without asking the kernel and refuses a structured one, whose
    # items are views; a field merely named O is no object
    native = _fastpath._native
    for buf in (
        np.array([None, 1, "x", 2.5] * 8, dtype=object),
        np.array([(i, str(i), -i) for i in range(32)], dtype=[("i", "i8"), ("a", "O"), ("b", "i8")]),
    ):
        before = buf.copy()
        with pytest.raises(native.Refused, match="Python objects"):
            native.shuffle(buf, 0, 32, 2, False, kway._table(2))
        assert buf.tolist() == before.tolist()
        if buf.dtype.names:
            with pytest.raises(ValueError, match="views"):
                _fastpath.resolve(buf, kway._pure_pass)
        else:
            with spy() as ran:
                k_shuffle(buf, 2)
            assert ran == {"resolve": 1, "twin": 1}
            assert buf.tolist() == oracle_shuffle(before.tolist(), IN_SHUFFLE)
    named = np.array([(i, -i) for i in range(32)], dtype=[("O", "i8"), ("x", "f8")])
    native.shuffle(named, 0, 32, 2, False, kway._table(2))
    assert named["O"].tolist() == oracle_shuffle(list(range(32)), IN_SHUFFLE)
    # numpy cannot spell a datetime64 in a format: its memory is taken
    # without one, natively
    times = np.arange(3000).astype("datetime64[s]")
    before = times.tolist()
    with spy() as ran:
        k_shuffle(times, 3)
    assert ran == {"resolve": 1, "shuffle": 1}
    assert times.tolist() == oracle_shuffle(before, kway_kind(3))


def _views():
    """Arrays whose items are views, by case: (array, whether the kernel stays)."""
    pair, objects = [("a", "i8"), ("b", "i4")], [("a", "i8"), ("o", "O")]
    return {
        "2-D": (np.arange(12).reshape(6, 2), True),
        "strided-structured": (np.array([(i, -i) for i in range(24)], dtype=pair)[::2], True),
        "structured-with-objects": (np.array([(i, str(i)) for i in range(12)], dtype=objects), True),
        "structured-without-the-kernel": (np.array([(i, -i) for i in range(12)], dtype=pair), False),
    }


@pytest.mark.parametrize("case", list(_views()))
def test_arrays_whose_items_are_views_raise_and_stay_unmodified(case, monkeypatch):
    # buf[i] of these is a view into buf, so a pure swap would copy an item
    # that its first write has already overwritten
    buf, native = _views()[case]
    if not native:
        monkeypatch.setattr(_fastpath, "_native", None)  # as when the kernel did not build
    before = (buf.base if buf.base is not None else buf).tobytes()
    for shuffle in (in_shuffle, un_shuffle, out_shuffle, lambda b: k_shuffle(b, 3)):
        with pytest.raises(ValueError, match="views"):
            shuffle(buf)
        assert (buf.base if buf.base is not None else buf).tobytes() == before


@needs_kernel
def test_a_public_call_asks_the_kernel_once():
    # the entry that moves the items sorts the buffer: nothing asks the
    # kernel about it first
    buf = np.arange(1000, dtype=np.int64)
    with spy() as ran:
        in_shuffle(buf)
    assert ran == {"resolve": 1, "shuffle": 1}, ran
    records = RecordBuffer(bytearray(range(240)), 3)
    with spy() as ran:
        k_shuffle(records, 8)
    assert ran == {"resolve": 1, "shuffle": 1}, ran
    # a MaskedArray resolves itself, its data and its mask, and moves the two
    masked = np.ma.array(np.arange(1000), mask=np.arange(1000) % 3 == 0)
    with spy() as ran:
        in_shuffle(masked)
    assert ran == {"resolve": 3, "shuffle": 2}, ran


def _refused_buffers():
    """Buffers the kernel refuses, by case: (buffer, the list or memory it
    views, what an in-shuffle of it raises or None when that moves it, and
    what runs, as ``spy`` counts it)."""
    payload = bytes(range(1, 27))
    with tempfile.TemporaryFile() as handle:
        handle.write(payload)
        handle.flush()
        mapped = mmap.mmap(handle.fileno(), 26, access=mmap.ACCESS_READ)
    read_only = np.arange(26)
    read_only.flags.writeable = False
    pairs = np.array([(i, -i) for i in range(52)], dtype=[("a", "i8"), ("b", "i4")])
    backing, memory = np.arange(52), bytearray(range(52))
    refused = {"resolve": 1, "shuffle": 1, "refused": 1}
    twin = {**refused, "twin": 1}
    return {
        # read-only memory: the twin's first write raises the exporter's error
        "bytes": (payload, payload, TypeError, twin),
        "read-only memoryview": (memoryview(payload), payload, TypeError, twin),
        "read-only mmap": (mapped, mapped, TypeError, twin),
        "read-only ndarray": (read_only, read_only, ValueError, twin),
        # arrays whose items are views raise before the twin runs
        "2-D": (backing.reshape(2, 26), backing, ValueError, refused),
        "strided-structured": (pairs[::2], pairs, ValueError, refused),
        # the rest the twin moves; an object array without asking the kernel
        "objects": (np.array([None, 1, "x", 2.5] * 6 + [(), 7], dtype=object), None, None,
                    {"resolve": 1, "twin": 1}),
        "list subclass": (CountingList(range(26)), None, None, twin),
        "strided ndarray": (backing[::2], backing, None, twin),
        "strided memoryview": (memoryview(memory)[::2], memory, None, twin),
    }


@needs_kernel
def test_refused_buffers_take_the_twin_and_stay_unmodified():
    # What the entries refuse runs the Python twin: read-only memory fails
    # on its first write, with the exporter's own error, and arrays whose
    # items are views fail before it runs, unmodified. An entry refuses a
    # buffer before any item moves, and releases any view of it that it
    # took, which would otherwise hold a reference to the buffer. A view
    # that moves leaves the items between its own alone.
    for case, (buf, owner, error, runs) in _refused_buffers().items():
        items = [buf[i] for i in range(len(buf))]
        before = None if owner is None else bytes(memoryview(owner).cast("B"))
        references = sys.getrefcount(buf)
        with spy() as ran:
            if error is None:
                in_shuffle(buf)
            else:
                with pytest.raises(error):
                    in_shuffle(buf)
        assert ran == runs, case
        assert sys.getrefcount(buf) == references, case
        if error is not None:
            assert bytes(memoryview(owner).cast("B")) == before, case
            continue
        assert [buf[i] for i in range(len(buf))] == oracle_shuffle(items, IN_SHUFFLE), case
        if owner is not None:
            assert list(owner[1::2]) == list(range(1, 52, 2)), case


@needs_kernel
def test_contiguous_structured_array_shuffles_through_the_kernel():
    buf = np.array([(i, -i, i / 2) for i in range(1000)], dtype=[("a", "i8"), ("b", "i4"), ("c", "f8")])
    before = buf.tolist()
    with spy() as ran:
        in_shuffle(buf)
    assert ran == {"resolve": 1, "shuffle": 1}
    assert buf.tolist() == oracle_shuffle(before, IN_SHUFFLE)


@needs_kernel
def test_masked_arrays_move_each_mask_with_its_item(monkeypatch):
    # a MaskedArray moves its data and its mask as two plain arrays, both
    # native here: the data under a masked item moves with it, where the
    # pure loops would write back only the mask; a hard mask would keep
    # masked items put
    shuffles = [(in_shuffle, un_shuffle, IN_SHUFFLE), (out_shuffle, un_out_shuffle, OUT_SHUFFLE)]
    for k in range(3, 10):
        shuffles.append((lambda b, k=k: k_shuffle(b, k), lambda b, k=k: k_unshuffle(b, k), kway_kind(k)))
    for length in (242, 1000):
        for forward, inverse, kind in shuffles:
            n = length - length % kind.k
            for mask in (np.arange(n) % 7 == 0, np.ma.nomask):
                buf = np.ma.array(np.arange(n, dtype=np.int64), mask=mask)
                data, values = buf.data.tolist(), buf.filled(-1).tolist()
                flags = np.ma.getmaskarray(buf).tolist()
                forward(buf)
                assert buf.data.tolist() == oracle_shuffle(data, kind), (n, kind)
                assert buf.filled(-1).tolist() == oracle_shuffle(values, kind), (n, kind)
                assert np.ma.getmaskarray(buf).tolist() == oracle_shuffle(flags, kind), (n, kind)
                inverse(buf)
                assert buf.data.tolist() == data and buf.filled(-1).tolist() == values, (n, kind)
                assert np.ma.getmaskarray(buf).tolist() == flags, (n, kind)

    def refused(*args):
        raise AssertionError("a MaskedArray took the pure loops")

    monkeypatch.setattr(kway, "_pure_pass", refused)
    buf = np.ma.array(np.arange(8), mask=[1, 0, 0, 0, 0, 0, 0, 0])
    in_shuffle(buf)
    assert buf.data.tolist() == [4, 0, 5, 1, 6, 2, 7, 3]
    assert buf.mask.tolist() == [False, True] + [False] * 6
    hard = np.ma.array(np.arange(8), mask=[1, 0, 0, 0, 0, 0, 0, 0], hard_mask=True)
    for shuffle in (in_shuffle, un_shuffle):
        with pytest.raises(ValueError, match="hard mask"):
            shuffle(hard)
        assert hard.data.tolist() == list(range(8)) and hard.mask.tolist() == [True] + [False] * 7


@needs_kernel
def test_first_import_builds_one_cached_kernel(tmp_path):
    package = tmp_path / "faro"
    shutil.copytree(
        Path(_fastpath.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
    )
    cache = package / "__pycache__"
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    probe = "import faro._fastpath as f; print(f.__file__, f.HAVE_COMPILED, f.BUILD_ERROR)"
    expected = f"{package / '_fastpath.py'} True None"

    def start():
        return subprocess.Popen(
            [sys.executable, "-B", "-c", probe],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    racers = [start(), start()]
    for proc in racers:
        out, err = proc.communicate(timeout=120)
        assert out.strip() == expected, err
    built = sorted(cache.glob("_kernel-*.so"))
    assert len(built) == 1
    assert not list(cache.glob("*.tmp"))

    source = package / "_kernel.c"
    text = source.read_bytes()
    source.write_bytes(text + b"/* edited */\n")
    out, err = start().communicate(timeout=120)
    assert out.strip() == expected, err
    rebuilt = sorted(cache.glob("_kernel-*.so"))
    assert len(rebuilt) == 1 and rebuilt != built  # the pre-edit library is gone
    assert not list(cache.glob("*.tmp"))


def _verify_lengths(kind):
    """0 and the smallest order, orders just around every admissible block
    of the table below 1001, and a tail just below the smallest block."""
    if kind.family != "kway":
        blocks = {m - 1 for m, *_ in rungs(_table(2)) if m <= 1001}
        lengths = {0, 2} | {b + d for b in blocks for d in (-2, 0, 2)}
        return sorted(lengths - ({0} if kind.family == "out" else set()))
    k = kind.k
    blocks = {m - 1 for m, *_ in rungs(_table(k)) if m <= 1001}
    lengths = {0, k, max(min(blocks) - k, 0)}
    lengths |= {b // k * k for b in blocks} | {(b // k + 1) * k for b in blocks}
    return sorted(lengths)


@needs_kernel
@pytest.mark.parametrize(
    "kind", [IN_SHUFFLE, OUT_SHUFFLE] + [kway_kind(q) for q in range(2, 10)], ids=str
)
def test_native_verify_agrees_with_the_oracle(kind, monkeypatch, tmp_path):
    rng = random.Random(str(kind))
    disk = tmp_path / "original.bin"
    for n in _verify_lengths(kind):
        for rs in (1, 3, 8, 64, 257):
            values = [rng.randbytes(rs) for _ in range(n)]
            shuffled = oracle_shuffle(values, kind)
            for inverse in (False, True):
                # the file holds the original; --inverse unshuffles it
                original, result = (shuffled, values) if inverse else (values, shuffled)
                disk.write_bytes(b"".join(original))
                cases = [(b"".join(result), True)]
                for i in sorted({0, n // 2, n - 1}) if n else ():
                    flipped = bytearray(b"".join(result))
                    flipped[i * rs + rng.randrange(rs)] ^= 1 << rng.randrange(8)
                    cases.append((flipped, False))
                for res, expected in cases:
                    args = (disk, bytearray(res), rs, kind, inverse)
                    assert cli._verified(*args) is expected, (n, rs, inverse)
                    with monkeypatch.context() as m:
                        # chunks of 7 records put chunk boundaries everywhere
                        m.setattr(cli, "_CHUNK", 7 * rs + rs // 2)
                        assert cli._verified(*args) is expected, (n, rs, inverse, "7 per chunk")
                    with monkeypatch.context() as m:
                        m.setattr(_fastpath, "_native", None)
                        assert cli._verified(*args) is expected, (n, rs, inverse)


def test_agree_refuses_bad_calls_before_any_native_read(monkeypatch):
    calls = []

    class Kernel:
        def agree(self, *args):
            calls.append(args)
            return True

    monkeypatch.setattr(_fastpath, "_native", Kernel())
    agree = _fastpath.agree
    buf = bytearray(8 * 26)
    with pytest.raises(IndexError):
        agree(buf, buf, 8, -1, 3, 28, 1, 26)  # item 26 is one past the end
    with pytest.raises(IndexError):
        agree(buf, bytearray(8 * 25), 8, -1, 2, 27, 1, 26)
    with pytest.raises(IndexError):
        agree(bytearray(8 * 25 + 7), buf, 8, -1, 2, 27, 1, 26)  # the chunk is short
    with pytest.raises(ValueError):
        agree(buf, buf, 8, -2, 2, 27, 1, 26)  # would read item -1
    with pytest.raises(ValueError):
        agree(buf, buf, 8, -1, 3, 27, 1, 26)  # 9 * 3 = 0 mod 27 would read item -1
    with pytest.raises(ValueError):
        agree(buf, buf, 0, -1, 2, 27, 1, 26)
    with pytest.raises(ValueError):
        agree(buf, buf, 8, 0, 2, 0, 1, 0)
    # a chunk past the end, from before j = 1 (j0 = 0 maps to item base), or
    # out of int64
    for j0, count in ((2, 26), (27, 1), (0, 26), (-1, 2), (1, -1), (2**64, 1), (1, 2**64),
                      (2**64 + 1, -(2**64)), (1 - 2**64, 2**64)):
        with pytest.raises(IndexError):
            agree(buf, buf, 8, -1, 2, 27, j0, count)
    assert calls == []
    assert agree(bytearray(), bytearray(), 8, -1, 2, 1, 1, 0) is True  # nothing to read
    assert agree(buf, buf, 8, -1, 2, 27, 5, 0) is True
    assert calls == []
    assert agree(buf, buf, 8, -1, 2, 27, 1, 26) is True
    assert agree(buf, buf, 8, -1, 2 + 27 * 2**64, 27, 3, 24) is True
    assert [call[2:] for call in calls] == [(8, -1, 2, 27, 1, 26), (8, -1, 2, 27, 3, 24)]


def test_cli_import_leaves_numpy_out():
    probe = "import sys, faro.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=SRC_ENV, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_cli_import_leaves_ctypes_dataclasses_and_inspect_out():
    # every `faro apply` child imports faro.cli afresh; dataclasses alone
    # would pull in inspect, ast, dis and tokenize
    probe = (
        "import sys, faro.cli\n"
        "print(sorted({'ctypes', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=SRC_ENV, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


@needs_kernel
def test_numpy_imported_after_faro_takes_the_native_path():
    probe = (
        "import faro\n"
        "import numpy as np\n"
        f"import sys; sys.path.insert(0, {TESTS!r})\n"
        "from conftest import spy\n"
        "buf = np.arange(1000, dtype=np.int64)\n"
        "with spy() as ran:\n"
        "    faro.in_shuffle(buf)\n"
        "assert ran == {'resolve': 1, 'shuffle': 1}, ran\n"
        "assert buf.tolist() == faro.oracle_shuffle(list(range(1000)), faro.IN_SHUFFLE)\n"
    )
    subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, check=True)


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
needs_headers = pytest.mark.skipif(not HAVE_HEADERS, reason=f"no Python.h in {HEADERS}")


@needs_cc
@needs_headers
def test_kernel_source_compiles_without_warnings(tmp_path):
    # with the build's own flags, -O2 among them, so that warnings only the
    # optimizer finds (-Wmaybe-uninitialized, say) fail it too
    built = subprocess.run(
        [*_fastpath._CC, "-I", HEADERS, "-Wall", "-Wextra", "-Werror", "-c", "-o", str(tmp_path / "_kernel.o"),
         _fastpath._SOURCE],
        capture_output=True,
        text=True,
    )
    assert built.returncode == 0, built.stderr
    assert (tmp_path / "_kernel.o").stat().st_size > 0
    # Constant space, checked on the compiled code, not declared: gcc's
    # stack usage and call graph of the same build show every frame bounded
    # by 2 KiB, no recursion and no call of an allocator. PyObject_GetBuffer
    # runs the exporter's code once per call, outside the loops, and stays.
    macros = subprocess.run(["cc", "-dM", "-E", "-x", "c", os.devnull], capture_output=True, text=True).stdout
    gnuc = re.search(r"#define __GNUC__ (\d+)", macros)
    if "__clang__" in macros or gnuc is None or int(gnuc.group(1)) < 10:
        pytest.skip("the stack and call-graph checks need cc to be gcc 10 or later")
    built = subprocess.run(
        [*_fastpath._CC, "-I", HEADERS, "-c", "-fstack-usage", "-Wstack-usage=2048", "-fcallgraph-info=su",
         "-Werror", "-o", str(tmp_path / "checked.o"), _fastpath._SOURCE],
        capture_output=True,
        text=True,
    )
    assert built.returncode == 0, built.stderr
    frames = [line.split("\t") for line in (tmp_path / "checked.su").read_text().splitlines()]
    assert frames and all(int(size) <= 2048 and kind in ("static", "dynamic,bounded") for _, size, kind in frames)
    calls = {}
    graph = (tmp_path / "checked.ci").read_text()
    for caller, callee in re.findall(r'edge: \{ sourcename: "([^"]*)" targetname: "([^"]*)"', graph):
        calls.setdefault(caller, set()).add(callee)
    names = {callee.rpartition(":")[2].removeprefix("__builtin_") for callees in calls.values() for callee in callees}
    allocators = {"malloc", "calloc", "realloc", "alloca", "PyObject_Malloc"}
    assert not {name for name in names if name in allocators or name.startswith("PyMem_")}, names
    done, path = set(), []

    def acyclic(function):
        # whether no call path from function comes back to a function on path
        if function in path:
            return False
        if function not in done:
            path.append(function)
            if not all(acyclic(callee) for callee in calls.get(function, ())):
                return False
            path.pop()
            done.add(function)
        return True

    assert all(acyclic(function) for function in list(calls)), path


def _sanitized_cases():
    """The cases the sanitized kernel runs: the pass's and the ladder's
    parity with their twins, and the refusals of every entry."""
    import test_kway

    for q in range(2, 10):
        test_kway.test_ladder_is_every_admissible_rung_largest_first(q)
    test_native_ladder_matches_the_python_ladder_at_the_edges()
    test_ladder_refuses_bad_calls_before_it_allocates()
    for itemsize in (1, 257, "list"):
        test_native_walk_matches_the_pure_walk(itemsize, most=300)
    for kind in ("list", "ndarray", "records3", "records9", "masked"):
        test_native_gather_matches_its_rotations_exhaustively(kind, most=120)
    for m in (654_427, 654_967):
        test_walk_switches_look_ahead_at_f4_m_2_32(m)
    for itemsize in (1, 257):
        test_native_agree_matches_the_pure_agree(itemsize, range(2, 12))
    for buf in _bounded_buffers():
        test_native_walk_refuses_to_leave_the_buffer(buf)
    test_entries_refuse_memory_of_python_objects()
    test_refused_buffers_take_the_twin_and_stay_unmodified()
    test_list_entries_refuse_bad_calls_and_leave_the_list()
    test_buffer_entries_refuse_bad_calls_and_leave_the_buffer()
    test_step_refuses_what_is_no_residue()


@needs_cc
@needs_headers
def test_kernel_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    # An overrun that crashes nothing goes unseen in the plain build: a pass
    # let 2 items past a bytearray changes 2 bytes beyond it and returns.
    # So a child interpreter builds the kernel with ASan and UBSan, at -O1
    # as ASan's documentation advises (half the build time of -O2), preloads
    # their runtimes (the interpreter itself is not instrumented) and runs
    # _sanitized_cases on it, every allocation through malloc so that ASan
    # sees small buffers too. Any report, or a halt, fails the test.
    runtimes = []
    for name in ("libasan.so", "libubsan.so"):
        path = subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True, text=True).stdout.strip()
        if not os.path.isabs(path):
            pytest.skip(f"cc names no {name}: no sanitizer runtime to build the kernel against")
        runtimes.append(path)
    source = tmp_path / "_kernel.c"
    shutil.copyfile(_fastpath._SOURCE, source)
    probe = (
        "import os, sys\n"
        f"sys.path.insert(0, {TESTS!r})\n"
        "os.environ.pop('LD_PRELOAD')  # for the interpreter, not for cc\n"
        "from faro import _fastpath\n"
        f"_fastpath._SOURCE = {str(source)!r}\n"
        "_fastpath._native = _fastpath._load((*_fastpath._CC, '-O1', '-fsanitize=address,undefined'))\n"
        "import test_fastpath\n"
        "test_fastpath._sanitized_cases()\n"
        "print(_fastpath._native.__file__)\n"
    )
    env = {
        **SRC_ENV,
        "LD_PRELOAD": " ".join(runtimes),
        "ASAN_OPTIONS": "detect_leaks=0",
        "UBSAN_OPTIONS": "halt_on_error=1:print_stacktrace=1",
        "PYTHONMALLOC": "malloc",
    }
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-6000:]
    assert "AddressSanitizer" not in done.stderr and "runtime error:" not in done.stderr, done.stderr[-6000:]
    assert done.stdout.strip().startswith(str(tmp_path / "__pycache__" / "_kernel-")), done.stdout


@needs_cc
def test_build_without_python_h_takes_the_pure_loops(tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    shutil.copyfile(_fastpath._SOURCE, source)
    monkeypatch.setattr(_fastpath, "_SOURCE", str(source))
    # a failed build, here of a Python.h that does not compile, leaves
    # nothing in the cache
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "Python.h").write_text("#error no usable Python.h\n")
    with monkeypatch.context() as m:
        m.setattr(sysconfig, "get_paths", lambda: {"include": str(broken)})
        with pytest.raises(OSError, match="no usable Python.h"):
            _fastpath._load()
    assert not list((tmp_path / "__pycache__").iterdir())
    empty = tmp_path / "include"
    empty.mkdir()
    monkeypatch.setattr(sysconfig, "get_paths", lambda: {"include": str(empty)})
    with pytest.raises(OSError, match="no Python.h"):
        _fastpath._load()
    # an interpreter whose include dir lacks Python.h, and that finds no
    # module built before, sends every buffer to the pure loops
    package = tmp_path / "faro"
    shutil.copytree(Path(faro.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    probe = (
        "import sys, sysconfig\n"
        "paths = sysconfig.get_paths\n"
        f"sysconfig.get_paths = lambda *a, **k: {{**paths(*a, **k), 'include': {str(empty)!r}}}\n"
        f"sys.path.insert(0, {TESTS!r})\n"
        "import numpy as np\n"
        "from conftest import spy\n"
        "from faro import _fastpath, k_shuffle, k_unshuffle\n"
        "from faro.shuffle import RecordBuffer\n"
        "assert not _fastpath.HAVE_COMPILED and 'Python.h' in _fastpath.BUILD_ERROR\n"
        "for buf in ([1, 2], np.arange(4), RecordBuffer(bytearray(4), 2)):\n"
        "    with spy() as ran:\n"
        "        k_shuffle(buf, 2)\n"
        "        k_unshuffle(buf, 2)\n"
        "    assert ran == {'resolve': 2, 'twin': 2}, (buf, ran)\n"
    )
    subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(tmp_path)}, check=True)


@needs_cc
@needs_headers
def test_kernel_library_is_named_by_source_and_command(tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    shutil.copyfile(_fastpath._SOURCE, source)
    monkeypatch.setattr(_fastpath, "_SOURCE", str(source))

    cache = tmp_path / "__pycache__"
    stale = cache / f"_kernel-00000000{EXTENSION_SUFFIXES[0]}"

    def built():
        return sorted(cache.glob("_kernel-*"))

    def only(module):
        # a build leaves its own module alone in the cache
        return built() == [Path(module.__file__)]

    assert _fastpath._CC == ("cc", "-O2", "-shared", "-fPIC")
    module = _fastpath._load()
    assert only(module)
    first = Path(module.__file__)
    stale.write_bytes(b"")
    assert Path(_fastpath._load().__file__) == first
    assert stale.exists()  # loading a cached module removes nothing
    module = _fastpath._load(("cc", "-O1", *_fastpath._CC[2:]))
    assert only(module) and Path(module.__file__) != first
    # so does another interpreter's build
    monkeypatch.setattr(sys, "version", sys.version + " (another build)")
    assert Path(_fastpath._load().__file__) not in (first, Path(module.__file__))


@needs_kernel
def test_cached_kernel_loads_without_sysconfig():
    # sysconfig only names the include directory of a build: loading the
    # module a build left cached, as every `faro apply` child does, spares
    # its import
    probe = "import sys, faro.cli; print(faro._fastpath.HAVE_COMPILED, 'sysconfig' in sys.modules)"
    subprocess.run([sys.executable, "-c", "import faro"], env=SRC_ENV, check=True)  # cached now
    out = subprocess.run(
        [sys.executable, "-c", probe], env=SRC_ENV, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["True", "False"]


def test_kernel_is_resolved_once_per_call():
    # every public shuffle makes one call of its pass: resolved once, or for
    # an exact list, which the kernel always takes, not at all
    entry = "shuffle" if _fastpath.HAVE_COMPILED else "twin"

    def blocks_and_cycles(n, k):
        # a block per block of the tiling and the tail; d cycles per rung of
        # the ladder of each of its d coset representatives, twice that for
        # a twin block 2p^j, and the tail's own
        blocks = cycles = 0
        for _, modulus, p, j, reps, count in _blocks(0, n, _table(k)):
            blocks += count
            if j:
                cycles += count * len(reps) * (1 + (modulus % 2 == 0)) * j
            else:
                cycles += len(cycle_decomposition(kway_kind(k), modulus - 1).cycles)
        return blocks, cycles

    # (call, length, k); every public call is one pass
    calls = [
        (lambda buf: k_shuffle(buf, 6), 60_000, 6),
        (lambda buf: k_unshuffle(buf, 9), 59_994, 9),
        (lambda buf: k_unshuffle(buf, 7), 7_000, 7),  # with a tail of 7
        (un_shuffle, 1 << 16, 2),
    ]
    for call, n, k in calls:
        for buf in (np.arange(n, dtype=np.int64), list(range(n))):
            with spy() as ran:
                call(buf)
            assert sorted(buf.tolist() if isinstance(buf, np.ndarray) else buf) == list(range(n))
            resolved = {} if type(buf) is list and _fastpath.HAVE_COMPILED else {"resolve": 1}
            assert ran == {**resolved, entry: 1}, ran
            assert ran.returned[0][3:] == blocks_and_cycles(n, k), (ran.returned, k)


def _public_calls():
    """Every public shuffle, forward and inverse, as (function, its
    arguments after the buffer, kind, inverse), the k-way ones at every
    arity."""
    yield in_shuffle, (), IN_SHUFFLE, False
    yield un_shuffle, (), IN_SHUFFLE, True
    yield out_shuffle, (), OUT_SHUFFLE, False
    yield un_out_shuffle, (), OUT_SHUFFLE, True
    for k in range(2, 10):
        yield k_shuffle, (k,), kway_kind(k), False
        yield k_unshuffle, (k,), kway_kind(k), True


@needs_kernel
def test_a_list_reaches_the_native_pass_through_two_python_frames(monkeypatch):
    # The public function and kway._pass are the only Python functions a
    # shuffle of an exact list runs before the native pass, once its
    # arity's table is built: the length check, the list rule, the table
    # and the counts are inline. The first call of an arity adds _table,
    # which has the kernel's ladder entry build the table, with no Python
    # loop. Without the kernel the same calls run the twin through resolve,
    # and build the same tables in Python. Every call matches the oracle
    # either way.
    items = list(range(2520))  # a multiple of every arity
    native = _fastpath._native

    def frames(function, buf, args):
        # the Python functions that function(buf, *args) runs, in order,
        # and the kernel entries it calls, as "native.<name>", up to its
        # first call of the native pass
        called = []

        def profile(frame, event, arg):
            if event == "call":
                called.append(frame.f_code.co_name)
            elif event == "c_call" and getattr(arg, "__self__", None) is native:
                called.append(f"native.{arg.__name__}")

        sys.setprofile(profile)
        try:
            function(buf, *args)
        finally:
            sys.setprofile(None)
        return called[: called.index("native.shuffle") + 1] if "native.shuffle" in called else called

    # the first call of an arity builds its table, and only that one
    monkeypatch.setattr(kway, "_TABLES", {})
    buf = list(items)
    assert frames(k_shuffle, buf, (5,)) == ["k_shuffle", "_pass", "_table", "native.ladder", "native.shuffle"]
    assert list(kway._TABLES) == [5] and buf == oracle_shuffle(items, kway_kind(5))
    for function, args, kind, inverse in _public_calls():
        kway._table(kind.k)  # built before, as by an earlier call of the arity
        expected = oracle_shuffle(items, kind)
        buf = list(expected if inverse else items)
        assert frames(function, buf, args) == [function.__name__, "_pass", "native.shuffle"], (function, args)
        assert buf == (items if inverse else expected), (function, args)
    built = {k: table.tobytes() for k, table in kway._TABLES.items()}
    monkeypatch.setattr(_fastpath, "_native", None)  # as when the kernel did not build
    monkeypatch.setattr(kway, "_TABLES", {})
    for function, args, kind, inverse in _public_calls():
        expected = oracle_shuffle(items, kind)
        buf = list(expected if inverse else items)
        with spy() as ran:
            function(buf, *args)
        assert ran == {"resolve": 1, "twin": 1}, (function, args)
        assert buf == (items if inverse else expected), (function, args)
    assert {k: table.tobytes() for k, table in kway._TABLES.items()} == built and sorted(built) == list(range(2, 10))


@pytest.mark.parametrize("k", [2, 3, 5, 6])
def test_list_shuffles_leave_refcounts_alone(k):
    items = [object() for _ in range(k * 3000)]
    buf = list(items)
    before = [sys.getrefcount(item) for item in items]
    k_shuffle(buf, k)
    assert sorted(map(id, buf)) == sorted(map(id, items))
    assert [sys.getrefcount(item) for item in items] == before
    k_unshuffle(buf, k)
    assert all(got is item for got, item in zip(buf, items))
    assert [sys.getrefcount(item) for item in items] == before
    del buf
    assert [sys.getrefcount(item) for item in items] == [count - 1 for count in before]


def test_list_subclass_takes_the_pure_loops(monkeypatch):
    # the kernel, when there is one, refuses it; the twins move it
    def refused(entry):
        return {entry: 1, "refused": 1} if _fastpath.HAVE_COMPILED else {}

    buf = CountingList(range(600))
    with spy() as ran:
        k_shuffle(buf, 3)
    assert ran == {"resolve": 1, **refused("shuffle"), "twin": 1}, ran
    assert buf.gets > 600 and buf.sets > 600
    assert list(buf) == oracle_shuffle(list(range(600)), kway_kind(3))
    with spy() as ran:
        k_unshuffle(buf, 3)
    assert ran == {"resolve": 1, **refused("shuffle"), "twin": 1}, ran
    assert list(buf) == list(range(600))
    monkeypatch.setattr(_fastpath, "_native", None)  # as when the kernel did not build
    with spy() as ran:
        k_shuffle([1, 2], 2)
        k_unshuffle([1, 2], 2)
    assert ran == {"resolve": 2, "twin": 2}, ran


def test_every_buffer_takes_the_pure_loops_without_the_kernel(monkeypatch):
    monkeypatch.setattr(_fastpath, "_native", None)  # as when the kernel did not build
    for buf in ([1, 2], np.arange(4), RecordBuffer(bytearray(4), 2), array.array("q", [1, 2]),
                memoryview(bytearray(16)).cast("q"), bytearray(4), mmap.mmap(-1, 4),
                RecordBuffer(mmap.mmap(-1, 4), 2)):
        with spy() as ran:
            k_shuffle(buf, 2)
            k_unshuffle(buf, 2)
        assert ran == {"resolve": 2, "twin": 2}, buf


def test_empty_and_two_element_lists():
    for fn in (in_shuffle, un_shuffle):
        buf = []
        fn(buf)
        assert buf == []
    for fn in (in_shuffle, un_shuffle):
        buf = ["x", "y"]
        fn(buf)
        assert buf == ["y", "x"]
    for fn in (out_shuffle, un_out_shuffle):
        buf = ["x", "y"]
        fn(buf)
        assert buf == ["x", "y"]
    for k in range(2, 10):
        for fn in (k_shuffle, k_unshuffle):
            buf = []
            fn(buf, k)
            assert buf == []
    for fn in (k_shuffle, k_unshuffle):
        buf = ["x", "y"]
        fn(buf, 2)
        assert buf == ["y", "x"]


@needs_kernel
def test_list_entries_refuse_bad_calls_and_leave_the_list():
    # the pass as a list's shuffle reaches it
    buf, run = list(range(26)), _fastpath._native.shuffle
    _refuse_bad_passes(run, buf)
    # what is neither an exact list nor memory is refused
    for other in (tuple(buf), CountingList(buf)):
        with pytest.raises(_fastpath._native.Refused, match=f"{type(other).__name__} lends no"):
            run(other, 0, 26, 2, False, kway._table(2))
    assert buf == list(range(26))
    assert run(buf, 0, 26, 2, False, kway._table(2)) == (0, 29, 0, 1, 3)
    assert buf == oracle_shuffle(list(range(26)), IN_SHUFFLE)
    assert run(buf, 0, 26, 2, True, kway._table(2)) == (0, 29, 0, 1, 3)
    assert buf == list(range(26))


@needs_kernel
def test_buffer_entries_refuse_bad_calls_and_leave_the_buffer():
    native = _fastpath._native
    # the kernel's whole surface: one pass moves items, agree checks them,
    # step serves the tests, ladder builds the pass's tables, and Refused is
    # the pass's refusal
    assert {name for name in dir(native) if not name.startswith("_")} == {"shuffle", "agree", "step", "ladder", "Refused"}
    # memory the entries cannot take: (owner, buffer, itemsize or 0 for the
    # buffer's own), each of 26 items
    backing = np.arange(52, dtype=np.int64)
    for owner, buf, size in (
        (None, bytes(26 * 8), 8),  # read-only
        (backing, memoryview(backing)[::2], 0),  # strided
        (backing, backing.reshape(2, 26), 0),  # 2-D
    ):
        before = bytes(memoryview(buf if owner is None else owner).tobytes())
        extra = (size,) if size else ()
        with pytest.raises(native.Refused):
            native.shuffle(buf, 0, 26, 2, False, kway._table(2), *extra)
        assert memoryview(buf if owner is None else owner).tobytes() == before
    # memory they take, bound to bad calls
    for buf, size in ((np.arange(26, dtype=np.int64), 0), (bytearray(range(78)), 3)):
        before = bytes(buf)
        extra = (size,) if size else ()
        # record sizes beyond int64 or below one byte
        for bad in (2**64 + size, -size - 1):
            with pytest.raises((OverflowError, ValueError)):
                native.shuffle(buf, 0, 26, 2, False, kway._table(2), bad)
        _refuse_bad_passes(lambda buf, *args: native.shuffle(buf, *args, *extra), buf)
        assert bytes(buf) == before
        native.shuffle(buf, 0, 26, 2, False, kway._table(2), *extra)
        assert bytes(buf) != before


@needs_kernel
def test_buffer_walks_run_without_the_gil():
    # The pass over 3^14 - 1 items, one block, takes milliseconds. Another
    # thread that keeps taking timestamps meanwhile can only take one well
    # inside the call when it has let go of the GIL: a call that held it
    # would let that thread run only around the call, within a switch
    # interval of it. A busy host can still deschedule the ticker for the
    # whole middle of one call, so up to three calls are timed, each on a
    # fresh buffer.
    interval = sys.getswitchinterval()
    m = 3**14
    expected = np.empty(m - 1, dtype=np.int64)
    expected[2 * np.arange(1, m) % m - 1] = np.arange(m - 1)  # the in-shuffle
    stamps, stop = [], threading.Event()

    def tick():
        while not stop.is_set():
            stamps.append(time.perf_counter())

    ticker = threading.Thread(target=tick)
    sys.setswitchinterval(1e-4)
    ticker.start()
    try:
        while not stamps:
            time.sleep(0.001)
        for _ in range(3):
            buf = np.arange(m - 1, dtype=np.int64)
            start = time.perf_counter()
            _fastpath._native.shuffle(buf, 0, m - 1, 2, False, kway._table(2))
            end = time.perf_counter()
            assert np.array_equal(buf, expected)
            quarter = (end - start) / 4
            inside = any(start + quarter < t < end - quarter for t in stamps)
            if inside:
                break
    finally:
        stop.set()
        ticker.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not ticker.is_alive()
    assert inside, (end - start, len(stamps))


@needs_kernel
def test_fresh_interpreter_sends_lists_to_the_kernel():
    # lists and memory go native by the kernel's own check, with numpy never
    # imported; a list's pass does not resolve it, memory's does
    probe = (
        "import array, sys\n"
        f"sys.path.insert(0, {TESTS!r})\n"
        "from conftest import spy\n"
        "from faro import k_shuffle, k_unshuffle\n"
        "for buf in ([1, 2], array.array('q', [1, 2]), bytearray(4)):\n"
        "    with spy() as ran:\n"
        "        k_shuffle(buf, 2)\n"
        "        k_unshuffle(buf, 2)\n"
        "    resolved = {} if type(buf) is list else {'resolve': 2}\n"
        "    assert ran == {**resolved, 'shuffle': 2}, (buf, ran)\n"
        "assert 'numpy' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, check=True)


def test_list_resized_by_another_thread_never_kills_the_process():
    # A list's pass holds the GIL throughout and checks the list's size when
    # it starts, so a thread that clears and refills the list between the
    # public call's length check and its pass can only make the shuffle
    # raise, never crash it.
    probe = (
        "import sys, threading, time\n"
        "import faro\n"
        "sys.setswitchinterval(1e-5)\n"
        "buf = list(range(1 << 16))\n"
        "def meddle():\n"
        "    for _ in range(50):\n"
        "        time.sleep(0.0005)\n"
        "        buf.clear()\n"
        "        time.sleep(0.0001)\n"
        "        buf.extend(range(1 << 16))\n"
        "thread = threading.Thread(target=meddle)\n"
        "thread.start()\n"
        "raised = 0\n"
        "while thread.is_alive():\n"
        "    if len(buf) != 1 << 16:\n"
        "        time.sleep(0)\n"
        "        continue\n"
        "    try:\n"
        "        faro.k_shuffle(buf, 2)\n"
        "    except (IndexError, ValueError):\n"
        "        raised += 1\n"
        "print(raised)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=SRC_ENV, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, (done.returncode, done.stderr)
