import array
import mmap
import os
import random
import shutil
import subprocess
import sys
import sysconfig
import threading
import time
from importlib.machinery import EXTENSION_SUFFIXES
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from conftest import CountingList

import faro
from faro import _fastpath, _loops, cli
from faro.kway import _REPS, _blocks, _general_cycle_passes, _ladder, k_shuffle, k_unshuffle
from faro.numtheory import is_primitive_root
from faro.oracle import oracle_shuffle
from faro.permcore import IN_SHUFFLE, OUT_SHUFFLE, cycle_decomposition, kway_kind
from faro.rotate import reverse_range, rotate_right
from faro.shuffle import Instrumentation, RecordBuffer, in_shuffle, out_shuffle, un_out_shuffle, un_shuffle

needs_kernel = pytest.mark.skipif(not _fastpath.HAVE_COMPILED, reason=str(_fastpath.BUILD_ERROR))
HEADERS = sysconfig.get_paths()["include"]
HAVE_HEADERS = os.path.exists(os.path.join(HEADERS, "Python.h"))
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(faro.__file__).parents[1])}


@needs_kernel
def test_mulmod_matches_python_near_2_63():
    # the walk's step for moduli whose cycles could never be allocated
    rng = random.Random(50)
    moduli = [2**63 - 1, 2**62, 2**62 + 1, 2**62 - 1, 3**39, 2**32 + 15, 2**32 - 5]
    moduli += [rng.randrange(2**61, 2**63) for _ in range(20)]
    for m in moduli:
        pairs = [(m - 1, m - 1), (m - 1, 2), (2, m - 1), (0, m - 1), (1, 1)]
        pairs += [(rng.randrange(m), rng.randrange(m)) for _ in range(200)]
        for a, b in pairs:
            assert _fastpath._native.mulmod(a, b, m) == a * b % m, (a, b, m)


def _multipliers(m):
    """Units mod m that reach each kind of walk step: q and q^-1 mod m for
    every arity q in 2..9 coprime to m, and a unit with neither side at most
    9 when there is one, which takes mulmod."""
    units = [mult for q in range(2, 10) if q < m and gcd(q, m) == 1 for mult in (q, pow(q, -1, m))]
    big = (u for u in range(m // 3, m) if gcd(u, m) == 1 and min(u, pow(u, -1, m)) > 9)
    return units + [u for u in [next(big, None)] if u is not None]


def _fast(f, m):
    """Whether the walk has a step by x f mod m that does not divide."""
    return 2 <= f <= 9 and f * m <= 2**32


@needs_kernel
def test_walk_step_matches_python_at_the_edges_of_each_path():
    # a walk under x mult visits slots by x f: it pushes along f = mult when
    # that step is fast or mult^-1 has none, and pulls along f = mult^-1;
    # step(j, mult, m, s) is the s-th slot after j, computed as the walk
    # computes it, by one look-ahead fastmod while f^4 * m <= 2^32
    step = _fastpath._native.step
    rng = random.Random(51)
    moduli = {3, 4, 5, 8, 9, 11, 243, 2 * 7**5, 3**12, 2**32 - 5, 2**32 + 15, 3**39}
    moduli |= {2**63 - d for d in range(1, 40)} | {rng.randrange(2**61, 2**63) for _ in range(10)}
    # Lemire's fastmod serves the q-way steps while q * m <= 2^32, and the
    # look-ahead by s slots while q^s * m <= 2^32
    for q in range(2, 10):
        for s in range(1, 5):
            moduli |= set(range(2**32 // q**s - 3, 2**32 // q**s + 4))
    for m in sorted(moduli):
        for mult in _multipliers(m) + [1, m - 1]:
            inv = pow(mult, -1, m)
            f = inv if _fast(inv, m) and not _fast(mult, m) else mult
            for j in {1, 2, m // 2, m - 2, m - 1, *(rng.randrange(1, m) for _ in range(20))} - {0}:
                assert step(j, mult, m) == j * f % m, (j, mult, m)
                for s in range(1, 5):
                    assert step(j, mult, m, s) == j * pow(f, s, m) % m, (j, mult, m, s)
    assert step(1, 3, 9) == -1 and step(1, 0, 7) == -1  # no unit, no step
    for s in (0, 5):
        with pytest.raises(ValueError):
            step(1, 2, 7, s)


@needs_kernel
@pytest.mark.parametrize("m", [654_593, 654_629], ids=["ahead", "one-step"])
def test_walk_switches_look_ahead_at_f4_m_2_32(m):
    # A 9-way walk looks four slots ahead while 9^4 * m <= 2^32, that is
    # m <= 654,620, and steps one slot at a time above. m is a prime of
    # which 3 is a primitive root, so x 9 has two cycles, led by 1 and 3:
    # one ladder of p = 3 and count 2 walks all of them.
    assert all(m % d for d in range(2, 810)) and is_primitive_root(3, m)
    assert 9**4 * m <= 2**32 if m < 654_620 else 9 * m <= 2**32 < 9**4 * m
    rng = np.random.default_rng(m)
    for mult in (9, pow(9, -1, m)):
        items = rng.integers(-(2**63), 2**63 - 1, m - 1, dtype=np.int64)
        buf = items.copy()
        _fastpath.kernel(buf)[1](buf, -1, 1, mult, m, 3, 2)
        expected = np.empty_like(items)
        expected[np.arange(1, m, dtype=np.int64) * mult % m - 1] = items  # j -> j * mult
        assert np.array_equal(buf, expected), mult


@needs_kernel
@pytest.mark.parametrize("itemsize", [1, 8, 9, 64, 256, 257, "list", "ndarray"])
def test_native_walk_matches_the_pure_walk(itemsize):
    # blocks p^j and 2p^j under every step kind: each leader p^s and 2p^s
    # alone, then whole and partial ladders of them in one call; the x 2
    # cycles of 5^2 and 7^2 (lengths 20, 4, 21 and 3) and of 3^5 (162, ...)
    # close on every one of a look-ahead's four slots
    rng = random.Random(str(itemsize))
    blocks = ((3, 5, 3**5), (7, 2, 2 * 7**2), (3, 3, 2 * 3**3), (13, 2, 2 * 13**2), (5, 2, 5**2), (7, 2, 7**2))
    for p, j, m in blocks:
        starts = (1, 2) if m % 2 == 0 else (1,)
        leaders = [c * p**s for c in starts for s in range(j)]
        if itemsize == "list":
            buf = list(range(m + 5))
        elif itemsize == "ndarray":
            buf = np.array([rng.randrange(-(2**63), 2**63) for _ in range(m + 5)], dtype=np.int64)
        else:
            buf = RecordBuffer(bytearray(rng.randbytes((m + 5) * itemsize)), itemsize)
        expected = [buf[i] for i in range(m + 5)]
        walk = _fastpath.kernel(buf)[1]
        assert walk is not _loops.cycle_walk
        ladders = [(leader, 1) for leader in leaders]
        ladders += [(c, j) for c in starts] + [(c * p, j - 1) for c in starts] + [(starts[-1], 0)]
        for mult in _multipliers(m):
            for base in (-1, 4):
                for leader, count in ladders:
                    walk(buf, base, leader, mult, m, p, count)
                    _loops.cycle_walk(expected, base, leader, mult, m, p, count)
                    assert [buf[i] for i in range(m + 5)] == expected, (m, mult, base, leader, count)


@needs_kernel
@pytest.mark.parametrize("itemsize", [1, 3, 8, 64, 257])
def test_native_agree_matches_the_pure_agree(itemsize):
    # every unit mult mod m <= 30 over the whole of 1..m-1, and every window
    # j0 .. j0 + count - 1 under the smallest unit above 1 (few wraps) and
    # m - 1 (a wrap at almost every step); each against the moved items and
    # against copies with one byte flipped at the first, middle and last item
    rng = random.Random(itemsize)
    for m in range(2, 31):
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
    # Both directions of every walk step by x q without a division. A
    # direction that fell back to one, or to a copy call per item, would be
    # far slower: on a 2-core Xeon the two directions read within 1.12x of
    # each other, and a forward 3-way walk forced onto mulmod 2.85x. The
    # blocks fit in L2, so the walks are bound by the step rather than by
    # memory. Each is one block's cycle passes, every coset representative
    # of its base included: (q, p, j, modulus).
    for q, p, j, m in (
        (2, 3, 11, 3**11),
        (3, 7, 5, 2 * 7**5),
        (4, 5, 7, 5**7),
        (5, 3, 10, 3**10),
        (7, 13, 4, 2 * 13**4),
        (9, 5, 7, 2 * 5**7),
    ):
        buf = np.arange(m - 1, dtype=np.int64)
        walk = _fastpath.kernel(buf)[1]
        reps = tuple(sorted({min(c * q**t % p for t in range(p)) for c in range(1, p)}))

        def best(mult):
            times = []
            for _ in range(7):
                start = time.perf_counter()
                _general_cycle_passes(buf, 0, j, p, reps, mult, m, None, walk)
                times.append(time.perf_counter() - start)
            return min(times)

        forward, inverse = best(q), best(pow(q, -1, m))
        assert max(forward, inverse) <= 2 * min(forward, inverse), (q, forward, inverse)
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


# (leader, p, count) of ladders mod 27 that leave 1..26 before any walk:
# the last leader is 27; 3 * p is 2^64 + 2, which wraps into range in int64;
# a negative count
_BAD_LADDERS = ((1, 3, 4), (3, 6148914691236517206, 2), (1, 3, -1))


@needs_kernel
@pytest.mark.parametrize(
    "buf",
    [np.arange(26, dtype=np.int64), RecordBuffer(bytearray(range(78)), 3)],
    ids=["ndarray", "records"],
)
def test_native_walk_refuses_to_leave_the_buffer(buf):
    before = buf.tobytes()
    reverse, _, walk = _fastpath.loops(buf)
    with pytest.raises(IndexError):
        walk(buf, 0, 1, 2, 27, 3, 1)  # last slot would be 26, one past the end
    with pytest.raises(IndexError):
        walk(buf, -2, 1, 2, 27, 3, 1)
    for lo, hi in ((0, 27), (-1, 3), (5, 4)):
        with pytest.raises(IndexError):
            reverse(buf, lo, hi)
    with pytest.raises(ValueError):
        walk(buf, -1, 0, 2, 27, 3, 1)  # leader 0 is fixed, not a cycle
    with pytest.raises(ValueError):
        walk(buf, -1, 1, 3, 27, 3, 1)  # 3 is no unit mod 27: the orbit never closes
    for leader, p, count in _BAD_LADDERS:
        with pytest.raises(ValueError):
            walk(buf, -1, leader, 2, 27, p, count)
    assert buf.tobytes() == before
    walk(buf, -1, 1, 2, 27, 3, 3)
    assert buf.tobytes() != before


@needs_kernel
def test_native_reverse_stays_inside_a_view():
    backing = np.arange(10)
    view = backing[:4]
    reverse = _fastpath.loops(view)[0]
    assert reverse is not _loops.reverse_slots
    with pytest.raises(IndexError):
        reverse(view, 0, 6)  # the view ends at 4; the backing array goes on
    assert backing.tolist() == list(range(10))
    reverse(view, 0, 4)
    assert backing.tolist() == [3, 2, 1, 0, 4, 5, 6, 7, 8, 9]


@needs_kernel
@pytest.mark.parametrize("kind", ["list", "ndarray", "records8", "records64"])
def test_native_reverse_matches_slice_reversal_exhaustively(kind):
    # 8-byte items are reversed two from each end at a time and the 0 to 3
    # left in the middle one at a time: every range of every length up to
    # 40 meets each parity of lo and hi and each size of that middle
    rng = random.Random(kind)
    for n in range(41):
        if kind == "list":
            buf = list(range(n))
        elif kind == "ndarray":
            buf = np.array([rng.randrange(-(2**63), 2**63) for _ in range(n)], dtype=np.int64)
        else:
            buf = RecordBuffer(bytearray(rng.randbytes(n * int(kind[7:]))), int(kind[7:]))
        reverse = _fastpath.loops(buf)[0]
        assert reverse is not _loops.reverse_slots
        expected = [buf[i] for i in range(n)]
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                reverse(buf, lo, hi)
                expected[lo:hi] = expected[lo:hi][::-1]
                assert [buf[i] for i in range(n)] == expected, (n, lo, hi)


def _gathers(n):
    """Every (offset, part, b, k) of a gather inside n items: k parts of
    `part` items from `offset`, whose windows reach offset + (k - 1) * part + b."""
    for k in range(2, 10):
        for part in range(n // (k - 1) + 1):
            for b in range(min(part, n - (k - 1) * part) + 1):
                for offset in range(n - (k - 1) * part - b + 1):
                    yield offset, part, b, k


@needs_kernel
@pytest.mark.parametrize("kind", ["list", "ndarray", "records1", "records8", "records64", "masked"])
def test_native_gather_matches_its_rotations_exhaustively(kind):
    # every gather and scatter inside 40 items, at k = 2..9: the native
    # gather, its pure twin and the public rotate_right over the same
    # windows leave the same items and count the same moves, and each
    # scatter undoes its gather
    n = 40
    records = [bytes((i * 37 + s) % 256 for s in range(int(kind[7:]))) for i in range(n)] if kind[7:] else None
    if kind == "list":
        buf = list(range(n))
    elif kind == "ndarray":
        buf = np.arange(n, dtype=np.int64)
    elif kind == "masked":
        buf = np.ma.array(np.arange(n, dtype=np.int64), mask=np.arange(n) % 3 == 0)
    else:
        buf = RecordBuffer(bytearray(b"".join(records)), len(records[0]))
    gather = _fastpath.kernel(buf)[0]
    assert gather is not _loops.gather_slots

    def holds(order):
        # whether buf holds its first items in this order
        if kind == "masked":
            return buf.data.tolist() == order and buf.mask.tolist() == [i % 3 == 0 for i in order]
        if records:
            return bytes(buf.data) == b"".join(records[i] for i in order)
        return (buf if kind == "list" else buf.tolist()) == order

    pure = list(range(n))
    for offset, part, b, k in _gathers(n):
        for inverse in (False, True):
            moves = gather(buf, offset, part, b, k, inverse)
            rotated, instr = list(pure), Instrumentation()
            for t in range(k - 1, 0, -1) if inverse else range(1, k):
                d = t * (part - b) if inverse else b
                rotate_right(rotated, offset + t * b, offset + t * part + b, d, instr)
            case = (offset, part, b, k, inverse)
            assert _loops.gather_slots(pure, offset, part, b, k, inverse) == moves, case
            assert instr.rotate_moves == moves and rotated == pure, case
            assert holds(pure), case
        assert pure == list(range(n)), (offset, part, b, k)


@needs_kernel
@pytest.mark.parametrize(
    "buf",
    [list(range(26)), np.arange(26, dtype=np.int64), RecordBuffer(bytearray(range(78)), 3)],
    ids=["list", "ndarray", "records"],
)
def test_native_gather_refuses_to_leave_the_buffer(buf):
    before = [buf[i] for i in range(26)]
    gather = _fastpath.kernel(buf)[0]
    assert gather is not _loops.gather_slots
    # (offset, part, b, k): windows that end one past the buffer or begin
    # before it, and bounds that overflow int64 on the way to the last end
    for args in ((0, 13, 1, 3), (2, 24, 1, 2), (1, 3, 2, 9), (-1, 1, 1, 2),
                 (0, 2**62, 0, 3), (0, 2**61, 0, 9), (0, 2**62, 2**62, 2), (2**62, 2**62 - 1, 1, 2),
                 (2**63 - 1, 0, 0, 2)):
        for inverse in (False, True):
            with pytest.raises(IndexError):
                gather(buf, *args, inverse)
    # slices wider than their parts, and arities outside 2..9
    for args in ((0, 3, 4, 2), (0, 3, -1, 2), (0, 2, 1, 1), (0, 2, 1, 10), (0, 0, 0, -1)):
        with pytest.raises(ValueError):
            gather(buf, *args, False)
    # integers beyond int64 are refused, not wrapped into range
    for args in ((2**64, 1, 1, 2), (0, 2**64 + 1, 1, 2), (0, 2, 2**64 + 1, 2), (0, 2, 1, 2**64 + 2)):
        with pytest.raises(OverflowError):
            gather(buf, *args, False)
    assert [buf[i] for i in range(26)] == before
    assert gather(buf, 1, 12, 12, 2, False) == 0  # a slice of the whole part moves nothing
    assert gather(buf, 0, 13, 0, 2, True) == 0
    assert gather(buf, 2, 8, 3, 3, False) == 2 * (4 + 1 + 2) + 2 * (6 + 1 + 5)
    assert [buf[i] for i in range(26)] != before


@needs_kernel
def test_entries_refuse_memory_of_python_objects():
    # an object ndarray's memory is references: moving them without the GIL
    # could free an object under another thread, so both entries refuse it,
    # directly as through the kernel's own sort, which sends an object array
    # to the pure loops and refuses a structured one, whose items are views;
    # a field merely named O is no object
    native = _fastpath._native
    for buf in (
        np.array([None, 1, "x", 2.5] * 8, dtype=object),
        np.array([(i, str(i), -i) for i in range(32)], dtype=[("i", "i8"), ("a", "O"), ("b", "i8")]),
    ):
        before = buf.copy()
        with pytest.raises(BufferError, match="Python objects"):
            native.reverse(buf, 0, 32)
        with pytest.raises(BufferError, match="Python objects"):
            native.gather(buf, 0, 16, 8, 2, False)
        with pytest.raises(BufferError, match="Python objects"):
            native.walk(buf, -1, 1, 2, 33, 2, 1)
        assert buf.tolist() == before.tolist()
        if buf.dtype.names:
            with pytest.raises(ValueError, match="views"):
                _fastpath.kernel(buf)
        else:
            assert _fastpath.loops(buf) == _fastpath._PURE
            assert _fastpath.kernel(buf) == (_loops.gather_slots, _loops.cycle_walk)
    named = np.array([(i, -i) for i in range(32)], dtype=[("O", "i8"), ("x", "f8")])
    native.reverse(named, 0, 32)
    assert named["O"].tolist() == list(range(31, -1, -1))
    # numpy cannot spell a datetime64 in a format: its memory is taken
    # without one, natively
    times = np.arange(3000).astype("datetime64[s]")
    before = times.tolist()
    assert _fastpath.kernel(times)[1] is native.walk
    k_shuffle(times, 3)
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
    for shuffle in (in_shuffle, un_shuffle, lambda b: k_shuffle(b, 3), lambda b: reverse_range(b, 0, 4)):
        with pytest.raises(ValueError, match="views"):
            shuffle(buf)
        assert (buf.base if buf.base is not None else buf).tobytes() == before


@needs_kernel
def test_contiguous_structured_array_shuffles_through_the_kernel():
    buf = np.array([(i, -i, i / 2) for i in range(1000)], dtype=[("a", "i8"), ("b", "i4"), ("c", "f8")])
    before = buf.tolist()
    assert _fastpath.kernel(buf)[1] is _fastpath._native.walk
    in_shuffle(buf)
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

    monkeypatch.setattr(_fastpath, "_PURE", (refused, refused, refused))
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
    source.write_bytes(text.replace(b"Native", b"native", 1))
    out, err = start().communicate(timeout=120)
    assert out.strip() == expected, err
    rebuilt = sorted(cache.glob("_kernel-*.so"))
    assert len(rebuilt) == 1 and rebuilt != built  # the pre-edit library is gone
    assert not list(cache.glob("*.tmp"))


def _verify_lengths(kind):
    """0 and the smallest order, orders just around every admissible block
    of the table below 1001, and a tail just below the smallest block."""
    if kind.family != "kway":
        blocks = {m - 1 for m, _, _ in _ladder(2)[0] if m <= 1001}
        lengths = {0, 2} | {b + d for b in blocks for d in (-2, 0, 2)}
        return sorted(lengths - ({0} if kind.family == "out" else set()))
    k = kind.k
    blocks = {m - 1 for m, _, _ in _ladder(k)[0] if m <= 1001}
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
        "from faro import _fastpath, _loops\n"
        "buf = np.arange(1000, dtype=np.int64)\n"
        "assert _fastpath.kernel(buf)[1] is not _loops.cycle_walk\n"
        "faro.in_shuffle(buf)\n"
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
        [*_fastpath._cc_argv(), "-Wall", "-Wextra", "-Werror", "-c", "-o", str(tmp_path / "_kernel.o"),
         _fastpath._SOURCE],
        capture_output=True,
        text=True,
    )
    assert built.returncode == 0, built.stderr
    assert (tmp_path / "_kernel.o").stat().st_size > 0


@needs_cc
def test_build_without_python_h_takes_the_pure_loops(tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    shutil.copyfile(_fastpath._SOURCE, source)
    monkeypatch.setattr(_fastpath, "_SOURCE", str(source))
    empty = tmp_path / "include"
    empty.mkdir()
    with pytest.raises(OSError, match="Python.h"):
        _fastpath._load(["cc", "-O2", "-shared", "-fPIC", "-I", str(empty), "-x", "c"])
    assert not list((tmp_path / "__pycache__").iterdir())
    monkeypatch.setattr(sysconfig, "get_paths", lambda: {"include": str(empty)})
    with pytest.raises(OSError, match="Python.h"):
        _fastpath._cc_argv()
    # an interpreter whose include dir lacks Python.h sends every buffer to
    # the pure loops
    probe = (
        "import sysconfig\n"
        "paths = sysconfig.get_paths\n"
        f"sysconfig.get_paths = lambda *a, **k: {{**paths(*a, **k), 'include': {str(empty)!r}}}\n"
        "import numpy as np\n"
        "from faro import _fastpath, _loops\n"
        "from faro.shuffle import RecordBuffer\n"
        "assert not _fastpath.HAVE_COMPILED and 'Python.h' in _fastpath.BUILD_ERROR\n"
        "for buf in ([1, 2], np.arange(4), RecordBuffer(bytearray(4), 2)):\n"
        "    assert _fastpath.kernel(buf) == (_loops.gather_slots, _loops.cycle_walk), buf\n"
    )
    subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, check=True)


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

    argv = _fastpath._cc_argv()
    assert argv == ["cc", "-O2", "-shared", "-fPIC", "-I", HEADERS, "-x", "c"]
    module = _fastpath._load(argv)
    assert only(module)
    first = Path(module.__file__)
    stale.write_bytes(b"")
    assert Path(_fastpath._load(argv).__file__) == first
    assert stale.exists()  # loading a cached module removes nothing
    module = _fastpath._load(["cc", "-O1", *argv[2:]])
    assert only(module) and Path(module.__file__) != first


def test_kernel_is_resolved_once_per_call(monkeypatch):
    counts = dict(loops=0, reverse=0, gather=0, walk=0)
    real_loops = _fastpath.loops

    def counting(name, loop):
        def counted(*args):
            counts[name] += 1
            return loop(*args)

        return counted

    def loops(buf):
        counts["loops"] += 1
        return tuple(counting(name, loop) for name, loop in zip(("reverse", "gather", "walk"), real_loops(buf)))

    def gathers_and_ladders(n, k):
        # one gather call per block; one walk call per ladder: d per block,
        # one per coset representative of its base, twice that for a twin
        # block 2p^j, and one per cycle of the tail
        gathers = walks = 0
        for _, modulus, p, j, count in _blocks(0, n, k):
            if j:
                gathers += count
                walks += count * len(_REPS[k][p]) * (1 + (modulus % 2 == 0))
            else:
                walks += len(cycle_decomposition(kway_kind(k), modulus - 1).cycles)
        return gathers, walks

    monkeypatch.setattr(_fastpath, "loops", loops)
    # (call, length, gather and walk calls); every call is one pass
    calls = [
        (lambda buf: k_shuffle(buf, 6), 60_000, gathers_and_ladders(60_000, 6)),
        (lambda buf: k_unshuffle(buf, 9), 59_994, gathers_and_ladders(59_994, 9)),
        (un_shuffle, 1 << 16, gathers_and_ladders(1 << 16, 2)),
    ]
    for call, n, (gathers, walks) in calls:
        counts.update(loops=0, reverse=0, gather=0, walk=0)
        buf = np.arange(n, dtype=np.int64)
        call(buf)
        assert sorted(buf.tolist()) == list(range(n))
        assert counts["loops"] == 1, counts
        assert gathers > 1 and counts["reverse"] == 0, (counts, gathers)
        assert (counts["gather"], counts["walk"]) == (gathers, walks), (counts, gathers, walks)

    counts.update(loops=0, reverse=0)
    buf = list(range(10))
    rotate_right(buf, 0, 10, 3)
    assert buf == [7, 8, 9, 0, 1, 2, 3, 4, 5, 6]
    assert (counts["loops"], counts["reverse"]) == (1, 3)
    reverse_range(buf, 2, 6)
    assert (counts["loops"], counts["reverse"]) == (2, 4)


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
    buf = CountingList(range(600))
    assert _fastpath.kernel(buf) == (_loops.gather_slots, _loops.cycle_walk)
    k_shuffle(buf, 3)
    assert buf.gets > 600 and buf.sets > 600
    assert list(buf) == oracle_shuffle(list(range(600)), kway_kind(3))
    monkeypatch.setattr(_fastpath, "_native", None)  # as when the kernel did not build
    assert _fastpath.kernel([1, 2]) == (_loops.gather_slots, _loops.cycle_walk)


def test_every_buffer_takes_the_pure_loops_without_the_kernel(monkeypatch):
    monkeypatch.setattr(_fastpath, "_native", None)  # as when the kernel did not build
    for buf in ([1, 2], np.arange(4), RecordBuffer(bytearray(4), 2), array.array("q", [1, 2]),
                memoryview(bytearray(16)).cast("q"), bytearray(4), mmap.mmap(-1, 4),
                RecordBuffer(mmap.mmap(-1, 4), 2)):
        assert _fastpath.loops(buf) == _fastpath._PURE, buf
        assert _fastpath.kernel(buf) == (_loops.gather_slots, _loops.cycle_walk), buf


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
    buf = []
    reverse_range(buf, 0, 0)
    rotate_right(buf, 0, 0, 0)
    assert buf == []


@needs_kernel
def test_list_entries_refuse_bad_calls_and_leave_the_list():
    buf = list(range(26))
    reverse, _, walk = _fastpath.loops(buf)
    with pytest.raises(IndexError):
        walk(buf, 0, 1, 2, 27, 3, 1)  # last slot would be 26, one past the end
    with pytest.raises(IndexError):
        walk(buf, -2, 1, 2, 27, 3, 1)
    with pytest.raises(IndexError):
        walk([], -1, 1, 2, 3, 3, 1)
    for lo, hi in ((0, 27), (-1, 3), (5, 4)):
        with pytest.raises(IndexError):
            reverse(buf, lo, hi)
    with pytest.raises(ValueError):
        walk(buf, -1, 0, 2, 27, 3, 1)  # leader 0 is fixed, not a cycle
    with pytest.raises(ValueError):
        walk(buf, -1, 1, 3, 27, 3, 1)  # 3 is no unit mod 27: the orbit never closes
    for leader, p, count in _BAD_LADDERS:
        with pytest.raises(ValueError):
            walk(buf, -1, leader, 2, 27, p, count)
    with pytest.raises(TypeError):
        walk(CountingList(buf), -1, 1, 2, 27, 3, 1)
    with pytest.raises(TypeError):
        reverse(tuple(buf), 0, 2)
    # integers beyond int64 are refused, not wrapped into range
    for lo, hi in ((2**64, 2**64 + 2), (0, 2**63), (-(2**64), 2)):
        with pytest.raises((OverflowError, IndexError)):
            reverse(buf, lo, hi)
    for args in ((2**64 - 1, 1, 2, 5, 3, 1), (-1, 1, 2 + 27 * 2**64, 27, 3, 1),
                 (-1, 2**64 + 1, 2, 27, 3, 1), (-1, 1, 2, 2**64 + 27, 3, 1),
                 (-1, 1, 2, 27, 3 + 2**64, 2), (-1, 1, 2, 27, 3, 2**64 + 1)):
        with pytest.raises((OverflowError, IndexError)):
            walk(buf, *args)
    assert buf == list(range(26))
    walk(buf, -1, 1, 2, 27, 3, 3)
    assert buf != list(range(26)) and sorted(buf) == list(range(26))
    reverse(buf, 0, 26)
    walk(buf, -1, 1, 2, 27, 3, 3)  # a second walk leaves the reversed list permuted
    assert sorted(buf) == list(range(26))


@needs_kernel
def test_buffer_entries_refuse_bad_calls_and_leave_the_buffer():
    native = _fastpath._native
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
        with pytest.raises(BufferError):
            native.reverse(buf, 0, 2, *extra)
        with pytest.raises(BufferError):
            native.walk(buf, -1, 1, 2, 27, 3, 3, *extra)
        assert memoryview(buf if owner is None else owner).tobytes() == before
    # memory they take, bound to bad calls
    for buf, size in ((np.arange(26, dtype=np.int64), 0), (bytearray(range(78)), 3)):
        before = bytes(buf)
        extra = (size,) if size else ()
        with pytest.raises(IndexError):
            native.walk(buf, 0, 1, 2, 27, 3, 1, *extra)  # last slot would be 26, one past the end
        with pytest.raises(IndexError):
            native.walk(buf, -2, 1, 2, 27, 3, 1, *extra)
        for lo, hi in ((0, 27), (-1, 3), (5, 4)):
            with pytest.raises(IndexError):
                native.reverse(buf, lo, hi, *extra)
        with pytest.raises(ValueError):
            native.walk(buf, -1, 0, 2, 27, 3, 1, *extra)  # leader 0 is fixed, not a cycle
        with pytest.raises(ValueError):
            native.walk(buf, -1, 1, 3, 27, 3, 1, *extra)  # 3 is no unit mod 27
        for leader, p, count in _BAD_LADDERS:
            with pytest.raises(ValueError):
                native.walk(buf, -1, leader, 2, 27, p, count, *extra)
        # integers beyond int64 are refused, not wrapped into range
        for lo, hi in ((2**64, 2**64 + 2), (0, 2**63), (-(2**64), 2)):
            with pytest.raises((OverflowError, IndexError)):
                native.reverse(buf, lo, hi, *extra)
        for args in ((2**64 - 1, 1, 2, 5, 3, 1), (-1, 1, 2 + 27 * 2**64, 27, 3, 1),
                     (-1, 2**64 + 1, 2, 27, 3, 1), (-1, 1, 2, 2**64 + 27, 3, 1),
                     (-1, 1, 2, 27, 3 + 2**64, 2), (-1, 1, 2, 27, 3, 2**64 + 1)):
            with pytest.raises((OverflowError, IndexError)):
                native.walk(buf, *args, *extra)
        for bad in (2**64 + size, -size - 1):
            with pytest.raises((OverflowError, ValueError)):
                native.walk(buf, -1, 1, 2, 27, 3, 3, bad)
        assert bytes(buf) == before
        native.walk(buf, -1, 1, 2, 27, 3, 3, *extra)
        assert bytes(buf) != before


@needs_kernel
def test_buffer_walks_run_without_the_gil():
    # A walk of every cycle mod 3^14 takes milliseconds. Another thread that
    # keeps taking timestamps meanwhile can only take one well inside the
    # call when the walk has let go of the GIL: a walk that held it would let
    # that thread run only around the call, within a switch interval of it.
    # A busy host can still deschedule the ticker for the whole middle of one
    # walk, so up to three walks are timed, each on a fresh buffer.
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
            _fastpath._native.walk(buf, -1, 1, 2, m, 3, 14)
            end = time.perf_counter()
            assert np.array_equal(buf, expected)
            quarter = (end - start) / 4
            if any(start + quarter < t < end - quarter for t in stamps):
                break
    finally:
        stop.set()
        ticker.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not ticker.is_alive()
    assert any(start + quarter < t < end - quarter for t in stamps), (end - start, len(stamps))


@needs_kernel
def test_fresh_interpreter_sends_lists_to_the_kernel():
    # memory goes native by the kernel's own check, with numpy never imported
    probe = (
        "import array, sys\n"
        "from faro import _fastpath, _loops\n"
        "for buf in ([1, 2], array.array('q', [1, 2]), bytearray(4)):\n"
        "    reverse, gather, walk = _fastpath.loops(buf)\n"
        "    assert reverse is not _loops.reverse_slots and walk is not _loops.cycle_walk, buf\n"
        "    assert gather is not _loops.gather_slots, buf\n"
        "assert 'numpy' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, check=True)


def test_list_resized_by_another_thread_never_kills_the_process():
    # The list entries hold the GIL and check the list's size on every call,
    # so a thread that clears and refills the list between two of them can
    # only make the shuffle raise or scramble the list, never crash it.
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
