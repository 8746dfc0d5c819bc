import array
import mmap
import random

import pytest

from conftest import CountingList, rungs, spy
from faro import _fastpath
from faro.kway import _blocks, _general_cycle_passes, _pure_pass, _table, k_shuffle, k_unshuffle
from faro.oracle import oracle_shuffle
from faro.permcore import (
    IN_SHUFFLE,
    OUT_SHUFFLE,
    CycleDecomposition,
    ShuffleKind,
    cycle_decomposition,
    in_target,
    kway_kind,
    permutation_order,
)
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


def test_plan_blocks_examples():
    # the 2-way tiling as runs (offset, modulus, p, j, reps, count), left
    # to right, and the inverse's order, right to left; written here
    # without reps, which are (1,) for every 2-way base
    for total, runs in [
        (0, []),
        (6, [(0, 5, 5, 1, 1), (4, 3, 3, 1, 1)]),
        (8, [(0, 9, 3, 2, 1)]),
        (26, [(0, 27, 3, 3, 1)]),
        (28, [(0, 29, 29, 1, 1)]),
        (100, [(0, 101, 101, 1, 1)]),
        (116, [(0, 101, 101, 1, 1), (100, 13, 13, 1, 1), (112, 5, 5, 1, 1)]),
    ]:
        runs = [(*run[:4], (1,), run[4]) for run in runs]
        assert list(_blocks(0, total, _table(2))) == runs, total
        assert list(_blocks(0, total, _table(2), True)) == runs[::-1], total


def test_blocks_and_cycles_are_those_of_the_plan():
    # A run of the 2-way tiling holds count blocks of j cycles each, while
    # every 2-way base has one coset representative (d = 1); a base with
    # d > 1 would make it d * j cycles. The native pass and its twin count
    # both.
    rng = random.Random(29)
    for total in [*range(0, 2001, 2), *(2 * rng.randrange(1, 1 << 18) for _ in range(8))]:
        runs = list(_blocks(0, total, _table(2)))
        instr = Instrumentation()
        in_shuffle(list(range(total)), instr)
        assert instr.blocks == sum(count for *_, count in runs), total
        assert instr.cycles == sum(j * count for *_, j, _, count in runs), total
        counts = _pure_pass(list(range(total)), 0, total, 2, False, _table(2))
        assert counts[3:] == (instr.blocks, instr.cycles), total


def cycle_leader_pass(buf, offset, k, instr=None):
    # the driver's cycle-leader passes on one 3^k - 1 block, at arity 2 and
    # p = 3, whose one coset representative is 1
    _general_cycle_passes(buf, offset, k, 3, (1,), 2, 3**k, instr)


def test_cycle_leader_pass_small_blocks():
    buf = ["x", "y"]
    cycle_leader_pass(buf, 0, 1)
    assert buf == ["y", "x"]

    buf = list(range(1, 9))
    cycle_leader_pass(buf, 0, 2)
    assert buf == [5, 1, 6, 2, 7, 3, 8, 4]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_cycle_leader_pass_matches_oracle_in_isolation(k):
    size = 3**k - 1
    payload = list(range(size))
    buf = [None] * 3 + payload + [None] * 2  # asymmetric padding catches offset bugs
    cycle_leader_pass(buf, 3, k)
    assert buf[3 : 3 + size] == oracle_shuffle(payload, IN_SHUFFLE)
    assert buf[:3] == [None] * 3 and buf[-2:] == [None] * 2


def test_cycle_leader_pass_move_accounting():
    # every block element is written exactly once; one temporary load per leader
    for k in (1, 2, 3, 4):
        size = 3**k - 1
        buf = CountingList(range(size))
        instr = Instrumentation()
        cycle_leader_pass(buf, 0, k, instr)
        assert instr.moves == size + k
        assert buf.sets == size
        assert buf.gets == size + k


def test_in_shuffle_examples():
    buf = ["a1", "a2", "a3", "a4", "a5", "a6"]
    in_shuffle(buf)
    assert buf == ["a4", "a1", "a5", "a2", "a6", "a3"]

    buf = []
    in_shuffle(buf)
    assert buf == []

    buf = ["x", "y"]
    in_shuffle(buf)
    assert buf == ["y", "x"]

    with pytest.raises(ValueError):
        in_shuffle([1, 2, 3])


def test_in_shuffle_matches_oracle_for_all_small_lengths():
    for length in range(0, 513, 2):
        buf = list(range(length))
        in_shuffle(buf)
        assert buf == oracle_shuffle(list(range(length)), IN_SHUFFLE), length


def test_in_shuffle_position_law():
    rng = random.Random(13)
    for length in [2, 6, 8, 26, 52] + [2 * rng.randrange(1, 3000) for _ in range(15)]:
        buf = list(range(1, length + 1))  # payload i marks the element from position i
        in_shuffle(buf)
        for i in range(1, length + 1):
            assert buf[in_target(i, length) - 1] == i


def test_in_shuffle_order_law():
    for length in (2, 6, 8, 26, 52, 80, 242):
        t = permutation_order(IN_SHUFFLE, length)
        reference = [random.random() for _ in range(length)]
        buf = list(reference)
        for _ in range(t):
            in_shuffle(buf)
        assert buf == reference
        if t > 1:
            buf = list(reference)
            in_shuffle(buf)
            assert buf != reference


def test_un_shuffle_is_the_exact_inverse():
    rng = random.Random(14)
    for _ in range(80):
        length = 2 * rng.randrange(0, 2000)
        reference = [rng.random() for _ in range(length)]
        buf = list(reference)
        in_shuffle(buf)
        un_shuffle(buf)
        assert buf == reference
        un_shuffle(buf)
        in_shuffle(buf)
        assert buf == reference


def test_un_shuffle_example():
    buf = ["a4", "a1", "a5", "a2", "a6", "a3"]
    un_shuffle(buf)
    assert buf == ["a1", "a2", "a3", "a4", "a5", "a6"]
    buf = []
    un_shuffle(buf)
    assert buf == []
    with pytest.raises(ValueError):
        un_shuffle([1, 2, 3])


def test_out_shuffle_examples():
    buf = [1, 2, 3, 4, 5, 6]
    out_shuffle(buf)
    assert buf == [1, 4, 2, 5, 3, 6]

    buf = ["x", "y"]
    out_shuffle(buf)
    assert buf == ["x", "y"]

    with pytest.raises(ValueError):
        out_shuffle([1, 2, 3])
    with pytest.raises(ValueError):
        out_shuffle([])
    with pytest.raises(ValueError):
        un_out_shuffle([])


def test_out_shuffle_matches_oracle_and_inverts():
    rng = random.Random(15)
    for _ in range(60):
        length = 2 * rng.randrange(1, 1500)
        reference = [rng.random() for _ in range(length)]
        buf = list(reference)
        out_shuffle(buf)
        assert buf == oracle_shuffle(reference, OUT_SHUFFLE)
        un_out_shuffle(buf)
        assert buf == reference


def test_eight_out_shuffles_restore_a_deck_of_52():
    reference = list(range(52))
    buf = list(reference)
    for _ in range(8):
        out_shuffle(buf)
    assert buf == reference


def test_fifty_two_in_shuffles_restore_a_deck_of_52():
    reference = list(range(52))
    buf = list(reference)
    for _ in range(52):
        in_shuffle(buf)
    assert buf == reference


def test_moves_stay_within_the_linear_envelope():
    rng = random.Random(16)
    for length in [2, 8, 26, 100, 728, 6560] + [2 * rng.randrange(1, 50_000) for _ in range(20)]:
        instr = Instrumentation()
        in_shuffle(list(range(length)), instr)
        assert length <= instr.moves <= 6 * length


def test_auxiliary_space_is_constant_across_sizes():
    peaks = set()
    for length in (2, 80, 6560, 2 * 123_456):
        instr = Instrumentation()
        in_shuffle(list(range(length)), instr)
        peaks.add(instr.aux_words_peak)
    assert len(peaks) == 1
    assert peaks.pop() <= 64

    instr = Instrumentation()
    un_shuffle(list(range(2 * 9999)), instr)
    assert instr.aux_words_peak <= 64


def test_total_move_count_audit():
    # reported moves must equal observed writes plus one temporary load per
    # cycle-leader pass; the out-shuffles tile the len - 2 interior
    rng = random.Random(17)
    for _ in range(25):
        length = 2 * rng.randrange(0, 800)
        calls = [(in_shuffle, un_shuffle, length)]
        if length:
            calls.append((out_shuffle, un_out_shuffle, length - 2))
        for forward, inverse, interior in calls:
            leaders = sum(j * count for *_, j, _, count in _blocks(0, interior, _table(2)))
            buf = CountingList(range(length))
            instr = Instrumentation()
            forward(buf, instr)
            assert instr.moves == buf.sets + leaders

            buf = CountingList(buf)
            instr = Instrumentation()
            inverse(buf, instr)
            assert instr.moves == buf.sets + leaders
            assert list(buf) == list(range(length))


# Instrumentation.moves on lists. An inverse makes as many as its shuffle.
# The gathers rotate by conjoined triple reversal; no count is above the
# one that the 2-way table's earlier eight bases (3 to 53) gave by plain
# triple reversal, nor above that of 3 alone.
# length: (in_shuffle and un_shuffle, out_shuffle and un_out_shuffle)
PINNED_MOVES = {
    2: (3, 0),
    8: (10, 11),
    26: (29, 26),
    28: (29, 29),
    100: (101, 175),
    728: (734, 1322),
    730: (1283, 734),
    6560: (6568, 13461),
    6562: (11491, 6568),
    19998: (35005, 35271),
}


@pytest.mark.parametrize("length", sorted(PINNED_MOVES))
def test_move_counts_are_pinned(length):
    in_moves, out_moves = PINNED_MOVES[length]
    for fn, expected in (
        (in_shuffle, in_moves),
        (un_shuffle, in_moves),
        (out_shuffle, out_moves),
        (un_out_shuffle, out_moves),
    ):
        instr = Instrumentation()
        fn(list(range(length)), instr)
        assert instr.moves == expected, fn.__name__


def _parity_calls():
    # (name, arity, call) for every permutation the native kernel serves:
    # the 2-way shuffles, out-shuffle interiors among them, and both
    # directions of every arity 2..9
    for fn in (in_shuffle, un_shuffle, out_shuffle, un_out_shuffle):
        yield fn.__name__, 2, fn
    for k in range(2, 10):
        yield f"k_shuffle({k})", k, lambda buf, instr, k=k: k_shuffle(buf, k, instr)
        yield f"k_unshuffle({k})", k, lambda buf, instr, k=k: k_unshuffle(buf, k, instr)


def _parity_counts(arity, rng):
    # lengths / arity to compare at: one and two parts of one item, which
    # at k = 3, 7 and 8 are a tail alone; one length past 3^5; the largest
    # twin block 2p^j of an odd arity below 1200 items, alone; one at random
    counts = {1, 2, 3**5 // arity, rng.randrange(1, 400)}
    if arity % 2:
        twins = [m for m, *_ in rungs(_table(arity)) if m % 2 == 0 and m <= 1200]
        counts.add((max(twins) - 1) // arity)
    return sorted(counts)


def _mapped(payload):
    # an anonymous mmap that holds payload
    mapped = mmap.mmap(-1, len(payload))
    mapped[:] = payload
    return mapped


def _native_buffers(raw_bytes, count):
    # (label, buffer, itemsize, payload) over fresh payload bytes; a list
    # holds its payload as 8-byte bytes objects
    payload = raw_bytes(count * 8)
    yield "list", [payload[i : i + 8] for i in range(0, len(payload), 8)], 8, payload
    for label, itemsize, make in (
        ("array q", 8, lambda payload: array.array("q", payload)),
        ("array d", 8, lambda payload: array.array("d", payload)),
        ("memoryview q", 8, lambda payload: memoryview(bytearray(payload)).cast("q")),
        ("bytearray", 1, bytearray),
        ("mmap", 1, _mapped),
        ("rs=64 over mmap", 64, lambda payload: RecordBuffer(_mapped(payload), 64)),
    ):
        payload = raw_bytes(count * itemsize)
        yield label, make(payload), itemsize, payload
    if np is not None:
        for dtype in ("int8", "int64", "float64", "complex128", "bool", "V3"):
            itemsize = np.dtype(dtype).itemsize
            payload = raw_bytes(count * itemsize)
            if dtype == "bool":
                payload = bytes(b & 1 for b in payload)
            yield dtype, np.frombuffer(bytearray(payload), dtype=dtype), itemsize, payload
        # masked where the low bit of an item's first byte is set
        payload = raw_bytes(count * 8)
        data = np.frombuffer(bytearray(payload), dtype=np.int64)
        yield "masked int64", np.ma.array(data, mask=[b & 1 for b in payload[::8]]), 8, payload
    for record_size in (1, 3, 8, 64, 257, 300, 1000):
        payload = raw_bytes(count * record_size)
        yield f"rs={record_size}", RecordBuffer(bytearray(payload), record_size), record_size, payload


@pytest.mark.skipif(not _fastpath.HAVE_COMPILED, reason=str(_fastpath.BUILD_ERROR))
def test_compiled_path_matches_pure_path(monkeypatch):
    # every kind and direction on every native buffer type, whose pass is
    # the native one, against the Python twin on a list: same permutation,
    # the same five counts and the same aux peak
    rng = random.Random(18)
    for name, arity, call in _parity_calls():
        for count in _parity_counts(arity, rng):
            length = arity * count
            pure = list(range(length))
            pure_instr = Instrumentation()
            with monkeypatch.context() as m:
                m.setattr(_fastpath, "_native", None)  # as when the kernel did not build
                with spy() as ran:
                    call(pure, pure_instr)
                assert ran == {"resolve": 1, "twin": 1}
            for label, buf, itemsize, payload in _native_buffers(rng.randbytes, length):
                instr = Instrumentation()
                with spy() as ran:
                    call(buf, instr)
                # a list meets the kernel's entry without resolve; a
                # MaskedArray resolves and moves its data and its mask
                runs = {"list": {"shuffle": 1}, "masked int64": {"resolve": 3, "shuffle": 2}}
                assert ran == runs.get(label, {"resolve": 1, "shuffle": 1}), label
                expected = b"".join(payload[i * itemsize : (i + 1) * itemsize] for i in pure)
                case = f"{name} on {label} at length {length}"
                if label == "list":
                    result = b"".join(buf)
                elif label == "masked int64":
                    result = bytes(buf.data)
                    assert buf.mask.tolist() == [bool(payload[8 * i] & 1) for i in pure], case
                else:
                    result = bytes(buf.data if isinstance(buf, RecordBuffer) else buf)
                assert result == expected, case
                # every counter: rotate, walk and tail moves, blocks, cycles
                # and the aux peak
                assert instr == pure_instr, case


def test_value_types_compare_hash_and_print_by_their_fields():
    # Instrumentation: mutable counters, equal when every counter is
    instr = Instrumentation()
    assert repr(instr) == (
        "Instrumentation(rotate_moves=0, walk_moves=0, tail_moves=0, blocks=0, cycles=0, "
        "aux_words_peak=0)"
    )
    assert instr == Instrumentation() and not instr != Instrumentation()
    instr.cycles += 1
    assert instr != Instrumentation() and instr == Instrumentation(cycles=1)
    counted = Instrumentation(rotate_moves=1, walk_moves=2, tail_moves=4, blocks=8, cycles=16,
                              aux_words_peak=32)
    assert repr(counted) == (
        "Instrumentation(rotate_moves=1, walk_moves=2, tail_moves=4, blocks=8, cycles=16, "
        "aux_words_peak=32)"
    )
    assert counted.moves == 7
    # the frozen types: equal and hashed by value, printed field by field,
    # and no field can be assigned
    for value, same, text, field in [
        (IN_SHUFFLE, ShuffleKind("in"), "ShuffleKind(family='in', k=2)", "family"),
        (kway_kind(3), ShuffleKind("kway", 3), "ShuffleKind(family='kway', k=3)", "k"),
        (cycle_decomposition(IN_SHUFFLE, 6), CycleDecomposition(((1, 2, 4), (3, 6, 5)), 6),
         "CycleDecomposition(cycles=((1, 2, 4), (3, 6, 5)), order=6)", "cycles"),
    ]:
        assert value == same and not value != same
        assert hash(value) == hash(same) and len({value, same}) == 1
        assert repr(value) == text
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    assert kway_kind(2) != IN_SHUFFLE
    assert kway_kind(3) != kway_kind(4)
    assert cycle_decomposition(IN_SHUFFLE, 6).moved_count() == 6


def test_record_buffer_semantics():
    data = bytearray(b"aabbccdd")
    records = RecordBuffer(data, 2)
    assert len(records) == 4
    assert records[1] == b"bb"
    records[0], records[3] = records[3], records[0]
    assert records.tobytes() == b"ddbbccaa"
    assert records.data is data  # shared backing storage, not a copy

    with pytest.raises(IndexError):
        records[4]
    with pytest.raises(IndexError):
        records[-1]
    with pytest.raises(ValueError):
        records[0] = b"toolong"
    with pytest.raises(ValueError):
        RecordBuffer(bytearray(b"abc"), 2)
    with pytest.raises(ValueError):
        RecordBuffer(bytearray(b"abc"), 0)
    # 8 items of 8 bytes: a length that counts items would make 2 records of 4
    with pytest.raises(ValueError):
        RecordBuffer(memoryview(bytearray(64)).cast("q"), 4)


def test_record_buffer_shuffles_like_any_sequence():
    rng = random.Random(19)
    for record_size in (1, 3, 16):
        count = 2 * rng.randrange(1, 200)
        payload = [bytes([rng.randrange(256)]) * record_size for _ in range(count)]
        records = RecordBuffer(bytearray(b"".join(payload)), record_size)
        in_shuffle(records)
        expected = oracle_shuffle(payload, IN_SHUFFLE)
        assert [records[i] for i in range(count)] == expected
        un_shuffle(records)
        assert records.tobytes() == b"".join(payload)
