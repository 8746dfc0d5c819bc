"""Acceptance suite: every top-level behavioural guarantee at its tolerance.

Each criterion is a test function that prints one PASS line when it holds
(run pytest with -s to see them). The module is also runnable standalone:

    python tests/test_acceptance.py

which executes every criterion in order, prints one PASS/FAIL line per
criterion, and exits nonzero if any fail.
"""

import hashlib
import random
import sys
import time

import numpy as np

import faro.cli as cli
from faro.kway import k_shuffle
from faro.numtheory import euler_totient, is_primitive_root
from faro.oracle import oracle_shuffle
from faro.permcore import IN_SHUFFLE, cycle_decomposition, kway_kind
from faro.shuffle import Instrumentation, in_shuffle, out_shuffle, un_shuffle

LISTED_LENGTHS = [8, 26, 80, 242, 728, 2186, 6560, 2**16, 2**20, 2**22]


def _passed(name: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {name}: PASS{suffix}")


def _moves_for(length: int) -> int:
    buf = np.arange(length, dtype=np.int64)
    instr = Instrumentation()
    in_shuffle(buf, instr)
    return instr.moves


def test_criterion_1_oracle_equivalence_exhaustive():
    # every even length 2..4096, distinct sequence numbers, zero mismatches,
    # under 60 seconds
    started = time.perf_counter()
    for length in range(2, 4097, 2):
        buf = np.arange(length, dtype=np.int64)
        in_shuffle(buf)
        expected = oracle_shuffle(list(range(length)), IN_SHUFFLE)
        assert buf.tolist() == expected, f"mismatch at length {length}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"exhaustive sweep took {elapsed:.1f}s, budget is 60s"
    _passed("1 oracle equivalence, even lengths 2..4096", f"{elapsed:.1f}s")


def test_criterion_2_oracle_equivalence_randomized_large():
    # 50 random even lengths up to 2^20 with random payloads
    rng = random.Random(42)
    payload_rng = np.random.default_rng(42)
    for _ in range(50):
        length = 2 * rng.randrange(1, 2**19 + 1)
        payload = payload_rng.integers(0, 2**62, size=length, dtype=np.int64)
        buf = payload.copy()
        in_shuffle(buf)
        expected = oracle_shuffle(payload.tolist(), IN_SHUFFLE)
        assert buf.tolist() == expected, f"mismatch at length {length}"
    _passed("2 oracle equivalence, 50 random lengths up to 2^20")


def test_criterion_3_cycle_structure_at_powers_of_three():
    # 2n = 3^k - 1 has exactly k cycles, led by 3^0..3^(k-1), with lengths
    # phi(3^k) / 3^s; exact
    for k in range(1, 9):
        length = 3**k - 1
        decomposition = cycle_decomposition(IN_SHUFFLE, length)
        assert len(decomposition.cycles) == k
        phi = euler_totient(3**k)
        for s, cycle in enumerate(decomposition.cycles):
            assert cycle[0] == 3**s
            assert len(cycle) == phi // 3**s
    _passed("3 cycle structure at lengths 3^k - 1, k = 1..8")


def test_criterion_4_primitive_root_validation():
    for k in range(1, 13):
        assert is_primitive_root(2, 3**k), f"2 must generate the units mod 3^{k}"
    _passed("4 primitive root of 3^k, k = 1..12")


def test_criterion_5a_linearity_envelope_and_wall_clock():
    # moves(len)/len within [1, 6] at the pinned lengths, and a warm 2^22
    # shuffle under one second
    ratios = {}
    for length in LISTED_LENGTHS:
        moves = _moves_for(length)
        ratio = moves / length
        ratios[length] = ratio
        assert 1.0 <= ratio <= 6.0, f"moves/len = {ratio:.3f} at length {length}"

    buf = np.arange(2**22, dtype=np.int64)
    started = time.perf_counter()
    in_shuffle(buf)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"2^22 shuffle took {elapsed:.3f}s, budget is 1s"
    _passed(
        "5a linearity envelope and wall clock",
        f"moves/len in [{min(ratios.values()):.2f}, {max(ratios.values()):.2f}], "
        f"2^22 in {elapsed * 1000:.0f}ms",
    )


def test_criterion_5b_doubling_ratio():
    # moves(2*len)/moves(len) <= 2.4 along consecutive doublings 8 -> 2^22.
    #
    # Known not to hold for this block-decomposition algorithm: moves(len)
    # equals len * c(len) with c(len) in [1, 4] depending on how greedily
    # 3^k - 1 blocks tile len (exact fits are cheapest, two-thirds-full
    # windows are dearest), so the ratio between adjacent scales genuinely
    # exceeds 2.4 whenever a doubling crosses from a cheap tiling to a dear
    # one, reaching 4.0 when it starts at an exact fit. The sound universal
    # law is the [1, 6] moves-per-element envelope checked above.
    lengths = []
    length = 8
    while length <= 2**22:
        lengths.append(length)
        length *= 2
    moves = {length: _moves_for(length) for length in lengths}
    table = []
    violations = []
    for small, big in zip(lengths, lengths[1:]):
        ratio = moves[big] / moves[small]
        table.append(f"  {small:>8} -> {big:>8}: {ratio:.3f}")
        if ratio > 2.4:
            violations.append((small, big, ratio))
    assert not violations, (
        "doubling ratios above 2.4 at "
        + ", ".join(f"{s}->{b} ({r:.2f})" for s, b, r in violations)
        + "\nfull table:\n"
        + "\n".join(table)
    )
    _passed("5b doubling ratio <= 2.4 along 8 -> 2^22")


def test_criterion_6_constant_auxiliary_space():
    peaks = set()
    for length in (2**10, 2**16, 2**20, 2**22):
        buf = np.arange(length, dtype=np.int64)
        instr = Instrumentation()
        in_shuffle(buf, instr)
        assert instr.aux_words_peak <= 64, (
            f"aux peak {instr.aux_words_peak} at length {length}"
        )
        peaks.add(instr.aux_words_peak)
    assert len(peaks) == 1, f"aux peak varied with length: {peaks}"
    _passed("6 constant auxiliary space", f"peak {peaks.pop()} words <= 64")


def test_criterion_7_inverse_and_order_laws():
    rng = random.Random(43)
    payload_rng = np.random.default_rng(43)
    for _ in range(200):
        length = 2 * rng.randrange(0, 50_001)
        payload = payload_rng.integers(0, 2**62, size=length, dtype=np.int64)
        buf = payload.copy()
        in_shuffle(buf)
        un_shuffle(buf)
        assert np.array_equal(buf, payload), f"round trip broke at length {length}"

    deck = list(range(52))
    buf = list(deck)
    for _ in range(52):
        in_shuffle(buf)
    assert buf == deck, "52 in-shuffles must restore a 52-card deck"

    buf = list(deck)
    for _ in range(8):
        out_shuffle(buf)
    assert buf == deck, "8 out-shuffles must restore a 52-card deck"
    _passed("7 inverse law (200 sizes) and deck-of-52 order laws")


def test_criterion_8_kway_equivalence():
    for k in (2, 3, 4, 5):
        for count in range(0, 3000 // k + 1):
            length = k * count
            buf = np.arange(length, dtype=np.int64)
            k_shuffle(buf, k)
            expected = oracle_shuffle(list(range(length)), kway_kind(k))
            assert buf.tolist() == expected, f"k={k} mismatch at length {length}"

    rng = random.Random(44)
    for _ in range(30):
        length = 2 * rng.randrange(0, 1500)
        payload = [rng.randrange(10**9) for _ in range(length)]
        via_k, direct = list(payload), list(payload)
        k_instr, in_instr = Instrumentation(), Instrumentation()
        k_shuffle(via_k, 2, k_instr)
        in_shuffle(direct, in_instr)
        assert via_k == direct, f"k=2 differs from in-shuffle at length {length}"
        assert k_instr.moves == in_instr.moves
    _passed("8 k-way oracle equivalence, k = 2..5, all lengths <= 3000")


def test_criterion_9_cli_round_trip(tmp_path):
    # 10 MB of 64-byte records through apply and apply --inverse
    record_size = 64
    count = 10 * 1024 * 1024 // record_size
    payload_rng = np.random.default_rng(45)
    target = tmp_path / "big.bin"
    target.write_bytes(payload_rng.bytes(count * record_size))
    before = hashlib.sha256(target.read_bytes()).hexdigest()

    assert cli.main(["apply", "--record-size", str(record_size), str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() != before
    assert cli.main(
        ["apply", "--inverse", "--record-size", str(record_size), str(target)]
    ) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == before

    # 1000 random small files through --verify, zero mismatches
    rng = random.Random(46)
    small = tmp_path / "small.bin"
    for i in range(1000):
        records = 2 * rng.randrange(1, 33)
        size = rng.choice((1, 4, 16))
        small.write_bytes(payload_rng.bytes(records * size))
        code = cli.main(["apply", "--verify", "--record-size", str(size), str(small)])
        assert code == 0, f"verify run {i} exited {code}"
    _passed("9 CLI round trip on 10 MB and 1000 verified small files")


if __name__ == "__main__":
    import inspect
    import pathlib
    import tempfile

    failures = 0
    module = sys.modules["__main__"]
    tests = [
        (name, fn)
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if name.startswith("test_criterion_")
    ]
    tests.sort(key=lambda pair: pair[0])
    for name, fn in tests:
        kwargs = {}
        if "tmp_path" in inspect.signature(fn).parameters:
            scratch = tempfile.TemporaryDirectory()
            kwargs["tmp_path"] = pathlib.Path(scratch.name)
        try:
            fn(**kwargs)
        except AssertionError as exc:
            failures += 1
            headline = str(exc).splitlines()[0] if str(exc) else "assertion failed"
            print(f"criterion {name.removeprefix('test_criterion_')}: FAIL  [{headline}]")
    sys.exit(1 if failures else 0)
