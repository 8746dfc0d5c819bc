import hashlib
import os
import random
import stat
import tracemalloc

import pytest

import faro.cli as cli
from faro import _fastpath
from faro.oracle import oracle_shuffle
from faro.permcore import IN_SHUFFLE
from faro.shuffle import in_shuffle


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_records(path, records):
    path.write_bytes(b"".join(records))


def make_records(count, size, seed=0):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(count)]


def test_apply_then_inverse_restores_the_file(tmp_path):
    target = tmp_path / "deck.bin"
    write_records(target, make_records(6, 4))
    before = sha256(target)

    assert cli.main(["apply", "--kind", "in", "--record-size", "4", str(target)]) == 0
    assert sha256(target) != before
    assert cli.main(["apply", "--kind", "in", "--inverse", "--record-size", "4", str(target)]) == 0
    assert sha256(target) == before


def test_fifty_two_applications_restore_the_file(tmp_path):
    target = tmp_path / "deck.bin"
    write_records(target, make_records(52, 8, seed=1))
    before = sha256(target)
    for _ in range(52):
        assert cli.main(["apply", "--record-size", "8", str(target)]) == 0
    assert sha256(target) == before


@pytest.mark.parametrize("kind", ["out", "k:3", "k:4"])
def test_apply_inverse_for_other_kinds(tmp_path, kind):
    count = {"out": 10, "k:3": 9, "k:4": 12}[kind]
    target = tmp_path / "records.bin"
    write_records(target, make_records(count, 16, seed=2))
    before = sha256(target)
    assert cli.main(["apply", "--kind", kind, "--record-size", "16", str(target)]) == 0
    assert cli.main(["apply", "--kind", kind, "--inverse", "--record-size", "16", str(target)]) == 0
    assert sha256(target) == before


def test_apply_rejects_odd_record_counts(tmp_path):
    target = tmp_path / "odd.bin"
    write_records(target, make_records(7, 4, seed=3))
    before = sha256(target)
    assert cli.main(["apply", "--record-size", "4", str(target)]) == 2
    assert sha256(target) == before


def test_apply_rejects_misaligned_record_size(tmp_path):
    target = tmp_path / "ragged.bin"
    target.write_bytes(b"\x00" * 10)
    assert cli.main(["apply", "--record-size", "4", str(target)]) == 2
    assert target.read_bytes() == b"\x00" * 10
    assert cli.main(["apply", "--record-size", "0", str(target)]) == 2


def test_apply_reports_io_failure(tmp_path):
    missing = tmp_path / "nope.bin"
    assert cli.main(["apply", "--record-size", "4", str(missing)]) == 3


def test_apply_refuses_what_is_not_a_regular_file(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    assert cli.main(["apply", "--record-size", "4", str(fifo)]) == 3
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert cli.main(["apply", "--record-size", "4", str(tmp_path)]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


def test_apply_verify_passes_on_correct_output(tmp_path):
    target = tmp_path / "verify.bin"
    records = make_records(26, 8, seed=4)
    write_records(target, records)
    assert cli.main(["apply", "--verify", "--record-size", "8", str(target)]) == 0
    expected = b"".join(oracle_shuffle(records, IN_SHUFFLE))
    assert target.read_bytes() == expected
    assert cli.main(["apply", "--verify", "--inverse", "--record-size", "8", str(target)]) == 0
    assert target.read_bytes() == b"".join(records)


def test_apply_verify_mismatch_leaves_file_untouched(tmp_path, monkeypatch):
    target = tmp_path / "verify.bin"
    write_records(target, make_records(8, 4, seed=5))
    before = sha256(target)

    # the fault --verify exists to catch: a shuffle that misplaces records
    def misplacing_in_shuffle(buf, instr=None):
        in_shuffle(buf, instr)
        buf[0], buf[1] = buf[1], buf[0]

    oracle_calls = []

    def counting_oracle(values, kind):
        oracle_calls.append(len(values))
        return oracle_shuffle(values, kind)

    monkeypatch.setattr(cli, "in_shuffle", misplacing_in_shuffle)
    monkeypatch.setattr(cli, "oracle_shuffle", counting_oracle)
    for native in (True, False):
        with monkeypatch.context() as m:
            if not native:
                m.setattr(_fastpath, "_lib", None)  # as when the kernel did not build
            oracle_calls.clear()
            assert cli.main(["apply", "--verify", "--record-size", "4", str(target)]) == 4
            assert sha256(target) == before
            assert oracle_calls == ([] if native and _fastpath.HAVE_COMPILED else [8])


def test_apply_keeps_the_file_mode(tmp_path):
    target = tmp_path / "private.bin"
    write_records(target, make_records(10, 4, seed=6))
    target.chmod(0o640)
    for verify in ([], ["--verify"]):
        assert cli.main(["apply", *verify, "--record-size", "4", str(target)]) == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_apply_through_a_symlink_shuffles_its_target(tmp_path):
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "deck.bin"
    records = make_records(10, 4, seed=7)
    write_records(target, records)
    link = tmp_path / "link.bin"
    link.symlink_to(os.path.join("data", "deck.bin"))
    assert cli.main(["apply", "--verify", "--record-size", "4", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == os.path.join("data", "deck.bin")
    assert target.read_bytes() == b"".join(oracle_shuffle(records, IN_SHUFFLE))
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "deck.bin", "link.bin"]


def test_apply_syncs_the_file_before_the_rename_and_the_directory_after(tmp_path, monkeypatch):
    target = tmp_path / "deck.bin"
    write_records(target, make_records(10, 4, seed=8))
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        fsync(fd)

    def recording_replace(src, dst):
        events.append("replace")
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    assert cli.main(["apply", "--record-size", "4", str(target)]) == 0
    assert events == ["fsync file", "replace", "fsync dir"]


def test_apply_failed_rename_leaves_the_original(tmp_path, monkeypatch):
    target = tmp_path / "deck.bin"
    write_records(target, make_records(10, 4, seed=9))
    before = sha256(target)

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert cli.main(["apply", "--verify", "--record-size", "4", str(target)]) == 3
    assert sha256(target) == before
    assert [p.name for p in tmp_path.iterdir()] == ["deck.bin"]


@pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
def test_apply_holds_the_file_once_and_twice_with_verify(tmp_path, verify):
    # the heap grows by one copy of the file, and by one more for --verify
    if verify and not _fastpath.HAVE_COMPILED:
        pytest.skip("without the kernel --verify compares per-record lists")
    target = tmp_path / "big.bin"
    size = 8 << 20
    target.write_bytes(random.Random(10).randbytes(size))
    argv = ["apply", *(["--verify"] if verify else []), "--record-size", "64", str(target)]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    copies = 2 if verify else 1
    assert copies * size <= peak < (copies + 0.25) * size


def test_cycles_output_for_order_six(capsys):
    assert cli.main(["cycles", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["(1 2 4) len=3", "(3 6 5) len=3", "cycles=2 order=3"]


def test_cycles_output_for_order_eight(capsys):
    assert cli.main(["cycles", "--kind", "in", "8"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["(1 2 4 8 7 5) len=6", "(3 6) len=2", "cycles=2 order=6"]


def test_cycles_output_for_order_two(capsys):
    assert cli.main(["cycles", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["(1 2) len=2", "cycles=1 order=2"]


def test_cycles_rejects_invalid_order(capsys):
    assert cli.main(["cycles", "7"]) == 2
    assert cli.main(["cycles", "--kind", "k:3", "8"]) == 2


def test_order_command(capsys):
    assert cli.main(["order", "52"]) == 0
    assert capsys.readouterr().out.strip() == "52"
    assert cli.main(["order", "6"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert cli.main(["order", "5"]) == 2
    assert capsys.readouterr().err == "faro: order must be even and >= 0, got 5\n"
    assert cli.main(["order", "-2"]) == 2
    assert capsys.readouterr().err == "faro: order must be even and >= 0, got -2\n"


def test_order_runs_in_constant_memory(capsys):
    # the multiplicative order of 2 mod 2000001, with no mark per position
    tracemalloc.start()
    try:
        assert cli.main(["order", "2000000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.strip() == "17094"
    assert peak < 64 * 1024


def test_bench_single_point(capsys):
    assert cli.main(["bench", "--min", "2", "--max", "2", "--factor", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "size,nanos,moves,aux_words"
    assert len(lines) == 2
    size, nanos, moves, aux = map(int, lines[1].split(","))
    assert size == 2
    assert moves <= 12
    assert aux <= 64
    assert nanos >= 0


def test_bench_sweep_is_parseable_and_linearish(capsys):
    assert cli.main(["bench", "--min", "8", "--max", "4096", "--factor", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "size,nanos,moves,aux_words"
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    assert [r[0] for r in rows] == [8, 32, 128, 512, 2048]
    for size, _, moves, aux in rows:
        assert size <= moves <= 6 * size
        assert aux <= 64


def test_bench_rounds_to_even_sizes(capsys):
    assert cli.main(["bench", "--min", "3", "--max", "7", "--factor", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [int(line.split(",")[0]) for line in lines[1:]] == [4, 6]


def test_bench_rejects_bad_ranges():
    assert cli.main(["bench", "--min", "1", "--max", "4", "--factor", "2"]) == 2
    assert cli.main(["bench", "--min", "8", "--max", "4", "--factor", "2"]) == 2
    assert cli.main(["bench", "--min", "2", "--max", "4", "--factor", "1"]) == 2


def test_unknown_kind_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "x.bin"
    target.write_bytes(b"\x00" * 8)
    assert cli.main(["apply", "--kind", "diagonal", "--record-size", "4", str(target)]) == 2
    assert cli.main(["apply", "--kind", "k:1", "--record-size", "4", str(target)]) == 2
    capsys.readouterr()


def test_console_script_is_wired():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "faro.cli", "order", "52"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "52"
