import hashlib
import os
import random
import stat
import subprocess
import sys
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
                m.setattr(_fastpath, "_native", None)  # as when the kernel did not build
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
def test_apply_holds_the_file_once_with_or_without_verify(tmp_path, verify):
    # the heap grows by one copy of the file; --verify adds one chunk
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
    assert size <= peak < 1.25 * size


# Runs the command given as its arguments and prints its exit code and peak
# RSS in KiB. Linux carries the peak RSS of the process that spawns a child
# into the child's ru_maxrss, so the command is spawned from this small,
# fresh interpreter rather than from the test process.
LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:])\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


@pytest.mark.skipif(not _fastpath.HAVE_COMPILED, reason=str(_fastpath.BUILD_ERROR))
def test_apply_verify_adds_less_than_a_quarter_file_to_the_process_peak(tmp_path):
    # tracemalloc sees only the heap; this is the whole process
    target = tmp_path / "big.bin"
    size = 16 << 20
    target.write_bytes(random.Random(11).randbytes(size))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    peak = {}
    for verify in ([], ["--verify"]):
        argv = [sys.executable, "-m", "faro.cli", "apply", *verify, "--record-size", "64", str(target)]
        done = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env,
                              capture_output=True, text=True, check=True)
        code, rss_kb = map(int, done.stdout.split())
        assert code == 0, done.stderr
        peak[bool(verify)] = rss_kb * 1024
    assert peak[True] - peak[False] < 0.25 * size, peak


class Trickling:
    """A file whose reads return at most 1000 bytes, as a read that a signal
    interrupts may."""

    def __init__(self, raw):
        self.raw = raw

    def readinto(self, view):
        return self.raw.readinto(view[:1000])

    def __getattr__(self, name):
        return getattr(self.raw, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.raw.close()


def test_apply_retries_short_reads(tmp_path, monkeypatch):
    target = tmp_path / "deck.bin"
    records = make_records(1000, 8, seed=12)
    write_records(target, records)
    monkeypatch.setattr(cli, "open", lambda *args, **kw: Trickling(open(*args, **kw)), raising=False)
    assert cli.main(["apply", "--verify", "--record-size", "8", str(target)]) == 0
    assert target.read_bytes() == b"".join(oracle_shuffle(records, IN_SHUFFLE))
    assert cli.main(["apply", "--verify", "--inverse", "--record-size", "8", str(target)]) == 0
    assert target.read_bytes() == b"".join(records)


def _flip_one_byte(data):
    data[len(data) // 2] ^= 0xFF
    return data


@pytest.mark.parametrize(
    "meddle",
    [_flip_one_byte, lambda data: data + data[:8], lambda data: data[:-8]],
    ids=["overwrite", "append", "truncate"],
)
def test_apply_verify_fails_when_the_file_changes_under_it(tmp_path, monkeypatch, meddle):
    # another writer changes the file between the read and the check:
    # verification reads the disk again, so it fails and keeps their bytes
    target = tmp_path / "deck.bin"
    write_records(target, make_records(26, 8, seed=13))

    def meddling_in_shuffle(buf, instr=None):
        in_shuffle(buf, instr)
        target.write_bytes(meddle(bytearray(target.read_bytes())))

    monkeypatch.setattr(cli, "in_shuffle", meddling_in_shuffle)
    for native in (True, False):
        with monkeypatch.context() as m:
            if not native:
                m.setattr(_fastpath, "_native", None)  # as when the kernel did not build
            write_records(target, make_records(26, 8, seed=13))
            expected = bytes(meddle(bytearray(target.read_bytes())))
            assert cli.main(["apply", "--verify", "--record-size", "8", str(target)]) == 4
            assert target.read_bytes() == expected
            assert [p.name for p in tmp_path.iterdir()] == ["deck.bin"]


@pytest.mark.parametrize(
    "count, size, kind",
    [(2, 3 << 20, "in"), (2, 3 << 20, "out"), (2 * (cli._CHUNK // 64), 64, "in"),
     (2 * (cli._CHUNK // 64), 64, "out"), (2 * (cli._CHUNK // 64) + 1, 64, "k:3")],
    ids=["in-records-over-a-chunk", "out-records-over-a-chunk", "in-two-chunks",
         "out-two-chunks", "k3-two-chunks-and-a-record"],
)
def test_apply_verify_across_chunk_boundaries(tmp_path, count, size, kind):
    target = tmp_path / "deck.bin"
    data = random.Random(14).randbytes(count * size)
    target.write_bytes(data)
    records = [data[i : i + size] for i in range(0, len(data), size)]
    argv = ["--kind", kind, "--record-size", str(size), str(target)]
    assert cli.main(["apply", "--verify", *argv]) == 0
    assert target.read_bytes() == b"".join(oracle_shuffle(records, cli.parse_kind(kind)))
    assert cli.main(["apply", "--verify", "--inverse", *argv]) == 0
    assert target.read_bytes() == data


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
