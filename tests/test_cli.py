import errno
import hashlib
import mmap
import os
import random
import signal
import stat
import subprocess
import sys
import tracemalloc

import pytest

import faro.cli as cli
from faro import _fastpath, _recordfile
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
            assert oracle_calls == []  # the check is the same closed-form pass on both paths


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
    # write-back of the result starts before --verify reads the original,
    # so the device writes while the check runs; the file is synced
    # before the rename and the directory after it
    target = tmp_path / "deck.bin"
    write_records(target, make_records(10, 4, seed=8))
    events = []
    fadvise, fill, fsync, replace = os.posix_fadvise, _recordfile._fill, os.fsync, os.replace

    def recording_fadvise(fd, offset, length, advice):
        assert (offset, length, advice) == (0, 0, os.POSIX_FADV_DONTNEED)
        events.append("fadvise")
        fadvise(fd, offset, length, advice)

    def recording_fill(handle, view):
        if "read" not in events:
            events.append("read")
        return fill(handle, view)

    def recording_fsync(fd):
        events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        fsync(fd)

    def recording_replace(src, dst):
        events.append("replace")
        replace(src, dst)

    monkeypatch.setattr(os, "posix_fadvise", recording_fadvise)
    monkeypatch.setattr(_recordfile, "_fill", recording_fill)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    assert cli.main(["apply", "--record-size", "4", str(target)]) == 0
    assert events == ["fadvise", "fsync file", "replace", "fsync dir"]
    events.clear()
    assert cli.main(["apply", "--verify", "--record-size", "4", str(target)]) == 0
    assert events == ["fadvise", "read", "fsync file", "replace", "fsync dir"]


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

# `faro apply` with the arguments given, in a child that first sets the
# kernel aside when its first argument is "twin"
APPLY = (
    "import sys\n"
    "from faro import _fastpath\n"
    "if sys.argv.pop(1) == 'twin':\n"
    "    _fastpath._native = None  # as when the kernel did not build\n"
    "from faro import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)
SRC_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}


def child_peak(args, native=True):
    """The peak RSS in bytes of a `faro apply` child with the arguments `args`."""
    argv = [sys.executable, "-c", APPLY, "native" if native else "twin", "apply", *args]
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=SRC_ENV,
                          capture_output=True, text=True, check=True)
    code, rss_kb = map(int, done.stdout.split())
    assert code == 0, done.stderr
    return rss_kb * 1024


def left_in(directory):
    return sorted(p.name for p in directory.iterdir())


@pytest.mark.parametrize("native", [True, False], ids=["kernel", "twin"])
def test_apply_to_an_empty_file(tmp_path, monkeypatch, native):
    # no records: nothing to map or move, and out needs at least two
    if not native:
        monkeypatch.setattr(_fastpath, "_native", None)  # as when the kernel did not build
    target = tmp_path / "empty.bin"
    target.write_bytes(b"")
    for kind, code in (("in", 0), ("k:3", 0), ("out", 2)):
        for verify in ([], ["--verify"]):
            assert cli.main(["apply", "--kind", kind, *verify, "--record-size", "4", str(target)]) == code
            assert target.read_bytes() == b""
            assert left_in(tmp_path) == ["empty.bin"]


@pytest.mark.parametrize("native", [True, False], ids=["kernel", "twin"])
@pytest.mark.parametrize("copy", ["trickle", "EXDEV", "ENOSYS"])
def test_apply_fills_the_temp_file_however_the_copy_goes(tmp_path, monkeypatch, native, copy):
    # copy_file_range may copy less than asked, or refuse a pair of files
    # before it copies anything; then the temp file is read into instead
    if not native:
        monkeypatch.setattr(_fastpath, "_native", None)  # as when the kernel did not build
    copy_file_range = os.copy_file_range
    calls = []

    def patched(src, dst, count):
        calls.append(count)
        if copy == "trickle":
            return copy_file_range(src, dst, min(count, 1000))
        raise OSError(getattr(errno, copy), os.strerror(getattr(errno, copy)))

    monkeypatch.setattr(os, "copy_file_range", patched)
    target = tmp_path / "deck.bin"
    records = make_records(1000, 8, seed=16)
    write_records(target, records)
    assert cli.main(["apply", "--verify", "--record-size", "8", str(target)]) == 0
    assert target.read_bytes() == b"".join(oracle_shuffle(records, IN_SHUFFLE))
    assert len(calls) == (8 if copy == "trickle" else 1)
    assert left_in(tmp_path) == ["deck.bin"]


def test_apply_takes_the_populate_advice_as_a_hint(tmp_path, monkeypatch):
    # a kernel before Linux 5.14 refuses MADV_POPULATE_WRITE with EINVAL,
    # as it does any advice it does not know: the pages then fault in
    # during the shuffle
    monkeypatch.setattr(_recordfile, "_POPULATE_WRITE", 999)
    target = tmp_path / "deck.bin"
    records = make_records(1000, 8, seed=20)
    write_records(target, records)
    assert cli.main(["apply", "--verify", "--record-size", "8", str(target)]) == 0
    assert target.read_bytes() == b"".join(oracle_shuffle(records, IN_SHUFFLE))


def _refuse(errno_code):
    def refused(*args, **kw):
        raise OSError(errno_code, os.strerror(errno_code))

    return refused


@pytest.mark.parametrize("native", [True, False], ids=["kernel", "twin"])
@pytest.mark.parametrize(
    "module, name, errno_code",
    [(os, "copy_file_range", errno.ENOSPC), (os, "posix_fallocate", errno.ENOSPC),
     (mmap, "mmap", errno.ENODEV)],
    ids=["copy", "fallocate", "mmap"],
)
def test_apply_failure_before_the_rename_leaves_the_original(tmp_path, monkeypatch, native, module,
                                                             name, errno_code):
    # a full disk, or a filesystem that cannot map the temp file, exits 3
    # with the original byte-identical and no temp file left
    if not native:
        monkeypatch.setattr(_fastpath, "_native", None)  # as when the kernel did not build
    if name == "posix_fallocate":  # reached when the copy is refused
        monkeypatch.setattr(os, "copy_file_range", _refuse(errno.EXDEV))
    monkeypatch.setattr(module, name, _refuse(errno_code))
    target = tmp_path / "deck.bin"
    write_records(target, make_records(10, 4, seed=17))
    target.chmod(0o640)
    before = sha256(target)
    assert cli.main(["apply", "--verify", "--record-size", "4", str(target)]) == 3
    assert sha256(target) == before
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert left_in(tmp_path) == ["deck.bin"]


@pytest.mark.skipif(os.geteuid() != 0, reason="only root can give a file to another owner")
def test_apply_keeps_the_owner_and_group(tmp_path, monkeypatch):
    target = tmp_path / "theirs.bin"
    records = make_records(10, 4, seed=18)
    write_records(target, records)
    os.chown(target, 65534, 65534)
    target.chmod(0o640)
    assert cli.main(["apply", "--verify", "--record-size", "4", str(target)]) == 0
    info = target.stat()
    assert (info.st_uid, info.st_gid, stat.S_IMODE(info.st_mode)) == (65534, 65534, 0o640)
    assert target.read_bytes() == b"".join(oracle_shuffle(records, IN_SHUFFLE))
    # an owner the temp file cannot take: exit 3, the original untouched
    before = sha256(target)
    monkeypatch.setattr(os, "fchown", _refuse(errno.EPERM))
    assert cli.main(["apply", "--record-size", "4", str(target)]) == 3
    assert sha256(target) == before
    assert left_in(tmp_path) == ["theirs.bin"]


@pytest.mark.parametrize("native", [True, False], ids=["kernel", "twin"])
def test_apply_killed_mid_shuffle_leaves_the_original(tmp_path, native):
    # SIGKILL while half the mapping is overwritten: the writes reach only
    # the temp file, which stays behind (the known leak of a killed run)
    target = tmp_path / "deck.bin"
    records = make_records(4096, 16, seed=19)
    write_records(target, records)
    target.chmod(0o640)
    before = sha256(target)
    dying = (
        "import os, signal\n"
        "from faro import cli\n"
        "def dying(buf, instr=None):\n"
        "    buf.data[: len(buf.data) // 2] = bytes(len(buf.data) // 2)\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "cli.in_shuffle = dying\n"
    )
    argv = [sys.executable, "-c", dying + APPLY, "native" if native else "twin", "apply", "--verify",
            "--record-size", "16", str(target)]
    done = subprocess.run(argv, env=SRC_ENV, capture_output=True)
    assert done.returncode == -signal.SIGKILL, done.stderr
    assert sha256(target) == before
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    left = left_in(tmp_path)
    assert left[0] == "deck.bin" and len(left) <= 2, left
    assert all(name.startswith("deck.bin.") and name.endswith(".tmp") for name in left[1:]), left


@pytest.mark.parametrize(
    "verify, native", [(False, True), (True, True), (True, False)],
    ids=["plain", "verify", "verify-without-kernel"],
)
def test_apply_holds_the_file_once_with_or_without_verify(tmp_path, monkeypatch, verify, native):
    # the file is held once, in the mapping of the temp file, off the heap:
    # the heap grows by less than two chunks, --verify's one chunk by the
    # native check or by its pure twin, and the process by about the file
    flags = ["--verify"] if verify else []
    target = tmp_path / "big.bin"
    size = 16 << 20
    target.write_bytes(random.Random(10).randbytes(size))
    small = tmp_path / "small.bin"
    small.write_bytes(bytes(128))
    grown = child_peak([*flags, "--record-size", "64", str(target)], native)
    grown -= child_peak([*flags, "--record-size", "64", str(small)], native)
    # interpreters differ by tens of KiB: a plain apply read 0.9988x
    assert 0.97 * size < grown < 1.25 * size, grown / size

    size //= 2
    if not native:
        monkeypatch.setattr(_fastpath, "_native", None)
        # the pure loops allocate per record, which tracemalloc makes slow:
        # a quarter of the file, at the same chunk to file ratio
        size //= 4
        monkeypatch.setattr(_recordfile, "_CHUNK", _recordfile._CHUNK // 4)
    target.write_bytes(random.Random(10).randbytes(size))
    tracemalloc.start()
    try:
        assert cli.main(["apply", *flags, "--record-size", "64", str(target)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * _recordfile._CHUNK, peak


@pytest.mark.skipif(not _fastpath.HAVE_COMPILED, reason=str(_fastpath.BUILD_ERROR))
def test_apply_verify_adds_less_than_four_chunks_to_the_process_peak(tmp_path):
    # tracemalloc sees only the heap; this is the whole process, in which
    # --verify holds one chunk more than a plain apply
    target = tmp_path / "big.bin"
    size = 16 << 20
    target.write_bytes(random.Random(11).randbytes(size))
    peak = {}
    for verify in ([], ["--verify"]):
        peak[bool(verify)] = child_peak([*verify, "--record-size", "64", str(target)])
    assert peak[True] - peak[False] < 4 * _recordfile._CHUNK, peak


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
    monkeypatch.setattr(_recordfile, "open", lambda *args, **kw: Trickling(open(*args, **kw)), raising=False)
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
    [(2, 3 << 20, "in"), (2, 3 << 20, "out"), (2 * (_recordfile._CHUNK // 64), 64, "in"),
     (2 * (_recordfile._CHUNK // 64), 64, "out"), (2 * (_recordfile._CHUNK // 64) + 1, 64, "k:3")],
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
    # an arity past 9 is refused before the file is read, whatever its
    # length: a missing file too; cycle analysis takes any arity
    for count in (2, 10):
        data = bytes(range(4 * count))
        target.write_bytes(data)
        assert cli.main(["apply", "--kind", "k:10", "--record-size", "4", str(target)]) == 2
        assert capsys.readouterr().err == "faro: supported arities are 2..9, got 10\n"
        assert target.read_bytes() == data
    assert cli.main(["apply", "--kind", "k:10", "--record-size", "4", str(tmp_path / "no.bin")]) == 2
    assert cli.main(["cycles", "--kind", "k:10", "20"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "cycles=3 order=6"


@pytest.mark.parametrize(
    "argv, code, stream, shuffled",
    [
        (["apply", "--kind=k:3", "--record-size", "4", "deck.bin"], 0, None, ("deck.bin", "k:3")),
        (["apply", "deck.bin", "--record-size", "4", "--kind", "out"], 0, None, ("deck.bin", "out")),
        (["apply", "--rec", "4", "deck.bin"], 0, None, ("deck.bin", "in")),
        (["apply", "--record-size=4", "--", "-deck.bin"], 0, None, ("-deck.bin", "in")),
        (["apply", "--record-size", "4", "-2"], 0, None, ("-2", "in")),
        (["-h"], 0, "out", None),
        (["--help"], 0, "out", None),
        (["apply", "-h"], 0, "out", None),
        (["cycles", "--help"], 0, "out", None),
        (["order", "-h"], 0, "out", None),
        (["apply", "--record-size", "4", "deck.bin", "--help"], 0, "out", None),
        ([], 2, "err", None),
        (["shuffle", "deck.bin"], 2, "err", None),
        (["apply", "--bogus", "--record-size", "4", "deck.bin"], 2, "err", None),
        (["apply", "--inverse=1", "--record-size", "4", "deck.bin"], 2, "err", None),
        (["apply", "--record-size"], 2, "err", None),
        (["apply", "deck.bin"], 2, "err", None),
        (["apply", "--record-size", "4", "deck.bin", "deck.bin"], 2, "err", None),
        (["apply", "--record-size", "x", "deck.bin"], 2, "err", None),
        (["apply", "--record-size", "-4", "deck.bin"], 2, "err", None),
        (["order", "-2"], 2, "err", None),
        (["order", "six"], 2, "err", None),
        (["order"], 2, "err", None),
        (["cycles", "6", "--kind=out"], 0, "out", None),
        (["cycles", "--kind", "k:3", "6", "9"], 2, "err", None),
    ],
    ids=[
        "kind-equals", "options-after-path", "abbreviated-option", "dashdash-dash-path",
        "negative-number-path", "h", "help", "apply-h", "cycles-help", "order-h", "help-after-path",
        "no-command", "unknown-command", "unknown-option", "flag-with-value", "option-without-value",
        "no-record-size", "two-paths", "record-size-not-int", "negative-record-size", "order-negative",
        "order-not-int", "order-no-operand", "cycles-option-after-operand", "cycles-two-orders",
    ],
)
def test_command_line_grammar(tmp_path, monkeypatch, capsys, argv, code, stream, shuffled):
    # each form of the command line, its exit code, the stream it writes
    # and the file it shuffles: the codes argparse gave, and its forms
    # (--opt=value, a unique prefix, options after the operand, --, and an
    # argument that reads as a negative number taken for an operand)
    monkeypatch.chdir(tmp_path)
    records = make_records(6, 4, seed=15)
    names = ["deck.bin", "-deck.bin", "-2"]
    for name in names:
        write_records(tmp_path / name, records)
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert (bool(out), bool(err)) == (stream == "out", stream == "err"), (out, err)
    if {"-h", "--help"} & set(argv):
        assert out == cli.USAGE
    for name in names:
        expected = records
        if shuffled and shuffled[0] == name:
            expected = oracle_shuffle(records, cli.parse_kind(shuffled[1]))
        assert (tmp_path / name).read_bytes() == b"".join(expected), name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


def test_console_script_is_wired():
    result = subprocess.run(
        [sys.executable, "-m", "faro.cli", "order", "52"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "52"
    # an installed `faro` calls the target of [project.scripts]: the process
    # entry, which skips the interpreter's teardown
    if sys.version_info < (3, 11):
        pytest.skip("tomllib is new in Python 3.11")
    import importlib
    import tomllib

    pyproject = os.path.join(os.path.dirname(SRC_ENV["PYTHONPATH"]), "pyproject.toml")
    with open(pyproject, "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["faro"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run


# as SRC_ENV, with stdout buffered as it is by default: what a process
# leaves in the buffer is lost unless it is flushed
BUFFERED_ENV = {name: value for name, value in SRC_ENV.items() if name != "PYTHONUNBUFFERED"}


def faro_child(argv, **kwargs):
    """`python -m faro.cli` with `argv`, run to its end; stderr is captured as text."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "faro.cli", *argv], env=BUFFERED_ENV,
                          stderr=subprocess.PIPE, text=True, **kwargs)


def test_output_longer_than_a_pipe_arrives_whole(capsys):
    # stdout buffers what does not fill a block: the process entry flushes it
    argv = ["cycles", "--kind", "in", "20000"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    assert len(expected) > 1 << 16
    done = faro_child(argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


def test_process_entry_runs_the_exit_handlers():
    probe = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'handler ran')\n"
        "sys.argv = ['faro', 'order', '6']\n"
        "runpy.run_module('faro.cli', run_name='__main__')\n"
        "print('the process outlived its entry')\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=BUFFERED_ENV, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "3\nhandler ran\n", "")


@pytest.mark.parametrize("argv, code", [
    (["order", "6"], 0),
    (["order", "x"], 2),
    (["apply", "--record-size", "4", "missing.bin"], 3),
], ids=["ok", "usage", "io"])
def test_process_entry_passes_the_exit_code_through(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    done = faro_child(argv)
    assert done.returncode == code, done.stderr


def test_process_entry_runs_with_stdout_closed():
    # a descriptor closed before the start leaves its sys stream None
    done = faro_child(["order", "6"], stdout=None, preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (0, "")


def test_a_closed_pipe_exits_3_with_one_line():
    # far more output than the pipe holds: the child is still writing when
    # the reader goes
    child = subprocess.Popen([sys.executable, "-m", "faro.cli", "cycles", "--kind", "in", "40000"],
                             env=BUFFERED_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.read(10) == b"(1 2 4 8 1"
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (3, b"faro: cannot write output: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_device_exits_3_with_one_line():
    with open("/dev/full", "w") as full:
        done = faro_child(["order", "6"], stdout=full)
    assert (done.returncode, done.stderr) == (3, "faro: cannot write output: [Errno 28] No space left on device\n")
