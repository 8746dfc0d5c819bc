"""Command-line front end: shuffle record files, inspect cycles, benchmark.

Exit codes: 0 success, 2 argument or validation error, 3 I/O failure,
4 verification mismatch.
"""

import argparse
import math
import os
import stat
import sys
import tempfile
import time
from pathlib import Path

from ._fastpath import agree
from .kway import k_shuffle, k_unshuffle
from .oracle import oracle_shuffle
from .permcore import (
    IN_SHUFFLE,
    ShuffleKind,
    cycle_decomposition,
    in_shuffle_order,
    kway_kind,
    validate_order,
)
from .shuffle import (
    Instrumentation,
    RecordBuffer,
    in_shuffle,
    out_shuffle,
    un_out_shuffle,
    un_shuffle,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VERIFY = 4


def parse_kind(text: str) -> ShuffleKind:
    if text == "in":
        return IN_SHUFFLE
    if text == "out":
        return ShuffleKind("out")
    if text.startswith("k:"):
        try:
            return kway_kind(int(text[2:]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(f"kind must be 'in', 'out' or 'k:<k>', got {text!r}")


def _apply_kind(buf, kind: ShuffleKind, inverse: bool, instr=None) -> None:
    if kind.family == "in":
        (un_shuffle if inverse else in_shuffle)(buf, instr)
    elif kind.family == "out":
        (un_out_shuffle if inverse else out_shuffle)(buf, instr)
    else:
        (k_unshuffle if inverse else k_shuffle)(buf, kind.k, instr)


def _fail(code: int, message: str) -> int:
    print(f"faro: {message}", file=sys.stderr)
    return code


def _read(path: Path) -> tuple[bytearray, int]:
    """The file's bytes, read once into a buffer of its size, and its mode bits."""
    # O_NONBLOCK: a FIFO is refused below instead of waiting for a writer
    with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as handle:
        info = os.fstat(handle.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise OSError(f"{path} is not a regular file")
        data = bytearray(info.st_size)
        if handle.readinto(data) != len(data):
            raise OSError(f"{path} changed size while being read")
    return data, stat.S_IMODE(info.st_mode)


def _verified(original: bytearray, result: bytearray, record_size: int, kind: ShuffleKind,
              inverse: bool) -> bool:
    """Whether `result` is the `kind` shuffle of `original`, or its inverse.

    Checks ``result[t(i)] == original[i]`` under the closed-form target map
    in one native pass; without the kernel, compares record lists against
    the oracle instead.
    """
    if inverse:
        # original is then the shuffle of result
        original, result = result, original
    rs = record_size
    count = len(original) // rs
    if kind.family == "out":
        # the first and last records stay; the rest is an in-shuffle mod n - 1
        ok = agree(original, result, rs, 0, 2, count - 1)
        ends = original[:rs] == result[:rs] and original[-rs:] == result[-rs:]
    else:
        ok = agree(original, result, rs, -1, kind.k, count + 1)
        ends = True
    if ok is not None:
        return ok and ends
    before = RecordBuffer(original, rs)
    after = RecordBuffer(result, rs)
    return oracle_shuffle([before[i] for i in range(count)], kind) == [after[i] for i in range(count)]


def _commit(path: Path, data: bytearray, mode: int) -> None:
    """Replace `path` by `data` atomically and durably, keeping its mode bits."""
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fchmod(fd, mode)
            os.fsync(fd)
        os.replace(tmp_name, path)
    except BaseException:
        os.unlink(tmp_name)
        raise
    # the rename is durable only once the directory entry is
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def cmd_apply(path: Path, record_size: int, kind: ShuffleKind, inverse: bool, verify: bool) -> int:
    if record_size < 1:
        return _fail(EXIT_USAGE, f"record size must be >= 1, got {record_size}")
    # a symlink stays a link: its target is read and replaced
    path = Path(os.path.realpath(path))
    try:
        data, mode = _read(path)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read {path}: {exc}")
    if len(data) % record_size != 0:
        return _fail(
            EXIT_USAGE,
            f"{path} holds {len(data)} bytes, not a whole number of "
            f"{record_size}-byte records",
        )
    try:
        validate_order(kind, len(data) // record_size)
        # only --verify needs an untouched copy
        original = bytearray(data) if verify else None
        _apply_kind(RecordBuffer(data, record_size), kind, inverse)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    if verify and not _verified(original, data, record_size, kind, inverse):
        return _fail(EXIT_VERIFY, "verification mismatch, file left untouched")

    try:
        _commit(path, data, mode)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {path}: {exc}")
    return EXIT_OK


def cmd_cycles(order: int, kind: ShuffleKind) -> int:
    try:
        decomposition = cycle_decomposition(kind, order)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    for cycle in decomposition.cycles:
        print(f"({' '.join(map(str, cycle))}) len={len(cycle)}")
    lengths = [len(c) for c in decomposition.cycles]
    print(f"cycles={len(lengths)} order={math.lcm(*lengths) if lengths else 1}")
    return EXIT_OK


def cmd_order(order: int) -> int:
    try:
        print(in_shuffle_order(order))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    return EXIT_OK


def _fresh_buffer(size: int):
    # imported here, so that no other command pays for numpy
    try:
        import numpy as np
    except ImportError:
        return list(range(size))
    return np.arange(size, dtype=np.int64)


def cmd_bench(min_size: int, max_size: int, factor: float) -> int:
    if not 2 <= min_size <= max_size:
        return _fail(EXIT_USAGE, f"need 2 <= min <= max, got {min_size}..{max_size}")
    if factor <= 1:
        return _fail(EXIT_USAGE, f"growth factor must be > 1, got {factor}")
    print("size,nanos,moves,aux_words")
    s = min_size
    last_emitted = None
    while s <= max_size:
        size = max(2, (s + 1) // 2 * 2)  # nearest even, ties rounded up
        if size != last_emitted:
            buf = _fresh_buffer(size)
            instr = Instrumentation()
            started = time.perf_counter_ns()
            in_shuffle(buf, instr)
            elapsed = time.perf_counter_ns() - started
            print(f"{size},{elapsed},{instr.moves},{instr.aux_words_peak}")
            last_emitted = size
        s = math.ceil(s * factor)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faro",
        description="In-place perfect (faro) shuffles for arrays and record files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    apply_p = sub.add_parser("apply", help="permute a file of fixed-size records in place")
    apply_p.add_argument("--kind", type=parse_kind, default=IN_SHUFFLE,
                         help="shuffle family: in, out, or k:<k> (default: in)")
    apply_p.add_argument("--inverse", action="store_true", help="apply the inverse permutation")
    apply_p.add_argument("--verify", action="store_true",
                         help="check the result against the reference shuffle before committing")
    apply_p.add_argument("--record-size", type=int, required=True, help="bytes per record")
    apply_p.add_argument("path", type=Path, help="file of raw fixed-size records")

    cycles_p = sub.add_parser("cycles", help="print the cycle structure of a shuffle")
    cycles_p.add_argument("--kind", type=parse_kind, default=IN_SHUFFLE,
                          help="shuffle family: in, out, or k:<k> (default: in)")
    cycles_p.add_argument("order", type=int, help="number of elements")

    order_p = sub.add_parser("order", help="print how many in-shuffles restore the original")
    order_p.add_argument("order", type=int, help="number of elements")

    bench_p = sub.add_parser("bench", help="sweep sizes and emit CSV of time and move counts")
    bench_p.add_argument("--min", type=int, required=True, dest="min_size")
    bench_p.add_argument("--max", type=int, required=True, dest="max_size")
    bench_p.add_argument("--factor", type=float, required=True,
                         help="size growth per step; sizes are rounded to the nearest "
                              "even value (ties up)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "apply":
        return cmd_apply(args.path, args.record_size, args.kind, args.inverse, args.verify)
    if args.command == "cycles":
        return cmd_cycles(args.order, args.kind)
    if args.command == "order":
        return cmd_order(args.order)
    return cmd_bench(args.min_size, args.max_size, args.factor)


if __name__ == "__main__":
    sys.exit(main())
