"""Command-line front end: shuffle record files and inspect cycles.

Exit codes: 0 success, 2 argument or validation error, 3 I/O failure,
4 verification mismatch.
"""

import argparse
import math
import os
import stat
import sys
import tempfile
from pathlib import Path

from . import _fastpath
from .kway import k_shuffle, k_unshuffle
# unused here; kept bound because perfbench swaps faro.cli.oracle_shuffle by name
from .oracle import oracle_shuffle  # noqa: F401
from .permcore import (
    IN_SHUFFLE,
    OUT_SHUFFLE,
    ShuffleKind,
    cycle_decomposition,
    in_shuffle_order,
    kway_kind,
    validate_order,
)
from .shuffle import (
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
        return OUT_SHUFFLE
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


# bytes of the file that --verify reads at a time, in whole records and at
# least one
_CHUNK = 1 << 18


def _open(path: Path):
    """`path` opened for unbuffered reads; OSError unless it is a regular file."""
    # O_NONBLOCK: a FIFO is refused below instead of waiting for a writer
    handle = open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb", buffering=0)
    if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
        handle.close()
        raise OSError(f"{path} is not a regular file")
    return handle


def _fill(handle, view: memoryview) -> bool:
    """Read into all of `view`, retrying short reads; False if the file ends first."""
    done = 0
    while done < len(view):
        got = handle.readinto(view[done:])
        if not got:
            return False
        done += got
    return True


def _read(path: Path) -> tuple[bytearray, int]:
    """The file's bytes, read once into a buffer of its size, and its mode bits."""
    with _open(path) as handle:
        info = os.fstat(handle.fileno())
        data = bytearray(info.st_size)
        if not _fill(handle, memoryview(data)):
            raise OSError(f"{path} changed size while being read")
    return data, stat.S_IMODE(info.st_mode)


def _verified(path: Path, result: bytearray, record_size: int, kind: ShuffleKind,
              inverse: bool) -> bool:
    """Whether `result` is the `kind` shuffle of the records in `path`, or its inverse.

    The file is read again, strictly in order, one chunk of about ``_CHUNK``
    bytes at a time into one reused buffer, and each chunk is checked
    against `result` under the closed-form target map in one pass of
    ``_fastpath.agree``. So the check holds no second copy of the file, and
    a file that got shorter, longer or changed since it was read fails it.
    """
    rs = record_size
    count = len(result) // rs
    # item base + j moves to base + (j * mult % modulus) for j in 1..modulus-1;
    # items base and base + modulus stay, which in a file are the out-shuffle's
    # first and last records
    base, mult, modulus = (0, 2, count - 1) if kind.family == "out" else (-1, kind.k, count + 1)
    if inverse:
        # the file is the shuffle of `result`: F[base + j*mult] == R[base + j]
        # for every j is F[base + i] == R[base + i * mult^-1] for every i
        mult = pow(mult, -1, modulus)
    per = max(1, _CHUNK // rs)
    view = memoryview(bytearray(min(per, count) * rs))
    with _open(path) as handle:
        for f0 in range(0, count, per):
            n = min(per, count - f0)
            if not _fill(handle, view[: n * rs]):
                return False
            # the chunk holds items f0 .. f0 + n - 1 of the file
            lo, hi = max(f0, base + 1), min(f0 + n, base + modulus)
            if not _fastpath.agree(view[(lo - f0) * rs : (hi - f0) * rs], result, rs, base, mult,
                                   modulus, lo - base, hi - lo):
                return False
            for f in (base, base + modulus):
                at = (f - f0) * rs
                if f0 <= f < f0 + n and view[at : at + rs] != result[f * rs : (f + 1) * rs]:
                    return False
        return not handle.read(1)


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
        _apply_kind(RecordBuffer(data, record_size), kind, inverse)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    if verify:
        # the file on disk is still the original until _commit replaces it
        try:
            ok = _verified(path, data, record_size, kind, inverse)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot read {path} to verify: {exc}")
        if not ok:
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
                         help="check the result against the file, read again from disk, "
                              "before committing")
    apply_p.add_argument("--record-size", type=int, required=True, help="bytes per record")
    apply_p.add_argument("path", type=Path, help="file of raw fixed-size records")

    cycles_p = sub.add_parser("cycles", help="print the cycle structure of a shuffle")
    cycles_p.add_argument("--kind", type=parse_kind, default=IN_SHUFFLE,
                          help="shuffle family: in, out, or k:<k> (default: in)")
    cycles_p.add_argument("order", type=int, help="number of elements")

    order_p = sub.add_parser("order", help="print how many in-shuffles restore the original")
    order_p.add_argument("order", type=int, help="number of elements")
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
    return cmd_order(args.order)


if __name__ == "__main__":
    sys.exit(main())
