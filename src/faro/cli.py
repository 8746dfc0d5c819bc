"""Command-line front end: shuffle record files and inspect cycles.

Exit codes: 0 success, 2 argument or validation error, 3 I/O failure,
4 verification mismatch.

The command line is parsed by ``getopt.gnu_getopt``, not argparse: every
``faro apply`` child parses one, and argparse's import and parsers cost a
child about 3 ms before it reads its file.
"""

import getopt
import math
import os
import stat
import sys
import tempfile
from pathlib import Path

from . import _fastpath
from .kway import MAX_K, k_shuffle, k_unshuffle
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

USAGE = """\
usage: faro apply [--kind K] [--inverse] [--verify] --record-size N PATH
       faro cycles [--kind K] ORDER
       faro order ORDER

In-place perfect (faro) shuffles for arrays and record files.

commands:
  apply              permute a file of fixed-size records in place
  cycles             print the cycle structure of a shuffle
  order              print how many in-shuffles restore the original

options:
  --kind K           shuffle family: in, out, or k:<k> (default: in)
  --inverse          apply the inverse permutation
  --verify           check the result against the file, read again from
                     disk, before committing
  --record-size N    bytes per record
  -h, --help         show this help and exit

Options may follow the operand, be given as --option=value and be cut to
a unique prefix; -- ends them.
"""

# each command's long options, as getopt spells them: "=" takes a value
_OPTIONS = {
    "apply": ["kind=", "inverse", "verify", "record-size=", "help"],
    "cycles": ["kind=", "help"],
    "order": ["help"],
}

# an argument that reads as a negative number, as in `faro order -2`, is an
# operand, where getopt would take it for an option: it passes getopt behind
# a NUL, which no command-line argument holds
_HIDE = "\0"


def parse_kind(text: str) -> ShuffleKind:
    """The kind ``--kind`` `text` names: in, out or k:<k>; ValueError for any other."""
    if text == "in":
        return IN_SHUFFLE
    if text == "out":
        return OUT_SHUFFLE
    if text.startswith("k:"):
        return kway_kind(_number("k", text[2:]))
    raise ValueError(f"kind must be 'in', 'out' or 'k:<k>', got {text!r}")


def _number(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def _parse(args):
    """The command, its options and its operand, or None for ``-h`` or ``--help``.

    The options map each long option given, by its full name, to its value,
    the last one when it is repeated. GetoptError for a command line that
    names no command or breaks its command's grammar.
    """
    found, rest = getopt.getopt(args, "h", ["help"])
    if found:
        return None
    if not rest:
        raise getopt.GetoptError(f"missing command: one of {', '.join(_OPTIONS)}")
    command, *rest = rest
    if command not in _OPTIONS:
        raise getopt.GetoptError(f"unknown command {command!r}")
    rest = [_HIDE + arg if arg[:1] == "-" and arg[1:].isdecimal() else arg for arg in rest]
    found, operands = getopt.gnu_getopt(rest, "h", _OPTIONS[command])
    options = {name: value.removeprefix(_HIDE) for name, value in found}
    if "-h" in options or "--help" in options:
        return None
    if len(operands) != 1:
        raise getopt.GetoptError(f"{command} takes one operand, got {len(operands)}")
    if command == "apply" and "--record-size" not in options:
        raise getopt.GetoptError("apply needs --record-size N")
    return command, options, operands[0].removeprefix(_HIDE)


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


def _usage_error(message: str) -> int:
    print(USAGE.partition("\n\n")[0], file=sys.stderr)  # its usage lines
    return _fail(EXIT_USAGE, message)


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
    if kind.k > MAX_K:
        # whatever the file's length, before it is read; cycles takes any arity
        return _fail(EXIT_USAGE, f"supported arities are 2..{MAX_K}, got {kind.k}")
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


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            print(USAGE, end="")
            return EXIT_OK
        command, options, operand = parsed
        kind = parse_kind(options.get("--kind", "in"))
        if command == "apply":
            record_size = _number("--record-size", options["--record-size"])
        else:
            order = _number("ORDER", operand)
    except (getopt.GetoptError, ValueError) as exc:
        return _usage_error(str(exc))
    if command == "apply":
        return cmd_apply(Path(operand), record_size, kind, "--inverse" in options,
                         "--verify" in options)
    if command == "cycles":
        return cmd_cycles(order, kind)
    return cmd_order(order)


if __name__ == "__main__":
    sys.exit(main())
