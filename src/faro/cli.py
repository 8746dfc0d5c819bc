"""Command-line front end: shuffle record files and inspect cycles.

Exit codes: 0 success, 2 argument or validation error, 3 I/O failure,
4 verification mismatch.

The command line is parsed by ``getopt.gnu_getopt``, not argparse: every
``faro apply`` child parses one, and argparse's import and parsers cost a
child about 3 ms before it reads its file.

``apply`` shuffles the file in a temp file beside it, in place: it copies
the file there by ``os.copy_file_range``, maps the copy shared and
writable, runs the pass on the mapping, starts the copy's write-back, runs
``--verify`` against the original read again from disk meanwhile, and
then gives the copy the original's owner, group and mode, syncs it,
renames it over the original and syncs the directory. So the file is held
once, in the page cache, and never copied through a buffer of the
process. The steps on the file's bytes, the copy and the check, are in
``_recordfile``; the order of the steps, their messages and exit codes and
the temp file's life are here.

A ``faro`` process enters at ``run()``, which calls ``main()`` and then
ends the process the way CPython's own exit begins: it runs the exit
handlers (``atexit``) and flushes stdout and stderr, and then calls
``os._exit`` instead of tearing the interpreter down. Freeing every
module, code object and dict took a ``faro apply`` child 3-5 ms, and
nothing is left to make durable by then: the file is synced and renamed,
and its mapping and descriptors are closed. A write to stdout that fails,
as into a closed pipe or a full device, exits 3 with one line on stderr.
``main(argv)`` returns its exit code and never ends the process.
"""

import atexit
import getopt
import math
import os
import stat
import sys
import tempfile
from pathlib import Path

from . import _recordfile
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


def _replace(path: Path, source, info, record_size: int, kind: ShuffleKind, inverse: bool,
             verify: bool) -> int:
    """Replace `path` by the shuffle of `source`, its file, atomically and durably; an exit code.

    `info` is the fstat of `source`. The result is made in a temp file in
    the same directory, which gets `source`'s owner, group and mode bits, is
    synced and is renamed over `path`; any exit before the rename removes
    it. With `verify`, the result is checked against `path` read again,
    while the device writes the temp file back.
    """
    failed = f"cannot write {path}"
    tmp_name = None
    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        try:
            failed = f"cannot copy {path}"
            size = info.st_size
            # mmap refuses length 0, and an empty file has nothing to move
            with _recordfile._copy(source, fd, size) if size else memoryview(bytearray()) as result:
                _apply_kind(RecordBuffer(result, record_size), kind, inverse)
                # write-back starts here and runs while --verify reads;
                # mapped pages are written, not dropped
                os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
                failed = f"cannot read {path} to verify"
                if verify and not _recordfile._verified(path, result, record_size, kind, inverse):
                    return _fail(EXIT_VERIFY, "verification mismatch, file left untouched")
            failed = f"cannot keep the owner of {path}"
            made = os.fstat(fd)
            if (made.st_uid, made.st_gid) != (info.st_uid, info.st_gid):
                os.fchown(fd, info.st_uid, info.st_gid)
            failed = f"cannot write {path}"
            os.fchmod(fd, stat.S_IMODE(info.st_mode))
            os.fsync(fd)
        finally:
            os.close(fd)
        # the file on disk is the original until this rename
        os.replace(tmp_name, path)
        tmp_name = None
        # the rename is durable only once the directory entry is
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        return _fail(EXIT_IO, f"{failed}: {exc}")
    finally:
        if tmp_name is not None:
            os.unlink(tmp_name)
    return EXIT_OK


def cmd_apply(path: Path, record_size: int, kind: ShuffleKind, inverse: bool, verify: bool) -> int:
    if record_size < 1:
        return _fail(EXIT_USAGE, f"record size must be >= 1, got {record_size}")
    if kind.k > MAX_K:
        # whatever the file's length, before it is read; cycles takes any arity
        return _fail(EXIT_USAGE, f"supported arities are 2..{MAX_K}, got {kind.k}")
    # a symlink stays a link: its target is read and replaced
    path = Path(os.path.realpath(path))
    try:
        source = _recordfile._open(path)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read {path}: {exc}")
    with source:
        info = os.fstat(source.fileno())
        if info.st_size % record_size != 0:
            return _fail(
                EXIT_USAGE,
                f"{path} holds {info.st_size} bytes, not a whole number of "
                f"{record_size}-byte records",
            )
        try:
            validate_order(kind, info.st_size // record_size)
        except ValueError as exc:
            return _fail(EXIT_USAGE, str(exc))
        return _replace(path, source, info, record_size, kind, inverse, verify)


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


def run():
    """The process entry: ``main()``, the exit handlers, the flush of stdout and stderr, ``os._exit``."""
    try:
        code = main()
        atexit._run_exitfuncs()
        _flush(sys.stdout)
    except OSError as exc:
        # main() reports the errors of the files it opens: this is stdout's.
        # What stdout still buffers is dropped with the process.
        atexit._run_exitfuncs()  # none runs twice: the first call clears them
        code = EXIT_IO
        try:
            _fail(code, f"cannot write output: {exc}")
        except OSError:
            pass
    try:
        _flush(sys.stderr)
    except OSError:
        pass
    os._exit(code)


def _flush(stream) -> None:
    # a stream is None when its descriptor was closed before the start
    if stream is not None:
        stream.flush()


if __name__ == "__main__":
    run()
