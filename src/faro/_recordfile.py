"""The record file of ``faro apply``: read, copied into a mapping, and checked.

``cli`` holds the order of the steps, their messages and exit codes, and
the temp file's life; this module holds the steps that touch the file's
bytes. ``_copy`` fills the temp file from the original and maps it for the
shuffle, and ``_verified`` checks the shuffled mapping against the original
read again from disk, one chunk at a time, in one pass of
``_fastpath.agree`` per chunk. It is a module of its own so that a process
that compiles ``cli`` and it, as every ``faro apply`` child does where
bytecode is not cached, holds the parse tree of one of them at a time
rather than of both: compile memory that stays in the process's RSS.
"""

import errno
import mmap
import os
import stat
from pathlib import Path

from . import _fastpath
from .permcore import ShuffleKind

# bytes of the file that --verify reads at a time, in whole records and at
# least one
_CHUNK = 1 << 18
# copy_file_range's errors on files it cannot copy between, raised before it
# copies anything: the temp file is then filled by reads
_NO_COPY = (errno.EXDEV, errno.ENOSYS, errno.EOPNOTSUPP, errno.EINVAL)
# madvise's MADV_POPULATE_WRITE (Linux 5.14+), which Python 3.11's mmap does not name
_POPULATE_WRITE = 23


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


def _verified(path: Path, result, record_size: int, kind: ShuffleKind, inverse: bool) -> bool:
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


def _copy(source, fd: int, size: int) -> mmap.mmap:
    """A shared mapping of the temp file `fd`, filled with the `size` bytes of `source`.

    ``os.copy_file_range`` copies them, or, on files it cannot copy between,
    they are read into the mapping after ``os.posix_fallocate``. Either way
    every block is reserved before the mapping is written, so a full disk
    raises OSError here rather than SIGBUS in the shuffle. The mapping is
    faulted in writable before it is returned. OSError if `source` ends
    first.
    """
    done = 0
    while done < size:
        try:
            copied = os.copy_file_range(source.fileno(), fd, size - done)
        except OSError as exc:
            if done or exc.errno not in _NO_COPY:
                raise
            os.posix_fallocate(fd, 0, size)
            break
        if not copied:
            raise OSError("the file changed size while being read")
        done += copied
    mapping = mmap.mmap(fd, size)
    try:
        mapping.madvise(_POPULATE_WRITE)
    except OSError as exc:
        if exc.errno != errno.EINVAL:  # before Linux 5.14 only a hint is lost
            raise
    if done < size and not _fill(source, memoryview(mapping)):
        raise OSError("the file changed size while being read")
    return mapping
