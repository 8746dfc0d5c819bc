"""Native twins of the inner loops, and the choice between them and ``_loops``.

``_kernel.c`` holds the reversal and the cycle walk of ``_loops`` in C, over
raw item memory, and the check behind ``faro apply --verify`` (``agree``).
On first import it is compiled with ``cc`` into
``__pycache__/_kernel-<crc32 of the source and the cc argv><extension
suffix>`` next to this file and loaded with ctypes; later imports load that
file, and a new build removes the libraries built there before it. If the build or the load fails, ``HAVE_COMPILED`` is False,
``BUILD_ERROR`` says why, every buffer takes the Python loops and ``agree``
returns None.

The kernel takes 1-D, writable, C-contiguous ndarrays of any dtype that holds
no Python objects, and ``RecordBuffer`` over a bytearray; their entries run
without the GIL. When ``Python.h`` is found at build time it also takes exact
lists (not subclasses), through entries that hold the GIL and check the
list's size on every call. Without the headers lists, like read-only or
strided arrays and every other buffer, take the Python loops. numpy is never
imported here: no ndarray can exist before the caller has imported it.

One walk call realizes a whole ladder of cycles, those led by
``leader * p**s`` for ``s < count``. Every walk of a q-way pass steps
``j -> q * j mod m`` without a division: the forward passes push each item
on to its target, and the inverse passes pull each slot's item from its
source.

``kernel`` is the one place that sorts a buffer onto its loops. A public
call resolves its (reverse, walk) pair once, with it, and hands the pair
down; nothing is cached across calls.
"""

import ctypes
import os
import sys
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from math import gcd

from . import _loops

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")


def _cc_argv():
    """The cc command that builds the kernel, up to its output file.

    It passes the interpreter's include dir, and with it the list entries,
    only when ``Python.h`` is there.
    """
    import sysconfig

    argv = ["cc", "-O2", "-shared", "-fPIC"]
    include = sysconfig.get_paths()["include"]
    if os.path.exists(os.path.join(include, "Python.h")):
        argv += ["-I", include]
    return argv + ["-x", "c"]


def _load(argv):
    """(library, list entries or None) built from _SOURCE by `argv`."""
    with open(_SOURCE, "rb") as handle:
        source = handle.read()
    cache = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
    # the name covers the command too: a library built without the headers
    # must not be reused once they exist, nor one built with them when not
    key = zlib.crc32("\0".join(argv).encode(), zlib.crc32(source))
    target = os.path.join(cache, f"_kernel-{key:08x}{EXTENSION_SUFFIXES[0]}")
    if not os.path.exists(target):
        import subprocess

        os.makedirs(cache, exist_ok=True)
        # concurrent first imports each build their own file; the last
        # rename wins and every loader sees a complete library
        tmp = f"{target}.{os.getpid()}.tmp"
        try:
            built = subprocess.run(
                [*argv, "-o", tmp, "-"],
                input=source,
                capture_output=True,
            )
            if built.returncode != 0:
                raise OSError(f"cc exited {built.returncode}: {built.stderr.decode(errors='replace').strip()}")
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        # a fresh build supersedes every library built here before it; a
        # mapped library stays usable after its file is unlinked
        for name in os.listdir(cache):
            stale = os.path.join(cache, name)
            if name.startswith("_kernel-") and name.endswith(EXTENSION_SUFFIXES[0]) and stale != target:
                try:
                    os.unlink(stale)
                except OSError:
                    pass  # gone already, or not ours: a leftover costs only disk
    lib = ctypes.CDLL(target)
    i64, size_t, ptr = ctypes.c_int64, ctypes.c_size_t, ctypes.c_void_p
    lib.faro_reverse.argtypes = (ptr, size_t, i64, i64)
    lib.faro_reverse.restype = None
    lib.faro_walk.argtypes = (ptr, size_t, i64, i64, i64, i64, i64, i64)
    lib.faro_walk.restype = None
    lib.faro_mulmod.argtypes = (i64, i64, i64)
    lib.faro_mulmod.restype = i64
    lib.faro_step.argtypes = (i64, i64, i64)
    lib.faro_step.restype = i64
    lib.faro_agree.argtypes = (ptr, ptr, size_t, i64, i64, i64, i64, i64)
    lib.faro_agree.restype = ctypes.c_int
    # PyDLL keeps the GIL for the call and raises what the entry sets
    lists = ctypes.PyDLL(target)
    if not hasattr(lists, "faro_list_walk"):
        return lib, None  # built without Python.h
    # the integers go as objects too: the entries refuse one beyond int64
    obj = ctypes.py_object
    lists.faro_list_reverse.argtypes = (obj, obj, obj)
    lists.faro_list_reverse.restype = None
    lists.faro_list_walk.argtypes = (obj, obj, obj, obj, obj, obj, obj)
    lists.faro_list_walk.restype = None
    return lib, lists


try:
    _lib, _lists = _load(_cc_argv())
    BUILD_ERROR = None
except OSError as exc:
    _lib = _lists = None
    BUILD_ERROR = f"native kernel unavailable: {exc}"
HAVE_COMPILED = _lib is not None


def _memory(buf):
    """(pointer, itemsize, length) of a buffer the kernel can take, else None.

    The pointer object keeps the memory it points to alive.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(buf, np.ndarray):
        if (
            buf.ndim == 1
            and buf.size
            and buf.flags.c_contiguous
            and buf.flags.writeable
            and not buf.dtype.hasobject
        ):
            return buf.ctypes.data_as(ctypes.c_void_p), buf.itemsize, len(buf)
        return None
    from .shuffle import RecordBuffer  # shuffle imports this module

    if type(buf) is RecordBuffer and type(buf.data) is bytearray and buf.data:
        # the exported view also stops the bytearray from being resized
        return ctypes.byref(ctypes.c_char.from_buffer(buf.data)), buf.record_size, len(buf)
    return None


def _ladder_fits(leader, p, count, modulus):
    """Whether leader * p**s lies in (0, modulus) for every s < count, and
    count fits an int64, which ctypes would wrap instead of refusing.

    Past 64 rungs a ladder has left that range, since p >= 2 at least
    doubles the leader and modulus < 2**63, or stands still at p = 1, and
    p <= 0 leaves at once; so 64 rungs are checked at most, as in the list
    entry's ``ladder_fits``.
    """
    if not 0 <= count < 2**63:
        return False
    for _ in range(min(count, 64)):
        if not 0 < leader < modulus:
            return False
        leader *= p
    return True


def kernel(buf):
    """The (reverse, walk) pair for this buffer, for the length of one call.

    Every native loop checks its range against the buffer and raises
    IndexError outside it.
    """
    if _lib is None:
        return _loops.reverse_slots, _loops.cycle_walk
    if type(buf) is list and _lists is not None:
        return _lists.faro_list_reverse, _lists.faro_list_walk
    memory = _memory(buf)
    if memory is None:
        return _loops.reverse_slots, _loops.cycle_walk
    pointer, itemsize, length = memory

    def reverse(_buf, lo, hi):
        if not 0 <= lo <= hi <= length:
            raise IndexError(f"reversal of [{lo}, {hi}) leaves a buffer of {length}")
        _lib.faro_reverse(pointer, itemsize, lo, hi)

    def walk(_buf, base, leader, mult, modulus, p, count):
        # the orbits stay in local positions 1..modulus-1 and close only
        # when mult is a unit and the leaders are among those positions
        if not (base + 1 >= 0 and base + modulus - 1 < length):
            raise IndexError(f"walk mod {modulus} at base {base} leaves a buffer of {length}")
        if not 0 < leader < modulus or gcd(mult, modulus) != 1:
            raise ValueError(f"leader {leader} under x{mult} mod {modulus} is no closed orbit")
        if not _ladder_fits(leader, p, count, modulus):
            raise ValueError(f"ladder of {count} leaders {leader} * {p}^s leaves 1..{modulus - 1}")
        _lib.faro_walk(pointer, itemsize, base, leader, mult % modulus, modulus, p, count)

    return reverse, walk


def agree(chunk, result, itemsize, base, mult, modulus, j0, count):
    """Whether `chunk` is items j0 .. j0 + count - 1 of what `result` moves.

    True iff item i of `chunk` equals item ``base + ((j0 + i) * mult %
    modulus)`` of `result` for every i in 0..count-1, items being runs of
    `itemsize` bytes in two writable buffers (bytearrays, say). Called on
    consecutive chunks for j = 1..modulus-1, it checks that `result` holds a
    buffer read in order, item ``base + j`` moved to ``base + (j * mult %
    modulus)``. One native pass per chunk that allocates nothing; it shares
    no code with the shuffles it checks. None when the kernel did not build.
    """
    if _lib is None:
        return None
    if itemsize < 1 or modulus < 1 or base + 1 < 0:
        raise ValueError(f"no items {base} + 1..{modulus - 1} of {itemsize} bytes")
    # a unit keeps every target off item `base` and makes the map a bijection
    if gcd(mult, modulus) != 1:
        raise ValueError(f"x{mult} mod {modulus} is no permutation")
    # these bounds also keep every integer below 2**63, where ctypes would
    # wrap it into range instead of refusing it
    if not (1 <= j0 and 0 <= count and j0 + count <= modulus):
        raise IndexError(f"items {j0} + 0..{count - 1} leave 1..{modulus - 1}")
    for buf, need in ((chunk, count * itemsize), (result, (base + modulus) * itemsize)):
        size = memoryview(buf).nbytes
        if size < need:
            raise IndexError(f"buffer of {size} bytes, need {need}")
    if count == 0:
        return True  # nothing to compare; from_buffer would refuse an empty buffer
    return bool(_lib.faro_agree(
        ctypes.byref(ctypes.c_char.from_buffer(chunk)),
        ctypes.byref(ctypes.c_char.from_buffer(result)),
        itemsize, base, mult % modulus, modulus, j0, count,
    ))
