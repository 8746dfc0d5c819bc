"""The native shuffle pass, and the choice between it and its Python twin.

``_kernel.c`` is a CPython extension module holding in C the block loop of
``kway``'s driver, one whole pass per call (``shuffle``), with the loops of
``_loops`` it runs over raw item memory: the block gather and the cycle
walk. It also holds the check behind ``faro apply --verify`` (``agree``).
On first import it is compiled with ``cc`` against the interpreter's
``Python.h`` into ``__pycache__/_kernel-<crc32 of the source, the cc
command and the interpreter><extension suffix>`` next to this file and
loaded with importlib; later imports load that file without compiling
``_build``, which runs the build, or asking ``sysconfig`` for the headers,
and a new build removes the modules built there before it. If
``Python.h`` is missing, or the build or the load fails,
``HAVE_COMPILED`` is False, ``BUILD_ERROR`` says why, and every buffer and
every ``agree`` takes the Python loops.

The kernel takes exact lists (not subclasses), through their ``PyObject *``
slots, with the GIL held and the list's size checked on every call, and
all memory its pass takes: an ndarray, ``array.array``, ``memoryview``,
bytearray or mmap, say, alone or under a ``RecordBuffer``. Memory is held
as a buffer view for the length of a call, which runs without the GIL.
numpy is never imported here: no ndarray can exist before the caller has
imported it.

One shuffle call makes a whole pass over the range, tiled by a table of
the arity's rungs, and returns its counts; ``_kernel.c`` says how. ``kway``
has the kernel's ``ladder`` entry build each arity's table once, on the
arity's first call, and keeps it. The native ``shuffle`` checks every
range, integer and rung against the buffer itself, whoever built the
table.

While the kernel is loaded, an exact list goes from ``kway._pass`` straight
to the native ``shuffle``. Every other buffer goes, once per public call,
to ``shuffle`` here: it hands the buffer to the native ``shuffle``, which
takes it or refuses it before any item moves, and runs the twin,
``_loops._pure_pass``, on a refused one. Nothing is cached across calls.
``_loops`` is imported by the first call that takes the twin, or, without
the kernel, by ``agree`` and by the first table ``kway`` builds, so a
process whose buffers all go native never compiles it.
"""

import os
import sys
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from math import gcd

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")

# the cc command that builds the kernel, up to its include directory
_CC = ("cc", "-O2", "-shared", "-fPIC")
_SHUFFLE = f"{__package__}.shuffle"


def _load(cc=_CC):
    """The extension module built from _SOURCE by the command `cc`."""
    with open(_SOURCE, "rb") as handle:
        source = handle.read()
    cache = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
    # a module built by another command, or for another interpreter, must
    # not be reused; sys names the interpreter, sparing a sysconfig import
    key = "\0".join([*cc, sys.base_prefix, sys.version, EXTENSION_SUFFIXES[0]])
    key = zlib.crc32(key.encode(), zlib.crc32(source))
    target = os.path.join(cache, f"_kernel-{key:08x}{EXTENSION_SUFFIXES[0]}")
    if not os.path.exists(target):
        from . import _build  # compiled only by an import that builds

        _build.build(cc, source, target)
    from importlib.util import module_from_spec, spec_from_file_location

    spec = spec_from_file_location("faro._kernel", target)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


try:
    _native = _load()
    BUILD_ERROR = None
except (OSError, ImportError) as exc:
    _native = None
    BUILD_ERROR = f"native kernel unavailable: {exc}"
HAVE_COMPILED = _native is not None


def shuffle(buf, lo, hi, k, inverse, table):
    """One pass over buf[lo:hi], native or by its twin, and its counts.

    Takes and returns what the native ``shuffle`` does, which is passed the
    record size of a ``RecordBuffer``. A buffer goes native iff the pass
    takes it (``get_items`` in ``_kernel.c`` holds the rule, and takes every
    exact list); the pass refuses any other with ``Refused`` before any
    item moves, and it then takes the twin, ``_loops._pure_pass``. An
    ndarray that holds objects always takes the twin. A numpy MaskedArray
    runs its data and, unless it is nomask, its mask through this in turn,
    each a plain array: item by item, the twin would read a masked item as
    np.ma.masked, and writing that back sets the mask but leaves the data
    under it behind. ValueError, before anything moves, for a MaskedArray
    whose hard mask holds masked items in place or whose data or mask is
    read-only, and for an ndarray whose items are views (not 1-D, or
    structured) that the kernel does not take: the twin would copy an item
    through a view that an earlier write has already overwritten.
    """
    np = sys.modules.get("numpy")
    array = np is not None and isinstance(buf, np.ndarray)
    ma = array and sys.modules.get("numpy.ma")  # loaded before any MaskedArray exists
    if ma and isinstance(buf, ma.MaskedArray):
        mask = ma.getmask(buf)
        if buf.hardmask and mask.any():
            raise ValueError("a hard mask keeps the masked items from moving")
        parts = (buf.data,) if mask is ma.nomask else (buf.data, mask)
        for part in parts:
            if not part.flags.writeable:
                raise ValueError("assignment destination is read-only")
        # the data and the mask make the same moves: one result stands for both
        for part in parts:
            counts = shuffle(part, lo, hi, k, inverse, table)
        return counts
    # get_items cannot see an object field beside a datetime64 one
    if _native is not None and not (array and buf.dtype.hasobject):
        # loaded with the package; an import statement here takes microseconds
        records = sys.modules[_SHUFFLE].RecordBuffer
        data, size = (buf.data, buf.record_size) if type(buf) is records else (buf, 0)
        try:
            return _native.shuffle(data, lo, hi, k, inverse, table, size)
        except _native.Refused:
            pass
    if array and (buf.ndim != 1 or buf.dtype.names):
        raise ValueError(f"the items of a {buf.ndim}-D array of {buf.dtype} are views into it")
    from . import _loops

    return _loops._pure_pass(buf, lo, hi, k, inverse, table)


def agree(chunk, result, itemsize, base, mult, modulus, j0, count):
    """Whether `chunk` is items j0 .. j0 + count - 1 of what `result` moves.

    True iff item i of `chunk` equals item ``base + ((j0 + i) * mult %
    modulus)`` of `result` for every i in 0..count-1, items being runs of
    `itemsize` bytes in two contiguous buffers (bytearrays, say). Called on
    consecutive chunks for j = 1..modulus-1, it checks that `result` holds a
    buffer read in order, item ``base + j`` moved to ``base + (j * mult %
    modulus)``. One pass per chunk that holds nothing beyond it, native or,
    when the kernel did not build, by its twin ``_loops.agree_items``; it
    shares no code with the shuffles it checks. The checks here guard both.
    """
    if itemsize < 1 or modulus < 1 or base + 1 < 0:
        raise ValueError(f"no items {base} + 1..{modulus - 1} of {itemsize} bytes")
    # a unit keeps every target off item `base` and makes the map a bijection
    if gcd(mult, modulus) != 1:
        raise ValueError(f"x{mult} mod {modulus} is no permutation")
    if not (1 <= j0 and 0 <= count and j0 + count <= modulus):
        raise IndexError(f"items {j0} + 0..{count - 1} leave 1..{modulus - 1}")
    for buf, need in ((chunk, count * itemsize), (result, (base + modulus) * itemsize)):
        size = memoryview(buf).nbytes
        if size < need:
            raise IndexError(f"buffer of {size} bytes, need {need}")
    if count == 0:
        return True  # nothing to compare
    if _native is None:
        from . import _loops

        return _loops.agree_items(chunk, result, itemsize, base, mult % modulus, modulus, j0, count)
    return _native.agree(chunk, result, itemsize, base, mult % modulus, modulus, j0, count)
