"""The native shuffle pass, and the choice between it and its Python twin.

``_kernel.c`` is a CPython extension module holding in C the block loop of
``kway``'s driver, one whole pass per call (``shuffle``), with the loops of
``_loops`` it runs over raw item memory: the block gather and the cycle
walk. It also holds the check behind ``faro apply --verify`` (``agree``).
On first import it is compiled with ``cc`` against the interpreter's
``Python.h`` into ``__pycache__/_kernel-<crc32 of the source, the cc
command and the interpreter><extension suffix>`` next to this file and
loaded with importlib; later imports load that file without asking
``sysconfig`` for the headers, and a new build removes the modules built
there before it. If ``Python.h`` is missing, or the build or the load
fails, ``HAVE_COMPILED`` is False, ``BUILD_ERROR`` says why, and every
buffer and every ``agree`` takes the Python loops.

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
to the native ``shuffle``. ``resolve`` sorts every other buffer once per
public call: it binds the native ``shuffle`` to the buffer, which takes it
or refuses it before any moves, and a refused buffer takes the twin,
``kway._pure_pass``. Nothing is cached across calls.
"""

import os
import sys
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from math import gcd

from . import _loops

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
        import subprocess
        import sysconfig

        include = sysconfig.get_paths()["include"]
        if not os.path.exists(os.path.join(include, "Python.h")):
            raise OSError(f"no Python.h in {include}")
        os.makedirs(cache, exist_ok=True)
        # concurrent first imports each build their own file; the last
        # rename wins and every loader sees a complete module
        tmp = f"{target}.{os.getpid()}.tmp"
        try:
            built = subprocess.run(
                [*cc, "-I", include, "-x", "c", "-o", tmp, "-"],
                input=source,
                capture_output=True,
            )
            if built.returncode != 0:
                raise OSError(f"cc exited {built.returncode}: {built.stderr.decode(errors='replace').strip()}")
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        # a fresh build supersedes every module built here before it; a
        # mapped module stays usable after its file is unlinked
        for name in os.listdir(cache):
            stale = os.path.join(cache, name)
            if name.startswith("_kernel-") and name.endswith(EXTENSION_SUFFIXES[0]) and stale != target:
                try:
                    os.unlink(stale)
                except OSError:
                    pass  # gone already, or not ours: a leftover costs only disk
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


def resolve(buf, twin):
    """The native ``shuffle`` bound to this buffer, or its Python `twin`, for the length of one call.

    Both take ``(buf, lo, hi, k, inverse, table)``; the pass is passed the
    record size of a ``RecordBuffer``. A buffer goes native iff the pass
    takes it (``get_items`` in ``_kernel.c`` holds the rule, and takes every
    exact list): the bound call runs the twin only when the pass refuses the
    buffer, which it does with ``Refused`` before any item moves. An ndarray
    that holds objects always takes the twin. A numpy MaskedArray moves its
    data and its mask alike, each by what this resolves for that plain
    array, and returns one of their equal results. ValueError, before
    anything moves, for a MaskedArray whose hard mask holds masked items in
    place, and for an ndarray whose items are views (not 1-D, or
    structured) that the kernel does not take: the Python loops would copy
    an item through a view that an earlier write has already overwritten.
    """
    # closures are made in the helpers: a cell here would cost every call
    run = _masked(buf, twin)
    if run is not None:
        return run
    np = sys.modules.get("numpy")
    # get_items cannot see an object field beside a datetime64 one
    if _native is None or np is not None and isinstance(buf, np.ndarray) and buf.dtype.hasobject:
        return _twin(buf, twin)
    # loaded with the package; an import statement here takes microseconds
    records = sys.modules[_SHUFFLE].RecordBuffer
    data, size = (buf.data, buf.record_size) if type(buf) is records else (buf, 0)
    return _bind(data, size, buf, twin)


def _bind(data, size, buf, twin):
    # the native pass bound to buf's memory `data` and its record `size`,
    # which runs the twin on buf when the pass refuses the memory
    shuffle = _native.shuffle

    def run(_buf, lo, hi, k, inverse, table):
        try:
            return shuffle(data, lo, hi, k, inverse, table, size)
        except _native.Refused:
            return _twin(buf, twin)(buf, lo, hi, k, inverse, table)

    return run


def _twin(buf, twin):
    # the twin, unless buf is an ndarray whose items are views (see resolve)
    np = sys.modules.get("numpy")
    if np is not None and isinstance(buf, np.ndarray) and (buf.ndim != 1 or buf.dtype.names):
        raise ValueError(f"the items of a {buf.ndim}-D array of {buf.dtype} are views into it")
    return twin


def _masked(buf, twin):
    # The bound call of a MaskedArray, which moves its data and, unless it
    # is nomask, its mask: each a plain array on its own loops. Item by
    # item, the Python loops would read a masked item as np.ma.masked, and
    # writing that back sets the mask but leaves the data under it behind.
    # None for any other buffer.
    ma = sys.modules.get("numpy.ma")  # loaded before any MaskedArray exists
    if ma is None or not isinstance(buf, ma.MaskedArray):
        return None
    mask = ma.getmask(buf)
    if buf.hardmask and mask.any():
        raise ValueError("a hard mask keeps the masked items from moving")
    return _parts((buf.data, mask), ma.nomask, twin)


def _parts(arrays, nomask, twin):
    # the bound call of a MaskedArray's data and mask, a mask of nomask
    # aside; its own helper, so that _masked makes no cell on other buffers
    runs = [(array, resolve(array, twin)) for array in arrays if array is not nomask]

    def run_parts(_buf, *args):
        # the data and the mask make the same moves: one result stands for both
        for array, run in runs:
            result = run(array, *args)
        return result

    return run_parts


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
    agree_items = _loops.agree_items if _native is None else _native.agree
    return agree_items(chunk, result, itemsize, base, mult % modulus, modulus, j0, count)
