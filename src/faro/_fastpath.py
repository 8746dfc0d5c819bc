"""The native shuffle pass and reversal, and the choice between them and Python.

``_kernel.c`` is a CPython extension module holding in C the block loop of
``kway``'s driver, one whole pass per call (``shuffle``), with the loops of
``_loops`` it runs over raw item memory: the block gather and the cycle
walk. It also holds the reversal (``reverse``), which ``faro.rotate`` runs,
and the check behind ``faro apply --verify`` (``agree``).
On first import it is compiled with ``cc`` against the interpreter's
``Python.h`` into ``__pycache__/_kernel-<crc32 of the source and the cc
argv><extension suffix>`` next to this file and loaded with importlib;
later imports load that file, and a new build removes the modules built
there before it. If
``Python.h`` is missing, or the build or the load fails, ``HAVE_COMPILED``
is False, ``BUILD_ERROR`` says why, and every buffer and every ``agree``
takes the Python loops.

The kernel takes exact lists (not subclasses), through their ``PyObject *``
slots, with the GIL held and the list's size checked on every call, and
all memory its entries take: an ndarray, ``array.array``, ``memoryview``,
bytearray or mmap, say, alone or under a ``RecordBuffer``. Memory is held
as a buffer view for the length of a call, which runs without the GIL.
numpy is never imported here: no ndarray can exist before the caller has
imported it.

One shuffle call tiles the range by a table of the arity's rungs that
``kway`` builds once, and makes every block's gather and walks and the
tail sweep, with the GIL held for a list and released for memory
throughout; it returns the counts. A gather makes all k - 1 rotations of a
block's gather, or of its inverse, the scatter, each by conjoined triple
reversal. A walk realizes a whole ladder of cycles, those led by
``leader * p**s`` for ``s < count``. Every walk of a q-way pass modulo m,
while ``q * m <= 2**32``, steps ``j -> q * j mod m`` without a division:
the forward passes push each item on to its target, and the inverse passes
pull each slot's item from its source. The native ``shuffle`` and
``reverse`` check every range, integer and rung against the buffer
themselves.

Buffers are sorted in one place, ``_native_items``, and resolved in one,
``resolve``: once per public call, a native entry bound to the buffer or
its Python twin. ``kernel`` resolves the pass, the native ``shuffle`` or
``kway._pure_pass``; ``faro.rotate`` resolves the reversal, the native
``reverse`` or ``_loops.reverse_slots``. Nothing is cached across calls.
"""

import os
import sys
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from math import gcd

from . import _loops

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")


def _cc_argv():
    """The cc command that builds the kernel, up to its output file."""
    import sysconfig

    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        raise OSError(f"no Python.h in {include}")
    return ["cc", "-O2", "-shared", "-fPIC", "-I", include, "-x", "c"]


def _load(argv):
    """The extension module built from _SOURCE by `argv`."""
    with open(_SOURCE, "rb") as handle:
        source = handle.read()
    cache = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
    # the name covers the command too: a module built by another command,
    # or against other headers, must not be reused
    key = zlib.crc32("\0".join(argv).encode(), zlib.crc32(source))
    target = os.path.join(cache, f"_kernel-{key:08x}{EXTENSION_SUFFIXES[0]}")
    if not os.path.exists(target):
        import subprocess

        os.makedirs(cache, exist_ok=True)
        # concurrent first imports each build their own file; the last
        # rename wins and every loader sees a complete module
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
    _native = _load(_cc_argv())
    BUILD_ERROR = None
except (OSError, ImportError) as exc:
    _native = None
    BUILD_ERROR = f"native kernel unavailable: {exc}"
HAVE_COMPILED = _native is not None


def resolve(buf, name, twin):
    """The native entry `name` for this buffer, or its Python `twin`, for the length of one call.

    The entry takes ``(buf, *args[, itemsize])``, and is returned bound to
    the record size for a ``RecordBuffer``; the twin takes ``(buf, *args)``.
    Memory goes native iff one empty reversal by the native kernel takes it
    (``get_items`` in ``_kernel.c`` holds the rule) and it is not an
    ndarray that holds objects. A numpy MaskedArray moves its data and its
    mask alike, each by what this resolves for that plain array, and
    returns one of their equal results. ValueError, before anything
    moves, for a MaskedArray whose hard mask holds masked items in place,
    and for an ndarray whose items are views (not 1-D, or structured) that
    the kernel does not take: the Python loops would copy an item through a
    view that an earlier write has already overwritten.
    """
    if type(buf) is list:
        return twin if _native is None else getattr(_native, name)
    parts = _masked_parts(buf)
    if parts is not None:
        runs = [(array, resolve(array, name, twin)) for array in parts]

        def run_parts(_buf, *args):
            # the data and the mask make the same moves: one result stands for both
            for array, run in runs:
                result = run(array, *args)
            return result

        return run_parts
    items = _native_items(buf)
    if items is None:
        return twin
    data, size = items
    entry = getattr(_native, name)
    if not size:
        return entry

    def run_records(_buf, *args):
        return entry(data, *args, size)

    return run_records


def kernel(buf):
    """The shuffle pass for this buffer, resolved once per public call.

    The pass is ``shuffle(buf, lo, hi, k, inverse, table)`` and returns
    the counts (rotate moves, walk moves, tail moves, blocks, cycles): the
    native ``shuffle`` entry, or its Python twin ``kway._pure_pass`` (see
    ``resolve``, which says what raises). kway is loaded with the package,
    and imports this module.
    """
    if type(buf) is list and _native is not None:
        # resolve's answer, without its call: a list is the common small
        # call, and the call and the lookup of the twin cost 0.2-0.4 us
        return _native.shuffle
    return resolve(buf, "shuffle", sys.modules[f"{__package__}.kway"]._pure_pass)


def _native_items(buf):
    # (data, itemsize) for the native entries, 0 for the buffer's own size,
    # or None for the Python loops; ValueError as resolve says
    np = sys.modules.get("numpy")
    ndarray = np is not None and isinstance(buf, np.ndarray)
    # loaded with the package; an import statement here takes microseconds
    records = sys.modules[f"{__package__}.shuffle"].RecordBuffer
    data, size = (buf.data, buf.record_size) if type(buf) is records else (buf, 0)
    # get_items cannot see an object field beside a datetime64 one
    if _native is not None and not (ndarray and buf.dtype.hasobject):
        try:
            _native.reverse(data, 0, 0, size)
        except (BufferError, TypeError, ValueError):
            pass
        else:
            return data, size
    if ndarray and (buf.ndim != 1 or buf.dtype.names):
        raise ValueError(f"the items of a {buf.ndim}-D array of {buf.dtype} are views into it")
    return None


def _masked_parts(buf):
    # A MaskedArray moves as its data and, unless it is nomask, its mask:
    # each a plain array on its own loops. Item by item, the Python loops
    # would read a masked item as np.ma.masked, and writing that back sets
    # the mask but leaves the data under it behind. None for any other
    # buffer.
    ma = sys.modules.get("numpy.ma")  # loaded before any MaskedArray exists
    if ma is None or not isinstance(buf, ma.MaskedArray):
        return None
    mask = ma.getmask(buf)
    if buf.hardmask and mask.any():
        raise ValueError("a hard mask keeps the masked items from moving")
    return [array for array in (buf.data, mask) if array is not ma.nomask]


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
