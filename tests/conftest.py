"""Shared test helpers."""

from collections import Counter
from contextlib import contextmanager

import pytest

from faro import _fastpath


class CountingList(list):
    """List that tallies element reads and writes, for move-count audits."""

    def __init__(self, iterable=()):
        super().__init__(iterable)
        self.gets = 0
        self.sets = 0

    def __getitem__(self, i):
        self.gets += 1
        return super().__getitem__(i)

    def __setitem__(self, i, value):
        self.sets += 1
        super().__setitem__(i, value)


def conjoined_moves(w, d):
    """The moves of a rotation of w items right by d by conjoined triple reversal.

    None at d = 0 or w; two per item of either side when the sides are
    equal; else, with s and g the shorter and the longer side,
    s // 2 + 3 * (g // 2) + 2 * ((s + g % 2) // 2), about 1.5 w.
    """
    s, g = min(d, w - d), max(d, w - d)
    if s == 0 or s == g:
        return 2 * s
    return s // 2 + 3 * (g // 2) + 2 * ((s + g % 2) // 2)


def rungs(table):
    """The rungs of a ``kway._table``, largest first, as (modulus, p, j, reps)."""
    rows = zip(*[iter(table.tolist())] * 12)
    return [(m, p, j, tuple(rest[:d])) for m, p, j, d, *rest in rows]


class Ran(Counter):
    """What the calls inside ``spy()`` ran, counted by name (see ``spy``)."""

    def __init__(self):
        super().__init__()
        self.returned = []


@contextmanager
def spy():
    """Count which loops the calls made inside this block ran.

    Yields a ``Ran``, counting "resolve" per call of ``_fastpath.resolve``,
    which a pass skips for an exact list while the kernel is loaded;
    "shuffle" and "reverse" per call that reaches that native entry, bound
    by ``resolve`` or taken straight from the kernel, and "refused" per
    such call it refuses; "twin" per call of a Python twin that ``resolve``
    handed out. Its ``returned`` lists what each counted entry and twin
    returned, in order.
    """
    ran, native, resolve = Ran(), _fastpath._native, _fastpath.resolve

    def counted(name, run):
        def call(*args):
            ran[name] += 1
            try:
                ran.returned.append(run(*args))
            except getattr(native, "Refused", ()):
                ran["refused"] += 1
                raise
            return ran.returned[-1]

        call.counted = True
        return call

    class Kernel:
        # the kernel, with each call of shuffle and reverse counted
        def __getattr__(self, name):
            entry = getattr(native, name)
            return counted(name, entry) if name in ("shuffle", "reverse") else entry

    def resolving(buf, name, twin):
        ran["resolve"] += 1
        return resolve(buf, name, twin if hasattr(twin, "counted") else counted("twin", twin))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_fastpath, "resolve", resolving)
        if native is not None:
            m.setattr(_fastpath, "_native", Kernel())
        yield ran
