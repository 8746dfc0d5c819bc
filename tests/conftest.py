"""Shared test helpers."""


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
