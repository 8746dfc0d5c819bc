"""Spans and counters recorded from outside faro, for the traced run.

faro's drivers look their helpers up as module globals at call time, so the
tracer can time each layer by swapping those names for wrappers while it is
installed, and putting the originals back when it is not:

* ``faro.shuffle.rotate_right`` and ``faro.kway.rotate_right``: the gather
  rotations of the two-way and k-way drivers (layer ``rotate``);
* ``faro.rotate.reverse_range``: the reversals inside a rotation;
* the shuffle functions and ``oracle_shuffle`` as bound in ``faro.cli``
  (layers ``shuffle``, ``kway`` and ``oracle`` under ``cli``).

The benchmark opens the outermost span itself, around its call into faro.
A span's moves are the ``Instrumentation.moves`` delta across it. The cli
passes no instrumentation to its shuffle call, so the wrapper supplies one.
A layer's self time is its span time minus that of its child spans.
"""

import time
from contextlib import contextmanager

import faro.cli
import faro.kway
import faro.rotate
import faro.shuffle
from faro.shuffle import Instrumentation

from perfbench.workloads import KWAY_ARITIES

# (module, name, layer, position of the instr argument, supply one if None)
TARGETS = (
    (faro.shuffle, "rotate_right", "rotate", 4, False),
    (faro.kway, "rotate_right", "rotate", 4, False),
    (faro.rotate, "reverse_range", "reverse", 3, False),
    (faro.cli, "in_shuffle", "shuffle", 1, True),
    (faro.cli, "un_shuffle", "shuffle", 1, True),
    (faro.cli, "out_shuffle", "shuffle", 1, True),
    (faro.cli, "un_out_shuffle", "shuffle", 1, True),
    (faro.cli, "k_shuffle", "kway", 2, True),
    (faro.cli, "k_unshuffle", "kway", 2, True),
    (faro.cli, "oracle_shuffle", "oracle", None, False),
)

DRIVERS = ("shuffle", "kway")


class Span:
    __slots__ = ("layer", "parent", "instr", "n", "k", "start", "end",
                 "child_ns", "moves", "aux")

    def __init__(self, layer, parent, instr, n, k):
        self.layer = layer
        self.parent = parent
        self.instr = instr
        self.n = n
        self.k = k
        self.child_ns = 0
        # the counter's value at entry until the span ends, then the delta
        self.moves = instr.moves if instr is not None else 0
        self.aux = 0

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Keeps every span in memory; metrics are derived when the run ends."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, layer, instr=None, n=0, k=0) -> Span:
        span = Span(layer, self._open[-1] if self._open else None, instr, n, k)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter_ns()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._open.pop()
        if span.parent is not None:
            span.parent.child_ns += span.ns
        if span.instr is not None:
            span.moves = span.instr.moves - span.moves
            span.aux = span.instr.aux_words_peak
            span.instr = None

    def _wrap(self, layer, fn, instr_at, supply):
        def traced(*args, **kwargs):
            if not self._open:
                # not under a call the benchmark traces, e.g. its own checks
                return fn(*args, **kwargs)
            instr = None
            if instr_at is not None:
                args = list(args)
                if instr_at < len(args):
                    instr = args[instr_at]
                else:
                    instr = kwargs.get("instr")
                if instr is None and supply:
                    instr = Instrumentation()
                    if instr_at < len(args):
                        args[instr_at] = instr
                    else:
                        kwargs["instr"] = instr
            if layer == "kway":
                n, k = len(args[0]), args[1]
            elif layer in ("shuffle", "oracle"):
                n, k = len(args[0]), 0
            else:
                n, k = 0, 0
            span = self.begin(layer, instr, n, k)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the block; the originals are always restored."""
        saved = []
        try:
            for module, name, layer, instr_at, supply in TARGETS:
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self._wrap(layer, original, instr_at, supply))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def layer_metrics(self) -> dict:
        """Per-layer counts and times over every span recorded."""
        by_layer = {}
        for span in self.spans:
            by_layer.setdefault(span.layer, []).append(span)
        rotates = by_layer.get("rotate", [])
        out = {}
        driver_moves = 0
        for layer, gathers in (("shuffle", "blocks"), ("kway", "gathers")):
            own = by_layer.get(layer, [])
            kids = [s for s in rotates if s.parent is not None and s.parent.layer == layer]
            ns = sum(s.ns for s in own)
            self_ns = ns - sum(s.child_ns for s in own)
            moves = sum(s.moves for s in own)
            walk_moves = moves - sum(s.moves for s in kids)
            driver_moves += moves
            out[f"{layer}.calls"] = len(own)
            out[f"{layer}.ns"] = ns
            out[f"{layer}.self_ns"] = self_ns
            out[f"{layer}.{gathers}"] = len(kids)
            out[f"{layer}.walk_moves"] = walk_moves
            out[f"{layer}.ns_per_walk_move"] = _ratio(self_ns, walk_moves)
            out[f"{layer}.aux_words_peak"] = max((s.aux for s in own), default=0)
        for k in KWAY_ARITIES:
            own = [s for s in by_layer.get("kway", []) if s.k == k]
            out[f"kway.moves_per_elem.k{k}"] = _ratio(sum(s.moves for s in own),
                                                      sum(s.n for s in own))
        rotate_ns = sum(s.ns for s in rotates)
        rotate_moves = sum(s.moves for s in rotates)
        out["rotate.calls"] = len(rotates)
        out["rotate.useful_ratio"] = _ratio(sum(s.moves > 0 for s in rotates), len(rotates))
        out["rotate.reverse_calls"] = len(by_layer.get("reverse", []))
        out["rotate.moves"] = rotate_moves
        out["rotate.move_share"] = _ratio(rotate_moves, driver_moves)
        out["rotate.ns"] = rotate_ns
        out["rotate.ns_per_move"] = _ratio(rotate_ns, rotate_moves)
        cli = by_layer.get("cli", [])
        cli_ns = sum(s.ns for s in cli)
        out["cli.calls"] = len(cli)
        out["cli.ns"] = cli_ns
        out["cli.self_ns"] = cli_ns - sum(s.child_ns for s in cli)
        out["cli.shuffle_ns"] = sum(s.ns for layer in DRIVERS for s in by_layer.get(layer, [])
                                    if s.parent is not None and s.parent.layer == "cli")
        oracle = by_layer.get("oracle", [])
        oracle_ns = sum(s.ns for s in oracle)
        out["oracle.calls"] = len(oracle)
        out["oracle.ns"] = oracle_ns
        out["oracle.ns_per_elem"] = _ratio(oracle_ns, sum(s.n for s in oracle))
        return out


def _ratio(a, b) -> float:
    """a / b, or 0.0 when the layer did no such work on this workload."""
    return a / b if b else 0.0


def self_time_ns(metrics: dict) -> int:
    """Sum of the layers' self times; the layers partition the traced calls."""
    return (metrics["shuffle.self_ns"] + metrics["kway.self_ns"] + metrics["rotate.ns"]
            + metrics["cli.self_ns"] + metrics["oracle.ns"])


def walk_and_rotate_moves(metrics: dict) -> int:
    return metrics["rotate.moves"] + metrics["shuffle.walk_moves"] + metrics["kway.walk_moves"]
