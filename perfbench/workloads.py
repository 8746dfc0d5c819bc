"""Workloads: seeded call schedules, the calls into faro, and their checks.

Every workload is a closed loop in one process: the next call starts only
after the previous one has finished and been checked, so one call is in
flight at a time and no threads are used. ``faro apply`` runs as one child
process per call, started and reaped before the next.

A schedule is an endless sequence of rounds. Each round draws one length
from every slice of the workload's length range (equal slices on a log
scale, jittered inside the slice) and spreads the kinds evenly over them.
A run measures a fixed number of whole rounds, so it makes the same mix of
calls whatever the seed and however fast the machine is.

Outputs are checked outside the timed region: lists and record files
against ``faro.oracle.oracle_shuffle``, ndarrays against a numpy gather from
the closed form ``k*i mod (n+1)``, itself checked against the oracle once
per run.
"""

import os
import random
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import faro
import faro.cli
from faro.oracle import oracle_shuffle

WORKLOADS = ("array-2way", "list-kway", "file-apply")

# (kind, inverse) pairs of the two-way family, in faro apply's spelling
TWO_WAY = (("in", False), ("in", True), ("out", False), ("out", True))
TWO_WAY_FUNCS = {
    ("in", False): "in_shuffle",
    ("in", True): "un_shuffle",
    ("out", False): "out_shuffle",
    ("out", True): "un_out_shuffle",
}

ARRAY_LENGTHS = (1 << 16, 1 << 19)
ARRAY_SLICES = 14
# one block each, so the gather rotation moves nothing
ARRAY_EXACT_FITS = (3**11 - 1, 3**12 - 1)

KWAY_ARITIES = (3, 4, 5, 6, 7, 8)
KWAY_LENGTHS = (1 << 10, 1 << 16)
KWAY_SLICES = 16

RECORD_SIZE = 64
FILE_BYTES = (2 << 20, 16 << 20)
FILE_SLICES = 7


@dataclass(frozen=True)
class Call:
    """One call into faro: a kind as ``faro apply --kind`` spells it."""

    kind: str
    inverse: bool
    n: int

    @property
    def shuffle_kind(self):
        return faro.cli.parse_kind(self.kind)

    @property
    def arity(self) -> int:
        return self.shuffle_kind.k


@dataclass
class Sample:
    """Outcome of one call: ``ran`` is no exception and exit status 0."""

    call: Call
    ns: int
    moves: int
    ran: bool
    ok: bool
    rss_kb: int = 0
    probe_ns: float = 0.0
    speed: float = 1.0  # nominal probe time / probe time around this call

    @property
    def scaled_ns(self) -> float:
        """Wall ns rescaled to the nominal machine speed."""
        return self.ns * self.speed


def _median_ns(work, reps: int = 3) -> int:
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        work()
        times.append(time.perf_counter_ns() - start)
    return sorted(times)[reps // 2]


def swap_probe(buf) -> int:
    """Median wall ns of a fixed loop of element swaps in `buf` and modular steps."""

    def work():
        for _ in range(4):
            i, j = 0, len(buf) - 1
            while i < j:
                buf[i], buf[j] = buf[j], buf[i]
                i += 1
                j -= 1
            k = 1
            for _ in range(512):
                k = k * 2 % 2187

    return _median_ns(work)


def record_probe() -> int:
    """Median wall ns of cutting a fresh 2 MiB buffer into records and scattering them."""

    def work():
        data = bytearray(2 << 20)
        records = [data[i : i + RECORD_SIZE] for i in range(0, len(data), RECORD_SIZE)]
        placed = [None] * len(records)
        for i in range(len(records)):
            placed[2 * i % (len(records) - 1)] = records[i]

    return _median_ns(work)


def _log_slice(rng, lo, hi, index, slices):
    """A draw from slice `index` of `slices` equal slices of [lo, hi] on a log scale."""
    return lo * (hi / lo) ** ((index + rng.random()) / slices)


def _even(x) -> int:
    return int(x) // 2 * 2


def _array_rounds(rng):
    while True:
        calls = []
        sizes = [(_even(_log_slice(rng, *ARRAY_LENGTHS, s, ARRAY_SLICES)), False)
                 for s in range(ARRAY_SLICES)]
        sizes += [(n, True) for n in ARRAY_EXACT_FITS]
        kinds = list(TWO_WAY) * (len(sizes) // len(TWO_WAY))
        rng.shuffle(sizes)
        rng.shuffle(kinds)
        for (n, exact), (kind, inverse) in zip(sizes, kinds):
            # an out-shuffle permutes the n - 2 interior elements
            calls.append(Call(kind, inverse, n + 2 if exact and kind == "out" else n))
        yield calls


def _kway_rounds(rng):
    while True:
        calls = []
        for k in KWAY_ARITIES:
            # every slice once per arity, half of them forward and half inverse
            for i, s in enumerate(rng.sample(range(KWAY_SLICES), KWAY_SLICES)):
                n = int(_log_slice(rng, *KWAY_LENGTHS, s, KWAY_SLICES))
                calls.append(Call(f"k:{k}", i % 2 == 1, n - n % k))
        rng.shuffle(calls)
        yield calls


def _file_rounds(rng):
    while True:
        sizes = [_log_slice(rng, *FILE_BYTES, s, FILE_SLICES) for s in range(FILE_SLICES)]
        sizes.append(FILE_BYTES[1])
        kinds = list(TWO_WAY) * (len(sizes) // len(TWO_WAY))
        rng.shuffle(sizes)
        rng.shuffle(kinds)
        yield [Call(kind, inverse, _even(size // RECORD_SIZE))
               for size, (kind, inverse) in zip(sizes, kinds)]


_ROUNDS = {"array-2way": _array_rounds, "list-kway": _kway_rounds, "file-apply": _file_rounds}


def schedule(workload: str, seed: int):
    """Endless sequence of rounds of calls; the same seed gives the same calls."""
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}"))


def apply_call(buf, call: Call, instr=None) -> None:
    """Run `call` on `buf` through faro's public functions."""
    if call.kind.startswith("k:"):
        (faro.k_unshuffle if call.inverse else faro.k_shuffle)(buf, call.arity, instr)
    else:
        getattr(faro, TWO_WAY_FUNCS[call.kind, call.inverse])(buf, instr)


def replay_moves(call: Call) -> int:
    """Moves faro makes for `call`: the count depends only on kind and length."""
    instr = faro.Instrumentation()
    apply_call(list(range(call.n)), call, instr)
    return instr.moves


def oracle_matches(call: Call, original: list, result: list) -> bool:
    """Forward: result is the oracle's shuffle of the original; inverse: vice versa."""
    if call.inverse:
        return oracle_shuffle(result, call.shuffle_kind) == original
    return oracle_shuffle(original, call.shuffle_kind) == result


def closed_form(call: Call, original: np.ndarray) -> np.ndarray:
    """Expected ndarray output, gathered from the target map k*i mod (m+1)."""
    n = len(original)
    lo, hi = (1, n - 1) if call.kind == "out" else (0, n)
    m = hi - lo
    # 0-based slot where the element at 1-based local position i lands
    target = call.arity * np.arange(1, m + 1, dtype=np.int64) % (m + 1) - 1
    expected = original.copy()
    if call.inverse:
        expected[lo:hi] = original[lo:hi][target]
    else:
        expected[lo + target] = original[lo:hi]
    return expected


def _timed(thunk, tracer, layer, instr=None, n=0, k=0):
    """Wall ns of thunk(), in a span of `layer` when traced, and whether it returned.

    A raise is reported on stderr and counted by the caller, not lost.
    """
    start = time.perf_counter_ns()
    span = tracer.begin(layer, instr, n, k) if tracer is not None else None
    try:
        thunk()
    except Exception:
        traceback.print_exc()
        returned = False
    else:
        returned = True
    finally:
        if span is not None:
            tracer.end(span)
    return time.perf_counter_ns() - start, returned


class Workload:
    """A buffer type and the calls made on it.

    Subclasses set the probe buffer (or `probe` itself) and the probe's
    nominal time, the interpreter set-up code, and `execute`, which times
    one call and checks its output.

    `probe` is a speed probe: a fixed piece of the workload's kind of work
    that shares no code with faro, so it gauges how fast this machine does
    such work at the moment. On a shared host that speed drifts by well over
    a third within a minute, while faro's time relative to the probe varies
    far less; timing each call between two probes removes most of the drift
    from the reported times.
    """

    itemsize = 8
    setup_code = ""
    probe_nominal_ns = 0
    # wall seconds of one round, checks included, at the nominal probe time
    round_seconds = 1.0

    def probe(self) -> int:
        return swap_probe(self.probe_buf)

    def setup_argv(self) -> list:
        """Fresh-interpreter command that imports faro and makes one tiny call of each kind."""
        return [sys.executable, "-c", self.setup_code]

    def reference_selfcheck(self) -> bool:
        return True


class ArrayWorkload(Workload):
    """int64 ndarrays through the two-way functions."""

    setup_code = (
        "import numpy as np\n"
        "import faro\n"
        "for f in (faro.in_shuffle, faro.un_shuffle, faro.out_shuffle, faro.un_out_shuffle):\n"
        "    f(np.arange(8, dtype=np.int64))\n"
    )
    # about the probe's median time on the shared 2-core machine this was tuned on
    probe_nominal_ns = 900_000
    round_seconds = 2.5

    def __init__(self, seed: int):
        self.probe_buf = np.arange(1024, dtype=np.int64)
        longest = max(ARRAY_LENGTHS[1], *ARRAY_EXACT_FITS) + 2
        self.payload = np.random.default_rng(seed).permutation(longest).astype(np.int64)

    def execute(self, call: Call, tracer=None) -> Sample:
        original = self.payload[: call.n].copy()
        buf = original.copy()
        instr = faro.Instrumentation()
        ns, ran = _timed(lambda: apply_call(buf, call, instr), tracer, "shuffle", instr, call.n)
        ok = ran and np.array_equal(buf, closed_form(call, original))
        return Sample(call, ns, instr.moves, ran, ok)

    def reference_selfcheck(self) -> bool:
        """The numpy closed form agrees with the oracle on every two-way kind."""
        original = self.payload[:1000].copy()
        return all(
            oracle_matches(call, original.tolist(), closed_form(call, original).tolist())
            for call in (Call(kind, inverse, 1000) for kind, inverse in TWO_WAY)
        )


class ListWorkload(Workload):
    """Python lists through k_shuffle / k_unshuffle at several arities."""

    setup_code = (
        "import faro\n"
        f"for k in {KWAY_ARITIES!r}:\n"
        "    faro.k_shuffle(list(range(6 * k)), k)\n"
        "    faro.k_unshuffle(list(range(6 * k)), k)\n"
    )
    # one pointer per slot; the int objects themselves are not moved
    itemsize = 8
    probe_nominal_ns = 300_000
    round_seconds = 2.25

    def __init__(self, seed: int):
        self.probe_buf = list(range(1024))
        self.payload = random.Random(seed).sample(range(1 << 62), KWAY_LENGTHS[1])

    def execute(self, call: Call, tracer=None) -> Sample:
        original = self.payload[: call.n]
        buf = list(original)
        instr = faro.Instrumentation()
        ns, ran = _timed(lambda: apply_call(buf, call, instr), tracer, "kway", instr,
                         call.n, call.arity)
        ok = ran and oracle_matches(call, original, buf)
        return Sample(call, ns, instr.moves, ran, ok)


def _records(data: bytes) -> list:
    return [data[i : i + RECORD_SIZE] for i in range(0, len(data), RECORD_SIZE)]


def child_env(src: Path) -> dict:
    """Environment for a child interpreter that imports faro from `src`."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))


# Runs the command given as its arguments and prints the command's wall ns,
# exit code and peak RSS. Linux carries the peak RSS of the process that
# spawns a child into the child's ru_maxrss, so each command is spawned from
# this small, fresh interpreter rather than from the benchmark process.
_LAUNCHER = (
    "import os, subprocess, sys, time\n"
    "start = time.perf_counter_ns()\n"
    "proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "ns = time.perf_counter_ns() - start\n"
    "print(ns, os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def run_child(argv, env, cwd):
    """Run argv to completion; (wall ns, exit code, peak RSS in KiB of that process)."""
    launcher = subprocess.Popen([sys.executable, "-c", _LAUNCHER, *argv], env=env, cwd=cwd,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                start_new_session=True)
    try:
        out, _ = launcher.communicate()
    except BaseException:
        os.killpg(launcher.pid, signal.SIGKILL)
        launcher.wait()
        raise
    ns, code, rss_kb = map(int, out.split())
    return ns, code, rss_kb


class FileWorkload(Workload):
    """``faro apply --verify --record-size 64`` on seeded record files.

    Each call writes a fresh file into `workdir`, runs one ``faro apply``
    child on it (or ``faro.cli.main`` in this process when `in_process`),
    checks the result against the kept original and deletes the file.
    """

    itemsize = RECORD_SIZE
    probe_nominal_ns = 12_000_000
    round_seconds = 8.0

    def __init__(self, seed: int, workdir: Path, src: Path, in_process: bool = False):
        self.payload = random.Random(seed).randbytes(FILE_BYTES[1])
        self.workdir = workdir
        self.env = child_env(src)
        self.in_process = in_process

    def probe(self) -> int:
        # the apply children mostly allocate, slice and place records
        return record_probe()

    def argv(self, call: Call, path: Path) -> list:
        return ["apply", "--kind", call.kind, *(["--inverse"] if call.inverse else []),
                "--verify", "--record-size", str(RECORD_SIZE), str(path)]

    def setup_argv(self) -> list:
        path = self.workdir / "setup.bin"
        path.write_bytes(self.payload[: 2 * RECORD_SIZE])
        return [sys.executable, "-m", "faro.cli", *self.argv(Call("in", False, 2), path)]

    def execute(self, call: Call, tracer=None) -> Sample:
        original = self.payload[: call.n * RECORD_SIZE]
        path = self.workdir / "records.bin"
        path.write_bytes(original)
        try:
            rss_kb = 0
            if self.in_process:
                status = []
                ns, ran = _timed(lambda: status.append(faro.cli.main(self.argv(call, path))),
                                 tracer, "cli", n=call.n)
                ran = ran and status == [faro.cli.EXIT_OK]
            else:
                argv = [sys.executable, "-m", "faro.cli", *self.argv(call, path)]
                ns, code, rss_kb = run_child(argv, self.env, self.workdir)
                ran = code == faro.cli.EXIT_OK
            ok = ran and oracle_matches(call, _records(original), _records(path.read_bytes()))
        finally:
            path.unlink()
        return Sample(call, ns, replay_moves(call) if ran else 0, ran, ok, rss_kb)


def make(workload: str, seed: int, workdir: Path, src: Path, in_process: bool = False):
    if workload == "array-2way":
        return ArrayWorkload(seed)
    if workload == "list-kway":
        return ListWorkload(seed)
    return FileWorkload(seed, workdir, src, in_process)


def measure_setup(workload, src: Path, cwd: Path, repeats: int):
    """Rescaled wall seconds of `repeats` fresh set-ups, and how many exited nonzero."""
    argv, env = workload.setup_argv(), child_env(src)
    seconds, failed = [], 0
    for _ in range(repeats):
        before = workload.probe()
        ns, code, _ = run_child(argv, env, cwd)
        probe = (before + workload.probe()) / 2
        seconds.append(ns * workload.probe_nominal_ns / probe / 1e9)
        failed += code != 0
    return seconds, failed


def measure(workload, rounds, seconds: float, tracer=None) -> list:
    """Run the whole rounds that take about `seconds` at the nominal speed.

    The count depends only on `seconds`, never on how fast the machine runs
    at the moment, so every run of a workload makes the same calls; a slow
    phase stretches the run instead. Each call sits between two speed
    probes, outside its timed region.
    """
    samples = []
    for _ in range(max(1, round(seconds / workload.round_seconds))):
        for call in next(rounds):
            before = workload.probe()
            sample = workload.execute(call, tracer)
            sample.probe_ns = (before + workload.probe()) / 2
            sample.speed = workload.probe_nominal_ns / sample.probe_ns
            samples.append(sample)
    return samples
