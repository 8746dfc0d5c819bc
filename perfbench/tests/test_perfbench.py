"""Self-tests of the benchmark: schedules, checks, tracing and accounting.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import faro
import faro.cli
from perfbench import run, spans, workloads
from perfbench.workloads import Call

ROOT = Path(__file__).resolve().parents[2]

SMALL_CALLS = [
    *(Call(kind, inverse, n) for kind, inverse in workloads.TWO_WAY for n in (2, 242, 1000)),
    *(Call(f"k:{k}", inverse, k * m)
      for k in workloads.KWAY_ARITIES for inverse in (False, True) for m in (1, 97, 400)),
]


def first(workload, seed, count=60):
    calls = itertools.chain.from_iterable(workloads.schedule(workload, seed))
    return list(itertools.islice(calls, count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_calls(workload):
    assert first(workload, 7) == first(workload, 7)
    assert first(workload, 7) != first(workload, 8)


def test_schedules_stay_in_their_ranges():
    for call in first("array-2way", 1, 160):
        assert call.n % 2 == 0
        assert workloads.ARRAY_LENGTHS[0] <= call.n <= workloads.ARRAY_EXACT_FITS[-1] + 2
    interiors = [c.n - 2 if c.kind == "out" else c.n for c in first("array-2way", 1, 16)]
    assert set(workloads.ARRAY_EXACT_FITS) <= set(interiors)
    kway = first("list-kway", 1, 96)
    assert {c.arity for c in kway} == set(workloads.KWAY_ARITIES)
    for call in kway:
        assert call.n % call.arity == 0 and 0 < call.n <= workloads.KWAY_LENGTHS[1]
    files = first("file-apply", 1, 8)
    assert max(c.n for c in files) * workloads.RECORD_SIZE == workloads.FILE_BYTES[1]
    assert all(c.n % 2 == 0 for c in files)


def test_tail_leaves_ten_samples_above():
    value, percentile = run.tail(range(100))
    assert value == 89 and percentile == 90.0
    assert run.tail([3, 1, 2]) == (3, 100.0)


@pytest.mark.parametrize("call", [c for c in SMALL_CALLS if not c.kind.startswith("k:")], ids=str)
def test_closed_form_matches_oracle(call):
    original = np.arange(call.n, dtype=np.int64) * 7 + 1
    assert workloads.oracle_matches(call, original.tolist(),
                                    workloads.closed_form(call, original).tolist())


def test_array_reference_selfcheck():
    assert workloads.ArrayWorkload(1).reference_selfcheck()


def traced_apply(call, values):
    tracer = spans.Tracer()
    buf, instr = list(values), faro.Instrumentation()
    layer = "kway" if call.kind.startswith("k:") else "shuffle"
    with tracer.installed():
        span = tracer.begin(layer, instr, call.n, call.arity)
        workloads.apply_call(buf, call, instr)
        tracer.end(span)
    return tracer, buf, instr


@pytest.mark.parametrize("call", SMALL_CALLS, ids=str)
def test_traced_equals_untraced(call):
    values = list(range(100, 100 + call.n))
    plain, instr = list(values), faro.Instrumentation()
    workloads.apply_call(plain, call, instr)
    tracer, traced, traced_instr = traced_apply(call, values)
    assert traced == plain
    assert (traced_instr.moves, traced_instr.aux_words_peak) == (instr.moves, instr.aux_words_peak)


@pytest.mark.parametrize("call", SMALL_CALLS, ids=str)
def test_layer_moves_add_up(call):
    tracer, _, instr = traced_apply(call, range(call.n))
    metrics = tracer.layer_metrics()
    assert spans.walk_and_rotate_moves(metrics) == instr.moves
    reversals = [s for s in tracer.spans if s.layer == "reverse"]
    assert metrics["rotate.moves"] == sum(s.moves for s in reversals)
    if call == Call("in", False, call.n):
        # each block 3^k - 1 is walked once: its size plus one hold per cycle
        plan = faro.plan_blocks(call.n).blocks
        assert metrics["shuffle.walk_moves"] == sum(b.size + b.k for b in plan)
        assert metrics["shuffle.blocks"] == len(plan)


def test_wrappers_restored():
    originals = [getattr(module, name) for module, name, *_ in spans.TARGETS]
    tracer = spans.Tracer()
    with pytest.raises(KeyError):
        with tracer.installed():
            assert faro.shuffle.rotate_right is not originals[0]
            raise KeyError("leave the block early")
    assert [getattr(module, name) for module, name, *_ in spans.TARGETS] == originals


def test_file_apply_in_process_trace_accounts_for_moves(tmp_path):
    wl = workloads.FileWorkload(3, tmp_path, ROOT / "src", in_process=True)
    tracer = spans.Tracer()
    calls = [Call("in", False, 2000), Call("out", True, 1202)]
    with tracer.installed():
        samples = [wl.execute(call, tracer) for call in calls]
    assert all(s.ok for s in samples)
    metrics = tracer.layer_metrics()
    assert metrics["cli.calls"] == metrics["shuffle.calls"] == metrics["oracle.calls"] == 2
    assert spans.walk_and_rotate_moves(metrics) == sum(s.moves for s in samples)
    assert spans.self_time_ns(metrics) == metrics["cli.ns"]
    assert list(tmp_path.iterdir()) == []


def test_file_apply_child_failure_counts(tmp_path):
    wl = workloads.FileWorkload(3, tmp_path, ROOT / "src")
    # an odd record count is refused by faro apply with a nonzero exit
    sample = wl.execute(Call("in", False, 3))
    assert not sample.ran and not sample.ok and sample.rss_kb > 0


def corrupting(fn):
    def corrupt(buf, *args):
        fn(buf, *args)
        buf[0], buf[-1] = buf[-1], buf[0]
    return corrupt


def test_corrupt_output_is_counted(monkeypatch, capsys):
    monkeypatch.setattr(faro, "in_shuffle", corrupting(faro.in_shuffle))
    monkeypatch.setattr(faro, "un_out_shuffle", corrupting(faro.un_out_shuffle))
    assert run.main(["--workload", "array-2way", "--seed", "1", "--seconds", "1"]) == 0
    *_, details, result = capsys.readouterr().out.splitlines()
    result = json.loads(result)
    assert result["failed"] > 0 and not result["correct"]
    assert json.loads(details)["perfbench"]["failed_ratio"] > 0
    assert not list(ROOT.glob(".perfbench-*"))


def test_corrupt_list_is_counted(monkeypatch):
    monkeypatch.setattr(faro, "k_shuffle", corrupting(faro.k_shuffle))
    wl = workloads.ListWorkload(1)
    assert not wl.execute(Call("k:5", False, 500)).ok
    assert wl.execute(Call("k:5", True, 500)).ok


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "list-kway",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


def test_benchmark_json_matches_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    tracer, *_ = traced_apply(Call("k:7", False, 700), range(700))
    names = set(tracer.layer_metrics()) | {"cli.bytes_in", "cli.bytes_out",
                                           "trace.overhead_ratio", "trace.accounted_ratio"}
    assert names == per_layer
