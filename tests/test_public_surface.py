"""The public surface, pinned: a change to it, or a README table that names
what a module no longer has, fails here."""

import importlib
import re
from pathlib import Path

import faro

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_pinned():
    assert set(faro.__all__) == {
        "CycleDecomposition",
        "IN_SHUFFLE",
        "Instrumentation",
        "OUT_SHUFFLE",
        "RecordBuffer",
        "ShuffleKind",
        "cycle_decomposition",
        "euler_totient",
        "in_shuffle",
        "in_target",
        "is_primitive_root",
        "k_shuffle",
        "k_target",
        "k_unshuffle",
        "kway_kind",
        "multiplicative_order",
        "oracle_interleave",
        "oracle_shuffle",
        "out_shuffle",
        "out_target",
        "permutation_order",
        "un_out_shuffle",
        "un_shuffle",
    }
    assert all(hasattr(faro, name) for name in faro.__all__)


def test_readme_module_table_names_only_what_exists():
    section = README.read_text().split("## What's in the box", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(faro\.\w+)` +\|(.*)\|$", section, re.MULTILINE)
    assert len(rows) == 6
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        names = re.findall(r"`([^`]+)`", contents)
        assert names, module_name
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module_name, missing)


def test_the_names_perfbench_swaps_still_resolve(monkeypatch):
    # perfbench times its layers by swapping these module globals for
    # wrappers while it traces; a name deleted here would crash that run
    monkeypatch.syspath_prepend(str(README.parent))
    spans = importlib.import_module("perfbench.spans")
    missing = [(module.__name__, name) for module, name, *_ in spans.TARGETS if not hasattr(module, name)]
    assert spans.TARGETS
    assert not missing
