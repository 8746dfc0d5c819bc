"""The public surface, pinned: a change to it, or a README table that names
what a module no longer has, fails here."""

import importlib
import re
from pathlib import Path

import faro
from faro import _fastpath

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


def _has(owner, names):
    # whether owner.name1.name2... exists
    for name in names:
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return True


def test_module_qualified_names_exist():
    # Every name written as module.name of a faro module, with or without
    # "faro.", in the package's sources and README: the module's attribute,
    # or for module.py and _kernel.c, its file. Without the kernel, a
    # _kernel name must at least be spelt as a string in _kernel.c.
    package = Path(faro.__file__).parent
    kernel = (package / "_kernel.c").read_text()
    modules = sorted({path.stem for path in package.glob("*.py")} - {"__init__"} | {"_kernel"})
    pattern = re.compile(r"(?<![\w.])(?:faro\.)?(%s)((?:\.\w+)+)" % "|".join(modules))
    missing = []
    for path in [*sorted(package.glob("*.py")), package / "_kernel.c", README]:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for module_name, dotted in pattern.findall(line):
                names = dotted[1:].split(".")
                if names[0] in ("py", "c"):
                    found = (package / f"{module_name}.{names[0]}").exists()
                elif module_name == "_kernel" and _fastpath._native is None:
                    found = f'"{names[0]}"' in kernel or f'.{names[0]}"' in kernel
                elif module_name == "_kernel":
                    found = _has(_fastpath._native, names)
                else:
                    found = _has(importlib.import_module(f"faro.{module_name}"), names)
                if not found:
                    missing.append(f"{path.name}:{number} {module_name}{dotted}")
    assert not missing


def test_the_names_perfbench_swaps_still_resolve(monkeypatch):
    # perfbench times its layers by swapping these module globals for
    # wrappers while it traces; a name deleted here would crash that run
    monkeypatch.syspath_prepend(str(README.parent))
    spans = importlib.import_module("perfbench.spans")
    missing = [(module.__name__, name) for module, name, *_ in spans.TARGETS if not hasattr(module, name)]
    assert spans.TARGETS
    assert not missing
