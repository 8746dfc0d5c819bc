import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from faro import _fastpath
from faro.kway import k_shuffle
from faro.oracle import oracle_shuffle
from faro.permcore import IN_SHUFFLE, kway_kind
from faro.shuffle import RecordBuffer, in_shuffle

needs_kernel = pytest.mark.skipif(not _fastpath.HAVE_COMPILED, reason=str(_fastpath.BUILD_ERROR))


@needs_kernel
def test_mulmod_matches_python_near_2_63():
    # the walk's step for moduli whose cycles could never be allocated
    rng = random.Random(50)
    moduli = [2**63 - 1, 2**62, 2**62 + 1, 2**62 - 1, 3**39, 2**32 + 15, 2**32 - 5]
    moduli += [rng.randrange(2**61, 2**63) for _ in range(20)]
    for m in moduli:
        pairs = [(m - 1, m - 1), (m - 1, 2), (2, m - 1), (0, m - 1), (1, 1)]
        pairs += [(rng.randrange(m), rng.randrange(m)) for _ in range(200)]
        for a, b in pairs:
            assert _fastpath._lib.faro_mulmod(a, b, m) == a * b % m, (a, b, m)


def test_read_only_ndarray_raises_and_stays_unmodified():
    for length in (8, 10, 242, 1000):
        buf = np.arange(length, dtype=np.int64)
        buf.flags.writeable = False
        with pytest.raises(ValueError):
            in_shuffle(buf)
        assert buf.tolist() == list(range(length))


def test_strided_view_matches_oracle_through_fallback():
    for length in (10, 242, 1000):
        backing = np.arange(2 * length, dtype=np.int64)
        view = backing[::2]
        in_shuffle(view)
        assert view.tolist() == oracle_shuffle(list(range(0, 2 * length, 2)), IN_SHUFFLE)
        assert backing[1::2].tolist() == list(range(1, 2 * length, 2))

        backing = np.arange(3 * length, dtype=np.int64)
        k_shuffle(backing[::-1], 3)
        assert backing[::-1].tolist() == oracle_shuffle(
            list(range(3 * length - 1, -1, -1)), kway_kind(3)
        )


@needs_kernel
@pytest.mark.parametrize(
    "buf",
    [np.arange(26, dtype=np.int64), RecordBuffer(bytearray(range(78)), 3)],
    ids=["ndarray", "records"],
)
def test_native_walk_refuses_to_leave_the_buffer(buf):
    before = buf.tobytes()
    walk = _fastpath.walk_fn(buf)
    with pytest.raises(IndexError):
        walk(buf, 0, 1, 2, 27)  # last slot would be 26, one past the end
    with pytest.raises(IndexError):
        walk(buf, -2, 1, 2, 27)
    with pytest.raises(ValueError):
        walk(buf, -1, 0, 2, 27)  # leader 0 is fixed, not a cycle
    with pytest.raises(ValueError):
        walk(buf, -1, 1, 3, 27)  # 3 is no unit mod 27: the orbit never closes
    assert buf.tobytes() == before
    walk(buf, -1, 1, 2, 27)
    assert buf.tobytes() != before


@needs_kernel
def test_first_import_builds_one_cached_kernel(tmp_path):
    package = tmp_path / "faro"
    shutil.copytree(
        Path(_fastpath.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
    )
    cache = package / "__pycache__"
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    probe = "import faro._fastpath as f; print(f.__file__, f.HAVE_COMPILED, f.BUILD_ERROR)"
    expected = f"{package / '_fastpath.py'} True None"

    def start():
        return subprocess.Popen(
            [sys.executable, "-B", "-c", probe],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    racers = [start(), start()]
    for proc in racers:
        out, err = proc.communicate(timeout=120)
        assert out.strip() == expected, err
    built = sorted(cache.glob("_kernel-*.so"))
    assert len(built) == 1
    assert not list(cache.glob("*.tmp"))

    source = package / "_kernel.c"
    text = source.read_bytes()
    source.write_bytes(text.replace(b"Native", b"native", 1))
    out, err = start().communicate(timeout=120)
    assert out.strip() == expected, err
    rebuilt = set(cache.glob("_kernel-*.so")) - set(built)
    assert len(rebuilt) == 1
    assert not list(cache.glob("*.tmp"))
