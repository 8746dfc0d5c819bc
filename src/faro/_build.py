"""The build of the native kernel, which ``_fastpath._load`` imports only when no cached module fits.

A process that finds the module a build left cached, as every ``faro
apply`` child after the first does, neither compiles this module nor
imports ``subprocess`` or ``sysconfig``.
"""

import os
import subprocess
import sysconfig
from importlib.machinery import EXTENSION_SUFFIXES


def build(cc, source, target):
    """Compile the C `source` by the command `cc` into the extension module `target`.

    OSError if the interpreter's ``Python.h`` is missing or the build fails;
    nothing is left behind then. A build removes every other module built
    into `target`'s directory before it.
    """
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        raise OSError(f"no Python.h in {include}")
    cache = os.path.dirname(target)
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
