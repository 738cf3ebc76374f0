"""Machine fingerprint attached to every benchmark record.

The benchmark reads the BLAS thread variables but never sets them, so a
change that pins BLAS threads inside the program shows in the numbers.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Thread-count getters exported by the BLAS builds numpy ships with.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict[str, Any]:
    """BLAS vendor/version as numpy reports it, and its thread count."""
    import numpy as np

    info: dict[str, Any] = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = blas.get("name")
        info["version"] = blas.get("version")
    except (KeyError, TypeError, ValueError):
        info["vendor"] = None
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(
                {
                    line.split()[-1]
                    for line in fh
                    if ".so" in line
                    and ("blas" in line.lower() or "mkl" in line.lower())
                }
            )
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = int(getter())
                break
        if threads is not None:
            break
    info["threads"] = threads
    return info


def _commit(root: Path) -> str | None:
    """HEAD of the git repository rooted at ``root``, if there is one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != root.resolve():
        return None  # a repository enclosing the checkout, not this one
    return lines[1]


def fingerprint(root: Path) -> dict[str, Any]:
    """Cores, affinity, CPU, BLAS, versions and commit of this run."""
    import numpy as np
    import scipy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "blas": _blas(),
        "env": {name: os.environ.get(name) for name in BLAS_ENV},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(root),
    }
