"""Environment stamp and BLAS thread pinning.

``pin_blas_threads`` must run before numpy is first imported: OpenBLAS reads
its thread variables once, when the library loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# symbols that report the effective OpenBLAS thread count, by build flavour
_THREAD_QUERIES = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)

PINNED_BLAS_THREADS = 1


def pin_blas_threads() -> dict:
    """Replace inherited BLAS thread variables by one thread; return what was replaced.

    The CLI runs trials on one thread by default; a BLAS thread pool on top
    of it would compete for the host's few cores, and the benchmark would
    time the scheduler rather than the program.
    """
    inherited = {name: os.environ[name] for name in BLAS_THREAD_VARS if name in os.environ}
    os.environ.update({name: str(PINNED_BLAS_THREADS) for name in BLAS_THREAD_VARS})
    return inherited


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy  # noqa: F401  (loads the BLAS whose setting is queried)

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None, "note": "not a git checkout"}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError) as err:
        return {"commit": None, "dirty": None, "note": f"git failed: {err}"}
    return {"commit": commit, "dirty": bool(status.strip())}


def environment_stamp(root: Path, seed: int, inherited: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "blas_env_pinned": PINNED_BLAS_THREADS,
        "blas_env_inherited": inherited,   # variable -> the inherited value that was replaced
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git": _git(root),
        "seed": seed,
    }
