"""The environment a benchmark result was measured in.

Collected inside the driver process, after the timed call, so the BLAS
thread count is the one the driver actually ran with.  Everything is
best effort: a field that cannot be read is None.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(f"{index}/{f}") for f in ("level", "type", "size"))
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else (kind or '?')[0].lower()}"] = size
    return out


def _blas_threads() -> int | None:
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas() -> str | None:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout at ``root``, read without running git."""
    head = _read(str(root / ".git" / "HEAD"))
    if head is None:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(root / ".git" / ref))
    if direct:
        return direct
    for line in (_read(str(root / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None
