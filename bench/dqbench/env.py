"""The environment a result was measured in."""

from __future__ import annotations

import os
import platform
from pathlib import Path

# Set to 1 before numpy is imported, so BLAS and OpenMP run one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _size_bytes(text: str) -> int:
    text = text.strip()
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def cache_sizes() -> dict[str, int]:
    """Unified and data cache sizes of CPU 0 in bytes, keyed ``L1d``, ``L2``..."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        sizes[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return sizes


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }
