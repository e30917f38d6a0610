"""Machine and software facts recorded with every benchmark result.

Numbers from boxes with other CPUs, caches, BLAS builds, thread counts or
filesystems are not comparable; these facts travel with each result so
that they are never compared blindly.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy


def facts(root: Path, out_dir: Path) -> dict:
    """Collect the facts for a run whose checkout is ``root`` and whose
    per-op output directories live under ``out_dir``."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_force": _openblas_threads(),
        "out_dir_filesystem": _filesystem(out_dir),
        "git_commit": _git_commit(root),
    }


def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return None


def _caches() -> dict:
    """Size of each unified or data cache level of cpu0, e.g. ``{"L2": "2048K"}``."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") in ("Unified", "Data"):
            sizes[f"L{_read(index / 'level')}"] = _read(index / "size")
    return sizes


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None for another BLAS."""
    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1]
        if "openblas" in path.lower() and path.startswith("/"):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    return int(getter())
    return None


def _filesystem(path: Path) -> str | None:
    """Type of the filesystem holding ``path``, from the longest mount prefix."""
    path = str(path.resolve())
    best, kind = "", None
    for line in (_read("/proc/mounts") or "").splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, kind = mount, fields[2]
    return kind


def _git_commit(root: Path) -> str | None:
    """Commit of a git checkout at ``root``, read from ``.git`` directly;
    None when ``root`` is not a git checkout."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None
