"""The environment recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from pathlib import Path

import numpy as np

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _git_rev(root: Path) -> str:
    """HEAD commit read from the files under .git; a plain checkout has none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_stats(root: Path) -> tuple[int, str]:
    """Line count and a sha256 of the Python sources under src/."""
    lines = 0
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
    return lines, digest.hexdigest()[:16]


def environment(root: Path, threads_requested: int) -> dict:
    src_lines, src_sha = source_stats(root)
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _blas_library(),
        "blas_threads_requested": threads_requested,
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_rev": _git_rev(root),
        "src_lines": src_lines,
        "src_sha256": src_sha,
    }
