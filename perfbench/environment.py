"""What every benchmark output records about the machine and the program."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

import numpy as np

_BLAS_PREFIXES = ("scipy_openblas_", "openblas_")
_BLAS_SUFFIXES = ("64_", "")


def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS library numpy loaded, found through this process's maps."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_call(lib: ctypes.CDLL | None, name: str, restype):
    if lib is None:
        return None
    for prefix in _BLAS_PREFIXES:
        for suffix in _BLAS_SUFFIXES:
            fn = getattr(lib, f"{prefix}{name}{suffix}", None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                return fn()
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def memory_kb() -> dict[str, int]:
    """Peak and current memory of this process from /proc/self/status, in kB."""
    out = {}
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key in ("VmHWM", "VmRSS", "RssAnon", "RssFile"):
                    out[key] = int(value.split()[0])
    except OSError:
        pass
    return out


def describe(root: Path, thread_vars) -> dict:
    lib = _openblas()
    config = _blas_call(lib, "get_config", ctypes.c_char_p)
    return {
        "thread_vars": {var: os.environ.get(var) for var in thread_vars},
        "blas_threads": _blas_call(lib, "get_num_threads", ctypes.c_int),
        "openblas": config.decode() if config else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
    }
