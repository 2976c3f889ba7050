"""Shared fixtures."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import burling


# Defines peak_kib() in every child.  On Linux a started process's
# ru_maxrss keeps the peak of the process that started it, here the test
# run's own, so the child reads its VmHWM, which starts afresh at exec.
_PEAK_KIB = """
def peak_kib():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""


def _run_child(code: str) -> tuple[list, float]:
    """(words, seconds): what a child Python process running code prints,
    split into words, and the wall time of the whole process.  The child
    imports this checkout's burling, and code may call peak_kib(), the
    child's peak resident size in KiB.  Budget tests run their work there,
    so that the peak is that run's alone."""
    src = str(Path(burling.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_KIB + code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        check=True,
    )
    return out.stdout.split(), time.perf_counter() - start


@pytest.fixture
def run_child():
    """_run_child, for budget tests; skipped where the resource module,
    which peak_kib() falls back on, is missing."""
    pytest.importorskip("resource")
    return _run_child
