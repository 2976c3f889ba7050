"""Shared fixtures."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import burling


def _run_child(code: str) -> tuple[list, float]:
    """(words, seconds): what a child Python process running code prints,
    split into words, and the wall time of the whole process.  The child
    imports this checkout's burling.  Budget tests run their work there, so
    that the peak resident size it reports (KiB on Linux) is that run's
    alone."""
    src = str(Path(burling.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        check=True,
    )
    return out.stdout.split(), time.perf_counter() - start


@pytest.fixture
def run_child():
    """_run_child, for budget tests; skipped where the resource module that
    reports the child's peak size is missing."""
    pytest.importorskip("resource")
    return _run_child
