"""Tests for the traced benchmark run.

    python3 -m pytest perfbench/test_tracing.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_library()
import tracing  # noqa: E402
import workloads  # noqa: E402


def _all_bindings():
    """Every (owner, attribute, object) the tracer may replace."""
    out = []
    for _, owner, attr in tracing.TARGETS:
        original = getattr(owner, attr)
        if attr == "__init__":
            out.append((owner, attr, original))
        else:
            out.extend((mod, name, original) for mod, name in tracing._bindings(original))
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_restores_every_patched_name(name, monkeypatch, capsys):
    wl = workloads.WORKLOADS[name]
    # frames needs two rounds of its eight sizes to build both modes
    monkeypatch.setattr(type(wl), "SIZE", 16)
    before = _all_bindings()
    result = run.traced_run(wl, argparse.Namespace(seed=3, seconds=0.2))
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} still patched"
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["trace.spans"]["value"] > 0


def test_install_replaces_and_uninstall_restores_on_error():
    before = _all_bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            replaced = tracer.patched_names()
            assert len(replaced) >= len(tracing.TARGETS)
            assert all(getattr(o, a) is not orig for o, a, orig in replaced)
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert getattr(owner, attr) is original


def test_self_time_excludes_children():
    spans = [
        ("frames.extract_burling", 0.0, 10.0, -1, 0),
        ("frames.verify_strict", 1.0, 4.0, 0, 0),
        ("core.verify_axioms", 5.0, 7.0, 0, 0),
    ]
    by_name, busy, self_time = tracing.span_times(spans)
    assert busy["frames"] == 10.0  # the nested frames span is not added again
    assert self_time["frames"] == (10.0 - 3.0 - 2.0) + 3.0
    assert busy["core"] == self_time["core"] == 2.0
    assert by_name["frames.verify_strict"] == [3.0, 1]
