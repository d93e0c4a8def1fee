"""Exact-trace goldens: the simulator must fire the same events in the same order.

``tests/data/trace_digest.json`` was captured with
``tests/data/capture_trace_digest.py`` from the kernel that used a
dataclass-ordered event heap.  Each scenario pins a SHA-256 over every message
and computation record (floats as ``float.hex()``) and the simulated end time,
plus the fired/scheduled/cancelled event counts.  There is no tolerance: a
kernel rewrite passes only if every timestamp of every record is bit-identical.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "trace_digest.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location(
    "capture_trace_digest", DATA / "capture_trace_digest.py"
)
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)


def test_golden_covers_every_scenario():
    assert [(r["spec"], r["network"]) for r in GOLDEN] == [
        (s["spec"], s["network"]) for s in capture.SCENARIOS
    ]


@pytest.mark.parametrize("record", GOLDEN, ids=[capture.scenario_id(r) for r in GOLDEN])
def test_trace_digest_is_exact(record):
    got = capture.trace_digest(record)
    want = {key: record[key] for key in got}
    assert got == want
