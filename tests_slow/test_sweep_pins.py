"""Pins of sweeps too long for the tier-1 suite.

Run with ``PYTHONPATH=src python -m pytest tests_slow``; the order-256 sweep
takes about 20 s on one core.
"""

from __future__ import annotations

import hashlib
import json

from pgspectra.theorems import enumerate_cases, parallel_map, verify


def test_order_256_sweep_reports_are_pinned():
    # Every field of every report up to order 256 except the timing, hashed
    # as tests/test_theorems.py::_sweep_digest does for orders 40 and 64.
    reports = parallel_map(verify, enumerate_cases(256), 1)
    objs = [report.to_json_obj() for report in reports]
    for obj in objs:
        del obj["elapsed_ms"]
    text = "\n".join(json.dumps(obj, sort_keys=True) for obj in objs)
    assert (len(objs), hashlib.sha256(text.encode()).hexdigest()) == (
        1713,
        "fa840deac05049da4d4bf3b0f0cee8a5a119ad75e62ab9f574045f1ef580a8bf",
    )
    assert sum(r.equal is False for r in reports) == 0
    assert sum(r.equal is None for r in reports) == 57
