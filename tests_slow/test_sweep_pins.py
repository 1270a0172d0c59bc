"""Pins of sweeps too long for the tier-1 suite.

Run with ``PYTHONPATH=src python -m pytest tests_slow``.  On one core of a
shared 2-vCPU host the order-256 sweep took 21–23 s and the order-512
sweep 130–163 s; ``-k 256`` runs the first alone.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from pgspectra.theorems import enumerate_cases, parallel_map, verify


@pytest.mark.parametrize(
    "max_order, count, digest, informational",
    [
        (256, 1713, "fa840deac05049da4d4bf3b0f0cee8a5a119ad75e62ab9f574045f1ef580a8bf", 57),
        (512, 3337, "f3fd1686489690e5ff999ce09688eb4dd76aa3978b8f760f2f259d376079ebf8", 120),
    ],
    ids=["256", "512"],
)
def test_sweep_reports_are_pinned(max_order, count, digest, informational):
    # Every field of every report except the timing, hashed as
    # tests/test_theorems.py::_sweep_digest does for orders 40 and 64.
    reports = parallel_map(verify, enumerate_cases(max_order), 1)
    objs = [report.to_json_obj() for report in reports]
    for obj in objs:
        del obj["elapsed_ms"]
    text = "\n".join(json.dumps(obj, sort_keys=True) for obj in objs)
    assert (len(objs), hashlib.sha256(text.encode()).hexdigest()) == (count, digest)
    assert sum(r.equal is False for r in reports) == 0
    assert sum(r.equal is None for r in reports) == informational
