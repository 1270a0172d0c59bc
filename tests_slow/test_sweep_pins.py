"""Pins of sweeps too long for the tier-1 suite.

Run with ``python -m pytest tests_slow``.  On one core of a shared 2-vCPU
host the order-256 sweep took 13.2 s, the order-512 sweep 104 s and the
order-1024 sweep 844 s; ``-k 256`` runs the first alone.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from pgspectra.theorems import enumerate_cases, parallel_map, verify


@pytest.mark.parametrize(
    "max_order, count, digest, informational",
    [
        (256, 1713, "fa840deac05049da4d4bf3b0f0cee8a5a119ad75e62ab9f574045f1ef580a8bf", 57),
        (512, 3337, "f3fd1686489690e5ff999ce09688eb4dd76aa3978b8f760f2f259d376079ebf8", 120),
        (1024, 6426, "acc673923425ad7473eeeb53fbdf0d85754f4709ccc5255282e41cdb1ada9f65", 247),
    ],
    ids=["256", "512", "1024"],
)
def test_sweep_reports_are_pinned(max_order, count, digest, informational):
    # Every field of every report except the timing, hashed as
    # tests/test_theorems.py::_sweep_digest does for orders 40 and 64, but one
    # report at a time: the sweep is read once and no report is kept.
    sha, equal = hashlib.sha256(), Counter()
    for i, report in enumerate(parallel_map(verify, enumerate_cases(max_order), 1)):
        obj = report.to_json_obj()
        del obj["elapsed_ms"]
        if i:  # the separator of "\n".join, before every line but the first
            sha.update(b"\n")
        sha.update(json.dumps(obj, sort_keys=True).encode())
        equal[report.equal] += 1
    assert (equal.total(), sha.hexdigest()) == (count, digest)
    assert equal[False] == 0
    assert equal[None] == informational
