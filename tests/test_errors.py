"""Every named error in ``pgspectra.errors`` is raised by some code path.

The scan reads ``src/`` as syntax: a ``raise Name`` or ``raise Name(...)``
statement counts, wherever it sits.  An error class that nothing raises is
a documented failure that can no longer happen, and should go with its
export.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pgspectra"


def _named_errors() -> set[str]:
    """Subclasses of ``SpectraError`` defined in ``errors.py``, at any depth."""
    named = {"SpectraError"}
    for node in ast.parse((SRC / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in named for b in node.bases
        ):
            named.add(node.name)
    return named - {"SpectraError"}


def _raised_names() -> set[str]:
    raised = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return raised


def test_every_named_error_is_raised_somewhere_under_src():
    named = _named_errors()
    assert len(named) >= 10  # the scan found the classes
    assert sorted(named - _raised_names()) == []
