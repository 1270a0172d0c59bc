"""Every pgspectra name the benchmark under ``perfbench/`` looks up resolves.

The benchmark reaches the package by attribute: ``spans.SPANS`` names the
traced functions per submodule, ``workloads`` builds groups through
``make_<family>`` and graphs through ``GRAPH_FUNCTIONS``, and the harness
calls ``pg.<name>`` throughout.  A rename in ``src/`` would otherwise break
only the benchmark, which the test suite does not run.  The benchmark files
are loaded read-only, without running a workload.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from functools import reduce
from pathlib import Path

import pytest

import pgspectra

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def resolves(path: str) -> bool:
    try:
        reduce(getattr, path.split("."), pgspectra)
    except AttributeError:
        return False
    return True


def pg_attribute_paths(source: str) -> set[str]:
    """Dotted attribute chains on the name ``pg``, such as ``theorems.closed_form_for``."""
    paths = set()
    for node in ast.walk(ast.parse(source)):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "pg":
            paths.add(".".join(reversed(parts)))
    return paths


def recipe_paths(recipe: tuple) -> set[str]:
    kind, *args = recipe
    if kind == "product":
        return {"direct_product"} | recipe_paths(args[0]) | recipe_paths(args[1])
    return {f"make_{kind}"}


def benchmark_paths() -> set[str]:
    spans, workloads = load("spans"), load("workloads")
    paths = {f"{module}.{name}" for module, names in spans.SPANS.values() for name in names}
    paths |= set(workloads.GRAPH_FUNCTIONS.values())
    for cases in workloads.DENSE_CASES.values():
        for _name, recipe, _graph, _matrix in cases:
            paths |= recipe_paths(recipe)
    for groups in workloads.STRUCTURE_GROUPS.values():
        for _name, recipe in groups:
            paths |= recipe_paths(recipe)
    for path in PERFBENCH.rglob("*.py"):
        paths |= pg_attribute_paths(path.read_text())
    return paths


BENCHMARK_PATHS = sorted(benchmark_paths())


@pytest.mark.parametrize("path", BENCHMARK_PATHS)
def test_benchmark_name_resolves(path):
    assert resolves(path), f"pgspectra.{path} is gone but perfbench still uses it"


def test_the_scan_sees_every_kind_of_lookup():
    # one name from each source: a span, a recipe, a graph function, a direct pg.<name>
    assert {
        "linalg.char_poly",
        "make_dicyclic",
        "enhanced_power_graph",
        "theorems.closed_form_for",
    } <= set(BENCHMARK_PATHS)
    assert not resolves("no_such_function")
