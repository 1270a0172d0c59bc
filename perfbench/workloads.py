"""The benchmark's workloads: fixed item sets that drive the public pgspectra API.

An item is one unit of work.  Its ``run`` callable returns ``(output, ok)``:
``output`` is a JSON-able record of everything the item computed (digested
against ``reference.json`` after the timed region), and ``ok`` is False when
the library's own answer contradicts itself (a falsified closed form, a
JSON round trip that changed the table, two distance-quotient routes that
disagree).

Each workload puts most of its time in a different layer:

- ``catalog-sweep``: every catalogued case up to order 40, one ``verify``
  call per item.  Many small dense matrices; ``char_poly`` dominates and
  fixed per-call costs show.
- ``dense-spectrum-64``: seven single spectra at order 57-64 with 70-88 bit
  coefficients; ``char_poly`` asymptotics dominate.
- ``structure-512``: the structural pipeline at order 417-512 with no dense
  characteristic polynomial; BFS distance matrices dominate.  This is the
  bypass case for linear-algebra changes.

``size="tiny"`` gives the same pipelines on small groups, for smoke tests.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

WORKLOADS = ("catalog-sweep", "dense-spectrum-64", "structure-512")
SIZES = ("full", "tiny")

CATALOG_MAX_ORDER = {"full": 40, "tiny": 12}

# (name, group recipe, graph kind, matrix kind).  A recipe names a
# ``make_<family>`` constructor and its arguments, or a direct product.
DENSE_CASES = {
    "full": (
        ("Dic_64 epg distance", ("dicyclic", 16), "enhanced", "distance"),
        ("D_64 epg distance", ("dihedral", 32), "enhanced", "distance"),
        ("D_64 pg distance", ("dihedral", 32), "power", "distance"),
        (
            "El(7)xEl(3^2) pg adjacency",
            ("product", ("elementary_abelian", 7, 1), ("elementary_abelian", 3, 2)),
            "power",
            "adjacency",
        ),
        (
            "El(7)xEl(3^2) epg distance",
            ("product", ("elementary_abelian", 7, 1), ("elementary_abelian", 3, 2)),
            "enhanced",
            "distance",
        ),
        ("gpq(3,19) pg distance", ("gpq", 3, 19), "power", "distance"),
        (
            "El(2^2)xZ_15 epg distance",
            ("product", ("elementary_abelian", 2, 2), ("cyclic", 15)),
            "enhanced",
            "distance",
        ),
    ),
    "tiny": (
        ("Dic_16 epg distance", ("dicyclic", 4), "enhanced", "distance"),
        ("D_16 pg distance", ("dihedral", 8), "power", "distance"),
        (
            "El(5)xEl(2^2) pg adjacency",
            ("product", ("elementary_abelian", 5, 1), ("elementary_abelian", 2, 2)),
            "power",
            "adjacency",
        ),
        ("gpq(3,7) pg distance", ("gpq", 3, 7), "power", "distance"),
    ),
}

STRUCTURE_GROUPS = {
    "full": (
        ("D_512", ("dihedral", 256)),
        ("Dic_512", ("dicyclic", 128)),
        ("El(2^3)xZ_63", ("product", ("elementary_abelian", 2, 3), ("cyclic", 63))),
        ("gpq(3,139)", ("gpq", 3, 139)),
        (
            "El(2^4)xEl(3^3)",
            ("product", ("elementary_abelian", 2, 4), ("elementary_abelian", 3, 3)),
        ),
    ),
    "tiny": (
        ("D_32", ("dihedral", 16)),
        ("El(2^2)xZ_9", ("product", ("elementary_abelian", 2, 2), ("cyclic", 9))),
        ("gpq(3,13)", ("gpq", 3, 13)),
    ),
}

GRAPH_FUNCTIONS = {"power": "power_graph", "enhanced": "enhanced_power_graph"}


@dataclass(frozen=True)
class Item:
    key: str
    run: Callable[[], tuple[Any, bool]]


def digest(output: Any) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def make_items(pg: Any, workload: str, size: str, seed: int) -> list[Item]:
    """The workload's fixed item set, in an order permuted by ``seed``.

    ``pg`` is the imported ``pgspectra`` package.  Items look its functions
    up by attribute at call time, so a tracer that rebinds them sees every
    call.
    """
    if workload == "catalog-sweep":
        items = [
            Item(f"{c.theorem_id}{c.params}", partial(_catalog_item, pg, c))
            for c in pg.enumerate_cases(CATALOG_MAX_ORDER[size])
        ]
    elif workload == "dense-spectrum-64":
        items = [Item(name, partial(_dense_item, pg, *spec)) for name, *spec in DENSE_CASES[size]]
    elif workload == "structure-512":
        items = [
            Item(name, partial(_structure_item, pg, recipe))
            for name, recipe in STRUCTURE_GROUPS[size]
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(items)
    return items


def _build_group(pg: Any, recipe: tuple) -> Any:
    kind, *args = recipe
    if kind == "product":
        return pg.direct_product(_build_group(pg, args[0]), _build_group(pg, args[1]))
    return getattr(pg, f"make_{kind}")(*args)


def _coeffs(poly: Any) -> list[str]:
    return [str(c) for c in poly.coeffs]


def _catalog_item(pg: Any, case: Any) -> tuple[dict, bool]:
    report = pg.verify(case)
    output = {
        "order": report.group_order,
        "brute_force": _coeffs(report.brute_force),
        "equal": report.equal,
    }
    return output, report.equal is not False


def _dense_item(pg: Any, recipe: tuple, graph_kind: str, matrix_kind: str) -> tuple[dict, bool]:
    group = _build_group(pg, recipe)
    graph = getattr(pg, GRAPH_FUNCTIONS[graph_kind])(group)
    if matrix_kind == "distance":
        matrix = pg.distance_matrix(graph)
    else:
        matrix = pg.adjacency_matrix(graph)
    poly = pg.char_poly(matrix)
    closed = pg.theorems.closed_form_for(group.spec, graph_kind, matrix_kind)
    equal = None if closed is None else closed.expand() == poly
    return {"order": group.order, "char_poly": _coeffs(poly), "equal": equal}, equal is not False


def _structure_item(pg: Any, recipe: tuple) -> tuple[dict, bool]:
    group = _build_group(pg, recipe)
    back = pg.group_from_json(pg.group_to_json(group))
    ok = (back.table, back.labels) == (group.table, group.labels)
    output: dict[str, Any] = {"order": group.order, "table": back.table, "labels": back.labels}
    for kind, builder in GRAPH_FUNCTIONS.items():
        graph = getattr(pg, builder)(back)
        dm = pg.distance_matrix(graph)
        diam = max(dm.entries)
        part = pg.coarsest_equitable_partition(graph)
        quotient = pg.quotient_matrix(graph, part)
        dq = pg.distance_quotient_from_matrix(dm, part)
        if diam <= 2:
            # The two-step identity and the explicit block sums are independent routes.
            ok = ok and pg.distance_quotient_matrix(graph, part) == dq
        output[kind] = {
            "edges": graph.edge_count,
            "diameter": diam,
            "cells": part.cells,
            "quotient": quotient.entries,
            "distance_quotient": dq.entries,
            "quotient_char_poly": _coeffs(pg.char_poly(quotient)),
            "distance_quotient_char_poly": _coeffs(pg.char_poly(dq)),
        }
    return output, ok
