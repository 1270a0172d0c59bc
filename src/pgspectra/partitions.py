"""Equitable partitions, coarsest refinement, and quotient matrices.

A partition of a graph's vertex set is equitable when every vertex of cell i
has the same number of neighbors in cell j, for all i, j.  The quotient
matrix collects those counts; for graphs of diameter at most two the
distance-quotient matrix follows from it by the two-step distance identity

    T^D[i][i] = 2*|V_i| - 2 - T[i][i],      T^D[i][j] = 2*|V_j| - T[i][j].

Nothing here knows about groups: the partitions named after group families
are cells of join forms, built in :mod:`pgspectra.theorems`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .errors import DiameterExceedsTwo, NotAPartition, NotEquitable
from .graphs import Graph, diameter
from .linalg import IntMatrix


@dataclass(frozen=True)
class Partition:
    """Ordered cells of ``0..n-1``; each cell is ascending and nonempty."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for cell in self.cells:
            if not cell:
                raise NotAPartition("empty cell")
            if any(type(v) is not int for v in cell):
                raise NotAPartition(f"cell {cell} holds a non-integer vertex")
            if list(cell) != sorted(set(cell)):
                raise NotAPartition(f"cell {cell} is not strictly ascending")
            if seen.intersection(cell):
                raise NotAPartition("cells overlap")
            seen.update(cell)

    @staticmethod
    def of(cells: Sequence[Sequence[int]]) -> Partition:
        return Partition(tuple(tuple(cell) for cell in cells))

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)

    def flatten(self) -> tuple[int, ...]:
        """Cells concatenated in order; the natural join-block bijection."""
        return tuple(v for cell in self.cells for v in cell)

    def cell_index(self, n: int) -> list[int]:
        """Vertex -> cell number lookup; raises unless cells cover 0..n-1."""
        idx = [-1] * n
        count = 0
        for ci, cell in enumerate(self.cells):
            for v in cell:
                if not 0 <= v < n:
                    raise NotAPartition(f"vertex {v} outside 0..{n - 1}")
                idx[v] = ci
                count += 1
        if count != n:
            raise NotAPartition(f"cells cover {count} of {n} vertices")
        return idx


def partition_to_json_obj(p: Partition) -> dict:
    return {"cells": [list(cell) for cell in p.cells]}


def partition_from_json(text: str) -> Partition:
    """The partition :func:`partition_to_json_obj` wrote; :class:`NotAPartition` otherwise."""
    try:
        cells = [list(cell) for cell in json.loads(text)["cells"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise NotAPartition(f"not a serialized partition: {exc!r}") from None
    return Partition.of(cells)


# ---------------------------------------------------------------------------
# Equitability and quotients
# ---------------------------------------------------------------------------


def _cell_counts(graph: Graph, idx: list[int], v: int, ncells: int) -> tuple[int, ...]:
    counts = [0] * ncells
    for w in graph.neighbors[v]:
        counts[idx[w]] += 1
    return tuple(counts)


def is_equitable(graph: Graph, p: Partition) -> bool:
    """True when all vertices of a cell agree on per-cell neighbor counts."""
    try:
        quotient_matrix(graph, p)
    except NotEquitable:
        return False
    return True


def quotient_matrix(graph: Graph, p: Partition) -> IntMatrix:
    """Adjacency quotient: entry (i, j) counts cell-j neighbors of a cell-i vertex."""
    idx = p.cell_index(graph.vertex_count)
    rows = []
    for cell in p.cells:
        first = _cell_counts(graph, idx, cell[0], p.cell_count)
        for v in cell[1:]:
            if _cell_counts(graph, idx, v, p.cell_count) != first:
                raise NotEquitable(f"vertices {cell[0]} and {v} disagree within a cell")
        rows.append(list(first))
    return IntMatrix.from_rows(rows)


def distance_quotient_matrix(graph: Graph, p: Partition) -> IntMatrix:
    """Distance quotient via the two-step identity; diameter must be <= 2.

    The result always equals the block row sums of the explicit distance
    matrix (the cross-check the test suite performs), but is computed without
    building that matrix.
    """
    d = diameter(graph)
    if d > 2:
        raise DiameterExceedsTwo(f"graph has diameter {d}")
    t = quotient_matrix(graph, p)
    sizes = p.sizes()
    rows = t.to_rows()
    out = []
    for i, row in enumerate(rows):
        new = [2 * sizes[j] - row[j] for j in range(len(row))]
        new[i] = 2 * sizes[i] - 2 - row[i]
        out.append(new)
    return IntMatrix.from_rows(out)


def distance_quotient_from_matrix(dm: IntMatrix, p: Partition) -> IntMatrix:
    """Block row sums of an explicit distance matrix (independent route).

    Raises :class:`NotEquitable` when rows within a cell disagree, i.e. the
    partition is not equitable for the distance structure.
    """
    idx = p.cell_index(dm.rows)
    ncells = p.cell_count
    out = []
    for cell in p.cells:
        first: list[int] | None = None
        for v in cell:
            sums = [0] * ncells
            row = dm.row(v)
            for w, dval in enumerate(row):
                sums[idx[w]] += dval
            if first is None:
                first = sums
            elif sums != first:
                raise NotEquitable("distance row sums disagree within a cell")
        assert first is not None
        out.append(first)
    return IntMatrix.from_rows(out)


def coarsest_equitable_partition(graph: Graph) -> Partition:
    """Iterated neighbor-count refinement from the one-cell partition.

    Vertices are split by their tuple of per-cell neighbor counts (compared
    lexicographically); splitting is stable by vertex index.  The final cell
    list is sorted by minimum vertex.
    """
    n = graph.vertex_count
    if n == 0:
        return Partition(())
    cells: list[list[int]] = [list(range(n))]
    while True:
        idx = [0] * n
        for ci, cell in enumerate(cells):
            for v in cell:
                idx[v] = ci
        ncells = len(cells)
        new_cells: list[list[int]] = []
        for cell in cells:
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:  # cell is ascending, so grouping stays stable
                groups.setdefault(_cell_counts(graph, idx, v, ncells), []).append(v)
            for sig in sorted(groups):
                new_cells.append(groups[sig])
        if len(new_cells) == len(cells):
            break
        cells = new_cells
    cells.sort(key=lambda c: c[0])
    return Partition.of(cells)
