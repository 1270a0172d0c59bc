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

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

from .errors import DiameterExceedsTwo, NotAPartition, NotEquitable, NotSquare
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


# ---------------------------------------------------------------------------
# Equitability and quotients
# ---------------------------------------------------------------------------


def _split(cells: Sequence[Sequence[int]], signature: Callable) -> list[tuple]:
    """Each cell's vertices grouped by ``signature``, as ``(signature, vertices)`` pairs.

    A cell's groups come in sorted signature order, and each group keeps its
    vertices ascending; cells stay in order.
    """
    out: list[tuple] = []
    for cell in cells:
        groups: dict = {}
        for v in cell:
            groups.setdefault(signature(v), []).append(v)
        out.extend(sorted(groups.items()))
    return out


def _equitable_quotient(p: Partition, signature: Callable) -> IntMatrix:
    """The matrix of the cells' common signatures; :class:`NotEquitable` if a cell splits."""
    split = _split(p.cells, signature)
    for i, (cell, (_, group)) in enumerate(zip(p.cells, split)):
        if len(group) < len(cell):
            other = split[i + 1][1][0]
            raise NotEquitable(f"vertices {group[0]} and {other} disagree within a cell")
    return IntMatrix.from_rows([sig for sig, _ in split])


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
    return _equitable_quotient(p, lambda v: _cell_counts(graph, idx, v, p.cell_count))


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
    if dm.rows != dm.cols:
        raise NotSquare(f"need a square matrix, got {dm.rows}x{dm.cols}")
    p.cell_index(dm.rows)  # the cells must cover 0..n-1
    # itemgetter of a one-vertex cell gives that entry, of a larger cell a tuple
    getters = [itemgetter(*cell) for cell in p.cells]

    def cell_sums(v: int) -> tuple[int, ...]:
        row = dm.row(v)
        return tuple(s if type(s) is int else sum(s) for s in (get(row) for get in getters))

    return _equitable_quotient(p, cell_sums)


def coarsest_equitable_partition(graph: Graph) -> Partition:
    """Iterated neighbor-count refinement from the one-cell partition.

    Each pass splits every cell by its vertices' per-cell neighbor counts
    (groups in lexicographic count order, vertices ascending) until no cell
    splits.  The final cell list is sorted by minimum vertex.
    """
    n = graph.vertex_count
    p = Partition((tuple(range(n)),) if n else ())
    while True:
        idx = p.cell_index(n)
        split = _split(p.cells, lambda v: _cell_counts(graph, idx, v, p.cell_count))
        if len(split) == p.cell_count:
            return Partition(tuple(sorted(p.cells)))
        p = Partition(tuple(tuple(group) for _, group in split))
