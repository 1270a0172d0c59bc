"""Equitable partitions, coarsest refinement, and quotient matrices.

A partition of a graph's vertex set is equitable when every vertex of cell i
has the same number of neighbors in cell j, for all i, j.  The quotient
matrix collects those counts; for graphs of diameter at most two the
distance-quotient matrix follows from it by the two-step distance identity

    T^D[i][i] = 2*|V_i| - 2 - T[i][i],      T^D[i][j] = 2*|V_j| - T[i][j].

The refinement and the adjacency quotient count neighbors by one rule: the
cell with the most incident edge ends is taken off each neighbor set as one
set difference, and only the neighbors left over are counted one at a time.
The refinement's last pass counts the quotient of the partition it returns,
so :func:`quotient_matrix` of that very graph object reads it back uncounted.
The explicit distance quotient likewise gets its largest cell's sum as the
whole row's sum less the other cells'.

Nothing here knows about groups: the partitions named after group families
are cells of join forms, built in :mod:`pgspectra.theorems`.
"""

from __future__ import annotations

import weakref
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
    # (weak reference to a graph, its quotient), set by the refinement; not a
    # field, so ==, hash and repr see the cells alone
    _counted = None

    def __post_init__(self) -> None:
        if type(self.cells) is not tuple or any(type(cell) is not tuple for cell in self.cells):
            raise NotAPartition("cells must be a tuple of tuples; Partition.of converts sequences")
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

    def __getstate__(self) -> dict:
        return {"cells": self.cells}  # a weak reference cannot be pickled

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


def _cell_counts(graph: Graph, p: Partition) -> Callable[[int], tuple[int, ...]]:
    """Each vertex's neighbor count in every cell of ``p``, as a :func:`_split` signature.

    The heaviest cell (most incident edge ends, the first on a tie) is taken
    off each neighbor set as one set difference; only the neighbors left over
    are counted one at a time.  With one cell that count is the degree, read
    without visiting a neighbor.
    """
    nbrs, k = graph.neighbors, p.cell_count
    idx = p.cell_index(len(nbrs))
    ends = [0] * k
    for i, near in zip(idx, nbrs):
        ends[i] += len(near)
    h = ends.index(max(ends)) if k else 0
    heaviest = frozenset(p.cells[h]) if k else frozenset()

    def counts(v: int) -> tuple[int, ...]:
        near = nbrs[v]
        rest = near - heaviest
        row = [0] * k
        row[h] = len(near) - len(rest)
        for w in rest:
            row[idx[w]] += 1
        return tuple(row)

    return counts


def quotient_matrix(graph: Graph, p: Partition) -> IntMatrix:
    """Adjacency quotient: entry (i, j) counts cell-j neighbors of a cell-i vertex.

    A partition from :func:`coarsest_equitable_partition` hands back the
    quotient its refinement counted when ``graph`` is the graph it refined.
    """
    counted = p._counted
    if counted is not None and counted[0]() is graph:
        return counted[1]
    return _equitable_quotient(p, _cell_counts(graph, p))


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
    sizes = p.sizes()
    big = sizes.index(max(sizes)) if sizes else 0
    # itemgetter of a one-vertex cell gives that entry, of a larger cell a tuple
    getters = [itemgetter(*cell) for i, cell in enumerate(p.cells) if i != big]

    def cell_sums(v: int) -> tuple[int, ...]:
        row = dm.row(v)
        sums = [s if type(s) is int else sum(s) for s in (get(row) for get in getters)]
        # the largest cell's sum is what the other cells leave of the whole row's
        sums.insert(big, sum(row) - sum(sums))
        return tuple(sums)

    return _equitable_quotient(p, cell_sums)


def coarsest_equitable_partition(graph: Graph) -> Partition:
    """Iterated neighbor-count refinement from the one-cell partition.

    Each pass splits every cell by its vertices' per-cell neighbor counts
    (groups in lexicographic count order, vertices ascending) until no cell
    splits.  The final cell list is sorted by minimum vertex.  The first pass
    reads only degrees: its one cell is the heaviest, taken off as a set.

    The last pass's counts are the quotient; the partition keeps it, rows and
    columns in the sorted cell order, for :func:`quotient_matrix` of ``graph``.
    It holds ``graph`` by a weak reference, so it never keeps ``graph`` alive.
    """
    n = graph.vertex_count
    p = Partition((tuple(range(n)),) if n else ())
    while True:
        split = _split(p.cells, _cell_counts(graph, p))
        if len(split) == p.cell_count:
            break
        p = Partition(tuple(tuple(group) for _, group in split))
    order = sorted(range(p.cell_count), key=p.cells.__getitem__)
    done = Partition(tuple(p.cells[i] for i in order))
    quotient = IntMatrix.from_rows([[split[i][0][j] for j in order] for i in order])
    object.__setattr__(done, "_counted", (weakref.ref(graph), quotient))
    return done
