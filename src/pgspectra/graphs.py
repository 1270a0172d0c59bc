"""Power graphs, enhanced power graphs, graph blow-ups, and exact distance matrices.

Graphs are simple and undirected, on vertices ``0..n-1``, stored as a tuple
of neighbor sets.  Distance matrices are exact integer matrices.  When some
vertex is universal (adjacent to all others, as the identity is in the power
and enhanced power graphs) every distance is 0, 1 or 2, so D = 2(J - I) - A
is read off the neighbor sets; other graphs fall back to breadth-first search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, pairwise, product
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DisconnectedGraph, HypothesisViolated, SizeMismatch
from .groups import FiniteGroup, element_subgroups, maximal_cyclic_subgroups
from .linalg import IntMatrix


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex ``v`` of ``0..n-1`` has neighbor set ``neighbors[v]``."""

    neighbors: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        """:class:`SizeMismatch` unless each neighbor is another int vertex listing this one."""
        nbrs, n = self.neighbors, len(self.neighbors)
        # one pass in C: a bool would pass the loop below as the vertex 0 or 1
        if not set(map(type, chain.from_iterable(nbrs))) <= {int}:
            raise SizeMismatch("a neighbor is not an int vertex")
        for v, s in enumerate(nbrs):
            if v in s:
                raise SizeMismatch(f"vertex {v} is its own neighbor")
            for w in s:
                if not 0 <= w < n or v not in nbrs[w]:
                    raise SizeMismatch(f"vertex {v} lists {w}, which is not a vertex listing {v}")

    @property
    def vertex_count(self) -> int:
        return len(self.neighbors)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        adj: list[set[int]] = [set() for _ in range(_vertex_count(n))]
        for u, v in edges:
            if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
                raise SizeMismatch(f"edge ({u!r},{v!r}) is not two int vertices in 0..{n - 1}")
            adj[u].add(v)
            adj[v].add(u)
        return _without_loops(adj)  # simple graph: loops are ignored

    def _vertex(self, v: int) -> int:
        """``v``, once it is an int in ``0..n-1``; else an ``IndexError`` naming it."""
        if type(v) is not int or not 0 <= v < len(self.neighbors):
            raise IndexError(f"no vertex {v!r} in a graph on {len(self.neighbors)} vertices")
        return v

    def has_edge(self, u: int, v: int) -> bool:
        return self._vertex(v) in self.neighbors[self._vertex(u)]

    def degree(self, u: int) -> int:
        return len(self.neighbors[self._vertex(u)])

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with ``u < v``, sorted."""
        return [(u, v) for u in range(self.vertex_count) for v in sorted(self.neighbors[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.neighbors) // 2

    def is_complete(self) -> bool:
        return all(len(s) == self.vertex_count - 1 for s in self.neighbors)


def _vertex_count(n: int) -> int:
    if type(n) is not int or n < 0:
        raise SizeMismatch(f"a vertex count must be an int >= 0, got {n!r}")
    return n


def complete_graph(n: int) -> Graph:
    full = frozenset(range(_vertex_count(n)))
    return Graph(tuple(full - {v} for v in range(n)))


def empty_graph(n: int) -> Graph:
    return Graph((frozenset(),) * _vertex_count(n))


@dataclass(frozen=True)
class JoinSpec:
    """A graph blow-up: replace vertex ``i`` of ``outer`` by the part ``parts[i]``.

    A part ``(m, s)`` is m disjoint cliques of s vertices: a complete part is
    ``(1, s)``, an edgeless part ``(m, 1)``.  Two parts are joined completely
    whenever their outer vertices are adjacent.
    """

    outer: Graph
    parts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.outer, Graph):
            raise SizeMismatch(f"a join's outer graph must be a Graph, got {self.outer!r}")
        for part in self.parts:
            # type() refuses a bool, a float and a Graph alike
            if type(part) is not tuple or len(part) != 2 or not all(
                type(k) is int and k >= 1 for k in part
            ):
                raise SizeMismatch(f"a join's part must be a pair (m, s) of ints >= 1, got {part!r}")
        if len(self.parts) != self.outer.vertex_count:
            raise SizeMismatch(
                f"outer graph has {self.outer.vertex_count} vertices "
                f"but {len(self.parts)} parts were given"
            )


# ---------------------------------------------------------------------------
# Graphs from groups
# ---------------------------------------------------------------------------


def _without_loops(adj: list) -> Graph:
    """The graph whose neighbor sets are ``adj``, each vertex dropped from its own.

    Each set is frozen in place, so it is freed as its frozen copy is made.
    """
    for v, s in enumerate(adj):
        s.discard(v)
        adj[v] = frozenset(s)
    return Graph(tuple(adj))


def _power_sets(g: FiniteGroup) -> list[set[int]]:
    """Each element's set of powers and of elements it is a power of, itself included.

    Each element ``x`` starts from its cyclic subgroup ``<x>`` and is added
    to the set of every element of it.
    """
    subs = element_subgroups(g)
    adj = [set(sub) for sub in subs]
    for x, sub in enumerate(subs):
        for y in sub:
            adj[y].add(x)
    return adj


def power_graph(g: FiniteGroup) -> Graph:
    """Distinct elements are adjacent when one is a power of the other."""
    return _without_loops(_power_sets(g))


def enhanced_power_graph(g: FiniteGroup) -> Graph:
    """Distinct elements are adjacent when some cyclic subgroup contains both.

    Two elements share a cyclic subgroup exactly when they share a maximal
    one, so the neighbor set of ``v`` is the union of the maximal cyclic
    subgroups containing ``v``, less ``v``, and is frozen as it is made.  The
    elements of a subgroup share one mutable set of it: ``v`` is taken out
    for the copy and put back.  The elementwise three-way membership scan is
    kept as an independent test oracle, not used here.
    """
    adj: list = [[] for _ in range(g.order)]
    for sub in maximal_cyclic_subgroups(g):
        shared = set(sub)
        for u in sub:
            adj[u].append(shared)
    for v, subs in enumerate(adj):
        s = subs[0] if len(subs) == 1 else subs[0].union(*subs[1:])
        s.discard(v)
        adj[v] = frozenset(s)
        s.add(v)
    return Graph(tuple(adj))


def proper_power_graph(g: FiniteGroup) -> Graph:
    """Power graph with the identity (element 0) removed; vertex ``v - 1`` is element ``v``.

    Each set drops the identity and its own element, and is shifted and frozen in place.
    """
    adj = _power_sets(g)
    del adj[0]
    for v, s in enumerate(adj):
        s.discard(0)
        s.discard(v + 1)
        adj[v] = frozenset([w - 1 for w in s])
    return Graph(tuple(adj))


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def graph_join(spec: JoinSpec) -> Graph:
    """Expand a :class:`JoinSpec` into a concrete graph.

    Part ``i`` occupies a contiguous index range, in part order, and each
    of its m cliques s consecutive indices of that range.
    """
    starts = list(accumulate((m * s for m, s in spec.parts), initial=0))
    blocks = [range(a, b) for a, b in pairwise(starts)]
    cliques = (range(c, c + s) for (_m, s), block in zip(spec.parts, blocks) for c in block[::s])
    inner = chain.from_iterable(combinations(clique, 2) for clique in cliques)
    crossing = chain.from_iterable(product(blocks[i], blocks[j]) for i, j in spec.outer.edges())
    return Graph.from_edges(starts[-1], chain(inner, crossing))


def verify_join_form(graph: Graph, spec: JoinSpec, bijection: Sequence[int]) -> bool:
    """Check a claimed join structure as a labeled equality of edge sets.

    ``bijection[j]`` names the vertex of ``graph`` that join vertex ``j``
    corresponds to.  Returns True only when the expanded join and ``graph``
    have exactly the same edges under that relabeling.
    """
    joined = graph_join(spec)
    if joined.vertex_count != graph.vertex_count:
        raise SizeMismatch(
            f"join has {joined.vertex_count} vertices, graph has {graph.vertex_count}"
        )
    if len(bijection) != graph.vertex_count:
        raise SizeMismatch("bijection length must equal the vertex count")
    if sorted(bijection) != list(range(graph.vertex_count)):
        raise SizeMismatch("vertex map is not a bijection")
    if joined.edge_count != graph.edge_count:
        return False
    return all(graph.has_edge(bijection[u], bijection[v]) for u, v in joined.edges())


# ---------------------------------------------------------------------------
# Metric structure
# ---------------------------------------------------------------------------


def _has_universal_vertex(graph: Graph) -> bool:
    """Whether some vertex has degree n - 1; raises on the empty graph."""
    n = graph.vertex_count
    if n == 0:
        raise DisconnectedGraph("the empty graph has no distances")
    return any(len(s) == n - 1 for s in graph.neighbors)


def _distance_rows(graph: Graph) -> Iterator[list[int]]:
    """BFS distance rows from each source in turn; raises on disconnected input."""
    n, neighbors = graph.vertex_count, graph.neighbors
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        queue = deque((source,))
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in neighbors[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    queue.append(w)
        if min(dist) < 0:
            raise DisconnectedGraph(f"vertex {dist.index(-1)} unreachable from {source}")
        yield dist


def distance_matrix(graph: Graph) -> IntMatrix:
    """All-pairs shortest-path matrix; raises on disconnected or empty input.

    With a universal vertex this is 2(J - I) - A, built in one pass over the
    neighbor sets; otherwise each row comes from a breadth-first search and is
    copied into the one flat tuple of entries as it is found.
    """
    if not _has_universal_vertex(graph):
        n = graph.vertex_count
        return IntMatrix(n, n, tuple(chain.from_iterable(_distance_rows(graph))))
    return _neighbor_matrix(graph, 2)


def diameter(graph: Graph) -> int:
    """Largest distance; raises on disconnected or empty input.

    With a universal vertex it is 0 for one vertex, 1 for a complete graph and
    2 otherwise, found without a search; otherwise it is the largest entry of
    the breadth-first distance rows.
    """
    if _has_universal_vertex(graph):
        if graph.vertex_count == 1:
            return 0
        return 1 if graph.is_complete() else 2
    return max(max(row) for row in _distance_rows(graph))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _neighbor_matrix(graph: Graph, apart: int) -> IntMatrix:
    """0 on the diagonal, 1 between neighbors and ``apart`` between other vertices."""
    n = graph.vertex_count
    flat = [apart] * (n * n)
    for u, nbrs in enumerate(graph.neighbors):
        base = u * n
        flat[base + u] = 0
        for v in nbrs:
            flat[base + v] = 1
    return IntMatrix(n, n, tuple(flat))


def adjacency_matrix(graph: Graph) -> IntMatrix:
    return _neighbor_matrix(graph, 0)


MATRIX_BUILDERS: dict[str, Callable[[Graph], IntMatrix]] = {
    "adjacency": adjacency_matrix,
    "distance": distance_matrix,
}
MATRIX_KINDS = tuple(MATRIX_BUILDERS)


def graph_matrix(graph: Graph, kind: str) -> IntMatrix:
    """The ``kind`` matrix of ``graph``; :class:`HypothesisViolated` unless ``kind`` is
    one of :data:`MATRIX_KINDS`."""
    builder = MATRIX_BUILDERS.get(kind)
    if builder is None:
        raise HypothesisViolated(f"unknown matrix kind {kind!r}; expected one of {MATRIX_KINDS}")
    # through this module's name for the builder, which the benchmark's tracer rebinds
    return globals()[builder.__name__](graph)


def to_dot(graph: Graph, labels: Sequence[str] | None = None) -> str:
    """Graphviz DOT text with deterministic vertex and edge order."""
    if labels is not None and len(labels) != graph.vertex_count:
        raise SizeMismatch("need one label per vertex")
    lines = ["graph G {"]
    for v in range(graph.vertex_count):
        if labels is not None:
            text = labels[v].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{text}"];')
        else:
            lines.append(f"  {v};")
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
