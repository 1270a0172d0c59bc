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
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DisconnectedGraph, HypothesisViolated, SizeMismatch
from .groups import FiniteGroup, cyclic_subgroups, element_subgroups
from .linalg import IntMatrix


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex ``v`` of ``0..n-1`` has neighbor set ``neighbors[v]``."""

    neighbors: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        """:class:`SizeMismatch` unless each neighbor is another vertex listing this one."""
        nbrs, n = self.neighbors, len(self.neighbors)
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
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise SizeMismatch(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                continue  # simple graph: ignore loops
            adj[u].add(v)
            adj[v].add(u)
        return Graph(tuple(frozenset(s) for s in adj))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    def degree(self, u: int) -> int:
        return len(self.neighbors[u])

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with ``u < v``, sorted."""
        return [(u, v) for u in range(self.vertex_count) for v in sorted(self.neighbors[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.neighbors) // 2

    def is_complete(self) -> bool:
        return all(len(s) == self.vertex_count - 1 for s in self.neighbors)


def complete_graph(n: int) -> Graph:
    full = frozenset(range(n))
    return Graph(tuple(full - {v} for v in range(n)))


def empty_graph(n: int) -> Graph:
    return Graph((frozenset(),) * n)


@dataclass(frozen=True)
class JoinSpec:
    """A graph blow-up: replace vertex ``i`` of ``outer`` by ``parts[i]``.

    Vertices inside a part keep their internal edges; two parts are joined
    completely whenever their outer vertices are adjacent.
    """

    outer: Graph
    parts: tuple[Graph, ...]

    def __post_init__(self) -> None:
        if len(self.parts) != self.outer.vertex_count:
            raise SizeMismatch(
                f"outer graph has {self.outer.vertex_count} vertices "
                f"but {len(self.parts)} parts were given"
            )


# ---------------------------------------------------------------------------
# Graphs from groups
# ---------------------------------------------------------------------------


def _without_loops(adj: list[set[int]]) -> Graph:
    """The graph whose neighbor sets are ``adj``, each vertex dropped from its own."""
    for v, s in enumerate(adj):
        s.discard(v)
    return Graph(tuple(map(frozenset, adj)))


def power_graph(g: FiniteGroup) -> Graph:
    """Distinct elements are adjacent when one is a power of the other.

    Built straight into neighbor sets: each element ``x`` starts from its
    cyclic subgroup ``<x>`` and is added to the set of every element of it.
    """
    subs = element_subgroups(g)
    adj = [set(sub) for sub in subs]
    for x, sub in enumerate(subs):
        for y in sub:
            adj[y].add(x)
    return _without_loops(adj)


def enhanced_power_graph(g: FiniteGroup) -> Graph:
    """Distinct elements are adjacent when some cyclic subgroup contains both.

    Each element of each cyclic subgroup of the group takes in the whole
    subgroup; the elementwise three-way membership scan is kept as an
    independent test oracle, not used here.
    """
    adj: list[set[int]] = [set() for _ in range(g.order)]
    for sub in cyclic_subgroups(g):
        for u in sub:
            adj[u].update(sub)
    return _without_loops(adj)


def proper_power_graph(g: FiniteGroup) -> Graph:
    """Power graph with the identity (element 0) removed; vertex ``v - 1`` is element ``v``."""
    return Graph(tuple(frozenset(v - 1 for v in s if v) for s in power_graph(g).neighbors[1:]))


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def graph_join(spec: JoinSpec) -> Graph:
    """Expand a :class:`JoinSpec` into a concrete graph.

    Block ``i`` occupies a contiguous index range, in part order.
    """
    offsets = []
    total = 0
    for part in spec.parts:
        offsets.append(total)
        total += part.vertex_count
    adj: list[set[int]] = [set() for _ in range(total)]
    for i, part in enumerate(spec.parts):
        off = offsets[i]
        for u in range(part.vertex_count):
            adj[off + u].update(off + w for w in part.neighbors[u])
    for i, j in spec.outer.edges():
        for u in range(spec.parts[i].vertex_count):
            ou = offsets[i] + u
            adj[ou].update(offsets[j] + w for w in range(spec.parts[j].vertex_count))
        for w in range(spec.parts[j].vertex_count):
            adj[offsets[j] + w].update(offsets[i] + u for u in range(spec.parts[i].vertex_count))
    return Graph(tuple(frozenset(s) for s in adj))


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
    neighbor sets; otherwise each row comes from a breadth-first search.
    """
    if not _has_universal_vertex(graph):
        return IntMatrix.from_rows(list(_distance_rows(graph)))
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


def to_dot(graph: Graph, labels: Sequence[str] | None = None, name: str = "G") -> str:
    """Graphviz DOT text with deterministic vertex and edge order."""
    if labels is not None and len(labels) != graph.vertex_count:
        raise SizeMismatch("need one label per vertex")
    lines = [f"graph {name} {{"]
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
