"""Power graphs, enhanced power graphs, joins, and exact distance matrices.

Graphs are simple and undirected, on vertices ``0..n-1``, stored as a tuple
of neighbor sets.  Distance matrices are exact integer matrices computed by
breadth-first search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DisconnectedGraph, SizeMismatch
from .groups import FiniteGroup, cyclic_subgroup, cyclic_subgroups
from .linalg import IntMatrix


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with set-of-neighbor-sets semantics."""

    vertex_count: int
    neighbors: tuple[frozenset[int], ...]

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
        return Graph(n, tuple(frozenset(s) for s in adj))

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
    return Graph(n, tuple(full - {v} for v in range(n)))


def empty_graph(n: int) -> Graph:
    return Graph(n, (frozenset(),) * n)


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


def power_graph(g: FiniteGroup) -> Graph:
    """Distinct elements are adjacent when one is a power of the other."""
    gen = [frozenset(cyclic_subgroup(g, x)) for x in range(g.order)]
    edges = [
        (u, v)
        for u in range(g.order)
        for v in range(u + 1, g.order)
        if v in gen[u] or u in gen[v]
    ]
    return Graph.from_edges(g.order, edges)


def enhanced_power_graph(g: FiniteGroup) -> Graph:
    """Distinct elements are adjacent when some cyclic subgroup contains both.

    Built by marking all pairs inside each cyclic subgroup of the group; the
    elementwise three-way membership scan is kept as an independent test
    oracle, not used here.
    """
    adj: list[set[int]] = [set() for _ in range(g.order)]
    for sub in cyclic_subgroups(g):
        for i, u in enumerate(sub):
            adj_u = adj[u]
            for v in sub[i + 1 :]:
                adj_u.add(v)
                adj[v].add(u)
    return Graph(g.order, tuple(frozenset(s) for s in adj))


def induced_subgraph(graph: Graph, keep: Sequence[int]) -> Graph:
    """Subgraph on ``keep``, relabeled 0..k-1 in ascending original order."""
    kept = sorted(set(keep))
    if kept and not (0 <= kept[0] and kept[-1] < graph.vertex_count):
        raise SizeMismatch("kept vertices outside the graph's vertex range")
    index = {v: i for i, v in enumerate(kept)}
    nbrs = tuple(
        frozenset(index[w] for w in graph.neighbors[v] if w in index) for v in kept
    )
    return Graph(len(kept), nbrs)


def proper_power_graph(g: FiniteGroup) -> Graph:
    """Power graph with the identity vertex removed."""
    return induced_subgraph(power_graph(g), [v for v in range(g.order) if v != g.identity])


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
    return Graph(total, tuple(frozenset(s) for s in adj))


def cone(graph: Graph) -> Graph:
    """A new apex vertex 0 joined to every vertex of ``graph`` (shifted by 1)."""
    return graph_join(JoinSpec(complete_graph(2), (complete_graph(1), graph)))


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
    """All-pairs shortest-path matrix; raises on disconnected input."""
    rows = list(_distance_rows(graph))
    if not rows:
        return IntMatrix(0, 0, ())
    return IntMatrix.from_rows(rows)


def diameter(graph: Graph) -> int:
    if graph.vertex_count == 0:
        raise DisconnectedGraph("diameter of the empty graph is undefined")
    return max(max(row) for row in _distance_rows(graph))


# ---------------------------------------------------------------------------
# Structural templates used by the product-group join forms
# ---------------------------------------------------------------------------


def figure1_gamma(alpha: int, beta: int) -> Graph:
    """The three-layer template on ``alpha + alpha*beta + beta`` vertices.

    Layer one is ``alpha`` outer vertices; layer two is an ``alpha x beta``
    grid of middle vertices (row-major); layer three is ``beta`` outer
    vertices.  Vertex ``i`` of layer one sees its whole middle row; vertex
    ``j`` of layer three sees its whole middle column.  No other edges.
    """
    if alpha < 1 or beta < 1:
        raise SizeMismatch("layer sizes must be >= 1")
    n = alpha + alpha * beta + beta
    edges = []
    for i in range(alpha):
        for j in range(beta):
            edges.append((i, alpha + i * beta + j))
    for j in range(beta):
        xj = alpha + alpha * beta + j
        for i in range(alpha):
            edges.append((xj, alpha + i * beta + j))
    return Graph.from_edges(n, edges)


def figure1_gamma_prime(alpha: int, beta: int) -> Graph:
    """:func:`figure1_gamma` plus all edges between layers one and three."""
    base = figure1_gamma(alpha, beta)
    extra = [
        (i, alpha + alpha * beta + j) for i in range(alpha) for j in range(beta)
    ]
    return Graph.from_edges(base.vertex_count, base.edges() + extra)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def adjacency_matrix(graph: Graph) -> IntMatrix:
    n = graph.vertex_count
    flat = [0] * (n * n)
    for u in range(n):
        base = u * n
        for v in graph.neighbors[u]:
            flat[base + v] = 1
    return IntMatrix(n, n, tuple(flat))


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
