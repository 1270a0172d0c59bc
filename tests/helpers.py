"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the production code paths it checks:
polynomials are plain coefficient lists, characteristic polynomials come
from a permutation-sum expansion (small matrices) or the Faddeev-LeVerrier
recurrence (larger ones), distances come from Floyd-Warshall, the
enhanced-adjacency oracle scans all witness elements directly from the
Cayley table, the named family partitions are rebuilt from the element
index layout of each family constructor, and the family join forms are
the per-family outer graphs (a star, a cone over a Figure-1 template, a
cone over the divisor graph) that the general ``join_form`` replaced, over
those index-layout cells, and the coarsest equitable partition comes from
colour refinement on neighbour-colour multisets.  Quotients come from a
Counter of each vertex's neighbours' cells, or from block sums added one
entry at a time.  The Cayley tables and the group JSON object are written
entry by entry, as the constructors and the writer did before they cut
rows from shared slices; the tables come one row at a time, so the
largest stay small in memory.  Equitability is
checked by counting each vertex's neighbours per cell, and associativity
by a full triple scan.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
from collections import Counter
from operator import mul
from typing import Iterator

from pgspectra import (
    FiniteGroup,
    Graph,
    GroupFamilySpec,
    IntMatrix,
    JoinSpec,
    Partition,
    cyclic_subgroups,
    make_elementary_abelian,
    make_group,
)
from pgspectra.errors import InvalidFamilyParameters, SizeMismatch
from pgspectra.groups import family_of, family_spec
from pgspectra.theorems import THEOREMS, enumerate_cases


def perm_sign(perm: tuple[int, ...]) -> int:
    inversions = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inversions += 1
    return -1 if inversions & 1 else 1


def _list_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def char_poly_oracle(m: IntMatrix) -> tuple[int, ...]:
    """Coefficients (ascending) of det(xI - M) via the Leibniz expansion.

    O(n! * n) work, so only sane for n <= 7 or so; that is the point.
    """
    n = m.rows
    assert m.cols == n
    total = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        prod = [1]
        for i in range(n):
            entry = [-m[i, perm[i]], 1] if i == perm[i] else [-m[i, perm[i]]]
            prod = _list_mul(prod, entry)
        s = perm_sign(perm)
        for k, c in enumerate(prod):
            total[k] += s * c
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return tuple(total)


def char_poly_faddeev_oracle(m: IntMatrix) -> tuple[int, ...]:
    """Coefficients (ascending) of det(xI - M) by Faddeev-LeVerrier.

    ``M_1 = I``, ``c_k = -trace(A M_k) / k``, ``M_{k+1} = A M_k + c_k I``:
    one dense integer matrix product per coefficient, O(n^4) in all, with no
    modular arithmetic, so it stays independent of the production route and
    reaches sizes the Leibniz oracle cannot.
    """
    n = m.rows
    assert m.cols == n
    a = [list(m.row(i)) for i in range(n)]
    cs = [1]  # cs[k] multiplies x**(n - k)
    work = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*work))
        prod = [[sum(map(mul, row, col)) for col in cols] for row in a]
        t = sum(prod[i][i] for i in range(n))
        assert t % k == 0, f"Faddeev-LeVerrier trace {t} not divisible by step {k}"
        cs.append(-(t // k))
        for i in range(n):
            prod[i][i] += cs[-1]
        work = prod
    return tuple(reversed(cs))


def determinant_oracle(m: IntMatrix) -> int:
    n = m.rows
    assert m.cols == n
    total = 0
    for perm in itertools.permutations(range(n)):
        term = perm_sign(perm)
        for i in range(n):
            term *= m[i, perm[i]]
        total += term
    return total


def enhanced_edges_oracle(g: FiniteGroup) -> set[tuple[int, int]]:
    """Edge set of the enhanced power graph by scanning every witness c.

    Powers of c are walked straight off the Cayley table; nothing from the
    production subgroup machinery is reused.
    """
    member_sets = []
    for c in range(g.order):
        seen = {g.identity}
        acc = c
        while acc not in seen:
            seen.add(acc)
            acc = g.table[acc][c]
        member_sets.append(seen)
    edges = set()
    for u in range(g.order):
        for v in range(u + 1, g.order):
            if any(u in s and v in s for s in member_sets):
                edges.add((u, v))
    return edges


def power_edges_oracle(g: FiniteGroup) -> set[tuple[int, int]]:
    """Edge set of the power graph: u ~ v iff one generates the other."""
    powers = []
    for c in range(g.order):
        seen = {g.identity}
        acc = c
        while acc not in seen:
            seen.add(acc)
            acc = g.table[acc][c]
        powers.append(seen)
    edges = set()
    for u in range(g.order):
        for v in range(u + 1, g.order):
            if v in powers[u] or u in powers[v]:
                edges.add((u, v))
    return edges


def floyd_warshall(graph: Graph) -> list[list[int]] | None:
    """All-pairs distances, or None when the graph is empty or disconnected."""
    n = graph.vertex_count
    inf = n + 1  # strictly larger than any path length in a connected graph
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u in range(n):
        for v in graph.neighbors[u]:
            dist[u][v] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    if n == 0 or any(d == inf for row in dist for d in row):
        return None
    return dist


def coarsest_equitable_cells_oracle(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Cells of the coarsest equitable partition, by colour refinement.

    Each round recolours every vertex by its colour and the sorted multiset
    of its neighbours' colours (one-dimensional Weisfeiler-Leman) until the
    number of colours stops growing.  Cells are listed by least vertex.
    """
    n = graph.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in graph.edges():
        adj[u].append(v)
        adj[v].append(u)
    colour = [0] * n
    while True:
        palette: dict[tuple, int] = {}
        new = [
            palette.setdefault((colour[v], tuple(sorted(colour[w] for w in adj[v]))), len(palette))
            for v in range(n)
        ]
        if len(palette) == len(set(colour)):
            break
        colour = new
    cells: dict[int, list[int]] = {}
    for v in range(n):  # a colour first appears at its least vertex
        cells.setdefault(colour[v], []).append(v)
    return tuple(tuple(cell) for cell in cells.values())


def is_equitable(graph: Graph, p: Partition) -> bool:
    """True when all vertices of a cell have the same neighbour count in each cell."""
    cell_of = {v: i for i, cell in enumerate(p.cells) for v in cell}

    def counts(v: int) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(Counter(cell_of[w] for w in graph.neighbors[v]).items()))

    return all(len({counts(v) for v in cell}) == 1 for cell in p.cells)


def neighbour_count_rows_oracle(graph: Graph, p: Partition) -> list[tuple[int, ...]]:
    """Each vertex's neighbour count in every cell of ``p``, from a Counter of its neighbours' cells."""
    cell_of = {v: i for i, cell in enumerate(p.cells) for v in cell}
    rows = []
    for v in range(graph.vertex_count):
        seen = Counter(cell_of[w] for w in graph.neighbors[v])
        rows.append(tuple(seen[i] for i in range(p.cell_count)))
    return rows


def block_sum_rows_oracle(m: IntMatrix, p: Partition) -> list[tuple[int, ...]]:
    """Each row's sum over every cell of ``p``, adding one entry at a time."""
    rows = []
    for v in range(m.rows):
        sums = []
        for cell in p.cells:
            total = 0
            for w in cell:
                total += m.entries[v * m.cols + w]
            sums.append(total)
        rows.append(tuple(sums))
    return rows


def cell_quotient_oracle(p: Partition, rows: list[tuple[int, ...]]) -> list[list[int]] | str:
    """The row each cell's vertices share, or the text ``NotEquitable`` carries.

    That text names the least vertices holding the two smallest rows of the
    first cell whose rows differ.
    """
    quotient = []
    for cell in p.cells:
        distinct = sorted({rows[v] for v in cell})
        if len(distinct) > 1:
            first, second = (min(v for v in cell if rows[v] == r) for r in distinct[:2])
            return f"vertices {first} and {second} disagree within a cell"
        quotient.append(list(distinct[0]))
    return quotient


def check_associative(g: FiniteGroup) -> bool:
    """Full triple-scan associativity check; O(order**3)."""
    t = g.table
    rng = range(g.order)
    for a in rng:
        ta = t[a]
        for b in rng:
            if t[ta[b]] != tuple(ta[x] for x in t[b]):
                return False
    return True


def catalog_specs(max_order: int) -> list[GroupFamilySpec]:
    """The distinct family specs among the catalog cases up to ``max_order``, first seen first."""
    cases = enumerate_cases(max_order)
    return list(dict.fromkeys(family_spec(THEOREMS[c.theorem_id].family, c.params_dict()) for c in cases))


def catalog_groups(max_order: int) -> list[FiniteGroup]:
    """One group per distinct family spec among the catalog cases up to ``max_order``."""
    return [make_group(spec) for spec in catalog_specs(max_order)]


def record_worker_pools(monkeypatch, cpus: int | None) -> list[int]:
    """Make ``parallel_map`` see ``cpus`` CPUs and run its pools in-process.

    Returns the list that collects each pool's ``max_workers``, so a test can
    check the worker count without starting a worker process.  ``parallel_map``
    imports the pool class only when it needs one, so the class is replaced
    where it imports it from.
    """
    from pgspectra import theorems

    created: list[int] = []

    class RecordingPool:
        def __init__(self, max_workers: int) -> None:
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc) -> bool:
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: cpus)
    return created


def _prime_subgroups(g: FiniteGroup, size: int) -> list[tuple[int, ...]]:
    return [s for s in cyclic_subgroups(g) if len(s) == size]


def family_partition_oracle(g: FiniteGroup, which: str) -> tuple[tuple[int, ...], ...]:
    """The cells of ``family_partition(g, which)``, from index arithmetic.

    Each family's cells are written down from where its constructor puts
    the elements (``n + i`` for a dihedral reflection, ``a*|H| + b`` for a
    product pair, ...), with no maximal-subgroup structure.  A cyclic
    El(p) x Z_m gets the cells ``[Z_m, rest]`` here, which are not the
    library's.
    """
    _family, d = family_of(g.spec)
    if which == "gpq-sylow":
        cells = [(g.identity,)]
        cells.append(tuple(v for v in _prime_subgroups(g, d["q"])[0] if v != g.identity))
        for sub in _prime_subgroups(g, d["p"]):
            cells.append(tuple(v for v in sub if v != g.identity))
        return tuple(cells)
    if which == "dihedral":
        n = d["n"]
        return ((0,), tuple(range(1, n)), *((n + i,) for i in range(n)))
    if which == "dicyclic":
        n = d["n"]
        cells = [(0, n), tuple(i for i in range(1, 2 * n) if i != n)]
        return (*cells, *((2 * n + i, 3 * n + i) for i in range(n)))
    if which in ("elab-product-coarse", "elab-product-fine"):
        p, q = d["p"], d["q"]
        pn, qm = p ** d["n"], q ** d["m"]
        if which == "elab-product-coarse":
            v2 = tuple(a * qm for a in range(1, pn))
            v3 = tuple(a * qm + b for a in range(1, pn) for b in range(1, qm))
            return ((0,), v2, v3, tuple(range(1, qm)))
        a_subs = _prime_subgroups(make_elementary_abelian(p, d["n"]), p)
        b_subs = _prime_subgroups(make_elementary_abelian(q, d["m"]), q)
        cells = [(0,)]
        cells.extend(tuple(a * qm for a in asub if a) for asub in a_subs)
        for asub in a_subs:  # A-subgroup outer, B-subgroup inner
            for bsub in b_subs:
                cells.append(tuple(a * qm + b for a in asub if a for b in bsub if b))
        cells.extend(tuple(b for b in bsub if b) for bsub in b_subs)
        return tuple(cells)
    assert which == "elab-times-cyclic", which
    p, m = d["p"], d.get("m", 1)
    cells = [tuple(range(m))]
    for asub in _prime_subgroups(make_elementary_abelian(p, d["n"]), p):
        cells.append(tuple(a * m + j for a in asub if a for j in range(m)))
    return tuple(cells)


# ---------------------------------------------------------------------------
# Family join forms: the outer graphs written down per family
# ---------------------------------------------------------------------------


def prime_power_base(n: int) -> int | None:
    """The prime ``p`` when ``n = p**k`` for some ``k >= 1``, else ``None``."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
        p += 1
    return n


def totient_and_divisors(n: int) -> tuple[int, tuple[int, ...]]:
    """Euler's totient of ``n`` and its proper nontrivial divisors, ascending.

    "Proper nontrivial" excludes both 1 and ``n`` itself.
    """
    if n < 1:
        raise InvalidFamilyParameters(f"totient needs n >= 1, got {n}")
    phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    divisors = tuple(d for d in range(2, n) if n % d == 0)
    return phi, divisors


def cone(graph: Graph) -> Graph:
    """A new apex vertex 0 joined to every vertex of ``graph`` (shifted by 1)."""
    n = graph.vertex_count
    apex = [(0, v) for v in range(1, n + 1)]
    return Graph.from_edges(n + 1, apex + [(u + 1, v + 1) for u, v in graph.edges()])


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


def _complete_blow_up(outer: Graph, part: Partition) -> tuple[JoinSpec, Partition]:
    return JoinSpec(outer, tuple((1, len(cell)) for cell in part.cells)), part


# Star family -> the name of its partition in ``family_partition_oracle``.
_STAR_ORACLE_NAMES = {
    "gpq": "gpq-sylow",
    "dihedral": "dihedral",
    "dicyclic": "dicyclic",
    "elementary-abelian": "elab-times-cyclic",
    "elab-cyclic": "elab-times-cyclic",
}


def star_join_oracle(g: FiniteGroup) -> tuple[JoinSpec, Partition]:
    """Enhanced power graph of a star family: a star over the index-layout cells.

    A cyclic El(p) x Z_m (m = 1 included) is one complete cell instead.
    """
    family, d = family_of(g.spec)
    if family in ("elementary-abelian", "elab-cyclic") and d["n"] == 1:
        part = Partition.of([range(g.order)])
    else:
        part = Partition(family_partition_oracle(g, _STAR_ORACLE_NAMES[family]))
    star = Graph.from_edges(part.cell_count, [(0, i) for i in range(1, part.cell_count)])
    return _complete_blow_up(star, part)


def elab_product_join_oracle(g: FiniteGroup, enhanced: bool) -> tuple[JoinSpec, Partition]:
    """El(p^n) x El(q^m): a cone over the Figure-1 template (primed when enhanced)."""
    _family, d = family_of(g.spec)
    alpha = (d["p"] ** d["n"] - 1) // (d["p"] - 1)
    beta = (d["q"] ** d["m"] - 1) // (d["q"] - 1)
    template = figure1_gamma_prime(alpha, beta) if enhanced else figure1_gamma(alpha, beta)
    part = Partition(family_partition_oracle(g, "elab-product-fine"))
    return _complete_blow_up(cone(template), part)


def proper_power_zn_join_oracle(n: int) -> tuple[JoinSpec, Partition]:
    """Proper power graph of Z_n: a cone over the divisor divisibility graph.

    Parts are the generators, then the elements of each proper nontrivial
    divisor order d, ascending; vertex v - 1 is element v.
    """
    _phi, divs = totient_and_divisors(n)
    delta = Graph.from_edges(
        len(divs),
        [(i, j) for i in range(len(divs)) for j in range(i + 1, len(divs)) if divs[j] % divs[i] == 0],
    )
    orders = [n // math.gcd(v, n) for v in range(1, n)]
    part = Partition.of([[u for u, o in enumerate(orders) if o == d] for d in (n, *divs)])
    return _complete_blow_up(cone(delta), part)


def same_blow_up(form: tuple[JoinSpec, Partition], oracle: tuple[JoinSpec, Partition]) -> bool:
    """True when ``form`` is ``oracle`` with its cells in another order.

    Each cell of ``form`` is matched to the equal cell of ``oracle``; the two
    outer graphs must then have the same edges and matched parts be equal.
    """
    (spec, part), (ospec, opart) = form, oracle
    if sorted(part.cells) != sorted(opart.cells):
        return False
    where = {cell: i for i, cell in enumerate(opart.cells)}
    match = [where[cell] for cell in part.cells]
    edges = {frozenset((match[i], match[j])) for i, j in spec.outer.edges()}
    return edges == set(map(frozenset, ospec.outer.edges())) and all(
        spec.parts[i] == ospec.parts[match[i]] for i in range(part.cell_count)
    )


# ---------------------------------------------------------------------------
# Cayley tables and group JSON, entry by entry
# ---------------------------------------------------------------------------


def dihedral_type_rows_oracle(m: int, t: int) -> Iterator[tuple[int, ...]]:
    """The rows of ``<a, b | a**m, b**2 = a**t, b a b**-1 = a**-1>``; element ``e*m + i`` is ``a**i b**e``."""
    for e in (0, 1):
        for i in range(m):
            yield tuple(
                (e ^ f) * m + (i + (-j if e else j) + t * (e & f)) % m
                for f in (0, 1)
                for j in range(m)
            )


def gpq_rows_oracle(p: int, q: int) -> Iterator[tuple[int, ...]]:
    """The rows of ``(a^i b^j)(a^k b^l) = a^(i + r^j k) b^(j + l)``; element ``i*p + j`` is ``a^i b^j``."""
    r = next(r for r in range(2, q) if pow(r, p, q) == 1)
    rj = [pow(r, j, q) for j in range(p)]
    for i in range(q):
        for j in range(p):
            yield tuple((i + rj[j] * k) % q * p + (j + l) % p for k in range(q) for l in range(p))


def direct_product_rows_oracle(g: FiniteGroup, h: FiniteGroup) -> Iterator[tuple[int, ...]]:
    """The rows of G x H under the pairing ``(a, b) -> a*|H| + b``."""
    hn = h.order
    for ga in g.table:
        for hb in h.table:
            yield tuple(x * hn + y for x in ga for y in hb)


def elementary_abelian_rows_oracle(p: int, n: int) -> Iterator[tuple[int, ...]]:
    """The rows of digitwise addition mod ``p`` of base-``p`` digit vectors, one digit at a time."""
    table = [[0]]
    for w in (p**k for k in range(n)):  # element d*w + i, for i < w, has top digit d
        table = [[x + (d + e) % p * w for e in range(p) for x in r] for d in range(p) for r in table]
    return map(tuple, table)


def group_to_json_obj_oracle(g: FiniteGroup) -> dict:
    """The object whose ``json.dumps`` is the group's JSON text."""
    return {
        "order": g.order,
        "identity": g.identity,
        "table": [list(row) for row in g.table],
        "labels": list(g.labels),
    }
