"""Closed-form spectrum catalog with a brute-force verification harness.

Each ``cf_*`` function rebuilds a published closed-form characteristic
polynomial from its printed formula.  The harness turns the catalog into
:class:`TheoremCase` objects, recomputes the same polynomial from scratch
(group table -> graph -> exact matrix -> characteristic polynomial), and
reports whether the two routes agree exactly.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    DisconnectedGraph,
    FamilyMismatch,
    HypothesisViolated,
    PartNotComplete,
    SizeMismatch,
    SpectraError,
)
from .graphs import (
    Graph,
    JoinSpec,
    adjacency_matrix,
    complete_graph,
    cone,
    distance_matrix,
    enhanced_power_graph,
    figure1_gamma,
    figure1_gamma_prime,
    power_graph,
    proper_power_graph,
)
from .groups import (
    FAMILY_PARAMS,
    FiniteGroup,
    GroupFamilySpec,
    family_of,
    family_spec,
    is_prime,
    make_cyclic,
    make_group,
    totient_and_divisors,
)
from .linalg import (
    FactoredPoly,
    IntMatrix,
    IntPolynomial,
    block,
    char_poly,
    identity,
    kron,
    ones,
    poly_constant,
    x_plus,
    zeros,
)
from .partitions import Partition, family_partition

DEFAULT_MAX_ORDER = 64

GRAPH_BUILDERS: dict[str, Callable[[FiniteGroup], Graph]] = {
    "power": power_graph,
    "enhanced": enhanced_power_graph,
    "proper-power": proper_power_graph,
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise HypothesisViolated(message)


# ---------------------------------------------------------------------------
# Closed forms: nonabelian order p*q, dihedral, dicyclic
# ---------------------------------------------------------------------------


def _check_gpq(p: int, q: int) -> None:
    _require(is_prime(p) and is_prime(q), f"p and q must be prime, got {p}, {q}")
    _require(p < q, f"need p < q, got p={p}, q={q}")
    _require((q - 1) % p == 0, f"need p | q-1, got p={p}, q={q}")


def cf_epg_gpq_distance(p: int, q: int) -> FactoredPoly:
    """Distance characteristic polynomial of the enhanced power graph of the
    nonabelian group of order p*q (equal to its power graph's as well)."""
    _check_gpq(p, q)
    cubic = IntPolynomial(
        (
            -(p * q * q + p * q - p - q * q),
            -2 * p * q * q - 2 * p * q + 2 * q * q + 2 * p + 1,
            -2 * p * q + p + q + 2,
            1,
        )
    )
    return FactoredPoly.of(
        (x_plus(1), p * q - q - 2),
        (x_plus(p), q - 1),
        (cubic, 1),
    )


def cf_epg_gpq_determinant(p: int, q: int) -> int:
    """Magnitude of the distance-matrix determinant for the same graph."""
    _check_gpq(p, q)
    return p ** (q - 1) * (p * (q * q + q - 1) - q * q)


def cf_epg_dihedral_distance(n: int) -> FactoredPoly:
    """Distance characteristic polynomial of the enhanced power graph of the
    dihedral group of order 2n."""
    _require(n >= 3, f"dihedral closed form needs n >= 3, got {n}")
    cubic = IntPolynomial(
        (
            -(n * n + 2 * n - 2),
            -(2 * n * n + 4 * n - 5),
            -(3 * n - 4),
            1,
        )
    )
    return FactoredPoly.of(
        (x_plus(2), n - 1),
        (x_plus(1), n - 2),
        (cubic, 1),
    )


def cf_pg_dihedral_distance_rhs(
    n: int, pz: IntPolynomial, pzstar: IntPolynomial
) -> IntPolynomial:
    """Right-hand side of the dihedral power-graph distance recursion.

    ``pz`` and ``pzstar`` are the distance characteristic polynomials of the
    power graph of the cyclic group of order n and of its proper power graph
    (identity removed), both supplied by the caller (brute force in tests).
    """
    _require(n >= 3, f"dihedral recursion needs n >= 3, got {n}")
    _require(pz.degree == n, f"pz must have degree n={n}, got {pz.degree}")
    _require(pzstar.degree == n - 1, f"pzstar must have degree n-1={n - 1}, got {pzstar.degree}")
    lin = IntPolynomial((2 * (n + 1), 4 * n + 1))  # (4n+1)x + 2(n+1)
    bracket = lin * pz - poly_constant(n) * IntPolynomial((1, 2)) ** 2 * pzstar
    return x_plus(2) ** (n - 1) * bracket


def cf_epg_dicyclic_distance(n: int) -> FactoredPoly:
    """Distance characteristic polynomial of the enhanced power graph of the
    dicyclic group of order 4n."""
    _require(n >= 3, f"dicyclic closed form needs n >= 3, got {n}")
    cubic = IntPolynomial(
        (
            -(6 * n - 3),
            -(8 * n * n + 4 * n - 7),
            -(6 * n - 5),
            1,
        )
    )
    return FactoredPoly.of(
        (x_plus(1), 3 * n - 2),
        (x_plus(3), n - 1),
        (cubic, 1),
    )


# ---------------------------------------------------------------------------
# Closed forms: products of two elementary abelian groups
# ---------------------------------------------------------------------------


def _check_product(p: int, n: int, q: int, m: int) -> None:
    _require(is_prime(p) and is_prime(q), f"p and q must be prime, got {p}, {q}")
    _require(p != q, f"need distinct primes, got p=q={p}")
    _require(n >= 1 and m >= 1, f"need n, m >= 1, got n={n}, m={m}")


def _check_kinds(graph_kind: str, matrix_kind: str) -> None:
    _require(graph_kind in ("power", "enhanced"), f"unknown graph kind {graph_kind!r}")
    _require(matrix_kind in ("adjacency", "distance"), f"unknown matrix kind {matrix_kind!r}")


def _product_t1(p: int, n: int, q: int, m: int, graph_kind: str, matrix_kind: str) -> IntMatrix:
    pn, qm = p**n, q**m
    gamma = ((pn - 1) // (p - 1)) * ((qm - 1) // (q - 1))
    enh = graph_kind == "enhanced"
    if matrix_kind == "adjacency":
        rows = [
            [0, pn - 1, (pn - 1) * (qm - 1), qm - 1],
            [1, p - 2, (p - 1) * (qm - 1), qm - 1 if enh else 0],
            [1, p - 1, (p - 1) * (q - 1) - 1, q - 1],
            [1, pn - 1 if enh else 0, (pn - 1) * (q - 1), q - 2],
        ]
    else:
        rows = [
            [0, pn - 1, (pn - 1) * (qm - 1), qm - 1],
            [1, 2 * pn - p - 2, (2 * pn - p - 1) * (qm - 1), qm - 1 if enh else 2 * (qm - 1)],
            [
                1,
                2 * pn - p - 1,
                (p - 1) * (q - 1) * (2 * gamma - 1) - 1
                if enh
                else 2 * (pn - 1) * (qm - 1) - (p - 1) * (q - 1) - 1,
                2 * qm - q - 1,
            ],
            [1, pn - 1 if enh else 2 * (pn - 1), (pn - 1) * (2 * qm - q - 1), 2 * qm - q - 2],
        ]
    return IntMatrix.from_rows(rows)


def build_T1_T2(
    p: int, n: int, q: int, m: int, graph_kind: str, matrix_kind: str
) -> tuple[IntMatrix, IntMatrix]:
    """The printed 4x4 coarse quotient and its block-matrix refinement.

    Both are rebuilt literally from their published block formulas (Kronecker
    products of identity/all-ones blocks), not re-derived from a graph, so
    they can be compared against actual quotient matrices.
    """
    _check_product(p, n, q, m)
    _check_kinds(graph_kind, matrix_kind)
    pn, qm = p**n, q**m
    alpha = (pn - 1) // (p - 1)
    beta = (qm - 1) // (q - 1)
    gamma = alpha * beta
    enh = graph_kind == "enhanced"
    t1 = _product_t1(p, n, q, m, graph_kind, matrix_kind)

    row1 = [
        zeros(1, 1),
        (p - 1) * ones(1, alpha),
        (p - 1) * (q - 1) * ones(1, gamma),
        (q - 1) * ones(1, beta),
    ]
    if matrix_kind == "adjacency":
        b22 = (p - 2) * identity(alpha)
        b23 = (p - 1) * (q - 1) * kron(identity(alpha), ones(1, beta))
        b24 = (q - 1) * ones(alpha, beta) if enh else zeros(alpha, beta)
        b32 = (p - 1) * kron(identity(alpha), ones(beta, 1))
        b33 = ((p - 1) * (q - 1) - 1) * identity(gamma)
        b34 = (q - 1) * kron(ones(alpha, 1), identity(beta))
        b42 = (p - 1) * ones(beta, alpha) if enh else zeros(beta, alpha)
        b43 = (p - 1) * (q - 1) * kron(ones(1, alpha), identity(beta))
        b44 = (q - 2) * identity(beta)
    else:
        jmi_a = 2 * ones(alpha, alpha) - identity(alpha)  # 2J - I
        jmi_b = 2 * ones(beta, beta) - identity(beta)
        jmi_g = 2 * ones(gamma, gamma) - identity(gamma)
        b22 = p * jmi_a - 2 * ones(alpha, alpha)
        b23 = (p - 1) * (q - 1) * kron(jmi_a, ones(1, beta))
        b24 = (q - 1) * ones(alpha, beta) if enh else 2 * (q - 1) * ones(alpha, beta)
        b32 = (p - 1) * kron(jmi_a, ones(beta, 1))
        b33 = (p - 1) * (q - 1) * jmi_g - identity(gamma)
        b34 = (q - 1) * kron(ones(alpha, 1), jmi_b)
        b42 = (p - 1) * ones(beta, alpha) if enh else 2 * (p - 1) * ones(beta, alpha)
        b43 = (p - 1) * (q - 1) * kron(ones(1, alpha), jmi_b)
        b44 = q * jmi_b - 2 * ones(beta, beta)
    t2 = block(
        [
            row1,
            [ones(alpha, 1), b22, b23, b24],
            [ones(gamma, 1), b32, b33, b34],
            [ones(beta, 1), b42, b43, b44],
        ]
    )
    return t1, t2


def elab_product_BC(p: int, n: int, q: int, m: int, matrix_kind: str) -> tuple[IntMatrix, IntMatrix]:
    """The 2x2 companion matrices whose characteristic polynomials carry the
    repeated factors of the refined quotient's factorization."""
    _check_product(p, n, q, m)
    _require(matrix_kind in ("adjacency", "distance"), f"unknown matrix kind {matrix_kind!r}")
    pn, qm = p**n, q**m
    if matrix_kind == "adjacency":
        b = IntMatrix.from_rows([[p - 2, (p - 1) * (qm - 1)], [p - 1, (p - 1) * (q - 1) - 1]])
        c = IntMatrix.from_rows([[(p - 1) * (q - 1) - 1, q - 1], [(pn - 1) * (q - 1), q - 2]])
    else:
        b = IntMatrix.from_rows([[-p, (1 - p) * (qm - 1)], [1 - p, (1 - p) * (q - 1) - 1]])
        c = IntMatrix.from_rows([[(p - 1) * (1 - q) - 1, 1 - q], [(pn - 1) * (1 - q), -q]])
    return b, c


def cf_elab_product(
    p: int, n: int, q: int, m: int, graph_kind: str, matrix_kind: str
) -> FactoredPoly:
    """Characteristic polynomial (adjacency or distance) of the power graph or
    enhanced power graph of El(p^n) x El(q^m)."""
    _check_product(p, n, q, m)
    _check_kinds(graph_kind, matrix_kind)
    pn, qm = p**n, q**m
    alpha = (pn - 1) // (p - 1)
    beta = (qm - 1) // (q - 1)
    phi_t1 = char_poly(_product_t1(p, n, q, m, graph_kind, matrix_kind))
    b, c = elab_product_BC(p, n, q, m, matrix_kind)
    if matrix_kind == "adjacency":
        middle = x_plus(-(p * q - p - q))  # x - (pq - p - q)
    else:
        middle = x_plus((p - 1) * (q - 1) + 1)
    return FactoredPoly.of(
        (phi_t1, 1),
        (x_plus(1), pn * qm - (alpha + 1) * (beta + 1)),
        (middle, (alpha - 1) * (beta - 1)),
        (char_poly(b), alpha - 1),
        (char_poly(c), beta - 1),
    )


# ---------------------------------------------------------------------------
# Closed forms: elementary abelian times cyclic
# ---------------------------------------------------------------------------


def _check_elab_cyclic(p: int, n: int, m: int) -> None:
    _require(is_prime(p), f"p must be prime, got {p}")
    _require(n >= 2, f"need n >= 2, got {n}")
    _require(m >= 1, f"need m >= 1, got {m}")
    _require(m % p != 0, f"need gcd(m, p) = 1, got m={m}, p={p}")


def cf_elab_times_cyclic_distance(p: int, n: int, m: int) -> FactoredPoly:
    """Distance characteristic polynomial of the enhanced power graph of
    El(p^n) x Z_m with gcd(m, p) = 1 and n >= 2."""
    _check_elab_cyclic(p, n, m)
    pn = p**n
    alpha = (pn - 1) // (p - 1)
    quad = IntPolynomial(
        (
            m * m * (pn - p) - 2 * m * pn + m * p + 1,
            m * p + 2 - 2 * m * pn,
            1,
        )
    )
    return FactoredPoly.of(
        (x_plus(m * p - m + 1), alpha - 1),
        (x_plus(1), (m * p - m - 1) * alpha + m - 1),
        (quad, 1),
    )


def cf_elab_distance(p: int, n: int) -> FactoredPoly:
    """Distance characteristic polynomial of the enhanced power graph of
    El(p^n) (which coincides with its power graph)."""
    _require(is_prime(p), f"p must be prime, got {p}")
    _require(n >= 1, f"need n >= 1, got {n}")
    pn = p**n
    alpha = (pn - 1) // (p - 1)
    quad = IntPolynomial((-(pn - 1), -(2 * pn - p - 2), 1))
    return FactoredPoly.of(
        (x_plus(p), alpha - 1),
        (x_plus(1), (p - 2) * alpha),
        (quad, 1),
    )


# ---------------------------------------------------------------------------
# Join-based distance spectrum
# ---------------------------------------------------------------------------


def cf_join_distance(spec: JoinSpec) -> IntPolynomial:
    """Distance characteristic polynomial of a blow-up, from the spec alone.

    Every part must be complete (lambda = 1) or edgeless (lambda = 2) and
    the outer graph connected.  Two vertices of part i are then at distance
    lambda_i, and vertices of parts i != j at the outer distance d(i, j), so
    the parts are an equitable partition of the distance matrix with quotient

        TD[i][j] = n_j * d(i, j),      TD[i][i] = lambda_i * (n_i - 1),

    and the result is ``char_poly(TD)`` times ``(x + lambda_i)**(n_i - 1)``
    per part (Cardoso, de Freitas, Martins, Robbiano, Discrete Math. 313,
    2013).  Nothing is computed from the joined graph itself.
    """
    sizes = [part.vertex_count for part in spec.parts]
    lams = []
    for i, part in enumerate(spec.parts):
        if part.vertex_count == 0:
            raise SizeMismatch(f"part {i} has no vertices")
        if part.is_complete():
            lams.append(1)
        elif part.edge_count == 0:
            lams.append(2)
        else:
            raise PartNotComplete(f"part {i} is neither complete nor edgeless")
    if lams == [2]:
        raise DisconnectedGraph("an edgeless part with no neighbouring part is disconnected")
    outer = distance_matrix(spec.outer).to_rows()
    td = [[n_j * d for n_j, d in zip(sizes, row)] for row in outer]
    for i, lam in enumerate(lams):
        td[i][i] = lam * (sizes[i] - 1)
    out = char_poly(IntMatrix.from_rows(td))
    for n_i, lam in zip(sizes, lams):
        out = out * x_plus(lam) ** (n_i - 1)
    return out


# ---------------------------------------------------------------------------
# Join decompositions for the supported families
# ---------------------------------------------------------------------------


def _star(k: int) -> Graph:
    return Graph.from_edges(k + 1, [(0, i + 1) for i in range(k)])


# Family -> the family partition whose cells are the complete parts of a
# star join (the identity's cell at the centre).
_EPG_STAR_PARTITIONS = {
    "gpq": "gpq-sylow",
    "dihedral": "dihedral",
    "dicyclic": "dicyclic",
    "elementary-abelian": "elab-times-cyclic",
    "elab-cyclic": "elab-times-cyclic",
}


def epg_join_form(g: FiniteGroup) -> tuple[JoinSpec, Partition]:
    """Join decomposition of the enhanced power graph, plus the partition
    whose flattened cells give the natural block-to-vertex bijection."""
    if g.spec is None:
        raise FamilyMismatch("group carries no family information")
    family, _params = family_of(g.spec) or (None, None)
    if family == "elab-product":
        return _elab_product_join_form(g, enhanced=True)
    if family not in _EPG_STAR_PARTITIONS:
        raise FamilyMismatch(f"no join decomposition catalogued for {g.spec.describe()}")
    part = family_partition(g, _EPG_STAR_PARTITIONS[family])
    return _complete_blow_up(_star(len(part.cells) - 1), part)


def pg_join_form(g: FiniteGroup) -> tuple[JoinSpec, Partition]:
    """Join decomposition of the power graph of El(p^n) x El(q^m)."""
    return _elab_product_join_form(g, enhanced=False)


def _elab_product_join_form(g: FiniteGroup, enhanced: bool) -> tuple[JoinSpec, Partition]:
    family, d = (family_of(g.spec) if g.spec is not None else None) or (None, None)
    if family != "elab-product":
        raise FamilyMismatch("need a direct product of two elementary abelian groups")
    p, n, q, m = d["p"], d["n"], d["q"], d["m"]
    alpha = (p**n - 1) // (p - 1)
    beta = (q**m - 1) // (q - 1)
    template = figure1_gamma_prime(alpha, beta) if enhanced else figure1_gamma(alpha, beta)
    return _complete_blow_up(cone(template), family_partition(g, "elab-product-fine"))


def _complete_blow_up(outer: Graph, part: Partition) -> tuple[JoinSpec, Partition]:
    """Outer vertex i blown up to a complete part the size of cell i."""
    return JoinSpec(outer, tuple(complete_graph(len(cell)) for cell in part.cells)), part


def proper_power_zn_join_form(n: int) -> tuple[JoinSpec, Partition]:
    """Divisor-pattern join decomposition of the proper power graph of Z_n.

    Parts are the generators (a complete part of size phi(n)) followed by one
    complete part per proper nontrivial divisor d, ascending, holding the
    phi(d) elements of order d.  The outer graph is a cone over the divisor
    divisibility graph.  Returns the spec and the partition whose flattened
    cells give the block-to-vertex bijection (vertex v - 1 is element v).
    """
    _require(n >= 2, f"proper power graph of Z_n needs n >= 2, got {n}")
    _phi, divs = totient_and_divisors(n)
    delta = Graph.from_edges(
        len(divs),
        [
            (i, j)
            for i in range(len(divs))
            for j in range(i + 1, len(divs))
            if divs[j] % divs[i] == 0
        ],
    )
    orders = [n // math.gcd(v, n) for v in range(1, n)]
    part = Partition.of([[u for u, o in enumerate(orders) if o == d] for d in (n, *divs)])
    return _complete_blow_up(cone(delta), part)


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremCase:
    """One parameter tuple of one catalogued theorem."""

    theorem_id: str
    params: tuple[tuple[str, int], ...]
    graph_kind: str
    matrix_kind: str

    def params_dict(self) -> dict[str, int]:
        return dict(self.params)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.theorem_id}({inner})"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of re-deriving one closed form by brute force.

    ``equal`` is None for informational cases that carry no closed-form
    claim; those never count as failures.
    """

    case: TheoremCase
    group_order: int
    brute_force: IntPolynomial
    closed_form: FactoredPoly | None
    equal: bool | None
    elapsed_ms: int
    note: str = ""

    def to_json_obj(self) -> dict:
        return {
            "theorem_id": self.case.theorem_id,
            "params": self.case.params_dict(),
            "graph": self.case.graph_kind,
            "matrix": self.case.matrix_kind,
            "group_order": self.group_order,
            "equal": self.equal,
            "elapsed_ms": self.elapsed_ms,
            "closed_form": None if self.closed_form is None else self.closed_form.to_json_obj(),
            "brute_force": self.brute_force.to_json_obj(),
            "note": self.note,
        }


@dataclass(frozen=True)
class _Theorem:
    """One catalogued theorem about a family of the ``groups.FAMILIES`` table.

    ``lookup_kinds`` are the graph kinds for which :func:`closed_form_for`
    answers with this theorem: by default its own kind, more when two graphs
    coincide on the family, none when ``closed_form`` is not a closed form.
    """

    theorem_id: str
    family: str
    graph_kind: str
    matrix_kind: str
    check: Callable[[dict[str, int]], None]
    closed_form: Callable[[dict[str, int]], FactoredPoly | None]
    cases: Callable[[int], list[dict[str, int]]]
    note_for: Callable[[dict[str, int]], str] | None = None
    lookup_kinds: tuple[str, ...] | None = None

    @property
    def param_names(self) -> tuple[str, ...]:
        return FAMILY_PARAMS[self.family]

    def build_group(self, params: dict[str, int]) -> FiniteGroup:
        return make_group(family_spec(self.family, params))

    def answers(self, graph_kind: str) -> bool:
        kinds = (self.graph_kind,) if self.lookup_kinds is None else self.lookup_kinds
        return graph_kind in kinds


def _primes_upto(k: int) -> list[int]:
    return [v for v in range(2, k + 1) if is_prime(v)]


def _gpq_cases(max_order: int) -> list[dict[str, int]]:
    out = []
    for q in _primes_upto(max_order // 2):
        for p in _primes_upto(q - 1):
            if (q - 1) % p == 0 and p * q <= max_order:
                out.append({"p": p, "q": q})
    out.sort(key=lambda d: (d["p"] * d["q"], d["p"]))
    return out


def _n_cases(max_order: int, per_n: int, n_min: int = 3) -> list[dict[str, int]]:
    return [{"n": n} for n in range(n_min, max_order // per_n + 1)]


def _product_cases(max_order: int) -> list[dict[str, int]]:
    out = []
    for p in _primes_upto(max_order // 2):
        for q in _primes_upto(max_order // p):
            if p == q:
                continue
            n = 1
            while p**n * q <= max_order:
                m = 1
                while p**n * q**m <= max_order:
                    out.append({"p": p, "n": n, "q": q, "m": m})
                    m += 1
                n += 1
    out.sort(key=lambda d: (d["p"] ** d["n"] * d["q"] ** d["m"], d["p"], d["n"], d["q"], d["m"]))
    return out


def _elab_cyclic_cases(max_order: int) -> list[dict[str, int]]:
    out = []
    for p in _primes_upto(max_order):
        n = 2
        while p**n * 2 <= max_order:
            for m in range(2, max_order // p**n + 1):
                if m % p != 0:
                    out.append({"p": p, "n": n, "m": m})
            n += 1
    out.sort(key=lambda d: (d["p"] ** d["n"] * d["m"], d["p"], d["n"], d["m"]))
    return out


def _elab_cases(max_order: int) -> list[dict[str, int]]:
    out = []
    for p in _primes_upto(max_order):
        n = 1
        while p**n <= max_order:
            out.append({"p": p, "n": n})
            n += 1
    out.sort(key=lambda d: (d["p"] ** d["n"], d["p"]))
    return out


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _check_n(d: dict[str, int]) -> None:
    _require(d["n"] >= 3, "need n >= 3")


def _dicyclic_pg_note(params: dict[str, int]) -> str:
    n = params["n"]
    if _is_power_of_two(n):
        return ""
    return (
        "informational: the power graph differs from the enhanced power graph "
        f"for n={n} (not a power of two), so no closed form is claimed"
    )


_ELAB_NOTE = (
    "all-ones linear factor carries multiplicity (p-2)*alpha from the displayed "
    "formula; the surrounding prose's (n-2)*alpha reading is treated as a typo"
)


def _product_theorem(graph_kind: str, matrix_kind: str) -> _Theorem:
    short = {"power": "pg", "enhanced": "epg"}[graph_kind]
    return _Theorem(
        theorem_id=f"{short}-elab-product-{matrix_kind}",
        family="elab-product",
        graph_kind=graph_kind,
        matrix_kind=matrix_kind,
        check=lambda d: _check_product(d["p"], d["n"], d["q"], d["m"]),
        closed_form=lambda d: cf_elab_product(
            d["p"], d["n"], d["q"], d["m"], graph_kind, matrix_kind
        ),
        cases=_product_cases,
    )


_THEOREM_LIST = (
    _Theorem(
        "epg-gpq-distance",
        "gpq",
        "enhanced",
        "distance",
        check=lambda d: _check_gpq(d["p"], d["q"]),
        closed_form=lambda d: cf_epg_gpq_distance(d["p"], d["q"]),
        cases=_gpq_cases,
        lookup_kinds=("enhanced", "power"),  # the two graphs coincide
    ),
    _Theorem(
        "epg-dihedral-distance",
        "dihedral",
        "enhanced",
        "distance",
        check=_check_n,
        closed_form=lambda d: cf_epg_dihedral_distance(d["n"]),
        cases=lambda mo: _n_cases(mo, 2),
    ),
    _Theorem(
        "pg-dihedral-distance",
        "dihedral",
        "power",
        "distance",
        check=_check_n,
        closed_form=lambda d: _pg_dihedral_closed_form(d["n"]),
        cases=lambda mo: _n_cases(mo, 2),
        lookup_kinds=(),  # a brute-force recursion over Z_n, not a closed form
    ),
    _Theorem(
        "epg-dicyclic-distance",
        "dicyclic",
        "enhanced",
        "distance",
        check=_check_n,
        closed_form=lambda d: cf_epg_dicyclic_distance(d["n"]),
        cases=lambda mo: _n_cases(mo, 4),
    ),
    _Theorem(
        "pg-dicyclic-distance",
        "dicyclic",
        "power",
        "distance",
        check=_check_n,
        closed_form=lambda d: cf_epg_dicyclic_distance(d["n"])
        if _is_power_of_two(d["n"])
        else None,
        cases=lambda mo: _n_cases(mo, 4),
        note_for=_dicyclic_pg_note,
    ),
    _product_theorem("power", "adjacency"),
    _product_theorem("power", "distance"),
    _product_theorem("enhanced", "adjacency"),
    _product_theorem("enhanced", "distance"),
    _Theorem(
        "epg-elab-cyclic-distance",
        "elab-cyclic",
        "enhanced",
        "distance",
        check=lambda d: _check_elab_cyclic(d["p"], d["n"], d["m"]),
        closed_form=lambda d: cf_elab_times_cyclic_distance(d["p"], d["n"], d["m"]),
        cases=_elab_cyclic_cases,
    ),
    _Theorem(
        "epg-elab-distance",
        "elementary-abelian",
        "enhanced",
        "distance",
        check=lambda d: _require(is_prime(d["p"]) and d["n"] >= 1, "need prime p and n >= 1"),
        closed_form=lambda d: cf_elab_distance(d["p"], d["n"]),
        cases=_elab_cases,
        note_for=lambda d: _ELAB_NOTE,
        lookup_kinds=("enhanced", "power"),  # the two graphs coincide
    ),
)

THEOREMS: dict[str, _Theorem] = {t.theorem_id: t for t in _THEOREM_LIST}

THEOREM_IDS: tuple[str, ...] = tuple(t.theorem_id for t in _THEOREM_LIST)


def _pg_dihedral_closed_form(n: int) -> FactoredPoly:
    zn = make_cyclic(n)
    pz = char_poly(distance_matrix(power_graph(zn)))
    pzstar = char_poly(distance_matrix(proper_power_graph(zn)))
    return FactoredPoly.of((cf_pg_dihedral_distance_rhs(n, pz, pzstar), 1))


def _theorem(theorem_id: str) -> _Theorem:
    try:
        return THEOREMS[theorem_id]
    except KeyError:
        raise HypothesisViolated(
            f"unknown theorem id {theorem_id!r}; known ids: {', '.join(THEOREM_IDS)}"
        ) from None


def make_case(theorem_id: str, **params: int) -> TheoremCase:
    """Build a case for a catalogued theorem, checking parameter names."""
    thm = _theorem(theorem_id)
    if set(params) != set(thm.param_names):
        raise HypothesisViolated(
            f"{theorem_id} takes parameters {thm.param_names}, got {tuple(sorted(params))}"
        )
    return TheoremCase(
        theorem_id,
        tuple((k, int(params[k])) for k in thm.param_names),
        thm.graph_kind,
        thm.matrix_kind,
    )


def check_case(case: TheoremCase) -> None:
    """Raise :class:`HypothesisViolated` when parameters break the hypotheses."""
    THEOREMS[case.theorem_id].check(case.params_dict())


def verify(case: TheoremCase) -> VerificationReport:
    """Recompute one closed form by brute force and compare exactly.

    Construction errors become failed reports (never exceptions), so sweeps
    always run to completion.
    """
    start = time.perf_counter()
    thm = THEOREMS[case.theorem_id]
    params = case.params_dict()
    note = thm.note_for(params) if thm.note_for is not None else ""
    try:
        thm.check(params)
        group = thm.build_group(params)
        graph = GRAPH_BUILDERS[case.graph_kind](group)
        if case.matrix_kind == "distance":
            matrix = distance_matrix(graph)
        else:
            matrix = adjacency_matrix(graph)
        brute = char_poly(matrix)
        closed = thm.closed_form(params)
        equal: bool | None = closed.expand() == brute if closed is not None else None
        order = group.order
    except SpectraError as exc:
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        failure = f"{type(exc).__name__}: {exc}"
        return VerificationReport(
            case, 0, IntPolynomial(), None, False, elapsed_ms,
            note=f"{note}; {failure}" if note else failure,
        )
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(case, order, brute, closed, equal, elapsed_ms, note)


def enumerate_cases(
    max_order: int = DEFAULT_MAX_ORDER, theorem_ids: Sequence[str] | None = None
) -> list[TheoremCase]:
    """All catalogued cases with group order at most ``max_order``."""
    ids = THEOREM_IDS if theorem_ids is None else tuple(theorem_ids)
    out = []
    for tid in ids:
        for params in _theorem(tid).cases(max_order):
            out.append(make_case(tid, **params))
    return out


def verify_sweep(
    theorem_ids: Sequence[str] | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
    jobs: int = 1,
) -> list[VerificationReport]:
    """Verify every enumerated case; report order is deterministic.

    ``jobs > 1`` runs cases in worker processes; results are collected in
    submission order, so scheduling never changes the output.
    """
    return parallel_map(verify, enumerate_cases(max_order, theorem_ids), jobs)


def parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """``[fn(x) for x in items]``, over at most ``jobs`` worker processes.

    The worker count is clamped to the number of items and of CPUs; with
    one worker everything runs in this process.  Results keep item order.
    """
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def closed_form_for(
    spec: GroupFamilySpec, graph_kind: str, matrix_kind: str
) -> FactoredPoly | None:
    """The catalogued closed form for a family/graph/matrix combination.

    Returns None when the catalog makes no claim for the combination.
    """
    family, params = family_of(spec) or (None, None)
    for thm in _THEOREM_LIST:
        if (thm.family, thm.matrix_kind) == (family, matrix_kind) and thm.answers(graph_kind):
            try:
                return thm.closed_form(params)
            except HypothesisViolated:
                return None
    return None
