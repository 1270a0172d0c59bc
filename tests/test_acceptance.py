"""End-to-end acceptance checks for the closed-form catalog.

Each test is one acceptance criterion; together they re-derive every
catalogued characteristic polynomial by brute force on explicitly built
graphs and compare exactly (integer equality, tolerance zero).  Every
criterion emits a single verdict line so a full run reads as a checklist;
the lines go straight to the real stdout so they survive pytest's capture.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from functools import lru_cache

import pytest

from helpers import (
    char_poly_oracle,
    determinant_oracle,
    elab_product_join_oracle,
    proper_power_zn_join_oracle,
    same_blow_up,
    star_join_oracle,
)
from pgspectra import (
    FiniteGroup,
    Graph,
    IntMatrix,
    build_T1_T2,
    cf_elab_distance,
    cf_elab_product,
    cf_elab_times_cyclic_distance,
    cf_epg_dicyclic_distance,
    cf_epg_dihedral_distance,
    cf_epg_gpq_determinant,
    cf_epg_gpq_distance,
    cf_join_distance,
    cf_pg_dihedral_distance_rhs,
    char_poly,
    dense_char_poly,
    coarsest_equitable_partition,
    determinant,
    direct_product,
    distance_matrix,
    distance_quotient_matrix,
    elab_product_BC,
    enhanced_power_graph,
    family_partition,
    join_form,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_elementary_abelian,
    make_gpq,
    poly_exact_div,
    power_graph,
    proper_power_graph,
    quotient_matrix,
    verify_join_form,
    x_plus,
)
from pgspectra.theorems import GRAPH_BUILDERS

GPQ_PAIRS = ((2, 3), (2, 5), (2, 7), (2, 11), (3, 7), (2, 13), (3, 13))
DIHEDRAL_NS = tuple(range(3, 17))
DICYCLIC_NS = tuple(range(3, 11))
PRODUCT_TUPLES = ((2, 2, 3, 1), (2, 1, 3, 2), (2, 2, 3, 2), (2, 3, 3, 1), (3, 1, 2, 2), (3, 2, 2, 1))
ELAB_CYCLIC_TUPLES = ((2, 2, 3), (2, 2, 5), (2, 3, 3), (3, 2, 2), (2, 2, 7))
ELAB_TUPLES = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2))


@pytest.fixture
def criterion(capsys):
    """Times a criterion body and emits exactly one PASS/FAIL line.

    The line is written with capture disabled so a plain ``pytest -v`` run
    shows the whole checklist.
    """

    def emit(number: int, status: str, elapsed: float, notes: list[str]) -> None:
        tail = f"  # {'; '.join(notes)}" if notes else ""
        with capsys.disabled():
            print(f"CRITERION {number:02d}: {status} ({elapsed:.2f} s){tail}", flush=True)

    @contextmanager
    def run(number: int, budget: float | None = None):
        notes: list[str] = []
        start = time.perf_counter()
        try:
            yield notes
        except BaseException:
            emit(number, "FAIL", time.perf_counter() - start, notes)
            raise
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            emit(number, "FAIL", elapsed, notes + [f"over {budget:g} s budget"])
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f} s, budget {budget:g} s"
            )
        emit(number, "PASS", elapsed, notes)

    return run


# cached builders: several criteria revisit the same groups and graphs


@lru_cache(maxsize=None)
def gpq_enhanced(p: int, q: int) -> Graph:
    return enhanced_power_graph(make_gpq(p, q))


@lru_cache(maxsize=None)
def product_group(p: int, n: int, q: int, m: int) -> FiniteGroup:
    return direct_product(make_elementary_abelian(p, n), make_elementary_abelian(q, m))


@lru_cache(maxsize=None)
def product_graph(p: int, n: int, q: int, m: int, graph_kind: str) -> Graph:
    g = product_group(p, n, q, m)
    return power_graph(g) if graph_kind == "power" else enhanced_power_graph(g)


@lru_cache(maxsize=None)
def distance_poly(graph: Graph):
    return dense_char_poly(distance_matrix(graph))


def test_criterion_01_gpq_distance_spectra(criterion):
    with criterion(1, budget=5.0):
        for p, q in GPQ_PAIRS:
            got = cf_epg_gpq_distance(p, q).expand()
            assert got == distance_poly(gpq_enhanced(p, q)), (p, q)


def test_criterion_02_gpq_distance_determinants(criterion):
    with criterion(2) as notes:
        signs = []
        for p, q in GPQ_PAIRS:
            det = determinant(distance_matrix(gpq_enhanced(p, q)))
            assert det != 0, (p, q)
            assert abs(det) == cf_epg_gpq_determinant(p, q), (p, q)
            assert cf_epg_gpq_determinant(p, q) == p ** (q - 1) * (
                p * (q * q + q - 1) - q * q
            )
            signs.append("+" if det > 0 else "-")
        notes.append("det signs " + "".join(signs))


def test_criterion_03_dihedral_enhanced_distance_spectra(criterion):
    with criterion(3, budget=10.0):
        for n in DIHEDRAL_NS:
            graph = enhanced_power_graph(make_dihedral(n))
            assert cf_epg_dihedral_distance(n).expand() == distance_poly(graph), n


def test_criterion_04_dihedral_power_graph_recursion(criterion):
    with criterion(4, budget=10.0):
        for n in DIHEDRAL_NS:
            zn = make_cyclic(n)
            pz = distance_poly(power_graph(zn))
            pzstar = distance_poly(proper_power_graph(zn))
            rhs = cf_pg_dihedral_distance_rhs(n, pz, pzstar)
            assert rhs == distance_poly(power_graph(make_dihedral(n))), n


def test_criterion_05_dicyclic_distance_spectra(criterion):
    with criterion(5, budget=20.0):
        for n in DICYCLIC_NS:
            closed = cf_epg_dicyclic_distance(n).expand()
            assert closed == distance_poly(enhanced_power_graph(make_dicyclic(n))), n
            if n in (4, 8):  # power graph coincides when n is a power of two
                assert closed == distance_poly(power_graph(make_dicyclic(n))), n


def test_criterion_06_elab_product_all_four_theorems(criterion):
    with criterion(6, budget=60.0):
        from pgspectra import adjacency_matrix

        for p, n, q, m in PRODUCT_TUPLES:
            for graph_kind in ("power", "enhanced"):
                graph = product_graph(p, n, q, m, graph_kind)
                for matrix_kind in ("adjacency", "distance"):
                    if matrix_kind == "adjacency":
                        brute = char_poly(adjacency_matrix(graph))
                    else:
                        brute = distance_poly(graph)
                    closed = cf_elab_product(p, n, q, m, graph_kind, matrix_kind).expand()
                    assert closed == brute, (p, n, q, m, graph_kind, matrix_kind)


def test_criterion_07_quotient_matrices_and_factorization(criterion):
    with criterion(7):
        for p, n, q, m in PRODUCT_TUPLES:
            g = product_group(p, n, q, m)
            coarse = family_partition(g, "elab-product-coarse")
            fine = family_partition(g, "elab-product-fine")
            alpha = (p**n - 1) // (p - 1)
            beta = (q**m - 1) // (q - 1)
            for graph_kind in ("power", "enhanced"):
                graph = product_graph(p, n, q, m, graph_kind)
                for matrix_kind in ("adjacency", "distance"):
                    t1, t2 = build_T1_T2(p, n, q, m, graph_kind, matrix_kind)
                    if matrix_kind == "adjacency":
                        assert t1 == quotient_matrix(graph, coarse)
                        assert t2 == quotient_matrix(graph, fine)
                        middle = x_plus(-(p * q - p - q))
                    else:
                        assert t1 == distance_quotient_matrix(graph, coarse)
                        assert t2 == distance_quotient_matrix(graph, fine)
                        middle = x_plus((p - 1) * (q - 1) + 1)
                    b, c = elab_product_BC(p, n, q, m, matrix_kind)
                    assert char_poly(t2) == (
                        char_poly(t1)
                        * middle ** ((alpha - 1) * (beta - 1))
                        * char_poly(b) ** (alpha - 1)
                        * char_poly(c) ** (beta - 1)
                    ), (p, n, q, m, graph_kind, matrix_kind)


def test_criterion_08_structured_eigenvectors(criterion):
    with criterion(8):
        for p, n, q, m in PRODUCT_TUPLES:
            alpha = (p**n - 1) // (p - 1)
            beta = (q**m - 1) // (q - 1)
            for graph_kind in ("power", "enhanced"):
                for matrix_kind, lam in (
                    ("adjacency", p * q - p - q),
                    ("distance", -((p - 1) * (q - 1) + 1)),
                ):
                    _, t2 = build_T1_T2(p, n, q, m, graph_kind, matrix_kind)
                    for i in range(1, alpha):
                        for j in range(1, beta):
                            v = [1] + [0] * (alpha - 1)
                            v[i] = -1
                            w = [1] + [0] * (beta - 1)
                            w[j] = -1
                            grid = [va * wb for va in v for wb in w]
                            y = [0] * (1 + alpha) + grid + [0] * beta
                            t2y = [
                                sum(a * b for a, b in zip(t2.row(k), y)) for k in range(t2.rows)
                            ]
                            assert t2y == [lam * yk for yk in y], (
                                p, n, q, m, graph_kind, matrix_kind, i, j,
                            )


def test_criterion_09_elab_cyclic_and_bare_elab_spectra(criterion):
    with criterion(9, budget=30.0):
        for p, n, m in ELAB_CYCLIC_TUPLES:
            g = direct_product(make_elementary_abelian(p, n), make_cyclic(m))
            closed = cf_elab_times_cyclic_distance(p, n, m).expand()
            assert closed == distance_poly(enhanced_power_graph(g)), (p, n, m)
        for p, n in ELAB_TUPLES:
            g = make_elementary_abelian(p, n)
            closed = cf_elab_distance(p, n).expand()
            assert closed == distance_poly(enhanced_power_graph(g)), (p, n)


def _criterion_ten_pairs():
    """Every (graph, partition) pair the earlier criteria touch.

    Family partitions where one is catalogued for the graph; the coarsest
    equitable partition otherwise (power graphs of dihedral groups, cyclic
    power graphs and their proper variants).
    """
    for p, q in GPQ_PAIRS:
        g = make_gpq(p, q)
        yield gpq_enhanced(p, q), family_partition(g, "gpq-sylow")
    for n in DIHEDRAL_NS:
        g = make_dihedral(n)
        yield enhanced_power_graph(g), family_partition(g, "dihedral")
        pg = power_graph(g)
        yield pg, coarsest_equitable_partition(pg)
        zn = make_cyclic(n)
        for graph in (power_graph(zn), proper_power_graph(zn)):
            yield graph, coarsest_equitable_partition(graph)
    for n in DICYCLIC_NS:
        g = make_dicyclic(n)
        yield enhanced_power_graph(g), family_partition(g, "dicyclic")
        if n in (4, 8):
            yield power_graph(g), family_partition(g, "dicyclic")
    for p, n, q, m in PRODUCT_TUPLES:
        g = product_group(p, n, q, m)
        for graph_kind in ("power", "enhanced"):
            graph = product_graph(p, n, q, m, graph_kind)
            yield graph, family_partition(g, "elab-product-coarse")
            yield graph, family_partition(g, "elab-product-fine")
    for p, n, m in ELAB_CYCLIC_TUPLES:
        g = direct_product(make_elementary_abelian(p, n), make_cyclic(m))
        yield enhanced_power_graph(g), family_partition(g, "elab-times-cyclic")
    for p, n in ELAB_TUPLES:
        g = make_elementary_abelian(p, n)
        yield enhanced_power_graph(g), family_partition(g, "elab-times-cyclic")


def test_criterion_10_quotient_divides_distance_polynomial(criterion):
    with criterion(10) as notes:
        count = 0
        for graph, part in _criterion_ten_pairs():
            whole = distance_poly(graph)
            quotient_part = char_poly(distance_quotient_matrix(graph, part))
            cofactor = poly_exact_div(whole, quotient_part)
            assert cofactor * quotient_part == whole
            count += 1
        notes.append(f"{count} graph/partition pairs")


def test_criterion_11_join_forms(criterion):
    with criterion(11) as notes:
        groups = [
            make_gpq(2, 5),
            make_gpq(3, 7),
            make_dihedral(6),
            make_dihedral(9),
            make_dicyclic(3),
            make_dicyclic(5),
            direct_product(make_elementary_abelian(2, 2), make_cyclic(3)),
            direct_product(make_elementary_abelian(3, 2), make_cyclic(2)),
        ]
        el49 = product_group(2, 2, 3, 2)
        # (group, graph kind, the family's own join form)
        forms = [(g, "enhanced", star_join_oracle(g)) for g in groups]
        forms.append((el49, "enhanced", elab_product_join_oracle(el49, enhanced=True)))
        forms.append((el49, "power", elab_product_join_oracle(el49, enhanced=False)))
        for n in (6, 8, 12, 30):
            forms.append((make_cyclic(n), "proper-power", proper_power_zn_join_oracle(n)))
        for g, kind, oracle in forms:
            spec, part = join_form(g, kind)
            graph = GRAPH_BUILDERS[kind](g)
            assert same_blow_up((spec, part), oracle), (g.spec, kind)
            assert verify_join_form(graph, spec, part.flatten()), spec
            assert cf_join_distance(spec) == distance_poly(graph), spec
        notes.append(
            f"{len(forms)} join decompositions, each equal to its family form "
            "and predicting its distance polynomial"
        )


def test_criterion_12_oracle_suite(criterion):
    with criterion(12):
        rng = random.Random(1105)
        for trial in range(100):
            size = rng.randint(1, 6)
            m = IntMatrix(
                size, size, tuple(rng.randint(-9, 9) for _ in range(size * size))
            )
            poly = char_poly(m)
            assert poly.coeffs == char_poly_oracle(m), trial
            det = determinant(m)
            assert det == (-1) ** size * poly(0), trial
            assert det == determinant_oracle(m), trial
