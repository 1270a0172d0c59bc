from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    catalog_groups,
    elab_product_join_oracle,
    proper_power_zn_join_oracle,
    record_worker_pools,
    same_blow_up,
    star_join_oracle,
)

from pgspectra import (
    FactoredPoly,
    IntPolynomial,
    JoinSpec,
    THEOREM_IDS,
    TheoremCase,
    adjacency_matrix,
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
    complete_graph,
    determinant,
    direct_product,
    distance_matrix,
    distance_quotient_matrix,
    elab_product_BC,
    empty_graph,
    enhanced_power_graph,
    enumerate_cases,
    family_partition,
    graph_join,
    group_from_json,
    group_to_json,
    join_form,
    make_case,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_elementary_abelian,
    make_gpq,
    power_graph,
    proper_power_graph,
    quotient_matrix,
    verify,
    verify_sweep,
    verify_join_form,
    x_plus,
)
from pgspectra.errors import (
    DisconnectedGraph,
    FamilyMismatch,
    HypothesisViolated,
    InvalidFamilyParameters,
    PartNotComplete,
    SizeMismatch,
    SpectraError,
)
from pgspectra.groups import MAX_ORDER
from pgspectra import theorems
from pgspectra.theorems import check_case
from pgspectra import GroupFamilySpec, make_group
from pgspectra.graphs import Graph
from pgspectra import groups
from pgspectra.graphs import MATRIX_KINDS
from pgspectra.groups import FAMILIES, FAMILY_PARAMS, bounded_order, family_of, family_spec
from pgspectra.theorems import GRAPH_BUILDERS, THEOREMS, closed_form_for, parallel_map


def brute_distance_poly(graph) -> IntPolynomial:
    return dense_char_poly(distance_matrix(graph))


# ---------------------------------------------------------------------------
# closed forms: frozen values and hypotheses
# ---------------------------------------------------------------------------


def test_gpq_distance_smallest_case():
    f = cf_epg_gpq_distance(2, 3)
    assert f.expand().coeffs == (-52, -204, -285, -174, -42, 0, 1)
    assert f.degree == 6
    # factor structure: (x+1)^1 (x+2)^2 (x^3 - 5x^2 - 25x - 13)
    assert (x_plus(1), 1) in f.factors
    assert (x_plus(2), 2) in f.factors
    assert (IntPolynomial((-13, -25, -5, 1)), 1) in f.factors


def test_gpq_distance_next_odd_case():
    f = cf_epg_gpq_distance(3, 7)
    assert f.degree == 21
    assert (x_plus(1), 12) in f.factors
    assert (x_plus(3), 6) in f.factors
    assert (IntPolynomial((-116, -231, -30, 1)), 1) in f.factors


def test_gpq_distance_matches_brute_force():
    for p, q in [(2, 3), (2, 5)]:
        g = make_gpq(p, q)
        assert cf_epg_gpq_distance(p, q).expand() == brute_distance_poly(
            enhanced_power_graph(g)
        )


def test_gpq_power_graph_gives_the_same_polynomial():
    g = make_gpq(2, 5)
    assert brute_distance_poly(power_graph(g)) == brute_distance_poly(
        enhanced_power_graph(g)
    )


@pytest.mark.parametrize("p,q", [(3, 5), (2, 4), (5, 3), (7, 7), (1, 3)])
def test_gpq_closed_form_checks_hypotheses(p: int, q: int):
    with pytest.raises(HypothesisViolated):
        cf_epg_gpq_distance(p, q)


def test_gpq_determinant_values():
    assert cf_epg_gpq_determinant(2, 3) == 52
    assert cf_epg_gpq_determinant(3, 7) == 3**6 * 116
    d = distance_matrix(enhanced_power_graph(make_gpq(2, 3)))
    assert determinant(d) == -52  # magnitude matches; sign comes from the matrix


def test_dihedral_distance_closed_form():
    f = cf_epg_dihedral_distance(4)
    assert (x_plus(2), 3) in f.factors
    assert (x_plus(1), 2) in f.factors
    assert (IntPolynomial((-22, -43, -8, 1)), 1) in f.factors
    assert f.expand() == brute_distance_poly(enhanced_power_graph(make_dihedral(4)))
    with pytest.raises(HypothesisViolated):
        cf_epg_dihedral_distance(2)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_dihedral_and_gpq_closed_forms_agree_for_p_two(q: int):
    # D_{2q} is the nonabelian group of order 2q
    assert cf_epg_dihedral_distance(q).expand() == cf_epg_gpq_distance(2, q).expand()


def test_dihedral_power_graph_recursion():
    for n in (3, 4, 6):
        zn = make_cyclic(n)
        pz = brute_distance_poly(power_graph(zn))
        pzstar = brute_distance_poly(proper_power_graph(zn))
        rhs = cf_pg_dihedral_distance_rhs(n, pz, pzstar)
        assert rhs == brute_distance_poly(power_graph(make_dihedral(n)))


def test_dihedral_recursion_validates_degrees():
    with pytest.raises(HypothesisViolated):
        cf_pg_dihedral_distance_rhs(4, x_plus(1), x_plus(1) ** 3)
    with pytest.raises(HypothesisViolated):
        cf_pg_dihedral_distance_rhs(4, x_plus(1) ** 4, x_plus(1))


def test_pg_dihedral_prediction_matches_the_brute_force_zn_route():
    for n in (*range(3, 41), 64):
        zn = make_cyclic(n)
        pz = brute_distance_poly(power_graph(zn))
        pzstar = brute_distance_poly(proper_power_graph(zn))
        expected = FactoredPoly.of((cf_pg_dihedral_distance_rhs(n, pz, pzstar), 1))
        assert THEOREMS["pg-dihedral-distance"].closed_form(n=n) == expected, n


def test_predictions_build_no_graph_and_take_no_reduced_char_poly(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a prediction reached the brute-force pipeline")

    for name in ("char_poly", "power_graph", "proper_power_graph", "enhanced_power_graph"):
        monkeypatch.setattr(theorems, name, forbidden)
    for case in enumerate_cases(40):
        THEOREMS[case.theorem_id].closed_form(**case.params_dict())


def test_dicyclic_distance_closed_form():
    f = cf_epg_dicyclic_distance(3)
    assert (x_plus(1), 7) in f.factors
    assert (x_plus(3), 2) in f.factors
    assert (IntPolynomial((-15, -77, -13, 1)), 1) in f.factors
    assert f.expand() == brute_distance_poly(enhanced_power_graph(make_dicyclic(3)))
    with pytest.raises(HypothesisViolated):
        cf_epg_dicyclic_distance(2)


def test_dicyclic_power_graph_agrees_only_in_the_two_power_case():
    # for n a power of two the two graphs coincide, so one polynomial serves both
    four = make_dicyclic(4)
    assert power_graph(four).neighbors == enhanced_power_graph(four).neighbors
    three = make_dicyclic(3)
    assert power_graph(three).neighbors != enhanced_power_graph(three).neighbors


# ---------------------------------------------------------------------------
# closed forms: products of elementary abelian groups
# ---------------------------------------------------------------------------


def test_elab_product_collapses_to_z6_for_trivial_exponents():
    g = direct_product(make_elementary_abelian(2, 1), make_elementary_abelian(3, 1))
    assert cf_elab_product(2, 1, 3, 1, "enhanced", "adjacency").expand() == char_poly(
        adjacency_matrix(enhanced_power_graph(g))
    )
    assert cf_elab_product(2, 1, 3, 1, "power", "distance").expand() == brute_distance_poly(
        power_graph(g)
    )


@pytest.mark.parametrize("graph_kind", ["power", "enhanced"])
@pytest.mark.parametrize("matrix_kind", ["adjacency", "distance"])
def test_elab_product_closed_form_matches_brute_force(graph_kind: str, matrix_kind: str):
    p, n, q, m = 2, 2, 3, 1
    g = direct_product(make_elementary_abelian(p, n), make_elementary_abelian(q, m))
    graph = power_graph(g) if graph_kind == "power" else enhanced_power_graph(g)
    matrix = adjacency_matrix(graph) if matrix_kind == "adjacency" else distance_matrix(graph)
    assert cf_elab_product(p, n, q, m, graph_kind, matrix_kind).expand() == char_poly(matrix)


def test_elab_product_rejects_bad_parameters():
    with pytest.raises(HypothesisViolated):
        cf_elab_product(2, 1, 2, 1, "power", "adjacency")  # equal primes
    with pytest.raises(HypothesisViolated):
        cf_elab_product(4, 1, 3, 1, "power", "adjacency")
    with pytest.raises(HypothesisViolated):
        cf_elab_product(2, 0, 3, 1, "power", "adjacency")
    with pytest.raises(HypothesisViolated):
        cf_elab_product(2, 1, 3, 1, "weird", "adjacency")
    with pytest.raises(HypothesisViolated):
        cf_elab_product(2, 1, 3, 1, "power", "weird")


def test_coarse_quotient_matrix_values():
    t1, _ = build_T1_T2(2, 2, 3, 2, "power", "adjacency")
    assert t1.to_rows() == [
        [0, 3, 24, 8],
        [1, 0, 8, 0],
        [1, 1, 1, 2],
        [1, 0, 6, 1],
    ]


def test_quotients_match_the_actual_graphs():
    p, n, q, m = 2, 2, 3, 1
    g = direct_product(make_elementary_abelian(p, n), make_elementary_abelian(q, m))
    coarse = family_partition(g, "elab-product-coarse")
    fine = family_partition(g, "elab-product-fine")
    for graph_kind in ("power", "enhanced"):
        graph = power_graph(g) if graph_kind == "power" else enhanced_power_graph(g)
        for matrix_kind in ("adjacency", "distance"):
            t1, t2 = build_T1_T2(p, n, q, m, graph_kind, matrix_kind)
            if matrix_kind == "adjacency":
                assert t1 == quotient_matrix(graph, coarse)
                assert t2 == quotient_matrix(graph, fine)
            else:
                assert t1 == distance_quotient_matrix(graph, coarse)
                assert t2 == distance_quotient_matrix(graph, fine)


def test_block_quotient_factorization():
    p, n, q, m = 2, 2, 3, 2
    alpha, beta = 3, 4
    for graph_kind in ("power", "enhanced"):
        for matrix_kind in ("adjacency", "distance"):
            t1, t2 = build_T1_T2(p, n, q, m, graph_kind, matrix_kind)
            b, c = elab_product_BC(p, n, q, m, matrix_kind)
            if matrix_kind == "adjacency":
                middle = x_plus(-(p * q - p - q))
            else:
                middle = x_plus((p - 1) * (q - 1) + 1)
            product = (
                char_poly(t1)
                * middle ** ((alpha - 1) * (beta - 1))
                * char_poly(b) ** (alpha - 1)
                * char_poly(c) ** (beta - 1)
            )
            assert char_poly(t2) == product


def test_block_factor_matrices_distance_case():
    b, c = elab_product_BC(2, 2, 3, 2, "distance")
    assert b.to_rows() == [[-2, -8], [-1, -3]]
    assert c.to_rows() == [[-3, -2], [-6, -3]]


def test_block_factor_matrices_adjacency_case():
    b, c = elab_product_BC(2, 2, 3, 2, "adjacency")
    assert b.to_rows() == [[0, 8], [1, 1]]
    assert c.to_rows() == [[1, 2], [6, 1]]


def test_structured_eigenvectors_on_the_refined_quotient():
    p, n, q, m = 2, 2, 3, 2
    alpha = (p**n - 1) // (p - 1)
    beta = (q**m - 1) // (q - 1)
    assert (alpha, beta) == (3, 4)
    checked = 0
    for matrix_kind, lam in (
        ("adjacency", p * q - p - q),
        ("distance", -((p - 1) * (q - 1) + 1)),
    ):
        _, t2 = build_T1_T2(p, n, q, m, "enhanced", matrix_kind)
        for i in range(1, alpha):
            for j in range(1, beta):
                v = [1] + [0] * (alpha - 1)
                v[i] = -1
                w = [1] + [0] * (beta - 1)
                w[j] = -1
                grid = [v[a] * w[b] for a in range(alpha) for b in range(beta)]
                y = [0] * (1 + alpha) + grid + [0] * beta
                t2y = [sum(a * b for a, b in zip(t2.row(k), y)) for k in range(t2.rows)]
                assert t2y == [lam * yk for yk in y], (matrix_kind, i, j)
                checked += 1
    assert checked == 2 * (alpha - 1) * (beta - 1) == 12


# ---------------------------------------------------------------------------
# closed forms: El(p^n) x Z_m and bare El(p^n)
# ---------------------------------------------------------------------------


def test_elab_times_cyclic_closed_form():
    f = cf_elab_times_cyclic_distance(2, 2, 3)
    assert (x_plus(4), 2) in f.factors
    assert (x_plus(1), 8) in f.factors
    assert (IntPolynomial((1, -16, 1)), 1) in f.factors
    g = direct_product(make_elementary_abelian(2, 2), make_cyclic(3))
    assert f.expand() == brute_distance_poly(enhanced_power_graph(g))


def test_elab_times_cyclic_hypotheses():
    with pytest.raises(HypothesisViolated):
        cf_elab_times_cyclic_distance(2, 1, 3)  # exponent too small
    with pytest.raises(HypothesisViolated):
        cf_elab_times_cyclic_distance(2, 2, 4)  # m shares the prime
    with pytest.raises(HypothesisViolated):
        cf_elab_times_cyclic_distance(6, 2, 5)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_trivial_cyclic_factor_reduces_to_the_bare_form(p: int, n: int):
    assert cf_elab_times_cyclic_distance(p, n, 1).expand() == cf_elab_distance(p, n).expand()


def test_elab_distance_closed_form():
    f = cf_elab_distance(2, 2)
    assert f.expand().coeffs == (-12, -28, -15, 0, 1)  # the star on four vertices
    g = make_elementary_abelian(3, 2)
    assert cf_elab_distance(3, 2).expand() == brute_distance_poly(enhanced_power_graph(g))
    # n = 1 gives a complete graph on p vertices
    assert cf_elab_distance(5, 1).expand() == brute_distance_poly(complete_graph(5))
    with pytest.raises(HypothesisViolated):
        cf_elab_distance(9, 2)


# ---------------------------------------------------------------------------
# join forms
# ---------------------------------------------------------------------------


def test_join_distance_small_example():
    # a path on three vertices as a star join of singleton parts
    spec = JoinSpec(
        Graph.from_edges(3, [(0, 1), (0, 2)]),
        (complete_graph(1),) * 3,
    )
    assert cf_join_distance(spec) == brute_distance_poly(graph_join(spec))


@st.composite
def join_specs(draw) -> JoinSpec:
    """A connected outer graph on at most six vertices (a random spanning
    tree plus random extra edges) with complete or edgeless parts of 1-4
    vertices."""
    k = draw(st.integers(2, 6))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, k)]
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges += [e for e, keep in zip(pairs, mask) if keep]
    parts = tuple(
        draw(st.sampled_from((complete_graph, empty_graph)))(draw(st.integers(1, 4)))
        for _ in range(k)
    )
    return JoinSpec(Graph.from_edges(k, edges), parts)


@settings(max_examples=60, deadline=None)
@given(join_specs())
def test_join_distance_matches_brute_force(spec):
    assert cf_join_distance(spec) == brute_distance_poly(graph_join(spec))


def test_join_distance_needs_no_diameter_two():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    spec = JoinSpec(path, (complete_graph(2), empty_graph(3), complete_graph(1), empty_graph(2)))
    assert cf_join_distance(spec) == brute_distance_poly(graph_join(spec))


def test_join_distance_requires_complete_parts():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    spec = JoinSpec(complete_graph(2), (complete_graph(1), path))
    with pytest.raises(PartNotComplete):
        cf_join_distance(spec)


def test_join_distance_rejects_an_empty_part():
    spec = JoinSpec(complete_graph(2), (complete_graph(1), complete_graph(0)))
    with pytest.raises(SizeMismatch):
        cf_join_distance(spec)


def test_join_distance_rejects_a_disconnected_outer_graph():
    spec = JoinSpec(empty_graph(2), (complete_graph(1), complete_graph(2)))
    with pytest.raises(DisconnectedGraph):
        cf_join_distance(spec)
    with pytest.raises(DisconnectedGraph):  # one edgeless part, nothing to join it
        cf_join_distance(JoinSpec(complete_graph(1), (empty_graph(2),)))


_OUTSIDE_THE_CATALOG = [
    direct_product(make_cyclic(2), make_cyclic(4)),
    direct_product(make_cyclic(4), make_cyclic(4)),
    direct_product(make_dihedral(4), make_cyclic(3)),
    group_from_json(group_to_json(make_gpq(3, 13))),  # JSON carries no family spec
    make_cyclic(1),
]


@pytest.mark.parametrize("kind", list(GRAPH_BUILDERS))
@pytest.mark.parametrize(
    "group",
    catalog_groups(40) + _OUTSIDE_THE_CATALOG,
    ids=lambda g: "json" if g.spec is None else g.spec.describe(),
)
def test_join_form_of_any_group_verifies_and_predicts_the_spectrum(group, kind):
    graph = GRAPH_BUILDERS[kind](group)
    spec, part = join_form(group, kind)
    assert verify_join_form(graph, spec, part.flatten())
    assert [cell[0] for cell in part.cells] == sorted(cell[0] for cell in part.cells)
    assert all(p.is_complete() for p in spec.parts)
    try:
        dense = brute_distance_poly(graph)
    except DisconnectedGraph:
        with pytest.raises(DisconnectedGraph):
            cf_join_distance(spec)
    else:
        assert cf_join_distance(spec) == dense


def test_join_form_rejects_an_unknown_graph_kind():
    with pytest.raises(HypothesisViolated):
        join_form(make_cyclic(4), "commuting")


@pytest.mark.parametrize(
    "group",
    [
        make_gpq(2, 5),
        make_dihedral(5),
        make_dicyclic(4),
        direct_product(make_elementary_abelian(2, 2), make_cyclic(3)),
        make_elementary_abelian(2, 3),
        direct_product(make_elementary_abelian(2, 2), make_elementary_abelian(3, 2)),
        make_elementary_abelian(5, 1),  # cyclic: one complete part
        direct_product(make_elementary_abelian(3, 1), make_cyclic(4)),  # cyclic too
    ],
    ids=lambda g: g.spec.describe(),
)
def test_enhanced_join_forms_verify_and_predict_the_spectrum(group):
    graph = enhanced_power_graph(group)
    spec, part = join_form(group, "enhanced")
    assert verify_join_form(graph, spec, part.flatten())
    assert cf_join_distance(spec) == brute_distance_poly(graph)
    if family_of(group.spec)[0] == "elab-product":
        assert same_blow_up((spec, part), elab_product_join_oracle(group, enhanced=True))
    else:
        assert same_blow_up((spec, part), star_join_oracle(group))


def test_power_join_form_of_the_product_family():
    group = direct_product(make_elementary_abelian(2, 2), make_elementary_abelian(3, 2))
    graph = power_graph(group)
    spec, part = join_form(group, "enhanced")  # the enhanced form does not fit here
    assert not verify_join_form(graph, spec, part.flatten())
    spec, part = join_form(group, "power")
    assert verify_join_form(graph, spec, part.flatten())
    assert same_blow_up((spec, part), elab_product_join_oracle(group, enhanced=False))
    assert cf_join_distance(spec) == brute_distance_poly(graph)


@pytest.mark.parametrize("n", [2, 6, 8, 12, 30])
def test_proper_power_graph_divisor_join(n: int):
    graph = proper_power_graph(make_cyclic(n))
    spec, part = join_form(make_cyclic(n), "proper-power")
    assert verify_join_form(graph, spec, part.flatten())
    assert same_blow_up((spec, part), proper_power_zn_join_oracle(n))


def test_proper_power_graph_divisor_join_predicts_the_spectrum():
    for n in (2, 6, 8, 12, 30):
        spec, _part = join_form(make_cyclic(n), "proper-power")
        assert cf_join_distance(spec) == brute_distance_poly(proper_power_graph(make_cyclic(n)))


# ---------------------------------------------------------------------------
# the verification harness
# ---------------------------------------------------------------------------


def test_theorem_ids_catalogued():
    assert THEOREM_IDS == (
        "epg-gpq-distance",
        "epg-dihedral-distance",
        "pg-dihedral-distance",
        "epg-dicyclic-distance",
        "pg-dicyclic-distance",
        "pg-elab-product-adjacency",
        "pg-elab-product-distance",
        "epg-elab-product-adjacency",
        "epg-elab-product-distance",
        "epg-elab-cyclic-distance",
        "epg-elab-distance",
    )


def test_make_case_and_describe():
    case = make_case("epg-gpq-distance", p=2, q=3)
    assert case.params_dict() == {"p": 2, "q": 3}
    assert case.describe() == "epg-gpq-distance(p=2, q=3)"
    assert case.graph_kind == "enhanced"
    assert case.matrix_kind == "distance"


def test_make_case_validates_names():
    with pytest.raises(HypothesisViolated):
        make_case("no-such-theorem", n=3)
    with pytest.raises(HypothesisViolated):
        make_case("epg-gpq-distance", n=3)
    with pytest.raises(HypothesisViolated):
        make_case("epg-gpq-distance", p=2, q=3, extra=1)


@pytest.mark.parametrize("n", [3.9, 3.0, True, "x", "3"])
def test_make_case_needs_integer_parameters(n):
    # int() would have turned n = 3.9 into a verified n = 3
    with pytest.raises(HypothesisViolated, match="integer"):
        make_case("epg-dihedral-distance", n=n)


def test_a_directly_built_case_takes_its_kinds_from_its_theorem():
    assert [f.name for f in dataclasses.fields(TheoremCase)] == ["theorem_id", "params"]
    case = TheoremCase("epg-dihedral-distance", (("n", 4),))
    assert (case.graph_kind, case.matrix_kind) == ("enhanced", "distance")
    assert case == make_case("epg-dihedral-distance", n=4)
    assert verify(case).equal is True


@pytest.mark.parametrize(
    "theorem_id, params",
    [
        ("no-such-theorem", (("n", 4),)),
        ("epg-dihedral-distance", (("p", 4),)),
        ("epg-dihedral-distance", (("n", 3.0),)),
        ("epg-dihedral-distance", (("n", True),)),
        ("epg-dihedral-distance", (("n", "3"),)),
        ("epg-dihedral-distance", (("n", 3), ("n", 3))),
        ("epg-gpq-distance", (("q", 3), ("p", 2))),  # names out of order
        ("epg-gpq-distance", (("p", 2),)),
        ("epg-dihedral-distance", [("n", 3)]),  # not a tuple
        ("epg-dihedral-distance", ("n", 3)),  # not a tuple of pairs
    ],
)
def test_a_case_is_checked_when_it_is_built(theorem_id, params):
    with pytest.raises(HypothesisViolated):
        TheoremCase(theorem_id, params)


def test_verify_single_case():
    report = verify(make_case("epg-gpq-distance", p=2, q=3))
    assert report.equal is True
    assert report.group_order == 6
    assert report.brute_force.coeffs == (-52, -204, -285, -174, -42, 0, 1)
    assert report.closed_form is not None
    assert report.note == ""
    assert report.elapsed_ms >= 0


def test_verify_informational_case_has_no_claim():
    report = verify(make_case("pg-dicyclic-distance", n=3))
    assert report.equal is None
    assert report.closed_form is None
    assert "power of two" in report.note
    sixteen = verify(make_case("pg-dicyclic-distance", n=4))
    assert sixteen.equal is True


def test_verify_turns_constructor_errors_into_failed_reports():
    report = verify(make_case("epg-gpq-distance", p=3, q=5))
    assert report.equal is False
    assert "HypothesisViolated" in report.note
    assert report.group_order == 0


def test_verify_report_json_shape():
    obj = verify(make_case("epg-elab-distance", p=2, n=2)).to_json_obj()
    assert set(obj) == {
        "theorem_id",
        "params",
        "graph",
        "matrix",
        "group_order",
        "equal",
        "elapsed_ms",
        "closed_form",
        "brute_force",
        "note",
    }
    assert obj["equal"] is True
    assert obj["note"]  # the multiplicity reading is worth flagging every time


def test_enumerate_cases_covers_all_theorems():
    cases = enumerate_cases(24)
    assert {c.theorem_id for c in cases} == set(THEOREM_IDS)
    assert enumerate_cases(24) == cases  # deterministic
    again = enumerate_cases(24, theorem_ids=["epg-gpq-distance"])
    assert [c.params_dict() for c in again] == [
        {"p": 2, "q": 3},
        {"p": 2, "q": 5},
        {"p": 2, "q": 7},
        {"p": 3, "q": 7},  # order 21 sorts before 22
        {"p": 2, "q": 11},
    ]
    with pytest.raises(HypothesisViolated):
        enumerate_cases(24, theorem_ids=["nope"])


@pytest.mark.parametrize(
    "max_order, count, digest",
    [
        (40, 240, "d7186ea0e31308c1406c9fade150f5ca2a6e6b5af459eaf63d4a9bf8335a5aa5"),
        (64, 410, "383f6fd03789c52c0e837f840a754f5d7637bff4c5c74284519bba9ad042331e"),
        (256, 1713, "b326a25dd839c743969b2e1b38efddc557ba0507b4e2fd9982a1af581cf77ec2"),
        (1024, 6426, "cd7589ad25fe7e9f5ad41f737ff2c091fdb4ef283ea035f15deb1bd556640b6f"),
    ],
)
def test_enumerated_case_lists_are_pinned(max_order, count, digest):
    # a change to how the case lists are generated must not change the lists
    cases = enumerate_cases(max_order)
    text = "\n".join(f"{c.describe()} {c.graph_kind} {c.matrix_kind}" for c in cases)
    assert (len(cases), hashlib.sha256(text.encode()).hexdigest()) == (count, digest)


def test_sweep_reports_are_pinned():
    # every field of every report up to order 40 except the timing; a change
    # meant to keep the verifier's output must keep this digest
    objs = [report.to_json_obj() for report in verify_sweep(max_order=40)]
    for obj in objs:
        del obj["elapsed_ms"]
    text = "\n".join(json.dumps(obj, sort_keys=True) for obj in objs)
    assert (len(objs), hashlib.sha256(text.encode()).hexdigest()) == (
        240,
        "d2c9b5e2e4e218ebc51bfb1914ee9ce650372d34e3ed4b891a63f8daa37f8235",
    )


def test_case_orders_above_the_cap_are_refused():
    with pytest.raises(InvalidFamilyParameters, match="MAX_ORDER"):
        enumerate_cases(MAX_ORDER + 1)
    # refused before q is tested for primality
    with pytest.raises(InvalidFamilyParameters, match="MAX_ORDER"):
        check_case(make_case("epg-gpq-distance", p=3, q=10**18 + 9))
    report = verify(make_case("epg-dihedral-distance", n=MAX_ORDER))
    assert report.equal is False and "InvalidFamilyParameters" in report.note


# Each catalog family's group order, written out here so that the enumerator
# is checked against formulas of its own.
FAMILY_ORDERS = {
    "gpq": lambda p, q: p * q,
    "dihedral": lambda n: 2 * n,
    "dicyclic": lambda n: 4 * n,
    "elementary-abelian": lambda p, n: p**n,
    "elab-product": lambda p, n, q, m: p**n * q**m,
    "elab-cyclic": lambda p, n, m: p**n * m,
}


def test_enumerated_orders_respect_the_bound():
    cases = enumerate_cases(128)
    assert {THEOREMS[c.theorem_id].family for c in cases} == set(FAMILY_ORDERS)
    for case in cases:
        order = FAMILY_ORDERS[THEOREMS[case.theorem_id].family](**case.params_dict())
        assert order <= 128, case


# Every value a parameter can take in a group of order at most 32: sizes up
# to 32, exponents up to log2(32) = 5; 0 is there to be refused.
_SIZES, _EXPONENTS = range(33), range(6)
FAMILY_RANGES = {
    "gpq": (_SIZES, _SIZES),
    "dihedral": (_SIZES,),
    "dicyclic": (_SIZES,),
    "elementary-abelian": (_SIZES, _EXPONENTS),
    "elab-product": (_SIZES, _EXPONENTS, _SIZES, _EXPONENTS),
    "elab-cyclic": (_SIZES, _EXPONENTS, _SIZES),
}


def _checks(case: TheoremCase) -> bool:
    try:
        check_case(case)
    except HypothesisViolated:
        return False
    return True


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_enumerated_cases_are_every_checked_case_up_to_order_32(theorem_id):
    # complete as well as sound: every tuple check_case accepts is listed,
    # bar the trivial cyclic factor m = 1 of El(p^n) x Z_m (pinned below)
    thm = THEOREMS[theorem_id]
    order = FAMILY_ORDERS[thm.family]
    accepted = {
        values
        for values in itertools.product(*FAMILY_RANGES[thm.family])
        if order(*values) <= 32
        and _checks(make_case(theorem_id, **dict(zip(thm.param_names, values))))
        and (thm.family != "elab-cyclic" or values[-1] != 1)
    }
    listed = [tuple(case.params_dict().values()) for case in enumerate_cases(32, [theorem_id])]
    assert len(listed) == len(set(listed))
    assert set(listed) == accepted


def test_a_trivial_cyclic_factor_is_never_enumerated_but_verifies_by_hand():
    cases = enumerate_cases(128, ["epg-elab-cyclic-distance"])
    assert min(case.params_dict()["m"] for case in cases) == 2
    report = verify(make_case("epg-elab-cyclic-distance", p=2, n=2, m=1))
    assert (report.equal, report.group_order) == (True, 4)


@pytest.mark.parametrize("max_order", [0, -3, 64.0, None, "64", True])
def test_case_orders_below_one_are_refused(max_order):
    # 64.0, None and "64" once raised a bare TypeError; True gave no cases
    message = "below 1" if type(max_order) is int else "must be an int"
    with pytest.raises(InvalidFamilyParameters, match=message):
        enumerate_cases(max_order)
    with pytest.raises(InvalidFamilyParameters, match=message):
        verify_sweep(max_order=max_order)


def test_verify_sweep_small_orders_all_hold():
    reports = verify_sweep(max_order=12)
    assert reports
    assert all(r.equal in (True, None) for r in reports)


def test_verify_sweep_parallel_matches_serial():
    serial = verify_sweep(theorem_ids=["epg-dihedral-distance"], max_order=16)
    parallel = verify_sweep(theorem_ids=["epg-dihedral-distance"], max_order=16, jobs=2)
    assert [r.case for r in serial] == [r.case for r in parallel]
    assert [r.brute_force for r in serial] == [r.brute_force for r in parallel]
    assert [r.equal for r in serial] == [r.equal for r in parallel]


# ---------------------------------------------------------------------------
# catalog lookup used by the command line
# ---------------------------------------------------------------------------


def test_closed_form_lookup():
    from pgspectra import GroupFamilySpec

    gpq = GroupFamilySpec("gpq", (2, 5))
    assert closed_form_for(gpq, "power", "distance") is not None
    assert closed_form_for(gpq, "enhanced", "distance") is not None
    assert closed_form_for(gpq, "enhanced", "adjacency") is None
    dic = GroupFamilySpec("dicyclic", (4,))
    assert closed_form_for(dic, "power", "distance") is not None
    assert closed_form_for(GroupFamilySpec("dicyclic", (3,)), "power", "distance") is None
    assert closed_form_for(GroupFamilySpec("cyclic", (6,)), "power", "distance") is None


def _el(p: int, n: int) -> GroupFamilySpec:
    return GroupFamilySpec("elementary-abelian", (p, n))


def _z(n: int) -> GroupFamilySpec:
    return GroupFamilySpec("cyclic", (n,))


def _times(a: GroupFamilySpec, b: GroupFamilySpec) -> GroupFamilySpec:
    return GroupFamilySpec("direct-product", (), (a, b))


_ELAB_PRODUCT_CLAIMS = {
    (graph, matrix): f"{short}-elab-product-{matrix}"
    for graph, short in (("power", "pg"), ("enhanced", "epg"))
    for matrix in ("adjacency", "distance")
}

# label -> (spec, its parameters, {(graph kind, matrix kind): theorem id}).
# Every other combination of {power, enhanced, proper-power} x {adjacency,
# distance} has no closed form; in particular no proper-power one.
CLOSED_FORM_CONTRACT = {
    "gpq(3,7)": (
        GroupFamilySpec("gpq", (3, 7)),
        {"p": 3, "q": 7},
        {("power", "distance"): "epg-gpq-distance", ("enhanced", "distance"): "epg-gpq-distance"},
    ),
    "D_12": (
        GroupFamilySpec("dihedral", (6,)),
        {"n": 6},
        {("enhanced", "distance"): "epg-dihedral-distance"},
    ),
    "D_16": (
        GroupFamilySpec("dihedral", (8,)),
        {"n": 8},
        {("enhanced", "distance"): "epg-dihedral-distance"},
    ),
    "Dic_16": (
        GroupFamilySpec("dicyclic", (4,)),
        {"n": 4},
        {
            ("power", "distance"): "pg-dicyclic-distance",
            ("enhanced", "distance"): "epg-dicyclic-distance",
        },
    ),
    "Dic_12": (
        GroupFamilySpec("dicyclic", (3,)),
        {"n": 3},
        {("enhanced", "distance"): "epg-dicyclic-distance"},
    ),
    "El(3^2)": (
        _el(3, 2),
        {"p": 3, "n": 2},
        {("power", "distance"): "epg-elab-distance", ("enhanced", "distance"): "epg-elab-distance"},
    ),
    "Z_6": (_z(6), None, {}),
    "El(2)xEl(3^2)": (
        _times(_el(2, 1), _el(3, 2)),
        {"p": 2, "n": 1, "q": 3, "m": 2},
        _ELAB_PRODUCT_CLAIMS,
    ),
    "El(2^2)xEl(2)": (_times(_el(2, 2), _el(2, 1)), None, {}),
    "El(2^2)xZ_3": (
        _times(_el(2, 2), _z(3)),
        {"p": 2, "n": 2, "m": 3},
        {("enhanced", "distance"): "epg-elab-cyclic-distance"},
    ),
    "El(2^2)xZ_6": (_times(_el(2, 2), _z(6)), None, {}),
    "El(2)xZ_3": (_times(_el(2, 1), _z(3)), None, {}),
    "Z_2xZ_3": (_times(_z(2), _z(3)), None, {}),
}


@pytest.mark.parametrize("matrix_kind", ["adjacency", "distance"])
@pytest.mark.parametrize("graph_kind", ["power", "enhanced", "proper-power"])
@pytest.mark.parametrize("label", list(CLOSED_FORM_CONTRACT))
def test_closed_form_for_contract(label, graph_kind, matrix_kind):
    spec, params, claims = CLOSED_FORM_CONTRACT[label]
    closed = closed_form_for(spec, graph_kind, matrix_kind)
    theorem_id = claims.get((graph_kind, matrix_kind))
    if theorem_id is None:
        assert closed is None
        return
    assert closed == THEOREMS[theorem_id].closed_form(**params)
    graph = GRAPH_BUILDERS[graph_kind](make_group(spec))
    matrix = distance_matrix(graph) if matrix_kind == "distance" else adjacency_matrix(graph)
    assert closed.expand() == char_poly(matrix)


@pytest.mark.parametrize(
    "spec",
    [
        GroupFamilySpec("cyclic", 5),
        GroupFamilySpec("dihedral", [4]),
        GroupFamilySpec("direct-product", (), (GroupFamilySpec("elementary-abelian", (2, 2)), 3)),
    ],
    ids=["int-params", "list-params", "int-factor"],
)
def test_closed_form_for_a_malformed_spec_is_none(spec):
    # an int for the parameters once raised a bare TypeError
    for graph_kind in GRAPH_BUILDERS:
        for matrix_kind in MATRIX_KINDS:
            assert closed_form_for(spec, graph_kind, matrix_kind) is None


def test_closed_form_lookup_is_unambiguous():
    for graph_kind in GRAPH_BUILDERS:
        for matrix_kind in ("adjacency", "distance"):
            for family in FAMILIES:
                answering = [
                    t.theorem_id
                    for t in THEOREMS.values()
                    if (t.family, t.matrix_kind) == (family, matrix_kind) and t.answers(graph_kind)
                ]
                assert len(answering) <= 1, answering


# ---------------------------------------------------------------------------
# the one parallel map
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "jobs, n_items, cpus, workers",
    [
        (8, 5, 3, 3),  # clamped to the CPUs
        (8, 2, 4, 2),  # clamped to the items
        (2, 5, 4, 2),
        (1, 5, 4, None),  # one worker runs in-process
        (4, 1, 4, None),
        (4, 5, None, None),  # unknown CPU count counts as one
        (4, 0, 4, None),
    ],
)
def test_parallel_map_clamps_workers(monkeypatch, jobs, n_items, cpus, workers):
    created = record_worker_pools(monkeypatch, cpus)
    assert parallel_map(str, range(n_items), jobs) == [str(i) for i in range(n_items)]
    assert created == ([] if workers is None else [workers])


@pytest.mark.parametrize(
    "build, n", [(make_dicyclic, 64), (make_dihedral, 128), (make_dicyclic, 128)]
)
def test_enhanced_distance_closed_forms_at_orders_256_and_512(build, n):
    # Dense, one of these takes minutes; twin reduction leaves a 3 x 3 quotient.
    group = build(n)
    closed = closed_form_for(group.spec, "enhanced", "distance")
    assert char_poly(distance_matrix(enhanced_power_graph(group))) == closed.expand()


# ---------------------------------------------------------------------------
# one rule per layer: groups.py's, plus what the theorems add
# ---------------------------------------------------------------------------


def _raised(fn, *args, **kwargs):
    """The class of the library error ``fn`` raises, or None."""
    try:
        fn(*args, **kwargs)
    except SpectraError as exc:
        return type(exc)
    return None


def _meets_hypothesis(family: str, params: dict[str, int], partitions: bool = False) -> bool:
    """The rule of each factor's ``groups.BASE_FAMILIES`` row, then the conditions
    the family's theorems add (those the named partitions assume, with ``partitions``)."""
    spec = family_spec(family, params)
    bases = spec.factors if spec.family == "direct-product" else (spec,)
    return all(groups.BASE_FAMILIES[b.family].holds(*b.params) for b in bases) and all(
        holds(**params)
        for _statement, holds, shared in theorems._ADDED_HYPOTHESES.get(family, ())
        if shared or not partitions
    )


def _grid(family: str) -> list[dict[str, int]]:
    """Every value in -1..13 per parameter; the product's exponents at five of them."""
    names = FAMILY_PARAMS[family]
    few = (-1, 0, 1, 2, 13)
    axes = [few if family == "elab-product" and k in "nm" else range(-1, 14) for k in names]
    return [dict(zip(names, values)) for values in itertools.product(*axes)]


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_check_case_and_closed_form_agree_with_the_rule_tables(tid):
    thm = THEOREMS[tid]
    for params in _grid(thm.family):
        wrong = None if _meets_hypothesis(thm.family, params) else HypothesisViolated
        too_big = bounded_order(family_spec(thm.family, params)) > MAX_ORDER
        assert _raised(thm.closed_form, **params) is wrong, params
        assert _raised(check_case, make_case(tid, **params)) is (
            InvalidFamilyParameters if too_big else wrong
        ), params


def test_named_partitions_assume_the_added_conditions_but_n_at_least_2():
    rows = [
        ("elab-cyclic", "elab-times-cyclic", itertools.product((2, 3), (1, 2), range(1, 7))),
        ("elab-product", "elab-product-fine", [(2, 1, 2, 1), (2, 1, 3, 1), (3, 2, 3, 1)]),
    ]
    for family, which, grid in rows:
        for values in grid:
            params = dict(zip(FAMILY_PARAMS[family], values))
            group = make_group(family_spec(family, params))
            wrong = None if _meets_hypothesis(family, params, partitions=True) else FamilyMismatch
            assert _raised(family_partition, group, which) is wrong, params


# Every closed form taking family parameters, with parameters that meet its hypothesis.
CLOSED_FORM_ARGS = [
    (cf_epg_gpq_distance, (2, 3)),
    (cf_epg_gpq_determinant, (2, 3)),
    (cf_epg_dihedral_distance, (4,)),
    (lambda n: cf_pg_dihedral_distance_rhs(n, x_plus(1) ** 4, x_plus(1) ** 3), (4,)),
    (cf_epg_dicyclic_distance, (3,)),
    (lambda *a: cf_elab_product(*a, "power", "adjacency"), (2, 1, 3, 1)),
    (lambda *a: build_T1_T2(*a, "enhanced", "distance"), (2, 1, 3, 1)),
    (lambda *a: elab_product_BC(*a, "distance"), (2, 1, 3, 1)),
    (cf_elab_times_cyclic_distance, (2, 2, 3)),
    (cf_elab_distance, (2, 2)),
]


@pytest.mark.parametrize("bad", [True, False, 4.0, "4", None], ids=repr)
def test_closed_forms_refuse_non_int_parameters(bad):
    for form, good in CLOSED_FORM_ARGS:
        assert _raised(form, *good) is None
        for i in range(len(good)):
            assert _raised(form, *good[:i], bad, *good[i + 1 :]) is HypothesisViolated, (form, i)
    for tid in THEOREM_IDS:
        thm = THEOREMS[tid]
        good = enumerate_cases(64, [tid])[0].params_dict()
        for name in thm.param_names:
            params = {**good, name: bad}
            assert _raised(thm.closed_form, **params) is HypothesisViolated, (tid, name)
            spec = family_spec(thm.family, params)
            for graph_kind, matrix_kind in itertools.product(GRAPH_BUILDERS, MATRIX_KINDS):
                assert closed_form_for(spec, graph_kind, matrix_kind) is None


def test_closed_form_for_a_group_read_from_json_is_none():
    group = group_from_json(group_to_json(make_dihedral(4)))
    assert group.spec is None
    assert closed_form_for(group.spec, "enhanced", "distance") is None
