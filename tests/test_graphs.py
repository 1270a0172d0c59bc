from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    catalog_groups,
    cone,
    enhanced_edges_oracle,
    figure1_gamma,
    figure1_gamma_prime,
    floyd_warshall,
    power_edges_oracle,
    prime_power_base,
)
from pgspectra import (
    Graph,
    JoinSpec,
    adjacency_matrix,
    complete_graph,
    cyclic_subgroups,
    diameter,
    direct_product,
    distance_matrix,
    empty_graph,
    enhanced_power_graph,
    graph_join,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_elementary_abelian,
    make_gpq,
    power_graph,
    proper_power_graph,
    to_dot,
    verify_join_form,
)
from pgspectra.errors import DisconnectedGraph, HypothesisViolated, SizeMismatch
from pgspectra.graphs import MATRIX_KINDS, graph_matrix
from pgspectra.theorems import GRAPH_BUILDERS


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


SMALL_GROUPS = [
    make_cyclic(12),
    make_dihedral(6),
    make_dicyclic(3),
    make_gpq(2, 5),
    make_elementary_abelian(3, 2),
    direct_product(make_elementary_abelian(2, 2), make_cyclic(3)),
    direct_product(make_elementary_abelian(2, 2), make_elementary_abelian(3, 2)),
]

# The small groups and every distinct group of the order-64 catalog.
ORACLE_GROUPS = list({g.spec: g for g in SMALL_GROUPS + catalog_groups(64)}.values())


# ---------------------------------------------------------------------------
# basic graph type
# ---------------------------------------------------------------------------


def test_from_edges_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 0), (2, 3)])
    assert g.edges() == [(0, 1), (2, 3)]
    assert g.edge_count == 2
    assert g.has_edge(1, 0)
    assert g.degree(0) == 1


def test_a_graph_is_its_neighbor_sets():
    assert [f.name for f in dataclasses.fields(Graph)] == ["neighbors"]
    lone = Graph((frozenset(),))
    assert lone.vertex_count == 1
    assert adjacency_matrix(lone).rows == 1
    assert diameter(lone) == 0


def test_from_edges_ignores_loops_and_checks_range():
    g = Graph.from_edges(2, [(0, 0), (0, 1)])
    assert g.edges() == [(0, 1)]
    with pytest.raises(SizeMismatch):
        Graph.from_edges(2, [(0, 2)])


@pytest.mark.parametrize(
    "neighbors",
    [
        (frozenset({1}), frozenset()),  # not listed back
        (frozenset({2}), frozenset({0})),  # past the last vertex
        (frozenset({-1}), frozenset({0})),  # before the first
        (frozenset({0, 1}), frozenset({0})),  # a loop
    ],
    ids=["asymmetric", "above-range", "below-range", "loop"],
)
def test_inconsistent_neighbor_sets_are_refused(neighbors):
    with pytest.raises(SizeMismatch):
        Graph(neighbors)


def test_complete_and_empty():
    assert complete_graph(4).edge_count == 6
    assert complete_graph(4).is_complete()
    assert complete_graph(1).is_complete()
    assert empty_graph(3).edge_count == 0
    assert not empty_graph(2).is_complete()


# ---------------------------------------------------------------------------
# graphs from groups
# ---------------------------------------------------------------------------


def test_power_graph_of_cyclic_prime_is_complete():
    assert power_graph(make_cyclic(7)).is_complete()


def test_power_graph_of_z6():
    g = power_graph(make_cyclic(6))
    non_edges = {(2, 3), (3, 4)}
    expected = [
        (u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) not in non_edges
    ]
    assert g.edges() == expected


def test_power_graph_of_d6():
    # triangle on the rotations plus three pendant reflections at the identity
    g = power_graph(make_dihedral(3))
    assert g.edges() == [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)]


@pytest.mark.parametrize("g", ORACLE_GROUPS, ids=lambda g: g.spec.describe())
def test_power_graph_matches_witness_scan(g):
    assert set(power_graph(g).edges()) == power_edges_oracle(g)


@pytest.mark.parametrize("g", ORACLE_GROUPS, ids=lambda g: g.spec.describe())
def test_proper_power_graph_matches_witness_scan(g):
    # the oracle's power graph without the identity, element v as vertex v - 1
    expected = {(u - 1, v - 1) for u, v in power_edges_oracle(g) if u != g.identity}
    proper = proper_power_graph(g)
    assert proper.vertex_count == g.order - 1
    assert set(proper.edges()) == expected


@pytest.mark.parametrize("g", ORACLE_GROUPS, ids=lambda g: g.spec.describe())
def test_enhanced_power_graph_matches_witness_scan(g):
    assert set(enhanced_power_graph(g).edges()) == enhanced_edges_oracle(g)


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: g.spec.describe())
def test_graphs_coincide_iff_cyclic_subgroups_are_prime_power(g):
    same = power_graph(g).neighbors == enhanced_power_graph(g).neighbors
    all_prime_power = all(
        len(s) == 1 or prime_power_base(len(s)) is not None for s in cyclic_subgroups(g)
    )
    assert same == all_prime_power


def test_enhanced_graph_of_klein_four_is_a_star():
    g = enhanced_power_graph(make_elementary_abelian(2, 2))
    assert g.edges() == [(0, 1), (0, 2), (0, 3)]


def test_identity_dominates_both_graphs():
    for g in SMALL_GROUPS:
        for graph in (power_graph(g), enhanced_power_graph(g)):
            assert graph.degree(0) == g.order - 1


def test_proper_power_graph_drops_identity():
    g = make_cyclic(6)
    proper = proper_power_graph(g)
    assert proper.vertex_count == 5
    # vertex v here is group element v+1; only the 2,3 and 3,4 pairs are missing
    assert proper.edges() == [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4),
    ]


def test_proper_power_graph_may_disconnect():
    proper = proper_power_graph(make_elementary_abelian(3, 2))
    # four disjoint edges: one per subgroup of order three
    assert proper.edge_count == 4
    assert all(proper.degree(v) == 1 for v in range(8))
    with pytest.raises(DisconnectedGraph):
        distance_matrix(proper)


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def test_graph_join_star_example():
    spec = JoinSpec(
        Graph.from_edges(3, [(0, 1), (0, 2)]),
        (complete_graph(1), complete_graph(2), complete_graph(1)),
    )
    joined = graph_join(spec)
    assert joined.vertex_count == 4
    assert joined.edges() == [(0, 1), (0, 2), (0, 3), (1, 2)]


def test_graph_join_edge_count_formula():
    parts = (complete_graph(2), empty_graph(3), path_graph(4))
    outer = Graph.from_edges(3, [(0, 1), (1, 2)])
    joined = graph_join(JoinSpec(outer, parts))
    inner = sum(p.edge_count for p in parts)
    crossing = 2 * 3 + 3 * 4
    assert joined.edge_count == inner + crossing


def test_join_spec_part_count_checked():
    with pytest.raises(SizeMismatch):
        JoinSpec(complete_graph(2), (complete_graph(1),))


def test_cone():
    star = cone(empty_graph(3))
    assert star.edges() == [(0, 1), (0, 2), (0, 3)]
    assert cone(complete_graph(2)).is_complete()
    assert cone(empty_graph(0)).vertex_count == 1


def test_verify_join_form_accepts_true_decomposition():
    # the enhanced graph of the Klein four-group is a star
    graph = enhanced_power_graph(make_elementary_abelian(2, 2))
    spec = JoinSpec(cone(empty_graph(3)), (complete_graph(1),) * 4)
    assert verify_join_form(graph, spec, (0, 1, 2, 3))


def test_verify_join_form_rejects_wrong_bijection():
    graph = enhanced_power_graph(make_cyclic(6))
    # Z6 is complete, so any bijection works there; use a non-complete graph
    graph = power_graph(make_dihedral(3))
    spec = JoinSpec(
        cone(empty_graph(4)),
        (
            complete_graph(1),
            complete_graph(2),
            complete_graph(1),
            complete_graph(1),
            complete_graph(1),
        ),
    )
    assert verify_join_form(graph, spec, (0, 1, 2, 3, 4, 5))
    # swapping a rotation with a reflection breaks the edge match
    assert not verify_join_form(graph, spec, (0, 1, 3, 2, 4, 5))


def test_verify_join_form_size_errors():
    graph = complete_graph(3)
    spec = JoinSpec(complete_graph(2), (complete_graph(1), complete_graph(1)))
    with pytest.raises(SizeMismatch):
        verify_join_form(graph, spec, (0, 1, 2))
    spec3 = JoinSpec(complete_graph(3), (complete_graph(1),) * 3)
    with pytest.raises(SizeMismatch):
        verify_join_form(graph, spec3, (0, 1))
    with pytest.raises(SizeMismatch):
        verify_join_form(graph, spec3, (0, 1, 1))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3))
def test_join_of_complete_parts_over_complete_outer(a: int, b: int, c: int):
    sizes = [a, b] + ([c] if c else [])
    spec = JoinSpec(
        complete_graph(len(sizes)), tuple(complete_graph(s) for s in sizes)
    )
    assert graph_join(spec).is_complete()


# ---------------------------------------------------------------------------
# metric structure
# ---------------------------------------------------------------------------


def test_distance_matrix_examples():
    assert distance_matrix(complete_graph(3)).to_rows() == [
        [0, 1, 1],
        [1, 0, 1],
        [1, 1, 0],
    ]
    assert distance_matrix(path_graph(3)).to_rows() == [
        [0, 1, 2],
        [1, 0, 1],
        [2, 1, 0],
    ]


def assert_distances_match_floyd_warshall(graph: Graph) -> None:
    expected = floyd_warshall(graph)
    if expected is None:
        with pytest.raises(DisconnectedGraph):
            distance_matrix(graph)
        with pytest.raises(DisconnectedGraph):
            diameter(graph)
    else:
        assert distance_matrix(graph).to_rows() == expected
        assert diameter(graph) == max(max(row) for row in expected)


@pytest.mark.parametrize("g", ORACLE_GROUPS, ids=lambda g: g.spec.describe())
def test_distance_matrix_matches_floyd_warshall(g):
    # power and enhanced graphs take the universal-vertex route; proper power
    # graphs without a universal vertex take breadth-first search
    for build in GRAPH_BUILDERS.values():
        assert_distances_match_floyd_warshall(build(g))


@st.composite
def graphs_with_or_without_a_universal_vertex(draw) -> Graph:
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    if draw(st.booleans()):
        hub = draw(st.integers(0, n - 1))
        edges += [(hub, v) for v in range(n) if v != hub]
    return Graph.from_edges(n, edges)


@given(graphs_with_or_without_a_universal_vertex())
def test_random_graph_distances_match_floyd_warshall(graph):
    assert_distances_match_floyd_warshall(graph)


def test_the_empty_graph_has_no_distances():
    for measure in (distance_matrix, diameter):
        with pytest.raises(DisconnectedGraph, match="empty graph"):
            measure(empty_graph(0))


def test_distance_matrix_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        distance_matrix(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_diameter():
    assert diameter(complete_graph(5)) == 1
    assert diameter(cone(empty_graph(3))) == 2
    assert diameter(path_graph(4)) == 3
    assert diameter(complete_graph(1)) == 0
    with pytest.raises(DisconnectedGraph):
        diameter(empty_graph(2))


def test_power_graph_diameter_at_most_two():
    for g in SMALL_GROUPS:
        assert diameter(power_graph(g)) <= 2
        assert diameter(enhanced_power_graph(g)) <= 2


# ---------------------------------------------------------------------------
# layered templates
# ---------------------------------------------------------------------------


def test_template_tiny_cases():
    # one outer vertex on each side sharing one middle vertex: a path
    g = figure1_gamma(1, 1)
    assert g.edges() == [(0, 1), (1, 2)]
    assert figure1_gamma_prime(1, 1).is_complete()


def test_template_alpha2_beta1_is_a_path():
    g = figure1_gamma(2, 1)
    assert g.vertex_count == 5
    assert g.edges() == [(0, 2), (1, 3), (2, 4), (3, 4)]
    assert diameter(g) == 4


def test_template_sizes_alpha3_beta4():
    g = figure1_gamma(3, 4)
    assert g.vertex_count == 3 + 12 + 4
    assert g.edge_count == 12 + 12
    gp = figure1_gamma_prime(3, 4)
    assert gp.edge_count == 24 + 12


def test_template_adjacency_rule():
    alpha, beta = 2, 3
    g = figure1_gamma(alpha, beta)
    for i in range(alpha):
        for j in range(beta):
            assert g.has_edge(i, alpha + i * beta + j)
    for j in range(beta):
        for i in range(alpha):
            assert g.has_edge(alpha + alpha * beta + j, alpha + i * beta + j)
    # outer layers are independent sets in the plain template
    assert not any(g.has_edge(0, alpha + alpha * beta + j) for j in range(beta))


def test_template_rejects_empty_layer():
    with pytest.raises(SizeMismatch):
        figure1_gamma(0, 2)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_adjacency_matrix():
    m = adjacency_matrix(path_graph(3))
    assert m.to_rows() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_graph_matrix_dispatches_by_kind_and_names_an_unknown_one():
    g = path_graph(3)
    assert MATRIX_KINDS == ("adjacency", "distance")
    assert graph_matrix(g, "adjacency") == adjacency_matrix(g)
    assert graph_matrix(g, "distance").to_rows() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    for kind in ("laplacian", "", None):
        with pytest.raises(HypothesisViolated, match="unknown matrix kind"):
            graph_matrix(g, kind)


def test_to_dot_deterministic():
    g = path_graph(3)
    text = to_dot(g)
    assert text == "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"
    assert to_dot(g) == text


def test_to_dot_labels_escaped():
    text = to_dot(complete_graph(2), labels=['sa"y', "b"])
    assert 'label="sa\\"y"' in text
    with pytest.raises(SizeMismatch):
        to_dot(complete_graph(2), labels=["just-one"])
