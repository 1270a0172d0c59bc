from __future__ import annotations

import ast
import dataclasses
import gc
import pickle
import re
import weakref
from itertools import accumulate, combinations
from pathlib import Path

import pytest
from helpers import (
    block_sum_rows_oracle,
    catalog_groups,
    cell_quotient_oracle,
    coarsest_equitable_cells_oracle,
    family_partition_oracle,
    is_equitable,
    neighbour_count_rows_oracle,
)
from hypothesis import assume, given
from hypothesis import strategies as st

from pgspectra import (
    FAMILY_PARTITIONS,
    GroupFamilySpec,
    Graph,
    IntMatrix,
    Partition,
    coarsest_equitable_partition,
    complete_graph,
    direct_product,
    distance_matrix,
    distance_quotient_from_matrix,
    distance_quotient_matrix,
    empty_graph,
    enhanced_power_graph,
    family_partition,
    group_from_json,
    group_to_json,
    join_form,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_elementary_abelian,
    make_gpq,
    maximal_cyclic_subgroups,
    power_graph,
    proper_power_graph,
    quotient_matrix,
    star_partition,
)
from pgspectra import partitions
from pgspectra.errors import (
    DiameterExceedsTwo,
    DisconnectedGraph,
    FamilyMismatch,
    NotAPartition,
    NotEquitable,
    NotSquare,
)
from pgspectra.groups import is_prime
from pgspectra.partitions import _cell_counts
from pgspectra.theorems import GRAPH_BUILDERS, THEOREMS, enumerate_cases


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def graphs_st(draw, max_n: int = 7) -> Graph:
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])


def _shuffled_cells(rng, sizes: list[int]) -> list[list[int]]:
    """Cells of the given sizes over a random relabelling of 0..sum(sizes)-1."""
    order = rng.sample(range(sum(sizes)), sum(sizes))
    return [sorted(order[end - size : end]) for end, size in zip(accumulate(sizes), sizes)]


@st.composite
def blown_up_graphs_st(draw) -> Graph:
    """A random outer graph whose vertices become cliques or cocliques, relabelled at random."""
    outer = draw(graphs_st(max_n=5))
    k = outer.vertex_count
    sizes = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    complete = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    parts = _shuffled_cells(draw(st.randoms(use_true_random=False)), sizes)
    edges = []
    for i, part in enumerate(parts):
        if complete[i]:
            edges += combinations(part, 2)
        edges += [(u, v) for j in outer.neighbors[i] for u in part for v in parts[j]]
    return Graph.from_edges(sum(sizes), edges)


@st.composite
def planted_quotients_st(draw) -> tuple[IntMatrix, list[list[int]], list[list[int]]]:
    """A random, generally non-symmetric integer matrix, cells and the planted quotient.

    Every row of a vertex of cell i sums to ``quotient[i][j]`` over cell j.
    """
    rng = draw(st.randoms(use_true_random=False))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    k = len(sizes)
    quotient = [[rng.randint(-20, 20) for _ in range(k)] for _ in range(k)]
    cells = _shuffled_cells(rng, sizes)
    rows = [[0] * sum(sizes) for _ in range(sum(sizes))]
    for i, cell in enumerate(cells):
        for v in cell:
            for j, target in enumerate(cells):
                free = [rng.randint(-9, 9) for _ in target[1:]]
                for w, x in zip(target, [quotient[i][j] - sum(free)] + free):
                    rows[v][w] = x
    return IntMatrix.from_rows(rows), cells, quotient


# ---------------------------------------------------------------------------
# the partition type
# ---------------------------------------------------------------------------


def test_partition_basics():
    p = Partition.of([[0, 1], [2]])
    assert p.cell_count == 2
    assert p.sizes() == (2, 1)
    assert p.flatten() == (0, 1, 2)
    assert p.cell_index(3) == [0, 0, 1]


def test_partition_validation():
    with pytest.raises(NotAPartition):
        Partition.of([[0, 1], [1, 2]])  # overlap
    with pytest.raises(NotAPartition):
        Partition.of([[0], []])  # empty cell
    with pytest.raises(NotAPartition):
        Partition.of([[1, 0]])  # not ascending
    with pytest.raises(NotAPartition):
        Partition.of([[0], [0]])
    for vertex in (1.5, True, "a"):  # only integers are vertices
        with pytest.raises(NotAPartition):
            Partition.of([[vertex]])


@pytest.mark.parametrize(
    "cells",
    [([0, 1], [2]), [(0, 1), (2,)], ((0, 1), [2]), [[0]], "01", None, ((0,), range(1, 3))],
    ids=repr,
)
def test_partition_takes_a_tuple_of_tuples(cells):
    with pytest.raises(NotAPartition, match="tuple of tuples"):
        Partition(cells)
    if isinstance(cells, (list, tuple)):  # the converting constructor takes these
        assert hash(Partition.of(cells)) == hash(Partition(tuple(map(tuple, cells))))


def test_partition_must_cover_vertex_range():
    p = Partition.of([[0, 2]])
    with pytest.raises(NotAPartition):
        p.cell_index(3)
    with pytest.raises(NotAPartition):
        Partition.of([[0], [1]]).cell_index(3)
    for outside in (-1, 2):
        with pytest.raises(NotAPartition, match="outside"):
            Partition.of([sorted((0, outside))]).cell_index(2)


# ---------------------------------------------------------------------------
# equitability and quotients
# ---------------------------------------------------------------------------


def test_is_equitable_examples():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert is_equitable(star, Partition.of([[0], [1, 2, 3]]))
    assert not is_equitable(star, Partition.of([[0, 1], [2, 3]]))
    assert is_equitable(complete_graph(4), Partition.of([[0, 1, 2, 3]]))
    assert is_equitable(path_graph(4), Partition.of([[0, 3], [1, 2]]))
    assert not is_equitable(path_graph(4), Partition.of([[0, 1, 2, 3]]))


def test_quotient_matrix_examples():
    assert quotient_matrix(complete_graph(5), Partition.of([list(range(5))])).to_rows() == [[4]]
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    q = quotient_matrix(star, Partition.of([[0], [1, 2, 3]]))
    assert q.to_rows() == [[0, 3], [1, 0]]


def test_quotient_matrix_rejects_inequitable():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotEquitable, match="vertices 1 and 0 disagree"):
        quotient_matrix(star, Partition.of([[0, 1], [2, 3]]))


def test_distance_quotient_single_cell_complete():
    got = distance_quotient_matrix(complete_graph(4), Partition.of([list(range(4))]))
    assert got.to_rows() == [[3]]


def test_distance_quotient_star():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    got = distance_quotient_matrix(star, Partition.of([[0], [1, 2, 3]]))
    # centre: 0 to itself, three neighbors; leaf: 1 to centre, 2+2 to the others
    assert got.to_rows() == [[0, 3], [1, 4]]


def test_distance_quotient_requires_diameter_two():
    with pytest.raises(DiameterExceedsTwo):
        distance_quotient_matrix(path_graph(4), Partition.of([[0, 3], [1, 2]]))
    with pytest.raises(DisconnectedGraph):
        distance_quotient_matrix(empty_graph(2), Partition.of([[0, 1]]))


def test_distance_quotient_dihedral_enhanced():
    g = make_dihedral(3)
    graph = enhanced_power_graph(g)
    td = distance_quotient_matrix(graph, family_partition(g, "dihedral"))
    assert td.to_rows() == [
        [0, 2, 1, 1, 1],
        [1, 1, 2, 2, 2],
        [1, 4, 0, 2, 2],
        [1, 4, 2, 0, 2],
        [1, 4, 2, 2, 0],
    ]


def test_distance_quotient_gpq_matches_dihedral_twin():
    # the order-6 nonabelian group is D6, and the Sylow cells line up with
    # the rotation/reflection cells, so the two quotients agree entry-wise
    g = make_gpq(2, 3)
    td = distance_quotient_matrix(
        enhanced_power_graph(g), family_partition(g, "gpq-sylow")
    )
    h = make_dihedral(3)
    th = distance_quotient_matrix(
        enhanced_power_graph(h), family_partition(h, "dihedral")
    )
    assert td == th


def test_distance_quotient_dicyclic():
    g = make_dicyclic(3)
    td = distance_quotient_matrix(
        enhanced_power_graph(g), family_partition(g, "dicyclic")
    )
    assert td.to_rows() == [
        [1, 4, 2, 2, 2],
        [2, 3, 4, 4, 4],
        [2, 8, 1, 4, 4],
        [2, 8, 4, 1, 4],
        [2, 8, 4, 4, 1],
    ]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dicyclic_quaternion_cells_see_all_rotations_twice(n: int):
    # each order-4 pair is at distance 2 from every rotation outside the
    # centre cell, so those entries must be 2 * (2n - 2), not 2n - 2
    g = make_dicyclic(n)
    td = distance_quotient_matrix(
        enhanced_power_graph(g), family_partition(g, "dicyclic")
    )
    for i in range(2, td.rows):
        assert td[i, 1] == 2 * (2 * n - 2)


def test_two_routes_to_the_distance_quotient_agree():
    groups = [
        make_dihedral(5),
        make_dicyclic(4),
        make_gpq(2, 7),
        direct_product(make_elementary_abelian(2, 2), make_cyclic(3)),
    ]
    names = ["dihedral", "dicyclic", "gpq-sylow", "elab-times-cyclic"]
    for g, name in zip(groups, names):
        graph = enhanced_power_graph(g)
        part = family_partition(g, name)
        via_identity = distance_quotient_matrix(graph, part)
        via_matrix = distance_quotient_from_matrix(distance_matrix(graph), part)
        assert via_identity == via_matrix


def test_distance_row_sums_detect_inequitable_cells():
    dm = distance_matrix(path_graph(4))
    with pytest.raises(NotEquitable):
        distance_quotient_from_matrix(dm, Partition.of([[0, 1, 2, 3]]))
    with pytest.raises(NotSquare):
        distance_quotient_from_matrix(IntMatrix(1, 2, (0, 1)), Partition.of([[0]]))


@st.composite
def square_matrices_st(draw) -> IntMatrix:
    k = draw(st.integers(1, 6))
    return IntMatrix(k, k, tuple(draw(st.lists(st.integers(-50, 50), min_size=k * k, max_size=k * k))))


@given(square_matrices_st())
def test_singleton_cells_give_back_the_matrix(m: IntMatrix):
    assert distance_quotient_from_matrix(m, Partition.of([[v] for v in range(m.rows)])) == m


@given(planted_quotients_st())
def test_cell_sums_recover_a_planted_quotient(planted):
    m, cells, quotient = planted
    assert distance_quotient_from_matrix(m, Partition.of(cells)).to_rows() == quotient


@given(planted_quotients_st(), st.randoms(use_true_random=False))
def test_one_broken_cell_is_not_equitable(planted, rng):
    m, cells, _ = planted
    big = [cell for cell in cells if len(cell) > 1]
    assume(big)
    cell = rng.choice(big)
    v, w = rng.choice(cell), rng.randrange(m.cols)
    rows = m.to_rows()
    rows[v][w] += rng.choice((-1, 1))
    with pytest.raises(NotEquitable) as info:
        distance_quotient_from_matrix(IntMatrix.from_rows(rows), Partition.of(cells))
    named = {int(x) for x in re.search(r"vertices (\d+) and (\d+)", str(info.value)).groups()}
    assert v in named and named <= set(cell) and len(named) == 2


# ---------------------------------------------------------------------------
# the counting rule against the Counter and block-sum oracles
# ---------------------------------------------------------------------------


@st.composite
def random_partitions_st(draw, n: int) -> Partition:
    """A random partition of 0..n-1, its cells in random order."""
    labels = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
    cells = [[v for v in range(n) if labels[v] == label] for label in dict.fromkeys(labels)]
    return Partition.of(draw(st.permutations(cells)))


@st.composite
def partitioned_graphs_st(draw) -> tuple[Graph, Partition]:
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])
    return graph, draw(random_partitions_st(n))


@st.composite
def partitioned_matrices_st(draw) -> tuple[IntMatrix, Partition]:
    n = draw(st.integers(0, 6))
    entries = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    return IntMatrix(n, n, tuple(entries)), draw(random_partitions_st(n))


def _check_quotient(route, want: list[list[int]] | str) -> None:
    """``route()`` gives the oracle's quotient, or raises ``NotEquitable`` with its text."""
    if isinstance(want, str):
        with pytest.raises(NotEquitable, match=f"^{want}$"):
            route()
    else:
        assert route().to_rows() == want


def _check_adjacency_counts(graph: Graph, part: Partition) -> None:
    rows = neighbour_count_rows_oracle(graph, part)
    counts = _cell_counts(graph, part)
    assert [counts(v) for v in range(graph.vertex_count)] == rows
    _check_quotient(lambda: quotient_matrix(graph, part), cell_quotient_oracle(part, rows))


def _check_block_sums(dm: IntMatrix, part: Partition) -> None:
    want = cell_quotient_oracle(part, block_sum_rows_oracle(dm, part))
    _check_quotient(lambda: distance_quotient_from_matrix(dm, part), want)


COUNTING_EDGE_CASES = {
    "no-vertices": (empty_graph(0), ()),
    "one-cell": (path_graph(5), [range(5)]),
    "singletons": (path_graph(5), [[v] for v in range(5)]),
    # both cells have 6 edge ends, so the first is taken off as a set
    "tie-equitable": (cycle_graph(6), [[1, 3, 5], [0, 2, 4]]),
    # 3 edge ends each, and neither cell is equitable
    "tie-not-equitable": (path_graph(4), [[2, 3], [0, 1]]),
    "heaviest-cell-last": (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), [[1], [0, 2, 3]]),
}


@pytest.mark.parametrize("graph, cells", COUNTING_EDGE_CASES.values(), ids=COUNTING_EDGE_CASES)
def test_counting_edge_cases_match_the_oracles(graph: Graph, cells):
    part = Partition.of(cells)
    _check_adjacency_counts(graph, part)
    _check_block_sums(distance_matrix(graph) if graph.vertex_count else IntMatrix(0, 0, ()), part)


@given(partitioned_graphs_st())
def test_neighbor_counts_match_the_counter_oracle(case):
    graph, part = case
    _check_adjacency_counts(graph, part)
    coarsest = coarsest_equitable_partition(graph)
    assert coarsest.cells == coarsest_equitable_cells_oracle(graph)
    _check_adjacency_counts(graph, coarsest)


@given(partitioned_matrices_st())
def test_cell_sums_match_the_block_sum_oracle(case):
    _check_block_sums(*case)


def test_partitions_and_quotients_match_the_oracles_on_catalog_graphs():
    for g in catalog_groups(64):
        for build in (power_graph, enhanced_power_graph, proper_power_graph):
            graph = build(g)
            part = coarsest_equitable_partition(graph)
            label = (g.spec.describe(), build.__name__)
            assert part.cells == coarsest_equitable_cells_oracle(graph), label
            _check_adjacency_counts(graph, part)
            try:
                dm = distance_matrix(graph)
            except DisconnectedGraph:
                continue  # some proper power graphs
            _check_block_sums(dm, part)


# ---------------------------------------------------------------------------
# the quotient the refinement counted
# ---------------------------------------------------------------------------


def _kept_quotient_is_a_fresh_count(graph: Graph) -> None:
    part = coarsest_equitable_partition(graph)
    kept = quotient_matrix(graph, part)
    assert kept == quotient_matrix(graph, Partition(part.cells))  # counted afresh
    assert part == Partition(part.cells)
    assert hash(part) == hash(Partition(part.cells))
    assert repr(part) == repr(Partition(part.cells))


def test_kept_quotient_matches_a_fresh_count_on_catalog_graphs():
    seen = set()
    for case in enumerate_cases(64):
        group = THEOREMS[case.theorem_id].build_group(case.params_dict())
        key = (group.table, case.graph_kind)
        if key not in seen:
            seen.add(key)
            _kept_quotient_is_a_fresh_count(GRAPH_BUILDERS[case.graph_kind](group))


@given(st.one_of(graphs_st(max_n=10), blown_up_graphs_st()))
def test_kept_quotient_matches_a_fresh_count(graph: Graph):
    _kept_quotient_is_a_fresh_count(graph)


def test_only_the_refined_graph_object_reads_the_kept_quotient(monkeypatch):
    calls = []

    def counted(graph, p):
        calls.append(p)
        return _cell_counts(graph, p)

    monkeypatch.setattr(partitions, "_cell_counts", counted)
    graph = enhanced_power_graph(make_dihedral(6))
    part = coarsest_equitable_partition(graph)
    refined = len(calls)
    quotient_matrix(graph, part)
    distance_quotient_matrix(graph, part)
    assert len(calls) == refined
    equal = Graph(graph.neighbors)
    assert equal == graph and equal is not graph
    assert quotient_matrix(equal, part) == quotient_matrix(graph, part)
    assert len(calls) == refined + 1
    quotient_matrix(graph, Partition(part.cells))
    assert len(calls) == refined + 2


def test_a_refined_partition_does_not_keep_its_graph_alive():
    graph = power_graph(make_dicyclic(4))
    part = coarsest_equitable_partition(graph)
    alive = weakref.ref(graph)
    del graph
    gc.collect()
    assert alive() is None
    again = power_graph(make_dicyclic(4))
    assert quotient_matrix(again, part) == quotient_matrix(again, Partition(part.cells))


def test_a_refined_partition_pickles_as_its_cells():
    graph = power_graph(make_dicyclic(4))
    part = coarsest_equitable_partition(graph)
    back = pickle.loads(pickle.dumps(part))
    assert back == part
    assert quotient_matrix(graph, back) == quotient_matrix(graph, part)


# ---------------------------------------------------------------------------
# coarsest refinement
# ---------------------------------------------------------------------------


def test_coarsest_partition_examples():
    assert coarsest_equitable_partition(complete_graph(5)).cells == (tuple(range(5)),)
    assert coarsest_equitable_partition(cycle_graph(6)).cells == (tuple(range(6)),)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert coarsest_equitable_partition(star).cells == ((0,), (1, 2, 3))
    assert coarsest_equitable_partition(path_graph(4)).cells == ((0, 3), (1, 2))
    assert coarsest_equitable_partition(empty_graph(0)).cells == ()


def test_coarsest_partition_of_enhanced_dihedral():
    g = make_dihedral(3)
    part = coarsest_equitable_partition(enhanced_power_graph(g))
    assert part.cells == ((0,), (1, 2), (3, 4, 5))


@given(graphs_st())
def test_coarsest_partition_is_equitable(graph: Graph):
    part = coarsest_equitable_partition(graph)
    assert is_equitable(graph, part)
    assert sorted(part.flatten()) == list(range(graph.vertex_count))


@given(st.one_of(graphs_st(max_n=10), blown_up_graphs_st()))
def test_coarsest_partition_matches_the_colour_refinement_oracle(graph: Graph):
    assert coarsest_equitable_partition(graph).cells == coarsest_equitable_cells_oracle(graph)


@given(graphs_st())
def test_coarsest_partition_separates_degrees(graph: Graph):
    part = coarsest_equitable_partition(graph)
    for cell in part.cells:
        assert len({graph.degree(v) for v in cell}) == 1


def test_family_partitions_refine_the_coarsest_one():
    cases = [
        (make_gpq(2, 5), "gpq-sylow"),
        (make_dihedral(4), "dihedral"),
        (make_dicyclic(4), "dicyclic"),
        (direct_product(make_elementary_abelian(2, 2), make_cyclic(3)), "elab-times-cyclic"),
    ]
    for g, name in cases:
        graph = enhanced_power_graph(g)
        coarse_cells = [set(c) for c in coarsest_equitable_partition(graph).cells]
        for cell in family_partition(g, name).cells:
            assert any(set(cell) <= big for big in coarse_cells)


# ---------------------------------------------------------------------------
# family partitions
# ---------------------------------------------------------------------------


def test_gpq_sylow_partition_structure():
    g = make_gpq(2, 3)
    part = family_partition(g, "gpq-sylow")
    assert part.cells == ((0,), (2, 4), (1,), (3,), (5,))
    h = make_gpq(3, 7)
    ph = family_partition(h, "gpq-sylow")
    assert ph.sizes() == (1, 6) + (2,) * 7


def test_dihedral_partition_structure():
    part = family_partition(make_dihedral(4), "dihedral")
    assert part.cells == ((0,), (1, 2, 3), (4,), (5,), (6,), (7,))


def test_dicyclic_partition_structure():
    part = family_partition(make_dicyclic(3), "dicyclic")
    assert part.cells == ((0, 3), (1, 2, 4, 5), (6, 9), (7, 10), (8, 11))


def test_elab_product_coarse_partition_structure():
    g = direct_product(make_elementary_abelian(2, 2), make_elementary_abelian(3, 1))
    part = family_partition(g, "elab-product-coarse")
    assert part.cells == (
        (0,),
        (3, 6, 9),
        (4, 5, 7, 8, 10, 11),
        (1, 2),
    )


def test_elab_product_fine_partition_structure():
    g = direct_product(make_elementary_abelian(2, 2), make_elementary_abelian(3, 2))
    part = family_partition(g, "elab-product-fine")
    # 1 + alpha + alpha*beta + beta cells with alpha = 3, beta = 4
    assert part.cell_count == 1 + 3 + 12 + 4
    assert part.sizes() == (1,) + (1,) * 3 + (2,) * 12 + (2,) * 4
    # fine cells assemble to the coarse ones
    coarse = family_partition(g, "elab-product-coarse")
    assert sorted(part.flatten()) == sorted(coarse.flatten())
    mixed = set(coarse.cells[2])
    assert set().union(*(part.cells[4:16])) == mixed


def test_elab_times_cyclic_partition_structure():
    g = direct_product(make_elementary_abelian(2, 2), make_cyclic(3))
    part = family_partition(g, "elab-times-cyclic")
    assert part.cells == ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))


def test_elab_times_cyclic_accepts_bare_elementary_abelian():
    part = family_partition(make_elementary_abelian(3, 2), "elab-times-cyclic")
    assert part.sizes() == (1, 2, 2, 2, 2)
    assert part.cells[0] == (0,)


@pytest.mark.parametrize(
    "name",
    ["gpq-sylow", "dihedral", "dicyclic", "elab-times-cyclic"],
)
def test_family_partitions_are_equitable_on_the_enhanced_graph(name: str):
    groups = {
        "gpq-sylow": make_gpq(2, 5),
        "dihedral": make_dihedral(6),
        "dicyclic": make_dicyclic(4),
        "elab-times-cyclic": direct_product(make_elementary_abelian(2, 2), make_cyclic(5)),
    }
    g = groups[name]
    assert is_equitable(enhanced_power_graph(g), family_partition(g, name))


def test_product_partitions_are_equitable_on_both_graphs():
    g = direct_product(make_elementary_abelian(2, 2), make_elementary_abelian(3, 1))
    for name in ("elab-product-coarse", "elab-product-fine"):
        part = family_partition(g, name)
        assert is_equitable(power_graph(g), part)
        assert is_equitable(enhanced_power_graph(g), part)


def test_product_coarse_quotient_of_the_power_graph():
    g = direct_product(make_elementary_abelian(2, 2), make_elementary_abelian(3, 2))
    q = quotient_matrix(power_graph(g), family_partition(g, "elab-product-coarse"))
    assert q.to_rows() == [
        [0, 3, 24, 8],
        [1, 0, 8, 0],
        [1, 1, 1, 2],
        [1, 0, 6, 1],
    ]


def test_family_partition_mismatches():
    with pytest.raises(FamilyMismatch):
        family_partition(make_dihedral(4), "gpq-sylow")
    with pytest.raises(FamilyMismatch):
        family_partition(make_gpq(2, 3), "no-such-partition")
    with pytest.raises(FamilyMismatch):
        family_partition(make_cyclic(6), "elab-times-cyclic")
    # m sharing a factor with p is outside the catalogued setting
    with pytest.raises(FamilyMismatch):
        family_partition(
            direct_product(make_elementary_abelian(2, 2), make_cyclic(2)),
            "elab-times-cyclic",
        )
    # a deserialized table has no family information at all
    anon = group_from_json(group_to_json(make_dihedral(4)))
    with pytest.raises(FamilyMismatch):
        family_partition(anon, "dihedral")


def _oracle_sweep() -> list:
    """Groups of every family with their partition names, no cyclic El(p) x Z_m."""
    out = [
        (make_gpq(p, q), "gpq-sylow")
        for q in range(3, 40)
        for p in range(2, q)
        if is_prime(p) and is_prime(q) and (q - 1) % p == 0 and p * q <= 40
    ]
    out += [(make_dihedral(n), "dihedral") for n in range(3, 40)]
    out += [(make_dicyclic(n), "dicyclic") for n in range(3, 20)]
    for p, n in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)):
        el = make_elementary_abelian(p, n)
        out.append((el, "elab-times-cyclic"))
        out += [
            (direct_product(el, make_cyclic(m)), "elab-times-cyclic")
            for m in range(2, 128 // p**n + 1)
            if m % p
        ]
    products = [(2, 1, 3, 1), (2, 2, 3, 1), (2, 1, 3, 2), (2, 2, 3, 2), (2, 3, 3, 1)]
    products += [(3, 1, 2, 2), (2, 1, 5, 1), (2, 2, 5, 1), (3, 1, 5, 1), (2, 1, 7, 1)]
    for p, n, q, m in products:
        g = direct_product(make_elementary_abelian(p, n), make_elementary_abelian(q, m))
        out += [(g, "elab-product-coarse"), (g, "elab-product-fine")]
    return out


def test_family_partitions_match_the_index_oracle():
    sweep = _oracle_sweep()
    assert len(sweep) == 132  # 122 groups; each El x El product has two partitions
    mismatched = [
        (g.spec.describe(), name)
        for g, name in sweep
        if family_partition(g, name).cells != family_partition_oracle(g, name)
    ]
    assert mismatched == []


@pytest.mark.parametrize(
    "g",
    [
        make_elementary_abelian(5, 1),
        direct_product(make_elementary_abelian(3, 1), make_cyclic(4)),
        direct_product(make_elementary_abelian(2, 1), make_cyclic(9)),
    ],
    ids=lambda g: g.spec.describe(),
)
def test_cyclic_inputs_get_one_cell(g):
    # a cyclic group is its own maximal cyclic subgroup: its enhanced power
    # graph is complete, so the star has no arms
    assert family_partition(g, "elab-times-cyclic").cells == (tuple(range(g.order)),)


def test_star_partition_needs_maximal_subgroups_meeting_only_in_the_core():
    rows = [
        # Z_2 x Z_4 has the order of D_8, but two of its cyclic subgroups of
        # order 4 share an element of order 2 that a third maximal one lacks
        ((2, 4), "dihedral", 4),
        # Z_4 x Z_4 has the order of Dic_16; its six maximal subgroups, all
        # of order 4, share its three elements of order 2 in pairs, while
        # their common core is trivial
        ((4, 4), "dicyclic", 4),
    ]
    for factors, name, n in rows:
        fake = dataclasses.replace(
            direct_product(*map(make_cyclic, factors)), spec=GroupFamilySpec(name, (n,))
        )
        with pytest.raises(FamilyMismatch, match="outside the core"):
            family_partition(fake, name)
        with pytest.raises(FamilyMismatch, match="outside the core"):
            star_partition(fake)


def test_enhanced_form_is_a_star_exactly_when_maximal_subgroups_meet_in_their_core():
    groups = catalog_groups(64) + [
        direct_product(make_cyclic(2), make_cyclic(4)),
        direct_product(make_cyclic(4), make_cyclic(4)),
        direct_product(make_dihedral(4), make_cyclic(3)),
        direct_product(make_dicyclic(3), make_cyclic(2)),
    ]
    seen = set()
    for g in groups:
        maximal = [set(sub) for sub in maximal_cyclic_subgroups(g)]
        core = set.intersection(*maximal)
        meet_in_core = all(a & b == core for a, b in combinations(maximal, 2))
        spec, part = join_form(g, "enhanced")
        assert (spec.outer.edge_count == part.cell_count - 1) == meet_in_core, g.spec.describe()
        seen.add(meet_in_core)
    assert seen == {True, False}


def test_partitions_module_imports_no_group_code():
    source = Path(__file__).parents[1] / "src" / "pgspectra" / "partitions.py"
    imported = set()  # absolute names of modules and of names taken from them
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("pgspectra" if node.level else "", node.module)))
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    forbidden = {"pgspectra.groups", "pgspectra.theorems"}
    assert not imported & forbidden, sorted(imported & forbidden)


def test_star_partition_needs_a_star_family():
    with pytest.raises(FamilyMismatch):
        star_partition(make_cyclic(6))
    with pytest.raises(FamilyMismatch):
        star_partition(direct_product(make_elementary_abelian(2, 2), make_elementary_abelian(3, 1)))
    with pytest.raises(FamilyMismatch):
        star_partition(group_from_json(group_to_json(make_dihedral(4))))


def test_family_partition_names_catalogued():
    assert set(FAMILY_PARTITIONS) == {
        "gpq-sylow",
        "dihedral",
        "dicyclic",
        "elab-product-coarse",
        "elab-product-fine",
        "elab-times-cyclic",
    }
