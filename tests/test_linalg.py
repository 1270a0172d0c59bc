from __future__ import annotations

import contextlib
import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    _list_mul,
    catalog_groups,
    char_poly_faddeev_oracle,
    char_poly_oracle,
    determinant_oracle,
)
from pgspectra import (
    FactoredPoly,
    Graph,
    IntMatrix,
    IntPolynomial,
    adjacency_matrix,
    block,
    char_poly,
    dense_char_poly,
    determinant,
    distance_matrix,
    identity,
    kron,
    make_dicyclic,
    make_dihedral,
    ones,
    poly_exact_div,
    x_plus,
    zeros,
)
from pgspectra.errors import (
    BitGrowthExceeded,
    DimensionMismatch,
    DisconnectedGraph,
    InexactDivision,
    InternalExactnessViolation,
    NotSquare,
)
from pgspectra import linalg
from pgspectra.graphs import graph_matrix
from pgspectra.theorems import GRAPH_BUILDERS, THEOREMS, enumerate_cases


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

entries_st = st.integers(-9, 9)


@st.composite
def square_matrices(draw, max_n: int = 5) -> IntMatrix:
    n = draw(st.integers(1, max_n))
    flat = draw(st.lists(entries_st, min_size=n * n, max_size=n * n))
    return IntMatrix(n, n, tuple(flat))


polys_st = st.builds(
    IntPolynomial.from_coeffs, st.lists(st.integers(-20, 20), min_size=0, max_size=6)
)
nonzero_polys_st = polys_st.filter(bool)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def test_matrix_construction_and_access():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m[0, 2] == 3
    assert m.row(1) == (4, 5, 6)
    assert m.to_rows() == [[1, 2, 3], [4, 5, 6]]


def test_matrix_shape_validation():
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        IntMatrix(-1, 0, ())
    with pytest.raises(DimensionMismatch):
        IntMatrix(0, -2, ())


def test_matrix_arithmetic():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a + b).to_rows() == [[1, 3], [4, 4]]
    assert (a - b).to_rows() == [[1, 1], [2, 4]]
    assert (3 * a).to_rows() == [[3, 6], [9, 12]]


def test_identity_ones_zeros():
    assert identity(2).to_rows() == [[1, 0], [0, 1]]
    assert zeros(1, 3).to_rows() == [[0, 0, 0]]
    assert ones(2, 2).to_rows() == [[1, 1], [1, 1]]


def test_kron_example():
    got = kron(IntMatrix.from_rows([[1, 2], [0, 1]]), ones(1, 2))
    assert got.to_rows() == [[1, 1, 2, 2], [0, 0, 1, 1]]


def test_kron_mixed_shapes():
    got = kron(ones(2, 1), identity(2))
    assert got.to_rows() == [[1, 0], [0, 1], [1, 0], [0, 1]]


def test_block_assembly():
    grid = [[identity(2), zeros(2, 1)], [ones(1, 2), 5 * identity(1)]]
    assert block(grid).to_rows() == [[1, 0, 0], [0, 1, 0], [1, 1, 5]]


def test_block_rejects_ragged_grid():
    with pytest.raises(DimensionMismatch):
        block([[identity(2), zeros(1, 1)]])


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_poly_normalization_and_degree():
    assert IntPolynomial.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial.from_coeffs([0, 0]).coeffs == ()
    assert IntPolynomial(()).degree == -1
    assert x_plus(3).coeffs == (3, 1)
    assert x_plus(0).degree == 1


def test_poly_arithmetic():
    p = IntPolynomial((1, 1))  # x + 1
    q = IntPolynomial((-1, 1))  # x - 1
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p + q).coeffs == (0, 2)
    assert (p - q).coeffs == (2,)
    assert (p**3).coeffs == (1, 3, 3, 1)
    assert (p**0).coeffs == (1,)
    assert p(5) == 6
    assert (p * q)(3) == 8


@example(a=1, c=-3, k=60)
@example(a=-2, c=0, k=60)
@example(a=1, c=5, k=60)
@example(a=7, c=-1, k=0)
@given(
    a=st.integers(-(10**6), 10**6).filter(bool),
    c=st.integers(-(10**6), 10**6),
    k=st.integers(0, 60),
)
def test_linear_power_matches_repeated_multiplication(a: int, c: int, k: int):
    base = IntPolynomial((c, a))
    assert base**k == _schoolbook_expansion([(base, k)])


def test_power_of_constants_zero_and_negative_exponents():
    assert IntPolynomial((3,)) ** 4 == IntPolynomial((81,))
    assert IntPolynomial((-2,)) ** 0 == IntPolynomial((1,))
    assert IntPolynomial() ** 3 == IntPolynomial()
    assert IntPolynomial() ** 0 == IntPolynomial((1,))
    for base in (x_plus(1), IntPolynomial((2,)), IntPolynomial(), IntPolynomial((1, 0, 1))):
        with pytest.raises(ValueError):
            base**-1
        with pytest.raises(TypeError):
            base**2.0


@example(p=IntPolynomial(), k=0)
@example(p=IntPolynomial(), k=5)
@given(
    p=st.builds(IntPolynomial.from_coeffs, st.lists(st.integers(-4, 4), max_size=5)),
    k=st.integers(0, 8),
)
def test_power_agrees_with_the_power_of_each_value(p: IntPolynomial, k: int):
    # The degree and k*deg(p) + 1 values pin p**k down; evaluating them
    # checks it by a route that shares nothing with __mul__ or __pow__.
    power = p**k
    assert power.degree == (k * p.degree if p or not k else -1)
    m = k * max(p.degree, 0)
    for x in range(-m // 2, m // 2 + 1):  # m + 1 distinct points
        assert power(x) == p(x) ** k


def _schoolbook_expansion(factors: list[tuple[IntPolynomial, int]]) -> IntPolynomial:
    out = [1]
    for base, mult in factors:
        for _ in range(mult):
            out = _list_mul(out, list(base.coeffs))
    return IntPolynomial.from_coeffs(out)


big_polys_st = st.one_of(
    st.just(IntPolynomial()),
    st.builds(IntPolynomial.from_coeffs, st.lists(st.integers(-(2**300), 2**300), max_size=1)),
    st.builds(
        IntPolynomial.from_coeffs,
        st.lists(
            st.one_of(st.integers(-2, 2), st.integers(-(2**300), 2**300)), min_size=2, max_size=41
        ),
    ),
)


@example(factors=[(IntPolynomial(), 0)])  # IntPolynomial()**0 is 1
@example(factors=[])
@example(factors=[(IntPolynomial(), 1), (x_plus(3), 2), (IntPolynomial((2**300,)), 1)])
@example(factors=[(x_plus(7), 2), (IntPolynomial(), 3)])
@example(factors=[(x_plus(1), 40)])  # (x+1)**k attains the 1-norm bound 2**k
@example(factors=[(x_plus(-1), 40)])
@example(factors=[(x_plus(1), 7)])  # bound 2**7: its bit length 8 is a byte
@example(factors=[(x_plus(-1), 3), (x_plus(1), 4)])  # the same bound, alternating signs
@example(factors=[(IntPolynomial((255,)), 1)])  # one coefficient at the bound
@example(factors=[(IntPolynomial((0, 0, -(2**16 - 1))), 2)])
@settings(max_examples=150, deadline=None)
@given(factors=st.lists(st.tuples(big_polys_st, st.integers(0, 3)), max_size=5))
def test_products_powers_and_expansions_match_schoolbook_products(factors):
    expected = _schoolbook_expansion(factors)
    assert linalg._expand(factors) == expected
    nonzero = [(base, mult) for base, mult in factors if base]
    assert FactoredPoly.of(*nonzero).expand() == _schoolbook_expansion(nonzero)
    product = IntPolynomial((1,))
    for base, mult in factors:
        power = base**mult
        assert power == _schoolbook_expansion([(base, mult)])
        product = product * power
    assert product == expected


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("bits", [7, 8, 9, 15, 16, 17, 63, 64, 300])
def test_a_coefficient_at_the_bound_fits_its_slot(bits, sign):
    # 2**bits - 1 and 2**bits have bit lengths either side of a byte boundary
    # when bits is 8 or 16.  A monomial and its square each have a
    # coefficient equal to their product's bound.
    for c in (sign * (2**bits - 1), sign * 2**bits):
        mono = IntPolynomial((0, 0, c))
        assert mono * IntPolynomial((1,)) == mono
        assert mono**2 == IntPolynomial((0, 0, 0, 0, c * c))
        assert IntPolynomial((c, c)) * IntPolynomial((-1, 1)) == IntPolynomial((-c, 0, c))


@pytest.mark.parametrize(
    "coeffs", [(5,), (1, 0, 1), (-3, 1, 0, 2), tuple(range(1, 9))], ids=lambda c: f"deg{len(c) - 1}"
)
def test_powers_and_expansions_make_no_polynomial_product(monkeypatch, coeffs):
    # Every expansion is one evaluation at 2**B, never a chain of products.
    p = IntPolynomial(coeffs)
    calls = []
    mul = IntPolynomial.__mul__

    def recording_mul(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(IntPolynomial, "__mul__", recording_mul)
    for k in range(7):
        p**k
    FactoredPoly.of((p, 1)).expand()
    FactoredPoly.of((p, 3), (x_plus(-2), 4), (IntPolynomial((1, 0, 1)), 2)).expand()
    char_poly(adjacency_matrix(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])))
    assert calls == []


@pytest.mark.parametrize("coeffs", [(0,), (3, 0), (1, 2, 0)])
def test_poly_rejects_a_zero_leading_coefficient(coeffs):
    with pytest.raises(DimensionMismatch, match="leading coefficient"):
        IntPolynomial(coeffs)


def test_exact_div_examples():
    num = IntPolynomial((-1, 0, 1))  # x^2 - 1
    assert poly_exact_div(num, x_plus(1)).coeffs == (-1, 1)
    assert poly_exact_div(num, x_plus(-1)).coeffs == (1, 1)
    zero = IntPolynomial(())
    assert poly_exact_div(zero, x_plus(1)).coeffs == ()


def test_exact_div_failures():
    with pytest.raises(InexactDivision):
        poly_exact_div(IntPolynomial((1, 0, 1)), x_plus(1))  # x^2 + 1 by x + 1
    with pytest.raises(InexactDivision):
        poly_exact_div(IntPolynomial((0, 1)), IntPolynomial((0, 2)))  # x by 2x
    with pytest.raises(InexactDivision):
        poly_exact_div(x_plus(1), IntPolynomial((-1, 0, 1)))  # degree too low
    with pytest.raises(InexactDivision):
        poly_exact_div(x_plus(1), IntPolynomial(()))


@given(polys_st, nonzero_polys_st)
def test_mul_then_exact_div_roundtrip(a: IntPolynomial, b: IntPolynomial):
    assert poly_exact_div(a * b, b) == a


@given(polys_st, polys_st, st.integers(-5, 5))
def test_poly_ring_laws_at_points(a: IntPolynomial, b: IntPolynomial, x: int):
    assert (a * b)(x) == a(x) * b(x)
    assert (a + b)(x) == a(x) + b(x)


def test_poly_pretty():
    assert IntPolynomial((-13, -25, -5, 1)).pretty() == "x^3 - 5*x^2 - 25*x - 13"
    assert IntPolynomial(()).pretty() == "0"
    assert IntPolynomial((0, -1)).pretty() == "-x"


def test_poly_json_roundtrip():
    p = IntPolynomial((-(10**30), 0, 7))
    text = json.dumps(p.to_json_obj())
    assert json.loads(text) == {"coeffs": [str(-(10**30)), "0", "7"]}


# ---------------------------------------------------------------------------
# factored polynomials
# ---------------------------------------------------------------------------


def test_factored_expand():
    f = FactoredPoly.of((x_plus(1), 1), (x_plus(2), 2))
    assert f.degree == 3
    assert f.expand().coeffs == (4, 8, 5, 1)


def test_factored_of_drops_zero_multiplicity():
    f = FactoredPoly.of((x_plus(1), 0), (x_plus(5), 1))
    assert len(f.factors) == 1
    assert f.expand() == x_plus(5)


def test_factored_pretty_and_json():
    f = FactoredPoly.of((x_plus(1), 2), (IntPolynomial((-3, -4, 1)), 1))
    assert f.pretty() == "(x + 1)^2 * (x^2 - 4*x - 3)"
    assert json.loads(json.dumps(f.to_json_obj())) == {
        "factors": [
            {"coeffs": ["1", "1"], "mult": 2},
            {"coeffs": ["-3", "-4", "1"], "mult": 1},
        ]
    }


# ---------------------------------------------------------------------------
# exact integers where values enter
# ---------------------------------------------------------------------------

# Each loader takes an int and nothing else, in every position: int() would
# read 1.5 or True as 1 (char_poly of [[1.5]] came out as x - 1), and a string
# is not a number. A matrix shape, a matrix's scalar factor and a factor's
# multiplicity are ints too; a polynomial's coefficients are checked where it
# is made (IntPolynomial((0.5, 1)) * x_plus(1) raised a bare AttributeError),
# and from_coeffs checks a trailing 0.0 before it drops trailing zeros.
LOADERS = {
    "from_rows": lambda v: IntMatrix.from_rows([[v]]),
    "from_rows_later_entry": lambda v: IntMatrix.from_rows([[1, 2], [3, v]]),
    "from_coeffs": lambda v: IntPolynomial.from_coeffs([v, 1]),
    "from_coeffs_leading": lambda v: IntPolynomial.from_coeffs([1, v]),
    "polynomial": lambda v: IntPolynomial((v, 1)),
    "polynomial_leading": lambda v: IntPolynomial((1, v)),
    "matrix_scalar": lambda v: v * identity(2),
    "matrix_shape_rows": lambda v: IntMatrix(v, 1, (1,)),
    "matrix_shape_cols": lambda v: IntMatrix(1, v, (1,)),
    "factored_mult": lambda v: FactoredPoly(((x_plus(1), v),)),
}


@pytest.mark.parametrize(
    "bad", [1.5, 1.0, 0.0, True, False, "1", "x", "1.5", " 1", None, Fraction(1)]
)
@pytest.mark.parametrize("load", LOADERS.values(), ids=LOADERS.keys())
def test_loaders_reject_values_that_are_not_exact_integers(load, bad):
    with pytest.raises(DimensionMismatch, match="integer"):
        load(bad)


# Malformed input is a named error, not a bare TypeError or a wrong value: a
# row is a list or tuple of one length (a string is not the list of its
# digits), a shape matches its entries, and a factor is a nonzero base with a
# multiplicity of at least one.
MALFORMED = {
    "rows_are_strings": lambda: IntMatrix.from_rows(["12", "34"]),
    "rows_are_ints": lambda: IntMatrix.from_rows([1, 2]),
    "rows_one_string": lambda: IntMatrix.from_rows("12"),
    "rows_ragged": lambda: IntMatrix.from_rows([[1, 2], [3]]),
    "rows_list_then_string": lambda: IntMatrix.from_rows([[1], "2"]),
    "coeffs_one_string": lambda: IntPolynomial.from_coeffs("12"),
    "coeffs_a_list": lambda: IntPolynomial([1, 2]),
    "matrix_negative_shape": lambda: IntMatrix(-1, 0, ()),
    "matrix_shape_disagrees_with_entries": lambda: IntMatrix(3, 2, (1, 2)),
    "identity_float_size": lambda: identity(1.5),
    "identity_bool_size": lambda: identity(True),
    "identity_negative_size": lambda: identity(-1),
    "zeros_float_rows": lambda: zeros(2.0, 1),
    "zeros_string_cols": lambda: zeros(1, "2"),
    "ones_none_rows": lambda: ones(None, 2),
    "ones_negative_cols": lambda: ones(2, -1),
    "factored_mult_zero": lambda: FactoredPoly(((x_plus(1), 0),)),
    "factored_mult_negative": lambda: FactoredPoly(((x_plus(1), -1),)),
    "factored_zero_base": lambda: FactoredPoly(((IntPolynomial(), 1),)),
}


@pytest.mark.parametrize("load", MALFORMED.values(), ids=MALFORMED.keys())
def test_constructors_reject_malformed_input_with_a_named_error(load):
    with pytest.raises(DimensionMismatch):
        load()


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------


def test_char_poly_hand_examples():
    assert char_poly(IntMatrix.from_rows([[0]])).coeffs == (0, 1)
    assert char_poly(identity(3)).coeffs == (-1, 3, -3, 1)  # (x - 1)^3
    assert char_poly(IntMatrix.from_rows([[2, 1], [1, 2]])).coeffs == (3, -4, 1)
    assert char_poly(IntMatrix(0, 0, ())).coeffs == (1,)
    assert dense_char_poly(IntMatrix(0, 0, ())).coeffs == (1,)
    assert char_poly(IntMatrix.from_rows([[512]])).coeffs == (-512, 1)
    assert char_poly(IntMatrix.from_rows([[1, 0], [0, 0]])).coeffs == (0, -1, 1)
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert char_poly(swap).coeffs == dense_char_poly(swap).coeffs == (-1, 0, 1)


def test_char_poly_star_distance_matrix():
    # distance matrix of the star on four vertices, centre first
    d = IntMatrix.from_rows(
        [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]
    )
    got = char_poly(d)
    assert got.coeffs == (-12, -28, -15, 0, 1)
    assert got.coeffs == char_poly_oracle(d)
    factored = FactoredPoly.of((x_plus(2), 2), (IntPolynomial((-3, -4, 1)), 1))
    assert factored.expand() == got


def test_char_poly_requires_square():
    with pytest.raises(NotSquare):
        char_poly(ones(2, 3))
    with pytest.raises(NotSquare):
        dense_char_poly(ones(1, 2))


# IntMatrix does not check its entries' types, so the routes that start the
# linear algebra do: True read as 1 gave x - 1, 1.5 an exactness violation.
@pytest.mark.parametrize("bad", [True, False, 1.5, 1.0, "7", None, Fraction(1)])
@pytest.mark.parametrize("route", [char_poly, dense_char_poly, determinant])
def test_linear_algebra_rejects_entries_that_are_not_ints(route, bad):
    with pytest.raises(DimensionMismatch, match="integer"):
        route(IntMatrix(1, 1, (bad,)))
    with pytest.raises(DimensionMismatch, match="integer"):
        route(IntMatrix(2, 2, (0, 1, bad, 0)))


def test_char_poly_matches_oracle_on_seeded_matrices():
    rng = random.Random(20240915)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = IntMatrix(n, n, tuple(rng.randint(-10, 10) for _ in range(n * n)))
        assert char_poly(m).coeffs == char_poly_oracle(m)


@given(square_matrices())
def test_char_poly_shape_invariants(m: IntMatrix):
    p = char_poly(m)
    assert p.degree == m.rows
    assert p.coeffs[-1] == 1
    assert p.coeffs[m.rows - 1] == -sum(m[i, i] for i in range(m.rows))
    assert p(0) == (-1) ** m.rows * determinant(m)


@given(square_matrices())
def test_char_poly_matches_faddeev_oracle(m: IntMatrix):
    assert char_poly(m).coeffs == char_poly_faddeev_oracle(m)


# Which entries may be nonzero, for the Hessenberg route: "sparse" leaves zero
# subdiagonal entries with nonzero ones below (pivot search) and all-zero
# columns (skip); "block-triangular" has zero subdiagonals that survive the
# reduction.
SHAPES = {
    "mixed-sign": lambda rng, i, j: True,
    "sparse": lambda rng, i, j: rng.random() < 0.15,
    "block-triangular": lambda rng, i, j: i // 4 <= j // 4,
    "nilpotent": lambda rng, i, j: i < j,
    "hessenberg": lambda rng, i, j: i <= j + 1,
}


def _shaped_matrix(rng: random.Random, shape: str, n: int) -> IntMatrix:
    if shape == "permutation":
        perm = list(range(n))
        rng.shuffle(perm)
        return IntMatrix(n, n, tuple(int(j == perm[i]) for i in range(n) for j in range(n)))
    keep = SHAPES[shape]
    flat = (rng.randint(-9, 9) if keep(rng, i, j) else 0 for i in range(n) for j in range(n))
    return IntMatrix(n, n, tuple(flat))


@pytest.mark.parametrize("shape", [*SHAPES, "permutation"])
def test_char_poly_matches_faddeev_oracle_on_shaped_matrices(shape: str):
    rng = random.Random(20261017)
    for n in (8, 19, 30):
        m = _shaped_matrix(rng, shape, n)
        assert char_poly(m).coeffs == char_poly_faddeev_oracle(m), (shape, n)


def test_char_poly_matches_faddeev_oracle_on_catalog_matrices():
    seen = set()
    for case in enumerate_cases(32):
        group = THEOREMS[case.theorem_id].build_group(case.params_dict())
        key = (tuple(map(tuple, group.table)), case.graph_kind)
        if key in seen:
            continue
        seen.add(key)
        graph = GRAPH_BUILDERS[case.graph_kind](group)
        for m in (distance_matrix(graph), adjacency_matrix(graph)):
            assert char_poly(m).coeffs == char_poly_faddeev_oracle(m), case.describe()


@pytest.mark.parametrize(
    "n, r",
    [
        (8, 9),
        (30, 9),
        (20, 1000),
        # 2 * (r + 1) sits just below the 61-bit prime P, so c_0 = r and -r
        # land next to the two ends of the lift range (-P/2, P/2].
        (1, 2**60 - 2),
    ],
)
def test_char_poly_where_the_gershgorin_bound_is_attained(n: int, r: int):
    # The twin reduction takes these to 1 x 1 quotients; dense_char_poly
    # still meets the lift boundary on the whole matrix.
    scalar = -r * identity(n)  # (x + r)^n, so |c_k| = C(n, k) r^(n-k) exactly
    for route in (char_poly, dense_char_poly):
        assert route(scalar).coeffs == tuple(comb(n, k) * r ** (n - k) for k in range(n + 1))
        for m in (scalar, r * identity(n), r * ones(n, n)):
            assert route(m).coeffs == char_poly_faddeev_oracle(m)


def test_char_poly_certificate_catches_a_corrupted_kernel(monkeypatch):
    kernel = linalg._hessenberg_char_poly

    def corrupted(rows, p):
        coeffs = kernel(rows, p)
        coeffs[1] = (coeffs[1] + 1) % p
        return coeffs

    monkeypatch.setattr(linalg, "_hessenberg_char_poly", corrupted)
    # char_poly splits the twins of [[2, 1], [1, 2]] into 1 x 1 leaves, its
    # eigenvalues, so no kernel runs there; the twin-free matrix is one leaf.
    twins = IntMatrix.from_rows([[2, 1], [1, 2]])
    twin_free = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert char_poly(twins).coeffs == (3, -4, 1)
    routes = [(char_poly, twin_free), (dense_char_poly, twin_free), (dense_char_poly, twins)]
    for route, m in routes:
        with pytest.raises(InternalExactnessViolation):
            route(m)


def test_char_poly_bound_beyond_the_prime_table(monkeypatch):
    monkeypatch.setattr(linalg, "MERSENNE_EXPONENTS", (61,))
    assert char_poly(IntMatrix.from_rows([[2, 1], [1, 2]])).coeffs == (3, -4, 1)
    # Distinct diagonal entries leave no twins: the bound 2 * 21**20 > 2**61 - 1
    # is met on the whole matrix.
    twin_free = IntMatrix(20, 20, tuple(i + 1 if i == j else 0 for i in range(20) for j in range(20)))
    with pytest.raises(BitGrowthExceeded, match="tabled prime"):
        char_poly(twin_free)
    with pytest.raises(BitGrowthExceeded, match="tabled prime"):
        dense_char_poly(9 * identity(20))  # bound 2 * 10**20
    # The reduced route takes 9I to the 1 x 1 quotient [9], well inside the table.
    assert char_poly(9 * identity(20)) == x_plus(-9) ** 20


# ---------------------------------------------------------------------------
# twins
# ---------------------------------------------------------------------------


def _plant_twins(rows: list[list[int]], cell: list[int], cross: int) -> list[int]:
    """Append a copy of ``cell`` to ``rows`` in place; return the copy's indices.

    Each copy keeps its original's row and column outside the two cells and
    the entries inside the cell; between the cells every entry is ``cross``.
    A one-vertex cell gives twins with eigenvalue ``d - cross``.  A cell of
    mutual twins gives twin cells, found only once both cells are classes.
    """
    n = len(rows)
    copy = list(range(n, n + len(cell)))
    image = dict(zip(cell, copy))
    for row in rows:
        row.extend(row[i] for i in cell)
    for i in cell:
        rows.append(list(rows[i]))
    for a in cell:
        for b in cell:
            rows[image[a]][image[b]] = rows[a][b]
            rows[a][image[b]] = rows[image[a]][b] = cross
    return copy


@st.composite
def matrices_with_planted_twins(draw) -> IntMatrix:
    """A random, not necessarily symmetric, integer matrix grown by twin copies.

    A vertex gets a few copies with one twin value (closed twins of A when
    it is 1 and the diagonal 0, open twins when it is 0); then that cell of
    mutual twins may be copied as a whole with another value.  The vertices
    are shuffled last.
    """
    k = draw(st.integers(1, 4))
    rows = [draw(st.lists(entries_st, min_size=k, max_size=k)) for _ in range(k)]
    for _ in range(draw(st.integers(1, 2))):
        x = draw(st.integers(0, len(rows) - 1))
        t = draw(st.integers(-3, 3))
        cell = [x]
        for _ in range(draw(st.integers(1, 2))):
            cell += _plant_twins(rows, [x], t)
        if draw(st.booleans()):
            _plant_twins(rows, cell, draw(st.integers(-3, 3)))
    perm = draw(st.permutations(range(len(rows))))
    n = len(rows)
    return IntMatrix(n, n, tuple(rows[i][j] for i in perm for j in perm))


@st.composite
def graph_matrices_with_twins(draw) -> IntMatrix:
    """Adjacency or distance matrix of a random graph with closed and open twins."""
    k = draw(st.integers(1, 5))
    edges = {(u, v) for u in range(k) for v in range(u) if draw(st.booleans())}
    n = k
    for _ in range(draw(st.integers(1, 4))):
        x = draw(st.integers(0, n - 1))
        edges |= {(n, v) for u, v in edges if u == x} | {(n, u) for u, v in edges if v == x}
        if draw(st.booleans()):
            edges.add((n, x))  # closed twins
        n += 1
    if draw(st.booleans()):
        edges |= {(n, v) for v in range(n)}  # a universal vertex keeps D defined
        n += 1
    graph = Graph.from_edges(n, edges)
    if draw(st.booleans()):
        return adjacency_matrix(graph)
    try:
        return distance_matrix(graph)
    except DisconnectedGraph:
        return adjacency_matrix(graph)


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices_with_planted_twins(), graph_matrices_with_twins()))
def test_reduced_char_poly_matches_faddeev_oracle_on_planted_twins(m: IntMatrix):
    assert char_poly(m).coeffs == char_poly_faddeev_oracle(m)


def _are_twins(rows: list[tuple[int, ...]], x: int, y: int) -> bool:
    """Rows and columns of x and y agree outside {x, y}, on the diagonal and between them."""
    outside = [c for c in range(len(rows)) if c not in (x, y)]
    return (
        all(rows[x][c] == rows[y][c] and rows[c][x] == rows[c][y] for c in outside)
        and rows[x][x] == rows[y][y]
        and rows[x][y] == rows[y][x]
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        matrices_with_planted_twins(),
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n
            )
        ).map(IntMatrix.from_rows),
    )
)
def test_twin_groups_are_the_disjoint_classes_of_mutual_twins(m: IntMatrix):
    # Each group is returned straight from its bucket, with no pass that
    # drops a class seen before: the groups must still be disjoint, and two
    # classes share a group exactly when they are twins.
    rows = [m.row(i) for i in range(m.rows)]
    groups = linalg._twin_groups(rows, list(zip(*rows)), [list(range(m.rows))])
    group_of = {}
    for k, group in enumerate(groups):
        assert len(group) > 1 and all(len(block) == 1 for block in group)
        for (i,) in group:
            assert i not in group_of
            group_of[i] = k
    for x in range(m.rows):
        for y in range(x + 1, m.rows):
            same = x in group_of and group_of.get(y) == group_of[x]
            assert same == _are_twins(rows, x, y), (x, y)


def _transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix.from_rows(list(zip(*(m.row(i) for i in range(m.rows)))))


@settings(max_examples=60, deadline=None)
@given(matrices_with_planted_twins())
def test_char_poly_matches_faddeev_oracle_on_transposes_and_symmetrized(m: IntMatrix):
    # M + M^T is symmetric with negative entries, so it runs the rows-only
    # keys on matrices that are no graph matrix.
    t = _transpose(m)
    for case in (m, t, m + t):
        assert char_poly(case).coeffs == char_poly_faddeev_oracle(case)


def test_rows_alone_key_only_an_exactly_symmetric_matrix(monkeypatch):
    # Rows 0 and 1 agree outside {0, 1}, on the diagonal and in their entry
    # t = 1 between them, and share their row and column sums; their columns
    # differ in rows 2 and 3, so they are no twins.
    rows = [(0, 1, 5, 7), (1, 0, 5, 7), (2, 3, 0, 1), (3, 2, 4, 0)]
    assert linalg._modules(rows, list(zip(*rows))) == []
    m = IntMatrix.from_rows(rows)
    assert char_poly(m).coeffs == char_poly_faddeev_oracle(m)
    # The same rows 0 and 1 with columns to match: twins, a module of two
    # one-class blocks whose 1 x 1 A is the eigenvalue 0 - 1.
    symmetric = [(0, 1, 5, 7), (1, 0, 5, 7), (5, 5, 0, 1), (7, 7, 1, 0)]
    assert linalg._modules(symmetric, list(zip(*symmetric))) == [[(0,), (1,)]]
    splits, pieces, _ = _record_splits_and_leaves(monkeypatch)
    m = IntMatrix.from_rows(symmetric)
    assert char_poly(m).coeffs == char_poly_faddeev_oracle(m)
    assert splits == [[[(0,), (1,)]]] and pieces == [[[(-1,)]]]


def _record_splits_and_leaves(monkeypatch) -> tuple[list, list, list]:
    """Record the modules and pieces of every certified split and the rows of every kernel call."""
    certify, kernel = linalg._certify_split, linalg._dense_char_poly
    splits, pieces, leaves = [], [], []

    def recording_certify(cols, modules, a):
        splits.append(modules)
        pieces.append(a)
        return certify(cols, modules, a)

    def recording_kernel(rows):
        leaves.append([list(row) for row in rows])
        return kernel(rows)

    monkeypatch.setattr(linalg, "_certify_split", recording_certify)
    monkeypatch.setattr(linalg, "_dense_char_poly", recording_kernel)
    return splits, pieces, leaves


def test_twin_steps_split_off_class_twins(monkeypatch):
    # Two copies of a pair of closed twins: the pairs are twin classes only
    # after the first step, as the arms of a star are.  The leaf [[5]] is the
    # eigenvalue 1 + 2 * 2 and needs no kernel.
    splits, _, leaves = _record_splits_and_leaves(monkeypatch)
    rows = [[0, 1], [1, 0]]
    _plant_twins(rows, [0, 1], 2)
    assert char_poly(IntMatrix.from_rows(rows)) == x_plus(1) ** 2 * x_plus(3) * x_plus(-5)
    assert splits == [[[(0,), (1,)], [(2,), (3,)]], [[(0,), (1,)]]]
    assert leaves == []


def test_no_1x1_matrix_reaches_the_kernel_from_char_poly(monkeypatch):
    kernel = linalg._dense_char_poly
    sizes = []

    def recording(rows):
        sizes.append(len(rows))
        return kernel(rows)

    for case in enumerate_cases(40):
        group = THEOREMS[case.theorem_id].build_group(case.params_dict())
        m = graph_matrix(GRAPH_BUILDERS[case.graph_kind](group), case.matrix_kind)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_dense_char_poly", recording)
            poly = char_poly(m)
        assert poly == dense_char_poly(m), case.describe()
    assert sizes and 1 not in sizes


def _wrong_eigenvalue(modules, pieces):
    return modules, [[[a[0][0] + 1]] for a in pieces]


def _non_twin_merge(modules, pieces):
    # Report the star's centre as one more twin of its leaves.
    return [[*modules[0], (0,)]], pieces


def _non_twin_in_group(modules, pieces):
    # Swap the star's centre in for the last of the three leaves of its group.
    assert len(modules[0]) == 3
    return [[*modules[0][:-1], (0,)]], pieces


def _wrong_piece_shape(modules, pieces):
    return modules, [[*a, a[0]] for a in pieces]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_wrong_eigenvalue, "q W != W A"),
        (_non_twin_merge, "not equitable"),
        (_non_twin_in_group, "not equitable"),
        (_wrong_piece_shape, "one s x s piece per module"),
    ],
)
def test_split_certificate_catches_a_corrupted_twin_step(monkeypatch, corrupt, message):
    certify = linalg._certify_split
    monkeypatch.setattr(
        linalg, "_certify_split", lambda cols, *split: certify(cols, *corrupt(*split))
    )
    star = IntMatrix.from_rows([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]])
    with pytest.raises(InternalExactnessViolation, match=message):
        char_poly(star)


def test_a_twin_free_matrix_makes_no_split_and_one_kernel_call(monkeypatch):
    splits, _, leaves = _record_splits_and_leaves(monkeypatch)
    twin_free = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert char_poly(twin_free).coeffs == (-2, -5, 1)
    assert splits == [] and leaves == [[[1, 2], [3, 4]]]


@pytest.mark.parametrize("route", [char_poly, dense_char_poly, determinant])
def test_each_route_checks_its_matrix_once(monkeypatch, route):
    square_rows = linalg._square_rows
    calls = []

    def counting(m, what):
        calls.append(what)
        return square_rows(m, what)

    monkeypatch.setattr(linalg, "_square_rows", counting)
    star = IntMatrix.from_rows([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]])
    for m in (star, IntMatrix.from_rows([[1, 2], [3, 4]]), IntMatrix(0, 0, ())):
        calls.clear()
        route(m)
        assert len(calls) == 1, m


def test_reduced_char_poly_matches_dense_on_catalog_graphs():
    """A and D of every graph kind of every catalog group to order 64, D_128 and Dic_128."""
    seen = set()
    for group in [*catalog_groups(64), make_dihedral(64), make_dicyclic(32)]:
        for build in GRAPH_BUILDERS.values():
            graph = build(group)
            matrices = [adjacency_matrix(graph)]
            with contextlib.suppress(DisconnectedGraph):
                matrices.append(distance_matrix(graph))
            for m in matrices:
                if m.entries not in seen:
                    seen.add(m.entries)
                    assert char_poly(m) == dense_char_poly(m), group.spec


# ---------------------------------------------------------------------------
# twin modules
# ---------------------------------------------------------------------------


@st.composite
def matrices_with_planted_modules(draw) -> tuple[IntMatrix, IntMatrix, IntMatrix, int]:
    """``(q, q_orbit, a, r)``: ``q`` with ``r`` blocks planted from ``q_orbit`` and ``a``.

    ``q_orbit`` is drawn on ``f`` fixed classes and ``s`` orbits with the
    entries from a fixed class to an orbit multiples ``r U`` of ``r`` and the
    orbit block ``a + r X``, so that the inverse basis change stays
    integral: a fixed class sees every block member ``t`` as ``U[t]`` and is
    seen by it as in ``q_orbit``; a block sees itself as ``a + X`` and any
    other block as ``X``.  The classes of ``q`` are shuffled last.
    """
    f, s, r = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    small = st.integers(-4, 4)

    def grid(rows: int, cols: int) -> list[list[int]]:
        return [draw(st.lists(small, min_size=cols, max_size=cols)) for _ in range(rows)]

    fixed, u, v, a, x = grid(f, f), grid(f, s), grid(s, f), grid(s, s), grid(s, s)
    q_orbit = [fixed[i] + [r * w for w in u[i]] for i in range(f)]
    q_orbit += [v[t] + [a[t][w] + r * x[t][w] for w in range(s)] for t in range(s)]
    # class f + i * s + t is member t of block i
    rows = []
    for i in range(f):
        rows.append(fixed[i] + u[i] * r)
    for blk in range(r):
        for t in range(s):
            rows.append(
                v[t] + [a[t][w] * (blk == other) + x[t][w] for other in range(r) for w in range(s)]
            )
    perm = draw(st.permutations(range(len(rows))))
    n = len(rows)
    q = IntMatrix(n, n, tuple(rows[i][j] for i in perm for j in perm))
    return q, IntMatrix.from_rows(q_orbit), IntMatrix.from_rows(a), r


@settings(max_examples=80, deadline=None)
@given(matrices_with_planted_modules())
def test_char_poly_matches_faddeev_oracle_on_planted_modules(planted):
    q, q_orbit, a, r = planted
    expected = IntPolynomial(char_poly_faddeev_oracle(q_orbit)) * IntPolynomial(
        char_poly_faddeev_oracle(a)
    ) ** (r - 1)
    assert char_poly(q).coeffs == char_poly_faddeev_oracle(q) == expected.coeffs


def _elab_product_matrix(theorem_id: str, **params: int) -> IntMatrix:
    thm = THEOREMS[theorem_id]
    graph = GRAPH_BUILDERS[thm.graph_kind](thm.build_group(params))
    return adjacency_matrix(graph) if thm.matrix_kind == "adjacency" else distance_matrix(graph)


def test_a_found_module_is_split_and_certified(monkeypatch):
    # El(3) x El(2^2): one step splits off four groups of two twins; the
    # twin-free quotient has the identity, the order-3 class, and three
    # order-2 classes each with its order-6 class, which form the blocks.
    certify = linalg._certify_split
    seen = []

    def recording(cols, modules, pieces):
        orbit_q = certify(cols, modules, pieces)
        seen.append([(len(cols), len(module), len(module[0]), len(orbit_q)) for module in modules])
        return orbit_q

    monkeypatch.setattr(linalg, "_certify_split", recording)
    m = _elab_product_matrix("pg-elab-product-adjacency", p=3, n=1, q=2, m=2)
    assert char_poly(m).coeffs == char_poly_faddeev_oracle(m)
    assert seen == [[(12, 2, 1, 8)] * 4, [(8, 3, 2, 4)]]


@pytest.mark.parametrize("theorem_id", ["pg-elab-product-adjacency", "pg-elab-product-distance"])
def test_el4_by_el9_power_graph_leaves_have_at_most_four_classes(monkeypatch, theorem_id):
    kernel = linalg._dense_char_poly
    sizes = []

    def recording(rows):
        sizes.append(len(rows))
        return kernel(rows)

    monkeypatch.setattr(linalg, "_dense_char_poly", recording)
    m = _elab_product_matrix(theorem_id, p=2, n=2, q=3, m=2)
    poly = char_poly(m)
    assert sizes and max(sizes) <= 4
    sizes.clear()
    assert poly == dense_char_poly(m) and sizes == [36]


def _misaligned(q, module):
    first, second, *rest = module
    return [first, second[::-1], *rest]


def _no_automorphism(q, module):
    # The classes outside the blocks as one more block: disjoint, of the
    # right length, and no swap of them with a block is an automorphism.
    outside = tuple(sorted(set(range(len(q))) - {x for block in module for x in block}))
    return [*module[:-1], outside]


def _wrong_a(pieces):
    # Only a module's A of more than one class: a 1 x 1 A is a twin eigenvalue.
    def plus_one(a):
        return [[v + (i == 0 == j) for j, v in enumerate(row)] for i, row in enumerate(a)]

    return [plus_one(a) if len(a) > 1 else a for a in pieces]


@pytest.mark.parametrize(
    "corrupt_module, corrupt_pieces, message",
    [
        (_misaligned, None, "not equitable"),
        (_no_automorphism, None, "not equitable"),
        (None, _wrong_a, "q W != W A"),
    ],
    ids=["wrong-alignment", "no-automorphism", "wrong-a"],
)
def test_module_certificate_catches_a_corrupted_split(
    monkeypatch, corrupt_module, corrupt_pieces, message
):
    find, certify = linalg._module_with_heads, linalg._certify_split
    if corrupt_module:
        def corrupted_find(rows, cols, colour, heads):
            module = find(rows, cols, colour, heads)
            return module and corrupt_module(rows, module)

        monkeypatch.setattr(linalg, "_module_with_heads", corrupted_find)
    if corrupt_pieces:
        monkeypatch.setattr(
            linalg, "_certify_split", lambda cols, mods, a: certify(cols, mods, corrupt_pieces(a))
        )
    m = _elab_product_matrix("pg-elab-product-adjacency", p=3, n=1, q=2, m=2)
    with pytest.raises(InternalExactnessViolation, match=message):
        char_poly(m)


def test_module_certificate_refuses_overlapping_blocks():
    cols = [(0,) * 6] * 6
    with pytest.raises(InternalExactnessViolation, match="disjoint"):
        linalg._certify_split(cols, [[(0, 1), (1, 2), (3, 4)]], [[[0] * 2] * 2])
    # A block member that is no class of q, in a first block or a later one.
    for module in ([(0,), (9,)], [(9,), (0,)]):
        with pytest.raises(InternalExactnessViolation, match="not classes of the quotient"):
            linalg._certify_split(cols, [module], [[[0]]])


def test_split_certificate_refuses_what_only_several_modules_can_get_wrong():
    cols = [(0,) * 6] * 6
    # Class 1 sits in a block of each of two modules.
    with pytest.raises(InternalExactnessViolation, match="disjoint"):
        linalg._certify_split(cols, [[(0,), (1,)], [(1,), (2,)]], [[[0]], [[0]]])
    # Two modules, one piece.
    with pytest.raises(InternalExactnessViolation, match="one s x s piece per module"):
        linalg._certify_split(cols, [[(0,), (1,)], [(2,), (3,)]], [[[0]]])
    # Both pieces, and a valid split of the zero matrix.
    assert linalg._certify_split(cols, [[(0,), (1,)], [(2,), (3,)]], [[[0]], [[0]]]) == [
        (0,) * 4
    ] * 4


def test_split_certificate_refuses_non_twins_in_an_equitable_cell():
    # The vertices of a 6-cycle form an equitable cell but are no twins:
    # only the eigenvector check refuses them as one group, whose A is 0 - 1.
    cycle = [tuple(int((i - j) % 6 in (1, 5)) for j in range(6)) for i in range(6)]
    with pytest.raises(InternalExactnessViolation, match="q W != W A"):
        linalg._certify_split(list(zip(*cycle)), [[(i,) for i in range(6)]], [[(-1,)]])


def test_split_certificate_checks_equitability_on_every_class():
    # Twins 1 and 2 of a star with one more leaf 3, except that class 2 sees
    # 3 as 5, not 2.  Q' is read off rows 0, 1 and 3, which see the cells
    # alike; only class 2, no cell's first class, breaks equitability, and
    # q W = W A holds (columns 1 and 2 differ only at rows 1 and 2).
    q = [(0, 1, 1, 1), (1, 0, 2, 2), (1, 2, 0, 5), (1, 2, 2, 0)]
    cols = list(zip(*q))
    twins = [[(1,), (2,)]]
    with pytest.raises(InternalExactnessViolation, match="not equitable"):
        linalg._certify_split(cols, twins, [[(-2,)]])
    # With q[2][3] = 2 the same split holds and returns Q'.
    q[2] = (1, 2, 0, 2)
    assert linalg._certify_split(list(zip(*q)), twins, [[(-2,)]]) == [
        (0, 2, 1), (1, 2, 2), (1, 4, 0)
    ]


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------


def test_determinant_examples():
    assert determinant(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2
    assert determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0
    assert determinant(IntMatrix(0, 0, ())) == 1
    assert determinant(identity(6)) == 1
    assert determinant(IntMatrix.from_rows([[300, 0], [0, 300]])) == 90000
    assert determinant(IntMatrix.from_rows([[1, 0], [0, 300]])) == 300


def test_determinant_zero_column_short_circuit():
    m = IntMatrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
    assert determinant(m) == 0


def test_determinant_requires_square():
    with pytest.raises(NotSquare):
        determinant(zeros(2, 3))


@given(square_matrices())
def test_determinant_matches_oracle(m: IntMatrix):
    assert determinant(m) == determinant_oracle(m)


@given(square_matrices(max_n=4))
def test_determinant_of_transpose(m: IntMatrix):
    assert determinant(m) == determinant(IntMatrix.from_rows(list(zip(*m.to_rows()))))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_matrix_csv_default_labels():
    m = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert m.to_csv() == "v0,v1\n0,1\n1,0\n"


def test_matrix_csv_quotes_awkward_labels():
    m = IntMatrix.from_rows([[0, 1], [1, 0]])
    text = m.to_csv(["(0,0)", "(0,1)"])
    assert text.splitlines()[0] == '"(0,0)","(0,1)"'


def test_matrix_csv_label_count_checked():
    with pytest.raises(DimensionMismatch):
        identity(2).to_csv(["only-one"])


def test_matrix_json_roundtrip():
    m = IntMatrix.from_rows([[10**25, -1], [0, 3]])
    text = json.dumps(m.to_json_obj())
    assert json.loads(text) == {"rows": 2, "cols": 2, "entries": [[str(10**25), "-1"], ["0", "3"]]}
