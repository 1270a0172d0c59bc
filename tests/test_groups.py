from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import re
from pathlib import Path

import pytest
from helpers import (
    catalog_groups,
    catalog_specs,
    check_associative,
    dihedral_type_rows_oracle,
    direct_product_rows_oracle,
    elementary_abelian_rows_oracle,
    gpq_rows_oracle,
    group_to_json_obj_oracle,
    prime_power_base,
    totient_and_divisors,
)

from pgspectra import (
    FiniteGroup,
    GroupFamilySpec,
    cyclic_subgroup,
    cyclic_subgroups,
    direct_product,
    element_order,
    element_subgroups,
    group_from_json,
    group_to_json,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_elementary_abelian,
    make_gpq,
    make_group,
    maximal_cyclic_subgroups,
    order_census,
)
from pgspectra import groups
from pgspectra.errors import InvalidFamilyParameters
from pgspectra.groups import (
    FAMILIES,
    FAMILY_PARAMS,
    MAX_ORDER,
    admit,
    family_of,
    family_spec,
    is_prime,
)


def groups_under_test() -> list[FiniteGroup]:
    return [
        make_cyclic(1),
        make_cyclic(12),
        make_elementary_abelian(2, 3),
        make_elementary_abelian(3, 2),
        make_dihedral(5),
        make_dicyclic(3),
        make_gpq(2, 5),
        make_gpq(3, 7),
        direct_product(make_elementary_abelian(2, 2), make_cyclic(3)),
        direct_product(make_elementary_abelian(2, 2), make_elementary_abelian(3, 2)),
    ]


# ---------------------------------------------------------------------------
# number-theory helpers
# ---------------------------------------------------------------------------


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_prime_power_base():
    assert prime_power_base(8) == 2
    assert prime_power_base(9) == 3
    assert prime_power_base(7) == 7
    assert prime_power_base(12) is None
    assert prime_power_base(1) is None


def test_totient_and_divisors():
    assert totient_and_divisors(12) == (4, (2, 3, 4, 6))
    assert totient_and_divisors(7) == (6, ())
    assert totient_and_divisors(1) == (1, ())
    with pytest.raises(InvalidFamilyParameters):
        totient_and_divisors(0)


# ---------------------------------------------------------------------------
# group laws, for every family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", groups_under_test(), ids=lambda g: g.spec.describe())
def test_group_axioms(g: FiniteGroup):
    assert check_associative(g)
    e = g.identity
    assert e == 0
    for a in range(g.order):
        assert g.mul(e, a) == a
        assert g.mul(a, e) == a
        assert g.mul(a, g.inv(a)) == e
        assert g.mul(g.inv(a), a) == e


def test_a_group_stores_its_table_labels_and_spec():
    g = make_dihedral(4)
    assert [f.name for f in dataclasses.fields(FiniteGroup)] == ["table", "labels", "spec"]
    assert (g.order, g.identity) == (len(g.table), 0) == (8, 0)


def test_associativity_scales_to_order_200():
    # the row-comparison trick keeps the full triple check fast
    assert check_associative(make_dihedral(100))


@pytest.mark.parametrize("g", groups_under_test(), ids=lambda g: g.spec.describe())
def test_element_orders_divide_group_order(g: FiniteGroup):
    for a in range(g.order):
        assert g.order % element_order(g, a) == 0


@pytest.mark.parametrize("g", groups_under_test(), ids=lambda g: g.spec.describe())
def test_power_matches_repeated_multiplication(g: FiniteGroup):
    for a in range(g.order):
        acc = g.identity
        for k in range(1, element_order(g, a) + 2):
            acc = g.mul(acc, a)
            assert g.power(a, k) == acc
    assert g.power(1 % g.order, 0) == g.identity


def test_negative_powers_use_the_inverse():
    g = make_cyclic(7)
    assert g.power(3, -1) == g.inv(3)
    assert g.power(3, -2) == g.mul(g.inv(3), g.inv(3))


@pytest.mark.parametrize("k", [2.5, "2", None], ids=repr)
def test_power_refuses_an_exponent_that_is_no_int(k):
    # once a bare TypeError from `&` or `<`; now the one operator.index refusal
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        make_cyclic(5).power(1, k)


# An element is an int in 0..order-1: -1 once wrapped to the last row
# (cyclic_subgroup of Z_3 at -1 gave (-1, 0, 1)), and 99 raised a bare tuple IndexError.
ELEMENT_QUERIES = {
    "cyclic_subgroup": lambda g, x: cyclic_subgroup(g, x),
    "element_order": lambda g, x: element_order(g, x),
    "mul_left": lambda g, x: g.mul(x, 1),
    "mul_right": lambda g, x: g.mul(1, x),
    "inv": lambda g, x: g.inv(x),
    "power": lambda g, x: g.power(x, 2),
    "negative_power": lambda g, x: g.power(x, -2),
}


@pytest.mark.parametrize("x", [-1, 3, 99, 1.0, True, "1", None], ids=repr)
@pytest.mark.parametrize("query", ELEMENT_QUERIES.values(), ids=ELEMENT_QUERIES.keys())
def test_element_queries_refuse_what_is_no_element(query, x):
    with pytest.raises(IndexError, match=f"no element {re.escape(repr(x))} in a group of order 3"):
        query(make_cyclic(3), x)


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------


def test_cyclic_group():
    g = make_cyclic(6)
    assert g.order == 6
    assert g.mul(4, 5) == 3
    assert order_census(g) == {1: 1, 2: 1, 3: 2, 6: 2}
    assert make_cyclic(1).order == 1


def test_elementary_abelian_group():
    g = make_elementary_abelian(2, 2)
    assert order_census(g) == {1: 1, 2: 3}
    assert g.labels[0] == "(0,0)"
    h = make_elementary_abelian(3, 2)
    assert order_census(h) == {1: 1, 3: 8}
    # commutative by construction
    assert all(h.mul(a, b) == h.mul(b, a) for a in range(9) for b in range(9))


def test_elementary_abelian_rejects_bad_params():
    with pytest.raises(InvalidFamilyParameters):
        make_elementary_abelian(4, 2)
    with pytest.raises(InvalidFamilyParameters):
        make_elementary_abelian(2, 0)


def test_dihedral_group():
    g = make_dihedral(4)
    assert g.order == 8
    assert order_census(g) == {1: 1, 2: 5, 4: 2}
    a, b = 1, 4  # rotation, reflection
    assert element_order(g, a) == 4
    assert element_order(g, b) == 2
    # b a b^-1 = a^-1
    assert g.mul(g.mul(b, a), g.inv(b)) == g.inv(a)
    assert g.labels[:5] == ("e", "a", "a2", "a3", "b")
    with pytest.raises(InvalidFamilyParameters):
        make_dihedral(2)


def test_dicyclic_group():
    g = make_dicyclic(3)
    assert g.order == 12
    a, x = 1, 6
    assert element_order(g, a) == 6
    assert element_order(g, x) == 4
    # x^2 = a^n and x a x^-1 = a^-1
    assert g.mul(x, x) == g.power(a, 3)
    assert g.mul(g.mul(x, a), g.inv(x)) == g.inv(a)
    assert order_census(g) == {1: 1, 2: 1, 3: 2, 4: 6, 6: 2}
    with pytest.raises(InvalidFamilyParameters):
        make_dicyclic(2)


def test_gpq_group():
    g = make_gpq(2, 3)
    assert g.order == 6
    assert order_census(g) == {1: 1, 2: 3, 3: 2}
    # nonabelian: some pair fails to commute
    assert any(g.mul(a, b) != g.mul(b, a) for a in range(6) for b in range(6))
    assert order_census(make_gpq(3, 7)) == {1: 1, 3: 14, 7: 6}


@pytest.mark.parametrize("p,q", [(3, 5), (5, 3), (2, 4), (4, 7), (2, 2)])
def test_gpq_rejects_bad_params(p: int, q: int):
    with pytest.raises(InvalidFamilyParameters):
        make_gpq(p, q)


# ---------------------------------------------------------------------------
# element layout
# ---------------------------------------------------------------------------


def _el(p: int, n: int) -> GroupFamilySpec:
    return GroupFamilySpec("elementary-abelian", (p, n))


def _product(a: GroupFamilySpec, b: GroupFamilySpec) -> GroupFamilySpec:
    return GroupFamilySpec("direct-product", (), (a, b))


# D_2n for n = 3..64 and 256, Dic_4n for n = 3..32 and 128, every El(p^n) of
# order at most 256, and the gpq and product groups of the benchmark.
LAYOUT_SPECS = [
    *(GroupFamilySpec("dihedral", (n,)) for n in [*range(3, 65), 256]),
    *(GroupFamilySpec("dicyclic", (n,)) for n in [*range(3, 33), 128]),
    *(_el(p, n) for p in range(2, 257) if is_prime(p) for n in range(1, 9) if p**n <= 256),
    GroupFamilySpec("gpq", (3, 139)),
    _product(_el(2, 3), GroupFamilySpec("cyclic", (63,))),
    _product(_el(2, 4), _el(3, 3)),
]

# SHA-256 of ``json.dumps([table, labels])`` for each group above, recorded
# from the original per-family constructors: every element index and label
# stays where it was.
LAYOUT_DIGESTS = json.loads(Path(__file__).with_name("element_layout.json").read_text())


def test_layout_digests_name_exactly_the_pinned_groups():
    assert [spec.describe() for spec in LAYOUT_SPECS] == list(LAYOUT_DIGESTS)


@pytest.mark.parametrize("spec", LAYOUT_SPECS, ids=GroupFamilySpec.describe)
def test_element_layout_is_pinned(spec: GroupFamilySpec):
    g = make_group(spec)
    digest = hashlib.sha256(json.dumps([g.table, g.labels]).encode()).hexdigest()
    assert digest == LAYOUT_DIGESTS[spec.describe()]


# ---------------------------------------------------------------------------
# row kernels against the per-entry tables
# ---------------------------------------------------------------------------


def assert_same_rows(table, rows) -> None:
    for a, (row, want) in enumerate(zip(table, rows, strict=True)):
        assert row == want, f"row {a}"


@pytest.mark.parametrize("m", range(1, 65))
def test_dihedral_type_rows_match_the_oracle(m: int):
    for t in range(m):
        table, _labels = groups._dihedral_type(m, t, "b")
        assert_same_rows(table, dihedral_type_rows_oracle(m, t))


GPQ_PAIRS = [
    (p, q)
    for q in range(3, 200)
    for p in range(2, q)
    if is_prime(p) and is_prime(q) and (q - 1) % p == 0 and p * q <= MAX_ORDER
]


@pytest.mark.parametrize("p, q", GPQ_PAIRS)
def test_gpq_rows_match_the_oracle(p: int, q: int):
    assert_same_rows(make_gpq(p, q).table, gpq_rows_oracle(p, q))


SMALL_CATALOG = catalog_groups(12)


@pytest.mark.parametrize("g", SMALL_CATALOG, ids=lambda g: g.spec.describe())
def test_direct_product_rows_match_the_oracle(g: FiniteGroup):
    for h in SMALL_CATALOG:
        assert_same_rows(direct_product(g, h).table, direct_product_rows_oracle(g, h))


@pytest.mark.parametrize(
    "p, n", [(p, n) for p in range(2, 257) if is_prime(p) for n in range(1, 9) if p**n <= 256]
)
def test_elementary_abelian_rows_match_the_oracle(p: int, n: int):
    assert_same_rows(make_elementary_abelian(p, n).table, elementary_abelian_rows_oracle(p, n))


PRIME_POWERS = [
    (p, n) for p in range(2, MAX_ORDER + 1) if is_prime(p) for n in range(1, 12) if p**n <= MAX_ORDER
]


def test_elementary_abelian_labels_are_base_p_digits_least_significant_first():
    assert (2, 11) in PRIME_POWERS and (2039, 1) in PRIME_POWERS
    for p, n in PRIME_POWERS:
        digits = [
            "(" + ",".join(str(i // p**k % p) for k in range(n)) + ")" for i in range(p**n)
        ]
        assert list(make_elementary_abelian(p, n).labels) == digits, (p, n)
    for p, n in [(2, 9), (3, 6)]:  # orders 512 and 729, above the pinned layouts
        assert_same_rows(make_elementary_abelian(p, n).table, elementary_abelian_rows_oracle(p, n))


def test_make_group_checks_every_rule_before_building_a_table(monkeypatch):
    spec = _product(_el(2, 9), _el(4, 1))
    with pytest.raises(InvalidFamilyParameters) as want:
        admit(spec, rule=True)
    calls = []
    product_rows = groups._product_rows
    monkeypatch.setattr(groups, "_product_rows", lambda *a: calls.append(a) or product_rows(*a))
    with pytest.raises(InvalidFamilyParameters) as got:
        make_group(spec)
    assert str(got.value) == str(want.value)
    assert calls == []


def test_direct_product_with_trivial_factor():
    d = make_dihedral(3)
    prod = direct_product(make_cyclic(1), d)
    assert prod.order == d.order
    assert prod.table == d.table


def test_direct_product_orders_are_lcms():
    g = direct_product(make_elementary_abelian(2, 2), make_cyclic(3))
    assert order_census(g) == {1: 1, 2: 3, 3: 2, 6: 6}
    h = direct_product(make_elementary_abelian(2, 2), make_elementary_abelian(3, 2))
    assert order_census(h) == {1: 1, 2: 3, 3: 8, 6: 24}


def test_direct_product_labels_pair_up():
    g = direct_product(make_cyclic(2), make_cyclic(3))
    assert g.labels[0] == "(0,0)"
    assert len(set(g.labels)) == g.order


def test_make_group_dispatch():
    spec = GroupFamilySpec("dicyclic", (4,))
    g = make_group(spec)
    assert g.order == 16
    assert g.spec == spec
    nested = GroupFamilySpec(
        "direct-product",
        factors=(
            GroupFamilySpec("elementary-abelian", (2, 2)),
            GroupFamilySpec("cyclic", (3,)),
        ),
    )
    assert make_group(nested).order == 12
    with pytest.raises(InvalidFamilyParameters):
        make_group(GroupFamilySpec("frobnicated", (1,)))
    with pytest.raises(InvalidFamilyParameters, match="unknown family"):
        make_group(GroupFamilySpec(["cyclic"], (5,)))  # once a bare TypeError (unhashable)
    with pytest.raises(InvalidFamilyParameters, match="parameter"):
        make_group(GroupFamilySpec("dihedral", (4, 2)))
    with pytest.raises(InvalidFamilyParameters, match="factor"):
        make_group(GroupFamilySpec("direct-product", ()))


@pytest.mark.parametrize("count", [1, 3])
def test_make_group_needs_exactly_two_factors(count):
    # one factor once raised IndexError; three built only the first two
    factors = tuple(GroupFamilySpec("cyclic", (k,)) for k in (2, 3, 5)[:count])
    with pytest.raises(InvalidFamilyParameters, match="two factor"):
        make_group(GroupFamilySpec("direct-product", (), factors))


@pytest.mark.parametrize("params", [5, [5], None, "5"], ids=repr)
def test_parameters_that_are_not_a_tuple_are_a_family_error(params):
    # an int once raised a bare TypeError from len()
    spec = GroupFamilySpec("cyclic", params)
    for call in (admit, make_group):
        with pytest.raises(InvalidFamilyParameters, match="tuple of 1 int parameter"):
            call(spec)
    assert family_of(spec) is None


_C2, _C3 = GroupFamilySpec("cyclic", (2,)), GroupFamilySpec("cyclic", (3,))


@pytest.mark.parametrize(
    "factors",
    [(_C2, 3), ("cyclic", _C3), [_C2, _C3], 7],
    ids=["int-factor", "string-factor", "list-of-specs", "int"],
)
def test_factors_that_are_not_a_pair_of_specs_are_a_family_error(factors):
    # a factor that is no spec once raised AttributeError
    spec = GroupFamilySpec("direct-product", (), factors)
    for call in (admit, make_group):
        with pytest.raises(InvalidFamilyParameters, match="two factor specs"):
            call(spec)
    assert family_of(spec) is None


@pytest.mark.parametrize(
    "spec, name",
    [
        (GroupFamilySpec("direct-product", (), (_C2, 3)), "(cyclic[2]) x (3)"),
        (GroupFamilySpec("direct-product", (), ("cyclic", _C3)), "('cyclic') x (cyclic[3])"),
        (GroupFamilySpec("direct-product", (), 7), "direct-product(7)"),
        (GroupFamilySpec("direct-product", (), (_C2,)), f"direct-product({(_C2,)!r})"),
        (GroupFamilySpec("direct-product", (), [_C2, _C3]), f"direct-product({[_C2, _C3]!r})"),
        (GroupFamilySpec("direct-product", ()), "direct-product[]"),
        (
            GroupFamilySpec("direct-product", (), (GroupFamilySpec("cyclic", 5), _C3)),
            "(cyclic(5)) x (cyclic[3])",
        ),
        (GroupFamilySpec("cyclic", 5), "cyclic(5)"),
        (GroupFamilySpec("cyclic", None), "cyclic(None)"),
        (GroupFamilySpec("cyclic", [5]), "cyclic([5])"),
        (GroupFamilySpec("cyclic", "5"), "cyclic('5')"),
        (GroupFamilySpec("dihedral", (4, 2)), "dihedral[4, 2]"),
        (GroupFamilySpec(["cyclic"], (5,)), "['cyclic'][5]"),
    ],
    ids=repr,
)
def test_describe_names_every_malformed_spec(spec, name):
    # describe builds the error messages, so it once raised AttributeError
    # (a factor that is no spec) or TypeError (parameters that are no tuple)
    assert groups.rule_error(spec, shape_only=True) is not None
    assert spec.describe() == name


# Each base family's public constructor, and parameters that name a group.
CONSTRUCTORS = {
    "cyclic": make_cyclic,
    "elementary-abelian": make_elementary_abelian,
    "dihedral": make_dihedral,
    "dicyclic": make_dicyclic,
    "gpq": make_gpq,
}
GOOD_PARAMS = {
    "cyclic": (4,),
    "elementary-abelian": (2, 2),
    "dihedral": (4,),
    "dicyclic": (3,),
    "gpq": (2, 3),
}


@pytest.mark.parametrize("bad", [True, False, 4.0, "4", None], ids=repr)
def test_constructors_refuse_non_int_parameters(bad):
    assert set(GOOD_PARAMS) == set(CONSTRUCTORS) == set(groups.BASE_FAMILIES)
    for name, good in GOOD_PARAMS.items():
        for i in range(len(good)):
            params = (*good[:i], bad, *good[i + 1 :])
            with pytest.raises(InvalidFamilyParameters, match="int parameter"):
                CONSTRUCTORS[name](*params)
            with pytest.raises(InvalidFamilyParameters, match="int parameter"):
                make_group(GroupFamilySpec(name, params))


@pytest.mark.parametrize("name", sorted(groups.BASE_FAMILIES))
def test_each_constructor_builds_exactly_what_its_rule_admits(name):
    family = groups.BASE_FAMILIES[name]
    for values in itertools.product(range(-1, 14), repeat=len(FAMILY_PARAMS[name])):
        spec = GroupFamilySpec(name, values)
        admitted = family.holds(*values) and groups.bounded_order(spec) <= MAX_ORDER
        try:
            built = CONSTRUCTORS[name](*values).spec == spec
        except InvalidFamilyParameters:
            built = False
        assert built == admitted, spec


def test_spec_describe():
    assert GroupFamilySpec("dihedral", (5,)).describe() == "dihedral[5]"
    nested = GroupFamilySpec(
        "direct-product",
        factors=(
            GroupFamilySpec("elementary-abelian", (2, 2)),
            GroupFamilySpec("cyclic", (3,)),
        ),
    )
    assert "x" in nested.describe()


# ---------------------------------------------------------------------------
# cyclic subgroup machinery
# ---------------------------------------------------------------------------


def test_cyclic_subgroup_contents():
    g = make_cyclic(12)
    assert cyclic_subgroup(g, 4) == (0, 4, 8)
    assert cyclic_subgroup(g, 0) == (0,)
    assert len(cyclic_subgroup(g, 5)) == 12


def test_cyclic_subgroups_deduplicated():
    g = make_cyclic(6)
    subs = cyclic_subgroups(g)
    # one cyclic subgroup per divisor of 6
    assert sorted(len(s) for s in subs) == [1, 2, 3, 6]
    assert len(set(subs)) == len(subs)


# The groups of the benchmark's structure workload, order 417-512.
STRUCTURE_SPECS = [
    GroupFamilySpec("dihedral", (256,)),
    GroupFamilySpec("dicyclic", (128,)),
    _product(_el(2, 3), GroupFamilySpec("cyclic", (63,))),
    GroupFamilySpec("gpq", (3, 139)),
    _product(_el(2, 4), _el(3, 3)),
]


@pytest.mark.parametrize(
    "spec",
    [*catalog_specs(128), *STRUCTURE_SPECS, None],
    ids=lambda spec: spec.describe() if spec else "from-json",
)
def test_element_subgroups_walk_each_element(spec: GroupFamilySpec | None):
    if spec is None:  # no spec, and outside the catalog: Dic_12 x Z_4
        g = group_from_json(group_to_json(direct_product(make_dicyclic(3), make_cyclic(4))))
    else:
        g = make_group(spec)
    assert list(element_subgroups(g)) == [cyclic_subgroup(g, x) for x in range(g.order)]


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_elementary_abelian_subgroup_count(p: int, n: int):
    g = make_elementary_abelian(p, n)
    expected = 1 + (p**n - 1) // (p - 1)  # trivial one plus the lines
    assert len(cyclic_subgroups(g)) == expected


def _alpha(p: int, n: int) -> int:
    return (p**n - 1) // (p - 1)


@pytest.mark.parametrize(
    "g, count",
    [
        (make_cyclic(1), 1),
        (make_cyclic(12), 1),
        *((make_dihedral(n), n + 1) for n in (3, 4, 6, 9)),
        *((make_dicyclic(n), n + 1) for n in (3, 4, 5, 8)),
        *((make_gpq(p, q), q + 1) for p, q in ((2, 3), (2, 7), (3, 7), (5, 11))),
        *((make_elementary_abelian(p, n), _alpha(p, n)) for p, n in ((2, 1), (2, 3), (5, 2))),
        *(
            (direct_product(make_elementary_abelian(p, n), make_cyclic(m)), _alpha(p, n))
            for p, n, m in ((2, 2, 3), (2, 3, 5), (3, 2, 4), (2, 1, 9))
        ),
        *(
            (
                direct_product(make_elementary_abelian(p, n), make_elementary_abelian(q, m)),
                _alpha(p, n) * _alpha(q, m),
            )
            for p, n, q, m in ((2, 2, 3, 1), (2, 1, 3, 2), (2, 2, 3, 2), (3, 1, 5, 1))
        ),
    ],
    ids=lambda v: v.spec.describe() if isinstance(v, FiniteGroup) else str(v),
)
def test_maximal_cyclic_subgroup_counts(g: FiniteGroup, count: int):
    maximal = maximal_cyclic_subgroups(g)
    assert len(maximal) == count
    assert list(maximal) == sorted(maximal)
    assert set(maximal) <= set(cyclic_subgroups(g))
    # every element lies in one of them, and none lies in another
    assert set().union(*maximal) == set(range(g.order))
    assert not any(set(a) < set(b) for a in maximal for b in maximal)


@pytest.mark.parametrize("g", groups_under_test(), ids=lambda g: g.spec.describe())
def test_totients_of_cyclic_subgroups_cover_the_group(g: FiniteGroup):
    total = sum(totient_and_divisors(len(s))[0] for s in cyclic_subgroups(g))
    assert total == g.order


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_group_json_roundtrip():
    g = make_gpq(2, 3)
    back = group_from_json(group_to_json(g))
    assert back.order == g.order
    assert back.table == g.table
    assert back.labels == g.labels
    assert [back.inv(a) for a in range(6)] == [g.inv(a) for a in range(6)] == [0, 1, 4, 3, 2, 5]
    assert back.spec is None  # provenance is not serialized
    for spec in LAYOUT_SPECS:
        g = make_group(spec)
        back = group_from_json(group_to_json(g))
        assert (back.table, back.labels) == (g.table, g.labels), spec.describe()
    # D_24 under a random relabelling that keeps 0 the identity: no row is
    # in element order any more, and the reader sorts nothing it hands back
    g = make_dihedral(12)
    sigma = [0, *random.Random(24).sample(range(1, 24), 23)]
    table = [[0] * 24 for _ in range(24)]
    labels = [""] * 24
    for a in range(24):
        labels[sigma[a]] = g.labels[a]
        for b in range(24):
            table[sigma[a]][sigma[b]] = sigma[g.mul(a, b)]
    assert all(row != sorted(row) for row in table[1:])
    obj = {"order": 24, "identity": 0, "table": table, "labels": labels}
    back = group_from_json(json.dumps(obj))
    assert (back.table, back.labels) == (tuple(map(tuple, table)), tuple(labels))
    assert type(back.table) is tuple and all(type(row) is tuple for row in back.table)


@pytest.mark.parametrize(
    "spec",
    [*LAYOUT_SPECS, GroupFamilySpec("cyclic", (1,)), None],
    ids=lambda spec: spec.describe() if spec else "from-json",
)
def test_group_to_json_writes_what_json_dumps_writes(spec: GroupFamilySpec | None):
    if spec is None:  # labels that JSON must escape
        table = [[0, 1], [1, 0]]
        text = json.dumps({"order": 2, "identity": 0, "table": table, "labels": ['"e"', "\\ü"]})
        g = group_from_json(text)
    else:
        g = make_group(spec)
    assert group_to_json(g) == json.dumps(group_to_json_obj_oracle(g))


@pytest.mark.parametrize("entry", [-1, 2])
def test_group_to_json_refuses_entries_that_are_not_elements(entry: int):
    with pytest.raises(KeyError):
        group_to_json(FiniteGroup(((0, 1), (1, entry)), ("e", "a")))


def test_group_json_shape():
    obj = json.loads(group_to_json(make_cyclic(3)))
    assert set(obj) == {"order", "identity", "table", "labels"}
    assert obj["identity"] == 0


def test_group_json_without_labels_numbers_the_elements():
    obj = json.loads(group_to_json(make_dihedral(3)))
    del obj["labels"]
    assert group_from_json(json.dumps(obj)).labels == ("0", "1", "2", "3", "4", "5")


def test_group_json_rejects_nonzero_identity():
    obj = json.loads(group_to_json(make_cyclic(3)))
    obj["identity"] = 1
    with pytest.raises(InvalidFamilyParameters):
        group_from_json(json.dumps(obj))


@pytest.mark.parametrize(
    "g",
    [make_dihedral(256), direct_product(make_elementary_abelian(2, 3), make_cyclic(63))],
    ids=["D512", "El(2^3)xZ63"],
)
def test_group_json_reads_back_the_built_ints(g: FiniteGroup):
    """Entries above 256 are ints CPython does not cache: the reader hands back
    the shared ones, never an int object of its own."""
    back = group_from_json(group_to_json(g))
    assert all(x is y for row, built in zip(back.table, g.table) for x, y in zip(row, built))
    assert len({id(x) for row in back.table for x in row}) == g.order


@pytest.mark.parametrize("literal", ["-1", "-0", str(MAX_ORDER + 1), str(2**70)])
@pytest.mark.parametrize("where", ["order", "identity", "entry"])
def test_group_json_refuses_int_literals_outside_the_elements(literal: str, where: str):
    fields = {"order": "2", "identity": "0", "entry": "0", where: literal}
    text = '{{"order": {order}, "identity": {identity}, "table": [[0, 1], [1, {entry}]]}}'
    with pytest.raises(InvalidFamilyParameters, match=f"MAX_ORDER = {MAX_ORDER}"):
        group_from_json(text.format(**fields))


_D6 = json.loads(group_to_json(make_dihedral(3)))


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1, 2], [1, 2, 0], [2, 1, 0]],  # not a Latin square; power loops never closed
        [[0, 1], [1, 5]],  # entry out of range
        [[1, 0], [0, 1]],  # row 0 is not the identity map
        [[0, 1, 2], [2, 0, 1], [1, 2, 0]],  # column 0 is not the identity map
        [],  # order 0
        # The rows below are whole JSON texts, not tables.
        pytest.param(json.dumps({**_D6, "labels": ["e"]}), id="short-labels"),
        pytest.param(json.dumps({**_D6, "labels": "eabcde"}), id="string-labels"),
        pytest.param(json.dumps({**_D6, "labels": [1, None, "b", "c", "d", "e"]}), id="non-string-labels"),
        pytest.param(json.dumps({**_D6, "labels": []}), id="empty-labels"),
        pytest.param(json.dumps({**_D6, "labels": None}), id="null-labels"),
        pytest.param(json.dumps({"order": 1, "identity": 0}), id="missing-key"),
        pytest.param(
            json.dumps({"order": 2, "identity": 0, "table": [[0, 1], [1, "0"]]}), id="string-entry"
        ),
        pytest.param(
            json.dumps({"order": 2, "identity": 0, "table": [[0, 1], [1, 0.0]]}), id="float-entry"
        ),
        pytest.param(json.dumps({"order": 1, "identity": 0, "table": 7}), id="table-not-a-list"),
        pytest.param(json.dumps({"order": "1", "identity": 0, "table": [[0]]}), id="string-order"),
        pytest.param(json.dumps([[0]]), id="not-an-object"),
        pytest.param("not json", id="not-json"),
        pytest.param(
            json.dumps({"order": MAX_ORDER + 1, "identity": 0, "table": []}), id="above-the-cap"
        ),
        # True == 1, so only the entry-type check refuses these two.
        pytest.param([[0, 1], [True, 0]], id="bool-entry"),
        pytest.param(
            json.dumps({"order": 2, "identity": False, "table": [[0, 1], [1, 0]]}),
            id="bool-identity",
        ),
        pytest.param([[0, 1, 2], [1, 2, False], [2, 0, 1]], id="false-at-a-later-zero"),
        pytest.param([[0, True, 2], [1, 2, 0], [2, 0, 1]], id="true-in-row-0"),
        pytest.param([[0, 1, 2], [True, 2, 0], [2, 0, 1]], id="true-in-column-0"),
        pytest.param([[False]], id="false-as-the-only-entry"),
        # Floats and the non-standard constants are refused while parsing.
        pytest.param([[0, 1], [1.0, 0]], id="one-point-zero"),
        # 2.0 == 2 would pass the Latin-square check, which never looks at its type
        pytest.param([[0, 1, 2], [1, 2, 0], [2.0, 0, 1]], id="two-point-zero"),
        pytest.param('{"order": 2, "identity": 0, "table": [[0, 1], [1e400, 0]]}', id="overflowing-float"),
        pytest.param([[0, 1], [1, float("nan")]], id="nan"),
        pytest.param([[0, 1], [1, float("inf")]], id="infinity"),
        pytest.param(json.dumps({"order": 2.0, "identity": 0, "table": [[0, 1], [1, 0]]}), id="float-order"),
        # Neither null nor a list equals an element; a list is unhashable too.
        pytest.param([[0, 1], [1, None]], id="null-entry"),
        pytest.param([[0, 1], [1, [0]]], id="nested-list-entry"),
        pytest.param([[0, 1], [1, {}]], id="object-entry"),
        # row 2 repeats 0 and misses 1; its first entry still fits column 0
        pytest.param([[0, 1, 2], [1, 2, 0], [2, 0, 0]], id="later-row-repeats-an-element"),
        pytest.param([[0, 1, 2], [1, 2, 0], [2, 0, True]], id="true-in-a-later-row"),
        # the table is read in place, each row replaced by its tuple
        pytest.param(json.dumps({"order": 1, "identity": 0, "table": {}}), id="table-an-empty-object"),
        pytest.param(json.dumps({"order": 1, "identity": 0, "table": {"0": [0]}}), id="table-an-object"),
        pytest.param(json.dumps({"order": 2, "identity": 0, "table": "01"}), id="table-a-string"),
        pytest.param([[0, 1], 7], id="row-a-number"),
    ],
)
def test_group_json_rejects_non_group_tables(table):
    if isinstance(table, list):
        table = json.dumps({"order": len(table), "identity": 0, "table": table})
    with pytest.raises(InvalidFamilyParameters):
        group_from_json(table)


def _is_latin_int_table(table: list) -> bool:
    """The reader's contract stated plainly: ints only, every line a permutation."""
    n, elements = len(table), list(range(len(table)))
    return (
        all(type(x) is int for row in table for x in row)
        and table[0] == elements
        and [row[0] for row in table] == elements
        and all(sorted(line) == elements for line in (*table, *map(list, zip(*table))))
    )


@pytest.mark.parametrize(
    "g", [make_cyclic(4), make_elementary_abelian(2, 2), make_dihedral(3)], ids=["Z4", "V4", "D6"]
)
def test_group_json_accepts_exactly_the_latin_int_tables(g: FiniteGroup):
    """One entry replaced, or two entries of a row swapped, in every possible way."""
    n = g.order
    tables = []
    for i, j in itertools.product(range(n), repeat=2):
        for value in (-1, 0, 1, 2, n - 1, n, True, False, None, "1", [1], {}, 2**70):
            table = [list(row) for row in g.table]
            table[i][j] = value
            tables.append(table)
        for k in range(j + 1, n):
            table = [list(row) for row in g.table]
            table[i][j], table[i][k] = table[i][k], table[i][j]
            tables.append(table)
    accepted = 0
    for table in tables:
        text = json.dumps({"order": n, "identity": 0, "table": table})
        if _is_latin_int_table(table):
            accepted += 1
            assert group_from_json(text).table == tuple(map(tuple, table))
        else:
            with pytest.raises(InvalidFamilyParameters):
                group_from_json(text)
    assert accepted  # each unchanged table, at least


# ---------------------------------------------------------------------------
# the order cap
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_cyclic(MAX_ORDER + 1),
        lambda: make_elementary_abelian(2, 10**12),  # p**n is never computed
        lambda: make_elementary_abelian(10**18 + 9, 1),  # nor is p tested for primality
        lambda: make_dihedral(MAX_ORDER // 2 + 1),
        lambda: make_dicyclic(MAX_ORDER // 4 + 1),
        lambda: make_gpq(3, 10**18 + 9),
        lambda: direct_product(make_cyclic(64), make_cyclic(33)),
        lambda: make_group(family_spec("elab-cyclic", {"p": 2, "n": 10**12, "m": 3})),
    ],
    ids=["cyclic", "huge-n", "huge-p", "dihedral", "dicyclic", "gpq", "product", "make-group"],
)
def test_orders_above_the_cap_are_refused(build):
    with pytest.raises(InvalidFamilyParameters, match="MAX_ORDER"):
        build()


def test_a_product_above_the_cap_builds_neither_factor(monkeypatch):
    def refuse(*args):
        raise AssertionError("a factor was built")

    cyclic = dataclasses.replace(groups.BASE_FAMILIES["cyclic"], build=refuse)
    monkeypatch.setitem(groups.BASE_FAMILIES, "cyclic", cyclic)
    spec = GroupFamilySpec(
        "direct-product", (), (GroupFamilySpec("cyclic", (64,)), GroupFamilySpec("cyclic", (64,)))
    )
    with pytest.raises(InvalidFamilyParameters, match="MAX_ORDER"):
        make_group(spec)


@pytest.mark.parametrize(
    "name, params",
    [
        ("cyclic", {"n": MAX_ORDER}),
        ("elementary-abelian", {"p": 2, "n": 11}),
        ("dihedral", {"n": MAX_ORDER // 2}),
        ("dicyclic", {"n": MAX_ORDER // 4}),
        ("elab-cyclic", {"p": 2, "n": 5, "m": 64}),  # only the order is checked here
    ],
)
def test_the_cap_admits_its_own_order(name, params):
    spec = family_spec(name, params)
    assert admit(spec) is spec  # checked without building the group
    bigger = family_spec(name, {**params, "n": params["n"] + 1})
    with pytest.raises(InvalidFamilyParameters):
        admit(bigger)


def test_admit_names_a_spec_only_to_refuse_it(monkeypatch):
    spec, bigger = family_spec("dihedral", {"n": 5}), family_spec("dihedral", {"n": MAX_ORDER})
    describe = GroupFamilySpec.describe
    monkeypatch.setattr(GroupFamilySpec, "describe", lambda self: pytest.fail("named for nothing"))
    assert admit(spec, rule=True) is spec
    monkeypatch.setattr(GroupFamilySpec, "describe", describe)
    refusal = r"^dihedral\[2048\] has order above MAX_ORDER = 2048$"
    with pytest.raises(InvalidFamilyParameters, match=refusal):
        admit(bigger)


# ---------------------------------------------------------------------------
# family table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, params, build",
    [
        ("cyclic", {"n": 6}, lambda: make_cyclic(6)),
        ("elementary-abelian", {"p": 3, "n": 2}, lambda: make_elementary_abelian(3, 2)),
        ("dihedral", {"n": 5}, lambda: make_dihedral(5)),
        ("dicyclic", {"n": 3}, lambda: make_dicyclic(3)),
        ("gpq", {"p": 2, "q": 5}, lambda: make_gpq(2, 5)),
        (
            "elab-product",
            {"p": 2, "n": 1, "q": 3, "m": 2},
            lambda: direct_product(make_elementary_abelian(2, 1), make_elementary_abelian(3, 2)),
        ),
        (
            "elab-cyclic",
            {"p": 2, "n": 2, "m": 3},
            lambda: direct_product(make_elementary_abelian(2, 2), make_cyclic(3)),
        ),
    ],
)
def test_family_table_round_trip(name, params, build):
    assert set(FAMILIES) == set(FAMILY_PARAMS)
    spec = family_spec(name, params)
    expected = build()
    group = make_group(spec)
    assert (group.table, group.labels, group.spec) == (expected.table, expected.labels, spec)
    back = family_of(spec)
    assert back == (name, params)
    assert tuple(back[1]) == FAMILY_PARAMS[name]  # parameters keep command-line order


@pytest.mark.parametrize(
    "spec",
    [
        GroupFamilySpec(
            "direct-product", (), (GroupFamilySpec("cyclic", (2,)), GroupFamilySpec("cyclic", (3,)))
        ),
        GroupFamilySpec("direct-product", ()),
        GroupFamilySpec("gpq", (3,)),
        GroupFamilySpec("quaternion", (8,)),
    ],
)
def test_family_of_outside_the_catalog(spec):
    assert family_of(spec) is None
