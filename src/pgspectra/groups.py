"""Finite groups of the supported families as explicit Cayley tables.

Every group is a table over element indices ``0..order-1`` with index 0 as
the identity.  Families: cyclic, elementary abelian, dihedral, dicyclic, the
nonabelian group of order ``p*q``, and direct products of any two of these.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, ClassVar, Iterable, Mapping, Sequence

from .errors import InvalidFamilyParameters

# ---------------------------------------------------------------------------
# Number-theoretic plumbing
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# Group representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupFamilySpec:
    """Names a group family and its parameters.

    ``family`` is one of ``cyclic``, ``elementary-abelian``, ``dihedral``,
    ``dicyclic``, ``gpq``, ``direct-product``.  Direct products carry the two
    factor specs in ``factors`` instead of numeric ``params``.
    """

    family: str
    params: tuple[int, ...] = ()
    factors: tuple[GroupFamilySpec, GroupFamilySpec] | None = None

    def describe(self) -> str:
        if self.family == "direct-product" and self.factors is not None:
            return f"({self.factors[0].describe()}) x ({self.factors[1].describe()})"
        return f"{self.family}{list(self.params)}"


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as an explicit multiplication table.

    ``table[a][b]`` is the product ``a*b``; element 0 is the identity and the
    order is the table's length.  ``spec`` names the family constructor that
    built the group (for family-specific partitions), or is ``None``.
    """

    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    spec: GroupFamilySpec | None = None
    identity: ClassVar[int] = 0

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.table[a].index(0)  # every row is a permutation

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        acc, base = 0, a
        while k:
            if k & 1:
                acc = self.table[acc][base]
            base = self.table[base][base]
            k >>= 1
        return acc


def _finish(
    table: Iterable[Sequence[int]], labels: Sequence[str], spec: GroupFamilySpec | None
) -> FiniteGroup:
    return FiniteGroup(tuple(map(tuple, table)), tuple(labels), spec)


# The largest order built or loaded: four times the benchmark's largest (512).
# Building the cyclic table of this order peaks near 50 MB resident (19 MB of
# it the interpreter), and its JSON round trip near 255 MB, most of that the
# separate int objects ``json.loads`` makes for the table's entries.
MAX_ORDER = 2048


def _check_order(order: int, what: str) -> None:
    if order > MAX_ORDER:
        raise InvalidFamilyParameters(f"{what} has order above MAX_ORDER = {MAX_ORDER}")


def bounded_order(spec: GroupFamilySpec) -> int:
    """The order ``spec`` names, or some number above MAX_ORDER; never a huge power."""
    if spec.family == "direct-product":
        return math.prod(map(bounded_order, spec.factors or ()))
    sizes = [max(v, 0) for v in spec.params]  # rule_error refuses the values cut here
    if spec.family == "elementary-abelian" and len(sizes) == 2:
        return min(sizes[0], MAX_ORDER + 1) ** min(sizes[1], MAX_ORDER.bit_length())
    return {"dihedral": 2, "dicyclic": 4}.get(spec.family, 1) * math.prod(sizes)


def rule_error(spec: GroupFamilySpec, shape_only: bool = False) -> str | None:
    """Why ``spec`` names no group, whatever its order; None when it names one.

    Either ``spec`` is malformed (not a base family with a tuple of that many
    int parameters, nor a direct product of a pair of such specs) or, unless
    ``shape_only``, it breaks a base family's rule.
    """
    if spec.family == "direct-product":
        factors = spec.factors
        if (
            type(factors) is not tuple
            or len(factors) != 2
            or not all(isinstance(f, GroupFamilySpec) for f in factors)
        ):
            return f"a direct product needs a tuple of two factor specs, got {factors!r}"
        return rule_error(factors[0], shape_only) or rule_error(factors[1], shape_only)
    family = BASE_FAMILIES.get(spec.family) if type(spec.family) is str else None
    if family is None:
        return f"unknown family {spec.family!r}"
    arity = len(FAMILY_PARAMS[spec.family])
    params = spec.params
    if type(params) is not tuple or len(params) != arity or any(type(v) is not int for v in params):
        return f"family {spec.family!r} takes a tuple of {arity} int parameter(s), got {params!r}"
    if not shape_only and not family.holds(*params):
        return f"{spec.family} needs {family.rule}, got {spec.describe()}"
    return None


def admit(spec: GroupFamilySpec, rule: bool = False) -> GroupFamilySpec:
    """``spec``, once well formed, of order at most MAX_ORDER and, with ``rule``,
    naming a group; builds nothing.  Raises :class:`InvalidFamilyParameters`.

    The order is checked before the rule, so no huge value is tested for
    primality.
    """
    error = rule_error(spec, shape_only=True)
    if error is None:
        _check_order(bounded_order(spec), spec.describe())
        error = rule_error(spec) if rule else None
    if error is not None:
        raise InvalidFamilyParameters(error)
    return spec


# ---------------------------------------------------------------------------
# Table kernels
# ---------------------------------------------------------------------------
#
# Rows are cut from shared tuples by slicing, picking and chaining, so no
# entry is computed on its own and every table of order n shares one int
# object per element.


def _cyclic_rows(n: int) -> list[tuple[int, ...]]:
    """The table of Z_n: row ``i`` is ``(i + j) % n`` for ``j < n``."""
    up = tuple(range(n)) * 2
    return [up[i : i + n] for i in range(n)]


def _product_rows(
    gt: Sequence[Sequence[int]], ht: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """The table of G x H under the row-major pairing ``(a, b) -> a*|H| + b``.

    Row ``(a, b)`` is row ``b`` of H shifted by ``x*|H|``, for each ``x`` of
    row ``a`` of G in turn; the shifted rows are made once each.
    """
    hn = len(ht)
    ids = tuple(range(len(gt) * hn))
    blocks = [ids[x : x + hn] for x in range(0, len(ids), hn)]
    shifted = [[tuple(map(block.__getitem__, hb)) for block in blocks] for hb in ht]
    return [tuple(chain.from_iterable(map(sb.__getitem__, ga))) for ga in gt for sb in shifted]


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------


def make_cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order ``n`` on ``{0..n-1}`` under addition mod n."""
    spec = admit(GroupFamilySpec("cyclic", (n,)), rule=True)
    labels = [str(i) for i in range(n)]
    return _finish(_cyclic_rows(n), labels, spec)


def make_elementary_abelian(p: int, n: int) -> FiniteGroup:
    """The elementary abelian group of order ``p**n`` (vectors over GF(p)).

    Element ``i`` is the base-``p`` digit vector of ``i``; addition is
    digitwise mod ``p``.  Element ``d*p**k + i``, for ``i < p**k``, has top
    digit ``d``: that is the pairing of Z_p x El(p**k), so the table is the
    product kernel applied ``n`` times.
    """
    spec = admit(GroupFamilySpec("elementary-abelian", (p, n)), rule=True)
    zp, table = _cyclic_rows(p), [(0,)]
    for _ in range(n):
        table = _product_rows(zp, table)
    places = [p**k for k in range(n)]
    labels = ["(" + ",".join(str(i // w % p) for w in places) + ")" for i in range(p**n)]
    return _finish(table, labels, spec)


def _power(letter: str, k: int) -> str:
    """The label of ``letter**k``: empty for k = 0, the bare letter for k = 1."""
    return "" if k == 0 else letter if k == 1 else f"{letter}{k}"


def _dihedral_type(m: int, t: int, letter: str, spec: GroupFamilySpec) -> FiniteGroup:
    """The group ``<a, b | a**m, b**2 = a**t, b a b**-1 = a**-1>`` of order ``2m``.

    Element ``i < m`` is ``a**i``; element ``m + i`` is ``a**i * b``, its
    label spelling ``b`` as ``letter``.  Products follow from the relations:
    ``(a**i b**e)(a**j b**f) = a**(i + (-1)**e * j + t*e*f) b**(e + f)``.
    Each row is two length-``m`` slices of ``up`` (``up[i + j]`` is
    ``(i + j) % m``), ``down`` (``down[k + j]`` is ``(-1 - k - j) % m``),
    ``down`` turned ``t`` places, or the copies of these on the ``b`` half.
    """
    ids = tuple(range(2 * m))
    up, up_b = ids[:m] * 2, ids[m:] * 2
    down, down_b = up[::-1], up_b[::-1]
    turned = down[m - t :] + down[: m - t]  # turned[k + j] is (t - 1 - k - j) % m
    rotations = [up[i : i + m] + up_b[i : i + m] for i in range(m)]
    # Row a**i b, with k = m - 1 - i: m + (i - j) % m, then (i + t - j) % m.
    reflections = [down_b[k : k + m] + turned[k : k + m] for k in reversed(range(m))]
    labels = [_power("a", i) or "e" for i in range(m)] + [_power("a", i) + letter for i in range(m)]
    return _finish(rotations + reflections, labels, spec)


def make_dihedral(n: int) -> FiniteGroup:
    """The dihedral group of order ``2n``: symmetries of the regular n-gon.

    Element ``i < n`` is the rotation ``a**i``; element ``n + i`` is the
    reflection ``a**i * b``.
    """
    spec = admit(GroupFamilySpec("dihedral", (n,)), rule=True)
    return _dihedral_type(n, 0, "b", spec)


def make_dicyclic(n: int) -> FiniteGroup:
    """The dicyclic group of order ``4n``.

    Generators ``a`` of order ``2n`` and ``x`` with ``x**2 = a**n`` and
    ``x a x**-1 = a**-1``.  Element ``i < 2n`` is ``a**i``; element
    ``2n + i`` is ``a**i * x``.
    """
    spec = admit(GroupFamilySpec("dicyclic", (n,)), rule=True)
    return _dihedral_type(2 * n, n, "x", spec)


def make_gpq(p: int, q: int) -> FiniteGroup:
    """The nonabelian group of order ``p*q`` for primes ``p < q, p | q-1``.

    Presentation ``a**q = b**p = e``, ``b a b**-1 = a**r`` with ``r`` the
    least integer above 1 satisfying ``r**p = 1 (mod q)``.  Element
    ``i*p + j`` is ``a**i * b**j``.
    """
    spec = admit(GroupFamilySpec("gpq", (p, q)), rule=True)
    r = next(r for r in range(2, q) if pow(r, p, q) == 1)
    # (a^i b^j)(a^k b^l) = a^(i + r^j * k) b^(j + l).  blocks[j][c] is the
    # run a^c b^(j + l) for l < p, listed twice so that blocks[j][i : i + q]
    # starts at a^i; steps[j] picks its runs c = r^j * k mod q for k < q.
    ids = tuple(range(p * q))
    blocks = [
        [ids[s + j : s + p] + ids[s : s + j] for s in range(0, p * q, p)] * 2 for j in range(p)
    ]
    steps = [itemgetter(*(pow(r, j, q) * k % q for k in range(q))) for j in range(p)]
    table = [
        tuple(chain.from_iterable(steps[j](blocks[j][i : i + q]))) for i in range(q) for j in range(p)
    ]
    labels = [(_power("a", i) + _power("b", j)) or "e" for i in range(q) for j in range(p)]
    return _finish(table, labels, spec)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with the row-major pairing ``(a, b) -> a*|H| + b``."""
    _check_order(g.order * h.order, "the direct product")
    table = _product_rows(g.table, h.table)
    labels = [f"({la},{lb})" for la in g.labels for lb in h.labels]
    spec = None
    if g.spec is not None and h.spec is not None:
        spec = GroupFamilySpec("direct-product", (), (g.spec, h.spec))
    return _finish(table, labels, spec)


# The family catalog.  Each command-line family name maps to its factors: a
# base family and the parameter names it takes.  Two factors make a direct
# product.  A family's parameter names, in command-line order, are its
# factors' names in turn.
FAMILIES: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "cyclic": (("cyclic", ("n",)),),
    "elementary-abelian": (("elementary-abelian", ("p", "n")),),
    "dihedral": (("dihedral", ("n",)),),
    "dicyclic": (("dicyclic", ("n",)),),
    "gpq": (("gpq", ("p", "q")),),
    "elab-product": (("elementary-abelian", ("p", "n")), ("elementary-abelian", ("q", "m"))),
    "elab-cyclic": (("elementary-abelian", ("p", "n")), ("cyclic", ("m",))),
}

FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    name: tuple(k for _base, keys in factors for k in keys) for name, factors in FAMILIES.items()
}


@dataclass(frozen=True)
class BaseFamily:
    """A base family's constructor, and the rule its int parameters must meet:
    stated in ``rule``, tested by ``holds``."""

    make: Callable[..., FiniteGroup]
    rule: str
    holds: Callable[..., bool]


BASE_FAMILIES: dict[str, BaseFamily] = {
    "cyclic": BaseFamily(make_cyclic, "n >= 1", lambda n: n >= 1),
    "elementary-abelian": BaseFamily(
        make_elementary_abelian, "a prime p and n >= 1", lambda p, n: is_prime(p) and n >= 1
    ),
    "dihedral": BaseFamily(make_dihedral, "n >= 3", lambda n: n >= 3),
    "dicyclic": BaseFamily(make_dicyclic, "n >= 3", lambda n: n >= 3),
    "gpq": BaseFamily(
        make_gpq,
        "primes p < q with p | q-1",
        lambda p, q: is_prime(p) and is_prime(q) and p < q and (q - 1) % p == 0,
    ),
}


def family_spec(name: str, params: Mapping[str, int]) -> GroupFamilySpec:
    """The spec of catalog family ``name`` with the given named parameters."""
    factors = tuple(
        GroupFamilySpec(base, tuple(params[k] for k in keys)) for base, keys in FAMILIES[name]
    )
    return factors[0] if len(factors) == 1 else GroupFamilySpec("direct-product", (), factors)


def family_of(spec: GroupFamilySpec) -> tuple[str, dict[str, int]] | None:
    """The catalog family name and named parameters of ``spec``.

    The inverse of :func:`family_spec`; None when ``spec`` is malformed or
    not in the catalog (say a product of two cyclic groups).
    """
    if rule_error(spec, shape_only=True) is not None:
        return None
    factors = spec.factors if spec.family == "direct-product" else (spec,)
    for name, shape in FAMILIES.items():
        if [(f.family, len(f.params)) for f in factors] == [(b, len(k)) for b, k in shape]:
            return name, dict(zip(FAMILY_PARAMS[name], (v for f in factors for v in f.params)))
    return None


def make_group(spec: GroupFamilySpec) -> FiniteGroup:
    """Build the group a :class:`GroupFamilySpec` describes."""
    admit(spec)  # before any factor is built; each constructor tests its rule
    if spec.family == "direct-product":
        return direct_product(*map(make_group, spec.factors))
    return BASE_FAMILIES[spec.family].make(*spec.params)


# ---------------------------------------------------------------------------
# Element-level queries
# ---------------------------------------------------------------------------


def element_order(g: FiniteGroup, x: int) -> int:
    return len(cyclic_subgroup(g, x))


def _powers(g: FiniteGroup, x: int) -> list[int]:
    """``x**0, x**1, ...``, up to the last power before the identity returns."""
    seen = [0]
    acc = x
    while acc != 0:
        seen.append(acc)
        acc = g.table[acc][x]
    return seen


def cyclic_subgroup(g: FiniteGroup, x: int) -> tuple[int, ...]:
    """The subgroup generated by ``x``, as an ascending element tuple."""
    return tuple(sorted(_powers(g, x)))


def element_subgroups(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """``cyclic_subgroup(g, x)`` for every element ``x``, each subgroup walked once.

    ``x**k`` generates ``<x>`` exactly when ``gcd(k, |<x>|) = 1``, so one
    walk of ``<x>`` gives the shared tuple to all of those generators.
    """
    subs: list[tuple[int, ...] | None] = [None] * g.order
    for x in range(g.order):
        if subs[x] is None:
            powers = _powers(g, x)
            sub, n = tuple(sorted(powers)), len(powers)
            for k, y in enumerate(powers):
                if math.gcd(k, n) == 1:
                    subs[y] = sub
    return tuple(subs)


def cyclic_subgroups(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """All distinct cyclic subgroups, deduplicated, in lexicographic order."""
    return tuple(sorted(set(element_subgroups(g))))


def maximal_cyclic_subgroups(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The cyclic subgroups that lie in no other, in lexicographic order.

    A cyclic subgroup lies in a larger one exactly when it is generated by
    an element of the larger one that does not generate it.
    """
    gen = [cyclic_subgroup(g, x) for x in range(g.order)]
    inside = {gen[y] for sub in set(gen) for y in sub if gen[y] != sub}
    return tuple(sorted(set(gen) - inside))


def order_census(g: FiniteGroup) -> dict[int, int]:
    """Map from element order to the number of elements of that order."""
    return dict(sorted(Counter(map(len, element_subgroups(g))).items()))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def group_to_json(g: FiniteGroup) -> str:
    """The group as JSON text: ``order``, ``identity``, ``table`` and ``labels``.

    An entry outside ``0..order-1`` raises ``KeyError``; it is never written
    as some other element.
    """
    names = {x: str(x) for x in range(g.order)}
    rows = "], [".join(", ".join(map(names.__getitem__, row)) for row in g.table)
    return (
        f'{{"order": {g.order}, "identity": {g.identity}, "table": [[{rows}]], '
        f'"labels": {json.dumps(list(g.labels))}}}'
    )


def group_from_json(text: str) -> FiniteGroup:
    """The group :func:`group_to_json` wrote; :class:`InvalidFamilyParameters` otherwise."""
    try:
        obj = json.loads(text)
        order, identity = obj["order"], obj["identity"]
        _check_order(order, "the serialized group")
        table = [tuple(row) for row in obj["table"]]
        labels = obj.get("labels", [str(i) for i in range(order)])
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidFamilyParameters(f"not a serialized group: {exc!r}") from None
    if {type(v) for row in table for v in row} | {type(order), type(identity)} != {int} or identity:
        raise InvalidFamilyParameters("need integers throughout, and element 0 as the identity")
    if type(labels) is not list or any(type(s) is not str for s in labels):
        raise InvalidFamilyParameters("labels, when given, must be a list of strings")
    if len(table) != order or any(len(row) != order for row in table) or len(labels) != order:
        raise InvalidFamilyParameters("table or labels disagree with the declared order")
    # A Latin square whose row 0 and column 0 are the identity map: right
    # multiplication by any x is then a permutation sending 0 to x, so every
    # power loop returns to the identity within ``order`` steps.
    identity_map = tuple(range(order))
    elements = set(identity_map)
    if (
        table[:1] != [identity_map]
        or tuple(row[0] for row in table) != identity_map
        or any(set(line) != elements for line in chain(table, zip(*table)))
    ):
        raise InvalidFamilyParameters(
            "table is not a Latin square with element 0 as its identity row and column"
        )
    return _finish(table, labels, None)
