"""Exact integer matrices, polynomials, and characteristic polynomials.

Everything here runs on Python's arbitrary-precision integers; no floating
point is involved anywhere.  ``char_poly`` has one route for every matrix:
split, certify, then the kernel on the leaves.  What one split step takes
is stated in ``_modules``: the matrix's twin modules (blocks of classes
that an automorphism swaps), either all its groups of twins, which are
modules with one-class blocks, or else one module with larger blocks.  The
step splits off one piece per module, and its certificate checks the split
on the matrix it splits and returns the orbit quotient, read off the column
sums it checks; the quotient takes the next step, and each piece is split
the same way.  A matrix with no module makes no split.
The factors collect in one table: a 1 x 1 leaf is its own eigenvalue, and
the dense kernel of ``dense_char_poly`` runs on every larger leaf: Hessenberg
reduction modulo a Gershgorin-bounded prime (Cohen, *A Course in
Computational Algebraic Number Theory*, Alg. 2.2.9), certified by a
Bareiss determinant; determinants come from fraction-free Bareiss
elimination.  Each public function checks its matrix and turns it into
rows once; the kernels behind it work on those rows.

Polynomials are dense coefficient tuples in ascending order, so
``(c0, c1, c2)`` is ``c0 + c1*x + c2*x**2``.  Every product of
polynomials (``*``, ``**``, :meth:`FactoredPoly.expand` and the product of
``char_poly``'s factors) is one Kronecker substitution in :func:`_expand`:
each base is evaluated once at ``x = 2**B``, those integers are multiplied,
and the coefficients are read back from the result's bytes.
"""

from __future__ import annotations

import csv
import io
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from math import prod
from operator import index, itemgetter, mul
from typing import Iterable, Mapping, Sequence

from .errors import (
    BitGrowthExceeded,
    DimensionMismatch,
    InexactDivision,
    InternalExactnessViolation,
    NotSquare,
)

def _check_ints(values: Sequence[object], what: str) -> None:
    """Refuse, in one pass in C, any of ``values`` that is no ``int`` (a bool, float, string)."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise DimensionMismatch(f"{what} needs integer entries, got {bad!r}")


def _check_shape(rows: int, cols: int) -> None:
    """Refuse a matrix shape that is not two ints >= 0 (a float, a bool)."""
    if type(rows) is not int or type(cols) is not int:
        raise DimensionMismatch(f"matrix dimensions must be integers, got {rows!r}x{cols!r}")
    if rows < 0 or cols < 0:
        raise DimensionMismatch("matrix dimensions must be nonnegative")


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_shape(self.rows, self.cols)
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> IntMatrix:
        """Rows as lists or tuples of ints (never one string of digits)."""
        flat: list[int] = []
        for row in rows:
            if type(row) not in (list, tuple) or len(row) != len(rows[0]):
                raise DimensionMismatch("rows must be lists or tuples of one length")
            _check_ints(row, "a matrix row")
            flat.extend(row)
        return IntMatrix(len(rows), len(rows[0]) if rows else 0, tuple(flat))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __add__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition needs equal shapes")
        return IntMatrix(
            self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction needs equal shapes")
        return IntMatrix(
            self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def __rmul__(self, k: int) -> IntMatrix:
        _check_ints((k,), "a matrix scalar")
        return IntMatrix(self.rows, self.cols, tuple(k * v for v in self.entries))

    def to_csv(self, labels: Sequence[str] | None = None) -> str:
        """CSV text: one header row of column labels, then integer rows."""
        if labels is None:
            labels = [f"v{j}" for j in range(self.cols)]
        if len(labels) != self.cols:
            raise DimensionMismatch("need one label per column")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(labels)
        for i in range(self.rows):
            w.writerow(self.row(i))
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(v) for v in self.row(i)] for i in range(self.rows)],
        }


def identity(n: int) -> IntMatrix:
    _check_shape(n, n)
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def zeros(rows: int, cols: int) -> IntMatrix:
    _check_shape(rows, cols)
    return IntMatrix(rows, cols, (0,) * (rows * cols))


def ones(rows: int, cols: int) -> IntMatrix:
    """All-ones matrix (the J / 1-vector building block)."""
    _check_shape(rows, cols)
    return IntMatrix(rows, cols, (1,) * (rows * cols))


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product, row-major: block (i,j) is ``a[i,j] * b``."""
    flat: list[int] = []
    for i in range(a.rows):
        arow = a.row(i)
        for bi in range(b.rows):
            brow = b.row(bi)
            for av in arow:
                flat.extend(av * bv for bv in brow)
    return IntMatrix(a.rows * b.rows, a.cols * b.cols, tuple(flat))


def block(grid: Sequence[Sequence[IntMatrix]]) -> IntMatrix:
    """Assemble a matrix from a conforming grid of blocks."""
    if not grid or not grid[0]:
        raise DimensionMismatch("block grid must be nonempty")
    ncols_per_block = [b.cols for b in grid[0]]
    flat: list[int] = []
    total_rows = 0
    for brow in grid:
        if len(brow) != len(ncols_per_block):
            raise DimensionMismatch("ragged block grid")
        h = brow[0].rows
        for b, w in zip(brow, ncols_per_block):
            if b.rows != h:
                raise DimensionMismatch("blocks in a row must share their height")
            if b.cols != w:
                raise DimensionMismatch("blocks in a column must share their width")
        for i in range(h):
            for b in brow:
                flat.extend(b.row(i))
        total_rows += h
    return IntMatrix(total_rows, sum(ncols_per_block), tuple(flat))


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def _normalize(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; ``coeffs[k]`` multiplies ``x**k``.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if type(self.coeffs) is not tuple or not set(map(type, self.coeffs)) <= {int}:
            raise DimensionMismatch(f"coefficients must be a tuple of integers: {self.coeffs!r}")
        if self.coeffs and not self.coeffs[-1]:
            raise DimensionMismatch(f"leading coefficient must be nonzero, got {self.coeffs!r}")

    @staticmethod
    def from_coeffs(coeffs: Iterable[int]) -> IntPolynomial:
        """Int coefficients, checked before trailing zeros go: a trailing ``0.0`` raises."""
        coeffs = tuple(coeffs)
        _check_ints(coeffs, "a polynomial")
        return IntPolynomial(_normalize(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial conventionally at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(_normalize(out))

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        return _expand(((self, 1), (other, 1)))

    def __pow__(self, k: int) -> IntPolynomial:
        k = index(k)  # a float or string exponent raises TypeError
        if k < 0:
            raise ValueError("negative polynomial power")
        return _expand(((self, k),))

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json_obj(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    def pretty(self) -> str:
        """Human-readable rendering in x, highest power first."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xk = "x" if k == 1 else f"x^{k}"
                body = xk if mag == 1 else f"{mag}*{xk}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


def _slot_offsets(width: int, slots: int) -> int:
    """``2**(8*width - 1)`` in each of ``slots`` slots of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _expand(factors: Iterable[tuple[IntPolynomial, int]]) -> IntPolynomial:
    """``prod(base ** mult)`` over ``factors`` by one evaluation at ``x = 2**B``.

    Kronecker substitution (von zur Gathen and Gerhard, *Modern Computer
    Algebra*, 8.4): ``bound = prod(|base|_1 ** mult)`` bounds every
    coefficient of the product and of each base.  With slots of ``width``
    bytes, ``B = 8 * width`` and ``2**(B - 1) > bound``, each base packs
    into the one integer ``base(2**B)``; Python's big integers raise and
    multiply those, and the product, plus ``2**(B - 1)`` in every slot so
    that no slot borrows from the next, is read back slot by slot.  A zero
    base gives zero unless its multiplicity is 0; the empty product is 1.
    """
    factors = [(base.coeffs, mult) for base, mult in factors if mult]
    if not all(coeffs for coeffs, _ in factors):
        return IntPolynomial()
    slots = 1 + sum((len(coeffs) - 1) * mult for coeffs, mult in factors)
    width = prod(sum(map(abs, coeffs)) ** mult for coeffs, mult in factors).bit_length() // 8 + 1
    half = 1 << (8 * width - 1)

    def at_slot_base(coeffs: tuple[int, ...]) -> int:
        packed = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
        return int.from_bytes(packed, "little") - _slot_offsets(width, len(coeffs))

    value = prod(at_slot_base(coeffs) ** mult for coeffs, mult in factors)
    data = (value + _slot_offsets(width, slots)).to_bytes(width * slots, "little")
    coeffs = [
        int.from_bytes(data[i : i + width], "little") - half for i in range(0, len(data), width)
    ]
    return IntPolynomial(tuple(coeffs))


def x_plus(c: int) -> IntPolynomial:
    """The linear polynomial ``x + c``."""
    return IntPolynomial((c, 1))


def poly_exact_div(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Quotient of an exact division over the integers.

    Raises :class:`InexactDivision` if ``b`` does not divide ``a`` exactly
    (including coefficient-level failures, e.g. ``x`` by ``2x``).
    """
    if not b:
        raise InexactDivision("division by the zero polynomial")
    if not a:
        return IntPolynomial()
    if a.degree < b.degree:
        raise InexactDivision(
            f"degree {a.degree} polynomial is not divisible by degree {b.degree}"
        )
    rem = list(a.coeffs)
    dc = b.coeffs
    dlead = dc[-1]
    qdeg = a.degree - b.degree
    quot = [0] * (qdeg + 1)
    for k in range(qdeg, -1, -1):
        lead = rem[k + b.degree]
        if lead % dlead != 0:
            raise InexactDivision(f"coefficient {lead} not divisible by {dlead}")
        t = lead // dlead
        quot[k] = t
        if t:
            for i, c in enumerate(dc):
                rem[k + i] -= t * c
    if any(rem):
        raise InexactDivision("nonzero remainder")
    return IntPolynomial(tuple(quot))


@dataclass(frozen=True)
class FactoredPoly:
    """A polynomial kept as ``prod(base ** mult)`` without expanding."""

    factors: tuple[tuple[IntPolynomial, int], ...]

    def __post_init__(self) -> None:
        if any(type(mult) is not int or mult < 1 or not base for base, mult in self.factors):
            raise DimensionMismatch(
                "each factor needs a nonzero base and an integer multiplicity >= 1"
            )

    @staticmethod
    def of(*pairs: tuple[IntPolynomial, int]) -> FactoredPoly:
        """Build a factored form, silently dropping multiplicity-0 factors."""
        return FactoredPoly(tuple((b, m) for b, m in pairs if m != 0))

    @property
    def degree(self) -> int:
        return sum(base.degree * mult for base, mult in self.factors)

    def expand(self) -> IntPolynomial:
        return _expand(self.factors)

    def to_json_obj(self) -> dict:
        return {
            "factors": [
                {"coeffs": [str(c) for c in base.coeffs], "mult": mult}
                for base, mult in self.factors
            ]
        }

    def pretty(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for base, mult in self.factors:
            parts.append(f"({base.pretty()})" + (f"^{mult}" if mult != 1 else ""))
        return " * ".join(parts)


# ---------------------------------------------------------------------------
# Characteristic polynomial and determinant
# ---------------------------------------------------------------------------


#: Exponents e of the Mersenne primes 2**e - 1 that ``char_poly`` may work
#: modulo; it takes the smallest one above twice its coefficient bound.
MERSENNE_EXPONENTS = (61, 89, 127, 521, 607, 1279, 2203, 3217, 4253, 9689, 19937, 44497)


def _hessenberg_char_poly(rows: Sequence[Sequence[int]], p: int) -> list[int]:
    """Ascending coefficients mod prime ``p`` of ``det(xI - A)`` (Cohen, Alg. 2.2.9)."""
    n = len(rows)
    h = [[v % p for v in row] for row in rows]
    # Similarity transforms to upper Hessenberg form: zero column k below row k+1.
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k]), None)
        if piv is None:
            continue
        h[piv], h[k + 1] = h[k + 1], h[piv]
        for row in h:
            row[piv], row[k + 1] = row[k + 1], row[piv]
        src = h[k + 1]
        inv = pow(src[k], -1, p)
        us = [h[i][k] * inv % p for i in range(k + 2, n)]
        for i, u in enumerate(us, k + 2):
            if u:
                h[i][k:] = [(a - u * b) % p for a, b in zip(h[i][k:], src[k:])]
        # The inverse of all those row operations is one column update.
        for row in h:
            row[k + 1] = (row[k + 1] + sum(map(mul, us, row[k + 2 :]))) % p
    # polys[c] is the characteristic polynomial of the leading c x c block.
    polys = [[1]]
    for c in range(n):
        acc = [0, *polys[c]]
        for j, v in enumerate(polys[c]):
            acc[j] -= h[c][c] * v
        run = 1  # product of the subdiagonal entries h[i+1][i] .. h[c][c-1]
        for i in range(c - 1, -1, -1):
            run = run * h[i + 1][i] % p
            if not run:
                break
            coef = run * h[i][c] % p
            for j, v in enumerate(polys[i]):
                acc[j] -= coef * v
        polys.append([v % p for v in acc])
    return polys[n]


def _square_rows(m: IntMatrix, what: str) -> list[tuple[int, ...]]:
    """The rows of ``m`` as tuples, once ``m`` is square with ``int`` entries only.

    ``IntMatrix`` does not check its entries' types; a bool or float would
    otherwise be read as a number and a string fail deep in the arithmetic.
    """
    if m.rows != m.cols:
        raise NotSquare(f"{what} needs a square matrix, got {m.rows}x{m.cols}")
    _check_ints(m.entries, what)
    return [m.row(i) for i in range(m.rows)]


def _certificate_point(rows: Sequence[Sequence[int]]) -> int:
    """``R + 1`` with ``R`` the largest absolute row sum: Gershgorin's bound."""
    return max((sum(map(abs, row)) for row in rows), default=0) + 1


def dense_char_poly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial ``det(xI - m)``, exactly, in O(n^3) operations.

    With ``R`` the largest absolute row sum, Gershgorin bounds every
    coefficient by ``(R + 1)**n``.  The coefficients are computed by
    Hessenberg reduction modulo a Mersenne prime ``P > 2 * (R + 1)**n`` (Cohen,
    *A Course in Computational Algebraic Number Theory*, Alg. 2.2.9) and
    lifted into ``(-P/2, P/2]``.  The result is certified against the Bareiss
    determinant of ``(R + 1)I - m``; a mismatch raises
    :class:`InternalExactnessViolation`.  A bound beyond the largest tabled
    prime raises :class:`BitGrowthExceeded`.

    This is the kernel :func:`char_poly` runs on its leaves;
    closed-form predictions call it directly, so they never share the
    reduction with the brute force that checks them.
    """
    return _dense_char_poly(_square_rows(m, "characteristic polynomial"))


def _dense_char_poly(rows: Sequence[Sequence[int]]) -> IntPolynomial:
    """:func:`dense_char_poly` of the checked square integer ``rows``, left unchanged."""
    n = len(rows)
    x0 = _certificate_point(rows)
    bound = 2 * x0**n
    p = next((2**e - 1 for e in MERSENNE_EXPONENTS if 2**e - 1 > bound), None)
    if p is None:
        raise BitGrowthExceeded(
            f"char_poly: coefficient bound needs {bound.bit_length()} bits, "
            f"the largest tabled prime has {MERSENNE_EXPONENTS[-1]}"
        )
    coeffs = [c - p if c > p // 2 else c for c in _hessenberg_char_poly(rows, p)]
    poly = IntPolynomial(tuple(coeffs))
    shifted = [[-v for v in row] for row in rows]  # x0 I - rows
    for i, row in enumerate(shifted):
        row[i] += x0
    if _bareiss(shifted) != poly(x0):
        raise InternalExactnessViolation(f"char_poly: det({x0}I - A) != poly({x0})")
    return poly


#: A twin module: blocks of classes aligned member by member, the first
#: block's ``t``-th member matched to every other block's ``t``-th member.
#: A group of twins is a module whose blocks hold one class each.
Module = list[tuple[int, ...]]


def _twin_groups(
    rows: Sequence[tuple[int, ...]],
    cols: Sequence[tuple[int, ...]],
    classes: Iterable[list[int]],
) -> list[Module]:
    """Disjoint groups of mutual twin classes of ``q`` (its ``rows`` and ``cols``), as modules.

    Twins X and Y agree in row and column outside {X, Y} and on the diagonal,
    and ``q[X][Y] == q[Y][X] == t``.  With the diagonal entry of X's row and
    column set to ``t``, X's key (diagonal, ``t``, row, column) then equals
    Y's, so each candidate value ``t`` costs one O(k) key per class and no
    pair is compared.  A symmetric ``q`` (every graph matrix, though rarely a
    quotient with cells of different sizes) is keyed by its rows alone: its
    columns repeat them, so the buckets are the same.  Twins share their
    colour, so only the members of one of the colour ``classes`` are keyed
    together.  Each group is a module of one-class blocks.
    Every bucket of two or more is a group, and no class lies in two: one
    twinned with Y at ``t1`` and with Z at ``t2`` has ``t1 == q[Y][Z] == t2``.
    """
    symmetric = rows == cols
    buckets: dict[tuple[int, ...], list[int]] = defaultdict(list)
    for members in classes:
        if len(members) < 2:
            continue
        pick = itemgetter(*members)
        for i in members:
            row, col = rows[i], cols[i]
            values = pick(row)
            for t in set(values):
                if t == row[i] and values.count(t) == 1:
                    continue  # row[i] itself is no twin value
                if symmetric:
                    key = (row[i], t, *row[:i], t, *row[i + 1 :])
                else:
                    key = (row[i], t, *row[:i], t, *row[i + 1 :], *col[:i], t, *col[i + 1 :])
                buckets[key].append(i)
    return [[(i,) for i in members] for members in buckets.values() if len(members) > 1]


def _odd_one_out(values: tuple[int, ...]) -> int | None:
    """``None`` if all ``values`` agree, the index of the one that differs, else ``-1``."""
    distinct = set(values)
    if len(distinct) == 1:
        return None
    if len(distinct) == 2:
        for v in distinct:
            if values.count(v) == 1:
                return values.index(v)
    return -1


def _is_module(
    rows: Sequence[tuple[int, ...]], cols: Sequence[tuple[int, ...]], module: Module
) -> bool:
    """Whether swapping the first block of ``module`` with any other is an automorphism.

    All swaps hold exactly when every class outside the blocks sees each
    block alike (in its row and its column), the blocks' diagonal
    submatrices are all equal and so are their off-diagonal ones.  A row
    read at the blocks' members, block after block, is then one run of
    ``s`` values repeated ``r`` times, or for a member of block ``i`` the
    run it sees in the other blocks with its own block's run in place ``i``.
    """
    r, s = len(module), len(module[0])
    pick = itemgetter(*chain.from_iterable(module))
    place = {x: (i * s, t) for i, block in enumerate(module) for t, x in enumerate(block)}
    first = [pick(rows[x]) for x in module[0]]
    own, cross = [v[:s] for v in first], [v[s : 2 * s] for v in first]
    for x, row in enumerate(rows):
        seen = pick(row)
        if x not in place:
            if seen != seen[:s] * r or pick(cols[x]) != pick(cols[x])[:s] * r:
                return False
            continue
        at, t = place[x]
        if seen[at : at + s] != own[t] or seen[:at] + seen[at + s :] != cross[t] * (r - 1):
            return False
    return True


def _module_with_heads(
    rows: Sequence[tuple[int, ...]],
    cols: Sequence[tuple[int, ...]],
    colour: Mapping[int, object],
    heads: list[int],
) -> Module | None:
    """The twin module whose blocks each hold one of ``heads``, if there is one.

    Every class outside ``heads`` must treat all heads alike (in its row and
    its column) or treat exactly one head differently, which then owns it.
    A block is a head and the classes it owns.  Members are aligned by their
    colour and their row and column on the classes no head owns.
    """
    pick = itemgetter(*heads)
    blocks = {h: [h] for h in heads}
    fixed = []
    for x, (row, col) in enumerate(zip(rows, cols)):
        if x in blocks:
            continue
        owners = {_odd_one_out(pick(row)), _odd_one_out(pick(col))} - {None}
        if not owners:
            fixed.append(x)
        elif len(owners) > 1 or -1 in owners:
            return None
        else:
            blocks[heads[owners.pop()]].append(x)
    if len({len(b) for b in blocks.values()}) != 1 or len(blocks[heads[0]]) < 2:
        return None

    def signature(x: int) -> tuple:
        return colour[x], [rows[x][f] for f in fixed], [cols[x][f] for f in fixed]

    module = [(h, *sorted(b[1:], key=signature)) for h, b in blocks.items()]
    return module if _is_module(rows, cols, module) else None


def _modules(rows: Sequence[tuple[int, ...]], cols: Sequence[tuple[int, ...]]) -> list[Module]:
    """What one split step of ``q`` (its ``rows`` and ``cols``) takes: every group
    of twins, or else one twin module.

    A class's colour is its diagonal entry, row sum and column sum; classes
    that an automorphism swaps share it, so the colour classes are computed
    once and serve both searches.  Without twins, colour classes of at least
    three classes are tried as heads, largest first.  A twin-free ``q`` has no
    module with blocks of one class, and heads need three members for
    ownership to be unambiguous, so a ``q`` of fewer than 6 classes has none.
    """
    classes: dict[tuple, list[int]] = defaultdict(list)
    for i, (row, col) in enumerate(zip(rows, cols)):
        classes[row[i], sum(row), sum(col)].append(i)
    if groups := _twin_groups(rows, cols, classes.values()):
        return groups
    if len(rows) >= 6:
        colour = {i: c for c, members in classes.items() for i in members}
        for heads in sorted(classes.values(), key=len, reverse=True):
            if len(heads) < 3:
                break
            if module := _module_with_heads(rows, cols, colour, heads):
                return [module]
    return []


def _certify_split(
    cols: Sequence[tuple[int, ...]],
    modules: list[Module],
    pieces: Sequence[Sequence[Sequence[int]]],
) -> list[tuple[int, ...]]:
    """The rows of ``Q'``, once ``char(q) = char(Q') * prod(char(a)**(r - 1))`` is certified.

    ``cols`` are the columns of ``q``.  No class may sit in two blocks, each
    module's ``r`` blocks must be runs of one length ``s`` with one ``s x s``
    piece ``a``, and the orbit partition's cells (each module's aligned
    members, and every class outside the blocks) must cover the classes.
    With ``P`` the cells' indicator matrix, column ``c`` of ``q P`` is the
    sum ``S_c`` of cell ``c``'s columns, ``Q'[a][c]`` is ``S_c`` at cell
    ``a``'s first class, and ``q P = P Q'`` is checked on every class.  With
    ``W`` the vectors ``e_x - e_y`` of each member ``x`` of a first block and
    the members ``y`` aligned with it, ``q W = W a`` is checked by shifted
    column images: for each member index ``t``, the column of member ``t`` of
    a block minus column ``t`` of ``a`` on that block's members must be the
    same for every block of the module.  The columns of ``P`` and every ``W``
    then form a basis in which ``q`` is block diagonal, with one block ``Q'``
    and ``r - 1`` blocks ``a`` per module.
    """
    k = len(cols)
    members = [x for module in modules for block in module for x in block]
    if len(set(members)) != len(members) or any(
        len(module) < 2 or len(set(map(len, module))) != 1 for module in modules
    ):
        raise InternalExactnessViolation("twin module: blocks are not disjoint runs of one length")
    if len(pieces) != len(modules) or any(
        [len(a), *map(len, a)] != [len(module[0])] * (len(a) + 1)
        for module, a in zip(modules, pieces)
    ):
        raise InternalExactnessViolation("twin module: one s x s piece per module is needed")
    start = {cell[0]: cell for module in modules for cell in zip(*module)}
    head = {x: cell[0] for cell in start.values() for x in cell}
    first = [head.get(i, i) for i in range(k)]
    cells = [start.get(i, (i,)) for i in range(k) if first[i] == i]
    if sorted(chain.from_iterable(cells)) != list(range(k)):
        raise InternalExactnessViolation("twin module: blocks are not classes of the quotient")
    heads = [cell[0] for cell in cells]
    orbit_cols = []
    for cell in cells:
        sums = tuple(map(sum, zip(*map(cols.__getitem__, cell))))
        if tuple(map(sums.__getitem__, first)) != sums:
            raise InternalExactnessViolation("twin module: orbit partition is not equitable")
        orbit_cols.append(tuple(map(sums.__getitem__, heads)))
    for module, a in zip(modules, pieces):
        for t, a_col in enumerate(zip(*a)):
            images = []
            for block in module:
                image = list(cols[block[t]])
                for x, v in zip(block, a_col):
                    image[x] -= v
                images.append(image)
            if images.count(images[0]) != len(images):
                raise InternalExactnessViolation("twin module: q W != W A")
    return list(zip(*orbit_cols))


def _split(
    q: Sequence[tuple[int, ...]], mult: int, table: Counter[tuple[int, ...]]
) -> Sequence[tuple[int, ...]]:
    """Add the factors of ``char_poly(q)**mult`` to ``table``; return the leaf ``q`` ends at.

    Each step zips the columns of ``q`` once, for :func:`_modules` and the
    certificate.  A module's piece is ``A[a][b] = q[a][b] - q[a][sigma(b)]``
    on its first block, with ``sigma`` the alignment of the first block with
    the second; a group of twins has the 1 x 1 ``A`` of its eigenvalue.
    :func:`_certify_split` checks the split and returns the orbit quotient
    ``Q'``, read off the column sums it checks.  Every piece is split the
    same way, and ``Q'`` takes the next step.  ``table`` maps a factor's
    coefficients to its multiplicity: a 1 x 1 leaf ``[[a]]`` is its
    eigenvalue ``x - a``, and a larger leaf is the kernel's.
    """
    while len(q) > 1 and (modules := _modules(q, cols := list(zip(*q)))):
        pieces = [
            [tuple([q[i][j] - q[i][sj] for j, sj in zip(first, second)]) for i in first]
            for first, second, *_ in modules
        ]
        orbit_q = _certify_split(cols, modules, pieces)
        for module, a in zip(modules, pieces):
            _split(a, mult * (len(module) - 1), table)
        q = orbit_q
    table[(-q[0][0], 1) if len(q) == 1 else _dense_char_poly(q).coeffs] += mult
    return q


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial ``det(xI - m)``, exactly.

    One route for every matrix: split, certify, and run the kernel on the
    leaves.  A twin module of a matrix ``Q`` is a list of blocks ``S_1, ...,
    S_r`` of ``s`` classes each, aligned member by member, such that swapping
    ``S_1`` with any ``S_i`` is an automorphism of ``Q``.  Then
    ``char_poly(Q) = char_poly(Q') * char_poly(A)**(r - 1)``, with ``Q'`` the
    quotient of the orbit partition (aligned members merged) and ``A[a][b] =
    Q[a][b] - Q[a][sigma(b)]`` on ``S_1`` (Godsil and Royle, *Algebraic Graph
    Theory*, on equitable partitions); disjoint modules split off at once.
    Twins, classes X and Y whose rows and columns agree outside {X, Y} with
    ``Q[X][X] = Q[Y][Y]`` and ``Q[X][Y] = Q[Y][X]``, are the modules with
    one-class blocks, and their ``A`` is the eigenvalue ``Q[X][X] - Q[X][Y]``.

    Each step splits along what :func:`_modules` finds, every group of
    twins or else one module with larger blocks, and the next step takes
    ``Q'``; merged twins show twins (the arms of a star) that no two
    vertices are.  Every ``A`` is split the same way.  Power graphs and
    enhanced power graphs are blow-ups of small outer graphs, so the leaves
    are small, and El(p^n) x El(q^m) reaches the shape of its factorisation
    without knowing the family.  A matrix with no module is its own one leaf.

    The factors collect in one table of coefficient tuples and
    multiplicities: a 1 x 1 leaf ``[[a]]`` is the factor ``x - a``, and any
    larger leaf is the kernel's.  Every split is certified on its ``Q`` by
    :func:`_certify_split`, which reads ``Q'`` off the column sums it checks,
    and every leaf of two or more classes by the kernel's Bareiss
    determinant.  The factors are expanded by one evaluation at ``x = 2**B``
    (:func:`_expand`); the result must agree with the product of the
    factors' values at the certificate point of the top-level leaf, which
    also checks the slot width and the unpacking.  A failure raises
    :class:`InternalExactnessViolation`.
    """
    rows = _square_rows(m, "characteristic polynomial")
    table: Counter[tuple[int, ...]] = Counter()
    leaf = _split(rows, 1, table)
    factors = [(IntPolynomial(coeffs), mult) for coeffs, mult in table.items()]
    poly = _expand(factors)
    # Each kernel leaf was certified at its own point; this checks the expansion.
    x0 = _certificate_point(leaf)
    if poly(x0) != prod(base(x0) ** mult for base, mult in factors):
        raise InternalExactnessViolation(f"char_poly: product of factors disagrees at {x0}")
    return poly


def determinant(m: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination with row pivoting."""
    return _bareiss(list(map(list, _square_rows(m, "determinant"))))


def _bareiss(a: list[list[int]]) -> int:
    """:func:`determinant` of the checked square integer rows ``a``, which it overwrites."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                num = pivot * row_i[j] - aik * row_k[j]
                q, r = divmod(num, prev)
                if r:
                    raise InternalExactnessViolation(
                        "Bareiss elimination produced a non-exact division"
                    )
                row_i[j] = q
            row_i[k] = 0
        prev = pivot
    # The last pivot is the determinant itself.
    return sign * a[n - 1][n - 1]
