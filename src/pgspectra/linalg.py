"""Exact integer matrices, polynomials, and characteristic polynomials.

Everything here runs on Python's arbitrary-precision integers; no floating
point is involved anywhere.  ``char_poly`` has one route for every matrix:
it splits off the eigenvalues of twins (classes whose rows and columns
agree; each merge of two gives one linear factor, and a twin-free matrix
merges nothing), certifies the reduction on the original matrix, and runs
the dense kernel of ``dense_char_poly`` on the quotient that remains.  The
kernel is Hessenberg reduction modulo a Gershgorin-bounded prime (Cohen, *A
Course in Computational Algebraic Number Theory*, Alg. 2.2.9), certified by
a Bareiss determinant; determinants come from fraction-free Bareiss
elimination.  Each public function checks its matrix and turns it into rows
once; the kernels behind it work on those rows.

Polynomials are dense coefficient tuples in ascending order, so
``(c0, c1, c2)`` is ``c0 + c1*x + c2*x**2``.
"""

from __future__ import annotations

import csv
import io
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from math import prod
from operator import itemgetter, mul, sub
from typing import Iterable, Sequence

from .errors import (
    BitGrowthExceeded,
    DimensionMismatch,
    InexactDivision,
    InternalExactnessViolation,
    NotSquare,
)

def _exact_int(v: object) -> int:
    """An entering ``int``; anything else (bool, float, string) raises, never truncates."""
    if type(v) is not int:
        raise DimensionMismatch(f"need an integer, got {v!r}")
    return v


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
        if type(self.rows) is not int or type(self.cols) is not int:
            raise DimensionMismatch(
                f"matrix dimensions must be integers, got {self.rows!r}x{self.cols!r}"
            )
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("matrix dimensions must be nonnegative")
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
            flat.extend(_exact_int(v) for v in row)
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
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, (0,) * (rows * cols))


def ones(rows: int, cols: int) -> IntMatrix:
    """All-ones matrix (the J / 1-vector building block)."""
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
        if self.coeffs and not self.coeffs[-1]:
            raise DimensionMismatch(f"leading coefficient must be nonzero, got {self.coeffs!r}")

    @staticmethod
    def from_coeffs(coeffs: Iterable[int]) -> IntPolynomial:
        """Coefficients given as ints; trailing zeros are dropped."""
        return IntPolynomial(_normalize(map(_exact_int, coeffs)))

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
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __pow__(self, k: int) -> IntPolynomial:
        if k < 0:
            raise ValueError("negative polynomial power")
        if self.degree == 1:
            # (a*x + c)**k by the binomial theorem: coefficient i is
            # C(k, i) * a**i * c**(k - i), with C(k, i) * a**i kept running.
            c, a = self.coeffs
            c_pows = list(accumulate(repeat(c, k), mul, initial=1))
            out, term = [], 1
            for i in range(k + 1):
                out.append(term * c_pows[k - i])
                term = term * a * (k - i) // (i + 1)
            return IntPolynomial(tuple(out))
        result = IntPolynomial((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json_obj(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    def pretty(self, var: str = "x") -> str:
        """Human-readable rendering, highest power first."""
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
                xk = var if k == 1 else f"{var}^{k}"
                body = xk if mag == 1 else f"{mag}*{xk}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


def poly_constant(c: int) -> IntPolynomial:
    return IntPolynomial.from_coeffs((c,))


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
        out = IntPolynomial((1,))
        for base, mult in self.factors:
            out = out * base**mult
        return out

    def to_json_obj(self) -> dict:
        return {
            "factors": [
                {"coeffs": [str(c) for c in base.coeffs], "mult": mult}
                for base, mult in self.factors
            ]
        }

    def pretty(self, var: str = "x") -> str:
        if not self.factors:
            return "1"
        parts = []
        for base, mult in self.factors:
            inner = base.pretty(var)
            parts.append(f"({inner})" + (f"^{mult}" if mult != 1 else ""))
        return " * ".join(parts)


# ---------------------------------------------------------------------------
# Characteristic polynomial and determinant
# ---------------------------------------------------------------------------


#: Exponents e of the Mersenne primes 2**e - 1 that ``char_poly`` may work
#: modulo; it takes the smallest one above twice its coefficient bound.
MERSENNE_EXPONENTS = (61, 89, 127, 521, 607, 1279, 2203, 3217, 4253, 9689, 19937, 44497)


def _hessenberg_char_poly(rows: list[list[int]], p: int) -> list[int]:
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


def _square_rows(m: IntMatrix, what: str) -> list[list[int]]:
    """The rows of ``m`` as lists, once ``m`` is square with ``int`` entries only.

    ``IntMatrix`` does not check its entries' types; a bool or float would
    otherwise be read as a number and a string fail deep in the arithmetic.
    """
    if m.rows != m.cols:
        raise NotSquare(f"{what} needs a square matrix, got {m.rows}x{m.cols}")
    if not set(map(type, m.entries)) <= {int}:
        bad = next(v for v in m.entries if type(v) is not int)
        raise DimensionMismatch(f"{what} needs integer entries, got {bad!r}")
    return [list(m.row(i)) for i in range(m.rows)]


def _certificate_point(rows: list[list[int]]) -> int:
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

    This is the kernel :func:`char_poly` runs on its twin-reduced quotient;
    closed-form predictions call it directly, so they never share the
    reduction with the brute force that checks them.
    """
    return _dense_char_poly(_square_rows(m, "characteristic polynomial"))


def _dense_char_poly(rows: list[list[int]]) -> IntPolynomial:
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


#: One merge of a twin reduction: the eigenvalue and the twin cells merged.
#: Each cell after the first gives the eigenvector ``1_first - 1_cell``.
TwinMerge = tuple[int, tuple[tuple[int, ...], ...]]


def _twin_groups(q: list[list[int]]) -> list[tuple[int, list[int]]]:
    """Disjoint groups of mutual twin classes of quotient ``q``, each with its eigenvalue.

    Twins X and Y agree in row and column outside {X, Y} and on the diagonal,
    and ``q[X][Y] == q[Y][X] == t``.  With the diagonal entry of X's row and
    column set to ``t``, X's key (diagonal, ``t``, row, column) then equals
    Y's, so each candidate value ``t`` costs one O(k) key per class and no
    pair is compared.  Twins also share their row and column sums, which
    leave most classes of a twin-free matrix alone before any key is built.
    """
    cols = list(zip(*q))
    coarse: dict[tuple[int, int, int], list[int]] = defaultdict(list)
    for i, row in enumerate(q):
        coarse[row[i], sum(row), sum(cols[i])].append(i)
    buckets: dict[tuple[int, ...], list[int]] = defaultdict(list)
    for members in coarse.values():
        if len(members) < 2:
            continue
        pick = itemgetter(*members)
        for i in members:
            row, col = q[i], cols[i]
            values = pick(row)
            for t in set(values):
                if t == row[i] and values.count(t) == 1:
                    continue  # row[i] itself is no twin value
                key = (row[i], t, *row[:i], t, *row[i + 1 :], *col[:i], t, *col[i + 1 :])
                buckets[key].append(i)
    groups = []
    used: set[int] = set()
    for (d, t, *_), members in buckets.items():
        free = [i for i in members if i not in used]
        if len(free) > 1:
            used.update(free)
            groups.append((d - t, free))
    return groups


def _twin_reduction(
    rows: list[list[int]],
) -> tuple[list[tuple[int, ...]], list[list[int]], list[TwinMerge]]:
    """Merge twin classes of ``rows``, starting from singletons, until none remain.

    Returns the final cells, their quotient and the merges in order.  Merging
    twins keeps the partition equitable, so later passes find twins among
    classes (such as the arms of a star) that no two vertices show.
    """
    cells = [(i,) for i in range(len(rows))]
    q = rows
    merges: list[TwinMerge] = []
    while groups := _twin_groups(q):
        owner = list(range(len(q)))
        for lam, members in groups:
            merges.append((lam, tuple(cells[i] for i in members)))
            for i in members:
                owner[i] = members[0]
        merged: dict[int, list[int]] = defaultdict(list)  # representative -> its classes
        for i, rep in enumerate(owner):
            merged[rep].append(i)
        parts = list(merged.values())
        cells = [tuple(sorted(chain.from_iterable(cells[i] for i in part))) for part in parts]
        q = [[sum(map(q[part[0]].__getitem__, other)) for other in parts] for part in parts]
    return cells, q, merges


def _certify_twin_reduction(
    rows: list[list[int]],
    cells: list[tuple[int, ...]],
    q: list[list[int]],
    merges: list[TwinMerge],
) -> None:
    """Check on the original matrix that ``char_poly = char_poly(q) * prod(x - lam)``.

    The merges, replayed from singletons, must each join current cells and
    end at ``cells``; the eigenvectors ``1_X - 1_Y`` of the merges and the
    indicator vectors of ``cells`` then form a basis.  ``M P = P q`` for the
    indicator matrix ``P`` of ``cells``, and ``M v = lam v`` for every merge
    vector ``v``, so in that basis ``M`` is block diagonal with blocks ``q``
    and ``diag(lam)``.
    """
    n = len(rows)
    # M @ 1_cell for every current cell of the replay; a merged cell's is the sum.
    image: dict[tuple[int, ...], Sequence[int]] = {(j,): col for j, col in enumerate(zip(*rows))}
    for lam, group in merges:
        if len(set(group)) != len(group) or not all(cell in image for cell in group):
            raise InternalExactnessViolation("twin reduction merged cells that do not exist")
        first, *others = group
        for cell in others:
            diff = list(map(sub, image[first], image[cell]))
            for i in first:
                diff[i] -= lam
            for i in cell:
                diff[i] += lam
            if any(diff):
                raise InternalExactnessViolation(f"twin reduction: M v != {lam} v")
        union = tuple(sorted(chain.from_iterable(group)))
        image[union] = list(map(sum, zip(*(image.pop(cell) for cell in group))))
    if image.keys() != set(cells) or len(q) + sum(len(g) - 1 for _, g in merges) != n:
        raise InternalExactnessViolation("twin reduction: merges do not end at its partition")
    if len(q) != len(cells) or any(len(row) != len(cells) for row in q):
        raise InternalExactnessViolation("twin reduction: quotient does not fit its partition")
    owner = [0] * n
    for c, cell in enumerate(cells):
        for i in cell:
            owner[i] = c
    for c, cell in enumerate(cells):
        if list(image[cell]) != [q[owner[i]][c] for i in range(n)]:
            raise InternalExactnessViolation("twin reduction: partition is not equitable")


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial ``det(xI - m)``, exactly.

    One route for every matrix: reduce, certify, then run the kernel.  Classes
    X and Y of an equitable partition with quotient ``Q`` are twins when their
    rows and columns of ``Q`` agree outside {X, Y}, ``Q[X][X] = Q[Y][Y]`` and
    ``Q[X][Y] = Q[Y][X]``; then ``1_X - 1_Y`` is an eigenvector for
    ``lam = Q[X][X] - Q[X][Y]``, and merging X and Y keeps the partition
    equitable.  Starting from singletons and merging until no twins remain
    gives ``char_poly(m) = dense_char_poly(Q) * prod(x - lam)``; power graphs
    and enhanced power graphs are blow-ups of small outer graphs, so ``Q`` is
    small.  A twin-free matrix is the reduction with no merges: ``Q`` is
    ``m`` itself.

    The reduction is certified on ``m`` itself: the final partition is
    equitable, every merge vector is an eigenvector, the merges and ``Q``
    account for all ``n`` dimensions, and the product agrees with
    ``det(x0 I - Q) * prod(x0 - lam)`` at the kernel's certificate point
    ``x0``.  A failure raises :class:`InternalExactnessViolation`.
    """
    rows = _square_rows(m, "characteristic polynomial")
    cells, q, merges = _twin_reduction(rows)
    _certify_twin_reduction(rows, cells, q, merges)
    kernel = _dense_char_poly(q)
    lams = Counter(lam for lam, group in merges for _ in group[1:])
    poly = kernel
    # Lowest degrees multiplied first.
    for lam, mult in sorted(lams.items(), key=lambda lm: lm[1]):
        poly = poly * x_plus(-lam) ** mult
    # The kernel certified kernel(x0) == det(x0 I - Q).
    x0 = _certificate_point(q)
    if poly(x0) != kernel(x0) * prod((x0 - lam) ** mult for lam, mult in lams.items()):
        raise InternalExactnessViolation(f"char_poly: twin product disagrees at {x0}")
    return poly


def determinant(m: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination with row pivoting."""
    return _bareiss(_square_rows(m, "determinant"))


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
