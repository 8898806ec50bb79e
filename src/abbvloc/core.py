"""Exact computation substrate: rationals, pi-graded scalars, vectors and
covectors, rational matrices, Smith normal form, symmetric polynomials.

All arithmetic is exact.  Rationals are ``fractions.Fraction`` (arbitrary
precision, always reduced, positive denominator), and scalars that carry a
transcendental factor are kept symbolically as ``q * pi**e`` so every
comparison downstream is an exact equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from .errors import (
    MixedPiPowers,
    NonIntegerMatrix,
    NonSquareMatrix,
    SingularMatrix,
)

Rational = Fraction

# 60 decimal digits of pi, used only for display rendering.
_PI_60 = Fraction(
    314159265358979323846264338327950288419716939937510582097494,
    10**59,
)


def rat(x) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rat_str(q: Fraction) -> str:
    """Render a rational as "p" or "p/q"."""
    q = rat(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class PiScalar:
    """An exact value ``coeff * pi**pi_power``.

    Zero is canonicalized to pi power 0, so equality of PiScalars is plain
    field equality.  Addition is only defined between equal pi powers (or
    with zero); anything else raises MixedPiPowers rather than silently
    producing a float.

    >>> PiScalar(2, 1) + PiScalar(Fraction(1, 2), 1)
    PiScalar(5/2 * pi^1)
    """

    coeff: Fraction
    pi_power: int = 0

    def __post_init__(self):
        c = rat(self.coeff)
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "pi_power", 0 if c == 0 else int(self.pi_power))

    @staticmethod
    def zero() -> "PiScalar":
        return PiScalar(Fraction(0), 0)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def __add__(self, other: "PiScalar") -> "PiScalar":
        if not isinstance(other, PiScalar):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.pi_power != other.pi_power:
            raise MixedPiPowers(
                f"cannot add pi^{self.pi_power} term to pi^{other.pi_power} term"
            )
        return PiScalar(self.coeff + other.coeff, self.pi_power)

    def __neg__(self) -> "PiScalar":
        return PiScalar(-self.coeff, self.pi_power)

    def __sub__(self, other: "PiScalar") -> "PiScalar":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PiScalar):
            return PiScalar(self.coeff * other.coeff, self.pi_power + other.pi_power)
        return PiScalar(self.coeff * rat(other), self.pi_power)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiScalar):
            if other.is_zero:
                raise ZeroDivisionError("division by zero PiScalar")
            return PiScalar(self.coeff / other.coeff, self.pi_power - other.pi_power)
        return PiScalar(self.coeff / rat(other), self.pi_power)

    def __pow__(self, k: int) -> "PiScalar":
        if k < 0:
            raise ValueError("negative powers of PiScalar are not supported")
        return PiScalar(self.coeff**k, self.pi_power * k)

    def times_pi(self, k: int = 1) -> "PiScalar":
        """Shift the pi grading by k (multiply by pi**k)."""
        if self.is_zero:
            return self
        return PiScalar(self.coeff, self.pi_power + k)

    def exact_str(self) -> str:
        return f"{rat_str(self.coeff)} * pi^{self.pi_power}"

    def to_decimal(self, digits: int = 12) -> str:
        """Display-only decimal rendering to ``digits`` significant digits.

        Never used in any computation or comparison.
        """
        import decimal

        value = self.coeff * _PI_60**self.pi_power
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
            return str(+d)

    def __repr__(self):
        return f"PiScalar({self.exact_str()})"


class _ExactTuple(tuple):
    """Immutable tuple of rationals with elementwise arithmetic."""

    def __new__(cls, entries):
        return super().__new__(cls, tuple(rat(e) for e in entries))

    @property
    def dim(self) -> int:
        return len(self)

    def __add__(self, other):
        if type(other) is not type(self) or len(other) != len(self):
            return NotImplemented
        return type(self)(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        if type(other) is not type(self) or len(other) != len(self):
            return NotImplemented
        return type(self)(a - b for a, b in zip(self, other))

    def __neg__(self):
        return type(self)(-a for a in self)

    def scaled(self, c) -> "_ExactTuple":
        c = rat(c)
        return type(self)(c * a for a in self)

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self)


class Vector(_ExactTuple):
    """An element of the torus Lie algebra in fixed coordinates."""


class Covector(_ExactTuple):
    """A linear functional on the torus Lie algebra; call it on a Vector."""

    def __call__(self, v: Vector) -> Fraction:
        if len(v) != len(self):
            raise ValueError(f"dimension mismatch: {len(self)} vs {len(v)}")
        return sum((a * b for a, b in zip(self, v)), Fraction(0))


def basis_vector(dim: int, j: int) -> Vector:
    return Vector(Fraction(1 if i == j else 0) for i in range(dim))


def basis_covector(dim: int, j: int) -> Covector:
    return Covector(Fraction(1 if i == j else 0) for i in range(dim))


class Matrix:
    """A dense rational matrix; rows of Fractions, immutable after build."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(rat(e) for e in row) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(
            [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        )

    @classmethod
    def from_columns(cls, cols) -> "Matrix":
        cols = [tuple(rat(e) for e in c) for c in cols]
        return cls([[c[i] for c in cols] for i in range(len(cols[0]))])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def with_column(self, j: int, entries) -> "Matrix":
        entries = tuple(rat(e) for e in entries)
        return Matrix(
            [
                [entries[i] if k == j else self.rows[i][k] for k in range(self.ncols)]
                for i in range(self.nrows)
            ]
        )

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.ncols)])

    def apply(self, v) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch in matrix apply")
        return Vector(
            sum((r[j] * v[j] for j in range(self.ncols)), Fraction(0))
            for r in self.rows
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("dimension mismatch in matrix product")
            cols = [other.column(j) for j in range(other.ncols)]
            return Matrix(
                [
                    [
                        sum((r[k] * c[k] for k in range(self.ncols)), Fraction(0))
                        for c in cols
                    ]
                    for r in self.rows
                ]
            )
        return self.apply(other)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(e) for e in r) for r in self.rows)
        return f"Matrix[{body}]"

    def det(self) -> Fraction:
        return det(self)

    def inverse(self) -> "Matrix":
        """Exact inverse: one elimination of (m | I), then one
        back-substitution per column of the identity."""
        if not self.is_square:
            raise NonSquareMatrix("inverse of a non-square matrix")
        n = self.nrows
        identity = Matrix.identity(n).rows
        rows, pivots = _echelon([r + e for r, e in zip(self.rows, identity)], n)
        if len(pivots) < n:
            raise SingularMatrix("matrix is singular")
        return Matrix.from_columns(
            _back_substitute(rows, pivots, [row[n + k] for row in rows], [Fraction(0)] * n)
            for k in range(n)
        )


def det(m: Matrix) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    >>> det(Matrix([[2, 1], [1, 1]]))
    Fraction(1, 1)
    """
    if not m.is_square:
        raise NonSquareMatrix("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    a = [list(r) for r in m.rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return Fraction(0)
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _echelon(rows, ncols: int) -> tuple:
    """Forward Gaussian elimination on the first ``ncols`` columns.

    Each column's pivot is the first row, at or below the current one,
    with a nonzero entry there; only the rows below a pivot are cleared,
    and only from the pivot column on (the entries left of it are zero).
    Entries right of ``ncols`` (an augmented right-hand side) are carried
    along.  Returns (echelon rows as lists, pivot columns): row r leads in
    column pivots[r], and rows past len(pivots) vanish on the first
    ``ncols`` columns, so len(pivots) is the rank.
    """
    a = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r][col:]
        for row in a[r + 1:]:
            if row[col] != 0:
                f = row[col] / top[0]
                row[col:] = [x - f * y for x, y in zip(row[col:], top)]
        pivots.append(col)
    return a, pivots


def _back_substitute(rows, pivots, rhs, x) -> list:
    """Solve the echelon system from _echelon for its pivot unknowns.

    Sets x[pivots[r]] so that sum_j rows[r][j] x[j] = rhs[r] over the
    len(x) unknowns, last pivot first; the free entries of x keep the
    values they come in with.  Returns x.
    """
    width = len(x)
    for r in range(len(pivots) - 1, -1, -1):
        p, row = pivots[r], rows[r]
        s = rhs[r] - sum((row[j] * x[j] for j in range(p + 1, width) if row[j]), Fraction(0))
        x[p] = s / row[p]
    return x


def solve_linear(m: Matrix, rhs) -> Vector:
    """Exact solution of ``m x = rhs`` by Gaussian elimination.

    Raises SingularMatrix when det(m) = 0.
    """
    if not m.is_square:
        raise NonSquareMatrix("solve requires a square matrix")
    n = m.nrows
    if len(rhs) != n:
        raise ValueError("right-hand side has wrong length")
    rows, pivots = _echelon([r + (rat(rhs[i]),) for i, r in enumerate(m.rows)], n)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    return Vector(_back_substitute(rows, pivots, [row[n] for row in rows], [Fraction(0)] * n))


def _as_int_rows(mat) -> list:
    rows = []
    for row in mat:
        out = []
        for e in row:
            q = rat(e)
            if q.denominator != 1:
                raise NonIntegerMatrix(f"entry {q} is not an integer")
            out.append(q.numerator)
        rows.append(out)
    return rows


def smith_normal_form(mat) -> tuple:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix.

    Returns min(rows, cols) nonnegative integers, zeros trailing.  The
    divisors are invariant under unimodular row and column operations.

    >>> smith_normal_form([[2, 0], [0, 3]])
    (1, 6)
    """
    a = _as_int_rows(mat)
    m = len(a)
    n = len(a[0]) if m else 0
    size = min(m, n)
    t = 0
    while t < size:
        # locate a nonzero entry of least magnitude in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            # clear row t right of the pivot
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j] != 0:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        # pivot must divide the rest of the block
        fix = next(
            (
                (i, j)
                for i in range(t + 1, m)
                for j in range(t + 1, n)
                if a[i][j] % a[t][t] != 0
            ),
            None,
        )
        if fix is not None:
            a[t] = [x + y for x, y in zip(a[t], a[fix[0]])]
            continue
        t += 1
    divisors = [abs(a[i][i]) for i in range(t)] + [0] * (size - t)
    return tuple(divisors)


def integer_gcd(entries) -> int:
    g = 0
    for e in entries:
        q = rat(e)
        if q.denominator != 1:
            raise NonIntegerMatrix(f"entry {q} is not an integer")
        g = gcd(g, abs(q.numerator))
    return g


# ---------------------------------------------------------------------------
# symmetric polynomials


def elementary_symmetric(k: int, xs) -> Fraction:
    """s_k(xs) by the incremental product expansion of prod(1 + x_i t).

    >>> elementary_symmetric(2, [1, 2, 3])
    Fraction(11, 1)
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    xs = [rat(x) for x in xs]
    if k > len(xs):
        return Fraction(0)
    coeffs = [Fraction(1)]
    for x in xs:
        nxt = coeffs + [Fraction(0)]
        for i in range(len(coeffs), 0, -1):
            nxt[i] += x * coeffs[i - 1]
        coeffs = nxt
    return coeffs[k]


def complete_homogeneous(k: int, xs) -> Fraction:
    """h_k(xs) as the literal sum of all degree-k monomials.

    Deliberately brute force: this is the independent oracle against which
    the localized series identities are checked.
    """
    if k < 0:
        return Fraction(0)
    if k == 0:
        return Fraction(1)
    xs = [rat(x) for x in xs]
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement(xs, k):
        term = Fraction(1)
        for x in combo:
            term *= x
        total += term
    return total


def power_sum(k: int, xs) -> Fraction:
    if k < 0:
        raise ValueError("k must be nonnegative")
    return sum((rat(x) ** k for x in xs), Fraction(0))


def canonical_multiindex(J) -> tuple:
    """Sorted-ascending copy of a multiindex; entries must be positive ints."""
    J = tuple(int(j) for j in J)
    if any(j < 1 for j in J):
        raise ValueError("multiindex entries must be positive integers")
    return tuple(sorted(J))


def s_J(J, xs) -> Fraction:
    """Product of elementary symmetric polynomials s_{j1} * s_{j2} * ...

    The multiindex is canonicalized to ascending order; the order never
    affects the value.

    >>> s_J((1, 1), [1, 2])
    Fraction(9, 1)
    """
    out = Fraction(1)
    for j in canonical_multiindex(J):
        out *= elementary_symmetric(j, xs)
    return out


def partitions(m: int) -> list:
    """All ascending multiindices with entry sum m (partitions of m)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = []

    def extend(prefix, remaining, least):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(least, remaining + 1):
            extend(prefix + [part], remaining - part, part)

    extend([], m, 1)
    return out


__all__ = [
    "Covector",
    "Matrix",
    "PiScalar",
    "Rational",
    "Vector",
    "basis_covector",
    "basis_vector",
    "canonical_multiindex",
    "complete_homogeneous",
    "det",
    "elementary_symmetric",
    "factorial",
    "integer_gcd",
    "partitions",
    "power_sum",
    "rat",
    "rat_str",
    "s_J",
    "smith_normal_form",
    "solve_linear",
]
