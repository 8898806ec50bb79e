"""Exact computation substrate: rationals, pi-graded scalars, vectors and
covectors, the integer elimination kernels (``_cofactors`` for a
determinant as a linear form in its last row, ``_pivot`` and ``_reduce``
for Gauss-Jordan steps and reductions),
``_sum``, the pairwise unreduced sum of integer fractions that the
localized sums and the pulling triangulation share, symmetric
polynomials, and ``Record``, the frozen-record base of the package's
value classes.  Matrices are plain tuples of rows.

All arithmetic is exact.  Rationals are ``fractions.Fraction`` (arbitrary
precision, always reduced, positive denominator), and scalars that carry a
transcendental factor are kept symbolically as ``q * pi**e`` so every
comparison downstream is an exact equality.

The records (orbit data, cones, sections, root data, ...) are plain
classes on ``Record`` rather than dataclasses: each CLI call is one
process, and ``dataclasses`` costs every launch the import of ``inspect``
and an ``exec`` of each class's generated methods.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul

from .errors import InputError, SingularMatrix

Rational = Fraction

# 60 decimal digits of pi, used only for display rendering.
_PI_60 = Fraction(
    314159265358979323846264338327950288419716939937510582097494,
    10**59,
)


def rat(x) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to an exact rational.

    Booleans are refused although ``bool`` subclasses ``int``: a JSON
    ``true`` is not a number.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rat_str(q: Fraction) -> str:
    """Render a rational as "p" or "p/q".

    Raises InputError when p or q has more digits than Python converts to
    a string (4300 unless ``sys.set_int_max_str_digits`` changed it).
    """
    q = rat(q)
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError as exc:
        raise InputError(f"the exact value is too large to print: {exc}") from exc


class Record:
    """Base of the package's records: immutable values named by their fields.

    A subclass lists its fields as annotations, in order, and gives a
    default as a class attribute.  ``__init__`` binds the fields by
    position or keyword, refusing a missing, unknown or surplus one with
    TypeError, and then calls ``__post_init__``, which a subclass
    overrides to normalize fields with ``object.__setattr__`` and validate.
    Records compare and hash by their field tuple and print as
    ``Name(field=value, ...)``.  Assignment and deletion raise
    AttributeError; instances keep a ``__dict__`` for ``cached_property``.
    No code is generated: the methods below serve every subclass.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # strings under `from __future__ import annotations`; only the names count
        cls._fields = tuple(vars(cls).get("__annotations__", {}))

    def __init__(self, *args, **kwargs):
        values = type(self)._bind(args, kwargs)
        # set one by one, in field order: filling __dict__ directly would
        # materialize it and make every later attribute read slower
        for name, value in values.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Normalize and validate the bound fields; a subclass overrides it."""

    @classmethod
    def _bind(cls, args, kwargs) -> dict:
        """The fields as a dict from positional, keyword and default values."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in vars(cls):
                values[name] = vars(cls)[name]
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated fields {sorted(kwargs)}")
        return values

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of frozen {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class PiScalar(Record):
    """An exact value ``coeff * pi**pi_power``.

    Zero is canonicalized to pi power 0, so equality of PiScalars is plain
    field equality.
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
    """Immutable tuple of rationals, negated elementwise."""

    def __new__(cls, entries):
        entries = tuple(entries)
        # entries that are all Fractions already are kept as they are: the
        # type test runs in C, where a rat call per entry would not
        if not set(map(type, entries)) <= {Fraction}:
            entries = tuple(map(rat, entries))
        return super().__new__(cls, entries)

    def __neg__(self):
        return type(self)(-a for a in self)


class Vector(_ExactTuple):
    """An element of the torus Lie algebra in fixed coordinates."""


class Covector(_ExactTuple):
    """A linear functional on the torus Lie algebra; call it on a Vector."""

    def __call__(self, v: Vector) -> Fraction:
        """The pairing sum_i a_i v_i, summed on Fractions.  The routes pair
        integer rows instead; in the package only RootData's p(b) = 1 check
        calls it.

        >>> Covector([Fraction(1, 2), 0, -1])(Vector([3, 5, Fraction(1, 3)]))
        Fraction(7, 6)
        """
        if len(v) != len(self):
            raise ValueError(f"dimension mismatch: {len(self)} vs {len(v)}")
        return sum(map(mul, self, v), Fraction(0))


def basis_vector(dim: int, j: int) -> Vector:
    return Vector(Fraction(1 if i == j else 0) for i in range(dim))


def _cofactors(rows) -> list:
    """The integer covector c with c . x = det(rows; x) for n integer rows
    of length n + 1 (a list of lists) and every x: the cofactors of the
    row x appended last.

    Forward fraction-free elimination (Bareiss 1968) runs on the n rows:
    step k updates the rows below the pivot row in place, a_ij <- (a_ij
    a_kk - a_ik a_kj) / (previous pivot), every division exact.  A zero
    pivot is swapped with the first row below that has a nonzero entry in
    its column, and a column without one with the first later column that
    has one; c is zero when none has (the rows have rank below n).  Each
    swap flips the sign.  The last pivot, signed, is the cofactor of the
    column left unpivoted.  The rows c is orthogonal to span the eliminated
    rows, which stay integer combinations of them, so back substitution
    through the pivots gives the other cofactors, every division exact.
    The rows are consumed.

    >>> _cofactors([[1, 2, 3], [0, 1, 4]])
    [5, -4, 1]
    >>> _cofactors([[0, 1, 0], [1, 0, 0]])  # a row swap
    [0, 0, -1]
    >>> _cofactors([[0, 0, 1], [0, 2, 0]])  # a column swap
    [-2, 0, 0]
    """
    a = rows
    n = len(a)
    order = list(range(n + 1))  # the coordinate at each column
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                piv, j = next(((i, j) for j in range(k + 1, n + 1) for i in range(k, n)
                               if a[i][j] != 0), (None, None))
                if piv is None:
                    return [0] * (n + 1)
                for row in a:
                    row[k], row[j] = row[j], row[k]
                order[k], order[j] = order[j], order[k]
                sign = -sign
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
        top, pivot = a[k], a[k][k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
    y = [0] * n + [sign * prev]
    for i in range(n - 1, -1, -1):
        row = a[i]
        y[i] = -sum(row[j] * y[j] for j in range(i + 1, n + 1)) // row[i]
    c = [0] * (n + 1)
    for coordinate, value in zip(order, y):
        c[coordinate] = value
    return c


def _integer_row(row) -> tuple:
    """(L, [L * e for e in row]) with L the lcm of the row's denominators."""
    scale = lcm(*(e.denominator for e in row))
    return scale, [e.numerator * (scale // e.denominator) for e in row]


def _primitive(row: list) -> list:
    """The integer row divided by the gcd of its entries (all-zero rows
    and rows of gcd 1 come back as they are)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _sum(terms: list) -> tuple:
    """(P, Q) with P / Q the sum of the p / q of terms, a nonempty list, unreduced.

    The terms are added pairwise, as a product tree, so each addition
    multiplies integers of like size; a running sum would multiply each
    term by the product of all the denominators before it.
    """
    while len(terms) > 1:
        pairs = iter(terms)
        odd = terms[len(terms) & ~1:]
        terms = [(p * s + r * q, q * s) for (p, q), (r, s) in zip(pairs, pairs)] + odd
    return terms[0]


def _pivot(a, t, i, col) -> tuple:
    """One fraction-free Gauss-Jordan step (Bareiss 1968) on integer rows
    A with previous pivot T, at row i, for the column whose entries are
    col: A'_i = A_i, A'_j = (A_j p - col_j A_i) / T, T' = p = col_i.

    A = T B^-1 X for the integer rows X the steps started from, where B is
    the identity with the columns pivoted so far put in their positions
    and T = det B; T B^-1 is the adjugate of B, so every division is
    exact.  Returns (A', T').
    """
    top, p = a[i], col[i]
    return [top if j == i else [(x * p - f * y) // t for x, y in zip(r, top)]
            for j, (r, f) in enumerate(zip(a, col))], p


def _reduce(rows, n: int) -> tuple:
    """Gauss-Jordan reduction of n augmented rational rows (M | R), M
    square, by ``_pivot`` on the rows scaled to integers.

    Column i is pivoted at row i, swapped there from the first row below
    with a nonzero entry.  Returns (A, T) with A = (T I | T M^-1 R) on
    Python ints, T = +-det of the integer-scaled M.  Raises SingularMatrix
    when a column has no pivot, i.e. when det(M) = 0.

    >>> _reduce([[2, 1, 3], [1, 1, 2]], 2)
    ([[1, 0, 1], [0, 1, 1]], 1)
    """
    a = [_integer_row(row)[1] for row in rows]
    t = 1
    for i in range(n):
        piv = next((j for j in range(i, n) if a[j][i]), None)
        if piv is None:
            raise SingularMatrix("matrix is singular")
        a[i], a[piv] = a[piv], a[i]
        a, t = _pivot(a, t, i, [row[i] for row in a])
    return a, t


# ---------------------------------------------------------------------------
# symmetric polynomials


def _expand(ints) -> list:
    """S_0..S_d, the coefficients of prod_i (1 + a_i t) over integers a_i,
    so S_k = s_k(a).  The one kernel of the symmetric polynomials: rationals
    xs are first scaled to integers L xs (L the lcm of their denominators,
    see _integer_row), and then s_k(xs) = S_k / L^k.

    >>> _expand([3, 2])
    [1, 5, 6]
    """
    coeffs = [1] + [0] * len(ints)
    for i, a in enumerate(ints, 1):
        if a:
            for k in range(i, 0, -1):
                coeffs[k] += a * coeffs[k - 1]
    return coeffs


def _s_J_integer(J, ints) -> int:
    """s_J at integers: prod_{j in J} S_j with S = _expand(ints); zero when
    an entry of J exceeds len(ints)."""
    coeffs = _expand(ints)
    num = 1
    for j in J:
        if j >= len(coeffs):
            return 0
        num *= coeffs[j]
    return num


class Multiindex(tuple):
    """A multiindex in canonical form: positive ints, ascending.  Only
    canonical_multiindex and partitions build one, so a sum evaluated at
    many samples validates its multiindex once."""


def canonical_multiindex(J) -> Multiindex:
    """Sorted-ascending copy of a multiindex; entries must be positive ints.
    A Multiindex is canonical already and comes back as it is."""
    if type(J) is Multiindex:
        return J
    J = tuple(int(j) for j in J)
    if any(j < 1 for j in J):
        raise ValueError("multiindex entries must be positive integers")
    return Multiindex(sorted(J))


def s_J(J, xs) -> Fraction:
    """Product of elementary symmetric polynomials s_{j1} * s_{j2} * ...

    One integer expansion of prod(1 + L x_i t) gives every S_j (see
    _expand), and the value is prod_{j in J} S_j / L^{|J|}, |J| the entry
    sum.  The multiindex is canonicalized to ascending order; the order
    never affects the value.

    >>> s_J((1, 1), [1, 2])
    Fraction(9, 1)
    """
    J = canonical_multiindex(J)
    scale, ints = _integer_row([rat(x) for x in xs])
    return Fraction(_s_J_integer(J, ints), scale ** sum(J))


def partitions(m: int) -> list:
    """All ascending multiindices with entry sum m (partitions of m), each
    a Multiindex."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = []

    def extend(prefix, remaining, least):
        if remaining == 0:
            out.append(Multiindex(prefix))
            return
        for part in range(least, remaining + 1):
            extend(prefix + [part], remaining - part, part)

    extend([], m, 1)
    return out


__all__ = [
    "Covector",
    "Multiindex",
    "PiScalar",
    "Rational",
    "Vector",
    "basis_vector",
    "canonical_multiindex",
    "factorial",
    "partitions",
    "rat",
    "rat_str",
    "s_J",
]
