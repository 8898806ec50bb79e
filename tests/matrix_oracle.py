"""Plain ``Fraction`` matrix arithmetic, as an oracle for the integer kernels.

The package eliminates with three integer kernels in ``core``:
``_cofactors`` (a determinant as a linear form in its last row), ``_pivot``
(one fraction-free Gauss-Jordan step) and ``_reduce`` (the Gauss-Jordan
reduction by that step); a section's |det(b, v_S)| is read off the vertex
walk's dictionaries.  This module shares no code with them: every routine
below works on ``Fraction`` rows, divides as it goes and pivots on the
first nonzero entry.  A matrix is a sequence of rows; every result is a
list of lists.  ``solve`` also checks Lawrence's coefficients, which the
package reads off the section's edges without elimination, and
``vertex_dets`` the walk's determinants.
"""

import itertools
from fractions import Fraction


def identity(n) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b) -> list:
    """The product a b of a p x q and a q x r matrix."""
    columns = list(zip(*b))
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0)) for col in columns]
            for row in a]


def apply(m, v) -> list:
    """m v, one entry per row of m."""
    return [sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) for row in m]


def leibniz_det(rows) -> Fraction:
    """The permutation sum over Fractions (1 for the empty matrix)."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i, j in itertools.combinations(range(n), 2) if perm[i] > perm[j])
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def elimination_det(rows) -> Fraction:
    """Gaussian elimination over Fractions: the product of the pivots, with
    a sign per row swap.  Cubic, so it serves where the Leibniz sum's n!
    terms are too many (dimension 9 and up)."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    value = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            value = -value
        value *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return value


def vertex_dets(p) -> list:
    """|det(b, v_S)| at each vertex of the section p on the facets S, in
    vertex order, by ``elimination_det`` of the Reeb vector and the
    section's given normals v_S."""
    return [abs(elimination_det([p.reeb, *(p.normals[j] for j in o.facet_indices)]))
            for o in p.orbits]


def gauss_jordan(rows, ncols):
    """Reduced row echelon form over Fractions, pivot = first nonzero at or
    below, in the first ``ncols`` columns.  Returns (rows, pivot columns)."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def inverse(rows):
    """The inverse of a square matrix by ``gauss_jordan`` on (m | I), or
    None when m is singular."""
    n = len(rows)
    reduced, pivots = gauss_jordan([list(r) + e for r, e in zip(rows, identity(n))], n)
    return [r[n:] for r in reduced] if len(pivots) == n else None


def solve(rows, rhs):
    """The solution x of m x = rhs by ``gauss_jordan`` on (m | rhs), or None
    when the square matrix m is singular."""
    n = len(rows)
    reduced, pivots = gauss_jordan([list(r) + [b] for r, b in zip(rows, rhs)], n)
    return [r[n] for r in reduced] if len(pivots) == n else None
