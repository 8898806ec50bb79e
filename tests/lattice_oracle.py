"""Smith normal form, as an oracle for the goodness test.

The package decides goodness at a vertex of a toric cone's section by the
gcd of the walk's moment row, which holds the n x n minors of the active
normals v_S: the index of the sublattice they span.  That index is the
product of the elementary divisors of v_S, which this module computes by
unimodular row and column operations, sharing no code with the walk.
"""

from abbvloc.core import rat


class NonIntegerMatrix(ValueError):
    """An entry of the matrix is not an integer."""


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
