"""Oracles for the vertices of a hyperplane section.

``vertices_from_halfspaces`` solves every (d-1)-subset of facet equalities
together with the Reeb equation and keeps the feasible solutions.  The
package finds the same vertices by a pivoting walk over the section's
edges (``toric._walk``); this module keeps the C(m, d-1) subset route so
the two can be compared, the pairing that checks the walk's facet sets,
and the edge map on frozenset differences that checks the section's edge
table (``HPolytope.edges`` and ``slots``).

``repairing_walk`` is the same walk without the tableau: its start and
every vertex pair the normals with the bare dictionary A again, one
``_column`` per normal, where ``toric._walk`` reads the products from the
tableau (A | A.b | A.R) that it pivots from its first step.  Both must
return the same vertices, labels, dictionaries and T, in the same order.
"""

import itertools
from fractions import Fraction
from operator import mul

from abbvloc.core import Covector, Vector, _integer_row, _pivot, _primitive
from abbvloc.errors import InputError, NotSimpleVertex
from abbvloc.toric import MAX_VERTICES, _point_str
from matrix_oracle import solve


def vertices_from_halfspaces(normals, reeb) -> list:
    """Basic-solution enumeration of the section's vertices.

    Returns (vertex, active index set) pairs sorted by vertex,
    deduplicated; non-simple vertices are kept with all their facets.
    """
    normals = [Vector(v) for v in normals]
    reeb = Vector(reeb)
    d = len(reeb)
    rhs = [Fraction(0)] * (d - 1) + [Fraction(1)]
    seen = {}
    for subset in itertools.combinations(range(len(normals)), d - 1):
        rows = [normals[i] for i in subset] + [reeb]
        solution = solve(rows, rhs)
        if solution is None:
            continue
        phi = Covector(solution)
        values = [phi(v) for v in normals]
        if any(val > 0 for val in values):
            continue
        seen[phi] = frozenset(i for i, val in enumerate(values) if val == 0)
    return sorted(seen.items(), key=lambda kv: tuple(kv[0]))


def assert_facet_sets_by_pairing(p):
    """Each vertex of the HPolytope ``p`` pairs to 1 with the Reeb vector and
    to at most 0 with every normal, and its facet set is exactly the n
    normals it pairs to 0 with."""
    n = len(p.reeb) - 1
    assert len(p.vertices) == len(p.facet_sets)
    for phi, facets in zip(p.vertices, p.facet_sets):
        assert phi(p.reeb) == 1
        values = [phi(v) for v in p.normals]
        assert all(value <= 0 for value in values)
        assert facets == frozenset(i for i, value in enumerate(values) if value == 0)
        assert len(facets) == n


def assert_edges_by_facet_sets(p):
    """The bounded HPolytope ``p``'s edge table against frozenset
    differences: for each edge (a, c, i, k), facet_indices[a][i] is the one
    facet of a not on c and facet_indices[c][k] the one facet of c not on
    a; ``slots`` names every (vertex, position) once, with the edge that
    leaves it; and the pairs (a, c) are the sorted pairs of vertices that
    share a vertex's facet set minus one facet."""
    facets = [o.facet_indices for o in p.orbits]
    sets = [frozenset(f) for f in facets]
    ends = []
    for e, (a, c, i, k) in enumerate(p.edges):
        assert sets[a] - sets[c] == {facets[a][i]}
        assert sets[c] - sets[a] == {facets[c][k]}
        ends += [(a, i, e), (c, k, e)]
    assert sorted(ends) == [(v, pos, e) for v, row in enumerate(p.slots)
                            for pos, e in enumerate(row)]
    assert [len(row) for row in p.slots] == [len(f) for f in facets]
    shared = {}
    for index, on in enumerate(sets):
        for j in on:
            shared.setdefault(on - {j}, []).append(index)
    assert [(a, c) for a, c, _, _ in p.edges] == sorted(tuple(pair) for pair in shared.values())


def _column(a, v) -> list:
    """A . v, one entry per row of A."""
    return [sum(map(mul, r, v)) for r in a]


def repairing_walk(normals, reeb) -> tuple:
    """The vertices of {phi : phi(reeb) = 1, phi(v_i) <= 0} by an integer
    pivoting walk over the section's edges (Avis & Fukuda 1992, with the
    fraction-free dictionaries of Avis's lrs).

    The Reeb vector is scaled to integers by the lcm ``scale`` of its
    denominators, and each normal to a primitive integer row.  A basis
    ``labels`` names the column at each position of M = (b | v_S): -1 for
    the Reeb vector, else a facet index.  Its dictionary is the adjugate
    A = T M^-1 on Python ints with T = det M, so the vertex is
    scale * A[b's row] / T and the other rows are the weights; ``_pivot``,
    the fraction-free Gauss-Jordan step that ``core._reduce`` repeats,
    moves it to a neighbouring basis.

    The first basis pivots the columns (b, v_1, ..., v_m) greedily into the
    identity's positions.  A dual simplex with Bland's rule then
    maximizes phi(c), c = b + sum of the first basis's normals, at which
    every A_i . c / T is 1: it ends at a vertex, or at a violated facet
    that no row can repair, which proves the section empty.  From the
    first vertex each of the n edges drops one facet, and an integer ratio
    test finds the facet it meets next; an edge that meets none is a ray
    and is skipped (``HPolytope.edges`` reports it).

    Returns (scale, [(labels, A, T), ...]) in walk order, empty when the
    section has no vertex; each vertex is scale * A[b's row] / T.  Raises
    NotSimpleVertex at a vertex on more than n facets (a tie in the ratio
    test leads to one) and InputError once more than MAX_VERTICES vertices
    are seen.
    """
    d = len(reeb)
    scale, b = _integer_row(reeb)
    rows = [_primitive(_integer_row(v)[1]) for v in normals]
    m = len(rows)
    a = [[int(i == j) for j in range(d)] for i in range(d)]
    t = 1
    labels = [None] * d
    for label, v in [(-1, b), *enumerate(rows)]:
        col = _column(a, v)
        i = next((i for i in range(d) if labels[i] is None and col[i]), None)
        if i is not None:
            a, t = _pivot(a, t, i, col)
            labels[i] = label
    if -1 not in labels or None in labels:
        return scale, []

    n = d - 1
    ib = labels.index(-1)
    c = [sum(x) for x in zip(b, *(rows[k] for k in labels if k >= 0))]
    while True:
        sign = 1 if t > 0 else -1
        basic = set(labels)
        k = next((k for k in range(m) if k not in basic
                  and sign * sum(x * y for x, y in zip(a[ib], rows[k])) > 0), None)
        if k is None:
            break
        col = _column(a, rows[k])
        best = None
        for i in range(d):
            alpha = sign * col[i]
            if i == ib or alpha <= 0:
                continue
            mu = sign * sum(x * y for x, y in zip(a[i], c))
            if best is None or mu * best[2] < best[1] * alpha or (
                mu * best[2] == best[1] * alpha and labels[i] < labels[best[0]]
            ):
                best = (i, mu, alpha)
        if best is None:
            return scale, []
        a, t = _pivot(a, t, best[0], col)
        labels[best[0]] = k

    found = []
    seen = {frozenset(labels)}
    stack = [(labels, a, t)]
    while stack:
        labels, a, t = stack.pop()
        sign = 1 if t > 0 else -1
        basic = frozenset(labels)
        others = [k for k in range(m) if k not in basic]
        cols = [_column(a, rows[k]) for k in others]
        if any(col[ib] == 0 for col in cols):
            active = basic - {-1} | {k for k, col in zip(others, cols) if col[ib] == 0}
            phi = Covector(Fraction(scale * x, t) for x in a[ib])
            raise NotSimpleVertex(
                f"vertex {_point_str(phi)} lies on facets {tuple(sorted(active))}, more than {n}"
            )
        found.append((labels, a, t))
        for i in range(d):
            if i == ib:
                continue
            # along the edge that leaves facet labels[i], facet k is met at
            # the ratio A_b . v_k / A_i . v_k when A_i . v_k has sign -sign(T)
            best = None
            for k, col in zip(others, cols):
                rate = -sign * col[i]
                if rate > 0 and (best is None or -sign * col[ib] * best[2] < best[1] * rate):
                    best = (k, -sign * col[ib], rate, col)
            if best is None:
                continue
            k, _, _, col = best
            key = basic - {labels[i]} | {k}
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > MAX_VERTICES:
                raise InputError(
                    f"the section has more than MAX_VERTICES = {MAX_VERTICES} vertices"
                )
            step = list(labels)
            step[i] = k
            stack.append((step, *_pivot(a, t, i, col)))
    return scale, found
