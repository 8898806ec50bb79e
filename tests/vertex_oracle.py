"""Basic-solution oracle for the vertices of a hyperplane section.

Solves every (d-1)-subset of facet equalities together with the Reeb
equation and keeps the feasible solutions.  The package finds the same
vertices by a pivoting walk over the section's edges
(``toric._walk``); this module keeps the C(m, d-1) subset route so the two
can be compared, and the pairing that checks the walk's facet sets.
"""

import itertools
from fractions import Fraction

from abbvloc.core import Covector, Vector
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
