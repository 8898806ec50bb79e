"""Oracles for the section volume by the pulling triangulation.

``simplex_volume`` lists the pulling triangulation of a simple section
simplex by simplex and sums the lattice measure ``omega_h`` of each
simplex's edge vectors.  The package computes the same decomposition as a
face recursion (``polytope.triangulation_volume``); this module keeps the
per-simplex route so the two can be compared.

``fraction_triangulation`` is that face recursion on Fractions, where the
package sums integer heights: one Covector pairing of the apex with a
normal, and two Fraction operations, per face and facet.
"""

from fractions import Fraction
from math import factorial

from abbvloc.core import Covector, Vector
from abbvloc.errors import InputError, NotSimpleVertex
from matrix_oracle import elimination_det, vertex_dets
from orbit_oracle import basis_covector


def omega_h(b: Vector, edges, w: Covector = None) -> Fraction:
    """The lattice measure on the Reeb hyperplane applied to edge vectors.

    Computed as the determinant of the square matrix whose first row is any
    covector w with w(b) = 1 and whose remaining rows are the edges; the
    value does not depend on the choice of w because the edges annihilate b.
    """
    b = Vector(b)
    d = len(b)
    edges = [Covector(e) for e in edges]
    if len(edges) != d - 1:
        raise InputError(f"need {d - 1} edge covectors, got {len(edges)}")
    for e in edges:
        if e(b) != 0:
            raise InputError(f"edge {tuple(e)} does not annihilate the Reeb vector")
    if w is None:
        j = next((i for i, x in enumerate(b) if x != 0), None)
        if j is None:
            raise InputError("Reeb vector is zero")
        w = basis_covector(d, j).scaled(1 / b[j])
    else:
        w = Covector(w)
        if w(b) != 1:
            raise InputError("auxiliary covector must pair to 1 with the Reeb vector")
    return elimination_det([w, *edges])


def pulling_simplices(vertex_ids, common, actives, section_dim):
    """Pulling triangulation of one face into simplices (tuples of vertex ids).

    ``vertex_ids`` lists the face's vertices in pulling order, and
    ``common`` is the face's active facet set; sub-facets are the faces
    gaining exactly one active facet.  Each simplex of a sub-facet not
    containing the face's apex (its first vertex in ``vertex_ids``) is
    coned over the apex, which ends each tuple.  Sub-facets keep the order.
    """
    dim = section_dim - len(common)
    if dim == 0 or len(vertex_ids) == 1:
        return [tuple(vertex_ids[:1])]
    if dim == 1:
        if len(vertex_ids) != 2:
            raise NotSimpleVertex(f"1-dimensional face with {len(vertex_ids)} vertices")
        return [tuple(sorted(vertex_ids))]
    base = vertex_ids[0]
    candidate_normals = set().union(*(actives[i] for i in vertex_ids)) - common
    simplices = []
    seen_facets = set()
    for j in sorted(candidate_normals):
        sub = [i for i in vertex_ids if j in actives[i]]
        if not sub or len(sub) == len(vertex_ids) or base in sub:
            continue
        sub_common = frozenset.intersection(*(actives[i] for i in sub)) | common | {j}
        if section_dim - len(sub_common) != dim - 1:
            continue  # meets this face in a lower-dimensional face only
        key = frozenset(sub)
        if key in seen_facets:
            continue
        seen_facets.add(key)
        for simplex in pulling_simplices(sub, sub_common, actives, section_dim):
            simplices.append(simplex + (base,))
    return simplices


def base_first(count: int, k: int) -> tuple:
    """The pulling order (k, then the other indices below ``count``
    ascending): the section is pulled from vertex k, every proper face
    from its smallest vertex."""
    return (k, *(i for i in range(count) if i != k))


def simplex_volume(p, order=None) -> Fraction:
    """Section volume of a full-dimensional simple HPolytope ``p`` as the sum
    of |omega_h| over the pulling simplices in the vertex order ``order``
    (every vertex index once, ascending by default), over n!."""
    n = p.section_dim
    ids = list(range(len(p.vertices)) if order is None else order)
    total = Fraction(0)
    for simplex in pulling_simplices(ids, frozenset(), p.facet_sets, n):
        base = p.vertices[simplex[-1]]
        total += abs(omega_h(p.reeb, [[x - y for x, y in zip(p.vertices[i], base)]
                                      for i in simplex[:-1]]))
    return total / factorial(n)


def fraction_triangulation(p, order=None) -> Fraction:
    """The section volume of the HPolytope ``p`` by the pulling triangulation
    in the vertex order ``order`` (every vertex index once, ascending by
    default), as ``polytope.triangulation_volume``'s face recursion on
    Fractions: a face F with apex beta has M(F) = the sum of -beta(v_j) *
    M(face on one more facet j), a vertex on the facets S has M =
    1/|det(b, v_S)|, and the volume is M(section)/n!.  The determinants
    are taken from the given normals (``matrix_oracle.vertex_dets``), not
    read from the section.

    >>> from abbvloc.toric import weighted_sphere_cone
    >>> fraction_triangulation(weighted_sphere_cone([1, 2, 3]).section)
    Fraction(1, 12)
    """
    n = p.section_dim
    p.edges  # raises UnboundedSection
    facet_sets, dets = p.facet_sets, vertex_dets(p)
    memo = {}

    def measure(active, ids):
        base = ids[0]
        if len(active) == n:
            return 1 / dets[base]
        faces = {}
        for i in ids:
            for j in facet_sets[i] - facet_sets[base]:
                faces.setdefault(j, []).append(i)
        apex = p.vertices[base]
        total = Fraction(0)
        for j, sub in faces.items():
            face = active | {j}
            if face not in memo:
                memo[face] = measure(face, sub)
            total -= apex(p.normals[j]) * memo[face]
        return total

    return measure(frozenset(), range(len(p.vertices)) if order is None else order) / factorial(n)
