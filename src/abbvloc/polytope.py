"""Exact volumes of the compact hyperplane section of a moment cone.

Two independent routes compute the volume of a section (``toric.HPolytope``,
which the vertex walk fills) under the lattice measure: Lawrence's vertex
formula and a pulling triangulation.  The bridge identity ties both to the
localized volume of the cone.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, prod
from operator import mul

from .core import PiScalar, Record, Vector, _integer_row, _sum
from .errors import EdgeConstantFunctional
from .sampling import SampleOutcome, sample_independent
from .toric import GoodCone, HPolytope, toric_volume


def triangulation_volume(p: HPolytope, order=None) -> Fraction:
    """Exact section volume by the pulling triangulation in the vertex order
    ``order``, summed face by face (Lasserre's pyramid recursion).

    ``order`` lists every vertex index once, ascending by default.  Every
    face is pulled from its apex, its first vertex in that order: a face F
    on the facets A with apex beta has M(F) = the sum of -beta(v_j) *
    M(face on A + {j}) over the facets j on a vertex of F but not on beta;
    a vertex on the facets S has M = 1/|det(b, v_S)|, and the volume is
    M(section)/n!.  Each flag of faces is one simplex, triangular in the
    coordinates phi(v_j): its lattice measure is the product of the
    heights -beta(v_j) over |det(b, v_S)|, which scaling a normal by a
    positive factor leaves as it is.  Faces are memoized by facet set, and
    each vertex's determinant is the walk's (``p.abs_dets``).

    The sum runs on integers.  With beta = P / Q and v_j the primitive
    normal rows (``p.integer_vertices`` and ``p.integer_normals``; nothing
    of the section's ``lawrence_form``), each M is one reduced integer pair
    num / den: a face's terms (-P . v_j * num, den) are added
    unreduced by ``core._sum`` and the sum is divided by Q with one gcd,
    so a call builds one Fraction and pairs no Covector.

    The result does not depend on the order; two orders are two full
    triangulations (De Loera, Rambau & Santos 2010, section 4.3), and
    (k, then the rest ascending) pulls the section from vertex k and
    every proper face from its smallest vertex.  ``polytope-volume``
    checks the ascending order against k = 1: on cube and
    Delta^a x Delta^b sections the descending order gives the ascending
    order's simplices, and k = 1 few of them.  Raises UnboundedSection
    unless the section is bounded.

    >>> from abbvloc.toric import weighted_sphere_cone
    >>> triangulation_volume(weighted_sphere_cone([1, 2, 3]).section)
    Fraction(1, 12)
    """
    n = p.section_dim
    p.edges  # raises UnboundedSection
    facet_sets, dets = p.facet_sets, p.abs_dets
    vertices, normals = p.integer_vertices, p.integer_normals
    memo = {}

    def measure(active, ids):
        base = ids[0]
        if len(active) == n:
            return dets[base].denominator, dets[base].numerator
        faces = {}
        for i in ids:
            for j in facet_sets[i] - facet_sets[base]:
                faces.setdefault(j, []).append(i)
        q, apex = vertices[base]
        terms = []
        for j, sub in faces.items():
            face = active | {j}
            if face not in memo:
                memo[face] = measure(face, sub)
            num, den = memo[face]
            terms.append((-sum(map(mul, apex, normals[j])) * num, den))
        num, den = _sum(terms)
        den *= q
        g = gcd(num, den)
        return num // g, den // g

    num, den = measure(frozenset(), range(len(p.orbits)) if order is None else order)
    return Fraction(num, den * factorial(n))


def lawrence_volume(p: HPolytope, f: Vector) -> Fraction:
    """Lawrence's vertex formula for the section volume (Lawrence, Math.
    Comp. 57, 1991), on integers, at the affine functional
    f(x) = u(x) + d given as its n + 2 rationals (u..., d), the vector
    that ``sample_independent`` draws.

    At each vertex a on the facets S, the functional's direction u is
    expanded in the basis (b, v_S): the vertex contributes f(a)^n divided
    by |det(b, v_S)| times the product of the normals' coefficients
    gamma_j.  These are read off the edges, without elimination: the edge
    that leaves facet j at a ends at a vertex c, and c - a vanishes on b
    and on the other normals at a, so f(c) - f(a) = gamma_j c(v_j) with
    c(v_j) != 0.  So gamma_j = 0, and f must be redrawn
    (EdgeConstantFunctional), exactly when f is constant on an edge.

    The section holds each vertex as a = P_a / Q_a on integers
    (``integer_vertices``) and each edge e = (a, c) once (``edges``).
    With (U, D) = L (u, d) for the lcm L of f's denominators,
    F_a = U . P_a + D Q_a is L Q_a f(a), one dot product per vertex, and
    per edge, R_e = F_c Q_a - F_a Q_c = L Q_a Q_c (f(c) - f(a)).
    The normals are read as their primitive rows v_j (``integer_normals``)
    and |det(b, v_S)| as the walk's (``abs_dets``): scaling a normal by a
    positive factor scales its gamma_j by the inverse factor and the
    determinant by the factor, so the term does not change.  With
    c(v_j) = P_c . v_j / Q_c,

        gamma_j = +-R_e / (L Q_a P_c . v_j),

    the sign -1 where a is the edge's second end, so that

        f(a)^n / (|det(b, v_S)| prod_j gamma_j)
            = F_a^n prod_j (P_c . v_j) / (|det(b, v_S)| prod_e +-R_e)
            = F_a^n w_a / (z_a prod_e R_e):

    L^n and Q_a^n cancel, the section's ``lawrence_form`` holds the
    integer pair (w_a, z_a), and its ``slots`` name a's n edges.  The
    first R_e = 0 in edge order raises; otherwise the vertex terms are
    added unreduced by ``core._sum``, so a call builds one Fraction.
    """
    n = p.section_dim
    vertices, edges = p.integer_vertices, p.edges
    _, (*u, d) = _integer_row(Vector(f))
    if len(u) != len(p.reeb):
        raise ValueError(f"dimension mismatch: {len(p.reeb)} vs {len(u)}")
    at = [sum(map(mul, u, row)) + d * q for q, row in vertices]
    rises = [at[c] * vertices[a][0] - at[a] * vertices[c][0] for a, c, _, _ in edges]
    if 0 in rises:
        a, c, _, _ = next(edge for edge, rise in zip(edges, rises) if rise == 0)
        raise EdgeConstantFunctional(
            f"functional constant on edge {tuple(p.orbits[a].vertex)} -- "
            f"{tuple(p.orbits[c].vertex)}"
        )
    num, den = _sum([(value**n * w, z * prod(map(rises.__getitem__, slot)))
                     for value, slot, (w, z) in zip(at, p.slots, p.lawrence_form)])
    return Fraction(num, den * factorial(n))


def sample_lawrence(p: HPolytope, samples: int, seed: int) -> SampleOutcome:
    """Lawrence's volume of p at ``samples`` functionals, by
    ``sample_independent``: each functional is one draw of n + 2
    coordinates, u and then d, passed to ``lawrence_volume`` as it is,
    and one constant on an edge of the section is a pole
    (EdgeConstantFunctional) and is redrawn."""
    return sample_independent(lambda f: lawrence_volume(p, f), len(p.reeb) + 1, samples, seed)


class MsyCheck(Record):
    """Both sides of the cone-volume / section-volume bridge."""

    lhs: PiScalar
    rhs: PiScalar
    equal: bool
    section_volume: Fraction


def msy_check(cone: GoodCone, seed: int = 42) -> MsyCheck:
    """Compare the localized cone volume with 2 pi^(n+1) times the section
    volume, with the pi grading reconciled through the cone's
    ``two_pi_exponent`` k: the section side is 2^k pi^(n+k) times the
    section volume.  The cone volume is taken at the first pole-free sample
    and the section volume at the first functional accepted by
    ``sample_lawrence``, each drawn from its own stream seeded with
    ``seed``."""
    lhs = sample_independent(lambda v: toric_volume(cone, v), cone.dim, 1, seed).value
    vol_h = sample_lawrence(cone.section, 1, seed).value
    k = cone.two_pi_exponent
    rhs = PiScalar(Fraction(2) ** k * vol_h, cone.codim_half + k)
    return MsyCheck(lhs=lhs, rhs=rhs, equal=lhs == rhs, section_volume=vol_h)
