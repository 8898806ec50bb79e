"""Exact volumes of the compact hyperplane section of a moment cone.

Two independent routes compute the section's volume under the lattice
measure: Lawrence's vertex formula and a fan triangulation.  The bridge
identity ties both to the localized volume of the cone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .core import (
    Covector,
    Matrix,
    PiScalar,
    Vector,
    _echelon,
    basis_covector,
    det,
    rat,
    solve_linear,
)
from .errors import EdgeConstantFunctional, InputError, NotSimpleVertex, SingularMatrix
from .sampling import SplitMix64, sample_independent, sample_rational, sample_vector
from .toric import GoodCone, enumerate_vertices, toric_volume


@dataclass(frozen=True)
class HPolytope:
    """The section {phi : phi(v_i) <= 0, phi(reeb) = 1} with its vertices."""

    ambient_dim: int
    normals: tuple
    reeb: Vector
    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "normals", tuple(Vector(v) for v in self.normals))
        object.__setattr__(self, "reeb", Vector(self.reeb))
        object.__setattr__(self, "vertices", tuple(Covector(p) for p in self.vertices))
        if not self.vertices:
            raise InputError("vertex list must be nonempty")
        for phi in self.vertices:
            if phi(self.reeb) != 1:
                raise InputError(f"vertex {tuple(phi)} is not on the Reeb hyperplane")
            if any(phi(v) > 0 for v in self.normals):
                raise InputError(f"vertex {tuple(phi)} violates a facet inequality")

    @classmethod
    def from_cone(cls, cone: GoodCone) -> "HPolytope":
        orbits = enumerate_vertices(cone)
        return cls(
            ambient_dim=cone.dim,
            normals=cone.normals,
            reeb=cone.reeb,
            vertices=tuple(o.vertex for o in orbits),
        )

    @classmethod
    def from_halfspaces(cls, normals, reeb) -> "HPolytope":
        normals = tuple(Vector(v) for v in normals)
        reeb = Vector(reeb)
        found = vertices_from_halfspaces(normals, reeb)
        if not found:
            raise InputError("hyperplane section has no vertices")
        return cls(
            ambient_dim=len(reeb),
            normals=normals,
            reeb=reeb,
            vertices=tuple(phi for phi, _ in found),
        )

    @property
    def section_dim(self) -> int:
        return self.ambient_dim - 1

    def active_sets(self) -> list:
        """Facet indices active at each vertex, in vertex order."""
        return [
            frozenset(i for i, v in enumerate(self.normals) if phi(v) == 0)
            for phi in self.vertices
        ]


def vertices_from_halfspaces(normals, reeb) -> list:
    """Basic-solution enumeration of the section's vertices.

    Solves every (d-1)-subset of facet equalities together with the Reeb
    equation and keeps feasible solutions, deduplicated.  Returns
    (vertex, active index set) pairs sorted by vertex.  Used as the
    independent counter for the cone route's vertex enumeration and for
    standalone polytope input; non-simple vertices are kept here and
    rejected later by the operations that require simplicity.
    """
    normals = [Vector(v) for v in normals]
    reeb = Vector(reeb)
    d = len(reeb)
    rhs = [Fraction(0)] * (d - 1) + [Fraction(1)]
    seen = {}
    for subset in itertools.combinations(range(len(normals)), d - 1):
        rows = [normals[i] for i in subset] + [reeb]
        try:
            phi = Covector(solve_linear(Matrix(rows), rhs))
        except SingularMatrix:
            continue
        values = [phi(v) for v in normals]
        if any(val > 0 for val in values):
            continue
        seen[phi] = frozenset(i for i, val in enumerate(values) if val == 0)
    return sorted(seen.items(), key=lambda kv: tuple(kv[0]))


@dataclass(frozen=True)
class LinearFunctional:
    """Affine function f(x) = u(x) + d on the dual space."""

    u: Vector
    d_shift: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "u", Vector(self.u))
        object.__setattr__(self, "d_shift", rat(self.d_shift))

    def __call__(self, phi: Covector) -> Fraction:
        return phi(self.u) + self.d_shift


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
    return det(Matrix([tuple(w)] + [tuple(e) for e in edges]))


def _affine_rank(vertices) -> int:
    if len(vertices) < 2:
        return 0
    base = vertices[0]
    _, pivots = _echelon([v - base for v in vertices[1:]], len(base))
    return len(pivots)


def _triangulate(vertex_ids, common, actives, section_dim, base_id=None):
    """Fan triangulation of one face into simplices (tuples of vertex ids).

    ``common`` is the face's active facet set; sub-facets are the faces
    gaining exactly one active facet.  Each simplex of a sub-facet not
    containing the base vertex is coned over the base.
    """
    dim = section_dim - len(common)
    if dim == 0 or len(vertex_ids) == 1:
        return [tuple(vertex_ids[:1])]
    if dim == 1:
        if len(vertex_ids) != 2:
            raise NotSimpleVertex(
                f"1-dimensional face with {len(vertex_ids)} vertices"
            )
        return [tuple(sorted(vertex_ids))]
    base = base_id if base_id is not None else min(vertex_ids)
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
        for simplex in _triangulate(sub, sub_common, actives, section_dim):
            simplices.append(simplex + (base,))
    return simplices


def triangulation_volume(p: HPolytope, base_index: int = None) -> Fraction:
    """Exact section volume by fan triangulation from a base vertex.

    Independent of Lawrence's formula by construction; the result does not
    depend on the base vertex.  Affinely degenerate input has volume 0.
    """
    n = p.section_dim
    if len(p.vertices) == 1 or _affine_rank(list(p.vertices)) < n:
        return Fraction(0)
    actives = p.active_sets()
    for phi, act in zip(p.vertices, actives):
        if len(act) != n:
            raise NotSimpleVertex(
                f"vertex {tuple(phi)} lies on {len(act)} facets, expected {n}"
            )
    ids = list(range(len(p.vertices)))
    common = frozenset.intersection(*actives) if actives else frozenset()
    if common:
        return Fraction(0)
    total = Fraction(0)
    for simplex in _triangulate(ids, frozenset(), actives, n, base_id=base_index):
        base = p.vertices[simplex[-1]]
        edges = [p.vertices[i] - base for i in simplex[:-1]]
        total += abs(omega_h(p.reeb, edges))
    return total / factorial(n)


def _adjacent_pairs(actives):
    n_pairs = []
    for a, b in itertools.combinations(range(len(actives)), 2):
        if len(actives[a] & actives[b]) == len(actives[a]) - 1:
            n_pairs.append((a, b))
    return n_pairs


def lawrence_volume(p: HPolytope, f: LinearFunctional) -> Fraction:
    """Lawrence's vertex formula for the section volume.

    At each vertex the functional's direction u is expanded in the basis
    (b, active normals); the vertex contributes f(vertex)^n divided by
    |det(b, normals)| times the product of the normal coefficients.  A
    zero coefficient means f is constant along the corresponding edge and
    the functional must be resampled.
    """
    n = p.section_dim
    actives = p.active_sets()
    for phi, act in zip(p.vertices, actives):
        if len(act) != n:
            raise NotSimpleVertex(
                f"vertex {tuple(phi)} lies on {len(act)} facets, expected {n}"
            )
    for a, b_idx in _adjacent_pairs(actives):
        if f(p.vertices[a]) == f(p.vertices[b_idx]):
            raise EdgeConstantFunctional(
                f"functional constant on edge {tuple(p.vertices[a])} -- "
                f"{tuple(p.vertices[b_idx])}"
            )
    total = Fraction(0)
    for phi, act in zip(p.vertices, actives):
        columns = [p.reeb] + [p.normals[i] for i in sorted(act)]
        m = Matrix.from_columns(columns)
        delta = det(m)
        if delta == 0:
            raise InputError(f"degenerate vertex basis at {tuple(phi)}")
        gamma = solve_linear(m, f.u)
        coeff_product = Fraction(1)
        for g in gamma[1:]:
            if g == 0:
                raise EdgeConstantFunctional(
                    f"functional has a zero edge coefficient at vertex {tuple(phi)}"
                )
            coeff_product *= g
        total += f(phi) ** n / (abs(delta) * coeff_product)
    return total / factorial(n)


def random_functional(p: HPolytope, rng: SplitMix64, budget: int = 100) -> LinearFunctional:
    """Draw a functional that is nonconstant on every edge of the section."""
    actives = p.active_sets()
    pairs = _adjacent_pairs(actives)
    for _ in range(budget):
        f = LinearFunctional(
            u=sample_vector(p.ambient_dim, rng),
            d_shift=sample_rational(rng),
        )
        if any(f(p.vertices[a]) == f(p.vertices[b]) for a, b in pairs):
            continue
        try:
            lawrence_volume(p, f)
        except EdgeConstantFunctional:
            continue
        return f
    raise EdgeConstantFunctional("no valid functional found within the retry budget")


@dataclass(frozen=True)
class MsyCheck:
    """Both sides of the cone-volume / section-volume bridge."""

    lhs: PiScalar
    rhs: PiScalar
    equal: bool
    section_volume: Fraction


def msy_check(cone: GoodCone, seed: int = 42) -> MsyCheck:
    """Compare the localized cone volume with 2 pi^(n+1) times the section
    volume, with the pi grading reconciled through the cone's lattice
    scale exponent.  The cone volume is taken at the first pole-free sample
    and the functional is drawn from the same stream after it."""
    p = HPolytope.from_cone(cone)
    outcome = sample_independent(lambda v: toric_volume(cone, v), cone.dim, 1, seed)
    lhs = outcome.value
    f = random_functional(p, outcome.rng)
    vol_h = lawrence_volume(p, f)
    n = cone.codim_half
    e = cone.pi_scale_exponent
    rhs = PiScalar(Fraction(2) ** ((n + 1) * e - n) * vol_h, (n + 1) * e)
    return MsyCheck(lhs=lhs, rhs=rhs, equal=lhs == rhs, section_volume=vol_h)
