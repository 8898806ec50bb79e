"""Exact volumes of the compact hyperplane section of a moment cone.

Two independent routes compute the section's volume under the lattice
measure: Lawrence's vertex formula and a pulling triangulation.  The bridge
identity ties both to the localized volume of the cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial

from .core import (
    Covector,
    Matrix,
    PiScalar,
    Vector,
    _echelon,
    det,
    rat,
    solve_linear,
)
from .errors import EdgeConstantFunctional, InputError, NotSimpleVertex
from .sampling import SplitMix64, sample_independent, sample_rational, sample_vector
from .toric import GoodCone, _bounded_edges, _point_str, _walk, toric_volume


@dataclass(frozen=True)
class HPolytope:
    """The section {phi : phi(v_i) <= 0, phi(reeb) = 1} with its vertices
    and, in vertex order, the facets each vertex lies on (``facet_sets``)."""

    ambient_dim: int
    normals: tuple
    reeb: Vector
    vertices: tuple
    facet_sets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "normals", tuple(Vector(v) for v in self.normals))
        object.__setattr__(self, "reeb", Vector(self.reeb))
        object.__setattr__(self, "vertices", tuple(Covector(p) for p in self.vertices))
        if not self.vertices:
            raise InputError("vertex list must be nonempty")
        facet_sets = []
        for phi in self.vertices:
            if phi(self.reeb) != 1:
                raise InputError(f"vertex {tuple(phi)} is not on the Reeb hyperplane")
            values = [phi(v) for v in self.normals]
            if any(val > 0 for val in values):
                raise InputError(f"vertex {tuple(phi)} violates a facet inequality")
            facet_sets.append(frozenset(i for i, val in enumerate(values) if val == 0))
        object.__setattr__(self, "facet_sets", tuple(facet_sets))

    @classmethod
    def from_cone(cls, cone: GoodCone) -> "HPolytope":
        return cls(
            ambient_dim=cone.dim,
            normals=cone.normals,
            reeb=cone.reeb,
            vertices=tuple(o.vertex for o in cone.orbits),
        )

    @classmethod
    def from_halfspaces(cls, normals, reeb) -> "HPolytope":
        """The section of a bare document, its vertices found by the same
        pivoting walk as a cone's (``toric._walk``), without the goodness
        test.  Raises NotSimpleVertex at a vertex on more than n facets;
        boundedness is checked by ``edges``."""
        normals = tuple(Vector(v) for v in normals)
        reeb = Vector(reeb)
        if any(len(v) != len(reeb) for v in normals):
            raise InputError("normals and reeb must have the same dimension")
        _, found = _walk(normals, reeb)
        if not found:
            raise InputError("hyperplane section has no vertices")
        return cls(
            ambient_dim=len(reeb),
            normals=normals,
            reeb=reeb,
            vertices=tuple(sorted((phi for phi, *_ in found), key=tuple)),
        )

    @property
    def section_dim(self) -> int:
        return self.ambient_dim - 1

    @cached_property
    def edges(self) -> tuple:
        """The sorted pairs a < b of vertex indices joined by an edge; raises
        NotSimpleVertex unless the section is simple and UnboundedSection
        unless it is bounded."""
        _require_simple(self)
        return _bounded_edges(self.vertices, self.facet_sets)


def _require_simple(p: HPolytope):
    """Raise NotSimpleVertex at the first vertex not on exactly n facets."""
    n = p.section_dim
    for phi, facets in zip(p.vertices, p.facet_sets):
        if len(facets) != n:
            raise NotSimpleVertex(
                f"vertex {_point_str(phi)} lies on {len(facets)} facets, expected {n}"
            )


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


def _affine_rank(vertices) -> int:
    if len(vertices) < 2:
        return 0
    base = vertices[0]
    _, pivots = _echelon([v - base for v in vertices[1:]], len(base))
    return len(pivots)


def triangulation_volume(p: HPolytope, base_index: int = None) -> Fraction:
    """Exact section volume by the pulling triangulation from a base vertex,
    summed face by face (Lasserre's pyramid recursion).

    A face F on the facets A with base vertex beta (its smallest vertex
    index; ``base_index`` for the section) has M(F) = the sum of
    -beta(v_j) * M(face on A + {j}) over the facets j on a vertex of F but
    not on beta; a vertex on the facets S has M = 1/|det(b, v_S)|, and the
    volume is M(section)/n!.  Each flag of faces is one simplex, triangular
    in the coordinates phi(v_j): its lattice measure is the product of the
    heights -beta(v_j) over |det(b, v_S)|.  Faces are memoized by facet
    set, so each vertex reached costs one determinant.  The result does
    not depend on the base vertex; affinely degenerate input has volume 0.

    >>> from abbvloc.toric import weighted_sphere_cone
    >>> triangulation_volume(HPolytope.from_cone(weighted_sphere_cone([1, 2, 3])))
    Fraction(1, 12)
    """
    n = p.section_dim
    if len(p.vertices) == 1 or _affine_rank(list(p.vertices)) < n:
        return Fraction(0)
    _require_simple(p)
    if frozenset.intersection(*p.facet_sets):
        return Fraction(0)
    facet_sets = p.facet_sets
    memo = {}

    def measure(active, ids, base):
        if len(active) == n:
            columns = [p.reeb] + [p.normals[i] for i in sorted(active)]
            return 1 / abs(det(Matrix.from_columns(columns)))
        faces = {}
        for i in ids:
            for j in facet_sets[i] - facet_sets[base]:
                faces.setdefault(j, []).append(i)
        apex = p.vertices[base]
        total = Fraction(0)
        for j, sub in faces.items():
            face = active | {j}
            if face not in memo:
                memo[face] = measure(face, sub, sub[0])
            total -= apex(p.normals[j]) * memo[face]
        return total

    top = 0 if base_index is None else base_index
    return measure(frozenset(), range(len(p.vertices)), top) / factorial(n)


def lawrence_volume(p: HPolytope, f: LinearFunctional) -> Fraction:
    """Lawrence's vertex formula for the section volume.

    At each vertex the functional's direction u is expanded in the basis
    (b, active normals); the vertex contributes f(vertex)^n divided by
    |det(b, normals)| times the product of the normal coefficients.  A
    zero coefficient means f is constant along the corresponding edge and
    the functional must be resampled.
    """
    n = p.section_dim
    edges = p.edges
    values = [f(phi) for phi in p.vertices]
    for a, b_idx in edges:
        if values[a] == values[b_idx]:
            raise EdgeConstantFunctional(
                f"functional constant on edge {tuple(p.vertices[a])} -- "
                f"{tuple(p.vertices[b_idx])}"
            )
    total = Fraction(0)
    for phi, facets, value in zip(p.vertices, p.facet_sets, values):
        columns = [p.reeb] + [p.normals[i] for i in sorted(facets)]
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
        total += value**n / (abs(delta) * coeff_product)
    return total / factorial(n)


def random_functional(p: HPolytope, rng: SplitMix64, budget: int = 100) -> tuple:
    """Draw a functional that is nonconstant on every edge of the section.

    Returns (functional, its Lawrence volume of p): the volume is computed
    once, by the evaluation that accepts the functional.
    """
    for _ in range(budget):
        f = LinearFunctional(
            u=sample_vector(p.ambient_dim, rng),
            d_shift=sample_rational(rng),
        )
        try:
            return f, lawrence_volume(p, f)
        except EdgeConstantFunctional:
            continue
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
    _, vol_h = random_functional(p, outcome.rng)
    n = cone.codim_half
    e = cone.pi_scale_exponent
    rhs = PiScalar(Fraction(2) ** ((n + 1) * e - n) * vol_h, (n + 1) * e)
    return MsyCheck(lhs=lhs, rhs=rhs, equal=lhs == rhs, section_volume=vol_h)
