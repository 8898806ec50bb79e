"""Moment cones of toric contact structures.

A good cone is given by primitive integer facet normals and a Reeb vector
with a bounded hyperplane section.  Vertices of the section are enumerated
exactly, validated against the lattice direct-summand condition via Smith
normal form, and turned into orbit data (lengths, moments, weights) or fed
directly into the determinant volume formula.  Boundedness is read off
the edges, which ``_bounded_edges`` finds from the vertices' facet sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .core import (
    Covector,
    Matrix,
    PiScalar,
    Vector,
    basis_vector,
    det,
    integer_gcd,
    rat,
    rat_str,
    smith_normal_form,
    solve_linear,
)
from .engine import OrbitDatum, OrbitSystem
from .errors import (
    GoodnessViolation,
    InputError,
    NotSimpleVertex,
    PoleAtSample,
    SingularMatrix,
    UnboundedSection,
)


@dataclass(frozen=True)
class GoodCone:
    """Rational polyhedral cone {phi : phi(v_i) <= 0} with a Reeb vector.

    ``normals`` and ``reeb`` are stored in lattice coordinates; when a
    nontrivial ``lattice_basis`` is supplied (columns = lattice generators
    in the input coordinates), inputs are converted at construction and the
    normals must land on integer vectors.

    ``pi_scale_exponent`` records how many factors of 2 pi are absorbed
    into each lattice generator (0 or 1, uniform across axes).  With
    exponent 1 the stored Reeb coordinates are the geometric ones and all
    volume outputs carry pi^(n+1); with exponent 0 results are rational
    multiples of pi^0 in lattice-normalized units.

    The vertex data does not depend on any sample vector, so the cone
    holds it: ``orbits`` is enumerated on first use and kept for the
    cone's lifetime.
    """

    dim: int
    normals: tuple
    reeb: Vector
    lattice_basis: Matrix = None
    pi_scale_exponent: int = 1

    def __post_init__(self):
        d = self.dim
        if d < 2:
            raise InputError("cone dimension must be at least 2")
        if self.pi_scale_exponent not in (0, 1):
            raise InputError("pi_scale_exponent must be 0 or 1")
        normals = [Vector(v) for v in self.normals]
        reeb = Vector(self.reeb)
        if len(reeb) != d or any(len(v) != d for v in normals):
            raise InputError("normals and reeb must have the cone dimension")
        if len(normals) < d:
            raise InputError(f"need at least {d} facet normals, got {len(normals)}")
        basis = self.lattice_basis
        if basis is not None and basis != Matrix.identity(d):
            if not (basis.is_square and basis.nrows == d):
                raise InputError("lattice_basis must be a square matrix of the cone dimension")
            if det(basis) == 0:
                raise InputError("lattice_basis is singular")
            normals = [solve_linear(basis, v) for v in normals]
            reeb = solve_linear(basis, reeb)
        for i, v in enumerate(normals):
            if any(e.denominator != 1 for e in v):
                raise InputError(f"normal {i} is not an integer lattice vector")
            g = integer_gcd(v)
            if g == 0:
                raise InputError(f"normal {i} is zero")
            if g != 1:
                raise InputError(f"normal {i} is not primitive (gcd {g})")
        if len(set(normals)) != len(normals):
            raise InputError("duplicate facet normals")
        object.__setattr__(self, "normals", tuple(normals))
        object.__setattr__(self, "reeb", reeb)
        object.__setattr__(self, "lattice_basis", None)

    @property
    def codim_half(self) -> int:
        return self.dim - 1

    @cached_property
    def orbits(self) -> tuple:
        """The section's vertices as ToricOrbits, sorted by vertex.

        Computed by enumerate_vertices on first access.  An enumeration
        that raises is not stored, so every access raises the same error.
        """
        return enumerate_vertices(self)


@dataclass(frozen=True)
class ToricOrbit:
    """A vertex of the hyperplane section, i.e. one closed Reeb orbit.

    ``ordered_normals`` are the active facet normals, swapped if needed so
    that det(b, v_1, ..., v_n) > 0.  With n = 1 no reordering exists and
    ``delta`` keeps its sign; every consumer divides by |delta| or by a
    ratio that is insensitive to the ordering.
    """

    vertex: Covector
    facet_indices: tuple
    ordered_normals: tuple
    delta: Fraction

    @property
    def abs_delta(self) -> Fraction:
        return abs(self.delta)


def _point_str(phi) -> str:
    return f"({', '.join(map(rat_str, phi))})"


def _bounded_edges(vertices, facet_sets) -> tuple:
    """The sorted pairs a < b of indices into ``vertices`` joined by an edge
    of a simple section whose vertices lie on the facets ``facet_sets``.

    An edge is keyed by its facets, a vertex's facet set minus one facet, and
    ends in the vertices that share that key.  Raises UnboundedSection at an
    edge with one vertex: a ray, so the section has a nontrivial recession
    cone.
    """
    ends = {}
    for index, facets in enumerate(facet_sets):
        facets = frozenset(facets)
        for j in facets:
            ends.setdefault(facets - {j}, []).append(index)
    for edge, (first, *rest) in ends.items():
        if not rest:
            (left,) = set(facet_sets[first]) - edge
            raise UnboundedSection(
                f"the section is unbounded: the edge that leaves facet {left} at vertex "
                f"{_point_str(vertices[first])} has no second vertex"
            )
    return tuple(sorted(tuple(pair) for pair in ends.values() if len(pair) == 2))


def enumerate_vertices(cone: GoodCone) -> tuple:
    """All vertices of the hyperplane section {phi(b) = 1, phi(v_i) <= 0}.

    Every n-subset of normals is solved exactly; a solution is kept when
    it satisfies all facet inequalities with equality exactly on the
    subset.  Raises NotSimpleVertex when a solution lies on extra facets,
    GoodnessViolation when the active normals of a vertex fail the Smith
    normal form test, and UnboundedSection for an empty section or for an
    edge with one vertex (for a simple section, a nontrivial recession cone).

    Enumerates afresh on every call; callers read ``cone.orbits``, which
    calls this once per cone and keeps the result.
    """
    n = cone.codim_half
    b = cone.reeb
    rhs = [Fraction(0)] * n + [Fraction(1)]
    orbits = {}
    for subset in itertools.combinations(range(len(cone.normals)), n):
        ordered = [cone.normals[i] for i in subset]
        try:
            phi = Covector(solve_linear(Matrix(ordered + [b]), rhs))
        except SingularMatrix:
            continue
        values = [phi(v) for v in cone.normals]
        if any(val > 0 for val in values):
            continue
        active = tuple(i for i, val in enumerate(values) if val == 0)
        if active != subset:
            raise NotSimpleVertex(
                f"vertex {_point_str(phi)} lies on facets {active}, more than {n}"
            )
        divisors = smith_normal_form(ordered)
        if any(dv != 1 for dv in divisors):
            raise GoodnessViolation(
                f"facets {subset} span a sublattice with divisors {divisors}"
            )
        delta = det(Matrix.from_columns([b] + ordered))
        if delta < 0 and n >= 2:
            ordered[0], ordered[1] = ordered[1], ordered[0]
            delta = -delta
        orbits[phi] = ToricOrbit(
            vertex=phi,
            facet_indices=subset,
            ordered_normals=tuple(ordered),
            delta=delta,
        )
    if not orbits:
        raise UnboundedSection("no vertex satisfies the facet inequalities")
    result = tuple(sorted(orbits.values(), key=lambda o: tuple(o.vertex)))
    _bounded_edges([o.vertex for o in result], [o.facet_indices for o in result])
    return result


def orbit_system_from_cone(cone: GoodCone) -> OrbitSystem:
    """Orbit lengths, moments and weights from the cone's vertex data.

    At each vertex, inverting the matrix with columns (b, v_1, ..., v_n)
    yields the moment functional (row 0) and the weight functionals (rows
    1..n) at once.  The uniform pi grading of the weights and the lattice
    rescaling are absorbed into the orbit length, keeping all functionals
    rational; with pi_scale_exponent 1 the stored lengths, moments and
    weights are exactly the geometric ones.
    """
    n = cone.codim_half
    e = cone.pi_scale_exponent
    pi_len = e - (1 - e) * n
    orbits = []
    for orbit in cone.orbits:
        m = Matrix.from_columns([cone.reeb] + list(orbit.ordered_normals))
        inv = m.inverse()
        moment = Covector(inv.rows[0])
        weights = tuple(Covector(inv.rows[i]) for i in range(1, n + 1))
        length = PiScalar(Fraction(2) ** pi_len / orbit.abs_delta, pi_len)
        orbits.append(OrbitDatum(length=length, moment=moment, weights=weights))
    return OrbitSystem(
        dim_t=cone.dim, b=cone.reeb, codim_half=n, orbits=tuple(orbits)
    )


def toric_volume(cone: GoodCone, v: Vector) -> PiScalar:
    """Volume by the vertex determinant formula, evaluated verbatim.

    Each vertex contributes det(v, v^L)^n / (|det(b, v^L)| * prod_i
    det(b, ..., v at slot i, ...)); the value is independent of the order
    of the active normals.  Computed determinant by determinant, without
    the matrix inverse used on the orbit-data route, so the two routes
    cross-check each other.  The vertices and |det(b, v^L)| are read from
    ``cone.orbits``; only the determinants that contain v are computed per
    call.
    """
    v = Vector(v)
    if len(v) != cone.dim:
        raise InputError("sample vector has wrong dimension")
    n = cone.codim_half
    e = cone.pi_scale_exponent
    total = Fraction(0)
    for orbit in cone.orbits:
        m = Matrix.from_columns([cone.reeb] + list(orbit.ordered_normals))
        numerator = det(m.with_column(0, v)) ** n
        denom = orbit.abs_delta
        for i in range(1, n + 1):
            slot = det(m.with_column(i, v))
            if slot == 0:
                raise PoleAtSample(
                    f"det(b, ..., v, ...) vanishes at slot {i} of vertex "
                    f"{tuple(orbit.vertex)}"
                )
            denom *= slot
        total += numerator / denom
    scale = e - (1 - e) * n
    return PiScalar(Fraction(2) ** scale * total / factorial(n), n + scale)


# ---------------------------------------------------------------------------
# fixture cones


def weighted_sphere_cone(weights, pi_scale_exponent: int = 1) -> GoodCone:
    """Cone of the deformed odd sphere: normals -e_i, Reeb = the weights."""
    w = [rat(x) for x in weights]
    if any(x <= 0 for x in w):
        raise InputError("weights must be positive")
    d = len(w)
    normals = tuple(-basis_vector(d, i) for i in range(d))
    return GoodCone(
        dim=d,
        normals=normals,
        reeb=Vector(w),
        pi_scale_exponent=pi_scale_exponent,
    )


def simplex_cone(dim: int, pi_scale_exponent: int = 1) -> GoodCone:
    """The orthant cone with unit Reeb vector (round-sphere normalization)."""
    return weighted_sphere_cone([1] * dim, pi_scale_exponent)
