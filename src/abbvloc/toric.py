"""Moment cones of toric contact structures.

A good cone is given by primitive integer facet normals and a Reeb vector
with a bounded hyperplane section.  Vertices of the section are enumerated
exactly, validated against the lattice direct-summand condition via Smith
normal form, and turned into orbit data (lengths, moments, weights) or fed
directly into the determinant volume formula.
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
    _back_substitute,
    _echelon,
    basis_vector,
    det,
    integer_gcd,
    rat,
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


def _kernel_direction(rows, dim):
    """The solution phi of row . phi = 0 for all rows whose free entry is
    1, or None if the rows have rank != dim - 1."""
    a, pivots = _echelon(rows, dim)
    if len(pivots) != dim - 1:
        return None
    phi = [Fraction(0)] * dim
    phi[next(j for j in range(dim) if j not in pivots)] = Fraction(1)
    return Covector(_back_substitute(a, pivots, [Fraction(0)] * len(pivots), phi))


def _check_pointed_section(cone: GoodCone):
    """Reject cones whose section is unbounded.

    The section is bounded iff the recession cone {phi : phi(b) = 0,
    phi(v_i) <= 0} is trivial; a nontrivial recession cone has an extreme
    ray cut out by the Reeb constraint plus n-1 of the facet constraints,
    so all candidate rays can be enumerated exactly.
    """
    d = cone.dim
    m = len(cone.normals)
    for subset in itertools.combinations(range(m), d - 2):
        rows = [cone.reeb] + [cone.normals[i] for i in subset]
        phi = _kernel_direction(rows, d)
        if phi is None:
            continue
        for candidate in (phi, -phi):
            if all(candidate(v) <= 0 for v in cone.normals):
                raise UnboundedSection(
                    f"recession ray {tuple(candidate)} through facets {subset}"
                )


def enumerate_vertices(cone: GoodCone) -> list:
    """All vertices of the hyperplane section {phi(b) = 1, phi(v_i) <= 0}.

    Every n-subset of normals is solved exactly; a solution is kept when
    it satisfies all facet inequalities with equality exactly on the
    subset.  Raises NotSimpleVertex when a solution lies on extra facets,
    GoodnessViolation when the active normals of a vertex fail the Smith
    normal form test, and UnboundedSection for empty or unbounded sections.
    """
    d = cone.dim
    n = cone.codim_half
    b = cone.reeb
    rhs = [Fraction(0)] * n + [Fraction(1)]
    orbits = {}
    for subset in itertools.combinations(range(len(cone.normals)), n):
        rows = [cone.normals[i] for i in subset] + [b]
        system = Matrix(rows)
        try:
            phi = solve_linear(system, rhs)
        except SingularMatrix:
            continue
        phi = Covector(phi)
        values = [phi(v) for v in cone.normals]
        if any(val > 0 for val in values):
            continue
        active = tuple(i for i, val in enumerate(values) if val == 0)
        if active != subset:
            raise NotSimpleVertex(
                f"vertex {tuple(phi)} lies on facets {active}, more than {n}"
            )
        divisors = smith_normal_form([cone.normals[i] for i in subset])
        if any(dv != 1 for dv in divisors):
            raise GoodnessViolation(
                f"facets {subset} span a sublattice with divisors {divisors}"
            )
        ordered = [cone.normals[i] for i in subset]
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
    _check_pointed_section(cone)
    return sorted(orbits.values(), key=lambda o: tuple(o.vertex))


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
    for orbit in enumerate_vertices(cone):
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
    cross-check each other.
    """
    v = Vector(v)
    if len(v) != cone.dim:
        raise InputError("sample vector has wrong dimension")
    n = cone.codim_half
    e = cone.pi_scale_exponent
    total = Fraction(0)
    for orbit in enumerate_vertices(cone):
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
