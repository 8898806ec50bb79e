"""Volumes of deformed homogeneous contact structures from root data.

The closed orbits are indexed by Weyl coset representatives.
``root_data_system`` turns the root data and a deformed Reeb element into
an OrbitSystem, one orbit per representative, so the volume is the same
localized sum (``engine.localize_volume``) as the sphere and toric
volumes.  Its weights are validated at construction like any orbit
system's, so root data whose sum has no v in it is refused: a root
proportional to the projection gives an identically zero weight, and an
empty root list codimension 0.  The canonical fixture is the 7-dimensional Stiefel manifold
SO(5)/SO(3), for which the four-summand expansion and the closed form
2 pi^4 / (3 (z^2-y^2)(z^2-x^2)) pin every sign and constant.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .core import Covector, PiScalar, Record, Vector, _reduce, rat
from .engine import OrbitDatum, OrbitSystem, _row, localize_volume
from .errors import DegenerateReeb, InputError, PoleAtSample, SingularMatrix


class RootData(Record):
    """Quotient roots, Weyl representatives and the Reeb splitting data.

    ``weyl_reps`` act on the torus algebra, each a square matrix of size
    ``dim_t`` given as rows of rationals (tuples or lists) and kept as a
    tuple of rational row tuples; ``projection`` is the functional p with
    p(b) = 1 that kills the isotropy part of the splitting.
    """

    dim_t: int
    roots_quotient: tuple
    weyl_reps: tuple
    b: Vector
    projection: Covector

    def __post_init__(self):
        object.__setattr__(
            self, "roots_quotient", tuple(Covector(r) for r in self.roots_quotient)
        )
        object.__setattr__(self, "b", Vector(self.b))
        object.__setattr__(self, "projection", Covector(self.projection))
        reps = tuple(tuple(tuple(rat(e) for e in row) for row in w) for w in self.weyl_reps)
        for w in reps:
            if not (len(w) == self.dim_t and all(len(row) == self.dim_t for row in w)):
                raise InputError("Weyl representative has the wrong shape")
        object.__setattr__(self, "weyl_reps", reps)
        if len(self.b) != self.dim_t or len(self.projection) != self.dim_t:
            raise InputError("b and projection must have dimension dim_t")
        if any(len(r) != self.dim_t for r in self.roots_quotient):
            raise InputError("roots must have dimension dim_t")
        if self.projection(self.b) != 1:
            raise InputError("projection must send the Reeb element to 1")

    @property
    def codim_half(self) -> int:
        return len(self.roots_quotient)


def root_data_system(rd: RootData, b_prime: Vector) -> OrbitSystem:
    """The orbit system of the deformation with Reeb element b_prime.

    For each Weyl representative w, with q = p o w^-1, the orbit has

        length  -2 pi / q(b'),
        moment  q / q(b'),
        weights r o w^-1 - r(w^-1 b') * moment, one per quotient root r,

    so its localized volume term is p(w^-1 v)^n / p(w^-1 b')^(n+1) over
    the product of the roots at w^-1 (v - moment(v) b'), times -2 pi^(n+1)
    / n!.  The scale matches closed Reeb orbits of length 2 pi / q(b')
    together with the orientation of the root product relative to the
    transverse weights, as pinned by the Stiefel closed form.  Raises
    DegenerateReeb when q(b') = 0 for some representative, and InputError
    for a singular representative (naming its index in ``weyl_reps``) and,
    by the OrbitSystem validation, for no roots, no representatives or a
    root proportional to p.

    >>> system = root_data_system(stiefel_so5_so3(), Vector([0, 0, 1]))
    >>> localize_volume(system, Vector([1, 2, 5]))
    PiScalar(2/3 * pi^4)
    """
    b_prime = Vector(b_prime)
    if len(b_prime) != rd.dim_t:
        raise InputError("vectors must have dimension dim_t")
    n = rd.dim_t
    identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    orbits = []
    for k, w in enumerate(rd.weyl_reps):
        # (w | I) reduced to (T I | T w^-1): the columns of w^-1
        try:
            a, t = _reduce([row + e for row, e in zip(w, identity)], n)
        except SingularMatrix:
            raise InputError(f"weyl_reps[{k}] is singular") from None
        columns = tuple(zip(*([Fraction(x, t) for x in row[n:]] for row in a)))
        q = Covector(rd.projection(c) for c in columns)
        qb = q(b_prime)
        if qb == 0:
            raise DegenerateReeb("Reeb element projects to zero along a Weyl image")
        rows = [_row(q.scaled(1 / qb))]
        for root in rd.roots_quotient:
            rw = Covector(root(c) for c in columns)
            shift = rw(b_prime) / qb
            rows.append(_row([x - shift * y for x, y in zip(rw, q)]))
        orbits.append(OrbitDatum(PiScalar(-2 / qb, 1), tuple(rows)))
    return OrbitSystem(rd.dim_t, b_prime, rd.codim_half, tuple(orbits))


def homogeneous_volume(rd: RootData, b_prime: Vector, v: Vector) -> PiScalar:
    """Localized volume of the deformation with Reeb element b_prime at
    the sample v: ``localize_volume`` of ``root_data_system(rd, b_prime)``.
    Raises PoleAtSample when a root vanishes at w^-1 (v - moment(v) b')."""
    return localize_volume(root_data_system(rd, b_prime), v)


# ---------------------------------------------------------------------------
# the Stiefel manifold SO(5)/SO(3)


def stiefel_so5_so3() -> RootData:
    """Root data for SO(5)/SO(3) with its three-torus in coordinates
    (x, y, z); the homogeneous Reeb element is (0, 0, 1)."""
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    flip_x = ((-1, 0, 0), (0, 1, 0), (0, 0, 1))
    # inverses of these act as: identity, x-flip, xy-swap, (x,y) -> (-y, x)
    swap_flip = ((0, 1, 0), (-1, 0, 0), (0, 0, 1))
    return RootData(
        dim_t=3,
        roots_quotient=(
            Covector([1, 0, 0]),
            Covector([1, 1, 0]),
            Covector([1, -1, 0]),
        ),
        weyl_reps=(identity, flip_x, swap, swap_flip),
        b=Vector([0, 0, 1]),
        projection=Covector([-1, 0, 1]),
    )


def stiefel_closed_form(xyz) -> PiScalar:
    """2 pi^4 / (3 (z^2 - y^2)(z^2 - x^2)), the v-free value."""
    x, y, z = (rat(c) for c in xyz)
    denom = (z**2 - y**2) * (z**2 - x**2)
    if denom == 0:
        raise PoleAtSample("closed form undefined: z^2 equals x^2 or y^2")
    return PiScalar(Fraction(2, 3) / denom, 4)


def stiefel_four_sum(xyz, abc) -> PiScalar:
    """Literal four-summand expansion of the Stiefel volume.

    ``xyz`` is the deformed Reeb element, ``abc`` the auxiliary sample; the
    value is independent of ``abc``.  Transcribed term by term, separately
    from homogeneous_volume, so the two act as cross-checks.
    """
    x, y, z = (rat(c) for c in xyz)
    a, b, c = (rat(t) for t in abc)

    def term(num, pole, f1, f2, f3):
        if f1 == 0 or f2 == 0 or f3 == 0:
            raise PoleAtSample("a displayed denominator vanishes")
        return num**3 / (pole**4 * f1 * f2 * f3)

    if z == x or z == -x or z == y or z == -y:
        raise PoleAtSample("Reeb deformation hits a wall: z^2 equals x^2 or y^2")

    # orbit through the identity coset
    r1 = a + (a - c) / (z - x) * x
    s1 = b + (a - c) / (z - x) * y
    t1 = term(c - a, z - x, r1, r1 + s1, r1 - s1)

    r2 = a - (a + c) / (x + z) * x
    s2 = b - (a + c) / (x + z) * y
    t2 = term(a + c, z + x, r2, r2 + s2, r2 - s2)

    r3 = b + (c - b) / (y - z) * y
    s3 = a + (c - b) / (y - z) * x
    t3 = term(c - b, z - y, r3, r3 + s3, r3 - s3)

    r4 = b - (c + b) / (y + z) * y
    s4 = a - (c + b) / (y + z) * x
    t4 = term(b + c, z + y, r4, r4 - s4, r4 + s4)

    bracket = t1 - t2 + t3 - t4
    return PiScalar(Fraction(-2) * bracket / factorial(3), 4)
