"""Volumes of deformed homogeneous contact structures from root data.

The closed orbits are indexed by Weyl coset representatives; each summand
is assembled from the projection along the Reeb splitting and the quotient
roots evaluated through the representative.  The canonical fixture is the
7-dimensional Stiefel manifold SO(5)/SO(3), for which the four-summand
expansion and the closed form 2 pi^4 / (3 (z^2-y^2)(z^2-x^2)) pin every
sign and constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .core import Covector, Matrix, PiScalar, Vector, rat
from .errors import DegenerateReeb, InputError, PoleAtSample


@dataclass(frozen=True)
class RootData:
    """Quotient roots, Weyl representatives and the Reeb splitting data.

    ``weyl_reps`` act on the torus algebra; summands use the inverse of
    each representative, which ``weyl_inverses`` computes on first use and
    keeps for the root datum's lifetime.  ``projection`` is the functional
    p with p(b) = 1 that kills the isotropy part of the splitting.
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
        reps = []
        for w in self.weyl_reps:
            m = w if isinstance(w, Matrix) else Matrix(w)
            if not (m.is_square and m.nrows == self.dim_t):
                raise InputError("Weyl representative has the wrong shape")
            reps.append(m)
        object.__setattr__(self, "weyl_reps", tuple(reps))
        if len(self.b) != self.dim_t or len(self.projection) != self.dim_t:
            raise InputError("b and projection must have dimension dim_t")
        if any(len(r) != self.dim_t for r in self.roots_quotient):
            raise InputError("roots must have dimension dim_t")
        if self.projection(self.b) != 1:
            raise InputError("projection must send the Reeb element to 1")

    @property
    def codim_half(self) -> int:
        return len(self.roots_quotient)

    @cached_property
    def weyl_inverses(self) -> tuple:
        """The inverse of each Weyl representative, in ``weyl_reps`` order."""
        return tuple(w.inverse() for w in self.weyl_reps)


def homogeneous_volume(rd: RootData, b_prime: Vector, v: Vector) -> PiScalar:
    """Localized volume of the deformation with Reeb element b_prime.

    Each Weyl representative w contributes

        [1 / p(w^-1 b')^(n+1)] * p(w^-1 v)^n
            / prod_roots root(w^-1 (v - (p(w^-1 v)/p(w^-1 b')) b')),

    and the sum is scaled by -2 pi^(n+1) / n!.  The scale matches closed
    Reeb orbits of length 2 pi / p(w^-1 b') together with the orientation
    of the root-product relative to the transverse weights, as pinned by
    the Stiefel closed form.
    """
    v = Vector(v)
    b_prime = Vector(b_prime)
    if len(v) != rd.dim_t or len(b_prime) != rd.dim_t:
        raise InputError("vectors must have dimension dim_t")
    n = rd.codim_half
    p = rd.projection
    total = Fraction(0)
    for inv in rd.weyl_inverses:
        wb = inv.apply(b_prime)
        wv = inv.apply(v)
        pb = p(wb)
        if pb == 0:
            raise DegenerateReeb("Reeb element projects to zero along a Weyl image")
        pv = p(wv)
        argument = Vector(a - (pv / pb) * c for a, c in zip(wv, wb))
        denom = Fraction(1)
        for root in rd.roots_quotient:
            value = root(argument)
            if value == 0:
                raise PoleAtSample(f"root {tuple(root)} vanishes at the sample")
            denom *= value
        total += pv**n / (pb ** (n + 1) * denom)
    return PiScalar(Fraction(-2) * total / factorial(n), n + 1)


# ---------------------------------------------------------------------------
# the Stiefel manifold SO(5)/SO(3)


def stiefel_so5_so3() -> RootData:
    """Root data for SO(5)/SO(3) with its three-torus in coordinates
    (x, y, z); the homogeneous Reeb element is (0, 0, 1)."""
    swap = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    flip_x = Matrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # inverses of these act as: identity, x-flip, xy-swap, (x,y) -> (-y, x)
    swap_flip = Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    return RootData(
        dim_t=3,
        roots_quotient=(
            Covector([1, 0, 0]),
            Covector([1, 1, 0]),
            Covector([1, -1, 0]),
        ),
        weyl_reps=(Matrix.identity(3), flip_x, swap, swap_flip),
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
