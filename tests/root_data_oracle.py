"""Per-Weyl-representative oracles for the root-data volume.

The package turns root data into an OrbitSystem
(``homogeneous.root_data_system``, one integer reduction of
(w^T | p r_1 ... r_m) per representative) and evaluates it by the one
per-orbit kernel (``engine._orbit_term``).  This module keeps the direct
formula, in ``Fraction`` matrix arithmetic one representative at a time,
so the two can be compared value by value and pole by pole, and the
``Fraction`` builder of the same orbit system, so the rows and lengths
can be compared too.  ``conjugate`` carries root data by a rational
change of torus coordinates, which leaves the volume where it was.
"""

from fractions import Fraction
from math import factorial

from abbvloc.core import Covector, PiScalar, Vector
from abbvloc.engine import OrbitDatum, OrbitSystem, _row
from abbvloc.errors import DegenerateReeb, InputError, PoleAtSample
from abbvloc.homogeneous import RootData
from matrix_oracle import apply, inverse, mat_mul

# a rational change of coordinates of determinant 4/3: the Weyl
# representatives it conjugates the Stiefel fixture's into are not integral
CONJUGATOR = ((1, Fraction(1, 2), 0), (0, 1, Fraction(1, 3)), (2, 0, 1))


def root_data_volume(rd, b_prime, v) -> PiScalar:
    """-2 pi^(n+1) / n! times the sum over Weyl representatives w of

        p(w^-1 v)^n / p(w^-1 b')^(n+1)
            / prod_roots root(w^-1 (v - (p(w^-1 v)/p(w^-1 b')) b')).

    Raises DegenerateReeb when p(w^-1 b') = 0 and PoleAtSample when a root
    vanishes at its argument, and InputError naming the index of a
    singular w."""
    v, b_prime = Vector(v), Vector(b_prime)
    n = rd.codim_half
    p = rd.projection
    total = Fraction(0)
    for k, w in enumerate(rd.weyl_reps):
        inv = inverse(w)
        if inv is None:
            raise InputError(f"weyl_reps[{k}] is singular")
        wb, wv = apply(inv, b_prime), apply(inv, v)
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


def fraction_root_data_system(rd, b_prime) -> OrbitSystem:
    """The orbit system of root_data_system built on Fractions: for each
    representative w, the columns of w^-1 (``matrix_oracle.inverse``),
    q = p o w^-1 and each r o w^-1 as Covectors paired with them, then

        length -2 pi / q(b'),  moment q / q(b'),
        weights r o w^-1 - r(w^-1 b') * moment,

    each row handed to ``engine._row``.  The errors are the package's, in
    its order: the dimension of b', then per representative a singular w
    before q(b') = 0."""
    b_prime = Vector(b_prime)
    if len(b_prime) != rd.dim_t:
        raise InputError("vectors must have dimension dim_t")
    orbits = []
    for k, w in enumerate(rd.weyl_reps):
        inv = inverse(w)
        if inv is None:
            raise InputError(f"weyl_reps[{k}] is singular")
        columns = tuple(zip(*inv))
        q = Covector(rd.projection(c) for c in columns)
        qb = q(b_prime)
        if qb == 0:
            raise DegenerateReeb("Reeb element projects to zero along a Weyl image")
        rows = [_row([x / qb for x in q])]
        for root in rd.roots_quotient:
            rw = Covector(root(c) for c in columns)
            shift = rw(b_prime) / qb
            rows.append(_row([x - shift * y for x, y in zip(rw, q)]))
        orbits.append(OrbitDatum(PiScalar(-2 / qb, 1), tuple(rows)))
    return OrbitSystem(rd.dim_t, b_prime, rd.codim_half, tuple(orbits))


def conjugate(rd, g) -> RootData:
    """rd carried by the invertible rational matrix g: each w becomes
    g w g^-1, each root and p become r o g^-1, and b becomes g b, so the
    volume of the result at g b' is the volume of rd at b'."""
    g_inv = inverse(g)
    pull = list(zip(*g_inv))  # r o g^-1 = (g^-1)^T r
    return RootData(
        dim_t=rd.dim_t,
        roots_quotient=tuple(apply(pull, r) for r in rd.roots_quotient),
        weyl_reps=tuple(mat_mul(mat_mul(g, w), g_inv) for w in rd.weyl_reps),
        b=apply(g, rd.b),
        projection=apply(pull, rd.projection),
    )


def root_data_document(rd) -> dict:
    """rd as the CLI's root-data document, every rational a "p/q" string."""
    def text(q):
        return str(Fraction(q))

    return {"dim_t": rd.dim_t, "roots": [[text(x) for x in r] for r in rd.roots_quotient],
            "weyl_reps": [[[text(x) for x in row] for row in w] for w in rd.weyl_reps],
            "b": [text(x) for x in rd.b], "p": [text(x) for x in rd.projection]}
