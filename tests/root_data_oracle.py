"""Per-Weyl-representative oracle for the root-data volume.

The package turns root data into an OrbitSystem
(``homogeneous.root_data_system``) and evaluates it by the one per-orbit
kernel (``engine._orbit_term``).  This module keeps the direct formula, in
``Fraction`` matrix arithmetic one representative at a time, so the two
can be compared value by value and pole by pole.
"""

from fractions import Fraction
from math import factorial

from abbvloc.core import PiScalar, Vector
from abbvloc.errors import DegenerateReeb, InputError, PoleAtSample
from matrix_oracle import apply, inverse


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
