"""Fraction oracles for the orbit sums.

The package evaluates every localized sum through one integer kernel
(``engine._orbit_term`` on ``OrbitDatum.integer_rows``) and tests the w1
identity on integers (``secondary.check_w1_identity``).  This module keeps
the literal ``Fraction`` forms of both loops, one covector pairing and one
``s_J`` call at a time, so the two can be compared, and the dense form of
the integer rows, which the package builds from the nonzero entries only.  It also keeps the
residue-pattern orbit system and the brute-force complete homogeneous
polynomials that its Duistermaat-Heckman coefficients are checked against.
"""

import itertools
from fractions import Fraction
from math import factorial

from abbvloc.core import (
    Covector,
    PiScalar,
    Vector,
    _integer_row,
    canonical_multiindex,
    rat,
    s_J,
)
from abbvloc.engine import OrbitDatum, OrbitSystem, _pi_grading, _row
from abbvloc.errors import InputError, PoleAtSample


def basis_covector(dim: int, j: int) -> Covector:
    """The coordinate functional e_j^* on a torus algebra of dimension dim."""
    return Covector(Fraction(1 if i == j else 0) for i in range(dim))


def orbit_datum(length, moment, weights) -> OrbitDatum:
    """The OrbitDatum of a dense moment and dense weights, each a sequence
    of what ``rat`` takes, its rows built by ``engine._row``."""
    return OrbitDatum(length, tuple(_row(Covector(c)) for c in (moment, *weights)))


def integer_rows(orbit) -> tuple:
    """The moment and then the weights as rows (D, ((i, A_i), ...)): each
    covector scaled to integers over all its entries, D the lcm of all its
    denominators, and then its zero entries dropped."""
    rows = []
    for covector in (orbit.moment, *orbit.weights):
        scale, ints = _integer_row(covector)
        rows.append((scale, tuple((i, a) for i, a in enumerate(ints) if a)))
    return tuple(rows)


def orbit_term(orbit, v, l) -> tuple:
    """(l / prod_j a_j(v), [a_j(v)]), pairing each weight covector with v."""
    values = []
    product = Fraction(1)
    for alpha in orbit.weights:
        a = alpha(v)
        if a == 0:
            raise PoleAtSample(f"weight {tuple(alpha)} vanishes at v={tuple(v)}")
        values.append(a)
        product *= a
    return l / product, values


def localize_volume(system, v) -> PiScalar:
    v = Vector(v)
    n = system.codim_half
    pi_len = _pi_grading(o.length for o in system.orbits)
    total = Fraction(0)
    for orbit in system.orbits:
        total += orbit_term(orbit, v, orbit.length.coeff * orbit.moment(v) ** n)[0]
    return PiScalar(total / factorial(n), n + pi_len)


def dh_series(system, v, order) -> list:
    v = Vector(v)
    n = system.codim_half
    pi_len = _pi_grading(o.length for o in system.orbits)
    pieces = [(orbit_term(orbit, v, orbit.length.coeff)[0], orbit.moment(v))
              for orbit in system.orbits]
    return [
        PiScalar(sum((base * mv**s for base, mv in pieces), Fraction(0)) / factorial(s), n + pi_len)
        for s in range(order + 1)
    ]


def localize_characteristic(system, J, leaf_integrals, v) -> PiScalar:
    v = Vector(v)
    J = canonical_multiindex(J)
    leaf_integrals = list(leaf_integrals)
    pi_leaf = _pi_grading(leaf_integrals)
    total = Fraction(0)
    for orbit, leaf in zip(system.orbits, leaf_integrals):
        term, values = orbit_term(orbit, v, leaf.coeff)
        total += term * s_J(J, values)
    return PiScalar(total, pi_leaf)


def check_w1_identity(m, J, w) -> bool:
    """sum_k s_J(w_j - w_k) prod_{j != k} w_j / prod_{j != k} (w_j - w_k)
    == s_J(w), on Fractions."""
    J = canonical_multiindex(J)
    w = [rat(x) for x in w]
    if len(w) != m + 1 or len(set(w)) != len(w):
        raise InputError("need m + 1 pairwise distinct values")
    lhs = Fraction(0)
    for k in range(m + 1):
        diffs = [w[j] - w[k] for j in range(m + 1) if j != k]
        prod_w = Fraction(1)
        prod_d = Fraction(1)
        for j in range(m + 1):
            if j != k:
                prod_w *= w[j]
        for d in diffs:
            prod_d *= d
        lhs += s_J(J, diffs) * prod_w / prod_d
    return lhs == s_J(J, w)


def complete_homogeneous(k: int, xs) -> Fraction:
    """h_k(xs) as the literal sum of all degree-k monomials; 0 for k < 0.

    >>> complete_homogeneous(2, [1, 2])
    Fraction(7, 1)
    """
    if k < 0:
        return Fraction(0)
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement([rat(x) for x in xs], k):
        term = Fraction(1)
        for x in combo:
            term *= x
        total += term
    return total


def residue_pattern_system(n: int) -> OrbitSystem:
    """Round-sphere weight pattern on n+1 coordinates with unit lengths.

    Orbit k has moment e_k^* and weights e_k^* - e_j^* (j != k), so the
    localized series coefficients reduce to the classical residue sums
    sum_k v_k^s / prod_{j != k} (v_k - v_j) = h_{s-n}(v).
    """
    if n < 1:
        raise InputError("n must be positive")
    d = n + 1
    orbits = []
    for k in range(d):
        alphas = []
        for j in range(d):
            if j != k:
                entries = [Fraction(0)] * d
                entries[k], entries[j] = Fraction(1), Fraction(-1)
                alphas.append(Covector(entries))
        orbits.append(orbit_datum(PiScalar(1, 0), basis_covector(d, k), alphas))
    return OrbitSystem(dim_t=d, b=Vector([1] * d), codim_half=n, orbits=tuple(orbits))
