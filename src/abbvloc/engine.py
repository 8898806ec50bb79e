"""Localized sums over isolated closed orbits.

An OrbitSystem is the finite data that survives localization: for each
isolated closed orbit, its length, its moment value as a linear functional,
and the transverse isotropy weights as linear functionals that annihilate
the Reeb element.  Every operation here evaluates an Atiyah-Bott-Berline-
Vergne type sum exactly at a rational sample vector; sums that are
independent of the sample are verified to be so by exact resampling, never
by floating-point tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm

from .core import (
    Covector,
    PiScalar,
    Record,
    Vector,
    _integer_row,
    _s_J_integer,
    _sum,
    canonical_multiindex,
    rat,
)
from .errors import InputError, MixedPiPowers, PoleAtSample
from .sampling import SampleOutcome, sample_independent


class OrbitDatum(Record):
    """One isolated closed orbit: its length and ``integer_rows``, the
    moment functional and then the weights as rows (D, ((i, A_i), ...), d)
    of ``_row``, which the localized sums read.  ``moment`` and
    ``weights`` are the rows as dense Covectors, for messages and oracles.
    """

    length: PiScalar
    integer_rows: tuple

    @property
    def moment(self) -> Covector:
        return _covector(self.integer_rows[0])

    @property
    def weights(self) -> tuple:
        return tuple(map(_covector, self.integer_rows[1:]))


def _row(entries, t=1) -> tuple:
    """(D, ((i, A_i), ...), d): the covector e / t of length d, for ints or
    rationals e and a nonzero int t, as its nonzero entries A_i / D, i
    ascending.  The nonzero entries are found first and only they are
    scaled, by the lcm of their denominators, then divided by sign(t)
    gcd(L t, A), so D > 0 and the row is in lowest terms."""
    nonzero = [(i, e) for i, e in enumerate(entries) if e]
    scale = lcm(*[e.denominator for _, e in nonzero])
    row = [(i, e.numerator * (scale // e.denominator)) for i, e in nonzero]
    if t != 1:
        g = gcd(scale * t, *[a for _, a in row]) * (1 if t > 0 else -1)
        scale, row = scale * t // g, [(i, a // g) for i, a in row]
    return scale, tuple(row), len(entries)


def _covector(row) -> Covector:
    scale, entries, d = row
    entries = dict(entries)
    return Covector(Fraction(entries.get(i, 0), scale) for i in range(d))


class OrbitSystem(Record):
    """A finite family of isolated closed orbits over one torus algebra.

    ``codim_half`` is n where the transverse codimension is 2n; each orbit
    carries exactly n weights.  Construction checks the structural
    invariants exactly: weights annihilate the Reeb element, moments pair
    to 1 with it, and no weight functional vanishes identically.  The
    dimensions and pairings are read on the integer rows of
    ``OrbitDatum.integer_rows`` and of b, which the localized sums use
    anyway.
    """

    dim_t: int
    b: Vector
    codim_half: int
    orbits: tuple

    def __post_init__(self):
        object.__setattr__(self, "b", Vector(self.b))
        object.__setattr__(self, "orbits", tuple(self.orbits))
        if self.dim_t < 1 or len(self.b) != self.dim_t:
            raise InputError("Reeb vector length must equal dim_t")
        if self.codim_half < 1:
            raise InputError("codim_half must be a positive integer")
        if not self.orbits:
            raise InputError("orbit list must be nonempty")
        # x(b) = A.B / (D s) for an integer row (D, A) and b = B / s
        s, B = _integer_row(self.b)
        for k, orbit in enumerate(self.orbits):
            (d, mu, dim), *rows = orbit.integer_rows
            if dim != self.dim_t:
                raise InputError(f"orbit {k}: moment has wrong dimension")
            if len(rows) != self.codim_half:
                raise InputError(f"orbit {k}: expected {self.codim_half} weights, got {len(rows)}")
            if sum(x * B[i] for i, x in mu) != d * s:
                raise InputError(f"orbit {k}: moment must pair to 1 with the Reeb vector")
            for j, (_, row, dim) in enumerate(rows):
                if dim != self.dim_t:
                    raise InputError(f"orbit {k}: weight {j} has wrong dimension")
                if not row:
                    raise InputError(f"orbit {k}: weight {j} is identically zero")
                if sum(x * B[i] for i, x in row):
                    raise InputError(f"orbit {k}: weight {j} does not annihilate the Reeb vector")

    @cached_property
    def length_pi_power(self) -> int:
        """The common pi power of the orbit lengths, read at the first
        evaluation of a sum that needs it and kept; MixedPiPowers, raised
        there, is not kept."""
        return _pi_grading(o.length for o in self.orbits)


class LeafIntegrals(tuple):
    """Leaf integrals, one PiScalar per orbit, whose common pi power
    ``pi_power`` is read at its first use and kept.  localize_characteristic
    builds one from any sequence; a caller that sums at many samples builds
    it once and passes it."""

    @cached_property
    def pi_power(self) -> int:
        return _pi_grading(self)


def _pi_grading(scalars) -> int:
    powers = {s.pi_power for s in scalars if not s.is_zero}
    if len(powers) > 1:
        raise MixedPiPowers(f"inconsistent pi grading across orbits: {sorted(powers)}")
    return powers.pop() if powers else 0


def _scaled(system: OrbitSystem, v) -> tuple:
    """(v, (s, V)): v as a Vector, and v = V / s with V integral."""
    if type(v) is not Vector:
        v = Vector(v)
    if len(v) != system.dim_t:
        raise ValueError(f"dimension mismatch: {system.dim_t} vs {len(v)}")
    return v, _integer_row(v)


def _orbit_term(orbit: OrbitDatum, v: Vector, V: list, l: Fraction,
                power: int = 0, J: tuple = ()) -> tuple:
    """(P, Q) with l * moment(v)^power * s_J(a(v)) / prod_j a_j(v) equal to
    s^(n - power - |J|) P / Q for one orbit: the per-orbit kernel of every
    localized sum, on Python ints.

    v = V / s with V integral (see _integer_row).  A row (D, A, d) of
    orbit.integer_rows pairs with V to the integer A.V, and the covector's
    value at v is A.V / (D s).  The power of s is the same for every orbit
    of a sum, so the sums add the (P, Q) unreduced (``core._sum``) and apply it
    once; it is s^0 in the volume term (power = n).  Raises PoleAtSample
    when a weight vanishes at v.
    """
    (d0, mu, _), *weights = orbit.integer_rows
    num, den = l.numerator, l.denominator
    values = []
    for d, row, dim in weights:
        a = 0
        for i, x in row:
            a += x * V[i]
        if not a:
            raise PoleAtSample(f"weight {tuple(_covector((d, row, dim)))} vanishes at v={tuple(v)}")
        num *= d
        den *= a
        values.append(a)
    if power:
        m = 0
        for i, x in mu:
            m += x * V[i]
        num *= m**power
        den *= d0**power
    if J:
        # a_j(v) = values_j / (D_j s), so e s is a common denominator
        e = lcm(*(d for d, _, _ in weights))
        num *= _s_J_integer(J, [a * (e // d) for a, (d, _, _) in zip(values, weights)])
        den *= e ** sum(J)
    return num, den


def localize_volume(system: OrbitSystem, v: Vector) -> PiScalar:
    """Volume as (pi^n / n!) * sum_k l_k moment_k(v)^n / prod_j a_j^k(v)."""
    v, (_, V) = _scaled(system, v)
    n = system.codim_half
    pi_len = system.length_pi_power
    num, den = _sum([_orbit_term(orbit, v, V, orbit.length.coeff, power=n)
                     for orbit in system.orbits])
    return PiScalar(Fraction(num, den * factorial(n)), n + pi_len)


def dh_series(system: OrbitSystem, v: Vector, order: int) -> list:
    """Duistermaat-Heckman coefficients c_0 .. c_order.

    c_t = pi^n sum_k l_k moment_k(v)^t / (t! prod_j a_j^k(v)).  The series
    is returned as exact coefficients and never summed numerically.  With
    moment_k(v) = m_k / (D_k s) and the kernel's (P_k, Q_k), c_t is
    s^(n - t) sum_k P_k m_k^t / (Q_k D_k^t) / t!, each sum added on ints.
    """
    if order < 0:
        raise InputError("order must be nonnegative")
    v, (s, V) = _scaled(system, v)
    n = system.codim_half
    pi_len = system.length_pi_power
    terms = []
    for orbit in system.orbits:
        p, q = _orbit_term(orbit, v, V, orbit.length.coeff)
        d0, mu, _ = orbit.integer_rows[0]
        m = 0
        for i, x in mu:
            m += x * V[i]
        terms.append([p, q, m, d0])
    coeffs = []
    for t in range(order + 1):
        num, den = _sum([(p, q) for p, q, _, _ in terms])
        for term in terms:
            p, q, m, d0 = term
            term[0], term[1] = p * m, q * d0
        if t <= n:
            value = Fraction(num * s ** (n - t), den * factorial(t))
        else:
            value = Fraction(num, den * s ** (t - n) * factorial(t))
        coeffs.append(PiScalar(value, n + pi_len))
    return coeffs


def localize_characteristic(system: OrbitSystem, J, leaf_integrals, v: Vector) -> PiScalar:
    """sum_k leaf_k * s_J(weights at v) / s_top(weights at v).

    With J = (n,) the ratio is identically 1 and the result is the plain
    sum of the leaf integrals, independent of v.  J is canonicalized and
    the leaf integrals' pi power read here unless they come as a
    Multiindex and a LeafIntegrals, which carry them.
    """
    v, (s, V) = _scaled(system, v)
    n = system.codim_half
    J = canonical_multiindex(J)
    if sum(J) > n:
        raise InputError(f"multiindex degree {sum(J)} exceeds codim_half {n}")
    if type(leaf_integrals) is not LeafIntegrals:
        leaf_integrals = LeafIntegrals(leaf_integrals)
    if len(leaf_integrals) != len(system.orbits):
        raise InputError("need one leaf integral per orbit")
    pi_leaf = leaf_integrals.pi_power
    num, den = _sum([_orbit_term(orbit, v, V, leaf.coeff, J=J)
                     for orbit, leaf in zip(system.orbits, leaf_integrals)])
    return PiScalar(Fraction(num * s ** (n - sum(J)), den), pi_leaf)


def check_v_independence(system: OrbitSystem, samples: int = 10,
                         seed: int = 42) -> SampleOutcome:
    """Exactly verify that the localized volume does not depend on v.

    Draws rational sample vectors deterministically from the seed, skips
    poles, and requires every accepted value of localize_volume to be
    identical (see sample_independent).

    Raises InputError for fewer than 2 samples, InconsistentSamples on the
    first disagreement and AllSamplesPoles when the retry budget runs out
    before ``samples`` pole-free vectors are found.
    """
    if samples < 2:
        raise InputError("need at least 2 samples")
    return sample_independent(lambda v: localize_volume(system, v), system.dim_t, samples, seed)


# ---------------------------------------------------------------------------
# fixture builders


def weighted_sphere_system(weights) -> OrbitSystem:
    """Orbit data for the deformed odd sphere with Reeb weights w.

    Orbit k is the coordinate circle |z_k| = 1: its length is 2 pi / w_k,
    its moment functional is e_k^* / w_k, and its transverse weights are
    (w_j / w_k) e_k^* - e_j^* for j != k.  All-equal weight vectors are
    rejected: the closed orbits are then a continuum, not this finite list.
    """
    w = [rat(x) for x in weights]
    if len(w) < 2:
        raise InputError("need at least two weights")
    if any(x <= 0 for x in w):
        raise InputError("weights must be positive")
    if len(set(w)) == 1:
        raise InputError("all weights equal: closed orbits are not isolated")
    d = len(w)
    orbits = []
    for k, wk in enumerate(w):
        # one nonzero moment entry and two per weight, w_j / w_k = a / c over c
        p, q = wk.numerator, wk.denominator
        rows = [(p, ((k, q),), d)]
        for j, wj in enumerate(w):
            if j != k:
                a, c = wj.numerator * q, wj.denominator * p
                g = gcd(a, c)
                a, c = a // g, c // g
                rows.append((c, ((j, -c), (k, a)) if j < k else ((k, a), (j, -c)), d))
        orbits.append(OrbitDatum(PiScalar(2 / wk, 1), tuple(rows)))
    return OrbitSystem(dim_t=d, b=Vector(w), codim_half=d - 1, orbits=tuple(orbits))
