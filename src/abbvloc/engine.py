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
from math import factorial, lcm

from .core import (
    Covector,
    PiScalar,
    Record,
    Vector,
    _integer_row,
    _s_J_integer,
    basis_covector,
    canonical_multiindex,
    rat,
)
from .errors import InputError, MixedPiPowers, PoleAtSample
from .sampling import SampleOutcome, sample_independent


class OrbitDatum(Record):
    """One isolated closed orbit: length, moment functional, weight list."""

    length: PiScalar
    moment: Covector
    weights: tuple

    def __post_init__(self):
        # a Covector is kept as it is handed in: its entries are rationals
        object.__setattr__(self, "weights", tuple(
            w if isinstance(w, Covector) else Covector(w) for w in self.weights))
        if not isinstance(self.moment, Covector):
            object.__setattr__(self, "moment", Covector(self.moment))

    @cached_property
    def integer_rows(self) -> tuple:
        """The moment and then the weights as integer rows (D, ((i, A_i), ...)):
        D is the lcm of the covector's denominators and A_i the nonzero
        entries of D times it, so a sphere weight keeps 2 of its d entries."""
        rows = []
        for covector in (self.moment, *self.weights):
            scale, ints = _integer_row(covector)
            rows.append((scale, tuple((i, a) for i, a in enumerate(ints) if a)))
        return tuple(rows)


class OrbitSystem(Record):
    """A finite family of isolated closed orbits over one torus algebra.

    ``codim_half`` is n where the transverse codimension is 2n; each orbit
    carries exactly n weights.  Construction checks the structural
    invariants exactly: weights annihilate the Reeb element, moments pair
    to 1 with it, and no weight functional vanishes identically.  The
    pairings are read on the integer rows of ``OrbitDatum.integer_rows``
    and of b, which the localized sums use anyway.
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
            if len(orbit.moment) != self.dim_t:
                raise InputError(f"orbit {k}: moment has wrong dimension")
            if len(orbit.weights) != self.codim_half:
                raise InputError(
                    f"orbit {k}: expected {self.codim_half} weights, "
                    f"got {len(orbit.weights)}"
                )
            (d, mu), *rows = orbit.integer_rows
            if sum(x * B[i] for i, x in mu) != d * s:
                raise InputError(f"orbit {k}: moment must pair to 1 with the Reeb vector")
            for j, (alpha, (_, row)) in enumerate(zip(orbit.weights, rows)):
                if len(alpha) != self.dim_t:
                    raise InputError(f"orbit {k}: weight {j} has wrong dimension")
                if not row:
                    raise InputError(f"orbit {k}: weight {j} is identically zero")
                if sum(x * B[i] for i, x in row):
                    raise InputError(
                        f"orbit {k}: weight {j} does not annihilate the Reeb vector"
                    )


def _pi_grading(scalars) -> int:
    powers = {s.pi_power for s in scalars if not s.is_zero}
    if len(powers) > 1:
        raise MixedPiPowers(f"inconsistent pi grading across orbits: {sorted(powers)}")
    return powers.pop() if powers else 0


def _scaled(system: OrbitSystem, v) -> tuple:
    """(v, (s, V)): v as a Vector, and v = V / s with V integral."""
    v = Vector(v)
    if len(v) != system.dim_t:
        raise ValueError(f"dimension mismatch: {system.dim_t} vs {len(v)}")
    return v, _integer_row(v)


def _orbit_term(orbit: OrbitDatum, v: Vector, scaled: tuple, l: Fraction,
                power: int = 0, J: tuple = ()) -> Fraction:
    """l * moment(v)^power * s_J(a(v)) / prod_j a_j(v) for one orbit, as one
    reduced Fraction: the per-orbit kernel of every localized sum.

    ``scaled`` is (s, V) with v = V / s and V integral (see _integer_row).
    A row (D, A) of orbit.integer_rows pairs with V to the integer A.V, and
    the covector's value at v is A.V / (D s).  With power + |J| at most the
    weight count n, s appears only as s^(n - power - |J|) in the numerator;
    it cancels from the volume term (power = n).  Raises PoleAtSample when
    a weight vanishes at v.
    """
    s, V = scaled
    (d0, mu), *weights = orbit.integer_rows
    num, den = l.numerator, l.denominator
    values = []
    for (d, row), alpha in zip(weights, orbit.weights):
        a = 0
        for i, x in row:
            a += x * V[i]
        if not a:
            raise PoleAtSample(f"weight {tuple(alpha)} vanishes at v={tuple(v)}")
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
        e = lcm(*(d for d, _ in weights))
        num *= _s_J_integer(J, [a * (e // d) for a, (d, _) in zip(values, weights)])
        den *= e ** sum(J)
    return Fraction(num * s ** (len(weights) - power - sum(J)), den)


def localize_volume(system: OrbitSystem, v: Vector) -> PiScalar:
    """Volume as (pi^n / n!) * sum_k l_k moment_k(v)^n / prod_j a_j^k(v)."""
    v, scaled = _scaled(system, v)
    n = system.codim_half
    pi_len = _pi_grading(o.length for o in system.orbits)
    total = Fraction(0)
    for orbit in system.orbits:
        total += _orbit_term(orbit, v, scaled, orbit.length.coeff, power=n)
    return PiScalar(total / factorial(n), n + pi_len)


def dh_series(system: OrbitSystem, v: Vector, order: int) -> list:
    """Duistermaat-Heckman coefficients c_0 .. c_order.

    c_s = pi^n sum_k l_k moment_k(v)^s / (s! prod_j a_j^k(v)).  The series
    is returned as exact coefficients and never summed numerically.
    """
    if order < 0:
        raise InputError("order must be nonnegative")
    v, scaled = _scaled(system, v)
    n = system.codim_half
    pi_len = _pi_grading(o.length for o in system.orbits)
    pieces = [
        (_orbit_term(orbit, v, scaled, orbit.length.coeff), orbit.moment(v))
        for orbit in system.orbits
    ]
    coeffs = []
    for s in range(order + 1):
        total = sum((base * mv**s for base, mv in pieces), Fraction(0))
        coeffs.append(PiScalar(total / factorial(s), n + pi_len))
    return coeffs


def localize_characteristic(system: OrbitSystem, J, leaf_integrals, v: Vector) -> PiScalar:
    """sum_k leaf_k * s_J(weights at v) / s_top(weights at v).

    With J = (n,) the ratio is identically 1 and the result is the plain
    sum of the leaf integrals, independent of v.
    """
    v, scaled = _scaled(system, v)
    n = system.codim_half
    J = canonical_multiindex(J)
    if sum(J) > n:
        raise InputError(f"multiindex degree {sum(J)} exceeds codim_half {n}")
    leaf_integrals = list(leaf_integrals)
    if len(leaf_integrals) != len(system.orbits):
        raise InputError("need one leaf integral per orbit")
    pi_leaf = _pi_grading(leaf_integrals)
    total = Fraction(0)
    for orbit, leaf in zip(system.orbits, leaf_integrals):
        total += _orbit_term(orbit, v, scaled, leaf.coeff, J=J)
    return PiScalar(total, pi_leaf)


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
    n = d - 1
    orbits = []
    for k in range(d):
        moment = basis_covector(d, k).scaled(1 / w[k])
        alphas = []
        for j in range(d):
            if j == k:
                continue
            entries = [Fraction(0)] * d
            entries[k] = w[j] / w[k]
            entries[j] = Fraction(-1)
            alphas.append(Covector(entries))
        orbits.append(
            OrbitDatum(
                length=PiScalar(2 / w[k], 1),
                moment=moment,
                weights=tuple(alphas),
            )
        )
    return OrbitSystem(dim_t=d, b=Vector(w), codim_half=n, orbits=tuple(orbits))
