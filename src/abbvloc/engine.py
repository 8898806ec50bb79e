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

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .core import (
    Covector,
    PiScalar,
    Vector,
    basis_covector,
    canonical_multiindex,
    rat,
    s_J,
)
from .errors import InputError, MixedPiPowers, PoleAtSample
from .sampling import SampleOutcome, sample_independent


@dataclass(frozen=True)
class OrbitDatum:
    """One isolated closed orbit: length, moment functional, weight list."""

    length: PiScalar
    moment: Covector
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(Covector(w) for w in self.weights))
        object.__setattr__(self, "moment", Covector(self.moment))


@dataclass(frozen=True)
class OrbitSystem:
    """A finite family of isolated closed orbits over one torus algebra.

    ``codim_half`` is n where the transverse codimension is 2n; each orbit
    carries exactly n weights.  Construction checks the structural
    invariants exactly: weights annihilate the Reeb element, moments pair
    to 1 with it, and no weight functional vanishes identically.
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
        for k, orbit in enumerate(self.orbits):
            if len(orbit.moment) != self.dim_t:
                raise InputError(f"orbit {k}: moment has wrong dimension")
            if len(orbit.weights) != self.codim_half:
                raise InputError(
                    f"orbit {k}: expected {self.codim_half} weights, "
                    f"got {len(orbit.weights)}"
                )
            if orbit.moment(self.b) != 1:
                raise InputError(f"orbit {k}: moment must pair to 1 with the Reeb vector")
            for j, alpha in enumerate(orbit.weights):
                if len(alpha) != self.dim_t:
                    raise InputError(f"orbit {k}: weight {j} has wrong dimension")
                if alpha.is_zero:
                    raise InputError(f"orbit {k}: weight {j} is identically zero")
                if alpha(self.b) != 0:
                    raise InputError(
                        f"orbit {k}: weight {j} does not annihilate the Reeb vector"
                    )


def _pi_grading(scalars) -> int:
    powers = {s.pi_power for s in scalars if not s.is_zero}
    if len(powers) > 1:
        raise MixedPiPowers(f"inconsistent pi grading across orbits: {sorted(powers)}")
    return powers.pop() if powers else 0


def _orbit_term(orbit: OrbitDatum, v: Vector, l: Fraction) -> tuple:
    """(l / prod_j a_j(v), [a_j(v)]) for one orbit: the per-orbit kernel of
    every localized sum.  Raises PoleAtSample when a weight vanishes at v."""
    values = []
    product = Fraction(1)
    for alpha in orbit.weights:
        a = alpha(v)
        if a == 0:
            raise PoleAtSample(f"weight {tuple(alpha)} vanishes at v={tuple(v)}")
        values.append(a)
        product *= a
    return l / product, values


def localized_sum(system: OrbitSystem, v: Vector, numerator) -> PiScalar:
    """The generic localized sum (-2 pi)^n * sum_k l_k num_k(v) / prod_j a_j^k(v).

    ``numerator`` is called as numerator(k, orbit, v) and must return an
    exact rational.  The sign (-1)^n is absorbed into the coefficient.
    """
    v = Vector(v)
    n = system.codim_half
    pi_len = _pi_grading(o.length for o in system.orbits)
    total = Fraction(0)
    for k, orbit in enumerate(system.orbits):
        l = orbit.length.coeff * rat(numerator(k, orbit, v))
        total += _orbit_term(orbit, v, l)[0]
    return PiScalar(Fraction(-2) ** n * total, n + pi_len)


def localize_volume(system: OrbitSystem, v: Vector) -> PiScalar:
    """Volume as (pi^n / n!) * sum_k l_k moment_k(v)^n / prod_j a_j^k(v)."""
    v = Vector(v)
    n = system.codim_half
    pi_len = _pi_grading(o.length for o in system.orbits)
    total = Fraction(0)
    for orbit in system.orbits:
        total += _orbit_term(orbit, v, orbit.length.coeff * orbit.moment(v) ** n)[0]
    return PiScalar(total / factorial(n), n + pi_len)


def dh_series(system: OrbitSystem, v: Vector, order: int) -> list:
    """Duistermaat-Heckman coefficients c_0 .. c_order.

    c_s = pi^n sum_k l_k moment_k(v)^s / (s! prod_j a_j^k(v)).  The series
    is returned as exact coefficients and never summed numerically.
    """
    if order < 0:
        raise InputError("order must be nonnegative")
    v = Vector(v)
    n = system.codim_half
    pi_len = _pi_grading(o.length for o in system.orbits)
    pieces = [
        (_orbit_term(orbit, v, orbit.length.coeff)[0], orbit.moment(v))
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
    v = Vector(v)
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
        term, values = _orbit_term(orbit, v, leaf.coeff)
        total += term * s_J(J, values)
    return PiScalar(total, pi_leaf)


def check_v_independence(
    system: OrbitSystem,
    numerator=None,
    samples: int = 10,
    seed: int = 42,
) -> SampleOutcome:
    """Exactly verify that a localized quantity does not depend on v.

    Draws rational sample vectors deterministically from the seed, skips
    poles, and requires every accepted value to be identical (see
    sample_independent).  With ``numerator=None`` the quantity is
    localize_volume; otherwise it is localized_sum with the given
    per-orbit numerator.

    Raises InputError for fewer than 2 samples, InconsistentSamples on the
    first disagreement and AllSamplesPoles when the retry budget runs out
    before ``samples`` pole-free vectors are found.
    """
    if samples < 2:
        raise InputError("need at least 2 samples")

    def evaluate(v):
        if numerator is None:
            return localize_volume(system, v)
        return localized_sum(system, v, numerator)

    return sample_independent(evaluate, system.dim_t, samples, seed)


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


def residue_pattern_system(n: int) -> OrbitSystem:
    """Round-sphere weight pattern on n+1 coordinates with unit lengths.

    Orbit k has moment e_k^* and weights e_k^* - e_j^* (j != k), so the
    localized series coefficients reduce to the classical residue sums
    sum_k v_k^s / prod_{j != k} (v_k - v_j) checked against complete
    homogeneous polynomials.
    """
    if n < 1:
        raise InputError("n must be positive")
    d = n + 1
    ones = Vector([1] * d)
    orbits = []
    for k in range(d):
        alphas = []
        for j in range(d):
            if j == k:
                continue
            entries = [Fraction(0)] * d
            entries[k] = Fraction(1)
            entries[j] = Fraction(-1)
            alphas.append(Covector(entries))
        orbits.append(
            OrbitDatum(
                length=PiScalar(1, 0),
                moment=basis_covector(d, k),
                weights=tuple(alphas),
            )
        )
    return OrbitSystem(dim_t=d, b=ones, codim_half=n, orbits=tuple(orbits))
