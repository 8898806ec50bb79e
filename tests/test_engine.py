import re
from fractions import Fraction
from math import factorial

import pytest

import orbit_oracle
from abbvloc.core import Covector, PiScalar, Vector
from abbvloc.engine import (
    OrbitDatum,
    OrbitSystem,
    check_v_independence,
    dh_series,
    localize_characteristic,
    localize_volume,
    weighted_sphere_system,
)
from abbvloc.errors import (
    AllSamplesPoles,
    InconsistentSamples,
    InputError,
    MixedPiPowers,
    PoleAtSample,
)
from abbvloc.sampling import sample_independent, sample_vector
from conftest import make_rng, random_weights
from orbit_oracle import complete_homogeneous, orbit_datum, residue_pattern_system


def sphere_closed_form(weights):
    n = len(weights) - 1
    product = Fraction(1)
    for w in weights:
        product *= Fraction(w)
    return PiScalar(Fraction(2) / (factorial(n) * product), n + 1)


def nonpole_sample(system, rng):
    while True:
        v = sample_vector(system.dim_t, rng)
        try:
            localize_volume(system, v)
            return v
        except PoleAtSample:
            continue


def single_orbit_system():
    # one sphere orbit with its partner removed; genuinely v-dependent
    orbit = orbit_datum(PiScalar(2, 1), Covector([1, 0]), (Covector([2, -1]),))
    return OrbitSystem(dim_t=2, b=Vector([1, 2]), codim_half=1, orbits=(orbit,))


def orbit(moment, *weights):
    return orbit_datum(PiScalar(2, 1), moment, weights)


class TestOrbitSystemInvariants:
    def test_weight_must_annihilate_reeb(self):
        with pytest.raises(InputError, match="^orbit 0: weight 0 does not annihilate the Reeb vector$"):
            OrbitSystem(dim_t=2, b=Vector([1, 2]), codim_half=1, orbits=(orbit([1, 0], [1, 1]),))

    def test_moment_must_pair_to_one(self):
        with pytest.raises(InputError, match="^orbit 0: moment must pair to 1 with the Reeb vector$"):
            OrbitSystem(dim_t=2, b=Vector([1, 2]), codim_half=1, orbits=(orbit([1, 1], [2, -1]),))

    def test_zero_weight_rejected(self):
        with pytest.raises(InputError, match="^orbit 0: weight 0 is identically zero$"):
            OrbitSystem(dim_t=2, b=Vector([1, 2]), codim_half=1, orbits=(orbit([1, 0], [0, 0]),))

    def test_weight_count_must_match(self):
        with pytest.raises(InputError, match="^orbit 0: expected 2 weights, got 1$"):
            OrbitSystem(dim_t=2, b=Vector([1, 2]), codim_half=2, orbits=(orbit([1, 0], [2, -1]),))

    def test_orbit_datum_views_are_its_rows_as_covectors(self):
        rows = ((2, ((0, 1),), 2), (2, ((0, 4), (1, -1)), 2))
        datum = OrbitDatum(length=PiScalar(2, 1), integer_rows=rows)
        assert datum.integer_rows is rows
        assert type(datum.moment) is Covector and type(datum.weights[0]) is Covector
        assert datum.moment == (Fraction(1, 2), 0)
        assert datum.weights == ((2, Fraction(-1, 2)),)
        assert orbit([Fraction(1, 2), 0], [2, Fraction(-1, 2)]) == datum
        with pytest.raises(AttributeError):
            datum.moment = Covector([1, 0])

    @pytest.mark.parametrize("weight", [[2, -1, 5], [2, -1, 0], [2], []])
    def test_weight_of_wrong_length_rejected(self, weight):
        # checked before the pairing, which would index past b or miss entries
        with pytest.raises(InputError, match="^orbit 0: weight 0 has wrong dimension$"):
            OrbitSystem(dim_t=2, b=Vector([1, 2]), codim_half=1, orbits=(orbit([1, 0], weight),))

    @pytest.mark.parametrize("moment", [[1, 0, 3], [1]])
    def test_moment_of_wrong_length_rejected(self, moment):
        with pytest.raises(InputError, match="^orbit 0: moment has wrong dimension$"):
            OrbitSystem(dim_t=2, b=Vector([1, 2]), codim_half=1, orbits=(orbit(moment, [2, -1]),))

    @pytest.mark.parametrize("codim_half,orbits,message", [
        # the moment's length before the weight count
        (2, (orbit([1, 0]),), "orbit 0: moment has wrong dimension"),
        # the weight count before the moment's pairing
        (2, (orbit([1, 1, 1], [2, -1, 0]),), "orbit 0: expected 2 weights, got 1"),
        # the moment's pairing before any weight's check
        (1, (orbit([1, 1, 1], [0, 0, 0]),),
         "orbit 0: moment must pair to 1 with the Reeb vector"),
        # a weight's length before its zero check
        (1, (orbit([1, 0, 0], [0, 0, 0, 0]),), "orbit 0: weight 0 has wrong dimension"),
        # a weight's zero check before the next weight's, weights in order
        (2, (orbit([1, 0, 0], [0, 0, 0], [1, 1, 1]),),
         "orbit 0: weight 0 is identically zero"),
        (2, (orbit([1, 0, 0], [1, 1, 1], [2, -1]),),
         "orbit 0: weight 0 does not annihilate the Reeb vector"),
        # orbits in order
        (2, (orbit([1, 0, 0], [2, -1, 0], [0, 0, 0]), orbit([1, 0], [2, -1])),
         "orbit 0: weight 1 is identically zero"),
    ])
    def test_first_fault_in_check_order(self, codim_half, orbits, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            OrbitSystem(dim_t=3, b=Vector([1, 2, 3]), codim_half=codim_half, orbits=orbits)


class TestLocalizedSum:
    """localize_volume term by term: l_k moment_k(v)^n / (n! prod_j a_j^k(v))."""

    def test_single_term(self):
        system = single_orbit_system()
        # at (1, 1): l = 2, moment = 1, weight = 1, n = 1
        assert localize_volume(system, Vector([1, 1])) == PiScalar(2, 2)

    def test_zero_numerator(self):
        orbit = orbit_datum(PiScalar(2, 1), Covector([0, 1]), (Covector([1, -1]),))
        system = OrbitSystem(dim_t=2, b=Vector([1, 1]), codim_half=1, orbits=(orbit,))
        # the moment vanishes at (1, 0), so the only term is 0
        assert localize_volume(system, Vector([1, 0])) == PiScalar(0, 0)

    def test_pole_at_sample(self):
        system = single_orbit_system()
        with pytest.raises(PoleAtSample):
            localize_volume(system, Vector([1, 2]))

    def test_mixed_pi_powers(self):
        orbits = (
            orbit_datum(PiScalar(2, 1), Covector([1, 0]), (Covector([2, -1]),)),
            orbit_datum(PiScalar(1, 0), Covector([0, Fraction(1, 2)]), (Covector([-1, Fraction(1, 2)]),)),
        )
        system = OrbitSystem(dim_t=2, b=Vector([1, 2]), codim_half=1, orbits=orbits)
        # raised at the first evaluation, and again at the next: not kept
        for evaluate in (lambda v: localize_volume(system, v), lambda v: dh_series(system, v, 2)) * 2:
            with pytest.raises(MixedPiPowers):
                evaluate(Vector([1, 1]))


class TestSphereVolume:
    def test_weighted_s3_pointwise(self):
        system = weighted_sphere_system([1, 2])
        assert localize_volume(system, Vector([1, 0])) == PiScalar(1, 2)

    def test_weighted_s5_with_tied_weights(self):
        system = weighted_sphere_system([1, 1, 2])
        rng = make_rng(3)
        v = nonpole_sample(system, rng)
        assert localize_volume(system, v) == PiScalar(Fraction(1, 2), 3)

    def test_round_sphere_rejected(self):
        with pytest.raises(InputError):
            weighted_sphere_system([1, 1])
        with pytest.raises(InputError):
            weighted_sphere_system([3, 3, 3])

    def test_closed_form_random_weights(self):
        rng = make_rng(5)
        for n in range(1, 5):
            for trial in range(5):
                w = random_weights(n + 1, seed=100 * n + trial)
                system = weighted_sphere_system(w)
                v = nonpole_sample(system, rng)
                assert localize_volume(system, v) == sphere_closed_form(w)

    def test_scaling_covariance(self):
        # scaling every weight by c scales the volume by c^(-n)
        system = weighted_sphere_system([1, 2, 5])
        n = system.codim_half
        for c in (Fraction(2), Fraction(-1, 3), Fraction(7, 2)):
            scaled = OrbitSystem(
                dim_t=system.dim_t,
                b=system.b,
                codim_half=n,
                orbits=tuple(
                    orbit_datum(o.length, o.moment, [Covector(c * x for x in a) for a in o.weights])
                    for o in system.orbits
                ),
            )
            rng = make_rng(7)
            v = nonpole_sample(system, rng)
            volume = localize_volume(system, v)
            assert localize_volume(scaled, v) == PiScalar(volume.coeff * c**-n, volume.pi_power)


class TestVIndependence:
    def test_sphere_consistent(self):
        system = weighted_sphere_system([1, 2])
        outcome = check_v_independence(system, samples=10, seed=42)
        assert outcome.value == PiScalar(1, 2)
        assert len(outcome.samples_used) == 10

    def test_two_samples_trivial(self):
        system = weighted_sphere_system([1, 2])
        outcome = check_v_independence(system, samples=2, seed=1)
        assert outcome.value == PiScalar(1, 2)

    def test_single_orbit_inconsistent(self):
        with pytest.raises(InconsistentSamples) as info:
            check_v_independence(single_orbit_system(), samples=10, seed=42)
        err = info.value
        assert err.value_a != err.value_b

    def test_numerator_mode(self):
        # the Fraction oracle's volume sum, sampled outside the engine's
        # check, gives the same v-independent value
        system = weighted_sphere_system([1, 2])
        outcome = sample_independent(
            lambda v: orbit_oracle.localize_volume(system, v), system.dim_t, 6, seed=9
        )
        assert outcome.value == PiScalar(1, 2)

    def test_requires_two_samples(self):
        with pytest.raises(InputError):
            check_v_independence(weighted_sphere_system([1, 2]), samples=1)

    def test_all_samples_poles_budget(self):
        # requesting as many samples as the draw budget makes any pole a
        # shortfall
        with pytest.raises(AllSamplesPoles):
            check_v_independence(weighted_sphere_system([1, 2]), samples=100, seed=0)

    def test_deterministic_for_seed(self):
        system = weighted_sphere_system([2, 3, 7])
        a = check_v_independence(system, samples=8, seed=123)
        b = check_v_independence(system, samples=8, seed=123)
        assert a.samples_used == b.samples_used
        assert a.value == b.value


class TestDHSeries:
    def test_order_zero_definition(self):
        system = weighted_sphere_system([1, 2])
        v = Vector([1, 0])
        c0 = dh_series(system, v, 0)[0]
        total = Fraction(0)
        for orbit in system.orbits:
            denom = Fraction(1)
            for a in orbit.weights:
                denom *= a(v)
            total += orbit.length.coeff / denom
        assert c0 == PiScalar(total, 2)

    def test_low_coefficients_vanish_on_spheres(self):
        for w in ([1, 2], [1, 2, 5], [2, 3, 5, 7]):
            system = weighted_sphere_system(w)
            n = system.codim_half
            rng = make_rng(11)
            v = nonpole_sample(system, rng)
            coeffs = dh_series(system, v, n)
            for s in range(n):
                assert coeffs[s].is_zero
            assert coeffs[n] == localize_volume(system, v)

    def test_residue_pattern_small_cases(self):
        system = residue_pattern_system(1)
        v = Vector([1, 2])
        coeffs = dh_series(system, v, 2)
        # s = 1 gives h_0 = 1, s = 2 gives h_1 = 3
        assert coeffs[1] == PiScalar(Fraction(1, factorial(1)), 1)
        assert coeffs[2] == PiScalar(Fraction(3, factorial(2)), 1)

    def test_residue_identity_vs_bruteforce(self):
        for n in range(1, 5):
            system = residue_pattern_system(n)
            rng = make_rng(13 + n)
            v = nonpole_sample(system, rng)
            coeffs = dh_series(system, v, n + 4)
            for s in range(n + 5):
                expected = complete_homogeneous(s - n, v) / factorial(s)
                assert coeffs[s] == PiScalar(expected, n)

    def test_pole_raises(self):
        system = residue_pattern_system(2)
        with pytest.raises(PoleAtSample):
            dh_series(system, Vector([1, 1, 2]), 3)


class TestLocalizeCharacteristic:
    def test_top_index_collapses_to_sum(self):
        system = weighted_sphere_system([1, 2, 4])
        n = system.codim_half
        leaf = [PiScalar(3, 0), PiScalar(-1, 0), PiScalar(Fraction(7, 2), 0)]
        expected = PiScalar(3 - 1 + Fraction(7, 2), 0)
        rng = make_rng(17)
        for _ in range(20):
            v = nonpole_sample(system, rng)
            assert localize_characteristic(system, (n,), leaf, v) == expected

    def test_empty_index_direct_formula(self):
        system = weighted_sphere_system([1, 3])
        leaf = [PiScalar(1, 0), PiScalar(2, 0)]
        v = Vector([1, 0])
        direct = Fraction(0)
        for orbit, l in zip(system.orbits, leaf):
            prod = Fraction(1)
            for a in orbit.weights:
                prod *= a(v)
            direct += l.coeff / prod
        assert localize_characteristic(system, (), leaf, v) == PiScalar(direct, 0)

    def test_degree_bound(self):
        system = weighted_sphere_system([1, 2])
        leaf = [PiScalar(1, 0), PiScalar(1, 0)]
        with pytest.raises(InputError):
            localize_characteristic(system, (2,), leaf, Vector([1, 0]))

    def test_leaf_count_checked(self):
        system = weighted_sphere_system([1, 2])
        with pytest.raises(InputError):
            localize_characteristic(system, (1,), [PiScalar(1, 0)], Vector([1, 0]))
