"""The integer orbit-sum kernels against their Fraction oracles.

``engine._orbit_term`` (behind localize_volume, dh_series and
localize_characteristic) and ``secondary.check_w1_identity`` run on Python
ints; ``orbit_oracle`` keeps the literal Fraction loops.  Both must give the
same value at every sample, and raise PoleAtSample with the same message at
the same samples.
"""

from fractions import Fraction

import pytest

import orbit_oracle
from abbvloc import core, secondary
from abbvloc.core import PiScalar, Vector, partitions
from abbvloc.engine import (
    dh_series,
    localize_characteristic,
    localize_volume,
    weighted_sphere_system,
)
from abbvloc.errors import PoleAtSample
from abbvloc.sampling import SAMPLE_POOL, sample_vector
from abbvloc.secondary import check_w1_identity
from abbvloc.toric import orbit_system_from_cone
from conftest import make_rng, random_weights
from test_generated_cones import CASES, case_cone


def outcome(fn, *args):
    """The value of fn(*args), or ("pole", message) when it raises PoleAtSample."""
    try:
        return fn(*args)
    except PoleAtSample as exc:
        return ("pole", str(exc))


SYSTEMS = {
    **{f"sphere-{d}": (lambda d=d: weighted_sphere_system(random_weights(d, seed=d))) for d in (2, 3, 5, 8)},
    "sphere-repeated": lambda: weighted_sphere_system([1, 1, 2, Fraction(1, 3)]),
    **{f"residue-{n}": (lambda n=n: orbit_oracle.residue_pattern_system(n)) for n in (1, 3, 5)},
    **{f"cone-{k}-{a}-{b}": (lambda k=k, a=a, b=b: orbit_system_from_cone(case_cone(k, a, b, 4)[0]))
       for k, a, b in CASES},
}


# systems on which the seeded draws below hit both poles and values
POLE_RICH = ("sphere-8", "sphere-repeated", "residue-3", "cone-cube-5-None")
DRAWS = 12


class TestLocalizedSumsEqualTheOracle:
    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_every_sum_at_seeded_samples(self, name):
        system = SYSTEMS[name]()
        n = system.codim_half
        rng = make_rng(len(name))  # the name length varies the draws between systems
        poles = 0
        for draw in range(DRAWS):
            v = sample_vector(system.dim_t, rng)
            got = outcome(localize_volume, system, v)
            assert got == outcome(orbit_oracle.localize_volume, system, v)
            poles += isinstance(got, tuple)
            assert outcome(dh_series, system, v, n + 2) == \
                outcome(orbit_oracle.dh_series, system, v, n + 2)
            leaf = [PiScalar(SAMPLE_POOL[(draw + k) % len(SAMPLE_POOL)], 1)
                    for k in range(len(system.orbits))]
            for J in ((), *(J for degree in range(1, n + 1) for J in partitions(degree))):
                assert outcome(localize_characteristic, system, J, leaf, v) == \
                    outcome(orbit_oracle.localize_characteristic, system, J, leaf, v)
        if name in POLE_RICH:
            assert 0 < poles < DRAWS

    def test_pole_message_names_the_first_vanishing_weight(self):
        system = weighted_sphere_system([1, 2])
        v = Vector([1, 2])
        with pytest.raises(PoleAtSample) as exc:
            localize_volume(system, v)
        assert str(exc.value) == ("weight (Fraction(2, 1), Fraction(-1, 1)) vanishes "
                                  "at v=(Fraction(1, 1), Fraction(2, 1))")
        assert outcome(orbit_oracle.localize_volume, system, v) == ("pole", str(exc.value))

    def test_sample_of_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            localize_volume(weighted_sphere_system([1, 2, 3]), [1, 2])


class TestIntegerRows:
    def test_sphere_weight_keeps_its_two_nonzero_entries(self):
        system = weighted_sphere_system([1, Fraction(3, 2), 5, 7])
        (d0, moment), *weights = system.orbits[1].integer_rows
        assert (d0, moment) == (3, ((1, 2),))
        # (w_j / w_1) e_1^* - e_j^*: over the common denominator 3
        assert weights == [(3, ((0, -3), (1, 2))), (3, ((1, 10), (2, -3))), (3, ((1, 14), (3, -3)))]

    def test_rows_are_computed_once_per_orbit(self):
        orbit = weighted_sphere_system([1, 2, 3]).orbits[0]
        assert orbit.integer_rows is orbit.integer_rows


class TestW1IdentityEqualsTheOracle:
    def test_seeded_values_and_multiindices(self):
        rng = make_rng(17)
        pool = SAMPLE_POOL + (Fraction(0),)
        verdicts = set()
        for m in range(1, 9):
            Js = [J for degree in range(m + 3) for J in partitions(degree)]
            for trial in range(12):
                w = []
                while len(w) < m + 1:
                    x = rng.choice(pool)
                    if x not in w:
                        w.append(x)
                got = check_w1_identity(m, Js, w)
                assert got == [orbit_oracle.check_w1_identity(m, J, w) for J in Js], (m, w)
                verdicts.update(got)
        assert verdicts == {True, False}

    def test_every_partition_on_negative_and_zero_values(self):
        w = [Fraction(-1, 2), 0, 3, Fraction(-7, 3), 5]
        Js = [J for degree in range(7) for J in partitions(degree)]
        assert check_w1_identity(4, Js, w) == [orbit_oracle.check_w1_identity(4, J, w) for J in Js]

    def test_a_verdict_ignores_the_other_multiindices(self):
        # alone, among every partition of degree 0..6, and in reversed order
        w = [Fraction(1, 3), -2, 7, Fraction(5, 2)]
        Js = [J for degree in range(7) for J in partitions(degree)]
        together = check_w1_identity(3, Js, w)
        assert set(together) == {True, False}
        assert together == [check_w1_identity(3, [J], w)[0] for J in Js]
        assert check_w1_identity(3, Js[::-1], w) == together[::-1]
        assert check_w1_identity(3, [], w) == []


class TestCallCounts:
    def test_localize_volume_pairs_no_covector(self, monkeypatch):
        system = orbit_system_from_cone(case_cone("cube", 3, None, 2)[0])
        calls = []
        original = core.Covector.__call__
        monkeypatch.setattr(core.Covector, "__call__", lambda self, v: calls.append(1) or original(self, v))
        v = next(v for v in (sample_vector(system.dim_t, make_rng(s)) for s in range(100))
                 if not isinstance(outcome(orbit_oracle.localize_volume, system, v), tuple))
        calls.clear()
        localize_volume(system, v)
        assert calls == []

    def test_check_w1_identity_calls_no_s_J(self, monkeypatch):
        calls = []
        for module in (core, secondary):
            monkeypatch.setattr(module, "s_J", lambda *args: calls.append(1))
        assert check_w1_identity(3, [(1, 2)], [1, 2, 5, 7]) == [True]
        assert check_w1_identity(3, partitions(3), [1, 2, 5, 7]) == [True, True, True]
        assert calls == []
