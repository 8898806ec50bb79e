"""The integer orbit-sum kernels against their Fraction oracles.

``engine._orbit_term`` (behind localize_volume, dh_series and
localize_characteristic) and ``secondary.check_w1_identity`` run on Python
ints; ``orbit_oracle`` keeps the literal Fraction loops.  Both must give the
same value at every sample, and raise PoleAtSample with the same message at
the same samples.  Each row of ``OrbitDatum.integer_rows`` comes from
``engine._row``, which scales the nonzero entries alone; it must equal the
oracle's dense row with its zeros dropped and its length appended.
"""

import collections
import json
import sys
from fractions import Fraction
from math import factorial, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbit_oracle
from abbvloc import core, engine, secondary
from abbvloc.cli import _load_orbit_system, main
from abbvloc.core import Covector, PiScalar, Vector, canonical_multiindex, partitions
from abbvloc.engine import (
    _row,
    check_v_independence,
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
from test_cli_golden import cube_cone_doc, sphere_system_doc
from test_generated_cones import CASES, case_cone


def outcome(fn, *args):
    """The value of fn(*args), or ("pole", message) when it raises PoleAtSample."""
    try:
        return fn(*args)
    except PoleAtSample as exc:
        return ("pole", str(exc))


def pole_free_sample(system, rng):
    """The first sample drawn from rng at which the oracle volume has no pole."""
    while True:
        v = sample_vector(system.dim_t, rng)
        if not isinstance(outcome(orbit_oracle.localize_volume, system, v), tuple):
            return v


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
        (d0, moment, d), *weights = system.orbits[1].integer_rows
        assert (d0, moment, d) == (3, ((1, 2),), 4)
        # (w_j / w_1) e_1^* - e_j^*: over the common denominator 3
        assert weights == [(3, ((0, -3), (1, 2)), 4), (3, ((1, 10), (2, -3)), 4),
                           (3, ((1, 14), (3, -3)), 4)]

    @pytest.mark.parametrize("k", [3, 5])
    def test_volume_toric_builds_each_orbit_once(self, capsys, tmp_path, monkeypatch, k):
        """volume-toric on cube cone k (2^k vertices, n = k) builds one
        OrbitDatum per vertex and calls engine._row n + 1 times per vertex,
        under every name the package binds it to."""
        path = tmp_path / "cube.json"
        path.write_text(json.dumps(cube_cone_doc(k)))
        calls = collections.Counter()
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("abbvloc") and getattr(module, "_row", None) is _row:
                monkeypatch.setattr(module, "_row", lambda *args: calls.update(["_row"]) or _row(*args))
        init = engine.OrbitDatum.__init__
        monkeypatch.setattr(engine.OrbitDatum, "__init__",
                            lambda datum, *args: calls.update(["OrbitDatum"]) or init(datum, *args))
        assert main(["volume-toric", "--input", str(path), "--json", "--seed", "42"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"][1]["pass"]
        assert calls == {"OrbitDatum": 2**k, "_row": 2**k * (k + 1)}

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6), count=st.integers(0, 4))
    def test_rows_equal_the_dense_oracle(self, data, dim, count):
        entry = st.one_of(
            st.sampled_from(["0", "0/7", "-0", " 0 "]),
            st.integers(-9, 9).map(str),
            st.fractions(min_value=-20, max_value=20, max_denominator=12).map(str),
        )
        covector = st.lists(entry, min_size=dim, max_size=dim)
        moment = data.draw(covector)
        weights = [data.draw(covector) for _ in range(count)]
        orbit = orbit_oracle.orbit_datum(PiScalar(1, 1), moment, weights)
        # the views hand the oracle the covectors drawn, and it scales them densely
        assert (orbit.moment, *orbit.weights) == tuple(map(Covector, (moment, *weights)))
        assert orbit.integer_rows == tuple((D, A, dim) for D, A in orbit_oracle.integer_rows(orbit))

    @staticmethod
    def assert_row_is_the_dense_oracle(row, dense):
        """``row`` is the oracle's row of the covector ``dense``, scaled
        over all its entries, with its length appended."""
        ((scale, entries),) = orbit_oracle.integer_rows(SimpleNamespace(moment=dense, weights=()))
        assert row == (scale, entries, len(dense))

    @settings(max_examples=200, deadline=None)
    @given(entries=st.lists(st.integers(-40, 40), max_size=8),
           t=st.integers(-60, 60).filter(bool))
    def test_row_over_t_equals_the_dense_oracle(self, entries, t):
        """An integer row over a positive or negative t, as the walk's
        dictionary rows are: D > 0 and the row in lowest terms."""
        dense = Covector(Fraction(e, t) for e in entries)
        self.assert_row_is_the_dense_oracle(_row(entries, t), dense)
        self.assert_row_is_the_dense_oracle(_row(tuple(entries), t), dense)

    @settings(max_examples=200, deadline=None)
    @given(entries=st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                            max_size=8))
    def test_rational_row_equals_the_dense_oracle(self, entries):
        self.assert_row_is_the_dense_oracle(_row(entries), Covector(entries))
        self.assert_row_is_the_dense_oracle(_row(Covector(entries)), Covector(entries))

    @settings(max_examples=50, deadline=None)
    @given(dim=st.integers(0, 8), t=st.integers(-9, 9).filter(bool))
    def test_zero_and_empty_rows_equal_the_dense_oracle(self, dim, t):
        """No nonzero entry: D = 1 and no entries, at any t and length."""
        dense = Covector([0] * dim)
        for entries in ([0] * dim, [Fraction(0)] * dim):
            self.assert_row_is_the_dense_oracle(_row(entries, t), dense)
            self.assert_row_is_the_dense_oracle(_row(entries), dense)
        assert _row([0] * dim, t) == (1, (), dim)


positive_rationals = st.builds(Fraction, st.integers(1, 40), st.integers(1, 6))


class TestSphereSystems:
    @settings(max_examples=25, deadline=None)
    @given(w=st.lists(positive_rationals, min_size=2, max_size=16, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_builder_and_loader_agree_with_the_oracle(self, w, seed):
        built = weighted_sphere_system(w)
        loaded = _load_orbit_system(sphere_system_doc(w))
        assert built == loaded
        assert [o.integer_rows for o in built.orbits] == [o.integer_rows for o in loaded.orbits]
        v = pole_free_sample(built, make_rng(seed))
        d = len(w)
        want = PiScalar(Fraction(2, factorial(d - 1) * prod(w)), d)
        assert orbit_oracle.localize_volume(built, v) == want
        assert localize_volume(built, v) == localize_volume(loaded, v) == want


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

    def test_multiindices_are_canonicalized_or_refused(self):
        w = [1, 2, 5, Fraction(7, 2)]
        Js = [(2, 1), ["1", 1, True], (1, 1), (4,)]
        assert check_w1_identity(3, Js, w) == check_w1_identity(3, [(1, 2), (1, 1, 1), (1, 1), (4,)], w)
        for J in ((1, 2, 0), (-1, 4)):
            with pytest.raises(ValueError, match="positive integers"):
                check_w1_identity(3, [(1, 2), J], w)

    def test_partitions_are_canonical_already(self):
        # check-w1 validates its multiindices once, where partitions builds
        # them: canonicalizing one again returns it as it is
        for J in partitions(6):
            assert canonical_multiindex(J) is J

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

    def test_one_fraction_per_localized_sum(self, monkeypatch):
        system = weighted_sphere_system(random_weights(12, seed=12))
        v = pole_free_sample(system, make_rng(12))
        leaf = [PiScalar(k + 1, 0) for k in range(12)]
        volume = orbit_oracle.localize_volume(system, v)
        characteristic = orbit_oracle.localize_characteristic(system, (1, 10), leaf, v)
        calls = []
        monkeypatch.setattr(engine, "Fraction", lambda *args: calls.append(args) or Fraction(*args))
        assert localize_volume(system, v) == volume
        assert len(calls) == 1
        calls.clear()
        assert localize_characteristic(system, (1, 10), leaf, v) == characteristic
        assert len(calls) == 1

    def test_lengths_are_graded_once_per_system(self, monkeypatch):
        system = weighted_sphere_system(random_weights(6, seed=6))
        calls = []
        original = engine._pi_grading
        monkeypatch.setattr(engine, "_pi_grading", lambda scalars: calls.append(1) or original(scalars))
        assert len(check_v_independence(system, samples=10, seed=6).samples_used) == 10
        assert calls == [1]

    def test_check_w1_identity_calls_no_s_J(self, monkeypatch):
        calls = []
        for module in (core, secondary):
            monkeypatch.setattr(module, "s_J", lambda *args: calls.append(1))
        assert check_w1_identity(3, [(1, 2)], [1, 2, 5, 7]) == [True]
        assert check_w1_identity(3, partitions(3), [1, 2, 5, 7]) == [True, True, True]
        assert calls == []
