from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from abbvloc import core
from abbvloc.core import Covector, PiScalar, Vector
from abbvloc.errors import DegenerateReeb, InputError, PoleAtSample
from abbvloc.engine import OrbitSystem, localize_volume
from abbvloc.homogeneous import (
    RootData,
    homogeneous_volume,
    root_data_system,
    stiefel_closed_form,
    stiefel_four_sum,
    stiefel_so5_so3,
)
from abbvloc.sampling import SAMPLE_POOL, sample_vector
from conftest import make_rng, random_matrix
from matrix_oracle import apply, elimination_det
from root_data_oracle import CONJUGATOR, conjugate, fraction_root_data_system, root_data_volume


def nonpole_pair(rng):
    """A deformation (x, y, z) off the walls plus a pole-free sample."""
    while True:
        xyz = sample_vector(3, rng)
        x, y, z = xyz
        if z**2 == x**2 or z**2 == y**2:
            continue
        for _ in range(50):
            abc = sample_vector(3, rng)
            try:
                stiefel_four_sum(xyz, abc)
                return xyz, abc
            except PoleAtSample:
                continue


class TestStiefel:
    def test_undeformed_value(self):
        expected = PiScalar(Fraction(2, 3), 4)
        assert stiefel_four_sum([0, 0, 1], [1, 2, 5]) == expected
        assert stiefel_closed_form([0, 0, 1]) == expected
        fixture = stiefel_so5_so3()
        assert homogeneous_volume(fixture, Vector([0, 0, 1]), Vector([1, 2, 5])) == expected

    def test_closed_form_random(self):
        rng = make_rng(3)
        fixture = stiefel_so5_so3()
        for _ in range(20):
            xyz, abc = nonpole_pair(rng)
            expected = stiefel_closed_form(xyz)
            assert stiefel_four_sum(xyz, abc) == expected
            assert homogeneous_volume(fixture, Vector(xyz), Vector(abc)) == expected

    def test_sample_independence(self):
        rng = make_rng(5)
        xyz = Vector([1, 2, 5])
        values = set()
        found = 0
        while found < 10:
            abc = sample_vector(3, rng)
            try:
                values.add(stiefel_four_sum(xyz, abc))
            except PoleAtSample:
                continue
            found += 1
        assert values == {stiefel_closed_form(xyz)}

    def test_wall_is_a_pole(self):
        with pytest.raises(PoleAtSample):
            stiefel_four_sum([1, 2, 1], [1, 2, 5])
        with pytest.raises(PoleAtSample):
            stiefel_closed_form([1, 2, 2])

    def test_factor_pole(self):
        # r1 = a + (a-c)/(z-x) * x vanishes for this combination
        with pytest.raises(PoleAtSample):
            stiefel_four_sum([1, 2, 3], [1, 5, 3])


class TestRootDataEngine:
    def test_degenerate_reeb(self):
        fixture = stiefel_so5_so3()
        # projection of (1, 0, 1) along the identity representative is 0
        with pytest.raises(DegenerateReeb):
            homogeneous_volume(fixture, Vector([1, 0, 1]), Vector([1, 2, 5]))

    def test_projection_must_normalize_reeb(self):
        with pytest.raises(InputError):
            RootData(
                dim_t=2,
                roots_quotient=(Covector([1, 0]),),
                weyl_reps=(((1, 0), (0, 1)),),
                b=Vector([0, 1]),
                projection=Covector([1, 0]),
            )

    def test_rep_shape_checked(self):
        with pytest.raises(InputError):
            RootData(
                dim_t=3,
                roots_quotient=(Covector([1, 0, 0]),),
                weyl_reps=(((1, 0), (0, 1)),),
                b=Vector([0, 0, 1]),
                projection=Covector([-1, 0, 1]),
            )

    def test_dimension_checked(self):
        fixture = stiefel_so5_so3()
        with pytest.raises(InputError):
            homogeneous_volume(fixture, Vector([1, 2]), Vector([1, 2, 5]))


def outcome(evaluate, *args):
    """The value, or the type of the LocalizationError raised."""
    try:
        return evaluate(*args)
    except (DegenerateReeb, PoleAtSample) as exc:
        return type(exc)


class TestRootDataSystem:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_equals_the_per_representative_oracle(self, seed):
        """Seeded (b', v) on the Stiefel fixture: the same values, and
        PoleAtSample on exactly the same samples.  A degenerate b' is
        refused before any sample; the oracle, which meets the
        representatives one by one, raises at every sample too."""
        rng = make_rng(seed)
        fixture = stiefel_so5_so3()
        seen = set()
        for _ in range(150):
            b_prime, v = sample_vector(3, rng), sample_vector(3, rng)
            expected = outcome(root_data_volume, fixture, b_prime, v)
            got = outcome(homogeneous_volume, fixture, b_prime, v)
            if got is DegenerateReeb:
                assert expected in (DegenerateReeb, PoleAtSample)
            else:
                assert got == expected
            seen.add(got if isinstance(got, type) else PiScalar)
        assert seen == {PiScalar, PoleAtSample, DegenerateReeb}

    def test_equals_the_oracle_on_random_root_data(self):
        """Rational Weyl representatives and roots: the same comparison
        away from the Stiefel fixture's signed permutations."""
        rng = make_rng(11)
        compared = 0
        for d in (2, 3, 3, 4):
            b = sample_vector(d, rng)
            p = Covector(sample_vector(d, rng))
            if p(b) == 0:
                continue
            rd = RootData(
                dim_t=d,
                roots_quotient=tuple(Covector(sample_vector(d, rng)) for _ in range(d - 1)),
                weyl_reps=tuple(random_matrix(d, rng, allow_zero=False) for _ in range(3)),
                b=b,
                projection=Covector(x / p(b) for x in p),
            )
            for _ in range(20):
                b_prime, v = sample_vector(d, rng), sample_vector(d, rng)
                expected = outcome(root_data_volume, rd, b_prime, v)
                got = outcome(homogeneous_volume, rd, b_prime, v)
                if got is DegenerateReeb:
                    assert expected in (DegenerateReeb, PoleAtSample)
                else:
                    assert got == expected
                compared += not isinstance(expected, type)
        assert compared > 20

    def test_undeformed_system(self):
        system = root_data_system(stiefel_so5_so3(), Vector([0, 0, 1]))
        assert system.codim_half == 3
        assert len(system.orbits) == 4
        assert {o.length for o in system.orbits} == {PiScalar(-2, 1)}

    def test_no_roots_refused(self):
        """No roots: every sample would give -2 pi times the sum of the
        inverse projections, a value with no v in it."""
        fixture = stiefel_so5_so3()
        rd = RootData(fixture.dim_t, (), fixture.weyl_reps, fixture.b, fixture.projection)
        with pytest.raises(InputError):
            root_data_system(rd, Vector([1, 2, 5]))

    def test_root_proportional_to_projection_refused(self):
        """A root proportional to p gives an identically zero weight: a
        pole at every sample."""
        fixture = stiefel_so5_so3()
        roots = fixture.roots_quotient + (Covector(2 * x for x in fixture.projection),)
        rd = RootData(fixture.dim_t, roots, fixture.weyl_reps, fixture.b, fixture.projection)
        with pytest.raises(InputError):
            root_data_system(rd, Vector([1, 2, 5]))

    def test_singular_weyl_representative_named(self):
        """A singular representative is an input error that names its index,
        raised as the oracle raises it."""
        fixture = stiefel_so5_so3()
        singular = ((0, 1, 0), (0, 1, 0), (0, 0, 1))
        for k in range(len(fixture.weyl_reps) + 1):
            reps = fixture.weyl_reps[:k] + (singular,) + fixture.weyl_reps[k:]
            rd = RootData(fixture.dim_t, fixture.roots_quotient, reps, fixture.b,
                          fixture.projection)
            for volume in (homogeneous_volume, root_data_volume):
                with pytest.raises(InputError, match=rf"^weyl_reps\[{k}\] is singular$"):
                    volume(rd, Vector([0, 0, 1]), Vector([1, 2, 5]))


def built(builder, rd, b_prime):
    """The orbit system, or the type and message of the InputError or
    DegenerateReeb raised."""
    try:
        return builder(rd, b_prime)
    except (DegenerateReeb, InputError) as exc:
        return type(exc), str(exc)


RATIONAL = st.sampled_from((Fraction(0),) + SAMPLE_POOL)


@st.composite
def rational_root_data(draw):
    """Root data of dimension 2..5 with d - 1 rational roots, p(b) = 1 and
    one to three rational representatives, none of determinant +-1 (so
    singular ones are drawn too), and a rational b'."""
    d = draw(st.integers(2, 5))
    vector = st.lists(RATIONAL, min_size=d, max_size=d)
    matrix = st.lists(vector, min_size=d, max_size=d).filter(
        lambda w: abs(elimination_det(w)) != 1)
    b, p = draw(vector), draw(vector)
    pb = sum(x * y for x, y in zip(p, b))
    assume(pb != 0)
    rd = RootData(
        dim_t=d,
        roots_quotient=tuple(draw(vector) for _ in range(d - 1)),
        weyl_reps=tuple(draw(st.lists(matrix, min_size=1, max_size=3))),
        b=b,
        projection=[x / pb for x in p],
    )
    return rd, Vector(draw(vector))


class TestIntegerRootData:
    """root_data_system reduces (w^T | p r_1 ... r_m) once per
    representative on integers; the Fraction builder pairs the columns of
    w^-1.  The two give the same rows, lengths and errors."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_equals_the_fraction_builder_on_the_fixture(self, seed):
        """Seeded b' on the Stiefel fixture and on its conjugate by a
        rational g, whose representatives are not integral."""
        rng = make_rng(seed)
        fixture = stiefel_so5_so3()
        conjugated = conjugate(fixture, CONJUGATOR)
        seen = set()
        for _ in range(60):
            b_prime = sample_vector(3, rng)
            for rd, at in ((fixture, b_prime), (conjugated, Vector(apply(CONJUGATOR, b_prime)))):
                got = built(root_data_system, rd, at)
                assert got == built(fraction_root_data_system, rd, at)
                seen.add(got[0] if isinstance(got, tuple) else type(got))
        assert seen == {OrbitSystem, DegenerateReeb}

    @settings(max_examples=150, deadline=None)
    @given(rational_root_data())
    def test_equals_the_fraction_builder_on_rational_root_data(self, drawn):
        rd, b_prime = drawn
        got = built(root_data_system, rd, b_prime)
        assert got == built(fraction_root_data_system, rd, b_prime)
        event(f"d={rd.dim_t} " + (got[1] if isinstance(got, tuple) else "system"))

    @pytest.mark.parametrize("b_prime", [(Fraction(3, 2), Fraction(1, 3), 5), (1, 2, 5),
                                         (Fraction(-2, 3), 4, Fraction(7, 5))])
    def test_conjugated_datum_keeps_the_volume(self, b_prime):
        """The fixture carried by g has, at g b', the Stiefel closed form
        at b'."""
        rd = conjugate(stiefel_so5_so3(), CONJUGATOR)
        system = root_data_system(rd, Vector(apply(CONJUGATOR, b_prime)))
        v = next(v for v in (sample_vector(3, make_rng(s)) for s in range(100))
                 if not isinstance(outcome(localize_volume, system, v), type))
        assert localize_volume(system, v) == stiefel_closed_form(b_prime)

    def test_no_covector_pairing(self, monkeypatch):
        """Once the RootData is built (its p(b) = 1 check pairs once), the
        orbit system pairs no Covector."""
        for rd in (stiefel_so5_so3(), conjugate(stiefel_so5_so3(), CONJUGATOR)):
            calls = []
            original = core.Covector.__call__
            monkeypatch.setattr(core.Covector, "__call__",
                                lambda self, v: calls.append(1) or original(self, v))
            root_data_system(rd, Vector([1, 2, 5]))
            monkeypatch.undo()
            assert calls == []
