from fractions import Fraction

import pytest

from abbvloc import secondary
from abbvloc.core import Vector, partitions, s_J
from abbvloc.errors import InputError, PoleAtSample
from abbvloc.sampling import sample_vector
from abbvloc.secondary import (
    WeightedSphereFoliation,
    asuke_closed_form,
    asuke_number,
    check_w1_identity,
    u1_leaf_integrals,
)
from conftest import make_rng, random_weights


def nonpole_asuke(foliation, J, rng):
    while True:
        v = sample_vector(foliation.m + 1, rng)
        try:
            return asuke_number(foliation, J, v)
        except PoleAtSample:
            continue


class TestFoliation:
    def test_distinctness_required(self):
        with pytest.raises(InputError):
            WeightedSphereFoliation(m=2, w=(1, 1, 2))
        with pytest.raises(InputError):
            WeightedSphereFoliation(m=1, w=(1, 1))

    def test_positivity_required(self):
        with pytest.raises(InputError):
            WeightedSphereFoliation(m=1, w=(1, -2))

    def test_weight_count(self):
        with pytest.raises(InputError):
            WeightedSphereFoliation(m=2, w=(1, 2))


class TestLeafIntegrals:
    def test_pair(self):
        f = WeightedSphereFoliation(m=1, w=(1, 2))
        assert u1_leaf_integrals(f) == [3, Fraction(3, 2)]

    def test_triple(self):
        f = WeightedSphereFoliation(m=2, w=(1, 2, 3))
        assert u1_leaf_integrals(f) == [6, 3, 2]


class TestAsukeNumbers:
    def test_spot_value_9_over_2(self):
        f = WeightedSphereFoliation(m=1, w=(1, 2))
        assert asuke_number(f, (1,), Vector([1, 3])) == Fraction(9, 2)
        assert asuke_number(f, (1,), Vector([2, -1])) == Fraction(9, 2)

    def test_spot_value_m2(self):
        f = WeightedSphereFoliation(m=2, w=(1, 2, 4))
        rng = make_rng(3)
        assert nonpole_asuke(f, (2,), rng) == Fraction(49, 4)
        assert asuke_closed_form(f, (2,)) == Fraction(49, 4)

    def test_degree_must_match(self):
        f = WeightedSphereFoliation(m=2, w=(1, 2, 4))
        with pytest.raises(InputError):
            asuke_number(f, (1,), Vector([1, 2, 3]))

    def test_localized_equals_closed_form(self):
        rng = make_rng(5)
        for m in range(1, 5):
            w = random_weights(m + 1, seed=900 + m)
            f = WeightedSphereFoliation(m=m, w=w)
            for J in partitions(m):
                closed = asuke_closed_form(f, J)
                for _ in range(5):
                    assert nonpole_asuke(f, J, rng) == closed

    def test_top_index_collapse(self):
        # with J = (m) the localized sum is the plain sum of the leaf
        # integrals, which must match s_1 s_m / s_(m+1)
        for m in range(1, 5):
            w = random_weights(m + 1, seed=700 + m)
            f = WeightedSphereFoliation(m=m, w=w)
            total = sum(u1_leaf_integrals(f), Fraction(0))
            assert total == asuke_closed_form(f, (m,))
            rng = make_rng(11 + m)
            assert nonpole_asuke(f, (m,), rng) == total

    def test_sphere_system_built_once_per_foliation(self, monkeypatch):
        calls = []
        original = secondary.weighted_sphere_system
        monkeypatch.setattr(secondary, "weighted_sphere_system", lambda w: calls.append(w) or original(w))
        f = WeightedSphereFoliation(m=2, w=(1, 2, 4))
        rng = make_rng(3)
        for J in ((1, 1), (2,), (1, 1)):
            nonpole_asuke(f, J, rng)
        assert calls == [f.w]


class TestW1Identity:
    def test_two_variables_symbolic_case(self):
        # for J=(1) the sum telescopes to w0 + w1
        assert check_w1_identity(1, [(1,)], [Fraction(3, 2), Fraction(-5)]) == [True]

    def test_small_random_sweep(self):
        for m in range(1, 4):
            for trial in range(10):
                w = random_weights(m + 1, seed=m * 100 + trial)
                assert check_w1_identity(m, partitions(m), w) == [True] * len(partitions(m))

    @pytest.mark.parametrize("w", [[1, 1], [Fraction(1, 2), "2/4"], ["1/3", "-2/3", "1/3"]])
    def test_repeated_values_rejected(self, w):
        with pytest.raises(InputError, match="values must be pairwise distinct"):
            check_w1_identity(len(w) - 1, [(1,)], w)

    @pytest.mark.parametrize("w", [[1, 2], [1, 1]])
    def test_length_checked(self, w):
        # before distinctness
        with pytest.raises(InputError, match="need 3 values, got 2"):
            check_w1_identity(2, [(1, 1)], w)

    def test_lhs_actually_depends_on_structure(self):
        # sanity: the identity is nontrivial, both sides equal a nonzero value
        w = [1, 2, 5, 7]
        assert s_J((1, 2), w) != 0
        assert check_w1_identity(3, [(1, 2)], w) == [True]
