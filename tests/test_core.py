import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abbvloc.core import (
    Covector,
    Matrix,
    PiScalar,
    Vector,
    _echelon,
    canonical_multiindex,
    complete_homogeneous,
    det,
    elementary_symmetric,
    partitions,
    power_sum,
    rat,
    rat_str,
    s_J,
    smith_normal_form,
    solve_linear,
)
from abbvloc.errors import (
    MixedPiPowers,
    NonIntegerMatrix,
    NonSquareMatrix,
    SingularMatrix,
)
from conftest import make_rng, random_matrix, random_unimodular
from abbvloc.polytope import _affine_rank
from abbvloc.sampling import sample_rational
from abbvloc.toric import _kernel_direction


class TestRational:
    def test_parse(self):
        assert rat("3/4") == Fraction(3, 4)
        assert rat(-2) == Fraction(-2)
        assert rat(Fraction(5, 10)) == Fraction(1, 2)

    def test_render(self):
        assert rat_str(Fraction(3, 4)) == "3/4"
        assert rat_str(Fraction(8, 4)) == "2"
        assert rat_str(Fraction(-1, 3)) == "-1/3"


class TestPiScalar:
    def test_zero_canonical(self):
        assert PiScalar(0, 7) == PiScalar(0, 0)
        assert PiScalar(0, 7).pi_power == 0

    def test_add_same_power(self):
        assert PiScalar(2, 1) + PiScalar(Fraction(1, 2), 1) == PiScalar(Fraction(5, 2), 1)

    def test_add_with_zero(self):
        assert PiScalar(0, 0) + PiScalar(3, 2) == PiScalar(3, 2)
        assert PiScalar(3, 2) + PiScalar(0, 0) == PiScalar(3, 2)

    def test_mixed_powers_raise(self):
        with pytest.raises(MixedPiPowers):
            PiScalar(1, 1) + PiScalar(1, 2)

    def test_ring_ops(self):
        a = PiScalar(Fraction(2, 3), 2)
        assert a * PiScalar(3, 1) == PiScalar(2, 3)
        assert a * 3 == PiScalar(2, 2)
        assert a / PiScalar(2, 2) == PiScalar(Fraction(1, 3), 0)
        assert a**2 == PiScalar(Fraction(4, 9), 4)
        assert -a + a == PiScalar(0, 0)

    def test_exact_str(self):
        assert PiScalar(1, 2).exact_str() == "1 * pi^2"
        assert PiScalar(Fraction(2, 3), 4).exact_str() == "2/3 * pi^4"

    def test_to_decimal_display_only(self):
        assert PiScalar(1, 2).to_decimal(12) == "9.86960440109"
        assert PiScalar(Fraction(1, 2), 0).to_decimal(3) == "0.5"
        assert PiScalar(Fraction(1, 3), 0).to_decimal(3) == "0.333"


class TestVectors:
    def test_pairing(self):
        alpha = Covector([2, -1])
        assert alpha(Vector([1, 0])) == 2
        assert alpha(Vector([1, 2])) == 0

    def test_pairing_bilinear(self):
        rng = make_rng(7)
        for _ in range(20):
            a = Covector([sample_rational(rng) for _ in range(3)])
            b = Covector([sample_rational(rng) for _ in range(3)])
            v = Vector([sample_rational(rng) for _ in range(3)])
            w = Vector([sample_rational(rng) for _ in range(3)])
            c = sample_rational(rng)
            assert (a + b)(v) == a(v) + b(v)
            assert a(v + w) == a(v) + a(w)
            assert a.scaled(c)(v) == c * a(v)
            assert a(v.scaled(c)) == c * a(v)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Covector([1, 2])(Vector([1, 2, 3]))


class TestDeterminant:
    def test_identity(self):
        assert det(Matrix.identity(3)) == 1

    def test_transposition_sign(self):
        assert det(Matrix([[0, 1], [1, 0]])) == -1

    def test_cofactor_example(self):
        assert det(Matrix([[2, 1], [1, 1]])) == 1

    def test_non_square(self):
        with pytest.raises(NonSquareMatrix):
            det(Matrix([[1, 2, 3], [4, 5, 6]]))

    def test_permutation_matrices(self):
        import itertools

        for perm in itertools.permutations(range(4)):
            m = Matrix([[1 if j == perm[i] else 0 for j in range(4)] for i in range(4)])
            assert det(m) in (1, -1)

    def test_multiplicative(self):
        rng = make_rng(11)
        for n in range(1, 7):
            for _ in range(3):
                a = random_matrix(n, rng)
                b = random_matrix(n, rng)
                assert det(a * b) == det(a) * det(b)

    def test_alternating_and_linear(self):
        rng = make_rng(13)
        for _ in range(10):
            a = random_matrix(3, rng)
            rows = [list(r) for r in a.rows]
            swapped = Matrix([rows[1], rows[0], rows[2]])
            assert det(swapped) == -det(a)
            c = sample_rational(rng)
            scaled = Matrix([[c * x for x in rows[0]], rows[1], rows[2]])
            assert det(scaled) == c * det(a)


class TestSolve:
    def test_identity(self):
        assert solve_linear(Matrix.identity(2), [3, 5]) == Vector([3, 5])

    def test_diagonal(self):
        x = solve_linear(Matrix([[2, 0], [0, 4]]), [1, 1])
        assert x == Vector([Fraction(1, 2), Fraction(1, 4)])

    def test_hand_elimination(self):
        x = solve_linear(Matrix([[1, 1], [1, -1]]), [1, 0])
        assert x == Vector([Fraction(1, 2), Fraction(1, 2)])

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            solve_linear(Matrix([[1, 2], [2, 4]]), [1, 1])

    def test_round_trip(self):
        rng = make_rng(17)
        for n in range(1, 6):
            for _ in range(4):
                a = random_matrix(n, rng, allow_zero=False)
                rhs = Vector([sample_rational(rng) for _ in range(n)])
                assert a.apply(solve_linear(a, rhs)) == rhs

    def test_inverse_round_trip(self):
        rng = make_rng(19)
        for _ in range(5):
            a = random_matrix(4, rng, allow_zero=False)
            assert a * a.inverse() == Matrix.identity(4)


def int_matrices(min_rows=1, max_rows=4, extra_cols=0):
    """Small integer matrices with ``extra_cols`` more columns than rows."""
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n + extra_cols, max_size=n + extra_cols),
            min_size=n,
            max_size=n,
        )
    )


def minor_rank(rows) -> int:
    """Size of the largest nonzero minor, each found by Bareiss det."""
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for rs in itertools.combinations(range(m), k):
            for cs in itertools.combinations(range(n), k):
                if det(Matrix([[rows[i][j] for j in cs] for i in rs])) != 0:
                    return k
    return 0


class TestElimination:
    """Properties of the one forward-elimination routine and its callers."""

    @settings(max_examples=150, deadline=None)
    @given(int_matrices(), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    def test_solve_round_trip(self, rows, rhs):
        a = Matrix(rows)
        b = Vector(rhs[: a.nrows])
        if det(a) == 0:
            with pytest.raises(SingularMatrix):
                solve_linear(a, b)
        else:
            assert a.apply(solve_linear(a, b)) == b

    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_inverse_round_trip(self, rows):
        a = Matrix(rows)
        if det(a) == 0:
            with pytest.raises(SingularMatrix):
                a.inverse()
        else:
            assert a * a.inverse() == Matrix.identity(a.nrows)

    @settings(max_examples=150, deadline=None)
    @given(int_matrices(max_rows=4, extra_cols=1))
    def test_kernel_direction(self, rows):
        dim = len(rows[0])
        phi = _kernel_direction([Vector(r) for r in rows], dim)
        if minor_rank(rows) != dim - 1:
            assert phi is None
            return
        assert all(Covector(phi)(Vector(r)) == 0 for r in rows)
        # the free column is the first one that depends on the columns before it
        free = next(
            j for j in range(dim) if minor_rank([r[: j + 1] for r in rows]) < j + 1
        )
        assert phi[free] == 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=5
            )
        )
    )
    def test_rank_is_largest_nonzero_minor(self, rows):
        assert len(_echelon([[Fraction(x) for x in r] for r in rows], len(rows[0]))[1]) == (
            minor_rank(rows)
        )
        base = Vector([0] * len(rows[0]))
        assert _affine_rank([base] + [Vector(r) for r in rows]) == minor_rank(rows)


class TestSmithNormalForm:
    def test_sub_basis(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0]]) == (1, 1)

    def test_diag_2_3(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)

    def test_single_non_primitive(self):
        assert smith_normal_form([[2, 0, 0]]) == (2,)

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)

    def test_non_integer(self):
        with pytest.raises(NonIntegerMatrix):
            smith_normal_form([[Fraction(1, 2)]])

    def test_divisibility_chain(self):
        rng = make_rng(23)
        for _ in range(15):
            rows = [
                [(rng.next_u64() % 9) - 4 for _ in range(4)] for _ in range(3)
            ]
            divisors = smith_normal_form(rows)
            for a, b in zip(divisors, divisors[1:]):
                if b != 0:
                    assert a != 0 and b % a == 0

    def test_unimodular_invariance(self):
        rng = make_rng(29)
        for _ in range(8):
            rows = [[(rng.next_u64() % 7) - 3 for _ in range(4)] for _ in range(3)]
            left = random_unimodular(3, rng)
            right = random_unimodular(4, rng)
            transformed = (left * Matrix(rows) * right).rows
            assert smith_normal_form(transformed) == smith_normal_form(rows)

    def test_direct_summand_iff_all_ones(self):
        # rows of a unimodular matrix span a direct summand; doubling one
        # row breaks it
        rng = make_rng(31)
        for _ in range(10):
            u = random_unimodular(4, rng)
            r = 1 + rng.next_u64() % 3
            rows = [list(row) for row in u.rows[: r + 1]]
            assert set(smith_normal_form(rows)) == {1}
            rows[0] = [2 * x for x in rows[0]]
            assert set(smith_normal_form(rows)) != {1}


class TestSymmetricPolynomials:
    def test_elementary_examples(self):
        assert elementary_symmetric(1, [1, 2, 3]) == 6
        assert elementary_symmetric(3, [1, 2, 3]) == 6
        assert elementary_symmetric(2, [1, 2, 3]) == 11
        assert elementary_symmetric(0, [1, 2, 3]) == 1
        assert elementary_symmetric(4, [1, 2, 3]) == 0

    def test_complete_examples(self):
        assert complete_homogeneous(0, [5, 7]) == 1
        assert complete_homogeneous(1, [5, 7]) == 12
        assert complete_homogeneous(2, [1, 2]) == 7
        assert complete_homogeneous(-1, [1, 2]) == 0

    def test_s_J_examples(self):
        assert s_J((1, 1), [1, 2]) == 9
        assert s_J((), [1, 2, 3]) == 1
        assert s_J((2,), [1, 2, 3]) == 11

    def test_s_J_order_independent(self):
        xs = [Fraction(1, 2), 3, -5]
        assert s_J((3, 1, 2), xs) == s_J((1, 2, 3), xs)

    def test_multiindex_validation(self):
        with pytest.raises(ValueError):
            canonical_multiindex((0, 1))

    def test_newton_identity(self):
        rng = make_rng(37)
        for _ in range(10):
            xs = [sample_rational(rng) for _ in range(6)]
            for k in range(1, 7):
                lhs = k * elementary_symmetric(k, xs)
                rhs = sum(
                    (-1) ** (i - 1) * elementary_symmetric(k - i, xs) * power_sum(i, xs)
                    for i in range(1, k + 1)
                )
                assert lhs == rhs

    def test_involution_identity(self):
        rng = make_rng(41)
        for _ in range(10):
            xs = [sample_rational(rng) for _ in range(5)]
            for k in range(1, 7):
                total = sum(
                    (-1) ** i
                    * elementary_symmetric(i, xs)
                    * complete_homogeneous(k - i, xs)
                    for i in range(0, k + 1)
                )
                assert total == 0

    def test_partitions(self):
        assert partitions(4) == [(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)]
        assert partitions(1) == [(1,)]
        assert partitions(0) == [()]
