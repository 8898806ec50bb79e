import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abbvloc.core import (
    Covector,
    PiScalar,
    Vector,
    _cofactors,
    _integer_row,
    _reduce,
    canonical_multiindex,
    partitions,
    rat,
    rat_str,
    s_J,
)
from abbvloc.engine import _pi_grading
from abbvloc.errors import MixedPiPowers, SingularMatrix
from abbvloc.sampling import sample_rational
from conftest import make_rng, random_matrix, random_unimodular
from lattice_oracle import NonIntegerMatrix, smith_normal_form
from matrix_oracle import (
    apply,
    elimination_det,
    identity,
    inverse,
    leibniz_det,
    mat_mul,
    solve,
)
from orbit_oracle import complete_homogeneous


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

    def test_mixed_powers_raise(self):
        """A sum of PiScalars has one pi power; zero terms carry none."""
        assert _pi_grading([PiScalar(0, 0), PiScalar(3, 2)]) == 2
        assert _pi_grading([PiScalar(0, 5)]) == 0
        with pytest.raises(MixedPiPowers):
            _pi_grading([PiScalar(1, 1), PiScalar(1, 2)])

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
            assert Covector(x + y for x, y in zip(a, b))(v) == a(v) + b(v)
            assert a(Vector(x + y for x, y in zip(v, w))) == a(v) + a(w)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Covector([1, 2])(Vector([1, 2, 3]))


def kernel_det(rows) -> Fraction:
    """det by the package's kernel: the rows scaled to integers
    (_integer_row), det = _cofactors(rows[:-1]) . rows[-1], over the
    product of the row scales (1 for the empty matrix)."""
    scale, ints = 1, []
    for row in rows:
        row_scale, row_ints = _integer_row([rat(x) for x in row])
        scale *= row_scale
        ints.append(row_ints)
    if not ints:
        return Fraction(1)
    return Fraction(sum(c * x for c, x in zip(_cofactors(ints[:-1]), ints[-1])), scale)


def kernel_reduce(rows, rhs_columns) -> list:
    """M^-1 R by the package's kernel: _reduce of the augmented rows (M | R)
    to (T I | T M^-1 R), read back over T.  Raises SingularMatrix."""
    n = len(rows)
    a, t = _reduce([[rat(x) for x in r] + [rat(x) for x in c]
                    for r, c in zip(rows, rhs_columns)], n)
    return [[Fraction(x, t) for x in row[n:]] for row in a]


def kernel_solve(rows, rhs) -> list:
    return [x for (x,) in kernel_reduce(rows, [[b] for b in rhs])]


def kernel_inverse(rows) -> list:
    return kernel_reduce(rows, identity(len(rows)))


class TestDeterminant:
    def test_identity(self):
        assert kernel_det(identity(3)) == 1

    def test_transposition_sign(self):
        assert kernel_det([[0, 1], [1, 0]]) == -1

    def test_cofactor_example(self):
        assert kernel_det([[2, 1], [1, 1]]) == 1

    def test_rational_rows(self):
        assert kernel_det([["1/2", 1], [0, "2/3"]]) == Fraction(1, 3)

    def test_permutation_matrices(self):
        for perm in itertools.permutations(range(4)):
            m = [[1 if j == perm[i] else 0 for j in range(4)] for i in range(4)]
            assert kernel_det(m) == leibniz_det(m) in (1, -1)

    def test_multiplicative(self):
        rng = make_rng(11)
        for n in range(1, 7):
            for _ in range(3):
                a = random_matrix(n, rng)
                b = random_matrix(n, rng)
                assert kernel_det(mat_mul(a, b)) == kernel_det(a) * kernel_det(b)

    def test_alternating_and_linear(self):
        rng = make_rng(13)
        for _ in range(10):
            rows = random_matrix(3, rng)
            swapped = [rows[1], rows[0], rows[2]]
            assert kernel_det(swapped) == -kernel_det(rows)
            c = sample_rational(rng)
            scaled = [[c * x for x in rows[0]], rows[1], rows[2]]
            assert kernel_det(scaled) == c * kernel_det(rows)

    def test_dimension_9_equals_elimination(self):
        rng = make_rng(37)
        for _ in range(3):
            rows = random_matrix(9, rng)
            assert kernel_det(rows) == elimination_det(rows)


# zeros are drawn often so that zero pivots and row swaps occur
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7)),
)


class TestDeterminantOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.lists(
                st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
            )
        ),
        st.one_of(st.none(), rationals),
    )
    @example([[0, 1, 2], [0, 3, 4], [5, 6, -7]], None)
    @example([[0, 0, 1], [0, 1, 0], [1, 0, 0]], None)
    @example([["1/2", "-1/3"], ["-3/4", "1/5"]], None)
    @example([[1, 2, 3], [2, 4, 6], [0, 0, 1]], None)
    def test_det_equals_permutation_sum(self, rows, multiple):
        if multiple is not None and len(rows) >= 2:
            rows[-1] = [multiple * x for x in rows[0]]  # singular by construction
        rows = [[rat(x) for x in r] for r in rows]
        value = kernel_det(rows)
        assert type(value) is Fraction
        assert value == leibniz_det(rows) == elimination_det(rows)


class TestCovectorOracle:
    """The integer-accumulating pairing equals the plain Fraction sum."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 6).flatmap(
            lambda n: st.tuples(
                st.lists(rationals, min_size=n, max_size=n),
                st.lists(st.one_of(rationals, st.integers(-5, 5)), min_size=n, max_size=n),
            )
        )
    )
    @example(([Fraction(1, 2), Fraction(1, 3), 0], [Fraction(1, 3), Fraction(1, 2), 4]))
    @example(([Fraction(-1, 6), Fraction(1, 4)], [3, 2]))
    def test_pairing_equals_fraction_sum(self, pair):
        a, v = pair
        expected = sum((Fraction(x) * y for x, y in zip(a, v)), Fraction(0))
        for arg in (v, Vector(v)):  # raw ints and Fractions, and a Vector
            value = Covector(a)(arg)
            assert type(value) is Fraction
            assert value == expected


class TestSolve:
    def test_identity(self):
        assert kernel_solve(identity(2), [3, 5]) == [3, 5]

    def test_diagonal(self):
        assert kernel_solve([[2, 0], [0, 4]], [1, 1]) == [Fraction(1, 2), Fraction(1, 4)]

    def test_hand_elimination(self):
        assert kernel_solve([[1, 1], [1, -1]], [1, 0]) == [Fraction(1, 2), Fraction(1, 2)]

    def test_singular(self):
        with pytest.raises(SingularMatrix, match="matrix is singular"):
            kernel_solve([[1, 2], [2, 4]], [1, 1])

    def test_round_trip(self):
        rng = make_rng(17)
        for n in range(1, 7):
            for _ in range(4):
                a = random_matrix(n, rng, allow_zero=False)
                rhs = [sample_rational(rng) for _ in range(n)]
                assert apply(a, kernel_solve(a, rhs)) == rhs

    def test_inverse_round_trip(self):
        rng = make_rng(19)
        for n in range(1, 7):
            a = random_matrix(n, rng, allow_zero=False)
            assert mat_mul(a, kernel_inverse(a)) == identity(n)


def matrices(min_rows=1, max_rows=6, extra_cols=0, entries=st.integers(-3, 3)):
    """Small matrices with ``extra_cols`` more columns than rows."""
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n + extra_cols, max_size=n + extra_cols),
            min_size=n,
            max_size=n,
        )
    )


class TestElimination:
    """_reduce solves and inverts what it is given, and refuses exactly the
    matrices that the Fraction oracle finds singular."""

    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.lists(st.integers(-5, 5), min_size=6, max_size=6))
    def test_solve_round_trip(self, rows, rhs):
        b = rhs[: len(rows)]
        if elimination_det(rows) == 0:
            with pytest.raises(SingularMatrix):
                kernel_solve(rows, b)
        else:
            assert apply(rows, kernel_solve(rows, b)) == b

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_inverse_round_trip(self, rows):
        if elimination_det(rows) == 0:
            with pytest.raises(SingularMatrix):
                kernel_inverse(rows)
        else:
            assert mat_mul(rows, kernel_inverse(rows)) == identity(len(rows))


class TestEliminationOracle:
    """_reduce equals a Fraction Gauss-Jordan elimination on rational
    matrices, as a solve and as an inverse."""

    @settings(max_examples=200, deadline=None)
    @given(matrices(extra_cols=1, entries=rationals))
    @example([[Fraction(1, 2), Fraction(1, 3), 1], [Fraction(1, 4), Fraction(1, 6), 2]])
    @example([[0, Fraction(2, 3), Fraction(5, 7)], [Fraction(3, 5), 0, Fraction(-1, 2)]])
    def test_solve_equals_gauss_jordan(self, rows):
        n = len(rows)
        m, rhs = [r[:n] for r in rows], [r[n] for r in rows]
        expected = solve(m, rhs)
        if expected is None:
            with pytest.raises(SingularMatrix):
                kernel_solve(m, rhs)
        else:
            assert kernel_solve(m, rhs) == expected

    @settings(max_examples=200, deadline=None)
    @given(matrices(entries=rationals))
    @example([[Fraction(1, 2), Fraction(2, 3)], [Fraction(3, 4), Fraction(5, 6)]])
    def test_inverse_equals_gauss_jordan(self, rows):
        expected = inverse(rows)
        if expected is None:
            with pytest.raises(SingularMatrix):
                kernel_inverse(rows)
        else:
            assert kernel_inverse(rows) == expected


def assert_cofactors_equal_elimination(rows, xs) -> list:
    """c . x = det(rows; x) by the Fraction oracle, for each basis vector
    (so c is the cofactor row) and each x in xs; returns c."""
    n = len(rows)
    c = _cofactors([list(r) for r in rows])
    assert len(c) == n + 1 and all(type(x) is int for x in c)
    for x in [*identity(n + 1), *xs]:
        assert sum(a * b for a, b in zip(c, x)) == elimination_det([*rows, x])
    return c


class TestCofactors:
    """_cofactors is the determinant with an appended row of unknowns, as
    the Fraction oracle eliminates it."""

    # zeros are drawn often so that row and column swaps occur
    @settings(max_examples=300, deadline=None)
    @given(matrices(min_rows=0, max_rows=6, extra_cols=1,
                    entries=st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5])),
           st.lists(st.integers(-9, 9), min_size=7, max_size=7))
    def test_equals_elimination_det(self, rows, x):
        assert_cofactors_equal_elimination(rows, [x[: len(rows) + 1]])

    @pytest.mark.parametrize("rows, expected", [
        # a zero pivot with a nonzero entry below it: a row swap
        ([[0, 1, 2], [3, 4, 5]], [-3, 6, -3]),
        # column 0 is zero: a column swap at the first step
        ([[0, 1, 2], [0, 3, 5]], [-1, 0, 0]),
        # a column swap, then a row swap to the pivot it brings
        ([[0, 0, 1], [0, 2, 0]], [-2, 0, 0]),
        # column 1 is cleared below the first pivot: a column swap at step 1
        ([[1, 2, 3, 4], [2, 4, 1, 0], [3, 6, 2, 1]], [2, -1, 0, 0]),
        # rank below n: the zero covector
        ([[1, 2, 3], [2, 4, 6]], [0, 0, 0]),
        ([], [1]),
    ])
    def test_swaps_and_rank(self, rows, expected):
        assert assert_cofactors_equal_elimination(rows, []) == expected

    def test_dimension_9_equals_elimination(self):
        rng = make_rng(41)
        entries = range(-4, 5)
        for _ in range(3):
            rows = [[rng.choice(entries) for _ in range(10)] for _ in range(9)]
            assert_cofactors_equal_elimination(rows, [[rng.choice(entries) for _ in range(10)]])


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
            transformed = mat_mul(mat_mul(left, rows), right)
            assert smith_normal_form(transformed) == smith_normal_form(rows)

    def test_direct_summand_iff_all_ones(self):
        # rows of a unimodular matrix span a direct summand; doubling one
        # row breaks it
        rng = make_rng(31)
        for _ in range(10):
            u = random_unimodular(4, rng)
            r = 1 + rng.next_u64() % 3
            rows = [list(row) for row in u[: r + 1]]
            assert set(smith_normal_form(rows)) == {1}
            rows[0] = [2 * x for x in rows[0]]
            assert set(smith_normal_form(rows)) != {1}


def elementary(k, xs) -> Fraction:
    """e_k(xs) as s_J((k,), xs), with e_0 = 1."""
    return s_J((k,), xs) if k else Fraction(1)


class TestSymmetricPolynomials:
    def test_elementary_examples(self):
        assert elementary(1, [1, 2, 3]) == 6
        assert elementary(3, [1, 2, 3]) == 6
        assert elementary(2, [1, 2, 3]) == 11
        assert elementary(0, [1, 2, 3]) == 1
        assert elementary(4, [1, 2, 3]) == 0

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
                lhs = k * elementary(k, xs)
                rhs = sum(
                    (-1) ** (i - 1) * elementary(k - i, xs) * sum(x**i for x in xs)
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
                    * elementary(i, xs)
                    * complete_homogeneous(k - i, xs)
                    for i in range(0, k + 1)
                )
                assert total == 0

    def test_partitions(self):
        assert partitions(4) == [(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)]
        assert partitions(1) == [(1,)]
        assert partitions(0) == [()]


def brute_elementary(k, xs) -> Fraction:
    """s_k as the literal sum over k-subsets: the independent oracle."""
    total = Fraction(0)
    for combo in itertools.combinations(xs, k):
        term = Fraction(1)
        for x in combo:
            term *= x
        total += term
    return total


mixed_values = st.lists(st.one_of(rationals, st.integers(-4, 4)), max_size=7)


class TestSymmetricOracle:
    """The integer expansion equals the brute-force subset sums."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9), mixed_values)
    @example(2, [])
    @example(3, [Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 7)])
    @example(5, [Fraction(1, 2), 3])
    @example(9, [Fraction(1, 3)] * 7)
    def test_elementary_equals_subset_sum(self, k, xs):
        value = s_J((k,), xs)
        assert type(value) is Fraction
        assert value == brute_elementary(k, [Fraction(x) for x in xs])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 8), max_size=4), mixed_values)
    @example([2, 2], [Fraction(1, 2), Fraction(1, 3), Fraction(-3, 4)])
    @example([1, 1, 3], [Fraction(2, 5), 0, Fraction(-1, 6)])
    @example([4], [Fraction(1, 2), 1])
    @example([], [])
    def test_s_J_equals_product_of_subset_sums(self, J, xs):
        expected = Fraction(1)
        for j in J:
            expected *= brute_elementary(j, [Fraction(x) for x in xs])
        value = s_J(J, xs)
        assert type(value) is Fraction
        assert value == expected
