import pytest

from abbvloc.sampling import SplitMix64, sample_distinct_positive, sample_rational
from matrix_oracle import elimination_det


@pytest.fixture
def rng():
    return SplitMix64(42)


def make_rng(seed=42):
    return SplitMix64(seed)


def random_matrix(n, rng, allow_zero=True):
    """An n x n matrix of sampled rationals, as a list of rows; nonsingular
    by the Fraction oracle unless ``allow_zero``."""
    while True:
        m = [[sample_rational(rng) for _ in range(n)] for _ in range(n)]
        if allow_zero or elimination_det(m) != 0:
            return m


def random_weights(count, seed):
    return sample_distinct_positive(count, make_rng(seed))


def random_unimodular(n, rng, steps=12):
    """Product of elementary integer row operations, as a list of rows;
    determinant is +-1."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.next_u64() % n
        j = rng.next_u64() % n
        if i == j:
            rows[i] = [-x for x in rows[i]]
            continue
        c = (rng.next_u64() % 5) - 2
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows
