"""Deterministic sampling of rational test vectors.

A SplitMix-style 64-bit generator keeps every randomized check reproducible
from its seed; entries are drawn uniformly from a small pool of rationals so
poles can be rejected exactly.  ``sample_independent`` is the one loop that
draws sample vectors, rejects poles and compares the values.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Record, Vector
from .errors import AllSamplesPoles, InconsistentSamples, PoleAtSample

POLE_RETRY_BUDGET = 100
# Draws sample_distinct_positive makes before it gives up on a count.
DISTINCT_DRAW_BUDGET = 1000

SAMPLE_POOL = tuple(
    Fraction(p, q) * s
    for p, q in ((1, 1), (2, 1), (3, 1), (5, 1), (7, 1), (1, 2), (1, 3))
    for s in (1, -1)
)

POSITIVE_POOL = tuple(
    Fraction(p, q)
    for p, q in (
        (1, 1), (2, 1), (3, 1), (5, 1), (7, 1), (11, 1),
        (1, 2), (3, 2), (5, 2), (1, 3), (2, 3), (7, 3), (4, 1), (9, 2),
    )
)

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix 64-bit generator; tiny, seedable, good enough for drawing
    test points from a finite pool."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def choice(self, pool):
        return pool[self.next_u64() % len(pool)]


def sample_rational(rng: SplitMix64) -> Fraction:
    return rng.choice(SAMPLE_POOL)


def sample_vector(dim: int, rng: SplitMix64) -> Vector:
    return Vector(sample_rational(rng) for _ in range(dim))


def sample_distinct_positive(count: int, rng: SplitMix64) -> tuple:
    """Draw ``count`` pairwise-distinct positive rationals in at most
    DISTINCT_DRAW_BUDGET draws.

    The pool's entries are distinct, so a draw is new exactly when its pool
    index is: the picked indices are kept in a set."""
    picked, seen = [], set()
    for _ in range(DISTINCT_DRAW_BUDGET):
        i = rng.next_u64() % len(POSITIVE_POOL)
        if i not in seen:
            seen.add(i)
            picked.append(POSITIVE_POOL[i])
        if len(picked) == count:
            return tuple(picked)
    raise RuntimeError("pool too small for requested distinct sample")


class SampleOutcome(Record):
    """Result of a sample-independence check: the common value, the
    pole-free vectors it was taken at, and the draws rejected as poles."""

    value: object
    samples_used: tuple
    rejected_poles: int


def sample_independent(evaluate, dim: int, samples: int, seed: int) -> SampleOutcome:
    """Evaluate at ``samples`` pole-free vectors and require one value.

    Vectors are drawn from ``SplitMix64(seed)``; a draw on which
    ``evaluate`` raises PoleAtSample is skipped and counted.  Raises
    InconsistentSamples at the first value that differs from the first
    one, and AllSamplesPoles when max(100, samples) draws do not give
    ``samples`` pole-free vectors.  With ``samples=1`` this is the first
    pole-free value.
    """
    rng = SplitMix64(seed)
    first, used, poles = None, [], 0
    budget = max(POLE_RETRY_BUDGET, samples)
    for _ in range(budget):
        v = sample_vector(dim, rng)
        try:
            value = evaluate(v)
        except PoleAtSample:
            poles += 1
            continue
        if not used:
            first = value
        elif value != first:
            raise InconsistentSamples(first, value, used[0], v)
        used.append(v)
        if len(used) == samples:
            return SampleOutcome(value=first, samples_used=tuple(used), rejected_poles=poles)
    raise AllSamplesPoles(f"only {len(used)} pole-free samples found in {budget} draws")
