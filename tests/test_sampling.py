import pytest

from abbvloc.errors import AllSamplesPoles, InconsistentSamples, PoleAtSample
from abbvloc.sampling import SplitMix64, sample_independent, sample_vector


def draws(seed, dim, count):
    rng = SplitMix64(seed)
    return [sample_vector(dim, rng) for _ in range(count)]


class FakeEvaluate:
    """Counts calls; raises PoleAtSample on the listed call numbers and
    otherwise returns values[call] (default 7)."""

    def __init__(self, poles=(), values=None, pole_after=None):
        self.calls = 0
        self.poles = set(poles)
        self.values = values or {}
        self.pole_after = pole_after

    def __call__(self, v):
        call = self.calls
        self.calls += 1
        if call in self.poles or (self.pole_after is not None and call > self.pole_after):
            raise PoleAtSample(f"fake pole at call {call}")
        return self.values.get(call, 7)


class TestSampleIndependent:
    def test_agreeing_values(self):
        outcome = sample_independent(FakeEvaluate(), 3, 4, seed=5)
        assert outcome.value == 7
        assert outcome.samples_used == draws(5, 3, 4)
        assert outcome.rejected_poles == 0

    def test_rejected_poles_counts_skipped_draws(self):
        evaluate = FakeEvaluate(poles={0, 2, 3})
        outcome = sample_independent(evaluate, 2, 3, seed=11)
        expected = draws(11, 2, 6)
        assert outcome.rejected_poles == 3
        assert outcome.samples_used == [expected[1], expected[4], expected[5]]
        assert evaluate.calls == 6

    def test_rng_continues_after_last_draw(self):
        outcome = sample_independent(FakeEvaluate(poles={1}), 2, 2, seed=3)
        assert sample_vector(2, outcome.rng) == draws(3, 2, 4)[3]

    def test_one_sample_is_first_pole_free_value(self):
        evaluate = FakeEvaluate(poles={0, 1}, values={2: 5, 3: 6})
        outcome = sample_independent(evaluate, 2, 1, seed=1)
        assert outcome.value == 5
        assert outcome.samples_used == [draws(1, 2, 3)[2]]
        assert evaluate.calls == 3

    def test_mismatch_carries_first_disagreeing_pair(self):
        evaluate = FakeEvaluate(poles={1}, values={0: 1, 2: 1, 3: 2, 4: 3})
        with pytest.raises(InconsistentSamples) as info:
            sample_independent(evaluate, 3, 10, seed=9)
        expected = draws(9, 3, 4)
        err = info.value
        assert (err.value_a, err.value_b) == (1, 2)
        assert err.sample_a == expected[0]
        assert err.sample_b == expected[3]
        assert evaluate.calls == 4

    def test_all_but_one_draw_poles(self):
        evaluate = FakeEvaluate(pole_after=0)
        with pytest.raises(AllSamplesPoles):
            sample_independent(evaluate, 2, 2, seed=0)
        assert evaluate.calls == 100

    def test_budget_grows_with_samples(self):
        outcome = sample_independent(FakeEvaluate(), 1, 150, seed=0)
        assert len(outcome.samples_used) == 150
        with pytest.raises(AllSamplesPoles):
            sample_independent(FakeEvaluate(poles={0}), 1, 150, seed=0)
