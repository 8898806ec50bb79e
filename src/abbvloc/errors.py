"""Exception types shared across the package."""


class LocalizationError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LocalizationError):
    """Malformed or inconsistent input data."""


class SingularMatrix(LocalizationError):
    """Linear solve or inversion hit a zero determinant."""


class MixedPiPowers(LocalizationError):
    """Addition of pi-graded scalars with different pi powers."""


class PoleAtSample(LocalizationError):
    """A denominator vanished at the sampled vector."""


class InconsistentSamples(LocalizationError):
    """Two accepted samples produced different values for a quantity that
    must be sample-independent."""

    def __init__(self, value_a, value_b, sample_a, sample_b):
        self.value_a = value_a
        self.value_b = value_b
        self.sample_a = sample_a
        self.sample_b = sample_b
        super().__init__(
            f"value {value_a} at {tuple(sample_a)} != value {value_b} at {tuple(sample_b)}"
        )


class AllSamplesPoles(LocalizationError):
    """The sampling budget was exhausted before enough pole-free vectors
    were found; the weight data is probably malformed."""


class GoodnessViolation(LocalizationError):
    """A vertex of the moment cone fails the lattice direct-summand test."""


class UnboundedSection(LocalizationError):
    """The hyperplane section of the cone is empty or unbounded."""


class NotSimpleVertex(LocalizationError):
    """A vertex lies on more facets than the ambient dimension allows for a
    simple polytope."""


class EdgeConstantFunctional(PoleAtSample):
    """The chosen linear functional is constant on an edge of the polytope:
    a pole of Lawrence's formula, so the sampling loop redraws it."""


class DegenerateReeb(LocalizationError):
    """A deformed Reeb element projects to zero along some Weyl image."""
