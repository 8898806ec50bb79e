"""Secondary characteristic numbers of weighted-sphere flows.

For the transversely Kahler flow with positive pairwise-distinct weights w
on the odd sphere, the numbers u_1 s_J localize to the coordinate circles.
The localized route goes through the generic characteristic engine; the
closed form s_1 s_J / s_{m+1}(w) and the underlying elementary symmetric
polynomial identity serve as exact oracles.

Multiindex degree convention: |J| = sum of the entries, counted in complex
degree, so the admissible J for complex codimension m satisfy |J| = m.
(The real-degree count is twice that.)
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import prod

from .core import PiScalar, Record, Vector, _integer_row, _s_J_integer, canonical_multiindex, rat, s_J
from .engine import OrbitSystem, localize_characteristic, weighted_sphere_system
from .errors import InputError


class WeightedSphereFoliation(Record):
    """Weighted Reeb flow on the sphere of complex codimension m.

    Weights must be positive and pairwise distinct so the closed leaves
    are exactly the m+1 coordinate circles.
    """

    m: int
    w: tuple

    def __post_init__(self):
        w = tuple(rat(x) for x in self.w)
        object.__setattr__(self, "w", w)
        if self.m < 1:
            raise InputError("complex codimension must be positive")
        if len(w) != self.m + 1:
            raise InputError(f"need {self.m + 1} weights for codimension {self.m}")
        if any(x <= 0 for x in w):
            raise InputError("weights must be positive")
        if len(set(w)) != len(w):
            raise InputError("weights must be pairwise distinct")

    @cached_property
    def system(self) -> OrbitSystem:
        """The closed leaves as an orbit system, built on first use and kept
        on the foliation."""
        return weighted_sphere_system(self.w)


def u1_leaf_integrals(f: WeightedSphereFoliation) -> list:
    """Integral of the transgression form over each coordinate circle:
    (w_0 + ... + w_m) / w_k."""
    total = sum(f.w, Fraction(0))
    return [total / wk for wk in f.w]


def asuke_number(f: WeightedSphereFoliation, J, v: Vector) -> Fraction:
    """The secondary number for multiindex J via the localized route.

    Requires |J| = m.  The result is rational and must coincide exactly
    with the closed form asuke_closed_form(f, J) for every pole-free v.
    """
    J = canonical_multiindex(J)
    if sum(J) != f.m:
        raise InputError(
            f"multiindex degree {sum(J)} differs from complex codimension {f.m}"
        )
    leaf = [PiScalar(c, 0) for c in u1_leaf_integrals(f)]
    value = localize_characteristic(f.system, J, leaf, Vector(v))
    if value.pi_power != 0 and not value.is_zero:
        raise InputError("secondary number acquired an unexpected pi grading")
    return value.coeff


def asuke_closed_form(f: WeightedSphereFoliation, J) -> Fraction:
    """s_1 s_J / s_{m+1} evaluated at the weights."""
    J = canonical_multiindex(J)
    s1 = s_J((1,), f.w)
    top = s_J((f.m + 1,), f.w)
    return s1 * s_J(J, f.w) / top


def check_w1_identity(m: int, J, w) -> bool:
    """Exact test of the elementary symmetric polynomial identity

        sum_k s_J((w_j - w_k)_{j != k}) prod_{j != k} w_j
                / prod_{j != k} (w_j - w_k)  =  s_J(w_0, ..., w_m).

    The weights must be pairwise distinct so no denominator vanishes.

    Both sides are homogeneous of degree |J| in w, so w is scaled to the
    integers W = L w (L the lcm of its denominators) and the identity is
    tested on W: the k-th term is N_k / Q_k with N_k = s_J(d) prod_{j != k}
    W_j from one integer expansion of prod_j (1 + d_j t) over the
    differences d, Q_k = prod_j d_j, and the sum is compared with s_J(W)
    by cross-multiplying.
    """
    J = canonical_multiindex(J)
    w = [rat(x) for x in w]
    if len(w) != m + 1:
        raise InputError(f"need {m + 1} values, got {len(w)}")
    _, W = _integer_row(w)
    if len(set(W)) != len(W):  # w -> L w is injective, and ints hash cheaply
        raise InputError("values must be pairwise distinct")
    num, den = 0, 1
    for k, wk in enumerate(W):
        rest = W[:k] + W[k + 1:]
        diffs = [x - wk for x in rest]
        q = prod(diffs)
        num = num * q + _s_J_integer(J, diffs) * prod(rest) * den
        den *= q
    return num == _s_J_integer(J, W) * den
