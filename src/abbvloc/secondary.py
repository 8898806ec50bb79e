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

from .core import PiScalar, Record, Vector, _expand, _integer_row, canonical_multiindex, rat, s_J
from .engine import LeafIntegrals, OrbitSystem, localize_characteristic, weighted_sphere_system
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

    @cached_property
    def leaf_integrals(self) -> LeafIntegrals:
        """u1_leaf_integrals as pi^0 scalars, built on first use and kept."""
        return LeafIntegrals(PiScalar(c, 0) for c in u1_leaf_integrals(self))


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
    value = localize_characteristic(f.system, J, f.leaf_integrals, v)
    if value.pi_power != 0 and not value.is_zero:
        raise InputError("secondary number acquired an unexpected pi grading")
    return value.coeff


def asuke_closed_form(f: WeightedSphereFoliation, J) -> Fraction:
    """s_1 s_J / s_{m+1} evaluated at the weights."""
    J = canonical_multiindex(J)
    s1 = s_J((1,), f.w)
    top = s_J((f.m + 1,), f.w)
    return s1 * s_J(J, f.w) / top


def check_w1_identity(m: int, Js, w) -> list:
    """Exact test, for each multiindex J in Js, of the elementary symmetric
    polynomial identity

        sum_k s_J((w_j - w_k)_{j != k}) prod_{j != k} w_j
                / prod_{j != k} (w_j - w_k)  =  s_J(w_0, ..., w_m).

    Returns one verdict per J, in the order of Js.  Each J is
    canonicalized, which returns a Multiindex (what partitions gives) as it
    is, so check-w1 validates its partitions once, where they are built.
    The weights must be pairwise distinct so no denominator vanishes.

    Both sides are homogeneous of degree |J| in w, so w is scaled to the
    integers W = L w (L the lcm of its denominators) and the identity is
    tested on W.  The vector's expansions are taken once for every J:
    S^(k) = _expand of the differences d = (W_j - W_k)_{j != k}, P_k =
    prod_{j != k} W_j, Q_k = prod_j d_j and D = prod_k Q_k, and J holds
    when sum_k s_J(S^(k)) P_k (D / Q_k) - s_J(_expand(W)) D = 0.
    """
    Js = [canonical_multiindex(J) for J in Js]
    w = [rat(x) for x in w]
    if len(w) != m + 1:
        raise InputError(f"need {m + 1} values, got {len(w)}")
    _, W = _integer_row(w)
    if len(set(W)) != len(W):  # w -> L w is injective, and ints hash cheaply
        raise InputError("values must be pairwise distinct")
    rests = [W[:k] + W[k + 1:] for k in range(len(W))]
    diffs = [[x - wk for x in rest] for wk, rest in zip(W, rests)]
    qs = [prod(d) for d in diffs]
    D = prod(qs)
    pad = [0] * max((j for J in Js for j in J), default=0)  # s_j = 0 past the degree
    terms = [(_expand(d) + pad, prod(rest) * (D // q)) for d, rest, q in zip(diffs, rests, qs)]
    terms.append((_expand(W) + pad, -D))
    verdicts = []
    for J in Js:
        total = 0
        for S, c in terms:
            for j in J:
                c *= S[j]
            total += c
        verdicts.append(total == 0)
    return verdicts
