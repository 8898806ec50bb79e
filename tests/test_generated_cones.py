"""Every volume route on generated good cones, against closed forms derived
here, and the Martelli-Sparks-Yau facet-sum formula as a literature oracle.

The section S = {phi in C : phi(b) = 1} of a cone C carries the lattice
measure omega_h.  Coning S from the origin, phi = t s with s in S, has
Lebesgue density t^n dt omega_h, so vol_h(S) = (n + 1) Leb{phi in C :
phi(b) <= 1}.  For a cone over a polytope P at height phi_0 = 1, writing
phi = t (1, p) and L(p) = b_0 + b . p gives

    vol_h(S) = integral over P of L(p)^-(n+1) dp,

and both closed forms below are that integral.  The localized cone volume
(lattice generators carrying 2 pi) is 2 pi^(n+1) vol_h(S).
"""

from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest

from abbvloc.core import PiScalar, Vector
from abbvloc.engine import check_v_independence
from abbvloc.polytope import HPolytope, random_functional, triangulation_volume
from abbvloc.sampling import sample_independent, sample_positive_rational, sample_rational
from abbvloc.toric import GoodCone, orbit_system_from_cone, toric_volume
from conftest import make_rng
from simplex_oracle import simplex_volume


def unit(d, i, sign=1):
    return [sign if j == i else 0 for j in range(d)]


def cube_cone_k(k, reeb=None):
    """Cone over the k-cube, {0 <= phi_i <= phi_0}: normals -e_i and
    e_i - e_0 for i = 1..k.  The Reeb vector defaults to (k+1, 1, ..., 1)."""
    d = k + 1
    normals = []
    for i in range(1, d):
        normals += [unit(d, i, -1), [-1] + unit(k, i - 1)]
    reeb = reeb if reeb is not None else [k + 1] + [1] * k
    return GoodCone(dim=d, normals=tuple(map(Vector, normals)), reeb=Vector(reeb))


def simplex_product_cone(a, b, reeb):
    """Cone over Delta^a x Delta^b in coordinates (phi_0, x_1..x_a, y_1..y_b):
    x >= 0, sum(x) <= phi_0, y >= 0, sum(y) <= phi_0."""
    d = a + b + 1
    normals = []
    for block in (range(1, a + 1), range(a + 1, d)):
        normals += [unit(d, i, -1) for i in block]
        normals.append([-1] + [1 if j in block else 0 for j in range(1, d)])
    return GoodCone(dim=d, normals=tuple(map(Vector, normals)), reeb=Vector(reeb))


def cube_closed_form(reeb):
    """Integral of L^-(k+1) over [0, 1]^k, one coordinate at a time:
    the integral of (c + beta x)^-m over [0, 1] is
    (c^(1-m) - (c + beta)^(1-m)) / ((m - 1) beta), so the k steps leave
    sum over corners eps of (-1)^|eps| / L(eps), over k! prod(b_i)."""
    b0, *bs = reeb
    k = len(bs)
    total = Fraction(0)
    for eps in product((0, 1), repeat=k):
        total += Fraction((-1) ** sum(eps)) / (b0 + sum(e * bi for e, bi in zip(eps, bs)))
    denominator = factorial(k)
    for bi in bs:
        denominator *= bi
    return total / denominator


def simplex_product_closed_form(a, b, reeb):
    """Integral of L^-(n+1) over Delta^a x Delta^b by the staircase
    triangulation.  Its simplices are the monotone lattice paths from (0, 0)
    to (a, b) through the vertex pairs (p_i, q_j), p_0 = q_0 = 0, p_i = e_i;
    each is unimodular.  On a unimodular n-simplex with vertex values
    c_0..c_n, the integral of L^-(n+1) is 1/(n! prod c): by Hermite-Genocchi
    it is the divided difference at c_0..c_n of (-1)^n / (n! t).  So the
    volume is the sum over paths of prod 1/L(p_i, q_j) along the path, over n!."""
    n = a + b
    x, y = [0] + list(reeb[1:a + 1]), [0] + list(reeb[a + 1:])
    total = Fraction(0)
    for right_steps in combinations(range(n), a):
        i = j = 0
        term = Fraction(1) / (reeb[0] + x[i] + y[j])
        for step in range(n):
            if step in right_steps:
                i += 1
            else:
                j += 1
            term /= reeb[0] + x[i] + y[j]
        total += term
    return total / factorial(n)


def seeded_reeb(parts, seed):
    """(b_0, b_1, ...) with every b_i (i >= 1) a nonzero sampled rational and
    b_0 large enough that L = b_0 + b . p > 0 at each vertex p of the base,
    the product of simplices of dimensions ``parts`` (a k-cube is k 1-simplices)."""
    rng = make_rng(seed)
    blocks = []
    for size in parts:
        block = []
        while len(block) < size:
            x = sample_rational(rng)
            if x != 0:
                block.append(x)
        blocks.append(block)
    b0 = sample_positive_rational(rng) - sum(min([0, *block]) for block in blocks)
    return [b0] + [x for block in blocks for x in block]


CASES = [("cube", k, None) for k in range(2, 6)] + [
    ("product", a, b) for a in range(4) for b in range(max(a, 1), 4)
]


def case_cone(kind, a, b, seed):
    if kind == "cube":
        reeb = seeded_reeb([1] * a, seed)
        return cube_cone_k(a, reeb), cube_closed_form(reeb)
    reeb = seeded_reeb([a, b], seed)
    return simplex_product_cone(a, b, reeb), simplex_product_closed_form(a, b, reeb)


class TestGeneratedCones:
    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("kind, a, b", CASES, ids=[f"{k}-{a}-{b}" for k, a, b in CASES])
    def test_all_routes_equal_closed_form(self, kind, a, b, seed):
        cone, closed = case_cone(kind, a, b, seed)
        n = cone.codim_half
        p = HPolytope.from_cone(cone)
        last = len(p.vertices) - 1
        assert triangulation_volume(p) == closed
        assert triangulation_volume(p, base_index=last) == closed
        assert simplex_volume(p) == simplex_volume(p, last) == closed
        _, lawrence = random_functional(p, make_rng(seed))
        localized = PiScalar(2 * closed, n + 1)
        assert PiScalar(2 * lawrence, n + 1) == localized
        toric = sample_independent(lambda v: toric_volume(cone, v), cone.dim, 2, seed)
        assert toric.value == localized
        orbits = check_v_independence(orbit_system_from_cone(cone), samples=2, seed=seed)
        assert orbits.value == localized

    @pytest.mark.parametrize("kind, a, b", CASES, ids=[f"{k}-{a}-{b}" for k, a, b in CASES])
    def test_triangulation_matches_explicit_simplices_at_every_base(self, kind, a, b):
        p = HPolytope.from_cone(case_cone(kind, a, b, 5)[0])
        for base in range(len(p.vertices)):
            assert triangulation_volume(p, base_index=base) == simplex_volume(p, base)

    def test_closed_forms_agree_on_the_square(self):
        """The 2-cube is Delta^1 x Delta^1: the two closed forms must agree."""
        reeb = [Fraction(7, 2), Fraction(-1, 3), Fraction(5)]
        assert cube_closed_form(reeb) == simplex_product_closed_form(1, 1, reeb)


def det3(r0, r1, r2):
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def msy_facet_sum(normals, reeb):
    """Martelli, Sparks & Yau (CMP 268, 2006): for a toric Calabi-Yau
    3-cone with inward primitive normals v_1..v_d in counterclockwise order
    and Reeb vector b with b_1 = 3,

        Vol / pi^3 = (1/b_1) sum_a (v_(a-1), v_a, v_(a+1))
                     / ((b, v_(a-1), v_a) (b, v_a, v_(a+1))),

    a sum over the facets, not over the vertices of the section."""
    b = [Fraction(x) for x in reeb]
    d = len(normals)
    total = Fraction(0)
    for a in range(d):
        prev, v, nxt = normals[a - 1], normals[a], normals[(a + 1) % d]
        total += Fraction(det3(prev, v, nxt)) / (det3(b, prev, v) * det3(b, v, nxt))
    return total / b[0]


MSY_CONES = {
    "C3": ([(1, 0, 0), (1, 1, 0), (1, 0, 1)], ("3", "1", "1"), Fraction(1)),
    "conifold": ([(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)], ("3", "3/2", "3/2"),
                 Fraction(16, 27)),
    "dP3": ([(1, 1, 0), (1, 0, 1), (1, -1, 1), (1, -1, 0), (1, 0, -1), (1, 1, -1)],
            ("3", "0", "0"), Fraction(2, 9)),
    "Y21": ([(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)], ("3", "1", "1"), Fraction(16, 25)),
}


@pytest.mark.parametrize("name", list(MSY_CONES))
def test_msy_facet_sum_matches_localization(name):
    normals, reeb, expected = MSY_CONES[name]
    assert msy_facet_sum(normals, reeb) == expected
    # this package's cones are {phi(v_i) <= 0}: the inward normals negated
    cone = GoodCone(dim=3, normals=tuple(Vector([-x for x in v]) for v in normals),
                    reeb=Vector(reeb))
    volume = PiScalar(expected, 3)
    assert sample_independent(lambda v: toric_volume(cone, v), 3, 2, 7).value == volume
    assert check_v_independence(orbit_system_from_cone(cone), samples=2, seed=7).value == volume
