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

import json
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abbvloc.cli import main
from abbvloc.core import Covector, PiScalar, Vector, _integer_row, rat_str
from abbvloc.engine import check_v_independence
from abbvloc.errors import PoleAtSample
from abbvloc.polytope import (
    HPolytope,
    lawrence_volume,
    sample_lawrence,
    triangulation_volume,
)
from abbvloc.sampling import POSITIVE_POOL, sample_independent, sample_rational
from abbvloc.toric import GoodCone, orbit_system_from_cone, toric_volume, weighted_sphere_cone
from conftest import make_rng, random_unimodular
from functional_oracle import assert_sample_lawrence_matches, edge_coefficients, fraction_lawrence
from matrix_oracle import apply, elimination_det, inverse, solve, vertex_dets
from simplex_oracle import base_first, pulling_simplices, simplex_volume
from toric_det_oracle import toric_volume_by_fraction_dets
from vertex_oracle import assert_facet_sets_by_pairing


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
    b0 = rng.choice(POSITIVE_POOL) - sum(min([0, *block]) for block in blocks)
    return [b0] + [x for block in blocks for x in block]


def cut_corner(polygon, i):
    """Cut the corner polygon[i] of a smooth polygon at depth 1: with
    primitive edge directions e1 (to the previous vertex) and e2 (to the
    next) forming a lattice basis, the corner becomes p + e1, p + e2, joined
    by e2 - e1, and both new corners are smooth again.  Both edges at p must
    have lattice length at least 2."""
    p, prev, nxt = polygon[i], polygon[i - 1], polygon[(i + 1) % len(polygon)]
    corners = []
    for q in (prev, nxt):
        step = (q[0] - p[0], q[1] - p[1])
        g = gcd(*step)
        assert g >= 2
        corners.append((p[0] + step[0] // g, p[1] + step[1] // g))
    return polygon[:i] + corners + polygon[i + 1:]


# smooth (Delzant) lattice polygons, counterclockwise: a blown-up square,
# a twice blown-up triangle, the dP3 hexagon and a Hirzebruch trapezoid
SMOOTH_POLYGONS = [
    cut_corner([(0, 0), (2, 0), (2, 2), (0, 2)], 0),
    cut_corner(cut_corner([(0, 0), (3, 0), (0, 3)], 0), 2),
    cut_corner(cut_corner([(0, 0), (3, 0), (3, 2), (0, 2)], 0), 3),
    cut_corner([(0, 0), (3, 0), (1, 2), (0, 2)], 0),
]


def polygon_cone(polygon, reeb):
    """Cone over the polygon at height phi_0 = 1: the edge from p to q, with
    primitive direction e, is the facet u . x + lam phi_0 >= 0 for the inward
    normal u = (-e_y, e_x) and lam = -u . p."""
    normals = []
    for p, q in zip(polygon, polygon[1:] + polygon[:1]):
        g = gcd(q[0] - p[0], q[1] - p[1])
        u = (-(q[1] - p[1]) // g, (q[0] - p[0]) // g)
        lam = -(u[0] * p[0] + u[1] * p[1])
        normals.append([-lam, -u[0], -u[1]])
    return GoodCone(dim=3, normals=tuple(map(Vector, normals)), reeb=Vector(reeb))


def polygon_reeb(polygon, seed):
    """(b_0, b_1, b_2) with b_1, b_2 nonzero sampled rationals and b_0 large
    enough that L = b_0 + b . p > 0 at every vertex of the polygon."""
    rng = make_rng(seed)
    bs = []
    while len(bs) < 2:
        x = sample_rational(rng)
        if x != 0:
            bs.append(x)
    low = min(bs[0] * x + bs[1] * y for x, y in polygon)
    return [rng.choice(POSITIVE_POOL) - min(low, 0)] + bs


def polygon_closed_form(polygon, reeb):
    """Integral of L^-3 over the polygon, fanned into triangles from its
    first vertex.  On a triangle with vertex values c_0, c_1, c_2 the
    integral is area / (c_0 c_1 c_2): an affine image of the unimodular
    case of simplex_product_closed_form, with Jacobian 2 * area."""
    def value(p):
        return reeb[0] + reeb[1] * p[0] + reeb[2] * p[1]

    p0 = polygon[0]
    total = Fraction(0)
    for p, q in zip(polygon[1:], polygon[2:]):
        area = Fraction(abs((p[0] - p0[0]) * (q[1] - p0[1]) - (p[1] - p0[1]) * (q[0] - p0[0])), 2)
        total += area / (value(p0) * value(p) * value(q))
    return total


CASES = [("cube", k, None) for k in range(2, 6)] + [
    ("product", a, b) for a in range(4) for b in range(max(a, 1), 4)
] + [("polygon", i, None) for i in range(len(SMOOTH_POLYGONS))]


def case_cone(kind, a, b, seed):
    if kind == "cube":
        reeb = seeded_reeb([1] * a, seed)
        return cube_cone_k(a, reeb), cube_closed_form(reeb)
    if kind == "polygon":
        reeb = polygon_reeb(SMOOTH_POLYGONS[a], seed)
        return polygon_cone(SMOOTH_POLYGONS[a], reeb), polygon_closed_form(SMOOTH_POLYGONS[a], reeb)
    reeb = seeded_reeb([a, b], seed)
    return simplex_product_cone(a, b, reeb), simplex_product_closed_form(a, b, reeb)


def assert_walk_rows_equal_inverse(cone):
    """The walk's moment (row 0) and weights (rows 1..n), as the vertex and
    as the orbit system's ``moment`` and ``weights`` views, are the rows of
    the inverse of (b | normals in facet-index order), and abs_delta is the
    absolute value of its determinant, both by the Fraction oracle."""
    system = orbit_system_from_cone(cone)
    for orbit, datum in zip(cone.section.orbits, system.orbits, strict=True):
        columns = [cone.reeb, *(cone.normals[i] for i in orbit.facet_indices)]
        m = list(zip(*columns))
        rows = inverse(m)
        assert orbit.vertex == datum.moment == Covector(rows[0])
        assert datum.weights == tuple(Covector(row) for row in rows[1:])
        assert orbit.abs_delta == abs(elimination_det(m))


class TestGeneratedCones:
    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("kind, a, b", CASES, ids=[f"{k}-{a}-{b}" for k, a, b in CASES])
    def test_all_routes_equal_closed_form(self, kind, a, b, seed):
        cone, closed = case_cone(kind, a, b, seed)
        n = cone.codim_half
        p = cone.section
        last = base_first(len(p.vertices), len(p.vertices) - 1)
        assert triangulation_volume(p) == closed
        assert triangulation_volume(p, order=last) == closed
        assert simplex_volume(p) == simplex_volume(p, last) == closed
        lawrence = sample_lawrence(p, 1, seed).value
        localized = PiScalar(2 * closed, n + 1)
        assert PiScalar(2 * lawrence, n + 1) == localized
        toric = sample_independent(lambda v: toric_volume(cone, v), cone.dim, 2, seed)
        assert toric.value == localized
        orbits = check_v_independence(orbit_system_from_cone(cone), samples=2, seed=seed)
        assert orbits.value == localized

    @pytest.mark.parametrize("kind, a, b", CASES, ids=[f"{k}-{a}-{b}" for k, a, b in CASES])
    def test_scaled_normals_print_the_same_bytes(self, kind, a, b, tmp_path, capsys):
        """Each normal of the cone's bare section scaled by a positive
        rational from POSITIVE_POOL bounds the same section, so
        polytope-volume and lawrence print the --json bytes of the unscaled
        document.  The scaled section's primitive rows are the cone's
        normals, and its abs_dets are |det(b, v_S)| of those rows by
        Fraction elimination."""
        cone, _ = case_cone(kind, a, b, 3)
        rng = make_rng(17)
        scales = [rng.choice(POSITIVE_POOL) for _ in cone.normals]
        assert any(s != 1 for s in scales)
        scaled = [v.scaled(s) for v, s in zip(cone.normals, scales)]
        p = HPolytope.from_halfspaces(scaled, cone.reeb)
        assert p.integer_normals == tuple(tuple(int(x) for x in v) for v in cone.normals)
        assert p.vertices == cone.section.vertices
        assert list(p.abs_dets) == vertex_dets(cone.section)
        path = tmp_path / "section.json"
        outputs = []
        for normals in (cone.normals, scaled):
            path.write_text(json.dumps({"dim": cone.dim,
                                        "normals": [[rat_str(x) for x in v] for v in normals],
                                        "reeb": [rat_str(x) for x in cone.reeb]}))
            for command in ("polytope-volume", "lawrence"):
                assert main([command, "--input", str(path), "--json"]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:]

    @pytest.mark.parametrize("kind, a, b", CASES, ids=[f"{k}-{a}-{b}" for k, a, b in CASES])
    def test_edge_coefficients_equal_the_expansion(self, kind, a, b):
        """Each coefficient gamma_j that the Fraction oracle reads off the
        section's edges is the j-th coordinate of u in (b, v_S), solved by
        Fraction elimination, and lawrence_volume's integer form gives the
        oracle's volume at the same f.  On the cone's section, on the bare
        section of the same halfspaces, and on the bare section with the
        first normal scaled by 3/2 (non-primitive, rational), where gamma_j
        shrinks by 2/3 and |det(b, v_S)| grows by 3/2: the volumes stay."""
        cone, closed = case_cone(kind, a, b, 3)
        normals = [cone.normals[0].scaled(Fraction(3, 2)), *cone.normals[1:]]
        (f,) = sample_lawrence(cone.section, 1, 3).samples_used
        *u, d = f
        for p in (cone.section, HPolytope.from_halfspaces(cone.normals, cone.reeb),
                  HPolytope.from_halfspaces(normals, cone.reeb)):
            values = [phi(u) + d for phi in p.vertices]
            for orbit, gammas in zip(p.orbits, edge_coefficients(p, values)):
                columns = [p.reeb, *(p.normals[j] for j in orbit.facet_indices)]
                expansion = solve(list(zip(*columns)), u)
                assert gammas == dict(zip(orbit.facet_indices, expansion[1:]))
            assert lawrence_volume(p, f) == fraction_lawrence(p, f) == triangulation_volume(p) == closed

    def test_lawrence_draws_equal_the_retry_loop(self):
        """On every cube and Delta^a x Delta^b case at three seeds, the
        functionals are the ones the deleted u-then-d retry loop drew, at
        the same draw indices; edge-constant draws do occur and are redrawn."""
        rejected = 0
        for kind, a, b in CASES:
            if kind == "polygon":
                continue
            for seed in (3, 8, 11):
                p = case_cone(kind, a, b, seed)[0].section
                rejected += assert_sample_lawrence_matches(p, seed, 3)
        assert rejected > 0

    @pytest.mark.parametrize("kind, a, b", CASES, ids=[f"{k}-{a}-{b}" for k, a, b in CASES])
    def test_triangulation_matches_explicit_simplices_at_every_base(self, kind, a, b):
        p = case_cone(kind, a, b, 5)[0].section
        for base in range(len(p.vertices)):
            order = base_first(len(p.vertices), base)
            assert triangulation_volume(p, order=order) == simplex_volume(p, order)

    @pytest.mark.parametrize("kind, a, b, shared, total", [
        ("cube", 3, None, 0, 6), ("cube", 4, None, 0, 24), ("cube", 5, None, 0, 120),
        ("product", 1, 1, 0, 2), ("product", 2, 2, 1, 6), ("product", 2, 3, 1, 10),
        ("product", 3, 3, 4, 20),
    ], ids=["cube-3", "cube-4", "cube-5", "product-1-1", "product-2-2", "product-2-3",
            "product-3-3"])
    def test_base_vertex_check_orders_share_few_simplices(self, kind, a, b, shared, total):
        """polytope-volume checks the ascending pulling order against the
        one that pulls the section from vertex 1 and every proper face from
        its smallest vertex: on the cube and Delta^a x Delta^b sections the
        two triangulations share ``shared`` of their ``total`` simplices.
        The descending order shares all of them, so it checks nothing."""
        p = case_cone(kind, a, b, 5)[0].section
        count = len(p.vertices)

        def simplices(order):
            return {frozenset(s) for s in pulling_simplices(list(order), frozenset(),
                                                            p.facet_sets, p.section_dim)}

        ascending, from_one = simplices(range(count)), simplices(base_first(count, 1))
        assert len(ascending) == len(from_one) == total
        assert len(ascending & from_one) == shared
        assert simplices(range(count - 1, -1, -1)) == ascending

    @pytest.mark.parametrize("kind, a, b", CASES, ids=[f"{k}-{a}-{b}" for k, a, b in CASES])
    def test_descending_order_matches_explicit_simplices(self, kind, a, b):
        """A second full order besides the bases in turn: descending."""
        p = case_cone(kind, a, b, 5)[0].section
        order = range(len(p.vertices) - 1, -1, -1)
        assert triangulation_volume(p, order=order) == simplex_volume(p, order)

    @pytest.mark.parametrize("kind, a, b", CASES, ids=[f"{k}-{a}-{b}" for k, a, b in CASES])
    def test_walk_rows_equal_inverse(self, kind, a, b):
        cone = case_cone(kind, a, b, 5)[0]
        assert len(cone.section.orbits) == (len(SMOOTH_POLYGONS[a]) if kind == "polygon"
                                            else 2**a if kind == "cube" else (a + 1) * (b + 1))
        assert_walk_rows_equal_inverse(cone)

    @pytest.mark.parametrize("kind, a, b", CASES, ids=[f"{k}-{a}-{b}" for k, a, b in CASES])
    def test_facet_sets_equal_the_pairing(self, kind, a, b):
        cone = case_cone(kind, a, b, 5)[0]
        p = cone.section
        assert_facet_sets_by_pairing(p)
        q = HPolytope.from_halfspaces(cone.normals, cone.reeb)
        assert_facet_sets_by_pairing(q)
        # one builder: the same orbits, dictionary rows and T as the cone's
        assert q == p

    @pytest.mark.parametrize("index", range(len(SMOOTH_POLYGONS)))
    def test_polygons_are_smooth(self, index):
        polygon = SMOOTH_POLYGONS[index]
        for i, p in enumerate(polygon):
            e1 = [a - c for a, c in zip(polygon[i - 1], p)]
            e2 = [a - c for a, c in zip(polygon[(i + 1) % len(polygon)], p)]
            # counterclockwise and a lattice basis at every corner
            assert e1[0] * e2[1] - e1[1] * e2[0] == -gcd(*e1) * gcd(*e2)

    def test_closed_forms_agree_on_the_square(self):
        """The 2-cube is Delta^1 x Delta^1: the two closed forms must agree."""
        reeb = [Fraction(7, 2), Fraction(-1, 3), Fraction(5)]
        assert cube_closed_form(reeb) == simplex_product_closed_form(1, 1, reeb)


def lattice_basis_cone(cone, seed):
    """The same cone given in the coordinates of a random unimodular basis."""
    basis = random_unimodular(cone.dim, make_rng(seed))
    return GoodCone(dim=cone.dim, normals=tuple(apply(basis, v) for v in cone.normals),
                    reeb=apply(basis, cone.reeb), lattice_basis=basis)


# cube cones and Delta^a x Delta^b at integer and rational Reeb vectors, and
# two of them in a lattice basis
ORACLE_CONES = [
    cube_cone_k(2), cube_cone_k(3), cube_cone_k(4, [5, Fraction(1, 2), Fraction(3, 2), 2, 1]),
    case_cone("cube", 3, None, 3)[0], case_cone("product", 1, 2, 8)[0],
    case_cone("product", 2, 2, 3)[0], case_cone("polygon", 2, None, 3)[0],
    lattice_basis_cone(case_cone("product", 1, 1, 8)[0], 4),
    lattice_basis_cone(cube_cone_k(3, [Fraction(9, 2), 1, Fraction(-1, 3), 2]), 6),
]


def edge_pole_samples(cone) -> list:
    """For every edge T of the section and every facet t in T, the sample
    b + v_t: det(b, b + v_t, v_T) = det(b, v_t, v_T) = 0, so the slot
    determinant that both ends of T share vanishes."""
    samples = []
    orbits = cone.section.orbits
    for first, second in cone.section.edges:
        edge = set(orbits[first].facet_indices) & set(orbits[second].facet_indices)
        for t in sorted(edge):
            samples.append([x + y for x, y in zip(cone.reeb, cone.normals[t])])
    return samples


# every edge of cube cone 3 and of the Delta^1 x Delta^2 cone zeroed in turn
EDGE_POLE_SAMPLES = [(index, v) for index in (1, 4) for v in edge_pole_samples(ORACLE_CONES[index])]

# small rationals with zero and negative entries: slot determinants vanish often
SAMPLE_ENTRIES = st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
                                  Fraction(5, 4), 7])


def toric_volume_or_pole(route, cone, v):
    try:
        return route(cone, v)
    except PoleAtSample as exc:
        return ("pole", str(exc))


class TestToricDeterminantOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), index=st.integers(0, len(ORACLE_CONES) - 1))
    def test_integer_columns_equal_fraction_determinants(self, data, index):
        """toric_volume on the cone's integer columns gives the PiScalar of
        the Fraction-matrix formula, or the same PoleAtSample message."""
        cone = ORACLE_CONES[index]
        v = data.draw(st.lists(SAMPLE_ENTRIES, min_size=cone.dim, max_size=cone.dim))
        assert (toric_volume_or_pole(toric_volume, cone, v)
                == toric_volume_or_pole(toric_volume_by_fraction_dets, cone, v))

    @pytest.mark.parametrize("index, v", EDGE_POLE_SAMPLES)
    def test_shared_edge_poles(self, index, v):
        """A sample that zeros one edge's determinant is a pole at the first
        vertex and slot on a vanishing edge, as the Fraction formula says."""
        cone = ORACLE_CONES[index]
        result = toric_volume_or_pole(toric_volume, cone, v)
        assert result[0] == "pole"
        assert result == toric_volume_or_pole(toric_volume_by_fraction_dets, cone, v)

    @pytest.mark.parametrize("exponent", [0, 1])
    @pytest.mark.parametrize("d", range(2, 8))
    def test_weighted_spheres_every_global_sign(self, d, exponent):
        """On the weighted-sphere cones with weights 1..d, n = d - 1 takes
        every residue mod 4, so the one sign (-1)^(n//2) in which the slot
        signs (-1)^(i-1) multiply is checked in each: toric_volume gives the
        Fraction formula's PiScalar, the closed form 2^k pi^(n+k) / (n! d!),
        or its PoleAtSample message.  A sample parallel to b zeros every
        slot, and one with v_0 / w_0 = v_1 / w_1 zeros the slots between
        the first two orbits only."""
        cone = weighted_sphere_cone(range(1, d + 1), exponent)
        k = cone.two_pi_exponent
        rng = make_rng(d)
        samples = [[sample_rational(rng) for _ in range(d)] for _ in range(8)]
        samples += [list(range(1, d + 1)), [3, 6, *(x * x + 1 for x in range(3, d + 1))]]
        outcomes = [toric_volume_or_pole(toric_volume, cone, v) for v in samples]
        assert outcomes == [toric_volume_or_pole(toric_volume_by_fraction_dets, cone, v)
                            for v in samples]
        closed = PiScalar(Fraction(2) ** k / (factorial(d - 1) * factorial(d)), d - 1 + k)
        assert {result for result in outcomes if not isinstance(result, tuple)} == {closed}
        assert outcomes[-2] == ("pole", "det(b, ..., v, ...) vanishes at slot 1 of vertex "
                                        f"{tuple(cone.section.orbits[0].vertex)}")
        assert outcomes[-1][0] == "pole"

    def test_both_outcomes_occur(self):
        """The oracle comparison meets poles and values on these cones."""
        rng = make_rng(17)
        outcomes = set()
        for cone in ORACLE_CONES:
            for _ in range(12):
                v = [sample_rational(rng) for _ in range(cone.dim)]
                result = toric_volume_or_pole(toric_volume, cone, v)
                assert result == toric_volume_or_pole(toric_volume_by_fraction_dets, cone, v)
                outcomes.add(isinstance(result, tuple))
        assert outcomes == {True, False}


# the cases' cones at a seeded Reeb vector, and cube cones 2-5 at the default one
FORM_CONES = [(f"{k}-{a}-{b}", lambda k=k, a=a, b=b: case_cone(k, a, b, 3)[0])
              for k, a, b in CASES] + [(f"cube-{k}-default", lambda k=k: cube_cone_k(k))
                                        for k in range(2, 6)]


class TestMinorForms:
    """The section's covectors N_S(x) = det(x, v_S) and the per-edge
    three-term relation that toric_volume evaluates, against determinants
    of the Fraction oracle."""

    @pytest.mark.parametrize("build", [b for _, b in FORM_CONES], ids=[i for i, _ in FORM_CONES])
    def test_edge_relation_equals_the_determinant(self, build):
        cone = build()
        p = cone.section
        forms, at_reeb, slots, edges = p.minor_forms
        lb, b = _integer_row(cone.reeb)  # L_b b
        rng = make_rng(29)
        xs = [[rng.choice(range(-7, 8)) for _ in range(cone.dim)] for _ in range(3)]
        for orbit, form, reeb, abs_det in zip(p.orbits, forms, at_reeb, p.abs_dets):
            normals = [cone.normals[i] for i in orbit.facet_indices]
            assert reeb == elimination_det([b, *normals])
            assert abs_det == Fraction(abs(reeb), lb)  # the walk against _cofactors
            for x in xs:
                assert sum(map(mul, form, x)) == elimination_det([x, *normals])
        assert [e[:2] for e in edges] == list(p.edges)
        for e, (first, second, d) in enumerate(edges):
            left, right = p.orbits[first].facet_indices, p.orbits[second].facet_indices
            edge = [i for i in left if i in right]
            (i,) = [i for i, f in enumerate(left, 1) if f not in right]
            (j,) = [j for j, f in enumerate(right, 1) if f not in left]
            assert slots[first][i - 1] == slots[second][j - 1] == e
            assert d != 0
            for x in xs:
                combination = (at_reeb[second] * sum(map(mul, forms[first], x))
                               - at_reeb[first] * sum(map(mul, forms[second], x)))
                assert combination % d == 0
                assert combination // d == elimination_det([b, x, *(cone.normals[t] for t in edge)])


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
