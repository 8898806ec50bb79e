from fractions import Fraction

import pytest

from abbvloc.core import Covector, PiScalar, Vector
from abbvloc.errors import (
    AllSamplesPoles,
    EdgeConstantFunctional,
    InputError,
    NotSimpleVertex,
    PoleAtSample,
)
from abbvloc.polytope import (
    HPolytope,
    LinearFunctional,
    lawrence_volume,
    msy_check,
    omega_h,
    random_functional,
    triangulation_volume,
    vertices_from_halfspaces,
)
from abbvloc.sampling import sample_vector
from abbvloc.toric import simplex_cone, weighted_sphere_cone
from conftest import make_rng
from test_toric import cube_cone


def segment_polytope():
    return HPolytope.from_cone(weighted_sphere_cone([1, 2]))


def triangle_polytope():
    return HPolytope.from_cone(simplex_cone(3))


def cube_polytope():
    return HPolytope.from_cone(cube_cone())


def tesseract_polytope():
    """Section is the cube [-1, 1]^4, volume 16, for the n = 4 case."""
    dim = 5
    normals = []
    for axis in range(4):
        for sign in (1, -1):
            entries = [0] * dim
            entries[axis] = sign
            entries[4] = -1
            normals.append(Vector(entries))
    reeb = Vector([0, 0, 0, 0, 1])
    return HPolytope.from_halfspaces(normals, reeb)


class TestOmegaH:
    def test_basic_example(self):
        assert omega_h(Vector([1, 0]), [Covector([0, 1])], w=Covector([1, 0])) == 1

    def test_default_w(self):
        assert omega_h(Vector([1, 0]), [Covector([0, 1])]) == 1

    def test_independent_of_w(self):
        rng = make_rng(3)
        b = Vector([1, 2, 3])
        edges = [Covector([2, -1, 0]), Covector([0, 3, -2])]
        base = omega_h(b, edges)
        for _ in range(10):
            raw = sample_vector(3, rng)
            pairing = Covector(raw)(b)
            if pairing == 0:
                continue
            w = Covector(raw).scaled(1 / pairing)
            assert omega_h(b, edges, w=w) == base

    def test_dependent_edges_vanish(self):
        b = Vector([1, 2, 3])
        e = Covector([2, -1, 0])
        assert omega_h(b, [e, e.scaled(5)]) == 0

    def test_edge_must_annihilate_reeb(self):
        with pytest.raises(InputError):
            omega_h(Vector([1, 0]), [Covector([1, 1])])


class TestTriangulation:
    def test_segment(self):
        assert triangulation_volume(segment_polytope()) == Fraction(1, 2)

    def test_triangle(self):
        assert triangulation_volume(triangle_polytope()) == Fraction(1, 2)

    def test_cube(self):
        assert triangulation_volume(cube_polytope()) == 8

    def test_tesseract(self):
        assert triangulation_volume(tesseract_polytope()) == 16

    def test_single_vertex_degenerate(self):
        p = HPolytope(
            ambient_dim=2,
            normals=(Vector([-1, 0]), Vector([0, -1])),
            reeb=Vector([1, 1]),
            vertices=(Covector([0, 1]),),
        )
        assert triangulation_volume(p) == 0

    def test_base_vertex_independence(self):
        for p in (segment_polytope(), triangle_polytope(), cube_polytope()):
            reference = triangulation_volume(p)
            for base in range(len(p.vertices)):
                assert triangulation_volume(p, base_index=base) == reference

    def test_non_simple_vertex_rejected(self):
        normals = (
            Vector([1, 0, -1]),
            Vector([-1, 0, -1]),
            Vector([0, 1, -1]),
            Vector([0, -1, -1]),
            Vector([1, 1, -2]),
        )
        p = HPolytope.from_halfspaces(normals, Vector([0, 0, 1]))
        with pytest.raises(NotSimpleVertex):
            triangulation_volume(p)


class TestLawrence:
    def test_triangle_value(self):
        f = LinearFunctional(u=Vector([1, 2, 5]), d_shift=Fraction(1, 3))
        assert lawrence_volume(triangle_polytope(), f) == Fraction(1, 2)

    def test_segment_matches_triangulation(self):
        p = segment_polytope()
        f = LinearFunctional(u=Vector([3, 1]), d_shift=0)
        assert lawrence_volume(p, f) == triangulation_volume(p)

    def test_constant_on_edge_rejected(self):
        # u = (1, 1, 0) pairs equally with the first two triangle vertices
        f = LinearFunctional(u=Vector([1, 1, 0]), d_shift=0)
        with pytest.raises(EdgeConstantFunctional):
            lawrence_volume(triangle_polytope(), f)

    def test_matches_triangulation_randomized(self):
        rng = make_rng(17)
        for p in (
            segment_polytope(),
            triangle_polytope(),
            HPolytope.from_cone(simplex_cone(4)),
            cube_polytope(),
            tesseract_polytope(),
        ):
            expected = triangulation_volume(p)
            for _ in range(20):
                f = random_functional(p, rng)
                assert lawrence_volume(p, f) == expected

    def test_functional_independence(self):
        rng = make_rng(19)
        p = cube_polytope()
        f1 = random_functional(p, rng)
        f2 = random_functional(p, rng)
        assert lawrence_volume(p, f1) == lawrence_volume(p, f2)


class TestHPolytope:
    def test_vertex_off_hyperplane_rejected(self):
        with pytest.raises(InputError):
            HPolytope(
                ambient_dim=2,
                normals=(Vector([-1, 0]), Vector([0, -1])),
                reeb=Vector([1, 1]),
                vertices=(Covector([2, 1]),),
            )

    def test_vertex_violating_facet_rejected(self):
        with pytest.raises(InputError):
            HPolytope(
                ambient_dim=2,
                normals=(Vector([-1, 0]), Vector([0, -1])),
                reeb=Vector([1, 1]),
                vertices=(Covector([2, -1]),),
            )

    def test_halfspace_enumeration_matches_cone_route(self):
        cone = weighted_sphere_cone([2, 3, 7])
        p = HPolytope.from_cone(cone)
        q = HPolytope.from_halfspaces(cone.normals, cone.reeb)
        assert sorted(tuple(v) for v in p.vertices) == sorted(tuple(v) for v in q.vertices)

    def test_standalone_enumeration_keeps_non_simple_vertices(self):
        normals = (
            Vector([1, 0, -1]),
            Vector([-1, 0, -1]),
            Vector([0, 1, -1]),
            Vector([0, -1, -1]),
            Vector([1, 1, -2]),
        )
        found = vertices_from_halfspaces(normals, Vector([0, 0, 1]))
        actives = {tuple(phi): act for phi, act in found}
        assert len(actives[(1, 1, 1)]) == 3


class TestMsyBridge:
    def test_weighted_s3(self):
        result = msy_check(weighted_sphere_cone([1, 2]), seed=7)
        assert result.equal
        assert result.lhs == PiScalar(1, 2)
        assert result.section_volume == Fraction(1, 2)

    def test_all_fixture_cones(self):
        cones = [
            weighted_sphere_cone([1, 2]),
            weighted_sphere_cone([2, 3, 7]),
            weighted_sphere_cone([1, 2, 3, 5]),
            simplex_cone(3),
            simplex_cone(4),
            cube_cone(),
        ]
        for cone in cones:
            result = msy_check(cone, seed=11)
            assert result.equal, f"bridge failed for {cone}"

    def test_lattice_unit_cone(self):
        result = msy_check(simplex_cone(2, pi_scale_exponent=0), seed=13)
        assert result.equal
        assert result.lhs.pi_power == 0

    def test_exhausted_samples_raise_all_samples_poles(self, monkeypatch):
        import abbvloc.polytope

        def always_pole(cone, v):
            raise PoleAtSample("every sample is a pole")

        monkeypatch.setattr(abbvloc.polytope, "toric_volume", always_pole)
        with pytest.raises(AllSamplesPoles):
            msy_check(weighted_sphere_cone([1, 2]), seed=7)
