"""The vertex walk against the walk that re-pairs every normal at each vertex.

``toric._walk`` carries the products of its dictionary with every normal in
its tableau; ``vertex_oracle.repairing_walk`` computes them afresh at each
vertex.  Both must return the same (scale, found): the same vertices in the
same order, each as its labels, dictionary and T, whose row for the Reeb
vector is the vertex times T / scale, or raise the same error with the same
message.

The section keeps each vertex as integers, (Q, P) in lowest terms, from the
walk to the volume routes.  ``TestIntegerVerticesEqualTheFractionPoints``
keeps the Fraction derivations that they replace as oracles: the point
scale * A[b's row] / T as a Covector, the section sorted by those Fraction
tuples, and ``core._integer_row`` and ``engine._row`` of each point.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vertex_oracle
from abbvloc import toric
from abbvloc.core import Covector, Vector, _integer_row, rat
from abbvloc.engine import _row
from abbvloc.errors import InputError, NotSimpleVertex
from test_cli import section_documents
from test_generated_cones import (
    CASES,
    case_cone,
    cube_cone_k,
    seeded_reeb,
    simplex_product_cone,
)
from test_polytope import bounded_section_documents

PRODUCTS = [(a, b) for a in range(5) for b in range(max(a, 1), 5)]


def walk_or_error(walk, normals, reeb):
    try:
        return walk(normals, reeb)
    except (NotSimpleVertex, InputError) as error:
        return type(error), str(error)


def assert_walks_equal(normals, reeb):
    want = walk_or_error(vertex_oracle.repairing_walk, normals, reeb)
    assert walk_or_error(toric._walk, normals, reeb) == want
    return want


def document_halfspaces(doc) -> tuple:
    return [Vector(rat(x) for x in v) for v in doc["normals"]], Vector(rat(x) for x in doc["reeb"])


class TestWalkEqualsTheRepairingOracle:
    @pytest.mark.parametrize("kind, a, b", CASES, ids=[f"{k}-{a}-{b}" for k, a, b in CASES])
    def test_generated_cones(self, kind, a, b):
        cone = case_cone(kind, a, b, 3)[0]
        assert_walks_equal(cone.normals, cone.reeb)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_cube_cones(self, k):
        cone = cube_cone_k(k)
        scale, found = assert_walks_equal(cone.normals, cone.reeb)
        assert len(found) == 2**k

    @pytest.mark.parametrize("a, b", PRODUCTS, ids=[f"{a}x{b}" for a, b in PRODUCTS])
    def test_simplex_products(self, a, b):
        cone = simplex_product_cone(a, b, seeded_reeb([a, b], 5))
        scale, found = assert_walks_equal(cone.normals, cone.reeb)
        assert len(found) == (a + 1) * (b + 1)

    def test_not_simple_vertex(self):
        # a square section with an extra diagonal facet through one corner
        normals = [Vector(v) for v in ([1, 0, -1], [-1, 0, -1], [0, 1, -1], [0, -1, -1],
                                       [1, 1, -2])]
        error, message = assert_walks_equal(normals, Vector([0, 0, 1]))
        assert error is NotSimpleVertex

    def test_more_than_max_vertices(self, monkeypatch):
        monkeypatch.setattr(toric, "MAX_VERTICES", 8)
        monkeypatch.setattr(vertex_oracle, "MAX_VERTICES", 8)
        cone = cube_cone_k(4)
        assert assert_walks_equal(cone.normals, cone.reeb) == (
            InputError, "the section has more than MAX_VERTICES = 8 vertices")

    @settings(max_examples=300, deadline=None)
    @given(doc=st.one_of(section_documents(), bounded_section_documents()))
    def test_documents(self, doc):
        assert_walks_equal(*document_halfspaces(doc))


def fraction_points(scale, found) -> dict:
    """Each vertex that the walk found, keyed by its facets, as the Covector
    scale * A[b's row] / T that the walk used to build at every vertex."""
    return {frozenset(labels) - {-1}: Covector(Fraction(scale * x, t) for x in a[labels.index(-1)])
            for labels, a, t in found}


def assert_integer_vertices_equal_the_fraction_points(normals, reeb):
    """The section's integer vertices, their order and the orbit data's
    moment rows equal what the Fraction points give."""
    scale, found = toric._walk(normals, reeb)
    points = fraction_points(scale, found)
    p = toric.HPolytope(normals, reeb, toric._sorted_orbits(scale, found))
    views = [o.vertex for o in p.orbits]
    assert views == [points[frozenset(o.facet_indices)] for o in p.orbits]
    assert views == sorted(points.values(), key=tuple)
    assert p.integer_vertices == tuple((q, tuple(row)) for q, row in map(_integer_row, views))
    for (q, row), view in zip(p.integer_vertices, views):
        assert _row(row, q) == _row(view)
    return p


PRODUCTS_TO_12 = [(1, 1), (1, 12), (2, 5), (3, 3), (4, 7), (6, 6), (9, 9), (5, 12), (12, 12)]


class TestIntegerVerticesEqualTheFractionPoints:
    @pytest.mark.parametrize("kind, a, b", CASES, ids=[f"{k}-{a}-{b}" for k, a, b in CASES])
    def test_generated_cones(self, kind, a, b):
        for seed in (3, 11):
            cone = case_cone(kind, a, b, seed)[0]
            assert_integer_vertices_equal_the_fraction_points(cone.normals, cone.reeb)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_cube_cones(self, k):
        cone = cube_cone_k(k, seeded_reeb([1] * k, 5))
        p = assert_integer_vertices_equal_the_fraction_points(cone.normals, cone.reeb)
        assert len(p.orbits) == 2**k

    @pytest.mark.parametrize("a, b", PRODUCTS_TO_12, ids=[f"{a}x{b}" for a, b in PRODUCTS_TO_12])
    def test_simplex_products(self, a, b):
        cone = simplex_product_cone(a, b, seeded_reeb([a, b], 5))
        p = assert_integer_vertices_equal_the_fraction_points(cone.normals, cone.reeb)
        assert len(p.orbits) == (a + 1) * (b + 1)

    @settings(max_examples=200, deadline=None)
    @given(doc=bounded_section_documents())
    def test_bounded_section_documents(self, doc):
        assert_integer_vertices_equal_the_fraction_points(*document_halfspaces(doc))
