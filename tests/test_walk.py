"""The vertex walk against the walk that re-pairs every normal at each vertex.

``toric._walk`` carries the products of its dictionary with every normal in
its tableau; ``vertex_oracle.repairing_walk`` computes them afresh at each
vertex.  Both must return the same (scale, found): the same vertices in the
same order, with the same labels, dictionaries and T, or raise the same
error with the same message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vertex_oracle
from abbvloc import toric
from abbvloc.core import Vector, rat
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
