import json
from fractions import Fraction
from functools import cached_property
from math import factorial

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from abbvloc import polytope, toric
from abbvloc.cli import main
from abbvloc.core import Covector, PiScalar, Vector, rat, rat_str
from abbvloc.errors import (
    AllSamplesPoles,
    EdgeConstantFunctional,
    InputError,
    LocalizationError,
    NotSimpleVertex,
    PoleAtSample,
    UnboundedSection,
)
from abbvloc.polytope import (
    HPolytope,
    lawrence_volume,
    msy_check,
    sample_lawrence,
    triangulation_volume,
)
from abbvloc.sampling import POSITIVE_POOL, SAMPLE_POOL, sample_vector
from abbvloc.toric import enumerate_vertices, simplex_cone, weighted_sphere_cone
from conftest import make_rng
from functional_oracle import assert_sample_lawrence_matches, fraction_lawrence
from simplex_oracle import base_first, fraction_triangulation, omega_h, simplex_volume
from test_cli import section_documents
from test_cli_golden import cube_cone_doc
from test_generated_cones import CASES, case_cone, cube_cone_k
from test_toric import count_calls_after_the_walk, count_kernel_calls, cube_cone, fixture_cones
from vertex_oracle import assert_facet_sets_by_pairing, vertices_from_halfspaces


def segment_polytope():
    return weighted_sphere_cone([1, 2]).section


def triangle_polytope():
    return simplex_cone(3).section


def cube_polytope():
    return cube_cone().section


def count_pairings(monkeypatch) -> list:
    """Route Covector.__call__ through a counter; returns the list that
    collects the argument of each call."""
    calls = []
    pair = Covector.__call__

    def counting(self, v):
        calls.append(v)
        return pair(self, v)

    monkeypatch.setattr(Covector, "__call__", counting)
    return calls


@st.composite
def bounded_section_documents(draw):
    """Bare documents of dimension 2..4 whose section is bounded and simple
    by construction, each normal scaled by a POSITIVE_POOL rational.  Either
    the orthant's normals -e_i with integers -2..2 added above the diagonal,
    so they stay independent, and the Reeb vector sum_i c_i (-v_i) with
    c_i in POSITIVE_POOL, positive on every nonzero point of the cone: the
    section is a simplex.  Or the cube cone's normals -e_i and e_i - e_0
    with b_0 above minus the sum of the negative b_i: the section is a cube."""
    d = draw(st.integers(2, 4))
    positive = st.sampled_from(POSITIVE_POOL)
    if draw(st.booleans()):
        normals = [[-1 if i == j else draw(st.integers(-2, 2)) if i < j else 0 for j in range(d)]
                   for i in range(d)]
        c = draw(st.lists(positive, min_size=d, max_size=d))
        reeb = [-sum(ci * v[j] for ci, v in zip(c, normals)) for j in range(d)]
    else:
        normals = cube_cone_doc(d - 1)["normals"]
        tail = draw(st.lists(st.sampled_from(SAMPLE_POOL), min_size=d - 1, max_size=d - 1))
        reeb = [draw(positive) - sum(min(0, r) for r in tail), *tail]
    scales = draw(st.lists(positive, min_size=len(normals), max_size=len(normals)))
    return {"dim": d, "normals": [[rat_str(s * x) for x in v] for v, s in zip(normals, scales)],
            "reeb": [rat_str(x) for x in reeb]}


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


def ascending_and_descending(p) -> list:
    count = len(p.vertices)
    return [range(count), range(count - 1, -1, -1)]


class TestTriangulation:
    def test_segment(self):
        assert triangulation_volume(segment_polytope()) == Fraction(1, 2)

    def test_triangle(self):
        assert triangulation_volume(triangle_polytope()) == Fraction(1, 2)

    def test_cube(self):
        assert triangulation_volume(cube_polytope()) == 8

    def test_tesseract(self):
        assert triangulation_volume(tesseract_polytope()) == 16

    def test_base_vertex_independence(self):
        for p in (segment_polytope(), triangle_polytope(), cube_polytope()):
            reference = triangulation_volume(p)
            for base in range(len(p.vertices)):
                assert triangulation_volume(p, order=base_first(len(p.vertices), base)) == reference

    def test_matches_explicit_simplices_at_every_base(self):
        for p in (segment_polytope(), triangle_polytope(), cube_polytope(),
                  tesseract_polytope(), weighted_sphere_cone([2, 3, 7]).section):
            count = len(p.vertices)
            for order in [None, range(count - 1, -1, -1),
                          *(base_first(count, base) for base in range(count))]:
                assert triangulation_volume(p, order=order) == simplex_volume(p, order)

    def test_no_elimination_after_the_walk(self, monkeypatch):
        """The cube 6 section has 64 vertices and 6! = 720 pulling simplices
        per base; the face recursion reads each vertex's determinant off the
        walk, so once the walk has returned no elimination kernel runs."""
        calls = count_calls_after_the_walk(monkeypatch)
        p = cube_cone_k(6).section
        # Reeb (7, 1, ..., 1): the integral of (7 + sum x)^-7 over [0, 1]^6
        # is 6!/13!, the Beta integral of x^6 (1 - x)^6 times 6!/6!
        assert triangulation_volume(p) == Fraction(factorial(6), factorial(13))
        assert len(p.vertices) == 64
        assert calls == {}

    @pytest.mark.parametrize("k, pairings", [(5, 80), (6, 192)])
    def test_apex_pairings_in_both_orders(self, monkeypatch, k, pairings):
        """The ascending and the descending pulling order each pair every
        face's apex with the same number of normals: 80 on the cube-5
        section and 192 on cube 6.  The section pulled from its last vertex
        and every proper face from its smallest took 165 and 486.  A face's
        apex is its first vertex in the order, so the order's last vertex
        is never one.  The Fraction oracle pairs them as Covectors; the
        package runs the same recursion on integer heights."""
        p = cube_cone_k(k).section
        apexes = []
        real = Covector.__call__
        monkeypatch.setattr(Covector, "__call__", lambda c, v: apexes.append(c) or real(c, v))
        volumes = []
        for order in ascending_and_descending(p):
            apexes.clear()
            volumes.append(fraction_triangulation(p, order=order))
            assert len(apexes) == pairings
            assert apexes[-1] is p.vertices[order[0]]
            assert all(apex is not p.vertices[order[-1]] for apex in apexes)
        assert volumes[0] == volumes[1]

    def test_no_covector_pairing(self, monkeypatch):
        """The triangulation reads the vertices and normals as integer rows:
        no Covector.__call__ in either order, with the sections built, and
        their integer rows taken, under the counter."""
        calls = count_pairings(monkeypatch)
        for p in (cube_cone_k(3).section, cube_cone_k(5).section, tesseract_polytope()):
            for order in ascending_and_descending(p):
                triangulation_volume(p, order=order)
        assert calls == []

    def test_non_simple_vertex_rejected(self):
        normals = (
            Vector([1, 0, -1]),
            Vector([-1, 0, -1]),
            Vector([0, 1, -1]),
            Vector([0, -1, -1]),
            Vector([1, 1, -2]),
        )
        reeb = Vector([0, 0, 1])
        with pytest.raises(NotSimpleVertex):
            HPolytope.from_halfspaces(normals, reeb)


class TestTriangulationEqualsTheFractionOracle:
    """triangulation_volume sums integer heights with one Fraction per call;
    simplex_oracle.fraction_triangulation is the same recursion on Fraction
    pairings.  Both orders must give the oracle's value."""

    def assert_equal(self, p):
        for order in ascending_and_descending(p):
            assert triangulation_volume(p, order=order) == fraction_triangulation(p, order=order)

    @pytest.mark.parametrize("kind, a, b", CASES, ids=[f"{k}-{a}-{b}" for k, a, b in CASES])
    def test_generated_cones(self, kind, a, b):
        self.assert_equal(case_cone(kind, a, b, 3)[0].section)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_cube_cones(self, k):
        self.assert_equal(cube_cone_k(k).section)

    def test_fixtures(self):
        for p in (segment_polytope(), triangle_polytope(), cube_polytope(),
                  tesseract_polytope(), weighted_sphere_cone([2, 3, 7]).section):
            self.assert_equal(p)

    @settings(max_examples=60, deadline=None)
    @given(doc=bounded_section_documents())
    def test_bounded_sections_with_rational_normals(self, doc):
        normals = [Vector(rat(x) for x in v) for v in doc["normals"]]
        p = HPolytope.from_halfspaces(normals, Vector(rat(x) for x in doc["reeb"]))
        self.assert_equal(p)

class TestLawrence:
    def test_triangle_value(self):
        assert lawrence_volume(triangle_polytope(), (1, 2, 5, Fraction(1, 3))) == Fraction(1, 2)

    def test_segment_matches_triangulation(self):
        p = segment_polytope()
        assert lawrence_volume(p, (3, 1, 0)) == triangulation_volume(p)

    def test_rational_normals_and_reeb(self):
        """Rescaling each normal of a bare section by a rational leaves both
        volumes unchanged: each edge coefficient shrinks by the factor by
        which |det(b, v_S)| grows."""
        cone = cube_cone_k(3, [Fraction(9, 2), Fraction(1, 3), Fraction(-2, 5), 2])
        scaled = [v.scaled(Fraction(2 * k + 1, k + 2)) for k, v in enumerate(cone.normals)]
        p = HPolytope.from_halfspaces(scaled, cone.reeb)
        volume = triangulation_volume(cone.section)
        assert triangulation_volume(p) == volume
        assert sample_lawrence(p, 3, seed=4).value == volume
        f = (Fraction(1, 2), Fraction(-3, 7), 2, Fraction(5, 3), Fraction(1, 9))
        assert lawrence_volume(p, f) == volume

    def test_constant_on_edge_rejected(self):
        # u = (1, 1, 0) pairs equally with the first two triangle vertices
        with pytest.raises(EdgeConstantFunctional):
            lawrence_volume(triangle_polytope(), (1, 1, 0, 0))

    def test_one_sum_per_functional(self, monkeypatch):
        """A functional's vertex terms are added by one call of the
        module-bound core._sum, one term per vertex; an edge-constant
        functional raises before any sum."""
        p, triangle = cube_cone_k(4).section, triangle_polytope()
        (f,) = sample_lawrence(p, 1, seed=5).samples_used
        volume = triangulation_volume(p)
        sums = []
        real = polytope._sum
        monkeypatch.setattr(polytope, "_sum", lambda terms: sums.append(len(terms)) or real(terms))
        assert lawrence_volume(p, f) == volume
        assert sums == [16]
        sums.clear()
        with pytest.raises(EdgeConstantFunctional):
            lawrence_volume(triangle, (1, 1, 0, 0))
        assert sums == []

    def test_inexact_functional_rejected(self):
        with pytest.raises(TypeError, match="cannot interpret 0.5 as an exact rational"):
            lawrence_volume(triangle_polytope(), (1, 2, 5, 0.5))

    def test_functional_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            lawrence_volume(triangle_polytope(), (1, 2, 0))

    def test_matches_triangulation_randomized(self):
        for p in (
            segment_polytope(),
            triangle_polytope(),
            simplex_cone(4).section,
            cube_polytope(),
            tesseract_polytope(),
        ):
            outcome = sample_lawrence(p, 20, seed=17)
            assert outcome.value == triangulation_volume(p)
            assert len(outcome.samples_used) == 20

    @pytest.mark.parametrize("seed", [1, 7, 19, 42])
    def test_draws_equal_the_retry_loop_on_cubes(self, seed):
        """Each functional is one n+2-coordinate draw: the same (u, d) as
        the deleted u-then-d retry loop, at the same draw index."""
        for k in (2, 3, 4):
            assert_sample_lawrence_matches(cube_cone_k(k).section, seed, 5)
        assert_sample_lawrence_matches(triangle_polytope(), seed, 5)

    def test_edge_constant_functional_is_a_pole(self, capsys, tmp_path, monkeypatch):
        """A section whose every functional draw is edge-constant exhausts
        the draw budget: AllSamplesPoles, exit 2."""
        assert issubclass(EdgeConstantFunctional, PoleAtSample)

        def constant(p, f):
            raise EdgeConstantFunctional("functional constant on every edge")

        monkeypatch.setattr("abbvloc.polytope.lawrence_volume", constant)
        path = tmp_path / "cube2.json"
        path.write_text(json.dumps(cube_cone_doc(2)))
        for command in ("lawrence", "polytope-volume", "msy-check"):
            assert main([command, "--input", str(path), "--json"]) == 2
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["type"] == "AllSamplesPoles"

    @pytest.mark.parametrize("command", ["polytope-volume", "lawrence"])
    def test_command_no_elimination_after_the_walk(self, capsys, tmp_path, monkeypatch, command):
        """Both functionals and the triangulation read |det(b, v_S)| off the
        walk's dictionaries: on cube cone 6 neither command calls an
        elimination kernel or builds orbit data once the walk is done."""
        path = tmp_path / "cube6.json"
        path.write_text(json.dumps(cube_cone_doc(6)))
        calls = count_calls_after_the_walk(monkeypatch)
        assert main([command, "--input", str(path), "--json"]) == 0
        coeff = Fraction(json.loads(capsys.readouterr().out)["coeff"])
        assert coeff == Fraction(factorial(6), factorial(13))
        assert calls == {}

    def test_no_elimination(self, monkeypatch):
        """Once the edges are taken, building the section's integer form,
        |det(b, v_S)| included, and evaluating a functional makes no
        _reduce, _pivot or _cofactors call, pairs no Covector and builds no
        orbit data: the normals' coefficients come off the section's
        edges and the determinants off the walk."""
        cases = []
        for p in (cube_cone_k(4).section, case_cone("product", 2, 3, 3)[0].section):
            p.edges
            (f,) = sample_lawrence(p, 1, seed=5).samples_used
            volume = triangulation_volume(p)
            for name in ("lawrence_form", "abs_dets"):
                p.__dict__.pop(name)
            cases.append((p, f, volume))
        calls = count_kernel_calls(monkeypatch)
        pairings = count_pairings(monkeypatch)
        for p, f, volume in cases:
            assert lawrence_volume(p, f) == volume
        assert calls == {}
        assert pairings == []

    def test_one_form_per_section(self, monkeypatch):
        """sample_lawrence builds the section's integer form once, however
        many functionals it draws and rejects."""
        built = []
        build = HPolytope.lawrence_form.func

        def counting(p):
            built.append(p)
            return build(p)

        form = cached_property(counting)
        form.__set_name__(HPolytope, "lawrence_form")
        monkeypatch.setattr(HPolytope, "lawrence_form", form)
        p = cube_cone_k(3).section
        outcome = sample_lawrence(p, 20, seed=1)
        assert outcome.rejected_poles > 0
        assert sample_lawrence(p, 5, seed=2).value == outcome.value
        assert built == [p]

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=st.one_of(section_documents(), bounded_section_documents()), data=st.data())
    def test_integer_form_equals_the_fraction_oracle(self, doc, data):
        """On the bare sections that test_bare_document_facet_sets_equal_the_pairing
        draws, each normal scaled by a positive rational (so normals are
        rational or non-primitive), at functionals drawn from SAMPLE_POOL:
        lawrence_volume equals the Fraction oracle, or both raise
        EdgeConstantFunctional with the same message."""
        scales = data.draw(st.lists(st.sampled_from(POSITIVE_POOL), min_size=len(doc["normals"]),
                                    max_size=len(doc["normals"])))
        normals = [Vector(rat(x) * s for x in v) for v, s in zip(doc["normals"], scales)]
        reeb = Vector(rat(x) for x in doc["reeb"])
        try:
            p = HPolytope.from_halfspaces(normals, reeb)
            p.edges
        except LocalizationError as error:
            event(f"no bounded section: {type(error).__name__}")
            return
        event("bounded section")
        for _ in range(5):
            f = data.draw(st.lists(st.sampled_from(SAMPLE_POOL), min_size=len(reeb) + 1,
                                   max_size=len(reeb) + 1))
            try:
                expected = fraction_lawrence(p, f)
            except EdgeConstantFunctional as error:
                with pytest.raises(EdgeConstantFunctional) as raised:
                    lawrence_volume(p, f)
                assert str(raised.value) == str(error)
            else:
                assert lawrence_volume(p, f) == expected == triangulation_volume(p)

    def test_functional_independence(self):
        p = cube_polytope()
        outcome = sample_lawrence(p, 2, seed=19)
        f1, f2 = outcome.samples_used
        assert f1 != f2
        assert outcome.value == lawrence_volume(p, f1) == lawrence_volume(p, f2)


class TestHPolytope:
    def test_halfspace_enumeration_matches_cone_route(self):
        cone = weighted_sphere_cone([2, 3, 7])
        p = cone.section
        q = HPolytope.from_halfspaces(cone.normals, cone.reeb)
        assert sorted(tuple(v) for v in p.vertices) == sorted(tuple(v) for v in q.vertices)

    def test_facet_sets_equal_the_pairing_on_fixtures(self):
        for p in (segment_polytope(), triangle_polytope(), cube_polytope(), tesseract_polytope()):
            assert_facet_sets_by_pairing(p)
        for cone in fixture_cones():
            assert_facet_sets_by_pairing(cone.section)
            assert_facet_sets_by_pairing(HPolytope.from_halfspaces(cone.normals, cone.reeb))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=st.one_of(section_documents(), bounded_section_documents()))
    def test_bare_document_facet_sets_equal_the_pairing(self, doc):
        normals = [Vector(rat(x) for x in v) for v in doc["normals"]]
        reeb = Vector(rat(x) for x in doc["reeb"])
        try:
            p = HPolytope.from_halfspaces(normals, reeb)
        except LocalizationError as error:
            event(f"no bounded section: {type(error).__name__}")
            return
        try:
            p.edges
        except UnboundedSection as error:
            event(f"no bounded section: {type(error).__name__}")
        else:
            event("bounded section")
        assert_facet_sets_by_pairing(p)
        assert p.vertices == tuple(phi for phi, _ in vertices_from_halfspaces(normals, reeb))

    def test_construction_pairs_no_covector(self, monkeypatch):
        """The walk's basis labels are the facet sets: building a section
        evaluates no Covector, from a cone that holds its orbits or from
        bare halfspaces."""
        cone = cube_cone_k(4)
        cone.section
        calls = count_pairings(monkeypatch)
        p = cone.section
        q = HPolytope.from_halfspaces(cone.normals, cone.reeb)
        assert calls == []
        assert len(p.vertices) == len(q.vertices) == 16

    def test_one_class_under_every_name(self):
        import abbvloc
        from abbvloc import polytope, toric

        assert abbvloc.HPolytope is polytope.HPolytope is toric.HPolytope

    def test_the_cone_keeps_one_section(self):
        """The cone keeps the section that enumerate_vertices found the
        orbits of, with its sorted vertices and their facet sets read off
        them."""
        for cone in fixture_cones():
            section = cone.section
            assert section is cone.section
            assert section.orbits == enumerate_vertices(cone)
            assert section.vertices == tuple(o.vertex for o in section.orbits)
            assert section.facet_sets == tuple(frozenset(o.facet_indices)
                                               for o in section.orbits)

    def test_polytope_binds_no_private_toric_name(self):
        from abbvloc import polytope, toric

        assert [name for name, value in vars(polytope).items()
                if name.startswith("_") and getattr(value, "__module__", None) == toric.__name__] == []

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


def count_vertex_views(monkeypatch) -> list:
    """Route every build of a ToricOrbit's Fraction ``vertex`` view through
    a counter; returns the list that collects the orbit of each build."""
    built = []
    real = toric.ToricOrbit.__dict__["vertex"].func
    view = cached_property(lambda orbit: built.append(orbit) or real(orbit))
    view.__set_name__(toric.ToricOrbit, "vertex")
    monkeypatch.setattr(toric.ToricOrbit, "vertex", view)
    return built


class TestVertexViews:
    """Every route reads a vertex as its integer row; a ToricOrbit's Fraction
    point is built only for a message that names it."""

    @pytest.mark.parametrize("command", ["volume-toric", "msy-check", "lawrence",
                                         "polytope-volume"])
    def test_commands_build_no_view(self, capsys, tmp_path, monkeypatch, command):
        path = tmp_path / "cube5.json"
        path.write_text(json.dumps(cube_cone_doc(5)))
        built = count_vertex_views(monkeypatch)
        assert main([command, "--input", str(path), "--json", "--seed", "42"]) == 0
        assert all(check["pass"] for check in json.loads(capsys.readouterr().out)["checks"])
        assert built == []

    def test_a_rejected_draw_builds_the_two_views_it_names(self, monkeypatch):
        p = cube_cone_k(5).section
        built = count_vertex_views(monkeypatch)
        # u = 0 is constant on every edge: the message names the first one's ends
        with pytest.raises(EdgeConstantFunctional):
            lawrence_volume(p, (0,) * 6 + (1,))
        a, c = p.edges[0]
        assert built == [p.orbits[a], p.orbits[c]]
        built.clear()
        outcome = sample_lawrence(p, 2, seed=1)
        assert outcome.rejected_poles > 0
        assert len(built) <= 2 * outcome.rejected_poles


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

    def test_one_edge_map_per_cone(self, monkeypatch):
        """The enumeration's edge map serves the cone's section: msy_check
        and further Lawrence values build no second one."""
        from abbvloc import toric

        calls = []
        real = toric._bounded_edges

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(toric, "_bounded_edges", counted)
        cone = cube_cone_k(3)
        assert msy_check(cone, seed=5).equal
        p = cone.section
        assert sample_lawrence(p, 2, seed=9).value == triangulation_volume(p)
        assert p is cone.section
        assert len(calls) == 1
        # a bare section has no cone and builds its own map, once
        q = HPolytope.from_halfspaces(cone.normals, cone.reeb)
        assert sample_lawrence(q, 2, seed=9).value == triangulation_volume(q)
        assert q.edges == p.edges
        assert len(calls) == 2

    def test_exhausted_samples_raise_all_samples_poles(self, monkeypatch):
        import abbvloc.polytope

        def always_pole(cone, v):
            raise PoleAtSample("every sample is a pole")

        monkeypatch.setattr(abbvloc.polytope, "toric_volume", always_pole)
        with pytest.raises(AllSamplesPoles):
            msy_check(weighted_sphere_cone([1, 2]), seed=7)
