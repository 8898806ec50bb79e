import collections
import importlib.util
import itertools
import json
import os
import sys
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abbvloc import core, engine, toric
from abbvloc.cli import main
from abbvloc.core import Covector, PiScalar, Vector
from abbvloc.engine import check_v_independence, localize_volume
from abbvloc.errors import (
    GoodnessViolation,
    InputError,
    NotSimpleVertex,
    PoleAtSample,
    UnboundedSection,
)
from abbvloc.polytope import HPolytope
from abbvloc.sampling import sample_vector
from abbvloc.toric import (
    GoodCone,
    enumerate_vertices,
    orbit_system_from_cone,
    simplex_cone,
    toric_volume,
    weighted_sphere_cone,
)
from conftest import make_rng, random_unimodular, random_weights
from lattice_oracle import smith_normal_form
from matrix_oracle import apply
from test_engine import sphere_closed_form
from test_generated_cones import (
    MSY_CONES,
    assert_walk_rows_equal_inverse,
    case_cone,
    cube_cone_k,
    seeded_reeb,
    simplex_product_cone,
    toric_volume_or_pole,
)
from vertex_oracle import vertices_from_halfspaces

BENCH_INPUTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "bench", "inputs.py")


def nonpole_cone_sample(cone, rng):
    while True:
        v = sample_vector(cone.dim, rng)
        try:
            toric_volume(cone, v)
            return v
        except PoleAtSample:
            continue


def count_kernel_calls(monkeypatch) -> collections.Counter:
    """Route every binding of the elimination kernels core._pivot,
    core._reduce and core._cofactors in the package, and every
    construction of an OrbitDatum, through one counter, which is returned."""
    calls = collections.Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("_pivot", "_reduce", "_cofactors"):
        real = getattr(core, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("abbvloc") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))

    init = engine.OrbitDatum.__init__

    def built(datum, *args, **kwargs):
        calls["OrbitDatum"] += 1
        init(datum, *args, **kwargs)

    monkeypatch.setattr(engine.OrbitDatum, "__init__", built)
    return calls


def count_calls_after_the_walk(monkeypatch) -> collections.Counter:
    """``count_kernel_calls``, cleared each time the vertex walk
    (toric._walk) returns, so that it holds the elimination kernel calls
    and OrbitDatum constructions made since the last walk."""
    calls = count_kernel_calls(monkeypatch)
    walk = toric._walk

    def walked(*args):
        found = walk(*args)
        calls.clear()
        return found

    monkeypatch.setattr(toric, "_walk", walked)
    return calls


def goodness_violating_cone():
    # the vertex where the first two facets meet has active normals
    # spanning an index-2 sublattice
    return GoodCone(
        dim=3,
        normals=(Vector([-1, 1, 0]), Vector([-1, -1, 0]), Vector([0, 0, -1])),
        reeb=Vector([1, 0, 1]),
    )


def unbounded_cone():
    # the section is a ray starting at its one vertex
    return GoodCone(
        dim=2,
        normals=(Vector([-1, 0]), Vector([-1, -1])),
        reeb=Vector([1, 0]),
    )


class TestConeValidation:
    def test_non_primitive_normal_rejected(self):
        with pytest.raises(InputError):
            GoodCone(dim=2, normals=(Vector([2, 0]), Vector([0, -1])), reeb=Vector([1, 1]))

    def test_zero_normal_rejected(self):
        with pytest.raises(InputError):
            GoodCone(dim=2, normals=(Vector([0, 0]), Vector([0, -1])), reeb=Vector([1, 1]))

    def test_duplicate_normals_rejected(self):
        with pytest.raises(InputError):
            GoodCone(
                dim=2,
                normals=(Vector([-1, 0]), Vector([-1, 0])),
                reeb=Vector([1, 1]),
            )

    def test_too_few_normals(self):
        with pytest.raises(InputError):
            GoodCone(dim=3, normals=(Vector([-1, 0, 0]),), reeb=Vector([1, 1, 1]))

    def test_pi_scale_exponent_domain(self):
        with pytest.raises(InputError):
            weighted_sphere_cone([1, 2], pi_scale_exponent=2)

    def test_lattice_basis_conversion(self):
        # normals given in ambient coordinates of a doubled lattice
        cone = GoodCone(
            dim=2,
            normals=(Vector([-2, 0]), Vector([0, -2])),
            reeb=Vector([2, 4]),
            lattice_basis=((2, 0), (0, 2)),
        )
        assert cone.normals == (Vector([-1, 0]), Vector([0, -1]))
        assert cone.reeb == Vector([1, 2])

    def test_lattice_basis_non_integer_normal(self):
        with pytest.raises(InputError):
            GoodCone(
                dim=2,
                normals=(Vector([-1, 0]), Vector([0, -1])),
                reeb=Vector([1, 2]),
                lattice_basis=((2, 0), (0, 2)),
            )

    def test_lattice_basis_one_reduction(self, monkeypatch):
        """One reduction of (B | v_1 ... v_m b) gives every lattice
        coordinate: its four pivots, no determinant and no further solve."""
        calls = count_kernel_calls(monkeypatch)
        base = cube_cone()
        B = random_unimodular(4, make_rng(5))
        cone = GoodCone(dim=4, normals=tuple(apply(B, v) for v in base.normals),
                        reeb=apply(B, base.reeb), lattice_basis=B)
        assert (cone.normals, cone.reeb) == (base.normals, base.reeb)
        assert calls == {"_reduce": 1, "_pivot": 4}

    @pytest.mark.parametrize("basis, normals, message", [
        ([[1, 2], [2, 4]], [[-1, 0], [0, -1]], "lattice_basis is singular"),
        ([[2, 0], [0, 1]], [[-1, 0], [0, -1]], "normal 0 is not an integer lattice vector"),
        ([[1, 1], [0, 1]], [[-2, 0], [0, -1]], "normal 0 is not primitive (gcd 2)"),
    ])
    def test_lattice_basis_errors(self, basis, normals, message):
        with pytest.raises(InputError) as info:
            GoodCone(dim=2, normals=tuple(map(Vector, normals)), reeb=Vector([1, 1]),
                     lattice_basis=basis)
        assert str(info.value) == message


class TestVertexEnumeration:
    def test_weighted_s3_vertices(self):
        cone = weighted_sphere_cone([1, 2])
        orbits = enumerate_vertices(cone)
        assert [tuple(o.vertex) for o in orbits] == [
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1), Fraction(0)),
        ]

    def test_simplex_vertices_are_basis_covectors(self):
        cone = simplex_cone(3)
        orbits = enumerate_vertices(cone)
        assert [tuple(o.vertex) for o in orbits] == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        ]

    def test_vertex_count_matches_halfspace_enumeration(self):
        for cone in (
            weighted_sphere_cone([1, 2]),
            weighted_sphere_cone([2, 3, 7]),
            simplex_cone(4),
            cube_cone(),
        ):
            orbits = enumerate_vertices(cone)
            independent = vertices_from_halfspaces(cone.normals, cone.reeb)
            assert len(orbits) == len(independent)
            assert sorted(tuple(o.vertex) for o in orbits) == sorted(
                tuple(phi) for phi, _ in independent
            )

    def test_goodness_violation(self):
        with pytest.raises(GoodnessViolation):
            enumerate_vertices(goodness_violating_cone())

    def test_not_simple_vertex(self):
        # square section with an extra diagonal facet through one corner
        cone = GoodCone(
            dim=3,
            normals=(
                Vector([1, 0, -1]),
                Vector([-1, 0, -1]),
                Vector([0, 1, -1]),
                Vector([0, -1, -1]),
                Vector([1, 1, -2]),
            ),
            reeb=Vector([0, 0, 1]),
        )
        with pytest.raises(NotSimpleVertex):
            enumerate_vertices(cone)

    def test_unbounded_section_with_vertex(self):
        """The walk finds the vertex; the section's edges report the ray."""
        cone = unbounded_cone()
        assert [tuple(o.vertex) for o in enumerate_vertices(cone)] == [(1, -1)]
        with pytest.raises(UnboundedSection) as info:
            cone.section
        assert str(info.value) == (
            "the section is unbounded: the edge that leaves facet 1 at vertex "
            "(1, -1) has no second vertex"
        )

    def test_no_vertex_at_all(self):
        cone = GoodCone(
            dim=2,
            normals=(Vector([1, 0]), Vector([-1, 0])),
            reeb=Vector([1, 0]),
        )
        with pytest.raises(UnboundedSection):
            enumerate_vertices(cone)

    def test_cone_holds_its_vertex_data(self, monkeypatch):
        calls = []

        def counting(cone):
            calls.append(cone)
            return enumerate_vertices(cone)

        monkeypatch.setattr(toric, "enumerate_vertices", counting)
        cone = cube_cone()
        assert cone.section.orbits == enumerate_vertices(cone)
        assert cone.section.orbits is cone.section.orbits
        assert calls == [cone]

    @pytest.mark.parametrize(
        "make, error",
        [(goodness_violating_cone, GoodnessViolation), (unbounded_cone, UnboundedSection)],
    )
    def test_failed_enumeration_is_not_stored(self, make, error):
        cone = make()
        messages = []
        for _ in range(2):
            with pytest.raises(error) as info:
                cone.section
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "section" not in vars(cone)

    def test_the_section_is_the_cones_only_cache(self):
        for cone in fixture_cones():
            cone.section.edges
            cone.section.abs_dets
            cone.section.minor_forms
            assert set(vars(cone)) == {*GoodCone._fields, "section"}

    def test_permuting_normals_is_irrelevant(self):
        base = weighted_sphere_cone([2, 3, 5])
        shuffled = GoodCone(
            dim=3,
            normals=(base.normals[2], base.normals[0], base.normals[1]),
            reeb=base.reeb,
        )
        va = [tuple(o.vertex) for o in enumerate_vertices(base)]
        vb = [tuple(o.vertex) for o in enumerate_vertices(shuffled)]
        assert va == vb
        rng = make_rng(3)
        for _ in range(5):
            v = nonpole_cone_sample(base, rng)
            assert toric_volume(base, v) == toric_volume(shuffled, v)


class TestOrbitData:
    def test_weighted_s3_matches_hand_data(self):
        system = orbit_system_from_cone(weighted_sphere_cone([1, 2]))
        by_moment = {tuple(o.moment): o for o in system.orbits}
        lo = by_moment[(Fraction(1), Fraction(0))]
        hi = by_moment[(Fraction(0), Fraction(1, 2))]
        assert lo.length == PiScalar(2, 1)
        assert hi.length == PiScalar(1, 1)
        assert [tuple(w) for w in lo.weights] == [(2, -1)]
        assert [tuple(w) for w in hi.weights] == [(-1, Fraction(1, 2))]

    def test_invariants_hold_by_construction(self):
        # OrbitSystem validates moment(b) = 1 and weight(b) = 0 exactly
        for w in ([1, 2], [2, 3, 7], [1, 2, 3, 5]):
            system = orbit_system_from_cone(weighted_sphere_cone(w))
            assert system.b == Vector(w)

    def test_weights_dual_to_active_normals(self):
        # stored weights pair to delta_ij with the stored normals; in the
        # geometric normalization the true normals are 2 pi times the
        # stored ones, so this is the 2 pi delta_ij duality exactly
        cone = weighted_sphere_cone([2, 3, 7])
        orbits = enumerate_vertices(cone)
        system = orbit_system_from_cone(cone)
        for orbit, datum in zip(orbits, system.orbits):
            for i, alpha in enumerate(datum.weights):
                for j, k in enumerate(orbit.facet_indices):
                    assert alpha(cone.normals[k]) == (1 if i == j else 0)

    def test_moment_equals_vertex(self):
        cone = weighted_sphere_cone([1, 2, 3, 5])
        orbits = enumerate_vertices(cone)
        system = orbit_system_from_cone(cone)
        for orbit, datum in zip(orbits, system.orbits):
            assert Covector(datum.moment) == orbit.vertex

    @pytest.mark.parametrize("e", [0, 1])
    def test_every_route_reads_the_two_pi_exponent(self, e):
        """k = e - (1 - e) n: each orbit length is (2 pi)^k / |det(b, v_S)|,
        and the determinant formula and both sides of the bridge carry
        pi^(n + k)."""
        from abbvloc.polytope import msy_check

        for dim in (2, 3, 4):
            cone = weighted_sphere_cone([1, 2, 3, 5][:dim], pi_scale_exponent=e)
            n = dim - 1
            k = cone.two_pi_exponent
            assert k == (n + 1) * e - n
            for orbit, datum in zip(cone.section.orbits, orbit_system_from_cone(cone).orbits):
                assert datum.length == PiScalar(Fraction(2) ** k / orbit.abs_delta, k)
            assert toric_volume(cone, nonpole_cone_sample(cone, make_rng(dim))).pi_power == n + k
            result = msy_check(cone, seed=dim)
            assert result.equal and result.rhs.pi_power == n + k


class TestToricVolume:
    def test_weighted_s3_value(self):
        cone = weighted_sphere_cone([1, 2])
        assert toric_volume(cone, Vector([1, 0])) == PiScalar(1, 2)

    def test_matches_sphere_closed_form(self):
        rng = make_rng(5)
        for trial in range(6):
            w = random_weights(2 + trial % 3, seed=500 + trial)
            cone = weighted_sphere_cone(w)
            v = nonpole_cone_sample(cone, rng)
            assert toric_volume(cone, v) == sphere_closed_form(w)

    def test_two_route_equality(self):
        rng = make_rng(7)
        cones = [
            weighted_sphere_cone([1, 2]),
            weighted_sphere_cone([Fraction(1, 2), 3]),
            weighted_sphere_cone([2, 3, 7]),
            simplex_cone(3),
            simplex_cone(4),
            cube_cone(),
        ]
        for cone in cones:
            system = orbit_system_from_cone(cone)
            for _ in range(10):
                v = nonpole_cone_sample(cone, rng)
                assert toric_volume(cone, v) == localize_volume(system, v)

    def test_v_independence_of_cone_systems(self):
        for cone in (weighted_sphere_cone([1, 2]), simplex_cone(3)):
            outcome = check_v_independence(orbit_system_from_cone(cone), samples=10, seed=11)
            assert outcome.value == toric_volume(cone, outcome.samples_used[0])

    def test_determinants_independent_of_the_walk(self, monkeypatch):
        """toric_volume eliminates once per section and never per sample:
        one _cofactors per vertex on its first call, for the vertex's
        covector N_S, and no elimination kernel at all on the next.  It
        makes no _pivot or _reduce call, builds no orbit data and reads no
        abs_delta: it reads neither the orbits nor the section's abs_dets,
        which the walk's dictionaries hold."""
        cases = []
        for cone, vertices, edges in ((cube_cone_k(4), 16, 32),
                                      (case_cone("product", 2, 2, 3)[0], 9, 18)):
            rng = make_rng(3)
            samples = [sample_vector(cone.dim, rng) for _ in range(2)]
            assert (len(cone.section.orbits), len(cone.section.edges)) == (vertices, edges)
            cases.append((cone, samples, vertices))
        calls = count_kernel_calls(monkeypatch)
        for cone, (first, second), vertices in cases:
            calls.clear()
            values = [toric_volume_or_pole(toric_volume, cone, v) for v in (first, second)]
            assert calls == {"_cofactors": vertices}
            calls.clear()
            assert [toric_volume_or_pole(toric_volume, cone, v) for v in (second, first)] \
                == values[::-1]
            assert calls == {}
            assert len(cone.section.minor_forms[3]) == len(cone.section.edges)
            # the counters see the orbit-data route, one OrbitDatum per vertex
            orbit_system_from_cone(cone)
            assert calls == {"OrbitDatum": vertices}

    def test_volume_toric_cli_kernel_count(self, monkeypatch, tmp_path, capsys):
        """volume-toric on the benchmark's cube cone 4 eliminates for its
        determinants once per section, one _cofactors per vertex: 16 at the
        10 samples the orbit-data route accepted, against 496 determinants
        (16 vertices plus 32 edges per sample, and the section's 16
        |det(b, v_S)|) when each sample eliminated afresh.  Once the walk is
        done it makes no _reduce or _pivot call."""
        spec = importlib.util.spec_from_file_location("_abbvloc_bench_inputs", BENCH_INPUTS)
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        doc, _ = inputs.cube_cone(4, 1)
        path = tmp_path / "cube-4.json"
        path.write_text(json.dumps(doc))
        calls = count_calls_after_the_walk(monkeypatch)
        assert main(["volume-toric", "--input", str(path), "--json", "--seed", "42"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][1]["detail"] == "10 samples compared"
        # the orbit-data route builds one OrbitDatum per vertex
        assert calls == {"_cofactors": 16, "OrbitDatum": 16}

    @staticmethod
    def corrupt_abs_delta(monkeypatch, factors):
        """Make the walk report |det(b, v_S)| times factors(index) at the
        vertex of each index, as a faulty walk would."""
        real = toric.enumerate_vertices

        def corrupted(cone):
            return tuple(toric.ToricOrbit(o.integer_vertex, o.facet_indices,
                                          o.abs_delta * factors(i), o.rows, o.t)
                         for i, o in enumerate(real(cone)))

        monkeypatch.setattr(toric, "enumerate_vertices", corrupted)

    def test_one_corrupted_abs_delta_splits_the_two_routes(self, monkeypatch):
        """The orbit lengths read the walk's abs_delta and toric_volume reads
        the section's minor_forms, taken from the normals, so a wrong value
        at one vertex is on one route only."""
        self.corrupt_abs_delta(monkeypatch, lambda i: 2 if i == 0 else 1)
        cone = cube_cone_k(4)
        v = nonpole_cone_sample(cone, make_rng(3))
        assert toric_volume(cone, v) != localize_volume(orbit_system_from_cone(cone), v)

    def test_volume_toric_cli_fails_on_a_walk_that_scales_abs_delta(
            self, monkeypatch, tmp_path, capsys):
        """Every |det(b, v_S)| doubled keeps the orbit sum v-independent (at
        half the volume), so only the two-route check can catch it."""
        self.corrupt_abs_delta(monkeypatch, lambda i: 2)
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"dim": 3, "normals": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
                                    "reeb": [1, 2, 5]}))
        assert main(["volume-toric", "--input", str(path), "--json", "--seed", "42"]) == 1
        independence, two_route = json.loads(capsys.readouterr().out)["checks"]
        assert independence["pass"] and not two_route["pass"]

    def test_msy_check_fails_on_a_walk_that_scales_abs_delta(
            self, monkeypatch, tmp_path, capsys):
        """msy-check compares toric_volume, whose determinants come from the
        normals, with Lawrence's volume, which reads the walk's abs_delta
        through the section's abs_dets: every |det(b, v_S)| doubled halves
        the section side only, so the check fails."""
        self.corrupt_abs_delta(monkeypatch, lambda i: 2)
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"dim": 3, "normals": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
                                    "reeb": [1, 2, 5]}))
        assert main(["msy-check", "--input", str(path), "--json", "--seed", "42"]) == 1
        report = json.loads(capsys.readouterr().out)
        # half the section volume 1 / (2! * 1 * 2 * 5)
        assert Fraction(report["section_volume"]) == Fraction(1, 40)

    def test_one_sum_per_sample(self, monkeypatch):
        """A pole-free sample adds its vertex terms by one call of the
        module-bound core._sum, one term per vertex; a pole raises before
        any sum."""
        cases = [(cone, vertices, nonpole_cone_sample(cone, make_rng(3))) for cone, vertices
                 in ((cube_cone_k(4), 16), (weighted_sphere_cone([1, 2, 3, 5]), 4))]
        sums = []
        real = toric._sum
        monkeypatch.setattr(toric, "_sum", lambda terms: sums.append(len(terms)) or real(terms))
        for cone, vertices, v in cases:
            sums.clear()
            toric_volume(cone, v)
            assert sums == [vertices]
            sums.clear()
            with pytest.raises(PoleAtSample):
                toric_volume(cone, cone.reeb)
            assert sums == []

    def test_pole_detection(self):
        cone = weighted_sphere_cone([1, 2])
        with pytest.raises(PoleAtSample):
            toric_volume(cone, Vector([1, 2]))  # parallel to the Reeb vector

    def test_lattice_unit_cone(self):
        # exponent 0 keeps the output rational in lattice units
        cone = simplex_cone(2, pi_scale_exponent=0)
        value = toric_volume(cone, Vector([1, 0]))
        assert value == PiScalar(Fraction(1, 2), 0)


def cube_cone():
    """Section is the cube [-1, 1]^3 at height phi_3 = 1."""
    return GoodCone(
        dim=4,
        normals=(
            Vector([1, 0, 0, -1]),
            Vector([-1, 0, 0, -1]),
            Vector([0, 1, 0, -1]),
            Vector([0, -1, 0, -1]),
            Vector([0, 0, 1, -1]),
            Vector([0, 0, -1, -1]),
        ),
        reeb=Vector([0, 0, 0, 1]),
    )


def nullspace_line(rows, dim):
    """The kernel of ``rows`` if it is a line, as one spanning vector, else
    None: plain Fraction Gauss-Jordan elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(dim):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                a[i] = [x - a[i][col] * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    if len(pivots) != dim - 1:
        return None
    free = next(j for j in range(dim) if j not in pivots)
    phi = [Fraction(0)] * dim
    phi[free] = Fraction(1)
    for r, p in enumerate(pivots):
        phi[p] = -a[r][free]
    return phi


def pair(phi, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(phi, v)), Fraction(0))


def recession_ray(cone):
    """A nonzero phi with phi(b) = 0 and every phi(v_i) <= 0, or None.

    When the section has a vertex, the recession cone is pointed, so it is
    nontrivial exactly when it has an extreme ray; such a ray is cut out by
    the Reeb equation and d - 2 facet equations.
    """
    d = cone.dim
    for subset in itertools.combinations(cone.normals, d - 2):
        phi = nullspace_line([cone.reeb, *subset], d)
        if phi is None:
            continue
        for ray in (phi, [-x for x in phi]):
            if all(pair(ray, v) <= 0 for v in cone.normals):
                return ray
    return None


REEB_POOL = [-1, 0, 1, 1, 2, 3, 5, Fraction(1, 2), Fraction(5, 2), Fraction(-3, 2)]


@st.composite
def small_cones(draw):
    """Cones of dimension 2..5 with up to d + 4 primitive normals of
    entries -2..2 and Reeb entries from REEB_POOL.  Half of them start
    from the orthant's normals -e_i, so that bounded sections are common."""
    d = draw(st.integers(2, 5))
    normal = st.lists(st.sampled_from([-2, -1, -1, 0, 0, 1, 1, 2]), min_size=d, max_size=d)
    normals = [[-int(i == j) for j in range(d)] for i in range(d)] if draw(st.booleans()) else []
    normals += draw(st.lists(normal.filter(lambda v: gcd(*v) == 1), max_size=d + 4))
    normals = list(dict.fromkeys(map(tuple, normals)))[: d + 4]
    assume(len(normals) >= d)
    reeb = draw(st.lists(st.sampled_from(REEB_POOL), min_size=d, max_size=d))
    return GoodCone(dim=d, normals=tuple(map(Vector, normals)), reeb=Vector(reeb))


class TestBoundednessOracle:
    """The edge-map boundedness test equals a recession-ray scan, and the
    section's edge set equals the pairwise facet-set test."""

    @settings(max_examples=300, deadline=None)
    @given(small_cones())
    @example(unbounded_cone())
    @example(cube_cone())
    def test_enumeration_matches_recession_scan(self, cone):
        try:
            orbits = cone.section.orbits
        except (NotSimpleVertex, GoodnessViolation):
            return  # raised before any boundedness test
        except UnboundedSection as exc:
            assert "Fraction(" not in str(exc)
            if str(exc).startswith("no vertex"):
                assert vertices_from_halfspaces(cone.normals, cone.reeb) == []
            else:
                assert recession_ray(cone) is not None
            return
        assert recession_ray(cone) is None
        assert [tuple(o.vertex) for o in orbits] == [
            tuple(phi) for phi, _ in vertices_from_halfspaces(cone.normals, cone.reeb)
        ]
        n = cone.codim_half
        facets = [
            frozenset(i for i, v in enumerate(cone.normals) if pair(o.vertex, v) == 0)
            for o in orbits
        ]
        pairwise = [
            (a, b)
            for a, b in itertools.combinations(range(len(orbits)), 2)
            if len(facets[a] & facets[b]) == n - 1
        ]
        edges = cone.section.edges
        assert list(edges) == pairwise
        for index in range(len(orbits)):
            assert sum(index in e for e in edges) == n


def index_3_cone():
    # facets 1 and 2 meet at a vertex and span an index-3 sublattice
    return GoodCone(
        dim=3,
        normals=tuple(map(Vector, ([3, -3, 2], [0, -1, 2], [3, -2, 1], [-3, -1, -3]))),
        reeb=Vector([3, 1, 2]),
    )


def index_4_cone():
    # the first vertex in sorted facet order, on facets 0, 1 and 2, has
    # Smith divisors (1, 2, 2): an index-4 sublattice, though no divisor is 4
    return GoodCone(
        dim=4,
        normals=tuple(map(Vector, ([-1, 0, 0, 0], [-1, -2, 0, 0], [-1, 0, -2, 0], [0, 0, 0, -1]))),
        reeb=Vector([1, 1, 1, 1]),
    )


@st.composite
def sublattice_cones(draw):
    """Cones of dimension 3..5 with up to d + 3 primitive normals of entries
    -3..3, half of them starting from the orthant's normals.  Half of them
    also have the pair -e_0, e_0 - p e_1 with p = 2 or 3: its 2 x 2 minors
    are p and 0, so every facet set containing both spans a sublattice of
    index divisible by p."""
    d = draw(st.integers(3, 5))
    normals = [[-int(i == j) for j in range(d)] for i in range(d)] if draw(st.booleans()) else []
    if draw(st.booleans()):
        p = draw(st.sampled_from([2, 3]))
        normals[:1] = [[-1] + [0] * (d - 1), [1, -p] + [0] * (d - 2)]
    normal = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    normals += draw(st.lists(normal.filter(lambda v: gcd(*v) == 1), max_size=d + 3))
    normals = list(dict.fromkeys(map(tuple, normals)))[: d + 3]
    assume(len(normals) >= d)
    reeb = draw(st.lists(st.sampled_from(REEB_POOL), min_size=d, max_size=d))
    return GoodCone(dim=d, normals=tuple(map(Vector, normals)), reeb=Vector(reeb))


class TestGoodnessFromMomentRow:
    """The walk's moment row at a vertex on the facets S is the row of
    adj(b | v_S) at b's position: the n x n minors of v_S up to sign, whose
    gcd is the product of the Smith divisors of v_S, the index of the
    sublattice v_S spans."""

    @settings(max_examples=300, deadline=None)
    @given(sublattice_cones())
    @example(goodness_violating_cone())
    @example(index_3_cone())
    @example(index_4_cone())
    @example(cube_cone())
    def test_moment_row_gcd_is_the_divisor_product(self, cone):
        try:
            _, found = toric._walk(cone.normals, cone.reeb)
        except (NotSimpleVertex, InputError):
            return
        first = None
        for facets, row in sorted((tuple(sorted(set(labels) - {-1})), a[labels.index(-1)])
                                  for labels, a, _ in found):
            divisors = smith_normal_form([cone.normals[i] for i in facets])
            assert gcd(*row) == prod(divisors)
            if first is None and set(divisors) != {1}:
                first = f"facets {facets} span a sublattice of index {prod(divisors)}"
        if first is None:
            try:
                enumerate_vertices(cone)
            except UnboundedSection:
                pass
        else:
            # the same first vertex in sorted facet order, with the same message
            with pytest.raises(GoodnessViolation) as info:
                enumerate_vertices(cone)
            assert str(info.value) == first


def fixture_cones():
    cones = [
        weighted_sphere_cone([1, 2]),
        weighted_sphere_cone([2, 3, 7]),
        weighted_sphere_cone([1, 2, 3, 5]),
        weighted_sphere_cone([Fraction(1, 2), Fraction(2, 3), 5]),
        simplex_cone(3),
        simplex_cone(4, pi_scale_exponent=0),
        cube_cone(),
        GoodCone(
            dim=2,
            normals=(Vector([-2, 0]), Vector([0, -2])),
            reeb=Vector([2, 4]),
            lattice_basis=((2, 0), (0, 2)),
        ),
    ]
    for normals, reeb, _ in MSY_CONES.values():
        cones.append(GoodCone(dim=3, normals=tuple(Vector([-x for x in v]) for v in normals),
                              reeb=Vector(reeb)))
    return cones


def halfspaces(cone) -> tuple:
    return cone.normals, cone.reeb


class TestPivotingWalk:
    @pytest.mark.parametrize("index", range(len(fixture_cones())))
    def test_rows_equal_inverse_on_fixtures(self, index):
        assert_walk_rows_equal_inverse(fixture_cones()[index])

    def test_no_solve_and_no_inverse(self, monkeypatch):
        """The walk moves its dictionaries by _pivot alone: no _reduce, the
        package's one solve and inverse, in enumeration or orbit data."""
        cone = cube_cone_k(6)
        calls = collections.Counter()

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        # wherever the package binds the kernels by name
        wrappers = {name: counted(name, getattr(core, name)) for name in ("_reduce", "_pivot")}
        for module_name, module in list(sys.modules.items()):
            for name, wrapper in wrappers.items():
                if module_name.startswith("abbvloc") and hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        assert len(enumerate_vertices(cone)) == 64
        assert calls["_reduce"] == 0 and calls["_pivot"] > 0
        calls.clear()
        orbit_system_from_cone(cone)
        assert calls["_reduce"] == 0

    @pytest.mark.parametrize("build", [
        lambda: halfspaces(cube_cone_k(4)),
        lambda: halfspaces(simplex_product_cone(2, 3, seeded_reeb([2, 3], 5))),
        # a hexagon whose start takes four dual-simplex pivots to its first vertex
        lambda: ([Vector(v) for v in ([1, 3, -2], [-1, -1, -2], [0, -3, -2], [0, 3, -2],
                                      [-2, -1, -2], [-2, 3, -1])], Vector([0, 0, 1])),
    ], ids=["cube-4", "product-2x3", "hexagon"])
    def test_every_pivot_moves_the_whole_tableau(self, monkeypatch, build):
        """From its greedy basis on, the walk pivots the tableau (A | A.b |
        A.R), d + 1 + m wide, and never a bare d-column dictionary; each of
        these starts makes a dual-simplex pivot."""
        normals, reeb = build()
        d, m = len(reeb), len(normals)
        widths = []

        def spy(a, t, i, col):
            widths.append(len(a[0]))
            return core._pivot(a, t, i, col)

        monkeypatch.setattr(toric, "_pivot", spy)
        scale, found = toric._walk(normals, reeb)
        assert set(widths) == {d + 1 + m}
        # d greedy pivots, one per vertex after the first, the rest dual simplex
        assert len(widths) > d + len(found) - 1

    def test_empty_section_of_full_rank(self):
        # phi >= 0 and phi(b) = -phi_0 - phi_1 = 1: the dual simplex proves
        # it empty from a basis of full rank
        cone = weighted_sphere_cone([1, 2])
        cone = GoodCone(dim=2, normals=cone.normals, reeb=Vector([-1, -1]))
        with pytest.raises(UnboundedSection, match="^no vertex"):
            enumerate_vertices(cone)
        with pytest.raises(InputError, match="no vertices"):
            HPolytope.from_halfspaces(cone.normals, cone.reeb)

    def test_vertex_cap(self, monkeypatch):
        monkeypatch.setattr(toric, "MAX_VERTICES", 8)
        assert len(enumerate_vertices(cube_cone_k(3))) == 8
        big = cube_cone_k(4)
        for enumerate_section in (enumerate_vertices,
                                  lambda c: HPolytope.from_halfspaces(c.normals, c.reeb)):
            with pytest.raises(InputError, match="more than MAX_VERTICES = 8 vertices"):
                enumerate_section(big)

    def test_bare_normals_scaled_to_primitive_rows(self):
        cone = cube_cone()
        scaled = [v.scaled(Fraction(k + 1, 3)) for k, v in enumerate(cone.normals)]
        p = HPolytope.from_halfspaces(scaled, cone.reeb)
        assert p.vertices == tuple(o.vertex for o in cone.section.orbits)
        assert p.orbits == cone.section.orbits
        assert p.edges == cone.section.edges
