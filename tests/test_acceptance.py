"""Acceptance suite: every criterion is exercised at its stated tolerance
(exact equality unless noted) and reports one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from fractions import Fraction
from math import factorial

import pytest

from abbvloc.core import PiScalar, Vector, partitions
from abbvloc.engine import (
    OrbitSystem,
    check_v_independence,
    dh_series,
    localize_volume,
    weighted_sphere_system,
)
from abbvloc.errors import (
    GoodnessViolation,
    InconsistentSamples,
    InputError,
    PoleAtSample,
)
from abbvloc.core import Covector
from abbvloc.homogeneous import (
    homogeneous_volume,
    stiefel_closed_form,
    stiefel_four_sum,
    stiefel_so5_so3,
)
from abbvloc.polytope import (
    HPolytope,
    lawrence_volume,
    msy_check,
    sample_lawrence,
    triangulation_volume,
)
from abbvloc.sampling import SplitMix64, sample_distinct_positive, sample_vector
from abbvloc.secondary import (
    WeightedSphereFoliation,
    asuke_closed_form,
    asuke_number,
    check_w1_identity,
)
from abbvloc.toric import (
    GoodCone,
    enumerate_vertices,
    orbit_system_from_cone,
    simplex_cone,
    toric_volume,
    weighted_sphere_cone,
)
from orbit_oracle import complete_homogeneous, orbit_datum, residue_pattern_system


def report(number, ok, detail):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def sphere_closed_form(weights):
    n = len(weights) - 1
    product = Fraction(1)
    for w in weights:
        product *= Fraction(w)
    return PiScalar(Fraction(2) / (factorial(n) * product), n + 1)


def nonpole(dim, rng, evaluate):
    while True:
        v = sample_vector(dim, rng)
        try:
            return v, evaluate(v)
        except PoleAtSample:
            continue


SPHERE_WEIGHTS = [
    [1, 2],
    [2, 3],
    [Fraction(1, 2), 3],
    [2, 3, 7],
    [1, 2, 3, 5],
]

CUBE_CONE = GoodCone(
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


def fixture_cones():
    return (
        [weighted_sphere_cone(w) for w in SPHERE_WEIGHTS]
        + [simplex_cone(d) for d in (2, 3, 4, 5)]
        + [CUBE_CONE]
    )


def test_criterion_1_weighted_sphere_volumes():
    started = time.perf_counter()
    rng = SplitMix64(1)
    checked = 0
    for n in (1, 2, 3, 4):
        for trial in range(20):
            w = sample_distinct_positive(n + 1, SplitMix64(1000 * n + trial))
            system = weighted_sphere_system(w)
            v, value = nonpole(n + 1, rng, lambda vv: localize_volume(system, vv))
            assert value == sphere_closed_form(w), (w, v)
            checked += 1
    # spot values
    assert localize_volume(weighted_sphere_system([1, 2]), Vector([1, 0])) == PiScalar(1, 2)
    with pytest.raises(InputError):
        weighted_sphere_system([1, 1, 1])
    elapsed = time.perf_counter() - started
    report(
        1,
        checked == 80 and elapsed < 1.0,
        f"{checked} weight vectors, closed form exact, {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_toric_two_route_consistency():
    rng = SplitMix64(2)
    cones = [weighted_sphere_cone(w) for w in SPHERE_WEIGHTS] + [
        simplex_cone(d) for d in (2, 3, 4, 5)
    ]
    compared = 0
    for cone in cones:
        system = orbit_system_from_cone(cone)
        for _ in range(10):
            v, direct = nonpole(cone.dim, rng, lambda vv: toric_volume(cone, vv))
            assert direct == localize_volume(system, v), tuple(v)
            compared += 1
    for w in SPHERE_WEIGHTS:
        cone = weighted_sphere_cone(w)
        v, direct = nonpole(cone.dim, rng, lambda vv: toric_volume(cone, vv))
        assert direct == sphere_closed_form(w)
    report(2, compared == 90, f"{compared} samples, both routes identical PiScalars")


def test_criterion_3_lawrence_vs_triangulation():
    fixtures = [simplex_cone(d).section for d in (2, 3, 4, 5)]
    fixtures.append(CUBE_CONE.section)
    compared = 0
    for p in fixtures:
        expected = triangulation_volume(p)
        outcome = sample_lawrence(p, 20, seed=3)
        assert outcome.value == expected
        for f in outcome.samples_used:
            assert lawrence_volume(p, f) == expected
            compared += 1
    triangle = simplex_cone(3).section
    assert triangulation_volume(triangle) == Fraction(1, 2)
    report(3, compared == 100, f"{compared} functionals, triangle volume 1/2 reproduced")


def test_criterion_4_msy_bridge():
    count = 0
    for cone in fixture_cones():
        result = msy_check(cone, seed=4)
        assert result.equal, cone
        count += 1
    report(4, count == 10, f"bridge identity exact on {count} cones")


def test_criterion_5_stiefel_values():
    rng = SplitMix64(5)
    fixture = stiefel_so5_so3()
    checked = 0
    while checked < 20:
        xyz = sample_vector(3, rng)
        x, y, z = xyz
        if z**2 == x**2 or z**2 == y**2:
            continue
        try:
            abc, four = nonpole(3, rng, lambda vv: stiefel_four_sum(xyz, vv))
        except PoleAtSample:
            continue
        expected = stiefel_closed_form(xyz)
        assert four == expected, tuple(xyz)
        assert homogeneous_volume(fixture, Vector(xyz), abc) == expected, tuple(xyz)
        checked += 1
    undeformed = PiScalar(Fraction(2, 3), 4)
    assert stiefel_four_sum([0, 0, 1], [1, 2, 5]) == undeformed
    assert homogeneous_volume(fixture, Vector([0, 0, 1]), Vector([1, 2, 5])) == undeformed
    report(5, checked == 20, f"{checked} random deformations match the closed form")


def test_criterion_6_w1_identity():
    started = time.perf_counter()
    checked = 0
    for m in range(1, 6):
        Js = partitions(m)
        for trial in range(50):
            w = sample_distinct_positive(m + 1, SplitMix64(m * 10000 + trial))
            assert check_w1_identity(m, Js, w) == [True] * len(Js), (m, w)
            checked += len(Js)
    elapsed = time.perf_counter() - started
    report(
        6,
        elapsed < 5.0,
        f"{checked} identity instances exact, {elapsed:.3f}s (< 5s)",
    )


def test_criterion_7_asuke_numbers():
    rng = SplitMix64(7)
    checked = 0
    for m in range(1, 5):
        w = sample_distinct_positive(m + 1, SplitMix64(7000 + m))
        foliation = WeightedSphereFoliation(m=m, w=w)
        for J in partitions(m):
            expected = asuke_closed_form(foliation, J)
            for _ in range(10):
                v, value = nonpole(
                    m + 1, rng, lambda vv: asuke_number(foliation, J, vv)
                )
                assert value == expected, (m, J, tuple(v))
                checked += 1
    spot = asuke_number(WeightedSphereFoliation(m=1, w=(1, 2)), (1,), Vector([1, 3]))
    assert spot == Fraction(9, 2)
    report(7, checked == 110, f"{checked} localized evaluations match s1 sJ / s(m+1)")


def test_criterion_8_v_independence():
    systems = [weighted_sphere_system(w) for w in SPHERE_WEIGHTS]
    systems += [orbit_system_from_cone(cone) for cone in fixture_cones()]
    systems += [residue_pattern_system(n) for n in (1, 2, 3)]
    passed = 0
    for system in systems:
        outcome = check_v_independence(system, samples=10, seed=8)
        assert len(outcome.samples_used) == 10
        passed += 1
    corrupted = OrbitSystem(
        dim_t=2,
        b=Vector([1, 2]),
        codim_half=1,
        orbits=(
            orbit_datum(PiScalar(2, 1), Covector([1, 0]), (Covector([2, -1]),)),
        ),
    )
    with pytest.raises(InconsistentSamples):
        check_v_independence(corrupted, samples=10, seed=8)
    report(
        8,
        passed == len(systems),
        f"{passed} fixtures consistent over 10 samples, corrupted system rejected",
    )


def test_criterion_9_dh_residue_identity():
    rng = SplitMix64(9)
    checked = 0
    for n in range(1, 6):
        system = residue_pattern_system(n)
        v, coeffs = nonpole(n + 1, rng, lambda vv: dh_series(system, vv, n + 4))
        for s in range(n + 5):
            expected = PiScalar(complete_homogeneous(s - n, v) / factorial(s), n)
            assert coeffs[s] == expected, (n, s, tuple(v))
            checked += 1
    report(9, checked == 40, f"{checked} coefficients match brute-force h_(s-n)")


def test_criterion_10_goodness_validation():
    accepted = 0
    for cone in fixture_cones():
        enumerate_vertices(cone)
        accepted += 1
    with pytest.raises(InputError):
        GoodCone(
            dim=2,
            normals=(Vector([2, 0]), Vector([0, -1])),
            reeb=Vector([1, 1]),
        )
    with pytest.raises(GoodnessViolation):
        enumerate_vertices(
            GoodCone(
                dim=3,
                normals=(
                    Vector([-1, 1, 0]),
                    Vector([-1, -1, 0]),
                    Vector([0, 0, -1]),
                ),
                reeb=Vector([1, 0, 1]),
            )
        )
    report(
        10,
        accepted == 10,
        f"{accepted} good cones accepted, non-primitive and index-2 cones rejected",
    )
