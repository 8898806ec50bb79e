"""Oracles for Lawrence's formula and its functionals.

``fraction_lawrence`` is Lawrence's vertex formula on Fractions: the
values f(a) by Covector pairings and one Fraction coefficient gamma_j per
edge end, which ``polytope.lawrence_volume`` replaced by the section's
integer form.

The package draws each functional f(x) = u(x) + d as one sample of n+2
coordinates (u..., d) through ``sampling.sample_independent``, with an
edge-constant functional counted as a pole (``polytope.sample_lawrence``).
This module keeps the separate loop that drew u and then d from a
generator until Lawrence's formula accepted them, and checks that both
accept the same functionals at the same draw indices.
"""

from fractions import Fraction
from math import factorial, prod
from unittest import mock

from abbvloc import polytope
from abbvloc.errors import EdgeConstantFunctional, PoleAtSample
from abbvloc.core import Vector
from abbvloc.polytope import lawrence_volume
from abbvloc.sampling import SplitMix64, sample_rational, sample_vector
from matrix_oracle import vertex_dets


def edge_coefficients(p, values) -> list:
    """{j: gamma_j} for each vertex, from the values f(vertex): the edge
    (a, c) that leaves facet j at a gives gamma_j = (f(c) - f(a)) / c(v_j).
    Every edge is checked before any coefficient is computed, so a
    rejected functional costs one comparison per edge."""
    vertices, facet_sets = p.vertices, p.facet_sets
    for a, c in p.edges:
        if values[a] == values[c]:
            raise EdgeConstantFunctional(
                f"functional constant on edge {tuple(vertices[a])} -- {tuple(vertices[c])}"
            )
    gammas = [{} for _ in vertices]
    for a, c in p.edges:
        rise = values[c] - values[a]
        (j,) = facet_sets[a] - facet_sets[c]
        (k,) = facet_sets[c] - facet_sets[a]
        gammas[a][j] = rise / vertices[c](p.normals[j])
        gammas[c][k] = -rise / vertices[a](p.normals[k])
    return gammas


def fraction_lawrence(p, f) -> Fraction:
    """Lawrence's volume of the section p at f = (u..., d) on Fractions:
    the sum over vertices a of f(a)^n / (|det(b, v_S)| prod_j gamma_j) /
    n!, with f(a) = a(u) + d and each determinant taken from the given
    normals (``matrix_oracle.vertex_dets``), not read from the section."""
    n = p.section_dim
    *u, d = Vector(f)
    values = [phi(u) + d for phi in p.vertices]
    return sum(value**n / (delta * prod(gammas.values())) for value, delta, gammas
               in zip(values, vertex_dets(p), edge_coefficients(p, values))) / factorial(n)


def random_functional(p, rng, budget: int = 100) -> tuple:
    """(functional (u..., d), its Lawrence volume, draws it took): u by
    ``sample_vector`` and d by ``sample_rational``, redrawn while the
    functional is constant on an edge of the section."""
    for draws in range(1, budget + 1):
        f = Vector((*sample_vector(len(p.reeb), rng), sample_rational(rng)))
        try:
            return f, lawrence_volume(p, f), draws
        except EdgeConstantFunctional:
            continue
    raise EdgeConstantFunctional("no valid functional found within the retry budget")


def assert_sample_lawrence_matches(p, seed: int, count: int) -> int:
    """``sample_lawrence(p, count, seed)`` accepts the functionals that
    ``count`` calls of ``random_functional`` on one SplitMix64(seed) stream
    accept, at the same draw indices, with the same volume.  Returns the
    number of rejected draws."""
    rng = SplitMix64(seed)
    expected, index = [], -1
    for _ in range(count):
        f, volume, draws = random_functional(p, rng)
        index += draws
        expected.append((index, f, volume))
    calls = []

    def logged(section, f):
        calls.append(f)
        try:
            return lawrence_volume(section, f)
        except PoleAtSample:
            calls[-1] = None
            raise

    with mock.patch.object(polytope, "lawrence_volume", logged):
        outcome = polytope.sample_lawrence(p, count, seed)
    accepted = [(i, f) for i, f in enumerate(calls) if f is not None]
    assert accepted == [(i, f) for i, f, _ in expected]
    assert outcome.samples_used == tuple(f for _, f, _ in expected)
    assert {outcome.value} == {volume for _, _, volume in expected}
    assert outcome.rejected_poles == index + 1 - count == len(calls) - count
    return outcome.rejected_poles
