"""Seeded input generators for the benchmark workloads.

Everything here is computed with ``fractions`` only, never with abbvloc, so
the structural facts the generators assert (vertex counts, orbit-system
invariants) are independent of the program under test.  The same seed
always gives the same documents.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial, prod

# Reeb perturbations r_i are drawn from this pool.  Any positive Reeb vector
# keeps cube cones and simplex-product cones good and simple; small entries
# keep the exact fractions, and so the cost of a job, from growing.
REEB_POOL = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2))


def _rng(seed: int, *tag) -> random.Random:
    """A generator private to (seed, tag); string seeding is deterministic."""
    return random.Random(":".join(str(t) for t in (seed,) + tag))


def _distinct_draw(seed: int, tag: tuple, slot: int, draw):
    """The slot-th of the distinct values that ``draw(rng)`` gives in turn
    under the generator of (seed, tag): two slots never get the same value,
    so jobs given different slots never share an input."""
    rng = _rng(seed, *tag)
    seen = []
    while len(seen) <= slot:
        value = draw(rng)
        if value not in seen:
            seen.append(value)
    return seen[slot]


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _dot(a, b) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(a, b)), Fraction(0))


def _unit(dim: int, i: int, sign: int = 1) -> list:
    row = [0] * dim
    row[i] = sign
    return row


def _assert_simple_vertices(normals, reeb, vertices) -> int:
    """Check that each claimed vertex lies on the Reeb hyperplane and on
    exactly dim-1 facets, strictly inside the others; return their count."""
    n = len(reeb) - 1
    for phi in vertices:
        if _dot(phi, reeb) != 1:
            raise AssertionError(f"vertex {phi} is off the Reeb hyperplane")
        values = [_dot(phi, v) for v in normals]
        if any(val > 0 for val in values):
            raise AssertionError(f"vertex {phi} violates a facet inequality")
        if sum(1 for val in values if val == 0) != n:
            raise AssertionError(f"vertex {phi} is not simple")
    if len(set(map(tuple, vertices))) != len(vertices):
        raise AssertionError("duplicate vertices")
    return len(vertices)


def _cone_doc(normals, reeb) -> dict:
    return {
        "dim": len(reeb),
        "pi_scale_exponent": 1,
        "normals": normals,
        "reeb": [_frac_str(c) for c in reeb],
    }


def _perturbed_reeb(dim: int, seed: int, tag, slot: int) -> list:
    draw = _distinct_draw(seed, ("reeb",) + tag, slot,
                          lambda rng: [rng.choice(REEB_POOL) for _ in range(dim - 1)])
    return [Fraction(dim)] + draw


def cube_cone(k: int, seed: int, slot: int = 0) -> tuple:
    """Cone over the k-cube: normals -e_i and e_i - e_0 (i = 1..k), Reeb
    (k+1, r_1, ..., r_k).  Returns (document, vertex count 2^k).  Different
    slots of one seed get different Reeb vectors.

    The section is {0 <= phi_i <= phi_0}; its vertices are
    (1, 1_S) / (k+1 + r(S)) for the subsets S of {1..k}.
    """
    dim = k + 1
    normals = []
    for i in range(1, dim):
        normals.append(_unit(dim, i, -1))
        row = _unit(dim, i)
        row[0] = -1
        normals.append(row)
    reeb = _perturbed_reeb(dim, seed, ("cube", k), slot)
    vertices = []
    for subset in itertools.product((0, 1), repeat=k):
        raw = [1] + list(subset)
        scale = _dot(raw, reeb)
        vertices.append([Fraction(x) / scale for x in raw])
    count = _assert_simple_vertices(normals, reeb, vertices)
    assert count == 2**k
    return _cone_doc(normals, reeb), count


def simplex_product_cone(a: int, b: int, seed: int, slot: int = 0) -> tuple:
    """Cone over the product of simplices Delta^a x Delta^b.

    Coordinates (t, x_1..x_a, y_1..y_b); facets x_i >= 0, y_j >= 0,
    sum x <= t, sum y <= t.  Reeb (a+b+1, r_1, ..., r_{a+b}).  Returns
    (document, vertex count (a+1)(b+1)).
    """
    dim = a + b + 1
    normals = [_unit(dim, i, -1) for i in range(1, dim)]
    normals.append([-1] + [1] * a + [0] * b)
    normals.append([-1] + [0] * a + [1] * b)
    reeb = _perturbed_reeb(dim, seed, ("product", a, b), slot)
    vertices = []
    for i in range(a + 1):
        for j in range(b + 1):
            raw = [1] + [int(i == s + 1) for s in range(a)] + [int(j == s + 1) for s in range(b)]
            scale = _dot(raw, reeb)
            vertices.append([Fraction(x) / scale for x in raw])
    count = _assert_simple_vertices(normals, reeb, vertices)
    assert count == (a + 1) * (b + 1)
    return _cone_doc(normals, reeb), count


def cube_section_volume(reeb) -> Fraction:
    """Section volume of the cube cone k with Reeb (b_0, r_1..r_k), in the
    measure of ``polytope-volume``.

    That measure makes the Laplace transform of the cone n! times the
    section volume (n = k), and the cone integral factorises:
    int_0^oo e^(-b_0 t) prod_i (1 - e^(-r_i t)) / r_i dt
    = sum over subsets S of (-1)^|S| / (b_0 + r(S)), over prod_i r_i.
    """
    b0, r = Fraction(reeb[0]), [Fraction(x) for x in reeb[1:]]
    total = Fraction(0)
    for subset in itertools.product((0, 1), repeat=len(r)):
        total += (-1) ** sum(subset) / (b0 + _dot(subset, r))
    return total / (factorial(len(r)) * prod(r, start=Fraction(1)))


def simplex_product_section_volume(a: int, b: int, reeb) -> Fraction:
    """Section volume of the cone over Delta^a x Delta^b, in the measure of
    ``polytope-volume``.

    The staircase triangulation splits the cone into unimodular simplicial
    cones, one per monotone lattice path from (0, 0) to (a, b), spanned by
    the rays (1, e_i, f_j) of the path's points.  A unimodular cone's
    Laplace transform is 1 / prod <b, ray>, and <b, (1, e_i, f_j)> =
    b_0 + r_i + s_j (r_0 = s_0 = 0); the sum is n! times the volume.
    """
    b0 = Fraction(reeb[0])
    r = [Fraction(0)] + [Fraction(x) for x in reeb[1 : a + 1]]
    s = [Fraction(0)] + [Fraction(x) for x in reeb[a + 1 :]]
    total = Fraction(0)
    for steps in set(itertools.permutations("x" * a + "y" * b)):
        i = j = 0
        term = 1 / (b0 + r[i] + s[j])
        for step in steps:
            i, j = (i + 1, j) if step == "x" else (i, j + 1)
            term /= b0 + r[i] + s[j]
        total += term
    return total / factorial(a + b)


def sphere_weights(d: int, seed: int, slot: int = 0) -> list:
    """d pairwise distinct positive integer weights."""
    draw = _distinct_draw(seed, ("sphere", d), slot, lambda rng: rng.sample(range(1, 2 * d + 1), d))
    return [Fraction(w) for w in draw]


def stiefel_weights(seed: int, slot: int = 0) -> list:
    """Reeb deformation (x, y, z) of SO(5)/SO(3): distinct positive integers
    with z the largest, so the volume 2 pi^4 / (3 (z^2-y^2)(z^2-x^2)) is
    finite and positive."""
    draw = _distinct_draw(seed, ("stiefel",), slot, lambda rng: sorted(rng.sample(range(1, 10), 3)))
    return [Fraction(w) for w in draw]


def sphere_system(weights) -> dict:
    """Orbit-system document of the weighted odd sphere.

    Orbit k is the coordinate circle: length 2 pi / w_k, moment e_k / w_k,
    weights (w_j / w_k) e_k - e_j for j != k.
    """
    w = [Fraction(x) for x in weights]
    d = len(w)
    orbits = []
    for k in range(d):
        moment = [Fraction(0)] * d
        moment[k] = 1 / w[k]
        alphas = []
        for j in range(d):
            if j == k:
                continue
            alpha = [Fraction(0)] * d
            alpha[k] = w[j] / w[k]
            alpha[j] = Fraction(-1)
            if _dot(alpha, w) != 0:
                raise AssertionError("weight does not annihilate the Reeb vector")
            alphas.append(alpha)
        if _dot(moment, w) != 1:
            raise AssertionError("moment does not pair to 1 with the Reeb vector")
        orbits.append(
            {
                "length": {"coeff": _frac_str(2 / w[k]), "pi_power": 1},
                "moment": [_frac_str(c) for c in moment],
                "weights": [[_frac_str(c) for c in alpha] for alpha in alphas],
            }
        )
    assert len(orbits) == d and all(len(o["weights"]) == d - 1 for o in orbits)
    return {
        "dim_t": d,
        "b": [_frac_str(c) for c in w],
        "codim_half": d - 1,
        "orbits": orbits,
    }
