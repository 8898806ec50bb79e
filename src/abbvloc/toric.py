"""Moment cones of toric contact structures.

A good cone is given by primitive integer facet normals and a Reeb vector
with a bounded hyperplane section.  The section's vertices are found by
an integer pivoting walk (``_walk``): a dual simplex from a greedy basis
finds the first vertex, and each vertex's n edges lead to its neighbours
by one fraction-free pivot each.  A vertex's dictionary is the adjugate
of (b | v_S), so its rows are the moment and the weights of the orbit
data; no inverse is computed.  From its first pivot on, the walk pivots
one tableau (A | A.b | A.R), the dictionary with its products with b and
every normal, so neither its start nor a vertex pairs a row with a
normal.  Each vertex is validated against the lattice direct-summand
condition on its moment row, which holds the n x n minors of v_S: their
gcd is the index of the sublattice that v_S spans, which a violation
reports.  Every vertex stays integers from the walk to the volume routes:
its point is L_b A[b's row] / T, kept as (Q, P) in lowest terms, and the
section is sorted by integer keys.  One ``ToricOrbit`` per vertex, sorted
by vertex, makes up the cone's section, an ``HPolytope``, whose one edge
table (``HPolytope.edges``) names each edge's ends and the facet it leaves
at each; boundedness is read off it.  Each orbit's vertex and weight rows
over T are reduced to orbit data (``engine._row``), and the section's
normals to integer rows, primitive as the walk pivots them; the
determinant volume formula (through one integer covector of minors per
vertex, taken once per section), Lawrence's formula and the pulling
triangulation read these rows, the latter two with each vertex's integer
row and |det(b, v_S)| off the walk.  A vertex's point as Fractions
(``ToricOrbit.vertex``) is built only for a message that names it and for
the test oracles.  Errors come in the order NotSimpleVertex,
GoodnessViolation, UnboundedSection.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm, prod
from operator import mul

from .core import (
    Covector,
    PiScalar,
    Record,
    Vector,
    _cofactors,
    _integer_row,
    _pivot,
    _primitive,
    _reduce,
    _sum,
    basis_vector,
    rat,
    rat_str,
)
from .engine import OrbitDatum, OrbitSystem, _row
from .errors import (
    GoodnessViolation,
    InputError,
    NotSimpleVertex,
    PoleAtSample,
    SingularMatrix,
    UnboundedSection,
)

# The walk refuses a section with more vertices than this.  Cube cone 10
# (1,024 vertices) runs polytope-volume, and lawrence on its bare section, in
# about 0.34 s cold (Python 3.11, Intel Xeon).  The polytope routes read each
# vertex's determinant off the walk, but every route after it still costs at
# least a dot product per vertex, and volume-toric an elimination per vertex.
MAX_VERTICES = 1024


class GoodCone(Record):
    """Rational polyhedral cone {phi : phi(v_i) <= 0} with a Reeb vector.

    ``normals`` and ``reeb`` are stored in lattice coordinates; when a
    nontrivial ``lattice_basis`` is supplied (rows of rationals, in tuples
    or lists, whose columns are the lattice generators in the input
    coordinates), inputs are converted at construction and the normals
    must land on integer vectors.  The basis is not kept: the field reads
    None after construction.

    ``pi_scale_exponent`` records how many factors of 2 pi are absorbed
    into each lattice generator (0 or 1, uniform across axes).  With
    exponent 1 the stored Reeb coordinates are the geometric ones and all
    volume outputs carry pi^(n+1); with exponent 0 results are rational
    multiples of pi^0 in lattice-normalized units.

    The vertex data does not depend on any sample vector, so the cone
    holds it: ``section`` is enumerated on first use and kept for the
    cone's lifetime.
    """

    dim: int
    normals: tuple
    reeb: Vector
    lattice_basis: tuple = None
    pi_scale_exponent: int = 1

    def __post_init__(self):
        d = self.dim
        if d < 2:
            raise InputError("cone dimension must be at least 2")
        if self.pi_scale_exponent not in (0, 1):
            raise InputError("pi_scale_exponent must be 0 or 1")
        normals = [Vector(v) for v in self.normals]
        reeb = Vector(self.reeb)
        if len(reeb) != d or any(len(v) != d for v in normals):
            raise InputError("normals and reeb must have the cone dimension")
        if len(normals) < d:
            raise InputError(f"need at least {d} facet normals, got {len(normals)}")
        if self.lattice_basis is not None:
            basis = tuple(tuple(rat(e) for e in r) for r in self.lattice_basis)
            if not (len(basis) == d and all(len(r) == d for r in basis)):
                raise InputError("lattice_basis must be a square matrix of the cone dimension")
            # one reduction of (B | v_1 ... v_m b) to (T I | T B^-1 (v_1 ... v_m b))
            try:
                a, t = _reduce([r + tuple(v[i] for v in normals) + (reeb[i],)
                                for i, r in enumerate(basis)], d)
            except SingularMatrix:
                raise InputError("lattice_basis is singular") from None
            coords = [Vector(Fraction(x, t) for x in col) for col in list(zip(*a))[d:]]
            normals, reeb = coords[:-1], coords[-1]
        for i, v in enumerate(normals):
            if any(e.denominator != 1 for e in v):
                raise InputError(f"normal {i} is not an integer lattice vector")
            g = gcd(*(e.numerator for e in v))
            if g == 0:
                raise InputError(f"normal {i} is zero")
            if g != 1:
                raise InputError(f"normal {i} is not primitive (gcd {g})")
        if len(set(normals)) != len(normals):
            raise InputError("duplicate facet normals")
        object.__setattr__(self, "normals", tuple(normals))
        object.__setattr__(self, "reeb", reeb)
        object.__setattr__(self, "lattice_basis", None)

    @property
    def codim_half(self) -> int:
        return self.dim - 1

    @cached_property
    def section(self) -> HPolytope:
        """The hyperplane section, its orbits found by enumerate_vertices on
        first access and its edges read to raise UnboundedSection unless it
        is bounded, so its ``edges``, ``minor_forms`` and ``lawrence_form``
        are computed once per cone.  A section that raises is not stored,
        so every access raises the same error."""
        section = HPolytope(self.normals, self.reeb, enumerate_vertices(self))
        section.edges  # raises UnboundedSection
        return section

    @property
    def two_pi_exponent(self) -> int:
        """k = e - (1 - e) n for pi_scale_exponent e: each orbit length is
        (2 pi)^k / |det(b, v_S)|, so a volume carries 2^k pi^(n + k)."""
        e = self.pi_scale_exponent
        return e - (1 - e) * self.codim_half


class ToricOrbit(Record):
    """A vertex of the hyperplane section, i.e. one closed Reeb orbit.

    ``integer_vertex`` is the vertex P / Q in lowest terms as (Q, P): Q > 0
    and P a tuple of ints.  ``facet_indices`` are the facets through the
    vertex, in increasing order, and ``abs_delta`` is |det(b, v_S)| for
    their normals v_S.  ``rows`` are the n + 1 rows of the walk's
    dictionary T (b | v_S)^-1 with the normals in that order, as tuples of
    ints, and ``t`` is T: row 0 is the moment row, so the vertex is
    L_b row 0 / T for the lcm L_b of b's denominators, and rows 1..n are
    the weights.  The walk scales each normal to a primitive integer row,
    so ``abs_delta`` and ``rows`` are those of the primitive normals; a
    cone's normals are primitive already.  ``vertex`` is the point as a
    Covector of Fractions, a view for messages and oracles, built on
    first read.
    """

    integer_vertex: tuple
    facet_indices: tuple
    abs_delta: Fraction
    rows: tuple
    t: int

    @cached_property
    def vertex(self) -> Covector:
        q, p = self.integer_vertex
        return Covector(Fraction(x, q) for x in p)


class HPolytope(Record):
    """The section {phi : phi(v_i) <= 0, phi(reeb) = 1} as the vertex walk
    (``_walk``) found it: one ToricOrbit per vertex, sorted by vertex, from
    which its ``integer_vertices`` and, in vertex order, the facets each
    vertex lies on (``facet_sets``) are read; ``vertices`` is their
    Fraction view, for the test oracles.  The walk proves every vertex
    simple, on n facets whose normals form a basis with b.  A cone's
    section is ``GoodCone.section``."""

    normals: tuple
    reeb: Vector
    orbits: tuple

    @classmethod
    def from_halfspaces(cls, normals, reeb) -> HPolytope:
        """The section of a bare document, its vertices found by the same
        pivoting walk as a cone's, without the goodness test.  Raises
        InputError for a Reeb vector of fewer than 2 entries, whose section
        is a point, and for a zero normal or two normals with one primitive
        row, naming them; NotSimpleVertex at a vertex on more than n facets;
        boundedness is checked by ``edges``."""
        normals = tuple(Vector(v) for v in normals)
        reeb = Vector(reeb)
        if len(reeb) < 2:
            raise InputError("the Reeb vector must have at least 2 entries")
        if any(len(v) != len(reeb) for v in normals):
            raise InputError("normals and reeb must have the same dimension")
        rows = _primitive_rows(normals)
        for i, row in enumerate(rows):
            if not any(row):
                raise InputError(f"normal {i} is zero")
            if rows.index(row) < i:
                raise InputError(f"normals {rows.index(row)} and {i} have one primitive row {row}")
        scale, found = _walk(normals, reeb)
        if not found:
            raise InputError("hyperplane section has no vertices")
        return cls(normals, reeb, _sorted_orbits(scale, found))

    @property
    def section_dim(self) -> int:
        return len(self.reeb) - 1

    @cached_property
    def vertices(self) -> tuple:
        return tuple(o.vertex for o in self.orbits)

    @cached_property
    def facet_sets(self) -> tuple:
        return tuple(frozenset(o.facet_indices) for o in self.orbits)

    @cached_property
    def edges(self) -> tuple:
        """The section's edges, sorted, each as (a, c, i, k): its ends a < c,
        vertex indices, and the positions i and k in their ``facet_indices``
        of the facet that it leaves at a and at c.

        An edge is keyed by its facets, a vertex's facet set minus one
        facet, and ends in the vertices that share that key.  Raises
        UnboundedSection at an edge with one vertex: a ray, so the section
        has a nontrivial recession cone; the message names the first vertex
        with a ray and, of its rays, the first in its facet set's order.

        >>> section = weighted_sphere_cone([1, 2, 3]).section
        >>> section.edges
        ((0, 1, 1, 1), (0, 2, 0, 1), (1, 2, 0, 0))
        >>> section.slots
        ((1, 0), (2, 0), (2, 1))
        """
        ends = {}
        for a, orbit in enumerate(self.orbits):
            facets = frozenset(orbit.facet_indices)
            for i, j in enumerate(orbit.facet_indices):
                ends.setdefault(facets - {j}, []).append((a, i))
        for (a, _), *rest in ends.values():
            if not rest:
                facets = frozenset(self.orbits[a].facet_indices)
                left = next(j for j in facets if len(ends[facets - {j}]) == 1)
                raise UnboundedSection(
                    f"the section is unbounded: the edge that leaves facet {left} at vertex "
                    f"{_point_str(self.orbits[a].vertex)} has no second vertex"
                )
        return tuple(sorted((a, c, i, k) for (a, i), (c, k) in ends.values()))

    @cached_property
    def slots(self) -> tuple:
        """For each vertex, in vertex order, and each position i in its
        ``facet_indices``: the index into ``edges`` of the edge that leaves
        the facet at position i.  Raises UnboundedSection as ``edges`` does."""
        slots = [[None] * len(o.facet_indices) for o in self.orbits]
        for e, (a, c, i, k) in enumerate(self.edges):
            slots[a][i] = slots[c][k] = e
        return tuple(map(tuple, slots))

    @cached_property
    def integer_vertices(self) -> tuple:
        """(Q_a, P_a) for each vertex a = P_a / Q_a, in vertex order: the
        vertex as a tuple of ints P_a over the lcm Q_a of its denominators,
        each orbit's ``integer_vertex`` as the walk found it."""
        return tuple(o.integer_vertex for o in self.orbits)

    @cached_property
    def integer_normals(self) -> tuple:
        """Each normal as the primitive integer row that the walk pivots
        (``_primitive_rows``), in facet-index order.  Scaling a normal by a
        positive factor leaves the section as it is, so every route reads
        these rows in place of the given normals."""
        return _primitive_rows(self.normals)

    @cached_property
    def abs_dets(self) -> tuple:
        """|det(b, v_S)| for each vertex on the facets S, in vertex order, with
        v_S the primitive rows (``integer_normals``): the walk's
        ``abs_delta``, |T| / L_b, so no determinant is taken."""
        return tuple(o.abs_delta for o in self.orbits)

    @cached_property
    def minor_forms(self) -> tuple:
        """What ``toric_volume`` reads of the section besides ``edges`` and
        ``slots``, taken once from b and the primitive normal rows and from
        no walk dictionary: (forms, at_reeb, divisors).

        Per vertex on the facets S, in vertex order: ``forms`` holds the
        integer covector N_S with N_S(x) = det(x, v_S) for the primitive
        rows v_S (``integer_normals``), one ``core._cofactors`` each;
        ``at_reeb`` holds N_S(L_b b) for b scaled to ints by the lcm L_b of
        its denominators.  Per edge T = (S, S', i, k) of ``edges``, in that
        order, with s the facet that T leaves at slot i of S: ``divisors``
        holds d = (-1)^i N_S'(v_s).  The three-term (Plucker) relation in
        the plane that v_T's span leaves gives, exactly and for every x,

            det(L_b b, x, v_T) = (N_S'(L_b b) N_S(x) - N_S(L_b b) N_S'(x)) / d,

        and d is never 0: were v_s and v_s' equal on ker(v_T), S and S'
        would be one vertex.  Raises UnboundedSection as ``edges`` does."""
        _, b = _integer_row(self.reeb)
        normals = self.integer_normals
        forms, at_reeb = [], []
        for orbit in self.orbits:
            form = _cofactors([list(normals[i]) for i in orbit.facet_indices])
            if len(orbit.facet_indices) % 2:
                form = [-x for x in form]  # det(x, v_S) = (-1)^n det(v_S; x)
            forms.append(tuple(form))
            at_reeb.append(sum(map(mul, form, b)))
        divisors = []
        for first, second, i, _ in self.edges:
            d = sum(map(mul, forms[second], normals[self.orbits[first].facet_indices[i]]))
            divisors.append(-d if i % 2 == 0 else d)  # i counts from 0
        return tuple(forms), tuple(at_reeb), tuple(divisors)

    @cached_property
    def lawrence_form(self) -> tuple:
        """What ``polytope.lawrence_volume`` reads of the section besides
        ``integer_vertices``, ``edges`` and ``slots``, taken once from them,
        ``integer_normals`` and ``abs_dets`` by integer dot products: per
        vertex a = P_a / Q_a, in vertex order, one integer pair (w_a, z_a)
        with

            w_a / z_a = +-prod_j (P_c . v_j) / |det(b, v_S)|,

        for the primitive rows v_j, the product over the edges (a, c) that
        leave facet j at a, and one sign -1 for each edge whose second end
        is a.  P_c . v_j = Q_c c(v_j) is never 0: c is off facet j.
        Raises UnboundedSection as ``edges`` does."""
        vertices, normals = self.integer_vertices, self.integer_normals
        facets = [o.facet_indices for o in self.orbits]
        nums = [1] * len(vertices)
        for a, c, i, k in self.edges:
            nums[a] *= sum(map(mul, vertices[c][1], normals[facets[a][i]]))
            nums[c] *= -sum(map(mul, vertices[a][1], normals[facets[c][k]]))
        weights = []
        for num, delta in zip(nums, self.abs_dets):
            w, z = num * delta.denominator, delta.numerator
            g = gcd(w, z)
            weights.append((w // g, z // g))
        return tuple(weights)


def _point_str(phi) -> str:
    return f"({', '.join(map(rat_str, phi))})"


def _primitive_rows(normals) -> tuple:
    """Each normal as a primitive integer row, a tuple of ints: scaled by
    the lcm of its denominators, then divided by the gcd of its entries."""
    return tuple(tuple(_primitive(_integer_row(v)[1])) for v in normals)


def _walk(normals, reeb) -> tuple:
    """The vertices of {phi : phi(reeb) = 1, phi(v_i) <= 0} by an integer
    pivoting walk over the section's edges (Avis & Fukuda 1992, with the
    fraction-free dictionaries of Avis's lrs).

    The Reeb vector is scaled to integers by the lcm ``scale`` of its
    denominators, and each normal to a primitive integer row.  A basis
    ``labels`` names the column at each position of M = (b | v_S): -1 for
    the Reeb vector, else a facet index.  Its dictionary is the adjugate
    A = T M^-1 on Python ints with T = det M, so the vertex is
    scale * A[b's row] / T and the other rows are the weights; ``_pivot``,
    the fraction-free Gauss-Jordan step that ``core._reduce`` repeats,
    moves it to a neighbouring basis.

    The walk pivots one tableau from its first step, as in lrs: each row
    A_i of the dictionary extended by its products A_i . b and A_i . v_k
    with all m normals, (A | A.b | A.R), d x (d + 1 + m), starting at
    A = I.  A pivot combines whole rows, so it keeps the extension equal
    to the new dictionary's products, and every pairing is read off it;
    the dictionary is its first d columns.

    The first basis pivots the columns (b, v_1, ..., v_m) greedily into the
    identity's positions.  A dual simplex with Bland's rule then
    maximizes phi(c), c = b + sum of the first basis's normals, so that
    A_i . c is a sum of tableau entries and every A_i . c / T is 1 at the
    start: it ends at a vertex, or at a violated facet that no row can
    repair, which proves the section empty.  From the first vertex each of
    the n edges drops one facet, and an integer ratio test finds the facet
    it meets next; an edge that meets none is a ray and is skipped
    (``HPolytope.edges`` reports it).  The top row's entries give the
    NotSimpleVertex test and row i's the ratio test along the edge that
    leaves facet labels[i]; each neighbour is one ``_pivot``.

    Returns (scale, [(labels, A, T), ...]) in walk order, empty when the
    section has no vertex: each vertex is scale * A[b's row] / T, kept as
    integers, and only the NotSimpleVertex message builds it as Fractions.
    Raises NotSimpleVertex at a vertex on more than n facets (a tie in the
    ratio test leads to one) and InputError once more than MAX_VERTICES
    vertices are seen.
    """
    d = len(reeb)
    scale, b = _integer_row(reeb)
    rows = _primitive_rows(normals)
    m = len(rows)
    w = d + 1  # column w + label holds A . b (label -1) or A . v_label
    tab = [[int(i == j) for j in range(d)] + [x, *(v[i] for v in rows)]
           for i, x in enumerate(b)]
    t = 1
    labels = [None] * d
    for label in range(-1, m):
        col = [r[w + label] for r in tab]
        i = next((i for i in range(d) if labels[i] is None and col[i]), None)
        if i is not None:
            tab, t = _pivot(tab, t, i, col)
            labels[i] = label
    if -1 not in labels or None in labels:
        return scale, []

    n = d - 1
    ib = labels.index(-1)
    c = [w + k for k in labels]  # the columns that sum to A . c
    while True:
        sign = 1 if t > 0 else -1
        basic = set(labels)
        k = next((k for k in range(m) if k not in basic and sign * tab[ib][w + k] > 0), None)
        if k is None:
            break
        col = [r[w + k] for r in tab]
        best = None
        for i in range(d):
            alpha = sign * col[i]
            if i == ib or alpha <= 0:
                continue
            mu = sign * sum(tab[i][j] for j in c)
            if best is None or mu * best[2] < best[1] * alpha or (
                mu * best[2] == best[1] * alpha and labels[i] < labels[best[0]]
            ):
                best = (i, mu, alpha)
        if best is None:
            return scale, []
        tab, t = _pivot(tab, t, best[0], col)
        labels[best[0]] = k

    found = []
    seen = {frozenset(labels)}
    stack = [(labels, tab, t)]
    while stack:
        labels, tab, t = stack.pop()
        sign = 1 if t > 0 else -1
        top = tab[ib]
        basic = frozenset(labels)
        others = [k for k in range(m) if k not in basic]
        if any(top[w + k] == 0 for k in others):
            active = basic - {-1} | {k for k in others if top[w + k] == 0}
            phi = (Fraction(scale * x, t) for x in top[:d])
            raise NotSimpleVertex(
                f"vertex {_point_str(phi)} lies on facets {tuple(sorted(active))}, more than {n}"
            )
        found.append((labels, [r[:d] for r in tab], t))
        heights = [(k, -sign * top[w + k]) for k in others]
        for i in range(d):
            if i == ib:
                continue
            # along the edge that leaves facet labels[i], facet k is met at
            # the ratio A_b . v_k / A_i . v_k when A_i . v_k has sign -sign(T)
            row = tab[i]
            best = None
            for k, height in heights:
                rate = -sign * row[w + k]
                if rate > 0 and (best is None or height * best[2] < best[1] * rate):
                    best = (k, height, rate)
            if best is None:
                continue
            k = best[0]
            key = basic - {labels[i]} | {k}
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > MAX_VERTICES:
                raise InputError(
                    f"the section has more than MAX_VERTICES = {MAX_VERTICES} vertices"
                )
            step = list(labels)
            step[i] = k
            stack.append((step, *_pivot(tab, t, i, [r[w + k] for r in tab])))
    return scale, found


def _sorted_orbits(scale, found) -> tuple:
    """The vertices that ``_walk`` found, with its ``scale``, as ToricOrbits
    sorted by vertex: each dictionary's rows put in facet-index order, the
    Reeb vector's row first, and abs_delta = |T| / scale.  The vertex is
    y / T for y = scale * row 0, kept as (Q, P) in lowest terms: with
    g = sign(T) gcd(T, y), Q = T / g and P = y / g.  The vertices are
    sorted by the integer rows P (L / Q) for the lcm L of all the Q, in
    the order of their Fraction tuples, so no Fraction point is built."""
    orbits = []
    for labels, a, t in found:
        order = sorted(range(len(labels)), key=labels.__getitem__)
        rows = tuple(tuple(a[i]) for i in order)
        y = [scale * x for x in rows[0]]
        g = gcd(t, *y) * (1 if t > 0 else -1)
        orbits.append(ToricOrbit(
            integer_vertex=(t // g, tuple(x // g for x in y)),
            facet_indices=tuple(labels[i] for i in order[1:]),
            abs_delta=Fraction(abs(t), scale),
            rows=rows,
            t=t,
        ))
    common = lcm(*(o.integer_vertex[0] for o in orbits))

    def key(orbit):
        q, p = orbit.integer_vertex
        return tuple(x * (common // q) for x in p)

    return tuple(sorted(orbits, key=key))


def enumerate_vertices(cone: GoodCone) -> tuple:
    """All vertices of the hyperplane section {phi(b) = 1, phi(v_i) <= 0},
    as ToricOrbits sorted by vertex.

    ``_walk`` finds them by an integer pivoting walk from a dual-simplex
    start.  Each vertex's moment (the vertex) and weights are the rows of
    its dictionary A / T, put in sorted facet order, the vertex also as its
    integer row over Q in lowest terms (``ToricOrbit.integer_vertex``), and
    abs_delta is |det(b, v_S)| = |T| / lcm(denominators of b); no
    determinant, inverse or Fraction point is computed, and the rows stay
    integers over T until ``orbit_system_from_cone`` reduces them.  A is
    the adjugate of (b | v_S), so its moment row holds the n x n minors of
    v_S up to sign, whose gcd is the index of the sublattice that the
    active normals span: they span a direct summand exactly when that
    index is 1.  Errors, in this order of precedence: NotSimpleVertex at a
    vertex on extra facets (the walk stops there), GoodnessViolation at the
    first vertex in sorted facet order whose moment row has gcd above 1
    (reported with that index), UnboundedSection for an empty section.
    InputError when the section has more than MAX_VERTICES vertices.  An
    edge with one vertex (for a simple section, a nontrivial recession
    cone) is reported by the section's ``edges``.

    Enumerates afresh on every call; callers read ``cone.section``, which
    calls this once per cone and keeps the result.
    """
    scale, found = _walk(cone.normals, cone.reeb)
    if not found:
        raise UnboundedSection("no vertex satisfies the facet inequalities")
    orbits = _sorted_orbits(scale, found)
    for orbit in sorted(orbits, key=lambda o: o.facet_indices):
        index = gcd(*orbit.rows[0])
        if index != 1:
            raise GoodnessViolation(
                f"facets {orbit.facet_indices} span a sublattice of index {index}"
            )
    return orbits


def orbit_system_from_cone(cone: GoodCone) -> OrbitSystem:
    """Orbit lengths, moments and weights from the cone's vertex data.

    The moment functional and the weight functionals at a vertex are the
    rows of the inverse of the matrix with columns (b, v_1, ..., v_n),
    which the walk kept: the moment is the vertex, its integer row P over Q
    (``ToricOrbit.integer_vertex``), and the weights are its integer
    dictionary rows over T (``ToricOrbit.rows`` and ``t``), each reduced by
    ``engine._row`` with no Fraction built.  The uniform pi grading of the
    weights and the lattice rescaling are absorbed into the orbit length,
    keeping all functionals rational; with
    pi_scale_exponent 1 the stored lengths, moments and weights are
    exactly the geometric ones.
    """
    k = cone.two_pi_exponent
    orbits = []
    for orbit in cone.section.orbits:
        q, p = orbit.integer_vertex
        rows = (_row(p, q), *(_row(w, orbit.t) for w in orbit.rows[1:]))
        orbits.append(OrbitDatum(PiScalar(Fraction(2) ** k / orbit.abs_delta, k), rows))
    return OrbitSystem(cone.dim, cone.reeb, cone.codim_half, tuple(orbits))


def toric_volume(cone: GoodCone, v: Vector) -> PiScalar:
    """Volume by the vertex determinant formula (Martelli-Sparks-Yau, CMP
    268, 2006).

    Each vertex contributes det(v, v_S)^n / (|det(b, v_S)| * prod_i
    det(b, ..., v at slot i, ...)), with the active normals v_S in
    facet-index order: reordering them changes the numerator and the n
    slot determinants by the same sign to the n-th power.  Moving v from
    slot i to slot 1 gives

        det(b, v_s1, ..., v, ..., v_sn) = (-1)^(i-1) det(b, v, v_T),

    with T = S minus s_i, the edge of the section that leaves facet s_i at
    the vertex, so both ends of an edge read one E(T) = det(L_b b, L_v v,
    v_T).  Every determinant is linear in v, so the section takes each
    vertex's integer covector N_S(x) = det(x, v_S) once
    (``HPolytope.minor_forms``), and a sample costs one dot product per
    vertex, the numerator N_S(L_v v), and one exact integer combination of
    two of them per edge, E(T); no elimination.  The numerator carries
    L_v^n and the slot product (L_b L_v)^n, so L_v cancels and each term
    is multiplied by L_b^n; |det(b, v_S)| is |N_S(L_b b)| / L_b, as a
    cone's normals are integers.  The slot signs (-1)^(i-1) multiply to
    (-1)^(n//2) at every vertex, and the vertex terms are added unreduced
    by ``core._sum`` into one Fraction; before that, the first pole in
    vertex order, then slot order, raises PoleAtSample.  Everything is
    read off the normals, not off the walk's dictionaries or its
    ``abs_delta``, which the orbit-data route and the section's
    ``abs_dets`` read, so this route cross-checks both.
    """
    v = Vector(v)
    if len(v) != cone.dim:
        raise InputError("sample vector has wrong dimension")
    n = cone.codim_half
    _, vi = _integer_row(v)
    lb, _ = _integer_row(cone.reeb)
    section = cone.section
    forms, at_reeb, divisors = section.minor_forms
    at_v = [sum(map(mul, form, vi)) for form in forms]
    dets = [(at_reeb[second] * at_v[first] - at_reeb[first] * at_v[second]) // d
            for (first, second, _, _), d in zip(section.edges, divisors)]
    if 0 in dets:
        i, orbit = next((i, orbit) for orbit, vertex_slots in zip(section.orbits, section.slots)
                        for i, e in enumerate(vertex_slots, 1) if dets[e] == 0)
        raise PoleAtSample(
            f"det(b, ..., v, ...) vanishes at slot {i} of vertex {tuple(orbit.vertex)}"
        )
    num, den = _sum([((numerator * lb) ** n * lb, abs(reeb) * prod(map(dets.__getitem__, s)))
                     for numerator, reeb, s in zip(at_v, at_reeb, section.slots)])
    k = cone.two_pi_exponent
    num, den = (-1) ** (n // 2) * num << max(k, 0), den * factorial(n) << max(-k, 0)
    return PiScalar(Fraction(num, den), n + k)


# ---------------------------------------------------------------------------
# fixture cones


def weighted_sphere_cone(weights, pi_scale_exponent: int = 1) -> GoodCone:
    """Cone of the deformed odd sphere: normals -e_i, Reeb = the weights."""
    w = [rat(x) for x in weights]
    if any(x <= 0 for x in w):
        raise InputError("weights must be positive")
    d = len(w)
    normals = tuple(-basis_vector(d, i) for i in range(d))
    return GoodCone(
        dim=d,
        normals=normals,
        reeb=Vector(w),
        pi_scale_exponent=pi_scale_exponent,
    )


def simplex_cone(dim: int, pi_scale_exponent: int = 1) -> GoodCone:
    """The orthant cone with unit Reeb vector (round-sphere normalization)."""
    return weighted_sphere_cone([1] * dim, pi_scale_exponent)
