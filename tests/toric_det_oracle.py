"""The vertex determinant formula on Fraction matrices, as an oracle.

This is ``toric.toric_volume`` as it stood before its determinants moved
onto the integer columns the cone keeps: every determinant is a rational
determinant of (b | v_S) with one column replaced by v, here taken by the
Fraction elimination of ``matrix_oracle``, which shares no code with the
package's ``_cofactors`` or the three-term relation that ``toric_volume``
evaluates per edge.  ``toric_volume`` must give the same PiScalar, and
raise the same PoleAtSample at the same slot of the same vertex.
"""

from fractions import Fraction
from math import factorial

from abbvloc.core import PiScalar, Vector
from abbvloc.errors import PoleAtSample
from matrix_oracle import elimination_det


def det_with_column(columns, j, v) -> Fraction:
    """The determinant of the matrix with the given columns, column j
    replaced by v (taken as rows: det M = det M^T)."""
    return elimination_det([v if k == j else c for k, c in enumerate(columns)])


def toric_volume_by_fraction_dets(cone, v) -> PiScalar:
    v = Vector(v)
    n = cone.codim_half
    e = cone.pi_scale_exponent
    total = Fraction(0)
    for orbit in cone.section.orbits:
        columns = [cone.reeb] + [cone.normals[i] for i in orbit.facet_indices]
        numerator = det_with_column(columns, 0, v) ** n
        denom = orbit.abs_delta
        for i in range(1, n + 1):
            slot = det_with_column(columns, i, v)
            if slot == 0:
                raise PoleAtSample(
                    f"det(b, ..., v, ...) vanishes at slot {i} of vertex "
                    f"{tuple(orbit.vertex)}"
                )
            denom *= slot
        total += numerator / denom
    scale = e - (1 - e) * n
    return PiScalar(Fraction(2) ** scale * total / factorial(n), n + scale)
