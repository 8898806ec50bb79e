"""Exact localization of volumes and characteristic numbers over the
closed orbits of torus-generated flows.

Everything computes in exact rational arithmetic; values carrying powers
of pi stay symbolic as PiScalar, so every cross-check in the package is an
exact equality.
"""

from .core import (
    Covector,
    Matrix,
    PiScalar,
    Rational,
    Vector,
    complete_homogeneous,
    det,
    elementary_symmetric,
    partitions,
    power_sum,
    rat,
    s_J,
    smith_normal_form,
    solve_linear,
)
from .engine import (
    OrbitDatum,
    OrbitSystem,
    check_v_independence,
    dh_series,
    localize_characteristic,
    localize_volume,
    localized_sum,
    residue_pattern_system,
    weighted_sphere_system,
)
from .errors import (
    AllSamplesPoles,
    DegenerateReeb,
    EdgeConstantFunctional,
    GoodnessViolation,
    InconsistentSamples,
    InputError,
    LocalizationError,
    MixedPiPowers,
    NotSimpleVertex,
    PoleAtSample,
    SingularMatrix,
    UnboundedSection,
)
from .homogeneous import (
    RootData,
    homogeneous_volume,
    stiefel_closed_form,
    stiefel_four_sum,
    stiefel_so5_so3,
)
from .polytope import (
    HPolytope,
    LinearFunctional,
    MsyCheck,
    lawrence_volume,
    msy_check,
    omega_h,
    triangulation_volume,
    vertices_from_halfspaces,
)
from .sampling import SampleOutcome, sample_independent
from .secondary import (
    WeightedSphereFoliation,
    asuke_closed_form,
    asuke_number,
    check_w1_identity,
    u1_leaf_integrals,
)
from .toric import (
    GoodCone,
    ToricOrbit,
    enumerate_vertices,
    orbit_system_from_cone,
    simplex_cone,
    toric_volume,
    weighted_sphere_cone,
)

__version__ = "0.1.0"
