"""Exact localization of volumes and characteristic numbers over the
closed orbits of torus-generated flows.

Everything computes in exact rational arithmetic; values carrying powers
of pi stay symbolic as PiScalar, so every cross-check in the package is an
exact equality.
"""

from .core import (
    Covector,
    PiScalar,
    Rational,
    Vector,
    partitions,
    rat,
    s_J,
)
from .engine import (
    LeafIntegrals,
    OrbitDatum,
    OrbitSystem,
    check_v_independence,
    dh_series,
    localize_characteristic,
    localize_volume,
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
    root_data_system,
    stiefel_closed_form,
    stiefel_four_sum,
    stiefel_so5_so3,
)
from .polytope import (
    HPolytope,
    MsyCheck,
    lawrence_volume,
    msy_check,
    triangulation_volume,
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
