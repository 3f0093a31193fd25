"""conelab: low-dimensional convex cone toolkit built around a 4D cone that
is facially exposed yet not nice (its dual sum with a face complement is not
closed). Provides the body/cone construction, a verified face catalogue,
homogenization and polar machinery, divergence-based non-niceness evidence,
and mesh/report exporters."""

from .construction import (
    CURVE_IDS,
    ENDPOINTS,
    SHIFT,
    T_END,
    BodySamples,
    RulingData,
    WitnessPair,
    curve_grid,
    curve_point,
    curve_points,
    homogenize,
    lift_pairs,
    lift_points,
    partner_cos,
    partner_param,
    ruling_data,
    sample_body,
    scale_points,
    theta_for_partner,
    theta_grid,
    witness,
)
from .faces import (
    ExposingPair,
    ExposureReport,
    FaceDescriptor,
    build_catalogue,
    enumerate_faces,
    exposing_pair,
    identity_suite,
    verify_catalogue,
)
from .lifting import polar_correspondence_check
from .linalg import (
    ConeModel,
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    SimplicialVerdicts,
    Tolerance,
    feasible_interval,
    nullspace,
    simplicial_membership,
)
from .niceness import (
    NicenessVerdict,
    ShiftProfile,
    closure_check,
    divergence_sweep,
    half_disc_cone_example,
    nice3d_ingredients,
    octant_example,
    perp_basis,
    shift_profile,
    witness_slack,
)
from .reporting import RunConfig, run_faces, run_nice3d, run_sweep, run_verify

__version__ = "0.1.0"
