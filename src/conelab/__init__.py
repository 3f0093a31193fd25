"""conelab: low-dimensional convex cone toolkit built around a 4D cone that
is facially exposed yet not nice (its dual sum with a face complement is not
closed). Provides the body/cone construction, a face catalogue verified on
the body and carried to the cone over it by the exact lift identity,
divergence-based non-niceness evidence, and mesh/report exporters."""

from .construction import (
    CURVE_IDS,
    SHIFT,
    T_END,
    WITNESS_Q,
    WITNESS_U,
    RulingData,
    curve_grid,
    curve_points,
    lift_pairs,
    lift_points,
    partner_cos,
    partner_param,
    ruling_data,
    scale_points,
    theta_for_partner,
    theta_grid,
)
from .faces import Catalogue, Exposure, build_catalogue, verify_catalogue
from .linalg import DegenerateInputError, DomainError
from .niceness import (
    closure_check,
    divergence_sweep,
    fitted_exponent,
    half_disc_cone_example,
    nice3d_ingredients,
    octant_example,
    shift_bounds,
)
from .reporting import RunConfig, run_faces, run_nice3d, run_verify

__version__ = "0.1.0"
