"""Polar correspondence checks for cones over bodies.

The polar of the cone over a body with 0 in its interior is generated by
(-support(dir), dir) over directions plus the deep ray (-1, 0, ..., 0). The
lift of the body's exposing pairs to the cone K over C' is
construction.lift_pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, DomainError


def support_values(samples, directions):
    """Support function of the sampled body along each direction."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    return (directions @ samples.T).max(axis=1)


@dataclass(frozen=True)
class PolarReport:
    n_directions: int
    min_support: float
    max_membership_residual: float
    min_sharpness_violation: float
    passed: bool


def polar_correspondence_check(samples, directions, interior_margin=1e-6, tol=DEFAULT_TOL):
    """Exercise the polar correspondence on a body with 0 in its interior.

    For each grid direction y with support s = sup <x, y> > 0, the point
    (-1, y/s) must have nonpositive inner product with every cone generator
    (1, x); inflating the direction by 1 + 10*eq_abs must produce a
    violation on some generator (sharpness).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    sups = support_values(samples, directions)
    if float(sups.min()) < interior_margin:
        raise DomainError(
            f"body does not certify 0 in its interior: min support {sups.min():.3g} "
            f"< margin {interior_margin:.3g}"
        )
    # <(-1, y/s), (1, x)> = <y, x>/s - 1; max over x is 0 by construction of s
    vals = (directions @ samples.T) / sups[:, None] - 1.0
    membership_residual = float(vals.max(axis=1).max())
    inflate = 1.0 + 10.0 * tol.eq_abs
    violations = (inflate * (directions @ samples.T) / sups[:, None] - 1.0).max(axis=1)
    min_violation = float(violations.min())
    passed = membership_residual <= tol.eq_abs and min_violation > 0.0
    return PolarReport(
        n_directions=len(directions),
        min_support=float(sups.min()),
        max_membership_residual=membership_residual,
        min_sharpness_violation=min_violation,
        passed=passed,
    )


def apex_exposure_report(cone):
    """The functional x -> -x_0 is zero at the apex and strictly negative on
    every generator of a cone over a body on the x_0 = 1 slice."""
    first = cone.generators[:, 0]
    return {
        "max_generator_value": float((-first).max()),
        "passed": bool((-first).max() < 0.0),
    }


def unit_circle_grid(n):
    """n evenly spaced unit directions in the plane."""
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def square_body(points_per_edge=16):
    """Boundary samples of the square [-1, 1]^2 (corners included)."""
    s = np.linspace(-1.0, 1.0, points_per_edge)
    ones = np.ones_like(s)
    return np.unique(
        np.vstack([
            np.stack([s, ones], axis=1),
            np.stack([s, -ones], axis=1),
            np.stack([ones, s], axis=1),
            np.stack([-ones, s], axis=1),
        ]),
        axis=0,
    )
