"""Closed forms for the four-arc body, its scaled copy, and the 4D cone.

The body C is the convex hull of four unit-circle arcs meeting at the
origin, parametrized on [0, T] with T = pi/4:

    curve 1: (0, -sin t, cos t - 1)        curve 2: (0, cos t - 1, -sin t)
    curve 3: (-sin t, 1 - cos t, 0)        curve 4: (cos t - 1, sin t, 0)

C' = 2C + (1/2, 0, 1/2) and K = cone({1} x C'). The theta-machinery pairs a
parameter theta on curve 1 (resp. 4) with a partner parameter on curve 3
(resp. 2); the segments between paired points rule the curved part of the
boundary of C and carry closed-form exposing normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.ma  # noqa: F401  (np.unique loads it on first call; load it at import)

from .linalg import ConeModel, DegenerateInputError, DomainError

T_END = math.pi / 4
CURVE_IDS = (1, 2, 3, 4)

# Translation applied after doubling: C' = 2C + SHIFT.
SHIFT = np.array([0.5, 0.0, 0.5])

_SQRT2_INV = 1.0 / math.sqrt(2.0)

# Arc endpoints; index 0 is the common point of all four arcs.
ENDPOINTS = {
    0: np.zeros(3),
    1: np.array([0.0, -_SQRT2_INV, _SQRT2_INV - 1.0]),
    2: np.array([0.0, _SQRT2_INV - 1.0, -_SQRT2_INV]),
    3: np.array([-_SQRT2_INV, 1.0 - _SQRT2_INV, 0.0]),
    4: np.array([_SQRT2_INV - 1.0, _SQRT2_INV, 0.0]),
}

# Each arc lies on a unit circle; centre per curve id.
ARC_CENTERS = {
    1: np.array([0.0, 0.0, -1.0]),
    2: np.array([0.0, -1.0, 0.0]),
    3: np.array([0.0, 1.0, 0.0]),
    4: np.array([-1.0, 0.0, 0.0]),
}


def _check_param(t, lo=0.0, hi=T_END, name="t", open_lo=False):
    t = float(t)
    slack = 1e-15  # forgive one ulp of pi/4 round-off at the right endpoint
    if t < lo - slack or t > hi + slack or (open_lo and t <= lo):
        raise DomainError(f"{name}={t} outside {'(' if open_lo else '['}{lo}, {hi}]")
    return min(max(t, lo), hi)


def curve_points(curve_id, ts):
    """Vectorized arc evaluation; ts may be a scalar or an array in [0, T]."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and (ts.min() < -1e-15 or ts.max() > T_END + 1e-15):
        raise DomainError(f"curve parameters outside [0, {T_END}]")
    s, c = np.sin(ts), np.cos(ts)
    z = np.zeros_like(ts)
    if curve_id == 1:
        cols = (z, -s, c - 1.0)
    elif curve_id == 2:
        cols = (z, c - 1.0, -s)
    elif curve_id == 3:
        cols = (-s, 1.0 - c, z)
    elif curve_id == 4:
        cols = (c - 1.0, s, z)
    else:
        raise DomainError(f"curve id {curve_id} not in {CURVE_IDS}")
    return np.stack(cols, axis=-1)


def curve_point(curve_id, t):
    """Single point on one of the four arcs; t must lie in [0, T]."""
    t = _check_param(t)
    return curve_points(curve_id, t)


def partner_cos(theta):
    """sin(theta) / (1 + sin(theta) - cos(theta)); the cosine of the partner
    parameter. Strictly decreasing on (0, T] from 1 down to 1/sqrt(2).

    Evaluated via the equivalent half-angle form
    cos(theta/2) / (cos(theta/2) + sin(theta/2)), which has no cancellation
    as theta -> 0 (the direct form loses ~16/|log10 theta| digits there).
    """
    theta = _check_param(theta, name="theta", open_lo=True)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return c / (c + s)


def partner_cos_prime(theta):
    """Derivative of partner_cos; negative on the whole domain."""
    theta = _check_param(theta, name="theta", open_lo=True)
    return (math.cos(theta) - 1.0) / (1.0 + math.sin(theta) - math.cos(theta)) ** 2


def partner_param(theta):
    """Partner parameter arccos(partner_cos(theta)); a strictly increasing
    bijection of (0, T] onto (0, T]. The arccos rounds to T + 1.1e-16 at
    theta = T, so it is clamped to T: the partner stays a curve parameter."""
    return min(math.acos(partner_cos(theta)), T_END)


def theta_for_partner(t):
    """Inverse of partner_param in closed form.

    Solves cos(t) = sin(theta)/(1 + sin(theta) - cos(theta)) for theta;
    the nontrivial root of the induced A sin + B cos = B equation.
    """
    t = _check_param(t, open_lo=True)
    return math.pi - 2.0 * math.atan2(math.cos(t), 1.0 - math.cos(t))


@dataclass(frozen=True)
class ScanReport:
    """Result of a monotonicity scan of partner_cos over a grid."""

    strictly_decreasing: bool
    violations: int
    first_value: float
    last_value: float
    max_derivative: float  # most positive derivative seen (should be < 0)


def scan_partner_cos(grid):
    """Scan partner_cos over a strictly increasing grid in (0, T]."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise DegenerateInputError("monotonicity scan needs at least two points")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be strictly increasing")
    vals = np.array([partner_cos(t) for t in grid])
    derivs = np.array([partner_cos_prime(t) for t in grid])
    violations = int(np.sum(np.diff(vals) >= 0))
    return ScanReport(
        strictly_decreasing=violations == 0,
        violations=violations,
        first_value=float(vals[0]),
        last_value=float(vals[-1]),
        max_derivative=float(derivs.max()),
    )


@dataclass(frozen=True)
class RulingData:
    """One ruling of the curved boundary: parameter theta on curve 1/4, its
    partner t on curve 3/2, the exposing normal for the curve-1/3 segment,
    the mirrored normal for the curve-4/2 segment, and the shared offset."""

    theta: float
    t: float
    normal: np.ndarray
    mirror_normal: np.ndarray
    offset: float


def ruling_data(theta):
    """Assemble the closed-form ruling quantities for theta in (0, T]."""
    theta = _check_param(theta, name="theta", open_lo=True)
    ct = partner_cos(theta)
    if not (_SQRT2_INV - 1e-12 <= ct < 1.0):
        raise DomainError(f"partner cosine {ct} escaped [1/sqrt2, 1)")
    t = partner_param(theta)
    st = math.sin(t)
    sth, cth = math.sin(theta), math.cos(theta)
    normal = np.array([-st * sth, -ct * sth, ct * cth])
    mirror = np.array([ct * cth, sth * ct, -st * sth])
    offset = ct * (1.0 - cth)
    alt = sth * (1.0 - ct)
    if abs(offset - alt) > 1e-12:
        raise DomainError(f"offset closed forms disagree by {abs(offset - alt)}")
    return RulingData(theta=theta, t=t, normal=normal, mirror_normal=mirror, offset=offset)


def curve_grid(n):
    """Uniform n-point grid on [0, T]."""
    if n < 2:
        raise DomainError("grid needs at least 2 points")
    return np.linspace(0.0, T_END, n)


def theta_grid(n):
    """Uniform n-point grid on (0, T]; smallest value T/n."""
    if n < 1:
        raise DomainError("theta grid needs at least 1 point")
    return np.linspace(T_END / n, T_END, n)


@dataclass(frozen=True)
class BodySamples:
    """Per-curve parameter grids and sampled points, for C or for C', also
    stacked curve by curve: xyz[k] is the sample of curve ids[k] at ts[k]."""

    grids: dict
    points: dict
    shifted: bool  # False: raw C samples; True: C' = 2C + SHIFT samples
    ids: np.ndarray = field(init=False, repr=False)
    ts: np.ndarray = field(init=False, repr=False)
    xyz: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for i in CURVE_IDS:
            if i not in self.grids or self.grids[i].size == 0:
                raise DegenerateInputError(f"curve {i} has no samples")
            g = self.grids[i]
            if abs(g[0]) > 1e-15 or abs(g[-1] - T_END) > 1e-12:
                raise DomainError("grids must include both endpoints 0 and T")
        ids = np.concatenate([np.full(self.grids[i].size, i) for i in CURVE_IDS])
        ts = np.concatenate([np.asarray(self.grids[i], dtype=float) for i in CURVE_IDS])
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "xyz", np.vstack([self.points[i] for i in CURVE_IDS]))


def sample_body(grids, shifted=False):
    """Sample the four arcs on the given per-curve grids.

    grids: dict curve_id -> array of parameters (must include 0 and T), or a
    single array used for every curve. shifted=True produces C' samples,
    computed exactly as 2 * (C sample) + SHIFT.
    """
    if not isinstance(grids, dict):
        grids = {i: np.asarray(grids, dtype=float) for i in CURVE_IDS}
    pts = {}
    for i in CURVE_IDS:
        p = curve_points(i, grids[i])
        pts[i] = 2.0 * p + SHIFT if shifted else p
    return BodySamples(grids=grids, points=pts, shifted=shifted)


def homogenize(body):
    """Cone over the scaled body: generators (1, x) for each sample x of C'.

    Refuses raw-C samples; the 4D cone is defined over C' only.
    """
    if not isinstance(body, BodySamples):
        raise DegenerateInputError("homogenize expects BodySamples")
    if not body.shifted:
        raise DomainError("homogenize requires the shifted body C', not raw C")
    pts = body.xyz
    gens = np.hstack([np.ones((len(pts), 1)), pts])
    return ConeModel(
        generators=gens,
        provenance=f"cone over C' samples ({len(pts)} generators)",
        labels=(body.ids, body.ts),
    )


@dataclass(frozen=True)
class WitnessPair:
    """The fixed 4D witness: q is in the closure of (polar cone + F_perp)
    but not in the sum itself; u spans F_perp for the flat face F."""

    q: np.ndarray
    u: np.ndarray


def witness():
    """Return the fixed witness constants, guarded against typos."""
    q = np.array([-1.0, 0.0, -1.0, 2.0])
    u = np.array([1.0, 0.0, 0.0, -2.0])
    if float(q @ u) != -5.0:
        raise AssertionError("witness constants corrupted")
    return WitnessPair(q=q, u=u)
