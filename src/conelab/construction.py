"""Closed forms for the four-arc body C, and the one map from C up to the
4D cone K.

The body C is the convex hull of four unit-circle arcs meeting at the
origin, parametrized on [0, T] with T = pi/4 (curve_points samples them):

    curve 1: (0, -sin t, cos t - 1)        curve 2: (0, cos t - 1, -sin t)
    curve 3: (-sin t, 1 - cos t, 0)        curve 4: (cos t - 1, sin t, 0)

On curve i a functional takes <y, x(t)> = A_i sin t + B_i (cos t - 1);
arc_picks, arc_sines, arc_value and arc_max are that closed form, read by
the face check on arrays and by the sweep on Python floats (math.sin and
math.atan2, no numpy call); the sines of one parameter serve every (A, B).

C' = 2C + SHIFT with SHIFT = (1/2, 0, 1/2), and K = cone({1} x C'). This
module is the only one that applies the map: lift_points takes points x of
C to the rows (1, 2x + SHIFT) of K, scale_points gives the points
2x + SHIFT of C', and lift_pairs is the dual, taking an exposing pair
(y, d) of a face of C to the functional (-(2d + <y, SHIFT>), y) of K.
Exactly, <lift_pairs(y, d), lift_points(x)> = 2(<y, x> - d), so a pair
exposing a face of C lifts to one exposing the cone over it (proven
exactly in tests/test_certificate.py), and (-1, 0, 0, 0) exposes the apex.
The witnesses q and u are the lifts of (y, 0) with y = WITNESS_Q[1:] and
WITNESS_U[1:], so they take 2<y, x> too.
The theta-machinery pairs a parameter theta on curve 1 (resp. 4) with a
partner parameter on curve 3 (resp. 2); the segments between paired points
rule the curved part of the boundary of C and carry closed-form exposing
normals. It takes a scalar or a whole array of parameters, so the face
catalogue gets all its rulings from one array evaluation per parameter set.
"""

import math
from typing import NamedTuple

import numpy as np

from .linalg import DegenerateInputError, DomainError, check_size

T_END = math.pi / 4
CURVE_IDS = (1, 2, 3, 4)

# Translation applied after doubling: C' = 2C + SHIFT.
SHIFT = np.array([0.5, 0.0, 0.5])


def check_param(t, name="t", open_lo=False):
    """t, a scalar or an array, as a float array; DomainError for a value
    outside [0, T] (or at 0 when open_lo). The domain is exact: every grid
    of the package holds 0 and T_END themselves."""
    t = np.asarray(t, dtype=float)
    # written so that NaN, which fails every comparison, is rejected too
    inside = (0.0 <= t) & (t <= T_END) & ~(open_lo & (t <= 0.0))
    if not inside.all():
        bad = t[~inside] if t.ndim else t
        raise DomainError(f"{name}={bad} outside {'(' if open_lo else '['}0.0, {T_END}]")
    return t


# Each arc's coordinate columns from s = sin t and c = cos t; 0.0 is a zero column.
_ARC_COLUMNS = {
    1: lambda s, c: (0.0, -s, c - 1.0),
    2: lambda s, c: (0.0, c - 1.0, -s),
    3: lambda s, c: (-s, 1.0 - c, 0.0),
    4: lambda s, c: (c - 1.0, s, 0.0),
}


def check_grid(grid):
    """grid's parameters as a tuple of floats, non-decreasing from exactly 0
    to exactly T (so NaN fails): a sample of every arc with both its ends."""
    grid = tuple(map(float, grid))
    if not grid:
        raise DegenerateInputError("grid has no samples")
    if not (grid[0] == 0.0 and grid[-1] == T_END):
        raise DomainError(f"grid must start at 0 and end at T = {T_END}")
    if not all(a <= b for a, b in zip(grid, grid[1:])):
        raise DomainError("grid must be non-decreasing")
    return grid


def curve_points(curve_id, ts):
    """Vectorized arc evaluation; ts may be a scalar or an array in [0, T]."""
    if curve_id not in _ARC_COLUMNS:
        raise DomainError(f"curve id {curve_id} not in {CURVE_IDS}")
    ts = check_param(ts)
    points = np.empty(ts.shape + (3,))
    for k, col in enumerate(_ARC_COLUMNS[curve_id](np.sin(ts), np.cos(ts))):
        points[..., k] = col
    return points


def arc_picks(y):
    """(A, B), one entry per curve, of the functional y (entries floats or
    arrays): on curve i, <y, x(t)> = A sin t + B (cos t - 1), with A and B
    <y, col_i> at the arc's columns (_ARC_COLUMNS) at (sin t, cos t) = (1, 1)
    and (0, 2). Each column holds one entry +-1, so A and B are signed picks
    of y, exact, with no matrix product (the first BLAS call of a process
    costs ~0.3 MB of peak memory); the leading 0.0 + makes every zero +0.0,
    as the product's sum does."""
    return tuple([sum((a * y[k] for k, a in enumerate(_ARC_COLUMNS[i](s, c)) if a), 0.0)
                  for i in CURVE_IDS] for s, c in ((1.0, 1.0), (0.0, 2.0)))


def arc_coefficients(normals):
    """arc_picks of every normal, (A, B) each of shape normals.shape[:-1] + (4,)."""
    y = np.moveaxis(np.asarray(normals, dtype=float), -1, 0)
    return tuple(np.stack(p, axis=-1) for p in arc_picks(y))


def arc_sines(t):
    """(sin t, sin(t/2)) of t moved into [0, T], the two sines arc_value
    reads; taken once, they serve every (A, B) on the same parameters. The
    clip keeps the infinite ends of empty intervals from taking a sine."""
    if type(t) is float:
        t = min(max(t, 0.0), T_END)
        return math.sin(t), math.sin(t / 2.0)
    t = np.clip(t, 0.0, T_END)
    return np.sin(t), np.sin(t / 2.0)


def arc_value(a, b, sines):
    """a sin t - 2b sin^2(t/2), which is a sin t + b (cos t - 1) without the
    cancellation of cos t - 1, from sines = arc_sines(t); a, b and the sines
    broadcast."""
    s, half = sines
    return a * s - 2.0 * b * half * half


def arc_peak(a, b):
    """(t*, arc_value at t*), t* = atan2(a, b): on the line, R cos(t - t*) - b."""
    t = math.atan2(a, b) if type(a) is float else np.arctan2(a, b)
    return t, arc_value(a, b, arc_sines(t))


def arc_max(a, b, lo, hi, peak=None):
    """Largest arc_value over [lo, hi] within [0, T] (-inf where lo > hi; all
    broadcast): at an end, or at t* (peak, else arc_peak) if t* is inside."""
    t, value = arc_peak(a, b) if peak is None else peak
    ends = arc_value(a, b, arc_sines(lo)), arc_value(a, b, arc_sines(hi))
    if type(value) is float:
        return max(*ends, value if lo <= t <= hi else -math.inf) if lo <= hi else -math.inf
    inside = np.where((lo <= t) & (t <= hi), value, -math.inf)
    return np.where(lo <= hi, np.maximum(np.maximum(*ends), inside), -math.inf)


def _per_element(fn, *args):
    """fn, a math function of floats, applied element by element to arrays
    of one shape. The math module's acos and atan2 are kept because numpy's
    arccos and arctan2 round some values differently, which would move the
    partners and the report bytes."""
    values = [fn(*v) for v in zip(*(np.ravel(a).tolist() for a in args))]
    return np.reshape(values, np.shape(args[0]))


def partner_cos(theta):
    """sin(theta) / (1 + sin(theta) - cos(theta)); the cosine of the partner
    parameter. Strictly decreasing on (0, T] from 1 down to 1/sqrt(2).
    theta may be a scalar or an array, as in the functions below.

    Evaluated via the equivalent half-angle form
    cos(theta/2) / (cos(theta/2) + sin(theta/2)), which has no cancellation
    as theta -> 0 (the direct form loses ~16/|log10 theta| digits there).
    """
    theta = check_param(theta, name="theta", open_lo=True)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return c / (c + s)


def theta_for_partner(t):
    """Inverse of the partner map theta -> ruling_data(theta).t in closed form.

    Solves cos(t) = sin(theta)/(1 + sin(theta) - cos(theta)) for theta;
    the nontrivial root of the induced A sin + B cos = B equation. Below
    t = 1.825e-8, where cos t rounds to 1 or to the float just below it, that
    root rounds to 0, outside the domain of theta, so such t is refused.
    """
    t = check_param(t, open_lo=True)
    c = np.cos(t)
    theta = math.pi - 2.0 * _per_element(math.atan2, c, 1.0 - c)
    if not (theta > 0.0).all():
        bad = t[theta <= 0.0] if t.ndim else t
        raise DomainError(f"t={bad} too small: cos t is within an ulp of 1, so theta rounds to 0")
    return theta


class RulingData(NamedTuple):
    """Rulings of the curved boundary, one per parameter theta on curve 1/4:
    the partner t on curve 3/2, the exposing normal of the curve-1/3
    segment, the mirrored normal of the curve-4/2 segment, and the shared
    offset. Each field has the shape of theta, the normals one more axis of
    length 3."""

    theta: np.ndarray
    t: np.ndarray
    normal: np.ndarray
    mirror_normal: np.ndarray
    offset: np.ndarray


def ruling_data(theta):
    """The closed-form ruling quantities for theta in (0, T], a scalar or an
    array, in one array evaluation; partner_cos runs once. The partner
    t = arccos(partner_cos(theta)) increases strictly with theta, in (0, T]
    and exactly T at theta = T."""
    theta = check_param(theta, name="theta", open_lo=True)
    ct = partner_cos(theta)
    # below theta ~ 2e-16, c + s rounds to c and ct to 1: no partner then
    if not (ct < 1.0).all():
        bad = theta[ct >= 1.0] if theta.ndim else theta
        raise DomainError(f"theta={bad} too small: its partner cosine rounds to 1, "
                          "so it has no partner")
    # arccos rounds to T + 1.1e-16 at theta = T: clamped, t stays a curve parameter
    t = np.minimum(_per_element(math.acos, ct), T_END)
    st, sth, cth = np.sin(t), np.sin(theta), np.cos(theta)
    normal = np.stack([-st * sth, -ct * sth, ct * cth], axis=-1)
    mirror = np.stack([ct * cth, sth * ct, -st * sth], axis=-1)
    return RulingData(theta, t, normal, mirror, ct * (1.0 - cth))


def curve_grid(n):
    """Uniform n-point grid on [0, T]."""
    return np.linspace(0.0, T_END, check_size(n, 2, "grid size"))


def theta_grid(n):
    """Uniform n-point grid on (0, T]; smallest value T/n."""
    n = check_size(n, 1, "theta grid size")
    return np.linspace(T_END / n, T_END, n)


def lift_points(x):
    """C points, one per row or a single point, to the rows (1, 2x + SHIFT)
    of the cone K over C'; SHIFT[k] is added even where 0, so -0.0 lifts to
    +0.0."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.column_stack([np.ones(len(x)), 2.0 * x + SHIFT])


def scale_points(x):
    """C points, one per row, to C' points 2x + SHIFT: the last three
    columns of their lifts."""
    return lift_points(x)[:, 1:]


def lift_pairs(normals, offsets):
    """Exposing pairs (y, d) of faces of C, one row each, to the functionals
    (-(2d + <y, SHIFT>), y) of K: zero on the lifted face, negative on the
    other generators (1, 2x + SHIFT), where they take the value
    2(<y, x> - d)."""
    normals, offsets = np.asarray(normals, dtype=float), np.asarray(offsets, dtype=float)
    return np.column_stack([-(2.0 * offsets + normals @ SHIFT), normals])


# The fixed 4D witness: WITNESS_Q is in the closure of (polar cone + F_perp)
# but not in the sum itself; WITNESS_U spans F_perp for the flat face F.
WITNESS_Q = np.array([-1.0, 0.0, -1.0, 2.0])
WITNESS_U = np.array([1.0, 0.0, 0.0, -2.0])
