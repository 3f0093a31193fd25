"""Face catalogue of the four-arc body with exposing pairs. Every listed
face is checked exposed; that C has no other face is claimed, and no test
checks it yet.

Face kinds and their generators:

    F00          the common arc endpoint (origin)            dim 0
    F01..F04     singletons {curve_i(t)}, t in (0, T]        dim 0
    F11(theta)   segment [curve1(theta), curve3(partner)]    dim 1
    F12(theta)   segment [curve4(theta), curve2(partner)]    dim 1
    F13/F14/F15  endpoint chords [p1,p2], [p3,p4], [p2,p3]   dim 1
    F21/F22      endpoint triangles p1p2p3, p2p3p4           dim 2
    F23/F24      the two planar sides co{curves 1,2 / 3,4}   dim 2

build_catalogue makes the catalogue in one pass, as a Catalogue of arrays
with one row per face. Every face has a closed-form exposing pair: the
singletons and the rulings take theirs from two array evaluations of the
ruling machinery, the fixed faces (origin, endpoint chords, endpoint
triangles and planar sides) from one table. Generators are (curve, t)
labels: verify_catalogue reads them, and only the atlas computes points.

verify_catalogue checks each pair over the whole arcs of C, with no
samples, and returns its verdicts as arrays (Exposure), one row per face.
On curve i, <y, x(t)> = A_i sin t + B_i (cos t - 1) (construction's
arc_coefficients and arc_value, the closed form the sweep reads too), and
the points at parameter distance >= delta from a face are at most two
intervals of each curve, so every margin is the maximum of a sinusoid over a
few intervals, reached at an end or at t* = atan2(A_i, B_i) (arc_max),
taken once per catalogue (arc_peak). The faces of the cone K over C' need
no second check: lift_pairs(y, d) takes the value 2(<y, x> - d) on
the generator lift_points(x), so it exposes the cone over the face that
(y, d) exposes (an identity proven in tests/test_certificate.py).
"""

import math
from typing import NamedTuple

import numpy as np

from .construction import (
    CURVE_IDS,
    T_END,
    arc_coefficients,
    arc_max,
    arc_peak,
    arc_sines,
    arc_value,
    curve_points,
    ruling_data,
    theta_for_partner,
)
from .linalg import DegenerateInputError, DomainError, gamma

# How every exposing pair is obtained; the face atlas records it per face.
CLOSED_FORM = "closed-form"

# Parameter-distance radii at which off-face margins are reported.
MARGIN_DELTAS = (0.01, 0.05, 0.1)

# Roundings in the error bound of a closed-form margin (verify_catalogue).
MARGIN_ROUNDINGS = 10

# The largest theta grid T/N, ..., T that floats resolve: as theta -> 0 the
# F02/F03 margin at radius delta is ~theta^2 delta^2 / 2, and their rounding
# bound tends to 4 gamma(MARGIN_ROUNDINGS) (d -> 0, |A| + 2|B| -> 4), so at
# the smallest radius theta = T/N must exceed sqrt(8 gamma) / delta.
MAX_THETA_GRID = math.floor(T_END * min(MARGIN_DELTAS) / math.sqrt(8.0 * gamma(MARGIN_ROUNDINGS)))

_A = 1.0 / math.sqrt(2.0)

# Fixed faces in catalogue order (F00 first, the others last): kind ->
# (unnormalised normal y, offset d of y/|y|, generators as (curve, t) pairs,
# curves wholly contained in the face). On the four arcs, with s = sin t,
# c = cos t and t in [0, T]:
#   F00: curves 1, 4 give (c - 1)/sqrt2 and curves 2, 3 give -s/sqrt2, < 0 for t > 0.
#   F13: curves 1, 2 give (1 + s - c)/sqrt3 <= d, equal only at t = T;
#        curves 3, 4 give (c - 1 - s)/sqrt3 <= 0.
#   F14: F13 with curves 1, 2 and 3, 4 swapped.
#   F15: curves 2, 3 give s/sqrt2 <= 1/2, equal only at t = T;
#        curves 1, 4 give (1 - c)/sqrt2 <= 0.21.
#   F21: with a = 1/sqrt2, <y, x> - a is a(s - c) <= 0 on curves 1, 2, equal
#        only at t = T; (2 - a)s + ac - 2a on curve 3, increasing, so <= 0 and
#        equal only at t = T; on curve 4 (2 - a)(1 - c) - as - a, convex in t
#        with endpoint values -a and 2 - 4a, so <= -a.
#   F22: the mirror (x1, x2, x3) -> (x3, -x2, x1) of F21, which swaps curves
#        1, 4 and 2, 3; both are normalised by the same |y|.
#   F23: curves 1, 2 give 0; curves 3, 4 give -s and c - 1, < 0 for t > 0.
#   F24: curves 3, 4 give 0; curves 1, 2 give c - 1 and -s, < 0 for t > 0.
# Each pair is proven exactly in tests/test_faces.py::test_origin_pair_and_closed_form_both_expose.
# A planar side's generators are t = 0, T/2 and T on each of its curves.
_SIDE = (0.0, T_END / 2, T_END)
_FIXED = {
    "F00": ((1.0, 0.0, 1.0), 0.0, tuple((i, 0.0) for i in CURVE_IDS), ()),
    "F13": ((1.0, -1.0, -1.0), 1.0 / math.sqrt(3.0), ((1, T_END), (2, T_END)), ()),
    "F14": ((-1.0, 1.0, 1.0), 1.0 / math.sqrt(3.0), ((3, T_END), (4, T_END)), ()),
    "F15": ((-1.0, 0.0, -1.0), 0.5, ((2, T_END), (3, T_END)), ()),
    "F21": ((_A - 2.0, -_A, -_A), _A / math.hypot(_A - 2.0, _A, _A),
            ((1, T_END), (2, T_END), (3, T_END)), ()),
    "F22": ((-_A, _A, _A - 2.0), _A / math.hypot(_A - 2.0, _A, _A),
            ((2, T_END), (3, T_END), (4, T_END)), ()),
    "F23": ((1.0, 0.0, 0.0), 0.0, tuple((i, t) for i in (1, 2) for t in _SIDE), (1, 2)),
    "F24": ((0.0, 0.0, 1.0), 0.0, tuple((i, t) for i in (3, 4) for t in _SIDE), (3, 4)),
}


class Catalogue(NamedTuple):
    """The face catalogue as arrays, one row per face in catalogue order:
    kind, parameter and partner (nan where the kind has none), the curves
    wholly contained in the face (a (faces, 4) mask), and the exposing pair
    (y, d). The generators of all faces are stacked face by face, `sizes` of
    them per face, as (curve, t) labels; a face that holds no whole curve is
    anchored at its generators."""

    kinds: list
    params: np.ndarray
    partners: np.ndarray
    full: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    gen_ids: np.ndarray
    gen_ts: np.ndarray


class Exposure(NamedTuple):
    """Verdicts of verify_catalogue, one row per face: largest on-face
    residual, margin at each radius (one column per delta), the rounding
    bound that the residual must not exceed and every margin must, and
    whether the face passes."""

    residuals: np.ndarray
    margins: np.ndarray
    bounds: np.ndarray
    passed: np.ndarray


def generator_points(ids, ts):
    """The points of the generators (ids[k], ts[k]), one per row, from one
    curve_points call per curve, which checks the parameters; each point
    has the bits of curve_points on its parameter alone."""
    points = np.empty((len(ts), 3))
    for i in CURVE_IDS:
        points[ids == i] = curve_points(i, ts[ids == i])
    return points


def _fixed_face(kind):
    """The block of one fixed face (see build_catalogue)."""
    y, d, generators, curves = _FIXED[kind]
    ids, ts = zip(*generators)
    return ([kind], [math.nan], [math.nan], [[i in curves for i in CURVE_IDS]],
            [np.array(y) / math.hypot(*y)], [d], np.array([ids]), np.array([ts]))


def build_catalogue(theta_grid):
    """The whole catalogue over the given parameter grid, which carries both
    the singleton parameters and the ruling parameters, built kind by kind
    from arrays: the rulings are one evaluation of ruling_data on the grid
    (F11, F12) and one on its theta_for_partner image (F02, F03 at the grid
    parameters).

    Count: 1 + 4*|theta_grid| + 2*|theta_grid| + 3 + 4.
    """
    th = np.asarray(theta_grid, dtype=float)
    if th.size == 0:
        raise DegenerateInputError("theta grid is empty")
    n = th.size
    ruled = ruling_data(th)
    back = ruling_data(theta_for_partner(th))
    s, c, one, nan = np.sin(th), np.cos(th), np.ones(n), np.full(n, math.nan)
    singles = (  # the pairs of F01..F04
        (np.column_stack([one, -s, c]), 1.0 - c),
        (back.mirror_normal + [1.0, 0.0, 0.0], back.offset),
        (back.normal + [0.0, 0.0, 1.0], back.offset),
        (np.column_stack([c, s, one]), 1.0 - c),
    )
    # One block per kind, F11 and F12 interleaved in one: kinds, params,
    # partners, full curves, normals, offsets, and the generators' curves
    # and parameters, each with one row per face.
    blocks = [_fixed_face("F00")]
    blocks += [([f"F0{i}"] * n, th, nan, np.zeros((n, 4), bool), y, d, np.full((n, 1), i),
                th[:, None]) for i, (y, d) in zip(CURVE_IDS, singles)]
    blocks.append((["F11", "F12"] * n, np.repeat(th, 2), np.repeat(ruled.t, 2),
                   np.zeros((2 * n, 4), bool),
                   np.stack([ruled.normal, ruled.mirror_normal], axis=1).reshape(-1, 3),
                   np.repeat(ruled.offset, 2), np.tile([[1, 3], [4, 2]], (n, 1)),
                   np.repeat(np.column_stack([th, ruled.t]), 2, axis=0)))
    blocks += [_fixed_face(kind) for kind in list(_FIXED)[1:]]
    kinds, params, partners, full, normals, offsets, ids, ts = zip(*blocks)
    return Catalogue(
        kinds=[kind for block in kinds for kind in block],
        params=np.concatenate(params),
        partners=np.concatenate(partners),
        full=np.concatenate(full),
        normals=np.concatenate(normals),
        offsets=np.concatenate(offsets),
        sizes=np.concatenate([np.full(len(a), a.shape[1]) for a in ids]),
        gen_ids=np.concatenate([a.ravel() for a in ids]),
        gen_ts=np.concatenate([a.ravel() for a in ts]),
    )


def face_label(catalogue, j):
    """The kind of face j, with its parameter where it has one."""
    kind, param = catalogue.kinds[j], catalogue.params[j]
    return kind if math.isnan(param) else f"{kind}({param:.6f})"


def _distance_table(catalogue):
    """Per curve and face, (4, faces) so that numpy reduces over the curves
    row by row: the anchor parameter (inf where the face has none) and the
    reach through the common endpoint (the smallest anchor parameter; 0 for
    a planar side, -inf on the curves wholly contained in the face). The
    point of curve c at t lies at parameter distance min(|t - anchor|,
    t + reach) from the face, where -inf means on it. The anchors of a face
    are its generators, unless it holds whole curves."""
    n, full = len(catalogue.sizes), catalogue.full
    face = np.repeat(np.arange(n), catalogue.sizes)
    anchored = ~full.any(axis=1)[face]
    face, curve = face[anchored], catalogue.gen_ids[anchored] - 1
    twice = np.flatnonzero(np.bincount(4 * face + curve, minlength=4 * n) > 1)
    if twice.size:
        j, c = divmod(int(twice[0]), 4)
        raise DomainError(f"face {face_label(catalogue, j)} has two anchors on curve {c + 1}")
    anchor_t = np.full((len(CURVE_IDS), n), math.inf)
    anchor_t[curve, face] = catalogue.gen_ts[anchored]
    reach = np.where(full.T, -math.inf, np.where(full.any(axis=1), 0.0, math.inf))
    return anchor_t, np.minimum(reach, anchor_t.min(axis=0))


def _far_intervals(anchor, reach, delta):
    """(lo, hi), each (2, 4, faces): the points of each curve at parameter
    distance >= delta from each face (see _distance_table), which are
    [max(0, delta - reach), T] less the band (anchor - delta, anchor + delta),
    as the part below the band and the part above it; empty where lo > hi."""
    lo = np.maximum(delta - reach, 0.0)
    return (np.stack([lo, np.maximum(lo, anchor + delta)]),
            np.stack([np.minimum(anchor - delta, T_END), np.full_like(lo, T_END)]))


def verify_catalogue(catalogue, deltas=MARGIN_DELTAS):
    """Exposure of every face of a catalogue over the whole arcs of C, in
    closed form (see arc_max); every linear functional attains its maximum
    over C on the arcs.

    The margin at radius delta is the smallest slack d - <y, x> over the
    points at parameter distance >= delta from the face (_far_intervals).
    The on-face residual is the largest |d - <y, x>| at the face's
    generators, each taken by arc_value at its (curve, t) label, and, on
    the curves the face holds whole, over those curves. A convex
    combination of the generators takes a value between theirs, so they
    bound the residual of the whole face.

    Residual and margins are one computed quantity, d - arc_value(A, B, t),
    at points on the face and far from it. Its rounding error is at most
    gamma(MARGIN_ROUNDINGS) * (|d| + max over curves of |A| + 2|B|)
    (Higham, section 3.1): A and B are exact, the longest path
    d - (a sin t - 2b sin(t/2) sin(t/2)) has four roundings, each of its two
    libm sine factors counts one ulp (2u), and two roundings to spare cover
    evaluating the bound itself; 4 + 2*2 + 2 = 10. A face passes when its
    residual is at most that bound, so its generators lie on the hyperplane
    to the resolution of the check, and its margin at every radius exceeds
    it, so the far points lie strictly inside. A pair with a zero or
    non-finite normal or a non-finite offset raises DegenerateInputError.
    """
    if min(deltas) <= 0.0:
        raise DomainError("margin radii must be positive")
    normals, d = catalogue.normals, catalogue.offsets
    if not (normals.any(axis=1).all() and np.isfinite(normals).all() and np.isfinite(d).all()):
        raise DegenerateInputError("exposing pair must be finite, with a nonzero normal")
    a, b = (np.ascontiguousarray(c.T) for c in arc_coefficients(normals))  # as _distance_table
    anchor, reach = _distance_table(catalogue)
    peak = arc_peak(a, b)  # serves every interval
    margins = np.empty((len(d), len(deltas)))
    for k, delta in enumerate(deltas):
        far = arc_max(a, b, *_far_intervals(anchor, reach, delta), peak)
        margins[:, k] = d - far.max(axis=(0, 1))
    face, curve = np.repeat(np.arange(len(d)), catalogue.sizes), catalogue.gen_ids - 1
    onface = np.abs(d[face] - arc_value(a[curve, face], b[curve, face],
                                        arc_sines(catalogue.gen_ts)))
    residuals = np.maximum.reduceat(onface, np.cumsum(catalogue.sizes) - catalogue.sizes)
    # on each curve that a face holds whole: the largest value and minus the least
    i, j, sign = *np.nonzero(catalogue.full.T), np.array([[1.0], [-1.0]])
    top, low = arc_max(sign * a[i, j], sign * b[i, j], 0.0, T_END)
    np.maximum.at(residuals, j, np.maximum(top - d[j], d[j] + low))
    scale = np.abs(d) + (np.abs(a) + 2.0 * np.abs(b)).max(axis=0)
    bounds = gamma(MARGIN_ROUNDINGS) * scale
    return Exposure(residuals, margins, bounds,
                    (residuals <= bounds) & (margins > bounds[:, None]).all(axis=1))
