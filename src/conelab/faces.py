"""Complete face catalogue of the four-arc body with exposing pairs.

Face kinds and their generators:

    F00          the common arc endpoint (origin)            dim 0
    F01..F04     singletons {curve_i(t)}, t in (0, T]        dim 0
    F11(theta)   segment [curve1(theta), curve3(partner)]    dim 1
    F12(theta)   segment [curve4(theta), curve2(partner)]    dim 1
    F13/F14/F15  endpoint chords [p1,p2], [p3,p4], [p2,p3]   dim 1
    F21/F22      endpoint triangles p1p2p3, p2p3p4           dim 2
    F23/F24      the two planar sides co{curves 1,2 / 3,4}   dim 2

Every face has a closed-form exposing pair: the singletons and the rulings
take theirs from the ruling machinery, the fixed faces (origin, endpoint
chords, endpoint triangles and planar sides) from one table. The generator
points of a face, as (curve, t) pairs, come from face_generators alone: the
atlas lists them and the exposure kernel takes its residual at them. One
exposure kernel, verify_catalogue, checks each pair on samples of C. The
faces of the cone K over C' need no second check: lift_pairs(y, d) takes
the value 2(<y, x> - d) on the generator lift_points(x), so it exposes the
cone over the face that (y, d) exposes (reporting.homogenization_section).
The samples of each curve are sorted by parameter, so the samples on a face
and those at distance >= delta from it are index ranges of each curve,
found once; the kernel reduces each pair's values over those ranges.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .construction import (
    CURVE_IDS,
    T_END,
    curve_points,
    partner_param,
    ruling_data,
    theta_for_partner,
)
from .linalg import EQ_ABS, DegenerateInputError, DimensionMismatchError, DomainError

# How every exposing pair is obtained; the face atlas records it per face.
CLOSED_FORM = "closed-form"

# Parameter-distance radii at which off-face margins are reported.
MARGIN_DELTAS = (0.01, 0.05, 0.1)

# Samples at parameter distance at most this from a face lie on it.
ONFACE_DIST = 1e-9

# (face, sample) values per block of the exposure kernel, written into one
# 256 KB float64 buffer reused by every block, so the kernel's memory stays
# flat as the catalogue and the samples grow (the whole faces x samples
# matrix at 2048/256 would be ~120 MB).
BLOCK_ELEMENTS = 1 << 15

_A = 1.0 / math.sqrt(2.0)

# Fixed faces: kind -> (unnormalised normal y, offset d of y/|y|). On the
# four arcs, with s = sin t, c = cos t and t in [0, T]:
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
_FIXED_PAIRS = {
    "F00": ((1.0, 0.0, 1.0), 0.0),
    "F13": ((1.0, -1.0, -1.0), 1.0 / math.sqrt(3.0)),
    "F14": ((-1.0, 1.0, 1.0), 1.0 / math.sqrt(3.0)),
    "F15": ((-1.0, 0.0, -1.0), 0.5),
    "F21": ((_A - 2.0, -_A, -_A), _A / math.hypot(_A - 2.0, _A, _A)),
    "F22": ((-_A, _A, _A - 2.0), _A / math.hypot(_A - 2.0, _A, _A)),
    "F23": ((1.0, 0.0, 0.0), 0.0),
    "F24": ((0.0, 0.0, 1.0), 0.0),
}

# Endpoint-anchored faces: kind -> (endpoint indices, dimension).
_FIXED_FACES = {
    "F13": ((1, 2), 1),
    "F14": ((3, 4), 1),
    "F15": ((2, 3), 1),
    "F21": ((1, 2, 3), 2),
    "F22": ((2, 3, 4), 2),
}


class FaceDescriptor(NamedTuple):
    kind: str
    dimension: int
    param: float | None = None       # t for F0i, theta for F11/F12
    partner: float | None = None     # partner parameter for F11/F12
    anchors: tuple = ()              # ((curve_id, t), ...) pinning the face
    full_curves: tuple = ()          # curves wholly contained in the face

    def label(self):
        if self.param is None:
            return self.kind
        return f"{self.kind}({self.param:.6f})"


class ExposingPair(NamedTuple):  # verify_catalogue checks the normals
    normal: np.ndarray
    offset: float


class ExposureReport(NamedTuple):  # one per face: cheap to build
    face_label: str
    max_onface_residual: float
    margins: dict            # delta -> smallest measured margin at that radius
    onface_count: int
    verdict: str             # "pass" | "fail"

    @property
    def passed(self):
        return self.verdict == "pass"


def _ruling(theta, rulings):
    """ruling_data(theta), kept in the rulings dict (when one is given) so
    that each theta is computed once."""
    if rulings is None:
        return ruling_data(theta)
    if theta not in rulings:
        rulings[theta] = ruling_data(theta)
    return rulings[theta]


def singleton_pair(curve_id, t, rulings=None):
    """Closed-form exposing pair for the singleton face {curve_i(t)};
    rulings: optional theta -> RulingData dict shared between calls."""
    if curve_id == 1:
        return ExposingPair(np.array([1.0, -math.sin(t), math.cos(t)]), 1.0 - math.cos(t))
    if curve_id == 4:
        return ExposingPair(np.array([math.cos(t), math.sin(t), 1.0]), 1.0 - math.cos(t))
    r = _ruling(theta_for_partner(t), rulings)
    if curve_id == 3:
        return ExposingPair(r.normal + np.array([0.0, 0.0, 1.0]), r.offset)
    if curve_id == 2:
        return ExposingPair(r.mirror_normal + np.array([1.0, 0.0, 0.0]), r.offset)
    raise DomainError(f"curve id {curve_id} not in {CURVE_IDS}")


def enumerate_faces(theta_grid):
    """Materialize the full catalogue over the given parameter grid, which
    carries both the singleton parameters and the ruling parameters.

    Count: 1 + 4*|theta_grid| + 2*|theta_grid| + 3 + 4.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size == 0:
        raise DegenerateInputError("theta grid is empty")
    # min and max propagate NaN, which then fails both comparisons
    if not (theta_grid.min() > 0 and theta_grid.max() <= T_END + 1e-15):
        raise DomainError("theta grid must be finite and lie in (0, T]")

    faces = [FaceDescriptor("F00", 0, anchors=tuple((i, 0.0) for i in CURVE_IDS))]
    for i in CURVE_IDS:
        faces.extend(
            FaceDescriptor(f"F0{i}", 0, param=float(t), anchors=((i, float(t)),))
            for t in theta_grid
        )
    for th in theta_grid:
        t = partner_param(th)
        faces.append(FaceDescriptor("F11", 1, param=float(th), partner=t,
                                    anchors=((1, float(th)), (3, t))))
        faces.append(FaceDescriptor("F12", 1, param=float(th), partner=t,
                                    anchors=((4, float(th)), (2, t))))
    for kind, (ends, dim) in _FIXED_FACES.items():
        faces.append(FaceDescriptor(kind, dim, anchors=tuple((i, T_END) for i in ends)))
    faces.append(FaceDescriptor("F23", 2, full_curves=(1, 2)))
    faces.append(FaceDescriptor("F24", 2, full_curves=(3, 4)))
    return faces


def face_generators(face):
    """The generator points of the face as (curve, t) pairs: its anchors,
    or t = 0, T/2 and T on each curve wholly contained in a planar side."""
    if face.full_curves:
        return [(i, t) for i in face.full_curves for t in (0.0, T_END / 2, T_END)]
    return list(face.anchors)


def face_generator_points(faces):
    """The points of face_generators, one (k, 3) array per face, from one
    curve_points call per curve on parameters clamped to [0, T] as
    curve_point clamps them, so each point has the bits of curve_point."""
    points = []
    slots = {i: ([], []) for i in CURVE_IDS}  # curve -> [(face, row)], [t]
    for j, face in enumerate(faces):
        generators = face_generators(face)
        points.append(np.empty((len(generators), 3)))
        for k, (i, t) in enumerate(generators):
            slots[i][0].append((j, k))
            slots[i][1].append(t)
    for i, (where, ts) in slots.items():
        ts = np.array(ts)
        clamped = np.clip(ts, 0.0, T_END)
        if ts.size and np.abs(ts - clamped).max() > 1e-15:
            raise DomainError(f"anchor parameter on curve {i} outside [0, {T_END}]")
        for (j, k), p in zip(where, curve_points(i, clamped)):
            points[j][k] = p
    return points


def _anchor_residuals(faces, normals, offsets):
    """Largest |<y, p> - d| over the generator points p of each face and
    their centroid. The faces with the same number of generators share one
    stacked product, with the bits of the per-face product. Raises
    DomainError for the first face whose pair misses its generators by
    more than 1e-3.
    """
    points = face_generator_points(faces)
    anchor_res = np.empty(len(faces))
    res = np.empty(len(faces))
    for size in {len(p) for p in points}:
        rows = [j for j, p in enumerate(points) if len(p) == size]
        pts = np.stack([points[j] for j in rows])
        y, d = normals[rows][:, :, None], offsets[rows]
        anchor_res[rows] = np.abs(np.matmul(pts, y)[:, :, 0] - d[:, None]).max(axis=1)
        # convex combinations of generators must reach the same hyperplane
        centroid_res = np.abs(np.matmul(pts.mean(axis=1)[:, None, :], y)[:, 0, 0] - d)
        res[rows] = np.maximum(anchor_res[rows], centroid_res)
    bad = np.flatnonzero(anchor_res > 1e-3)
    if bad.size:
        j = bad[0]
        raise DomainError(
            f"pair does not match face {faces[j].label()}: anchor residual {anchor_res[j]:.3g}"
        )
    return res


def _distance_table(faces):
    """Per face and curve: the anchor parameter (inf where the face has none)
    and the reach through the common endpoint (the smallest anchor parameter;
    0 for a planar side, -inf on the curves wholly contained in the face). A
    sample of curve c at t lies at parameter distance min(|t - anchor|,
    t + reach) from the face, where -inf means on it."""
    anchor_t = np.full((len(faces), len(CURVE_IDS)), math.inf)
    reach = np.full(anchor_t.shape, math.inf)
    for j, face in enumerate(faces):
        for i, t in face.anchors:
            if anchor_t[j, i - 1] != math.inf:
                raise DomainError(f"face {face.label()} has two anchors on curve {i}")
            anchor_t[j, i - 1] = t
        if face.full_curves:
            reach[j] = 0.0
            reach[j, [i - 1 for i in face.full_curves]] = -math.inf
    return anchor_t, np.minimum(reach, anchor_t.min(axis=1, keepdims=True))


def _curve_runs(ids, ts):
    """(start, stop, curve index) of each run of equal curve ids; one run
    per curve for samples stacked curve by curve. The parameters must not
    decrease along a run."""
    ids = np.asarray(ids)
    if not (ids[:, None] == CURVE_IDS).any(axis=1).all():
        raise DomainError(f"sample curve ids must lie in {CURVE_IDS}")
    same = ids[1:] == ids[:-1]
    # a NaN fails the comparison, or is caught alone in its run by isnan
    if not (ts[1:] >= ts[:-1])[same].all() or np.isnan(ts).any():
        raise DomainError("sample parameters must be non-decreasing along each curve run")
    cuts = np.flatnonzero(~same) + 1
    starts, stops = np.append(0, cuts), np.append(cuts, len(ids))
    return [(a, b, int(ids[a]) - 1) for a, b in zip(starts, stops)]


def _sample_ranges(faces, ids, ts, deltas):
    """Index ranges of the samples on each face (parameter distance at most
    ONFACE_DIST) and, per delta, of those at distance >= delta: shape
    (1 + len(deltas), faces, 4 * runs), two disjoint ranges (start, stop)
    per curve run, empty where stop <= start.

    Along a sorted run fl(t + reach) and fl(t - anchor) do not decrease, so
    each range end is the first sample at which one of them reaches a bound
    (x > b is x >= nextafter(b, inf) for floats). np.searchsorted finds it
    up to the rounding of bound - shift; stepping while the kernel's own
    predicate disagrees at the neighbouring sample makes it exact.
    """
    anchor_t, reach = _distance_table(faces)
    runs = _curve_runs(ids, ts)
    # distance <= ONFACE_DIST is the complement of distance >= its successor
    radii = [math.nextafter(ONFACE_DIST, math.inf), *deltas]
    # per radius: where t + reach reaches it, where t - anchor exceeds -radius
    # (enters the band around the anchor) and where it reaches the radius
    bounds = np.array([b for r in radii for b in (r, math.nextafter(-r, math.inf), r)])
    on_reach = np.arange(len(bounds)) % 3 == 0
    ends = np.empty((len(radii), len(faces), len(runs), 4), dtype=np.int32)
    for r, (lo, hi, c) in enumerate(runs):
        shift = np.where(on_reach, reach[:, c, None], -anchor_t[:, c, None])
        k = lo + np.searchsorted(ts[lo:hi], bounds - shift)
        while True:
            down = (k > lo) & (ts[np.maximum(k - 1, lo)] + shift >= bounds)
            short = (k < hi) & ~(ts[np.minimum(k, hi - 1)] + shift >= bounds)
            if not (down.any() or short.any()):
                break
            k += short.astype(int) - down
        near, enter, leave = k.reshape(len(faces), len(radii), 3).transpose(2, 1, 0)
        cols = ends[:, :, r].transpose(2, 0, 1)  # (start, stop, start, stop) x radius x face
        # at distance >= radius: past the near prefix and outside the band
        cols[0], cols[1], cols[2], cols[3] = near, enter, np.maximum(near, leave), hi
        # on the face, the complement: the near prefix and the band
        on = cols[:, 0]
        on[0], on[1], on[2], on[3] = lo, near[0], np.maximum(near[0], enter[0]), leave[0]
    return ends.reshape(len(radii), len(faces), 4 * len(runs))


def _reduce_ranges(ufunc, values, ends, empty):
    """ufunc.reduce over values[start:stop] for each range of ends (start,
    stop, start, ... along the last axis), `empty` for an empty range. Every
    end must be below len(values)."""
    out = ufunc.reduceat(values, ends.reshape(-1))[::2].reshape(*ends.shape[:-1], -1)
    out[ends[..., 1::2] <= ends[..., ::2]] = empty
    return out


def _scan(faces, ids, ts, points, normals, offsets, deltas):
    """Per face: the on-face sample count, the largest on-face |slack| and
    the smallest slack at distance >= each delta, both inf where no sample
    is in the range. The slack of face j's pair at a point x is
    offsets[j] - <normals[j], x>.

    The faces are walked in blocks of about BLOCK_ELEMENTS (face, sample)
    values, written into one buffer. The slack is monotone in the value v,
    so its extremes over a range are those of the values: the smallest
    slack is d - max v, the largest |slack| the larger of |d - max v| and
    |d - min v|.
    """
    ends = _sample_ranges(faces, ids, ts, deltas)
    counts = np.maximum(ends[0, :, 1::2] - ends[0, :, ::2], 0).sum(axis=1)
    n = len(ts)
    step = max(1, BLOCK_ELEMENTS // n)
    buf = np.zeros(min(step, len(faces)) * n + 1)  # the last entry keeps every end valid
    residuals = np.empty(len(faces))
    margins = np.empty((len(faces), len(deltas)))
    for start in range(0, len(faces), step):
        rows = slice(start, min(start + step, len(faces)))
        size = rows.stop - rows.start
        block = ends[:, rows] + n * np.arange(size)[:, None]
        values = buf[:size * n + 1]
        # one matrix-vector product per face, the bits of points @ y
        np.matmul(points, normals[rows, :, None], out=values[:-1].reshape(size, n, 1))
        top = _reduce_ranges(np.maximum, values, block, -math.inf).max(axis=2)
        low = _reduce_ranges(np.minimum, values, block[0], math.inf).min(axis=1)
        d = offsets[rows]
        margins[rows] = d[:, None] - top[1:].T
        residuals[rows] = np.maximum(np.abs(d - top[0]), np.abs(d - low))
    return counts, residuals, margins


def verify_catalogue(catalogue, body, eq_abs=EQ_ABS, deltas=MARGIN_DELTAS):
    """Exposure report of every (face, pair) row of a catalogue, checked on
    the samples of C: a face passes when its on-face residual is at most
    eq_abs and its margin (the smallest slack d - <y, x> over the samples
    at parameter distance >= delta) is positive at every radius delta.

    The samples of each curve run must be sorted by parameter, and the
    catalogue is walked in blocks of faces (see BLOCK_ELEMENTS), so the
    memory held stays flat as catalogue and samples grow.
    """
    if min(deltas) <= ONFACE_DIST:
        raise DomainError(f"margin radii must exceed the on-face distance {ONFACE_DIST}")
    faces = [face for face, _ in catalogue]
    if any(np.shape(pair.normal) != (3,) for _, pair in catalogue):
        raise DimensionMismatchError("pair normal must be 3-dimensional")
    normals = np.array([pair.normal for _, pair in catalogue]).reshape(-1, 3)
    if not normals.any(axis=1).all():
        raise DegenerateInputError("exposing normal must be nonzero")
    offsets = np.array([pair.offset for _, pair in catalogue])
    anchor_res = _anchor_residuals(faces, normals, offsets)
    counts, res, margins = _scan(faces, body.ids, body.ts, body.xyz, normals, offsets, deltas)
    max_res = np.maximum(anchor_res, np.where(counts > 0, res, 0.0))
    passed = ((max_res <= eq_abs) & (margins > 0.0).all(axis=1)).tolist()
    return [
        ExposureReport(face.label(), r, dict(zip(deltas, m)), c, "pass" if ok else "fail")
        for face, r, c, ok, *m in zip(faces, max_res.tolist(), counts.tolist(), passed,
                                      *margins.T.tolist())
    ]


def exposing_pair(face, rulings=None):
    """Closed-form exposing pair for a catalogued face: singletons and
    rulings from the ruling machinery, the fixed faces from their table.
    rulings: optional theta -> RulingData dict shared between calls.
    """
    kind = face.kind
    if kind in ("F01", "F02", "F03", "F04"):
        return singleton_pair(int(kind[2]), face.param, rulings)
    if kind in ("F11", "F12"):
        r = _ruling(face.param, rulings)
        return ExposingPair(r.normal if kind == "F11" else r.mirror_normal, r.offset)
    if kind in _FIXED_PAIRS:
        y, d = _FIXED_PAIRS[kind]
        return ExposingPair(np.array(y) / math.hypot(*y), d)
    raise DomainError(f"unknown face kind {kind}")


def identity_suite(t, theta):
    """Residuals of the six inner-product identities behind the catalogue.

    Each identity is evaluated twice, once as a numeric dot product and once
    from its trigonometric closed form, and the absolute difference is
    returned. t and theta may be scalars or arrays, t in [0, T] and theta in
    (0, T]; the residuals have shape theta.shape + t.shape. The arcs are
    evaluated on t once, and each theta's ruling_data once. All six are
    <= 1e-12 across the whole parameter square.
    """
    shape = np.shape(theta) + np.shape(t)
    t = np.asarray(t, dtype=float).reshape(-1)
    g = {i: curve_points(i, t) for i in CURVE_IDS}
    rulings = [ruling_data(th) for th in np.reshape(theta, -1)]
    y = np.array([r.normal for r in rulings])[:, :, None]
    # the scalar closed-form factors of each ruling, one row per theta
    th, tt, cos_tt, sin_th, cos_th, sin_tt = np.array([
        (r.theta, r.t, math.cos(r.t), math.sin(r.theta), math.cos(r.theta), math.sin(r.t))
        for r in rulings]).T[:, :, None]
    # one matrix-vector product per theta, the bits of points @ y
    dot = {i: np.matmul(g[i], y)[:, :, 0] for i in CURVE_IDS}
    y3 = y + np.array([0.0, 0.0, 1.0])[:, None]
    dot3 = {i: np.matmul(g[i], y3)[:, :, 0] for i in (1, 2)}
    res = {
        "curve1_vs_ruling": np.abs(dot[1] - cos_tt * (np.cos(t - th) - cos_th)),
        "curve3_vs_ruling": np.abs(dot[3] - sin_th * (np.cos(t - tt) - cos_tt)),
        "curve2_vs_ruling": np.abs(dot[2] - cos_tt * (sin_th - np.sin(t + th))),
        "curve4_vs_ruling": np.abs(dot[4] - sin_th * (sin_tt - np.sin(t + tt))),
        "curve1_vs_shifted": np.abs(dot3[1] - (dot[1] + np.cos(t) - 1.0)),
        "curve2_vs_shifted": np.abs(dot3[2] - (dot[2] - np.sin(t))),
    }
    return {k: v.reshape(shape) for k, v in res.items()}


def build_catalogue(theta_grid):
    """Faces with their exposing pairs, ready for verification."""
    faces = enumerate_faces(theta_grid)
    rulings = {}  # one ruling_data call per distinct theta
    return [(f, exposing_pair(f, rulings)) for f in faces]
