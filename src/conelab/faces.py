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
chords, endpoint triangles and planar sides) from one table. One exposure
kernel, verify_catalogue, checks each pair on samples of C and, lifted by
construction.lift_pairs, on the matching generators of the cone K over C'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .construction import (
    CURVE_IDS,
    ENDPOINTS,
    T_END,
    curve_point,
    curve_points,
    lift_pairs,
    lift_points,
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

# (face, sample) entries per block of the exposure kernel: one float64
# temporary of a block is 256 KB, so the kernel's memory stays flat as the
# catalogue and the samples grow (the whole faces x samples matrix at
# 2048/256 would be ~120 MB per temporary).
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


@dataclass(frozen=True)
class FaceDescriptor:
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


@dataclass(frozen=True)
class ExposingPair:
    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if not n.any():
            raise DegenerateInputError("exposing normal must be nonzero")
        object.__setattr__(self, "normal", n)


@dataclass(frozen=True, slots=True)  # one per face and check: keep it small
class ExposureReport:
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


def face_samples(face):
    """Labelled generator samples (curve, t, point) of the face (anchor
    parameters); planar sides additionally expose which whole curves they
    contain."""
    anchors = list(face.anchors)
    if face.full_curves:
        anchors = [(i, t) for i in face.full_curves for t in (0.0, T_END / 2, T_END)]
    return [(i, float(t), curve_point(i, t)) for i, t in anchors]


def face_points(face):
    """Representative points of the face: generators, plus curve midpoints
    for the planar sides (whose generator set is a whole pair of arcs)."""
    if face.full_curves:
        pts = [ENDPOINTS[0]]
        for i in face.full_curves:
            pts.append(curve_point(i, T_END / 2))
            pts.append(curve_point(i, T_END))
        return np.vstack(pts)
    if face.kind == "F00":
        return ENDPOINTS[0][None, :]
    if face.kind in _FIXED_FACES:
        return np.vstack([ENDPOINTS[i] for i in _FIXED_FACES[face.kind][0]])
    return np.vstack([curve_point(i, t) for i, t in face.anchors])


def _parametric(face):
    """Faces whose points are the curve points of their anchors."""
    return not face.full_curves and face.kind != "F00" and face.kind not in _FIXED_FACES


def _anchor_residuals(faces, normals, offsets):
    """Largest |<y, p> - d| over the face_points p of each face and their
    centroid, for the whole catalogue at once.

    The anchors of the parametric faces are evaluated with one curve_points
    call per curve, clamped to [0, T] as curve_point clamps them, and the
    faces with the same number of points share one stacked product; every
    value has the bits of the per-face product. Raises DomainError for the
    first face whose pair misses its points by more than 1e-3.
    """
    points = [None if _parametric(f) else face_points(f) for f in faces]
    slots = {i: ([], []) for i in CURVE_IDS}  # curve -> [(face, row)], [t]
    for j, face in enumerate(faces):
        if points[j] is None:
            points[j] = np.empty((len(face.anchors), 3))
            for k, (i, t) in enumerate(face.anchors):
                slots[i][0].append((j, k))
                slots[i][1].append(t)
    for i, (where, ts) in slots.items():
        ts = np.array(ts)
        clamped = np.clip(ts, 0.0, T_END)
        if ts.size and np.abs(ts - clamped).max() > 1e-15:
            raise DomainError(f"anchor parameter on curve {i} outside [0, {T_END}]")
        for (j, k), p in zip(where, curve_points(i, clamped)):
            points[j][k] = p

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
    """Per face: the anchor parameter on each curve (inf where it has none),
    the reach of the other curves through the common endpoint (the smallest
    anchor parameter; 0 for a planar side) and the curves wholly contained
    in the face."""
    anchor_t = np.full((len(faces), len(CURVE_IDS)), math.inf)
    reach = np.full(len(faces), math.inf)
    full = np.zeros((len(faces), len(CURVE_IDS)), dtype=bool)
    for j, face in enumerate(faces):
        for i, t in face.anchors:
            if anchor_t[j, i - 1] != math.inf:
                raise DomainError(f"face {face.label()} has two anchors on curve {i}")
            anchor_t[j, i - 1] = t
        if face.full_curves:
            reach[j] = 0.0
            full[j, [i - 1 for i in face.full_curves]] = True
    return anchor_t, np.minimum(reach, anchor_t.min(axis=1)), full


def _curve_runs(ids):
    """(start, stop, curve index) of each run of equal curve ids; one run
    per curve for samples stacked curve by curve."""
    ids = np.asarray(ids)
    if not np.isin(ids, CURVE_IDS).all():
        raise DomainError(f"sample curve ids must lie in {CURVE_IDS}")
    cuts = np.flatnonzero(np.diff(ids)) + 1
    starts, stops = np.append(0, cuts), np.append(cuts, len(ids))
    return [(a, b, int(ids[a]) - 1) for a, b in zip(starts, stops)]


def _block_distances(table, rows, runs, ts):
    """Parameter distances of a block of faces (a slice of the table) to
    every sample: min(|t - a_curve|, t + reach), and 0 on the curves wholly
    contained in the face."""
    anchor_t, reach, full = table
    dist = np.empty((rows.stop - rows.start, len(ts)))
    for start, stop, c in runs:
        np.subtract(ts[start:stop], anchor_t[rows, c, None], out=dist[:, start:stop])
    np.abs(dist, out=dist)
    np.minimum(dist, ts + reach[rows, None], out=dist)
    if full[rows].any():
        for start, stop, c in runs:
            dist[full[rows, c], start:stop] = 0.0
    return dist


class _Check(NamedTuple):
    """One side of the exposure kernel: a functional per face, evaluated on
    the sample points. The slack is offset - value for a body pair and
    -value for a cone functional (offsets None), which vanishes on the
    lifted face."""

    points: np.ndarray
    functionals: np.ndarray
    offsets: np.ndarray | None
    anchor_res: np.ndarray    # residual at the face points, per face
    floor: float              # the margin at the smallest radius must exceed it
    prefix: str


def _scan(faces, ids, ts, checks, deltas):
    """Walk the faces in blocks of about BLOCK_ELEMENTS (face, sample)
    entries. Per face: the on-face sample count and, per check, the largest
    on-face |slack| and the smallest slack at distance >= each delta."""
    table = _distance_table(faces)
    runs = _curve_runs(ids)
    step = max(1, BLOCK_ELEMENTS // len(ts))
    counts = np.empty(len(faces), dtype=int)
    residuals = [np.empty(len(faces)) for _ in checks]
    margins = [np.empty((len(faces), len(deltas))) for _ in checks]
    for start in range(0, len(faces), step):
        rows = slice(start, min(start + step, len(faces)))
        dist = _block_distances(table, rows, runs, ts)
        onface = dist <= ONFACE_DIST
        far = [dist >= delta for delta in deltas]
        del dist
        counts[rows] = [np.count_nonzero(row) for row in onface]
        for check, res, marg in zip(checks, residuals, margins):
            slack = np.empty(onface.shape)
            # one matrix-vector product per face, the bits of points @ y
            np.matmul(check.points, check.functionals[rows, :, None], out=slack[:, :, None])
            if check.offsets is None:
                np.negative(slack, out=slack)
            else:
                np.subtract(check.offsets[rows, None], slack, out=slack)
            for k, mask in enumerate(far):
                marg[rows, k] = np.minimum.reduce(slack, axis=1, where=mask, initial=math.inf)
            np.abs(slack, out=slack)
            res[rows] = np.maximum.reduce(slack, axis=1, where=onface, initial=0.0)
    return counts, residuals, margins


def verify_catalogue(catalogue, body, lifted=False, eq_abs=EQ_ABS, deltas=MARGIN_DELTAS):
    """Exposure reports for every (face, pair) row of a catalogue: the body
    check of each pair on the samples of C and, when lifted, the lifted
    check of its cone functional (construction.lift_pairs) on the
    generators of K over the same samples (construction.lift_points).

    Returns (body_reports, lifted_reports), lifted_reports None unless
    lifted. Both checks use the same parameter distances, computed once per
    block of faces, and one rule: the on-face residual is at most eq_abs and
    the margin (the smallest slack d - <y, x>, resp. -<(-d', y), (1, x')>,
    over the samples at parameter distance >= delta) is positive at every
    radius delta. The lifted margin at the smallest radius must also exceed
    eq_abs: no generator that far from the face may lie on the hyperplane
    within the tolerance. Nearer generators are not held to it, since
    margins vanish quadratically toward the face.

    The catalogue is walked in blocks of faces (see BLOCK_ELEMENTS), so the
    memory held stays flat as catalogue and samples grow.
    """
    if min(deltas) <= ONFACE_DIST:
        raise DomainError(f"margin radii must exceed the on-face distance {ONFACE_DIST}")
    faces = [face for face, _ in catalogue]
    if any(pair.normal.shape != (3,) for _, pair in catalogue):
        raise DimensionMismatchError("pair normal must be 3-dimensional")
    normals = np.array([pair.normal for _, pair in catalogue]).reshape(-1, 3)
    offsets = np.array([pair.offset for _, pair in catalogue])
    checks = [_Check(body.xyz, normals, offsets,
                     _anchor_residuals(faces, normals, offsets), 0.0, "")]
    if lifted:
        checks.append(_Check(lift_points(body.xyz), lift_pairs(normals, offsets), None,
                             np.zeros(len(faces)), eq_abs, "lift:"))

    counts, residuals, margins = _scan(faces, body.ids, body.ts, checks, deltas)
    smallest = min(deltas)
    reports = []
    for check, res, marg in zip(checks, residuals, margins):
        floors = [check.floor if delta == smallest else 0.0 for delta in deltas]
        out = []
        for j, face in enumerate(faces):
            max_res = float(max(check.anchor_res[j], res[j]))
            ok = max_res <= eq_abs and all(m > f for m, f in zip(marg[j], floors))
            out.append(ExposureReport(
                face_label=check.prefix + face.label(),
                max_onface_residual=max_res,
                margins={delta: float(m) for delta, m in zip(deltas, marg[j])},
                onface_count=int(counts[j]),
                verdict="pass" if ok else "fail",
            ))
        reports.append(out)
    return reports[0], reports[1] if lifted else None


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


def identity_suite(t, theta, curves=None):
    """Residuals of the six inner-product identities behind the catalogue.

    Each identity is evaluated twice, once as a numeric dot product and once
    from its trigonometric closed form, and the absolute difference is
    returned. t may be a scalar or an array in [0, T]; the residuals have its
    shape. All six are <= 1e-12 across the whole parameter square. curves:
    the four arcs evaluated at t (curve id -> points), when the caller
    shares them between several theta.
    """
    t = np.asarray(t, dtype=float)
    g = curves if curves is not None else {i: curve_points(i, t) for i in CURVE_IDS}
    r = ruling_data(theta)
    th, tt, y = r.theta, r.t, r.normal
    y3 = y + np.array([0.0, 0.0, 1.0])
    return {
        "curve1_vs_ruling": np.abs(g[1] @ y - math.cos(tt) * (np.cos(t - th) - math.cos(th))),
        "curve3_vs_ruling": np.abs(g[3] @ y - math.sin(th) * (np.cos(t - tt) - math.cos(tt))),
        "curve2_vs_ruling": np.abs(g[2] @ y - math.cos(tt) * (math.sin(th) - np.sin(t + th))),
        "curve4_vs_ruling": np.abs(g[4] @ y - math.sin(th) * (math.sin(tt) - np.sin(t + tt))),
        "curve1_vs_shifted": np.abs(g[1] @ y3 - (g[1] @ y + np.cos(t) - 1.0)),
        "curve2_vs_shifted": np.abs(g[2] @ y3 - (g[2] @ y - np.sin(t))),
    }


def build_catalogue(theta_grid):
    """Faces with their exposing pairs, ready for verification."""
    faces = enumerate_faces(theta_grid)
    rulings = {}  # one ruling_data call per distinct theta
    return [(f, exposing_pair(f, rulings)) for f in faces]
