"""Complete face catalogue of the four-arc body with exposing pairs.

Face kinds and their generators:

    F00          the common arc endpoint (origin)            dim 0
    F01..F04     singletons {curve_i(t)}, t in (0, T]        dim 0
    F11(theta)   segment [curve1(theta), curve3(partner)]    dim 1
    F12(theta)   segment [curve4(theta), curve2(partner)]    dim 1
    F13/F14/F15  endpoint chords [p1,p2], [p3,p4], [p2,p3]   dim 1
    F21/F22      endpoint triangles p1p2p3, p2p3p4           dim 2
    F23/F24      the two planar sides co{curves 1,2 / 3,4}   dim 2

Pairs for the parametric families, the origin and the endpoint chords have
closed forms; only the planar sides and the triangles use a sample-based
oracle (plane fits or the plane through the generators), with provenance
recorded on the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construction import (
    CURVE_IDS,
    ENDPOINTS,
    T_END,
    BodySamples,
    curve_grid,
    curve_point,
    curve_points,
    curve_sample,
    ruling_data,
    sample_body,
    theta_for_partner,
)
from .linalg import (
    DEFAULT_TOL,
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
)

CLOSED_FORM = "closed-form"
ORACLE = "derived-oracle"

# Parameter-distance radii at which off-face margins are reported.
MARGIN_DELTAS = (0.01, 0.05, 0.1)

# Origin and endpoint chords: kind -> (unnormalised normal y, offset d of
# y/|y|). On the four arcs, with s = sin t, c = cos t and t in [0, T]:
#   F00: curves 1, 4 give (c - 1)/sqrt2 and curves 2, 3 give -s/sqrt2, < 0 for t > 0.
#   F13: curves 1, 2 give (1 + s - c)/sqrt3 <= d, equal only at t = T;
#        curves 3, 4 give (c - 1 - s)/sqrt3 <= 0.
#   F14: F13 with curves 1, 2 and 3, 4 swapped.
#   F15: curves 2, 3 give s/sqrt2 <= 1/2, equal only at t = T;
#        curves 1, 4 give (1 - c)/sqrt2 <= 0.21.
_CHORD_PAIRS = {
    "F00": ((1.0, 0.0, 1.0), 0.0),
    "F13": ((1.0, -1.0, -1.0), 1.0 / math.sqrt(3.0)),
    "F14": ((-1.0, 1.0, 1.0), 1.0 / math.sqrt(3.0)),
    "F15": ((-1.0, 0.0, -1.0), 0.5),
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
    provenance: str

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if float(np.linalg.norm(n)) <= 0.0:
            raise DegenerateInputError("exposing normal must be nonzero")
        object.__setattr__(self, "normal", n)


@dataclass(frozen=True)
class ExposureReport:
    face_label: str
    max_onface_residual: float
    margins: dict            # delta -> smallest measured margin at that radius
    onface_count: int
    verdict: str             # "pass" | "fail"

    @property
    def passed(self):
        return self.verdict == "pass"


def singleton_pair(curve_id, t):
    """Closed-form exposing pair for the singleton face {curve_i(t)}."""
    if curve_id == 1:
        return ExposingPair(np.array([1.0, -math.sin(t), math.cos(t)]), 1.0 - math.cos(t), CLOSED_FORM)
    if curve_id == 4:
        return ExposingPair(np.array([math.cos(t), math.sin(t), 1.0]), 1.0 - math.cos(t), CLOSED_FORM)
    theta = theta_for_partner(t)
    r = ruling_data(theta)
    if curve_id == 3:
        return ExposingPair(r.normal + np.array([0.0, 0.0, 1.0]), r.offset, CLOSED_FORM)
    if curve_id == 2:
        return ExposingPair(r.mirror_normal + np.array([1.0, 0.0, 0.0]), r.offset, CLOSED_FORM)
    raise DomainError(f"curve id {curve_id} not in {CURVE_IDS}")


def enumerate_faces(theta_grid, t_grid=None):
    """Materialize the full catalogue over the given parameter grids.

    Count: 1 + 4*|t_grid| + 2*|theta_grid| + 3 + 4.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size == 0:
        raise DegenerateInputError("theta grid is empty")
    if theta_grid.min() <= 0 or theta_grid.max() > T_END + 1e-15:
        raise DomainError("theta grid must lie in (0, T]")
    t_grid = theta_grid if t_grid is None else np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise DegenerateInputError("t grid is empty")
    if t_grid.min() <= 0 or t_grid.max() > T_END + 1e-15:
        raise DomainError("t grid must lie in (0, T]")

    faces = [FaceDescriptor("F00", 0, anchors=tuple((i, 0.0) for i in CURVE_IDS))]
    for i in CURVE_IDS:
        faces.extend(
            FaceDescriptor(f"F0{i}", 0, param=float(t), anchors=((i, float(t)),))
            for t in t_grid
        )
    for th in theta_grid:
        r = ruling_data(th)
        faces.append(FaceDescriptor("F11", 1, param=float(th), partner=r.t,
                                    anchors=((1, float(th)), (3, r.t))))
        faces.append(FaceDescriptor("F12", 1, param=float(th), partner=r.t,
                                    anchors=((4, float(th)), (2, r.t))))
    for kind, (ends, dim) in _FIXED_FACES.items():
        faces.append(FaceDescriptor(kind, dim, anchors=tuple((i, T_END) for i in ends)))
    faces.append(FaceDescriptor("F23", 2, full_curves=(1, 2)))
    faces.append(FaceDescriptor("F24", 2, full_curves=(3, 4)))
    return faces


def face_samples(face):
    """Labelled generator samples of the face (anchor parameters); planar
    sides additionally expose which whole curves they contain."""
    anchors = list(face.anchors)
    if face.full_curves:
        anchors = [(i, t) for i in face.full_curves for t in (0.0, T_END / 2, T_END)]
    return [curve_sample(i, t) for i, t in anchors]


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


def param_distances(face, ids, ts):
    """Distance between each sample (ids[k], ts[k]) and a face in parameter
    space.

    Same-curve anchors contribute |t - t*|; anchors on another curve are
    reached through the common endpoint, contributing t + t*. Curves wholly
    contained in the face are at distance 0.
    """
    if face.full_curves:
        dist = ts.copy()  # reach the face through the common endpoint
        for i in face.full_curves:
            dist[ids == i] = 0.0
    else:
        dist = np.full(ts.shape, math.inf)
    for i, anchor_t in face.anchors:
        same = ids == i
        np.minimum(dist, np.where(same, np.abs(ts - anchor_t), ts + anchor_t), out=dist)
    return dist


def margins_by_radius(slack, dists, deltas):
    """Smallest slack among the samples at parameter distance >= delta, per
    delta; inf when no sample is that far from the face."""
    margins = {}
    for delta in deltas:
        mask = dists >= delta
        margins[delta] = float(slack[mask].min()) if mask.any() else math.inf
    return margins


def verify_exposure(face, pair, body, tol=DEFAULT_TOL, deltas=MARGIN_DELTAS):
    """Check the exposing-pair inequalities for one face against a sampled
    raw body: equality on the face, strict inequality off it, with margins
    reported per parameter-distance radius.
    """
    if not isinstance(body, BodySamples) or body.shifted:
        raise DomainError("verify_exposure expects raw C samples")
    y, d = pair.normal, pair.offset
    if y.shape != (3,):
        raise DimensionMismatchError("pair normal must be 3-dimensional")

    anchor_pts = face_points(face)
    anchor_res = np.abs(anchor_pts @ y - d)
    if anchor_res.max() > 1e-3:
        raise DomainError(
            f"pair does not match face {face.label()}: anchor residual {anchor_res.max():.3g}"
        )
    # Convex combinations of generators must reach the same hyperplane.
    centroid_res = abs(float(anchor_pts.mean(axis=0) @ y) - d)

    values = body.xyz @ y
    dists = param_distances(face, body.ids, body.ts)

    onface = dists <= 1e-9
    residuals = [anchor_res.max(), centroid_res]
    if onface.any():
        residuals.append(float(np.abs(values[onface] - d).max()))
    max_res = float(max(residuals))

    margins = margins_by_radius(d - values, dists, deltas)
    ok = max_res <= tol.eq_abs and all(m > 0.0 for m in margins.values())
    return ExposureReport(
        face_label=face.label(),
        max_onface_residual=max_res,
        margins=margins,
        onface_count=int(onface.sum()),
        verdict="pass" if ok else "fail",
    )


def _oriented_support(n, d, body, tol):
    d += 0.0  # normalize -0.0
    over = float((body.xyz @ n - d).max())
    under = float((d - body.xyz @ n).max())
    if over <= tol.eq_abs:
        return ExposingPair(n, d, ORACLE)
    if under <= tol.eq_abs:
        return ExposingPair(-n + 0.0, -d + 0.0, ORACLE)
    raise DegenerateInputError(
        f"plane does not support the body (over {over:.3g}, under {under:.3g})"
    )


def _plane_pair(verts, body, tol=DEFAULT_TOL):
    """Plane through three affinely independent points, oriented so the whole
    body lies on the nonpositive side."""
    v = np.atleast_2d(verts)
    n = np.cross(v[1] - v[0], v[2] - v[0])
    norm = float(np.linalg.norm(n))
    if norm <= 1e-12:
        raise DegenerateInputError("triangle vertices are collinear")
    return _oriented_support(n / norm, float(n @ v[0]) / norm, body, tol)


def _fitted_plane_pair(face, body, tol=DEFAULT_TOL):
    """Least-squares plane through all on-face samples (SVD of the centered
    point cloud), sign-checked against the whole body. Used for the planar
    sides, whose generator set is a pair of arcs."""
    onface = param_distances(face, body.ids, body.ts) <= 1e-9
    pts = body.xyz[onface]
    if len(pts) < 3:
        raise DegenerateInputError("not enough on-face samples to fit a plane")
    center = pts.mean(axis=0)
    _, sigma, vt = np.linalg.svd(pts - center)
    if sigma[-1] > 1e-9:
        raise DegenerateInputError(f"on-face samples are not coplanar ({sigma[-1]:.3g})")
    n = vt[-1]
    return _oriented_support(n, float(n @ center), body, tol)


_ORACLE_BODY_CACHE = {}


def _oracle_body(n=128):
    if n not in _ORACLE_BODY_CACHE:
        _ORACLE_BODY_CACHE[n] = sample_body(curve_grid(n))
    return _ORACLE_BODY_CACHE[n]


def exposing_pair(face, oracle_body=None):
    """Exposing pair for a catalogued face.

    Parametric families, the origin and the endpoint chords use the closed
    forms; the planar sides and the triangles fall back to the sample-based
    oracle (run on a coarse body so that verification on a finer body stays
    out-of-sample).
    """
    kind = face.kind
    if kind in ("F01", "F02", "F03", "F04"):
        return singleton_pair(int(kind[2]), face.param)
    if kind == "F11":
        r = ruling_data(face.param)
        return ExposingPair(r.normal, r.offset, CLOSED_FORM)
    if kind == "F12":
        r = ruling_data(face.param)
        return ExposingPair(r.mirror_normal, r.offset, CLOSED_FORM)
    if kind in _CHORD_PAIRS:
        y, d = _CHORD_PAIRS[kind]
        y = np.array(y)
        return ExposingPair(y / np.linalg.norm(y), d, CLOSED_FORM)
    body = oracle_body if oracle_body is not None else _oracle_body()
    if kind in ("F23", "F24"):
        return _fitted_plane_pair(face, body)
    if kind in ("F21", "F22"):
        return _plane_pair(face_points(face), body)
    raise DomainError(f"unknown face kind {kind}")


def identity_suite(t, theta):
    """Residuals of the six inner-product identities behind the catalogue.

    Each identity is evaluated twice, once as a numeric dot product and once
    from its trigonometric closed form, and the absolute difference is
    returned. t may be a scalar or an array in [0, T]; the residuals have its
    shape. All six are <= 1e-12 across the whole parameter square.
    """
    t = np.asarray(t, dtype=float)
    g = {i: curve_points(i, t) for i in CURVE_IDS}
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


def build_catalogue(theta_grid, t_grid=None, oracle_body=None):
    """Faces with their exposing pairs, ready for verification."""
    faces = enumerate_faces(theta_grid, t_grid)
    return [(f, exposing_pair(f, oracle_body)) for f in faces]
