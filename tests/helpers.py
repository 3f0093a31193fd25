"""Helpers used only by the tests."""

import math

import numpy as np
from scipy.optimize import linprog

from conelab.construction import BodySamples
from conelab.faces import (
    MARGIN_DELTAS,
    ORACLE,
    ExposingPair,
    ExposureReport,
    FaceDescriptor,
    face_points,
)
from conelab.lifting import support_values
from conelab.linalg import (
    DEFAULT_TOL,
    ConeModel,
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
)
from conelab.niceness import positivity_window


def mirror_point(x):
    """The involution (x1,x2,x3) -> (x3,-x2,x1); swaps curves 1<->4 and
    2<->3 and maps each ruling normal to its mirror."""
    x = np.asarray(x, dtype=float)
    return np.array([x[..., 2], -x[..., 1], x[..., 0]]).T if x.ndim > 1 else np.array([x[2], -x[1], x[0]])


def fibonacci_sphere_grid(n):
    """n roughly even unit directions on the 2-sphere (golden-angle spiral)."""
    k = np.arange(n)
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def check_positivity_window(alpha, n=10_000):
    """Grid check that alpha*(cos t - 1) + sin t > 0 on the open window."""
    t_alpha = positivity_window(alpha)
    ts = t_alpha * np.arange(1, n + 1) / (n + 1)
    vals = alpha * (np.cos(ts) - 1.0) + np.sin(ts)
    return bool((vals > 0.0).all()), float(vals.min())


def support_plane_through(points, body, margin_radius=0.05):
    """Max-margin supporting hyperplane containing the given points.

    LP over (y, d, m): maximize m subject to <y, p> = d on the points,
    <y, x> <= d on every body sample, <y, x> <= d - m on samples at
    parameter distance >= margin_radius from every given point, |y| <= 1.
    """
    samples = body.xyz
    pts = np.atleast_2d(points)
    n = 3
    # variables z = (y1, y2, y3, d, m)
    a_eq = np.hstack([pts, -np.ones((len(pts), 1)), np.zeros((len(pts), 1))])
    b_eq = np.zeros(len(pts))

    # the samples at the given points pin the face in parameter space
    anchors = []
    for p in pts:
        hits = np.linalg.norm(samples - p, axis=1) <= 1e-9
        anchors.extend(zip(body.ids[hits].tolist(), body.ts[hits].tolist()))
    far = reference_param_distances(FaceDescriptor("oracle", 0, anchors=tuple(anchors)),
                          body.ids, body.ts) >= margin_radius

    # one row <y, x> - d <= 0 per sample, each followed by the row
    # <y, x> - d + m <= 0 when the sample is far from the points
    rows = np.zeros((len(samples), 2, 5))
    rows[:, :, :3] = samples[:, None, :]
    rows[:, :, 3] = -1.0
    rows[:, 1, 4] = 1.0
    rows = rows[np.stack([np.ones_like(far), far], axis=1)]
    bounds = [(-1.0, 1.0)] * n + [(-3.0, 3.0), (0.0, 10.0)]
    res = linprog(
        c=np.array([0.0, 0.0, 0.0, 0.0, -1.0]),
        A_ub=rows,
        b_ub=np.zeros(len(rows)),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if res.status != 0 or -res.fun <= 0.0:
        raise DegenerateInputError("no strictly supporting hyperplane found")
    y = res.x[:3]
    return ExposingPair(y / np.linalg.norm(y), res.x[3] / np.linalg.norm(y), ORACLE)


def polar_generator_model(samples, directions, provenance="sampled polar cone"):
    """Generator representation of the polar of cone({1} x samples):
    one generator (-support(dir), dir) per direction, plus the deep ray
    (-1, 0, ..., 0)."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if directions.shape[1] != samples.shape[1]:
        raise DimensionMismatchError("directions and samples dimensions differ")
    sups = support_values(samples, directions)
    gens = np.hstack([-sups[:, None], directions])
    deep = np.zeros((1, samples.shape[1] + 1))
    deep[0, 0] = -1.0
    return ConeModel(np.vstack([gens, deep]), provenance=provenance)


# Reference exposure checks: one face and one full pass over the samples at
# a time, as the library ran them before its blocked kernel
# (faces.verify_catalogue). The kernel must reproduce their reports exactly.

def reference_param_distances(face, ids, ts):
    """Parameter distance of each sample (ids[k], ts[k]) to the face."""
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


def _margins_by_radius(slack, dists, deltas):
    margins = {}
    for delta in deltas:
        mask = dists >= delta
        margins[delta] = float(slack[mask].min()) if mask.any() else math.inf
    return margins


def reference_verify_exposure(face, pair, body, tol=DEFAULT_TOL, deltas=MARGIN_DELTAS):
    """Body check of one exposing pair on the raw body samples."""
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
    centroid_res = abs(float(anchor_pts.mean(axis=0) @ y) - d)

    values = body.xyz @ y
    dists = reference_param_distances(face, body.ids, body.ts)

    onface = dists <= 1e-9
    residuals = [anchor_res.max(), centroid_res]
    if onface.any():
        residuals.append(float(np.abs(values[onface] - d).max()))
    max_res = float(max(residuals))

    margins = _margins_by_radius(d - values, dists, deltas)
    ok = max_res <= tol.eq_abs and all(m > 0.0 for m in margins.values())
    return ExposureReport(
        face_label=face.label(),
        max_onface_residual=max_res,
        margins=margins,
        onface_count=int(onface.sum()),
        verdict="pass" if ok else "fail",
    )


def reference_verify_cone_exposure(lifted, cone, face, tol=DEFAULT_TOL, deltas=MARGIN_DELTAS):
    """Lifted check of one cone functional on the cone's generators: the
    measured equality set |value| <= eq_abs must hold every on-face
    generator and no generator at parameter distance >= min(deltas)."""
    y = np.asarray(lifted.vector, dtype=float)
    g = cone.generators
    if g.shape[1] != y.size:
        raise DimensionMismatchError("lifted pair and cone dimensions differ")
    if not cone.labels:
        raise DomainError("cone generators carry no (curve, t) labels")

    values = g @ y
    dists = reference_param_distances(face, *cone.labels)
    expected = dists <= 1e-9
    measured = np.abs(values) <= tol.eq_abs

    max_res = float(np.abs(values[expected]).max()) if expected.any() else 0.0
    margins = _margins_by_radius(-values, dists, deltas)

    on_face_ok = bool(measured[expected].all()) if expected.any() else True
    stray = measured & ~expected & (dists >= min(deltas))
    sets_match = on_face_ok and not bool(stray.any())
    ok = (
        sets_match
        and max_res <= tol.eq_abs
        and all(m > 0.0 for m in margins.values())
    )
    return ExposureReport(
        face_label=f"lift:{face.label()}",
        max_onface_residual=max_res,
        margins=margins,
        onface_count=int(expected.sum()),
        verdict="pass" if ok else "fail",
    )
