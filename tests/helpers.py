"""Helpers used only by the tests."""

import math

import numpy as np
from scipy.optimize import linprog

from conelab.faces import ORACLE, ExposingPair, FaceDescriptor, param_distances
from conelab.linalg import DegenerateInputError
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
    far = param_distances(FaceDescriptor("oracle", 0, anchors=tuple(anchors)),
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
