"""Helpers used only by the tests."""

import math

import numpy as np

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
