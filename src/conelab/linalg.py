"""Forward-error constants and small numeric kernels shared by the
cone computations.

Everything here is pure: the equality bound EQ_ABS, the rounding
error constant gamma, the error classes, and one-variable interval
feasibility.
"""

from __future__ import annotations

import math

import numpy as np

# Bound on residuals that count as "equals zero". Its only readers are the
# on-face residual of faces.verify_catalogue and shift_profile (nice3d
# decides in exact integers); no option sets it. It is not derived from a
# forward-error bound yet (the margins of verify_catalogue are: see there).
EQ_ABS = 1e-9


class DomainError(ValueError):
    """A parameter lies outside its documented domain."""


class DegenerateInputError(ValueError):
    """Input is rank-deficient or otherwise unusable for the operation."""


def gamma(n):
    """n*u / (1 - n*u), u = 2**-53: the relative error bound of n rounded
    operations (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 3.1)."""
    nu = n * 2.0**-53
    if not 0.0 <= nu < 1.0:
        raise DomainError(f"gamma_n needs 0 <= n*u < 1, got n = {n}")
    return nu / (1.0 - nu)


def feasible_interval(lowers, uppers):
    """Intersect one-variable bound lists: every lower <= x <= every upper.

    Returns (lo, hi) with lo possibly -inf and hi possibly +inf, or None
    when the intersection is empty. Empty bound lists impose nothing.
    """
    lowers, uppers = np.asarray(lowers, dtype=float), np.asarray(uppers, dtype=float)
    lo = float(lowers.max()) if lowers.size else -math.inf
    hi = float(uppers.min()) if uppers.size else math.inf
    if lo > hi:
        return None
    return (lo, hi)
