"""Dense linear algebra kernel for low-dimensional cone computations.

Everything here is pure: the tolerance policy, the generator model of a
cone, nullspace bases, and one-variable interval feasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Singular values below RANK_RTOL * sigma_max count as zero.  The matrices
# handled here have O(1) entries and are well conditioned.
RANK_RTOL = 1e-10


class DimensionMismatchError(ValueError):
    """Inputs do not share a consistent dimension."""


class DomainError(ValueError):
    """A parameter lies outside its documented domain."""


class DegenerateInputError(ValueError):
    """Input is rank-deficient or otherwise unusable for the operation."""


@dataclass(frozen=True)
class Tolerance:
    """Residual policy: ``eq_abs`` bounds "equals zero" residuals."""

    eq_abs: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.eq_abs < math.inf:
            raise DomainError("tolerances must be positive and finite")


DEFAULT_TOL = Tolerance()


def nullspace(rows):
    """Orthonormal basis of the kernel of the matrix with the given rows.

    Returns an array of shape (k, n) whose rows are unit-norm, mutually
    orthogonal, and satisfy ||A v|| <= eq_abs; k = n - numerical rank.
    """
    a = np.atleast_2d(np.asarray(rows, dtype=float))
    if a.size == 0:
        raise DegenerateInputError("matrix is empty")
    if a.ndim != 2:
        raise DimensionMismatchError("rows have inconsistent dimensions")
    _, sigma, vt = np.linalg.svd(a)
    cutoff = RANK_RTOL * (sigma[0] if sigma.size else 0.0)
    rank = int(np.sum(sigma > cutoff))
    return vt[rank:]


@dataclass(frozen=True)
class ConeModel:
    """Finitely many generators in R^n standing for their conic hull."""

    generators: np.ndarray
    # Optional per-generator (curve ids, parameters) arrays, each as long as
    # generators; used by reporting, never by the geometry.
    labels: tuple = ()

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.generators, dtype=float))
        if g.size == 0:
            raise DegenerateInputError("cone has no generators")
        if not np.all(np.isfinite(g)):
            raise DomainError("cone generators have NaN or infinite components")
        object.__setattr__(self, "generators", g)
        if self.labels and any(len(a) != len(g) for a in self.labels):
            raise DimensionMismatchError("labels do not match generator count")


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
