"""Dense linear algebra kernel for low-dimensional cone computations.

Everything here is pure: nullspace bases, exact certificate-producing
membership in the cones cone{h1, h2} + span{n} of R^3, and one-variable
interval feasibility. Membership verdicts carry certificates that can be
re-checked without any solver; a batch's verdicts are kept as arrays
(SimplicialVerdicts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Singular values below RANK_RTOL * sigma_max count as zero.  The matrices
# handled here have O(1) entries and are well conditioned.
RANK_RTOL = 1e-10

# Higham's gamma_6 = 6u / (1 - 6u), u = 2**-53 the unit roundoff of doubles.
_GAMMA6 = 6 * 2.0**-53 / (1 - 6 * 2.0**-53)


class DimensionMismatchError(ValueError):
    """Inputs do not share a consistent dimension."""


class DomainError(ValueError):
    """A parameter lies outside its documented domain."""


class DegenerateInputError(ValueError):
    """Input is rank-deficient or otherwise unusable for the operation."""


@dataclass(frozen=True)
class Tolerance:
    """Residual policy: ``eq_abs`` bounds "equals zero" residuals,
    ``margin_abs`` is the floor for "strictly negative" margins."""

    eq_abs: float = 1e-9
    margin_abs: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.eq_abs < math.inf and 0.0 < self.margin_abs < math.inf):
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


@dataclass(frozen=True, eq=False)
class SimplicialVerdicts:
    """The verdicts of one simplicial_membership batch, as arrays.

    Row i is inside when inside[i] (certificate coefficients[i] with
    residual residuals[i]), outside when outside[i] (normal normals[i] with
    margin margins[i]), and ambiguous when neither mask is set. The masks
    never overlap.
    """

    inside: np.ndarray
    outside: np.ndarray
    coefficients: np.ndarray
    residuals: np.ndarray
    normals: np.ndarray
    margins: np.ndarray


def simplicial_membership(points, h1, h2, n, tol=DEFAULT_TOL):
    """Membership of each row x of points in cone{h1, h2} + span{n} in R^3
    (generators h1, h2, n, -n), decided with one inverse for the batch and
    returned as one SimplicialVerdicts record of arrays.

    The inverse of [h1 h2 n] has rows adj_i / det, where adj = (h2 x n,
    n x h1, h1 x h2) and det = <h1, h2 x n>; x has coordinates c = adj x / det.
      * Inside: mu = (c1+, c2+, c3+, c3-) has ||G^T mu - x|| <= eq_abs *
        max(1, ||x||), the inside test of a nonnegative least-squares fit.
      * Outside: c_i < -gamma_6 <|x|, A_i> / |det| for i = 1 or 2, A_i the
        entrywise |a_j b_k| + |a_k b_j| of the cross product adj_i. That
        bounds the forward error of the computed c_i (gamma_2 per entry and
        gamma_3 for the dot product give gamma_5 for <adj_i, x>; the spare
        u absorbs rounding c_i and the bound), so c_i < 0 exactly. The
        normal s = -adj_i / det must also give <s, g> <= eq_abs on all four
        generators and <s, x> > margin_abs.
      * Otherwise ambiguous (neither mask set): x is within tolerance of a
        facet, where no certificate of either kind is conclusive.

    Raises DegenerateInputError when |det| <= RANK_RTOL ||h1|| ||h2|| ||n||;
    above that floor the rounding error of det cannot flip its sign.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    basis = np.vstack([h1, h2, n]).astype(float)
    if basis.shape != (3, 3) or x.ndim != 2 or x.shape[1] != 3:
        raise DimensionMismatchError("simplicial_membership works in R^3")
    if not (np.isfinite(basis).all() and np.isfinite(x).all()):
        raise DomainError("points or generators have NaN or infinite components")
    left, right = basis[[1, 2, 0]], basis[[2, 0, 1]]
    adj = np.cross(left, right)
    det = float(basis[0] @ adj[0])
    if abs(det) <= RANK_RTOL * float(np.prod(np.linalg.norm(basis, axis=1))):
        raise DegenerateInputError("h1, h2 and n are linearly dependent")
    j, k = [1, 2, 0], [2, 0, 1]
    adj_abs = np.abs(left[:2, j] * right[:2, k]) + np.abs(left[:2, k] * right[:2, j])

    c = x @ adj.T / det
    mu = np.column_stack([np.maximum(c, 0.0), np.maximum(-c[:, 2], 0.0)])
    gens = np.vstack([basis, -basis[2]])
    residual = np.linalg.norm(mu @ gens - x, axis=1)
    inside = residual <= tol.eq_abs * np.maximum(1.0, np.linalg.norm(x, axis=1))

    neg = c[:, :2] < -_GAMMA6 * (np.abs(x) @ adj_abs.T) / abs(det)
    # separate with the more negative of the certified coordinates
    row = (neg[:, 1] & ~(neg[:, 0] & (c[:, 0] <= c[:, 1]))).astype(int)
    normals = -adj[:2] / det
    sep = normals[row]
    margin = np.einsum("ij,ij->i", sep, x)
    valid = (gens @ normals.T <= tol.eq_abs).all(axis=0)[row] & (margin > tol.margin_abs)
    outside = ~inside & neg.any(axis=1) & valid

    return SimplicialVerdicts(inside, outside, mu, residual, sep, margin)


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
