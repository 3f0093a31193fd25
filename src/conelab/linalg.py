"""Dense linear algebra kernel for low-dimensional cone computations.

Everything here is dimension-generic for n <= 5 and pure: nullspace bases,
certificate-producing conic membership, and one-variable interval
feasibility. All verdicts carry certificates that can be re-checked without
re-running any solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, lsq_linear, nnls

# Singular values below RANK_RTOL * sigma_max count as zero.  The matrices
# handled here have O(1) entries and are well conditioned.
RANK_RTOL = 1e-10

MIN_DIM = 2
MAX_DIM = 5


class DimensionMismatchError(ValueError):
    """Inputs do not share a consistent dimension."""


class DomainError(ValueError):
    """A parameter lies outside its documented domain."""


class DegenerateInputError(ValueError):
    """Input is rank-deficient or otherwise unusable for the operation."""


class SolverStallError(RuntimeError):
    """Membership could not be certified either way; carries the best
    certificates found so far in ``inside_residual`` / ``outside_margin``."""

    def __init__(self, message, inside_residual=None, outside_margin=None):
        super().__init__(message)
        self.inside_residual = inside_residual
        self.outside_margin = outside_margin


@dataclass(frozen=True)
class Tolerance:
    """Residual policy: ``eq_abs`` bounds "equals zero" residuals,
    ``margin_abs`` is the floor for "strictly negative" margins."""

    eq_abs: float = 1e-9
    margin_abs: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.eq_abs and 0.0 < self.margin_abs):
            raise DomainError("tolerances must be positive")


DEFAULT_TOL = Tolerance()


def as_vector(x, dim=None):
    """Validate and return a 1-D float array of dimension 2..5.

    Raises DimensionMismatchError on a wrong/ragged dimension and
    DomainError on NaN or infinite components.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {v.shape}")
    if not (MIN_DIM <= v.size <= MAX_DIM):
        raise DimensionMismatchError(f"dimension {v.size} outside [{MIN_DIM}, {MAX_DIM}]")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise DomainError("vector has NaN or infinite components")
    return v


def nullspace(rows, rank_rtol=RANK_RTOL):
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
    cutoff = rank_rtol * (sigma[0] if sigma.size else 0.0)
    rank = int(np.sum(sigma > cutoff))
    return vt[rank:]


@dataclass(frozen=True)
class ConeModel:
    """Finitely many generators in R^n standing for their conic hull."""

    generators: np.ndarray
    provenance: str = ""
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

    @property
    def dim(self):
        return self.generators.shape[1]


@dataclass(frozen=True)
class ConicVerdict:
    """Certificate-carrying membership verdict.

    inside=True:  coefficients >= 0 with ||G^T mu - x|| = residual <= eq_abs.
    inside=False: normal s with <s, g> <= eq_abs for every generator g and
                  <s, x> = margin > 0.
    """

    inside: bool
    coefficients: np.ndarray | None = None
    residual: float = math.nan
    normal: np.ndarray | None = None
    margin: float = math.nan

    def recheck(self, point, cone, tol=DEFAULT_TOL):
        """Re-validate the certificate from scratch (no solver involved)."""
        g = cone.generators
        x = np.asarray(point, dtype=float)
        if self.inside:
            mu = np.asarray(self.coefficients, dtype=float)
            if np.any(mu < -tol.eq_abs):
                return False
            return float(np.linalg.norm(g.T @ np.maximum(mu, 0.0) - x)) <= 10 * tol.eq_abs
        s = np.asarray(self.normal, dtype=float)
        return bool(np.all(g @ s <= tol.eq_abs) and float(np.dot(s, x)) > 0.0)


def conic_membership(point, cone, tol=DEFAULT_TOL):
    """Decide whether point lies in the conic hull of cone.generators.

    Dual route: nonnegative least squares for an inside certificate, an LP
    over the box |s|_inf <= 1 for a separating normal. Raises
    SolverStallError when neither certificate is conclusive (point within
    tolerance of the sampled boundary).
    """
    g = cone.generators
    x = as_vector(point, dim=g.shape[1]) if g.shape[1] <= MAX_DIM else np.asarray(point, float)
    scale = max(1.0, float(np.linalg.norm(x)))

    residual = math.inf
    try:
        coeffs, _ = nnls(g.T, x)
        # the residual reported by nnls is not trustworthy on all scipy
        # versions; recompute it from the certificate itself
        residual = float(np.linalg.norm(g.T @ coeffs - x))
    except RuntimeError:  # iteration cap; fall through to the separation LP
        coeffs = None
    if residual <= tol.eq_abs * scale:
        return ConicVerdict(inside=True, coefficients=coeffs, residual=residual)

    # Separation: maximize <s, x> subject to <s, g> <= 0, |s_i| <= 1.
    res = linprog(
        c=-x,
        A_ub=g,
        b_ub=np.zeros(len(g)),
        bounds=[(-1.0, 1.0)] * g.shape[1],
        method="highs",
    )
    if res.status == 0 and -res.fun > tol.margin_abs:
        s = np.asarray(res.x, dtype=float)
        return ConicVerdict(inside=False, normal=s, margin=float(np.dot(s, x)))

    # Second inside attempt with an independent solver before giving up.
    fit = lsq_linear(g.T, x, bounds=(0.0, math.inf))
    mu = np.maximum(fit.x, 0.0)
    residual2 = float(np.linalg.norm(g.T @ mu - x))
    if residual2 <= tol.eq_abs * scale:
        return ConicVerdict(inside=True, coefficients=mu, residual=residual2)

    raise SolverStallError(
        "membership ambiguous at this tolerance",
        inside_residual=min(residual, residual2),
        outside_margin=float(-res.fun) if res.status == 0 else None,
    )


def feasible_interval(lowers, uppers):
    """Intersect one-variable bound lists: every lower <= x <= every upper.

    Returns (lo, hi) with lo possibly -inf and hi possibly +inf, or None
    when the intersection is empty. Empty bound lists impose nothing.
    """
    lo = max((float(v) for v in lowers), default=-math.inf)
    hi = min((float(v) for v in uppers), default=math.inf)
    if lo > hi:
        return None
    return (lo, hi)
