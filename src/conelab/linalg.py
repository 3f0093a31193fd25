"""Dense linear algebra kernel for low-dimensional cone computations.

Everything here is pure: nullspace bases, certificate-producing conic
membership (by LP for any cone in dimension n <= 5, exactly for the cones
cone{h1, h2} + span{n} of R^3), and one-variable interval feasibility. All
verdicts carry certificates that can be re-checked without any solver; the
exact route keeps a batch's verdicts as arrays (SimplicialVerdicts) and
builds a ConicVerdict per row only when one is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Singular values below RANK_RTOL * sigma_max count as zero.  The matrices
# handled here have O(1) entries and are well conditioned.
RANK_RTOL = 1e-10

MIN_DIM = 2
MAX_DIM = 5

# Higham's gamma_6 = 6u / (1 - 6u), u = 2**-53 the unit roundoff of doubles.
_GAMMA6 = 6 * 2.0**-53 / (1 - 6 * 2.0**-53)


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
    tolerance of the sampled boundary); it carries the NNLS residual and
    the LP margin. This is the package's only use of scipy, so scipy is
    imported here and not with the module.
    """
    from scipy.optimize import linprog, nnls

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

    raise SolverStallError(
        "membership ambiguous at this tolerance",
        inside_residual=residual,
        outside_margin=float(-res.fun) if res.status == 0 else None,
    )


@dataclass(frozen=True, eq=False)
class SimplicialVerdicts:
    """The verdicts of one simplicial_membership batch, as arrays.

    Row i is inside when inside[i] (certificate coefficients[i] with
    residual residuals[i]), outside when outside[i] (normal normals[i] with
    margin margins[i]), and ambiguous when neither mask is set. The masks
    never overlap. Indexing (and so iteration) builds the ConicVerdict of
    row i, or returns None for an ambiguous row.
    """

    inside: np.ndarray
    outside: np.ndarray
    coefficients: np.ndarray
    residuals: np.ndarray
    normals: np.ndarray
    margins: np.ndarray

    def __len__(self):
        return len(self.inside)

    def __getitem__(self, i):
        if self.inside[i]:
            return ConicVerdict(True, coefficients=self.coefficients[i],
                                residual=float(self.residuals[i]))
        if self.outside[i]:
            return ConicVerdict(False, normal=self.normals[i], margin=float(self.margins[i]))
        return None


def simplicial_membership(points, h1, h2, n, tol=DEFAULT_TOL):
    """Membership of each row x of points in cone{h1, h2} + span{n} in R^3
    (generators h1, h2, n, -n), decided with one inverse for the batch and
    returned as one SimplicialVerdicts record of arrays.

    The inverse of [h1 h2 n] has rows adj_i / det, where adj = (h2 x n,
    n x h1, h1 x h2) and det = <h1, h2 x n>; x has coordinates c = adj x / det.
      * Inside: mu = (c1+, c2+, c3+, c3-) has ||G^T mu - x|| <= eq_abs *
        max(1, ||x||), the NNLS test of conic_membership.
      * Outside: c_i < -gamma_6 <|x|, A_i> / |det| for i = 1 or 2, A_i the
        entrywise |a_j b_k| + |a_k b_j| of the cross product adj_i. That
        bounds the forward error of the computed c_i (gamma_2 per entry and
        gamma_3 for the dot product give gamma_5 for <adj_i, x>; the spare
        u absorbs rounding c_i and the bound), so c_i < 0 exactly. The
        normal s = -adj_i / det must also give <s, g> <= eq_abs on all four
        generators and <s, x> > margin_abs.
      * Otherwise ambiguous (neither mask set; the record's row is None),
        where conic_membership would stall.

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
