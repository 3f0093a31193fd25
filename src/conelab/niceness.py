"""Non-niceness evidence engine.

The flat face F of the 4D cone (the cone over the scaled planar side spanned
by curves 3 and 4) has orthogonal complement span{u}. The witness q lies in
the polar of F exactly, yet the smallest shift multiplier lambda that puts
q - lambda*u inside the sampled polar cone grows like 1/epsilon as the
sampling of curve 1 refines toward the common endpoint: the numeric shadow
of K_polar + F_perp not being closed. No finite sample can decide
non-membership outright, so the verdict is evidence, never proof.

Also here: the ingredient checks behind three-dimensional cones always being
nice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (load at import, not on the first np.random call)

from .construction import (
    CURVE_IDS,
    ENDPOINTS,
    T_END,
    curve_point,
    curve_points,
    homogenize,
    lift_points,
    sample_body,
    witness,
)
from .linalg import (
    DEFAULT_TOL,
    ConeModel,
    DegenerateInputError,
    DomainError,
    feasible_interval,
    nullspace,
    simplicial_membership,
)

# |<u, g>| below this counts as "no lambda dependence" when classifying
# constraints; 4*(1-cos t) clears it for every t >= 1e-5.
_U_COEFF_TOL = 1e-12


def perp_basis(points):
    """Orthonormal basis of the orthogonal complement of span(points).

    Degenerate input (numerical rank below min(len(points), dim)) is
    rejected rather than silently accepted. Each basis vector is re-checked
    against the equality system <point, v> = 0 before being returned.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    basis = nullspace(pts)
    rank = pts.shape[1] - len(basis)
    if rank < min(len(pts), pts.shape[1]):
        raise DegenerateInputError(
            f"points have rank {rank} < {min(len(pts), pts.shape[1])}; span is degenerate"
        )
    if len(basis) and np.abs(pts @ basis.T).max() > 1e-9:
        raise AssertionError("nullspace vector fails the defining system")
    return basis


def face_slice_points():
    """The lifts (1, 2p_i + SHIFT) of the endpoints p_i, i in {0, 3, 4},
    spanning the slice of the flat face; their perp is span{(1,0,0,-2)}."""
    return lift_points(np.vstack([ENDPOINTS[i] for i in (0, 3, 4)]))


def witness_slack(t, lam):
    """Value of <(1, 2*curve1(t) + SHIFT), q - lam*u>.

    Returned from the closed form 2*(2*(lam+1)*(cos t - 1) + sin t); the dot
    product route must agree to 1e-12 (checked on every call). Positive
    values certify that q - lam*u is not a valid polar functional.
    """
    closed = 2.0 * (2.0 * (lam + 1.0) * (math.cos(t) - 1.0) + math.sin(t))
    w = witness()
    direct = float(lift_points(curve_point(1, t))[0] @ (w.q - lam * w.u))
    if abs(closed - direct) > 1e-12:
        raise AssertionError(f"slack identity broke: |{closed} - {direct}|")
    return closed


@dataclass(frozen=True)
class ShiftProfile:
    """Per-generator lambda bounds for q - lambda*u in the sampled polar."""

    lower_bounds: tuple      # arrays (bound, curve_id, t), one entry per constraining generator
    counts: dict             # classification tallies; they sum to n_generators
    interval: tuple | None   # feasible (lo, hi); None when empty
    lambda_star: float | None
    achieving: tuple | None  # (curve_id, t) of the binding lower bound


def shift_profile(cone, tol=DEFAULT_TOL):
    """Classify every generator constraint <q, g> - lambda <u, g> <= 0 and
    intersect the induced one-variable bounds.

    cone must carry (curve ids, parameters) label arrays, as produced by
    homogenize.
    """
    w = witness()
    g = cone.generators
    if not cone.labels:
        raise DomainError("shift_profile needs labelled generators")
    ids, ts = cone.labels
    qg = g @ w.q
    ug = g @ w.u

    lower = ug > _U_COEFF_TOL
    upper = ug < -_U_COEFF_TOL
    flat = ~(lower | upper)
    unconditional = flat & (qg <= tol.eq_abs)
    counts = {
        "lower": int(lower.sum()),
        "upper": int(upper.sum()),
        "unconditional": int(unconditional.sum()),
        "infeasible-constant": int((flat & ~unconditional).sum()),
    }
    lower_vals = qg[lower] / ug[lower]
    upper_vals = qg[upper] / ug[upper]
    lower_ids, lower_ts = ids[lower], ts[lower]

    if counts["infeasible-constant"]:
        interval = None
    else:
        interval = feasible_interval(lower_vals, upper_vals)

    lambda_star = None
    achieving = None
    if interval is not None:
        lambda_star = interval[0]
        if lower_vals.size and math.isfinite(lambda_star):
            k = int(np.argmax(lower_vals))
            achieving = (int(lower_ids[k]), float(lower_ts[k]))
        if math.isfinite(lambda_star) and (counts["lower"] or counts["upper"]):
            # independent re-check of every constraint that depends on lambda
            bounded = lower | upper
            if (qg[bounded] - lambda_star * ug[bounded]).max() > 1e-9:
                raise AssertionError("feasible interval violates its own constraints")
    return ShiftProfile(
        lower_bounds=(lower_vals, lower_ids, lower_ts),
        counts=counts,
        interval=interval,
        lambda_star=lambda_star,
        achieving=achieving,
    )


def sweep_grid(epsilon, n):
    """Curve grid whose smallest positive parameter is exactly epsilon:
    0 followed by a geometric ladder from epsilon up to T."""
    if not (0.0 < epsilon < T_END):
        raise DomainError("epsilon must lie in (0, T)")
    if n < 8:
        raise DomainError("sweep grid needs at least 8 points")
    ladder = np.geomspace(epsilon, T_END, n - 1)
    ladder[0], ladder[-1] = epsilon, T_END
    return np.concatenate([[0.0], ladder])


def refined_cone(epsilon, samples_per_curve=512):
    """Cone over C' sampled with the epsilon-anchored grid on every curve."""
    grid = sweep_grid(epsilon, samples_per_curve)
    return homogenize(sample_body({i: grid for i in CURVE_IDS}))


def control_cone():
    """Polyhedral stand-in: the cone over the five scaled arc endpoints.
    Polyhedral cones are nice; the sweep must stay bounded on this one."""
    gens = lift_points(np.vstack(list(ENDPOINTS.values())))
    # the origin (endpoint 0) is labelled as the start of curve 1
    ids = np.array([1, *CURVE_IDS])
    ts = np.array([0.0] + [T_END] * len(CURVE_IDS))
    return ConeModel(gens, labels=(ids, ts))


@dataclass(frozen=True)
class ClosureReport:
    """Exact membership of q in the polar of the flat face: both closed
    forms 2(cos t - 1) and -2 sin t are analytically nonpositive."""

    max_curve3_value: float
    max_curve4_value: float
    max_identity_residual: float
    in_closure: bool


def closure_check(n=512):
    ts = np.linspace(0.0, T_END, n)
    w = witness()
    vals3 = 2.0 * (np.cos(ts) - 1.0)
    vals4 = -2.0 * np.sin(ts)
    gens3 = lift_points(curve_points(3, ts))
    gens4 = lift_points(curve_points(4, ts))
    res = max(
        float(np.abs(gens3 @ w.q - vals3).max()),
        float(np.abs(gens4 @ w.q - vals4).max()),
    )
    m3, m4 = float(vals3.max()), float(vals4.max())
    return ClosureReport(
        max_curve3_value=m3,
        max_curve4_value=m4,
        max_identity_residual=res,
        in_closure=(m3 <= 0.0 and m4 <= 0.0 and res <= 1e-12),
    )


@dataclass(frozen=True)
class NicenessVerdict:
    in_closure: bool
    closure: ClosureReport
    table: tuple             # rows (epsilon, lambda_star, product, curve_id, t)
    fitted_exponent: float   # slope of log(lambda_star) against log(1/epsilon)
    verdict: str             # "NotNiceEvidence" | "Inconclusive"
    dual_form_note: str = (
        "computed for the polar cone; the dual-cone sum is its negative, "
        "so the same divergence applies to it"
    )


def validate_eps(eps_list):
    """The refinement levels as a tuple of floats; they must lie in (0, T)
    (so are finite) and be strictly decreasing."""
    eps = tuple(float(e) for e in eps_list)
    if not eps:
        raise DomainError("epsilon list must not be empty")
    if any(not 0.0 < e < T_END for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
        raise DomainError("epsilon list must be strictly decreasing and lie in (0, T)")
    return eps


def divergence_sweep(eps_list, samples_per_curve=512, control=False, tol=DEFAULT_TOL):
    """Run shift_profile per refinement level and fit the divergence.

    Verdict NotNiceEvidence requires the exact closure check to pass and
    lambda_star * epsilon to settle in [0.8, 1.2] on the last three levels
    (at least three levels are needed; otherwise Inconclusive).
    """
    eps = validate_eps(eps_list)
    rows = []
    for e in eps:
        cone = control_cone() if control else refined_cone(e, samples_per_curve)
        prof = shift_profile(cone, tol=tol)
        lam = prof.lambda_star
        product = lam * e if lam is not None and math.isfinite(lam) else math.nan
        cid, t = prof.achieving if prof.achieving else (None, None)
        rows.append((e, lam, product, cid, t))

    closure = closure_check(samples_per_curve)

    finite = [(e, lam) for e, lam, *_ in rows if lam is not None and lam > 0]
    if len(finite) >= 2:
        x = np.log([1.0 / e for e, _ in finite])
        y = np.log([lam for _, lam in finite])
        exponent = float(np.polyfit(x, y, 1)[0])
    else:
        exponent = math.nan

    products = [p for *_, p, _, _ in rows]
    tail = products[-3:]
    diverges = len(rows) >= 3 and all(
        math.isfinite(p) and 0.8 <= p <= 1.2 for p in tail
    )
    verdict = "NotNiceEvidence" if (closure.in_closure and diverges) else "Inconclusive"
    return NicenessVerdict(
        in_closure=closure.in_closure,
        closure=closure,
        table=tuple(rows),
        fitted_exponent=exponent,
        verdict=verdict,
    )


@dataclass(frozen=True)
class Nice3DReport:
    projections: tuple            # q_1, q_2 as arrays
    sign_pattern_ok: bool
    projection_identity_residual: float
    agreement_checked: int
    agreement_failures: int
    agreement_skipped: int        # boundary-ambiguous membership calls
    dual_wedge_checked: int
    dual_wedge_failures: int
    converse_max_violation: float
    passed: bool


def nice3d_ingredients(cone, p1, p2, h1, h2, n_samples=1200, seed=7, tol=DEFAULT_TOL):
    """Ingredient checks for "every facially exposed 3D cone is nice".

    Given a 3D cone with 2D face F = cone{p1, p2} and normals h1, h2 exposing
    the edge rays (h_i nonnegative on the cone, zero exactly on the ray of
    p_i), verifies:

      * q_i = projection of h_i onto span F is nonzero, with the sign
        pattern <q_i, p_i> = 0 and <q_i, p_j> > 0 for i != j;
      * projecting commutes with membership: x in cone{h1,h2} + F_perp
        iff its projection lies in cone{q1,q2} + F_perp, on random samples;
      * every sampled element of the dual wedge of F lies in
        cone{h1,h2} + F_perp, and conversely every sampled element of that
        sum satisfies the wedge inequalities.

    Normals lying in F_perp are rejected: they could not single out an edge.
    Both sums are simplicial: membership is exact (simplicial_membership,
    which raises DegenerateInputError if q1 and q2 are parallel); the counts
    come from its inside/outside masks. The dual wedge is sampled in blocks
    that consume the generator exactly as one draw at a time would.
    """
    g = cone.generators
    if g.shape[1] != 3:
        raise DomainError("nice3d_ingredients expects a 3D cone")
    p1, p2 = (np.asarray(p, dtype=float) for p in (p1, p2))
    perp = perp_basis(np.vstack([p1, p2]))
    if len(perp) != 1:
        raise DegenerateInputError("face generators must span a plane")
    nrm = perp[0]

    hs = [np.asarray(h, dtype=float) for h in (h1, h2)]
    qs = [h - float(h @ nrm) * nrm for h in hs]
    for h, q in zip(hs, qs):
        if float((g @ h).min()) < -tol.eq_abs:
            raise DomainError("exposing normal is negative somewhere on the cone")
        if float(np.linalg.norm(q)) <= tol.eq_abs:
            raise DomainError(
                "exposing normal lies in the face's orthogonal complement; "
                "it would expose the whole face, not an edge"
            )

    sign_ok = all(
        abs(float(q @ p_own)) <= tol.eq_abs and float(q @ p_other) > tol.eq_abs
        for q, p_own, p_other in ((qs[0], p1, p2), (qs[1], p2, p1))
    )
    proj_res = max(abs(float(q @ p) - float(h @ p)) for h, q in zip(hs, qs) for p in (p1, p2))

    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n_samples, 3))
    lifted = simplicial_membership(xs, *hs, nrm, tol=tol)
    planar = simplicial_membership(xs - np.outer(xs @ nrm, nrm), *qs, nrm, tol=tol)
    both = (lifted.inside | lifted.outside) & (planar.inside | planar.outside)
    checked = int(both.sum())
    skipped = n_samples - checked
    failures = int((lifted.inside != planar.inside)[both].sum())

    # Rejection-sample the dual wedge in blocks: each draw takes as many
    # normal rows as are still missing, so it never overshoots and the
    # generator stops on the draw where one-at-a-time sampling would stop.
    # An ambiguous membership verdict costs a redraw in the next round.
    wedge_checked = wedge_failures = 0
    while wedge_checked < n_samples:
        ys = np.empty((n_samples - wedge_checked, 3))
        filled = 0
        while filled < len(ys):
            y = rng.normal(size=(len(ys) - filled, 3))
            y = y[(y @ p1 >= 0.0) & (y @ p2 >= 0.0)]
            ys[filled:filled + len(y)] = y
            filled += len(y)
        wedge = simplicial_membership(ys, *hs, nrm, tol=tol)
        wedge_checked += int((wedge.inside | wedge.outside).sum())
        wedge_failures += int(wedge.outside.sum())

    combos = rng.random(size=(n_samples, 3))
    pts = combos[:, :1] * hs[0] + combos[:, 1:2] * hs[1] + (combos[:, 2:] - 0.5) * 4.0 * nrm
    converse = float(-np.minimum(pts @ p1, pts @ p2).min())

    passed = (
        sign_ok
        and proj_res <= 1e-12
        and failures == 0
        and wedge_failures == 0
        and converse <= tol.eq_abs
        and checked >= max(1, int(0.8 * n_samples))
    )
    return Nice3DReport(
        projections=tuple(qs),
        sign_pattern_ok=sign_ok,
        projection_identity_residual=proj_res,
        agreement_checked=checked,
        agreement_failures=failures,
        agreement_skipped=skipped,
        dual_wedge_checked=wedge_checked,
        dual_wedge_failures=wedge_failures,
        converse_max_violation=converse,
        passed=passed,
    )


def octant_example():
    """Nonnegative octant with face cone{e1, e2}: everything orthogonal."""
    cone = ConeModel(np.eye(3))
    p1, p2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    h1, h2 = np.array([0.0, 1.0, 1.0]), np.array([1.0, 0.0, 1.0])
    return cone, p1, p2, h1, h2


def half_disc_cone_example(n=65):
    """Cone over the half-disc {|x| <= 1, y >= 0} with its flat 2D face.

    The corner rays (1, +-1, 0) are exposed by h = (1, -+1, 1), obtained by
    lifting the corner-exposing pairs of the half-disc.
    """
    phi = np.linspace(0.0, math.pi, n)
    gens = np.stack([np.ones(n), np.cos(phi), np.sin(phi)], axis=1)
    cone = ConeModel(gens)
    p1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    p2 = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    h1 = np.array([1.0, 1.0, 1.0])
    h2 = np.array([1.0, -1.0, 1.0])
    return cone, p1, p2, h1, h2
