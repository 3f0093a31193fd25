"""Helpers used only by the tests."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import optimize

from conelab.construction import CURVE_IDS, SHIFT
from conelab.faces import (
    MARGIN_DELTAS,
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
    simplicial_membership,
)
from conelab.niceness import Nice3DReport, perp_basis


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


def positivity_window(alpha):
    """Largest guaranteed window (0, t_alpha) on which
    alpha*(cos t - 1) + sin t stays positive.

    alpha <= 0: pi/2 exactly. alpha > 0: the positive root of
    t^2 + 3*alpha*t - 6 = 0, where the quadratic minorant
    t*(1 - alpha*t/2 - t^2/6) loses positivity.
    """
    a = float(alpha)
    if a <= 0.0:
        return math.pi / 2.0
    return (-3.0 * a + math.sqrt(9.0 * a * a + 24.0)) / 2.0


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
    res = optimize.linprog(
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
    return ExposingPair(y / np.linalg.norm(y), res.x[3] / np.linalg.norm(y))


def polar_generator_model(samples, directions):
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
    return ConeModel(np.vstack([gens, deep]))


# Reference membership: the general LP route for any finitely generated cone,
# against which the exact simplicial route (linalg.simplicial_membership) is
# cross-checked. The solvers are looked up on scipy.optimize at call time, so
# counters patched there see these calls.

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


def reference_conic_membership(point, cone, tol=DEFAULT_TOL):
    """Decide whether point lies in the conic hull of cone.generators.

    Dual route: nonnegative least squares for an inside certificate, an LP
    over the box |s|_inf <= 1 for a separating normal. Returns None when
    neither certificate is conclusive (point within tolerance of the
    sampled boundary).
    """
    g = cone.generators
    x = np.asarray(point, dtype=float)
    if x.shape != (g.shape[1],):
        raise DimensionMismatchError(f"expected a vector of dimension {g.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise DomainError("vector has NaN or infinite components")
    scale = max(1.0, float(np.linalg.norm(x)))

    residual = math.inf
    try:
        coeffs, _ = optimize.nnls(g.T, x)
        # the residual reported by nnls is not trustworthy on all scipy
        # versions; recompute it from the certificate itself
        residual = float(np.linalg.norm(g.T @ coeffs - x))
    except RuntimeError:  # iteration cap; fall through to the separation LP
        coeffs = None
    if residual <= tol.eq_abs * scale:
        return ConicVerdict(inside=True, coefficients=coeffs, residual=residual)

    # Separation: maximize <s, x> subject to <s, g> <= 0, |s_i| <= 1.
    res = optimize.linprog(
        c=-x,
        A_ub=g,
        b_ub=np.zeros(len(g)),
        bounds=[(-1.0, 1.0)] * g.shape[1],
        method="highs",
    )
    if res.status == 0 and -res.fun > tol.margin_abs:
        s = np.asarray(res.x, dtype=float)
        return ConicVerdict(inside=False, normal=s, margin=float(np.dot(s, x)))
    return None


def row_verdict(verdicts, i):
    """Row i of a SimplicialVerdicts record as a ConicVerdict, or None when
    the row is ambiguous."""
    if verdicts.inside[i]:
        return ConicVerdict(True, coefficients=verdicts.coefficients[i],
                            residual=float(verdicts.residuals[i]))
    if verdicts.outside[i]:
        return ConicVerdict(False, normal=verdicts.normals[i], margin=float(verdicts.margins[i]))
    return None


def row_verdicts(verdicts):
    """Every row of a SimplicialVerdicts record, as row_verdict builds it."""
    return [row_verdict(verdicts, i) for i in range(len(verdicts.inside))]


# Reference exposure checks: one face and one full pass over the samples at
# a time, as the library ran them before its blocked kernel
# (faces.verify_catalogue), on the cone over C' sampled curve by curve and
# the per-face cone functionals, as the library built them before
# construction.lift_points and lift_pairs. The kernel must reproduce their
# reports exactly.

def reference_cone(body):
    """The cone over C': each curve's samples p of C moved to 2p + SHIFT,
    then homogenized to (1, 2p + SHIFT)."""
    pts = np.vstack([2.0 * body.points[i] + SHIFT for i in CURVE_IDS])
    return ConeModel(np.hstack([np.ones((len(pts), 1)), pts]), labels=(body.ids, body.ts))


def reference_lift(pair):
    """The cone functional (-(2d + <y, SHIFT>), y) of one body pair (y, d):
    the pair moved to C' = 2C + SHIFT, then lifted to (-d', y)."""
    return np.concatenate([[-(2.0 * pair.offset + float(pair.normal @ SHIFT))], pair.normal])


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
    """Body check of one exposing pair on the samples of C."""
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
    """Lifted check of one cone functional (-d', y) on the cone's
    generators: the measured equality set |value| <= eq_abs must hold every
    on-face generator and no generator at parameter distance >= min(deltas)."""
    y = np.asarray(lifted, dtype=float)
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


# Reference nice3d: the dual wedge drawn one rng.normal(size=3) at a time and
# every count taken from per-row verdicts, as the library ran it before its
# block sampler. nice3d_ingredients must reproduce its reports exactly.

def reference_wedge_draws(rng, p1, p2, count):
    """count points of the dual wedge <y, p1> >= 0, <y, p2> >= 0,
    rejection-sampled one draw at a time."""
    ys = []
    while len(ys) < count:
        y = rng.normal(size=3)
        if float(y @ p1) >= 0.0 and float(y @ p2) >= 0.0:
            ys.append(y)
    return np.array(ys)


def reference_nice3d_ingredients(cone, p1, p2, h1, h2, n_samples=1200, seed=7, tol=DEFAULT_TOL):
    """The report of nice3d_ingredients on inputs it accepts."""
    p1, p2 = (np.asarray(p, dtype=float) for p in (p1, p2))
    nrm = perp_basis(np.vstack([p1, p2]))[0]
    hs = [np.asarray(h, dtype=float) for h in (h1, h2)]
    qs = [h - float(h @ nrm) * nrm for h in hs]
    sign_ok = all(
        abs(float(q @ p_own)) <= tol.eq_abs and float(q @ p_other) > tol.eq_abs
        for q, p_own, p_other in ((qs[0], p1, p2), (qs[1], p2, p1))
    )
    proj_res = max(abs(float(q @ p) - float(h @ p)) for h, q in zip(hs, qs) for p in (p1, p2))

    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n_samples, 3))
    lifted = simplicial_membership(xs, *hs, nrm, tol=tol)
    planar = simplicial_membership(xs - np.outer(xs @ nrm, nrm), *qs, nrm, tol=tol)
    both = [(a.inside, b.inside) for a, b in zip(row_verdicts(lifted), row_verdicts(planar))
            if a is not None and b is not None]
    failures = sum(a != b for a, b in both)

    wedge_checked = wedge_failures = 0
    while wedge_checked < n_samples:
        ys = reference_wedge_draws(rng, p1, p2, n_samples - wedge_checked)
        verdicts = [v for v in row_verdicts(simplicial_membership(ys, *hs, nrm, tol=tol))
                    if v is not None]
        wedge_checked += len(verdicts)
        wedge_failures += sum(not v.inside for v in verdicts)

    combos = rng.random(size=(n_samples, 3))
    pts = combos[:, :1] * hs[0] + combos[:, 1:2] * hs[1] + (combos[:, 2:] - 0.5) * 4.0 * nrm
    converse = float(-np.minimum(pts @ p1, pts @ p2).min())

    passed = (
        sign_ok
        and proj_res <= 1e-12
        and failures == 0
        and wedge_failures == 0
        and converse <= tol.eq_abs
        and len(both) >= max(1, int(0.8 * n_samples))
    )
    return Nice3DReport(
        projections=tuple(qs),
        sign_pattern_ok=sign_ok,
        projection_identity_residual=proj_res,
        agreement_checked=len(both),
        agreement_failures=int(failures),
        agreement_skipped=n_samples - len(both),
        dual_wedge_checked=wedge_checked,
        dual_wedge_failures=int(wedge_failures),
        converse_max_violation=converse,
        passed=passed,
    )


# Reference strip split for the meshes: each quad's diagonal chosen by a float
# support test, as the library chose it before it fixed the diagonal
# (meshes.build_mesh). Wherever that test was right, the fixed split must
# reproduce its triangles exactly.

def reference_pick_diagonal(verts, quad, interior):
    """Split quad (a, b, c, d) (a-b and d-c are consecutive rulings) along
    the diagonal whose two triangle planes keep the opposite corner on the
    same side as the body interior."""
    a, b, c, d = quad

    def supports(tri, other):
        p = verts[list(tri)]
        n = np.cross(p[1] - p[0], p[2] - p[0])
        off = n @ p[0]
        s_other = n @ verts[other] - off
        s_int = n @ interior - off
        return s_other * s_int >= -1e-15

    if supports((a, b, c), d) and supports((a, c, d), b):
        return [(a, b, c), (a, c, d)]
    return [(a, b, d), (b, c, d)]


def strip_quads(n):
    """Vertex indices (a_j, b_j, b_{j+1}, a_{j+1}) of every ruled-strip quad
    of an n-sample mesh, curve-1/3 strip first, then curve 4/2; the vertex
    layout is the shared endpoint, then n samples of each curve 1..4."""
    idx = {cid: 1 + (cid - 1) * n + np.arange(n) for cid in (1, 2, 3, 4)}
    return [
        [(a[j], b[j], b[j + 1], a[j + 1]) for j in range(n - 1)]
        for a, b in ((idx[1], idx[3]), (idx[4], idx[2]))
    ]


def reference_strip_triangles(verts, n):
    """Both ruled strips, apex triangle first, split by the reference test."""
    interior = verts.mean(axis=0)
    tris = []
    for quads in strip_quads(n):
        tris.append((0, quads[0][0], quads[0][1]))
        for quad in quads:
            tris.extend(reference_pick_diagonal(verts, quad, interior))
    return tris


def exact_orientation(p, q, r, s):
    """Exact det(q - p, r - p, s - p) of float points, as a Fraction."""
    u, v, w = ([Fraction(x) - Fraction(y) for x, y in zip(pt, p)] for pt in (q, r, s))
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))
