"""Helpers used only by the tests."""

import math
from typing import NamedTuple

import numpy as np

from conelab import faces as fc
from conelab import niceness as nn
from conelab.construction import (
    CURVE_IDS,
    SHIFT,
    T_END,
    WITNESS_Q,
    WITNESS_U,
    _ARC_COLUMNS,
    RulingData,
    arc_coefficients,
    arc_sines,
    arc_value,
    check_grid,
    curve_grid,
    curve_points,
    lift_points,
    ruling_data,
    theta_grid,
)
from conelab.faces import MARGIN_DELTAS
from conelab.linalg import DomainError


_SQRT2_INV = 1.0 / math.sqrt(2.0)

# Arc endpoints; index 0 is the common point of all four arcs.
ENDPOINTS = {
    0: np.zeros(3),
    1: np.array([0.0, -_SQRT2_INV, _SQRT2_INV - 1.0]),
    2: np.array([0.0, _SQRT2_INV - 1.0, -_SQRT2_INV]),
    3: np.array([-_SQRT2_INV, 1.0 - _SQRT2_INV, 0.0]),
    4: np.array([_SQRT2_INV - 1.0, _SQRT2_INV, 0.0]),
}


# Reference catalogue: the per-face scalar route that faces.build_catalogue
# replaces. Each theta gets one math-module evaluation of the ruling closed
# forms, each face a FaceDescriptor and an ExposingPair, and the generator
# points are gathered generator by generator. The array catalogue must equal
# it bit for bit.

class FaceDescriptor(NamedTuple):
    kind: str
    dimension: int
    param: float | None = None       # t for F0i, theta for F11/F12
    partner: float | None = None     # partner parameter for F11/F12
    anchors: tuple = ()              # ((curve_id, t), ...) pinning the face
    full_curves: tuple = ()          # curves wholly contained in the face

    def label(self):
        if self.param is None:
            return self.kind
        return f"{self.kind}({self.param:.6f})"


class ExposingPair(NamedTuple):
    normal: np.ndarray
    offset: float


class ExposureReport(NamedTuple):
    face_label: str
    max_onface_residual: float
    margins: dict            # delta -> smallest measured margin at that radius
    verdict: str             # "pass" | "fail"
    onface_count: int | None = None  # samples on the face (sampled references)

    @property
    def passed(self):
        return self.verdict == "pass"


# Endpoint-anchored faces: kind -> (endpoint indices, dimension).
_FIXED_FACES = {
    "F13": ((1, 2), 1),
    "F14": ((3, 4), 1),
    "F15": ((2, 3), 1),
    "F21": ((1, 2, 3), 2),
    "F22": ((2, 3, 4), 2),
}


def reference_ruling(theta):
    """The ruling at one theta in (0, T] (clamped there), in math-module
    arithmetic: partner cosine from the half-angle form, its math.acos
    clamped to T, normals and offset."""
    theta = min(max(float(theta), 0.0), T_END)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    ct = c / (c + s)
    t = min(math.acos(ct), T_END)
    st, sth, cth = math.sin(t), math.sin(theta), math.cos(theta)
    return RulingData(theta, t, np.array([-st * sth, -ct * sth, ct * cth]),
                      np.array([ct * cth, sth * ct, -st * sth]), ct * (1.0 - cth))


def reference_theta_for_partner(t):
    """The theta whose partner is t, by math.atan2."""
    t = min(max(float(t), 0.0), T_END)
    return math.pi - 2.0 * math.atan2(math.cos(t), 1.0 - math.cos(t))


def singleton_pair(curve_id, t):
    """Closed-form exposing pair for the singleton face {curve_i(t)}."""
    if curve_id == 1:
        return ExposingPair(np.array([1.0, -math.sin(t), math.cos(t)]), 1.0 - math.cos(t))
    if curve_id == 4:
        return ExposingPair(np.array([math.cos(t), math.sin(t), 1.0]), 1.0 - math.cos(t))
    r = reference_ruling(reference_theta_for_partner(t))
    if curve_id == 3:
        return ExposingPair(r.normal + np.array([0.0, 0.0, 1.0]), r.offset)
    return ExposingPair(r.mirror_normal + np.array([1.0, 0.0, 0.0]), r.offset)


def exposing_pair(face):
    """Closed-form exposing pair for a catalogued face: singletons and
    rulings from the ruling machinery, the fixed faces from their table."""
    kind = face.kind
    if kind in ("F01", "F02", "F03", "F04"):
        return singleton_pair(int(kind[2]), face.param)
    if kind in ("F11", "F12"):
        r = reference_ruling(face.param)
        return ExposingPair(r.normal if kind == "F11" else r.mirror_normal, r.offset)
    y, d, *_ = fc._FIXED[kind]
    return ExposingPair(np.array(y) / math.hypot(*y), d)


def enumerate_faces(theta_grid):
    """The catalogue's faces, one FaceDescriptor each, in catalogue order."""
    faces = [FaceDescriptor("F00", 0, anchors=tuple((i, 0.0) for i in CURVE_IDS))]
    for i in CURVE_IDS:
        faces.extend(
            FaceDescriptor(f"F0{i}", 0, param=float(t), anchors=((i, float(t)),))
            for t in theta_grid
        )
    for th in theta_grid:
        t = reference_ruling(th).t
        faces.append(FaceDescriptor("F11", 1, param=float(th), partner=t,
                                    anchors=((1, float(th)), (3, t))))
        faces.append(FaceDescriptor("F12", 1, param=float(th), partner=t,
                                    anchors=((4, float(th)), (2, t))))
    for kind, (ends, dim) in _FIXED_FACES.items():
        faces.append(FaceDescriptor(kind, dim, anchors=tuple((i, T_END) for i in ends)))
    faces.append(FaceDescriptor("F23", 2, full_curves=(1, 2)))
    faces.append(FaceDescriptor("F24", 2, full_curves=(3, 4)))
    return faces


def reference_catalogue(theta_grid):
    """(face, pair) rows of the catalogue over the theta grid."""
    return [(face, exposing_pair(face)) for face in enumerate_faces(theta_grid)]


def face_generators(face):
    """The generator points of the face as (curve, t) pairs: its anchors,
    or t = 0, T/2 and T on each curve wholly contained in a planar side."""
    if face.full_curves:
        return [(i, t) for i in face.full_curves for t in (0.0, T_END / 2, T_END)]
    return list(face.anchors)


def reference_generator_points(faces):
    """The points of face_generators, one (k, 3) array per face, filled
    generator by generator from one curve_points call per curve on the
    parameters clamped to [0, T]."""
    points = []
    slots = {i: ([], []) for i in CURVE_IDS}  # curve -> [(face, row)], [t]
    for j, face in enumerate(faces):
        generators = face_generators(face)
        points.append(np.empty((len(generators), 3)))
        for k, (i, t) in enumerate(generators):
            slots[i][0].append((j, k))
            slots[i][1].append(t)
    for i, (where, ts) in slots.items():
        for (j, k), p in zip(where, curve_points(i, np.clip(np.array(ts), 0.0, T_END))):
            points[j][k] = p
    return points


def catalogue_of(rows):
    """The array catalogue (faces.Catalogue) of (face, pair) rows."""
    faces = [face for face, _ in rows]
    generators = [face_generators(face) for face in faces]
    flat = [g for gs in generators for g in gs]
    return fc.Catalogue(
        kinds=[face.kind for face in faces],
        params=np.array([math.nan if f.param is None else f.param for f in faces]),
        partners=np.array([math.nan if f.partner is None else f.partner for f in faces]),
        full=np.array([[i in f.full_curves for i in CURVE_IDS] for f in faces],
                      dtype=bool).reshape(-1, 4),
        normals=np.array([pair.normal for _, pair in rows], dtype=float).reshape(-1, 3),
        offsets=np.array([pair.offset for _, pair in rows], dtype=float),
        sizes=np.array([len(g) for g in generators], dtype=int),
        gen_ids=np.array([i for i, _ in flat], dtype=int),
        gen_ts=np.array([t for _, t in flat], dtype=float),
    )


def face_rows(catalogue):
    """(face, pair) rows of an array catalogue, one FaceDescriptor and
    ExposingPair per face."""
    ends = np.cumsum(catalogue.sizes).tolist()
    rows = []
    for j, (kind, param, partner) in enumerate(zip(catalogue.kinds, catalogue.params.tolist(),
                                                   catalogue.partners.tolist())):
        part = slice(ends[j] - int(catalogue.sizes[j]), ends[j])
        generators = tuple(zip(catalogue.gen_ids[part].tolist(), catalogue.gen_ts[part].tolist()))
        full = tuple(i for i, on in zip(CURVE_IDS, catalogue.full[j].tolist()) if on)
        face = FaceDescriptor(kind, int(kind[1]),
                              param=None if math.isnan(param) else param,
                              partner=None if math.isnan(partner) else partner,
                              anchors=() if full else generators, full_curves=full)
        rows.append((face, ExposingPair(catalogue.normals[j], float(catalogue.offsets[j]))))
    return rows


def exposure_reports(catalogue, deltas=MARGIN_DELTAS):
    """The verdicts of faces.verify_catalogue as one ExposureReport per face,
    the form of the per-face reference."""
    exposure = fc.verify_catalogue(catalogue, deltas=deltas)
    return [
        ExposureReport(fc.face_label(catalogue, j), residual, dict(zip(deltas, margins)),
                       "pass" if ok else "fail")
        for j, (residual, margins, ok) in enumerate(zip(
            exposure.residuals.tolist(), exposure.margins.tolist(), exposure.passed.tolist()))
    ]


# Sampled bodies: the per-face references scan the samples of C on grids that
# hold every face anchor, as the library sampled its body for the exposure
# check before that check became closed-form over whole arcs.

class BodySamples(NamedTuple):
    """Samples of C stacked curve by curve: xyz[k] is the point of curve
    ids[k] at parameter ts[k]."""

    ids: np.ndarray
    ts: np.ndarray
    xyz: np.ndarray


class Cone(NamedTuple):
    """Generators of the sampled cone K, one per row, with the (curve id,
    parameter) label of the sample of C that each one lifts."""

    generators: np.ndarray
    ids: np.ndarray
    ts: np.ndarray


def sample_cone(grids):
    """The cone K over C' sampled on grids, a dict curve_id -> parameters (or
    one array for every curve), each checked by construction.check_grid: one
    curve_points call per curve, the points stacked into a body and then
    lifted. This is the dot-product route that the closed-form rows of
    niceness.shift_bounds (reference_shift_bounds) are cross-checked
    against: <u, g> and <q, g> are g @ WITNESS_U and g @ WITNESS_Q."""
    if not isinstance(grids, dict):
        grids = dict.fromkeys(CURVE_IDS, grids)
    grids = {i: np.array(check_grid(grids.get(i, ()))) for i in CURVE_IDS}
    return Cone(lift_points(np.vstack([curve_points(i, grids[i]) for i in CURVE_IDS])),
                np.concatenate([np.full(grids[i].size, i) for i in CURVE_IDS]),
                np.concatenate([grids[i] for i in CURVE_IDS]))


def sample_body(grids):
    """The samples of C on per-curve grids, as sample_cone takes them, with
    the labels of sample_cone; each curve's points come from one
    curve_points call."""
    cone = sample_cone(grids)
    xyz = np.vstack([curve_points(i, cone.ts[cone.ids == i]) for i in CURVE_IDS])
    return BodySamples(cone.ids, cone.ts, xyz)


def merge_grids(*grids):
    """Sorted union of parameter grids, each value once."""
    g = np.sort(np.concatenate(grids))
    return g[np.concatenate([[True], g[1:] != g[:-1]])]


def verification_grids(theta_grid_size, curve_grid_size):
    """The face catalogue over a theta grid of theta_grid_size points, and
    per-curve sample grids holding every face anchor: the uniform curve grid
    of curve_grid_size points with the theta grid on curves 1/4, and with
    the thetas and the rulings' partners on curves 2/3 (curves 1/4 carry the
    ruling parameter, 2/3 its partner)."""
    thetas = theta_grid(theta_grid_size)
    catalogue = fc.build_catalogue(thetas)
    base = curve_grid(curve_grid_size)
    outer = merge_grids(base, thetas)
    inner = merge_grids(base, catalogue.partners[~np.isnan(catalogue.partners)], thetas)
    return catalogue, {1: outer, 2: inner, 3: inner, 4: outer}


def identity_suite(t, theta):
    """Residuals of the six inner-product identities behind the catalogue.

    Each identity is evaluated twice, once as a numeric dot product and once
    from its trigonometric closed form, and the absolute difference is
    returned. t and theta may be scalars or arrays, t in [0, T] and theta in
    (0, T]; the residuals have shape theta.shape + t.shape. The arcs are
    evaluated on t once, and the rulings in one ruling_data call. All six are
    <= 1e-12 across the whole parameter square.
    """
    shape = np.shape(theta) + np.shape(t)
    t = np.asarray(t, dtype=float).reshape(-1)
    g = {i: curve_points(i, t) for i in CURVE_IDS}
    r = ruling_data(np.reshape(theta, -1))
    y = r.normal[:, :, None]
    # the closed-form factors of each ruling, one row per theta
    th, tt = r.theta[:, None], r.t[:, None]
    cos_tt, sin_th, cos_th, sin_tt = np.cos(tt), np.sin(th), np.cos(th), np.sin(tt)
    # one matrix-vector product per theta, the bits of points @ y
    dot = {i: np.matmul(g[i], y)[:, :, 0] for i in CURVE_IDS}
    y3 = y + np.array([0.0, 0.0, 1.0])[:, None]
    dot3 = {i: np.matmul(g[i], y3)[:, :, 0] for i in (1, 2)}
    res = {
        "curve1_vs_ruling": np.abs(dot[1] - cos_tt * (np.cos(t - th) - cos_th)),
        "curve3_vs_ruling": np.abs(dot[3] - sin_th * (np.cos(t - tt) - cos_tt)),
        "curve2_vs_ruling": np.abs(dot[2] - cos_tt * (sin_th - np.sin(t + th))),
        "curve4_vs_ruling": np.abs(dot[4] - sin_th * (sin_tt - np.sin(t + tt))),
        "curve1_vs_shifted": np.abs(dot3[1] - (dot[1] + np.cos(t) - 1.0)),
        "curve2_vs_shifted": np.abs(dot3[2] - (dot[2] - np.sin(t))),
    }
    return {k: v.reshape(shape) for k, v in res.items()}


def face_slice_points():
    """The lifts (1, 2p_i + SHIFT) of the endpoints p_i, i in {0, 3, 4},
    spanning the slice of the flat face; their perp is span{(1,0,0,-2)}."""
    return lift_points(np.vstack([ENDPOINTS[i] for i in (0, 3, 4)]))


def face_sample_points(face):
    """The generator points of one face, one per row, one scalar
    curve_points call each."""
    return np.vstack([curve_points(i, t) for i, t in face_generators(face)])


def witness_slack(t, lam):
    """Value of <(1, 2*curve1(t) + SHIFT), q - lam*u> from its closed form
    2*(2*(lam+1)*(cos t - 1) + sin t). Positive values certify that
    q - lam*u is not a valid polar functional."""
    return 2.0 * (2.0 * (lam + 1.0) * (math.cos(t) - 1.0) + math.sin(t))


def mirror_point(x):
    """The involution (x1,x2,x3) -> (x3,-x2,x1); swaps curves 1<->4 and
    2<->3 and maps each ruling normal to its mirror."""
    x = np.asarray(x, dtype=float)
    return np.array([x[..., 2], -x[..., 1], x[..., 0]]).T if x.ndim > 1 else np.array([x[2], -x[1], x[0]])


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


def reference_arc_coefficients(normals):
    """construction.arc_coefficients as the matrix products it once was:
    normals @ a and normals @ b, where a and b stack the arcs' columns
    (construction._ARC_COLUMNS) at sin t = 1, cos t = 1 and at sin t = 0,
    cos t = 2, one column per curve."""
    a, b = (np.array([_ARC_COLUMNS[i](*sc) for i in CURVE_IDS]).T
            for sc in ((1.0, 1.0), (0.0, 2.0)))
    return normals @ a, normals @ b


def ladder(eps, n):
    """Curve grid of n >= 3 points whose smallest positive parameter is
    exactly eps: 0, then the geometric ladder eps * exp(k log(T/eps) / (n - 2)),
    k = 0, ..., n - 2, ending at exactly T; rungs that round past T are
    clipped to it. A dense grid for the niceness.shift_bounds tests, whose
    sweep samples each level at 0, eps and T alone."""
    grid = eps * np.exp(np.arange(-1.0, n - 1.0) * (math.log(T_END / eps) / (n - 2)))
    grid = np.minimum(grid, T_END)
    grid[0], grid[1], grid[-1] = 0.0, eps, T_END
    return grid


def reference_shift_bounds(grid):
    """The lower bounds that niceness.shift_bounds maximizes, as
    (bound, curve_id, t) arrays, one entry per row with <u, g> > 0, curve by
    curve: each curve's rows <u, g> and <q, g> from one
    construction.arc_value call each on that curve's scalar (A, B) and the
    grid's arc_sines."""
    grid = np.asarray(grid, dtype=float)
    a, b = arc_coefficients(np.array([WITNESS_U[1:], WITNESS_Q[1:]]))
    sines = arc_sines(grid)
    parts = []
    for k, i in enumerate(CURVE_IDS):
        ug, qg = (arc_value(a[j, k], b[j, k], sines) for j in (0, 1))
        on = ug > 0.0
        parts.append((qg[on] / ug[on], np.full(int(on.sum()), i), grid[on]))
    return tuple(np.concatenate(column) for column in zip(*parts))


# The numpy route: niceness.divergence_sweep as it ran on arrays before it
# moved to Python floats and math. Each level's grid is an array, its sines
# come from np.sin, each curve's bounds from one np.divide and np.argmax, and
# the closure maxima from np.arctan2, np.clip and np.maximum on q's curve-3/4
# coefficients. The float route must equal it bit for bit.

def _numpy_sines(t):
    """(sin t, sin(t/2)) of t clipped into [0, T], by np.clip and np.sin."""
    t = np.clip(t, 0.0, T_END)
    return np.sin(t), np.sin(t / 2.0)


def _numpy_witness_arcs():
    """(A, B) of u and q, each (2, 4), by arc_coefficients."""
    return arc_coefficients(np.array([WITNESS_U[1:], WITNESS_Q[1:]]))


def numpy_shift_bounds(grid):
    """niceness.shift_bounds on a float array: per curve, every row's bound
    from one np.divide, and its first largest by np.argmax."""
    grid = np.asarray(grid, dtype=float)
    (au, aq), (bu, bq) = _numpy_witness_arcs()
    sines = _numpy_sines(grid)
    picks = []
    for k, cid in enumerate(CURVE_IDS):
        ug, qg = arc_value(au[k], bu[k], sines), arc_value(aq[k], bq[k], sines)
        bounds = np.divide(qg, ug, out=np.where(qg > 0.0, math.inf, -math.inf), where=ug > 0.0)
        j = int(np.argmax(bounds))
        picks.append((float(bounds[j]), (cid, float(grid[j]))))
    lambda_star, achieving = max(picks, key=lambda pick: pick[0])
    return {"lambda_star": lambda_star, "achieving": achieving}


def numpy_closure_check():
    """niceness.closure_check on the arrays of q's curve-3/4 coefficients."""
    a, b = (c[1, 2:] for c in _numpy_witness_arcs())
    t = np.arctan2(a, b)
    inside = np.where((0.0 <= t) & (t <= T_END), arc_value(a, b, _numpy_sines(t)), -math.inf)
    ends = np.maximum(*(arc_value(a, b, _numpy_sines(end)) for end in (0.0, T_END)))
    m3, m4 = np.maximum(ends, inside).tolist()
    return {"max_curve3_value": m3, "max_curve4_value": m4,
            "in_closure": m3 <= 0.0 and m4 <= 0.0}


def numpy_divergence_sweep(eps_list, control=False):
    """niceness.divergence_sweep by numpy_shift_bounds on the array grids
    (0, epsilon, T), or (0, T) for the control, and numpy_closure_check."""
    fixed = numpy_shift_bounds(np.array([0.0, T_END])) if control else None
    rows = []
    for e in nn.validate_eps(eps_list):
        prof = fixed or numpy_shift_bounds(np.array([0.0, e, T_END]))
        lam = prof["lambda_star"]
        rows.append((e, lam, lam * e, *prof["achieving"]))
    closure = numpy_closure_check()
    last = rows[-nn.VERDICT_LEVELS:]
    diverges = len(last) == nn.VERDICT_LEVELS and all(0.8 <= r[2] <= 1.2 for r in last)
    verdict = "NotNiceEvidence" if (closure["in_closure"] and diverges) else "Inconclusive"
    return {"rows": rows, "closure": closure, "verdict": verdict}


# Reference exposure checks: one face and one full pass over the samples at
# a time, as the library ran them before its exposure check
# (faces.verify_catalogue) became closed-form over whole arcs; its verdicts
# must equal theirs, and its margins, taken over every point of the arcs,
# must not exceed theirs beyond its rounding bound. The lifted check runs on
# the generators of the cone over C' and the per-face cone functionals, as
# the library built them before construction.lift_points and lift_pairs: an
# independent per-face computation on the cone, which the tests hold to the
# lift identity against the sampled body margins.

# the absolute equality bound of the sampled reference checks below
EQ_ABS = 1e-9


def reference_cone(body):
    """Generators of the cone over C', one per row: the samples p of C
    moved to 2p + SHIFT, then homogenized to (1, 2p + SHIFT)."""
    pts = 2.0 * body.xyz + SHIFT
    return np.hstack([np.ones((len(pts), 1)), pts])


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


def reference_verify_exposure(face, pair, body, eq_abs=EQ_ABS, deltas=MARGIN_DELTAS):
    """Body check of one exposing pair on the samples of C."""
    y, d = pair.normal, pair.offset
    if y.shape != (3,):
        raise DomainError("pair normal must be 3-dimensional")

    anchor_pts = face_sample_points(face)
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
    ok = max_res <= eq_abs and all(m > 0.0 for m in margins.values())
    return ExposureReport(
        face_label=face.label(),
        max_onface_residual=max_res,
        margins=margins,
        onface_count=int(onface.sum()),
        verdict="pass" if ok else "fail",
    )


def reference_verify_cone_exposure(lifted, generators, ids, ts, face, eq_abs=EQ_ABS,
                                   deltas=MARGIN_DELTAS):
    """Lifted check of one cone functional (-d', y) on the cone's
    generators, labelled with the (curve ids, parameters) of their samples:
    the measured equality set |value| <= eq_abs must hold every on-face
    generator and no generator at parameter distance >= min(deltas)."""
    y = np.asarray(lifted, dtype=float)
    g = np.asarray(generators, dtype=float)
    if g.shape[1] != y.size:
        raise DomainError("lifted pair and cone dimensions differ")

    values = g @ y
    dists = reference_param_distances(face, ids, ts)
    expected = dists <= 1e-9
    measured = np.abs(values) <= eq_abs

    max_res = float(np.abs(values[expected]).max()) if expected.any() else 0.0
    margins = _margins_by_radius(-values, dists, deltas)

    on_face_ok = bool(measured[expected].all()) if expected.any() else True
    stray = measured & ~expected & (dists >= min(deltas))
    sets_match = on_face_ok and not bool(stray.any())
    ok = (
        sets_match
        and max_res <= eq_abs
        and all(m > 0.0 for m in margins.values())
    )
    return ExposureReport(
        face_label=f"lift:{face.label()}",
        max_onface_residual=max_res,
        margins=margins,
        onface_count=int(expected.sum()),
        verdict="pass" if ok else "fail",
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


# Reference mesh assembly and OBJ writer: the Python loops meshes.build_mesh
# and meshes.write_obj ran, one index tuple and one numpy scalar row at a
# time, before they built index arrays and formatted Python lists. The
# library must reproduce their triangles and bytes exactly.

def reference_mesh_triangles(n):
    """The (8n - 2, 3) 0-based triangles of an n-sample mesh, assembled in a
    loop over samples: both ruled strips (apex triangle first), both planar
    fans, then the two endpoint triangles."""
    idx = {cid: 1 + (cid - 1) * n + np.arange(n) for cid in (1, 2, 3, 4)}
    tris = []
    for a_cid, b_cid in ((1, 3), (4, 2)):
        a, b = idx[a_cid], idx[b_cid]
        tris.append((0, a[0], b[0]))
        for j in range(n - 1):
            tris.append((a[j], b[j], a[j + 1]))
            tris.append((b[j], b[j + 1], a[j + 1]))
    for a_cid, b_cid in ((1, 2), (3, 4)):
        boundary = list(idx[a_cid]) + list(idx[b_cid])[::-1]
        tris.extend((0, boundary[k], boundary[k + 1]) for k in range(len(boundary) - 1))
    tris.append((idx[1][-1], idx[2][-1], idx[3][-1]))
    tris.append((idx[2][-1], idx[3][-1], idx[4][-1]))
    return np.asarray(tris, dtype=int)


def reference_obj_text(mesh):
    """The OBJ text of a mesh, formatted from its numpy rows one at a time."""
    lines = [f"o {mesh.which}"]
    lines.extend(f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices)
    lines.extend(f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles)
    return "\n".join(lines) + "\n"
