"""Non-niceness evidence engine.

The flat face F of the 4D cone (the cone over the scaled planar side spanned
by curves 3 and 4) has orthogonal complement span{u}. The witness q lies in
the polar of F exactly, yet the smallest shift multiplier lambda that puts
q - lambda*u inside the sampled polar cone grows like 1/epsilon as the
sampling of curve 1 refines toward the common endpoint: the numeric shadow
of K_polar + F_perp not being closed. No finite sample decides
non-membership, so the sweep's verdict is evidence; the claim itself is
proven exactly in tests/test_certificate.py.

q and u are lifts of pairs (y, 0) of C, so on the generator over x(t)
each takes 2<y, x(t)>: the sweep reads its rows from the arcs' closed form
(arc_value, from one construction.arc_sines per sample) and the closure
check its maxima (arc_max), both on Python floats with no numpy call.

Also here: the check, at the generators, that a 3D cone's exposing normals
span the dual of a 2D face together with its orthogonal complement, the
step behind facially exposed three-dimensional cones always being nice.
It reads each input once as a list of floats and decides in Python ints,
with no object-dtype array: in a fresh process each op on one pays numpy's
first-use cost.

The bounds, the closure check, the sweep and the 3D check return plain
dicts of the values that the reports write.
"""

import math
import sys
from functools import cache
from operator import mul

import numpy as np

from .construction import (
    CURVE_IDS,
    T_END,
    WITNESS_Q,
    WITNESS_U,
    arc_max,
    arc_picks,
    arc_sines,
    arc_value,
    check_grid,
)
from .linalg import DegenerateInputError, DomainError

# generators of the half-disc example's cone, on its arc
HALF_DISC_RAYS = 65

# how the verify report relates the sweep to the dual-cone form
DUAL_FORM_NOTE = (
    "computed for the polar cone; the dual-cone sum is its negative, "
    "so the same divergence applies to it"
)

# The control is the cone over the five arc endpoints: every curve at 0 and T.
CONTROL_GRID = (0.0, T_END)

# levels whose products the divergence verdict reads: fewer are Inconclusive
VERDICT_LEVELS = 3

# Smallest refinement level, 2**-510: from t = EPS_FLOOR up, sin^2(t/2) is at
# least the smallest normal float, so no row underflows and each rounding
# keeps its relative error bound u (Higham, section 2.1).
EPS_FLOOR = 2.0 * math.sqrt(sys.float_info.min)


@cache
def _witness_arcs():
    """Per curve, (A_u, B_u, A_q, B_q) of u and q as Python floats (arc_picks);
    taken on first use, not on import. Curve by curve, A_u = (0, 2, 0, 0),
    B_u = (-2, 0, 0, 0), A_q = (1, -2, 0, -1) and B_q = (2, -1, 1, 0)."""
    return tuple(zip(*(v for w in (WITNESS_U, WITNESS_Q) for v in arc_picks(w[1:].tolist()))))


def shift_bounds(grid):
    """Solve every constraint <q, g> - lambda <u, g> <= 0 of the cone K
    sampled on grid (the same parameters on every curve; see
    construction.check_grid) for the shift multiplier lambda.

    Each row is one arc value A sin t - 2B sin^2(t/2), every curve and
    functional from one arc_sines per sample. On every curve one of A_u, B_u
    is 0 and the other term is >= 0, and rounding keeps the sign of a
    product, so no row bounds lambda from above. A row with <u, g> > 0 bounds it from below by
    <q, g> / <u, g>: cot(t/2)/2 - 1 on curve 1, tan(t/2)/2 - 1 on curve 2.
    A flat row (<u, g> = 0; curves 3 and 4, where <q, g> <= 0) holds for
    every lambda if <q, g> <= 0, so its bound is -inf, and for none
    otherwise, so its bound is +inf: the infimum over an empty set. That
    happens only far below EPS_FLOOR, once sin^2(t/2) underflows to 0.

    Returns a dict: lambda_star, the largest bound (+inf when some row holds
    for no lambda); achieving, the (curve_id, t) of the first row, curve by
    curve, that gives it.
    """
    grid = check_grid(grid)
    sines = [arc_sines(t) for t in grid]
    # only a strictly larger bound moves achieving to a later row
    lambda_star, achieving = -math.inf, (CURVE_IDS[0], grid[0])
    for cid, (a_u, b_u, a_q, b_q) in zip(CURVE_IDS, _witness_arcs()):
        for pair, t in zip(sines, grid):
            ug, qg = arc_value(a_u, b_u, pair), arc_value(a_q, b_q, pair)
            bound = qg / ug if ug > 0.0 else math.inf if qg > 0.0 else -math.inf
            if bound > lambda_star:
                lambda_star, achieving = bound, (cid, t)
    return {"lambda_star": lambda_star, "achieving": achieving}


def closure_check():
    """Exact membership of q in the polar of the flat face F, which is
    cl(K polar + F_perp): over F, the cone over curves 3 and 4, <q, g> is
    twice -2 sin^2(t/2) and -sin t, and their maxima over the whole arcs
    (arc_max) are <= 0. A rounded product keeps its sign, so the test is
    exact."""
    m3, m4 = (arc_max(a_q, b_q, 0.0, T_END) for _, _, a_q, b_q in _witness_arcs()[2:])
    return {
        "max_curve3_value": m3,
        "max_curve4_value": m4,
        "in_closure": m3 <= 0.0 and m4 <= 0.0,
    }


def validate_eps(eps_list):
    """The refinement levels as a tuple of floats; they must lie in
    [EPS_FLOOR, T) (so are finite) and be strictly decreasing."""
    eps = tuple(float(e) for e in eps_list)
    if not eps:
        raise DomainError("epsilon list must not be empty")
    if any(not EPS_FLOOR <= e < T_END for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
        raise DomainError(f"epsilon list must be strictly decreasing and lie in "
                          f"[{EPS_FLOOR:.17g}, {T_END})")
    return eps


def divergence_sweep(eps_list, *, control=False):
    """Run shift_bounds per refinement level and judge the divergence.

    Level epsilon samples every curve at 0, epsilon and T. On any grid with
    T whose smallest positive parameter is epsilon, the largest bound is
    curve 1's at epsilon (tests/test_certificate.py): more samples change
    no row. The control samples 0 and T (CONTROL_GRID) at every level.

    Returns a dict: rows, one (epsilon, lambda_star, product, curve_id, t)
    per level, product = lambda_star * epsilon (+inf, with lambda_star, at a
    level where some row holds for no lambda); closure, the closure_check
    dict; verdict, "NotNiceEvidence" or "Inconclusive". NotNiceEvidence
    requires the exact closure check to pass and lambda_star * epsilon to
    settle in [0.8, 1.2] on the last VERDICT_LEVELS levels (at least that
    many are needed). No verdict reads a fit: the slope is
    fitted_exponent(rows), taken only where a report writes it.
    """
    eps = validate_eps(eps_list)
    # the control grid is the same at every level: its bounds are one solve
    fixed = shift_bounds(CONTROL_GRID) if control else None
    rows = []
    for e in eps:
        prof = fixed or shift_bounds((0.0, e, T_END))
        lam = prof["lambda_star"]
        rows.append((e, lam, lam * e, *prof["achieving"]))

    closure = closure_check()
    diverges = len(rows) >= VERDICT_LEVELS and all(
        0.8 <= p <= 1.2 for _, _, p, _, _ in rows[-VERDICT_LEVELS:])
    verdict = "NotNiceEvidence" if (closure["in_closure"] and diverges) else "Inconclusive"
    return {"rows": rows, "closure": closure, "verdict": verdict}


def fitted_exponent(rows):
    """The least-squares slope of log(lambda_star) against log(1/epsilon)
    over divergence_sweep's rows with 0 < lambda_star < inf, near 1 when
    lambda_star grows like 1/epsilon: one correctly rounded int / int of the
    float logs taken exactly as ints (_ints), with no LAPACK call. The logs
    are libm's, as the rows' sines are: numpy picks its float64 log routine
    by CPU dispatch. NaN, as no slope exists, for fewer than two such rows
    or one log(1/epsilon)."""
    finite = [(1.0 / e, lam) for e, lam, *_ in rows if 0 < lam < math.inf]
    if len(finite) < 2:
        return math.nan
    (x, dx), (y, dy) = (_ints(map(math.log, v)) for v in zip(*finite))  # the logs times dx, dy
    n, sx = len(finite), sum(x)
    spread = n * _dot(x, x) - sx * sx  # 0 only when every x is one float
    return _ratio((n * _dot(x, y) - sx * sum(y)) * dx, spread * dy) if spread else math.nan


def _ints(v):
    """An iterable of floats as a positive power-of-two multiple of itself,
    exactly, in Python ints; returns the list and that power of two."""
    ratios = [x.as_integer_ratio() for x in v]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _dot(a, b):
    """<a, b> for sequences of Python ints."""
    return sum(map(mul, a, b))


def _cross(a, b):
    """a x b for 3-vectors of Python ints, as a list."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _ratio(num, den):
    """num / den for ints, den > 0, correctly rounded; +-inf past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def nice3d_ingredients(generators, p1, p2, h1, h2):
    """Decide "every facially exposed 3D cone is nice" for one face at its
    generators, in exact integer arithmetic.

    Given the (m, 3) generators of a 3D cone with 2D face F = cone{p1, p2}
    and normals h1, h2 exposing the edge rays (h_i nonnegative on the cone,
    zero exactly on the ray of p_i), F_perp = span{c} with c = p1 x p2.
    Each test below is the sign of a polynomial homogeneous in each of p1,
    p2, h1, h2 and the generators, and every float is a dyadic rational, so
    each of them is replaced by a positive integer multiple of itself: no
    tolerance is read, and the verdict is the same at every scale. Rejected
    are c = 0, a normal negative at some generator, and a normal in F_perp
    (q_i' = 0 below), which would expose the whole face, not an edge.

    pass is the sign pattern <q_i', p_i> = 0 < <q_i', p_j> of
    q_i' = |c|^2 h_i - <h_i, c> c, |c|^2 times the projection q_i of h_i onto
    span F. It holds exactly when the generator certificate does:
    q_i' x r_i = 0 and <q_i', r_i> > 0, with r_i = |p_i|^2 p_j -
    <p_i, p_j> p_i (r1 = c x p1, r2 = p2 x c). For q_i' and r_i are both
    orthogonal to c, and the vectors orthogonal to c and p_i form the line
    of r_i, so q_i' is parallel to r_i exactly when <q_i', p_i> = 0; then
    <q_i', r_i> = |p_i|^2 <q_i', p_j>.

    The dual wedge F* = {y : <y, p1> >= 0, <y, p2> >= 0} is cone{r1, r2} +
    span{c}, and cone{h1, h2} + span{c} = cone{q1, q2} + span{c}; so the
    certificate gives cone{h1, h2} + F_perp = F*, the closedness claim.

    Returns the nice3d report's dict: projections q_i, sign_pattern_ok,
    wedge_generators w_i = r_i / |p_i|^2 (the part of p_j orthogonal to
    p_i), multipliers c_i with q_i = c_i w_i, and pass. Each float in it is
    one correctly rounded int / int of an exact value; no verdict reads it.
    """
    g = np.asarray(generators, dtype=float)
    if g.ndim != 2 or g.shape[1] != 3:
        raise DomainError("nice3d_ingredients expects an (m, 3) generator array")
    if not len(g):
        raise DegenerateInputError("cone has no generators")
    g = g.ravel().tolist()
    if not all(map(math.isfinite, g)):
        raise DomainError("cone generators have NaN or infinite components")
    vectors = [np.asarray(v, dtype=float) for v in (p1, p2, h1, h2)]
    vectors = [v.tolist() for v in vectors if v.shape == (3,)]
    if len(vectors) != 4 or not all(math.isfinite(x) for v in vectors for x in v):
        raise DomainError("p1, p2, h1 and h2 must each be a finite vector of shape (3,)")
    (g, _), (p1, d1), (p2, d2), *hs = (_ints(v) for v in (g, *vectors))
    c = _cross(p1, p2)
    if not any(c):
        raise DegenerateInputError("p1 and p2 do not span a plane")
    rows = [g[k:k + 3] for k in range(0, len(g), 3)]
    if any(_dot(row, h) < 0 for h, _ in hs for row in rows):
        raise DomainError("exposing normal is negative somewhere on the cone")
    cc = _dot(c, c)
    qs = [[cc * a - _dot(h, c) * b for a, b in zip(h, c)] for h, _ in hs]
    if not all(any(q) for q in qs):
        raise DomainError("exposing normal lies in the face's orthogonal complement; "
                          "it would expose the whole face, not an edge")

    n1, n2, p12 = _dot(p1, p1), _dot(p2, p2), _dot(p1, p2)
    rs = ([n1 * b - p12 * a for a, b in zip(p1, p2)], [n2 * a - p12 * b for a, b in zip(p1, p2)])
    sign_ok = (_dot(qs[0], p1) == 0 < _dot(qs[0], p2)
               and _dot(qs[1], p2) == 0 < _dot(qs[1], p1))
    # q_i = q_i' / (|c|^2 e_i) and w_i = r_i / (|p_i|^2 d_j) for the scales e, d
    dens = (n1 * d2, n2 * d1)
    return {
        "projections": tuple([_ratio(a, cc * e) for a in q] for q, (_, e) in zip(qs, hs)),
        "sign_pattern_ok": sign_ok,
        "wedge_generators": tuple([_ratio(a, d) for a in r] for r, d in zip(rs, dens)),
        "multipliers": tuple(_ratio(_dot(q, r) * d, cc * e * _dot(r, r))
                             for q, r, d, (_, e) in zip(qs, rs, dens, hs)),
        "pass": sign_ok,
    }


def octant_example():
    """Nonnegative octant with face cone{e1, e2}: everything orthogonal.
    Returns the generators, p1, p2, h1 and h2."""
    p1, p2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    h1, h2 = np.array([0.0, 1.0, 1.0]), np.array([1.0, 0.0, 1.0])
    return np.eye(3), p1, p2, h1, h2


def half_disc_cone_example():
    """Cone over the half-disc {|x| <= 1, y >= 0} with its flat 2D face.

    The corner rays (1, +-1, 0) are exposed by h = (1, -+1, 1), the lifts of
    the corner-exposing pairs of the half-disc.
    """
    phis = [k * math.pi / (HALF_DISC_RAYS - 1) for k in range(HALF_DISC_RAYS)]
    gens = np.array([(1.0, math.cos(phi), math.sin(phi)) for phi in phis])
    a = 1.0 / math.sqrt(2.0)
    p1, p2 = np.array([a, -a, 0.0]), np.array([a, a, 0.0])
    h1 = np.array([1.0, 1.0, 1.0])
    h2 = np.array([1.0, -1.0, 1.0])
    return gens, p1, p2, h1, h2
