"""Complete face catalogue of the four-arc body with exposing pairs.

Face kinds and their generators:

    F00          the common arc endpoint (origin)            dim 0
    F01..F04     singletons {curve_i(t)}, t in (0, T]        dim 0
    F11(theta)   segment [curve1(theta), curve3(partner)]    dim 1
    F12(theta)   segment [curve4(theta), curve2(partner)]    dim 1
    F13/F14/F15  endpoint chords [p1,p2], [p3,p4], [p2,p3]   dim 1
    F21/F22      endpoint triangles p1p2p3, p2p3p4           dim 2
    F23/F24      the two planar sides co{curves 1,2 / 3,4}   dim 2

build_catalogue makes the catalogue in one pass, as a Catalogue of arrays
with one row per face. Every face has a closed-form exposing pair: the
singletons and the rulings take theirs from two array evaluations of the
ruling machinery, the fixed faces (origin, endpoint chords, endpoint
triangles and planar sides) from one table. The generator points of every
face, labelled (curve, t), are computed once per catalogue, in one
curve_points call per curve: the atlas lists them, the exposure kernel
takes its residual at them and reporting's homogenization section
evaluates the lift identity at them. One exposure kernel,
verify_catalogue, checks each pair on samples of C and returns its
verdicts as arrays (Exposure), one row per face. The
faces of the cone K over C' need no second check: lift_pairs(y, d) takes
the value 2(<y, x> - d) on the generator lift_points(x), so it exposes the
cone over the face that (y, d) exposes (reporting.homogenization_section).
The samples of each curve are sorted by parameter, so the samples on a face
and those at distance >= delta from it are index ranges of each curve,
found once; the kernel reduces each pair's values over those ranges.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .construction import (
    CURVE_IDS,
    T_END,
    check_param,
    curve_points,
    ruling_data,
    theta_for_partner,
)
from .linalg import EQ_ABS, DegenerateInputError, DomainError

# How every exposing pair is obtained; the face atlas records it per face.
CLOSED_FORM = "closed-form"

# Parameter-distance radii at which off-face margins are reported.
MARGIN_DELTAS = (0.01, 0.05, 0.1)

# Samples at parameter distance at most this from a face lie on it.
ONFACE_DIST = 1e-9

# (face, sample) values per block of the exposure kernel, written into one
# 256 KB float64 buffer reused by every block, so the kernel's memory stays
# flat as the catalogue and the samples grow (the whole faces x samples
# matrix at 2048/256 would be ~120 MB).
BLOCK_ELEMENTS = 1 << 15

_A = 1.0 / math.sqrt(2.0)

# Fixed faces in catalogue order (F00 first, the others last): kind ->
# (unnormalised normal y, offset d of y/|y|, generators as (curve, t) pairs,
# curves wholly contained in the face). On the four arcs, with s = sin t,
# c = cos t and t in [0, T]:
#   F00: curves 1, 4 give (c - 1)/sqrt2 and curves 2, 3 give -s/sqrt2, < 0 for t > 0.
#   F13: curves 1, 2 give (1 + s - c)/sqrt3 <= d, equal only at t = T;
#        curves 3, 4 give (c - 1 - s)/sqrt3 <= 0.
#   F14: F13 with curves 1, 2 and 3, 4 swapped.
#   F15: curves 2, 3 give s/sqrt2 <= 1/2, equal only at t = T;
#        curves 1, 4 give (1 - c)/sqrt2 <= 0.21.
#   F21: with a = 1/sqrt2, <y, x> - a is a(s - c) <= 0 on curves 1, 2, equal
#        only at t = T; (2 - a)s + ac - 2a on curve 3, increasing, so <= 0 and
#        equal only at t = T; on curve 4 (2 - a)(1 - c) - as - a, convex in t
#        with endpoint values -a and 2 - 4a, so <= -a.
#   F22: the mirror (x1, x2, x3) -> (x3, -x2, x1) of F21, which swaps curves
#        1, 4 and 2, 3; both are normalised by the same |y|.
#   F23: curves 1, 2 give 0; curves 3, 4 give -s and c - 1, < 0 for t > 0.
#   F24: curves 3, 4 give 0; curves 1, 2 give c - 1 and -s, < 0 for t > 0.
# A planar side's generators are t = 0, T/2 and T on each of its curves.
_SIDE = (0.0, T_END / 2, T_END)
_FIXED = {
    "F00": ((1.0, 0.0, 1.0), 0.0, tuple((i, 0.0) for i in CURVE_IDS), ()),
    "F13": ((1.0, -1.0, -1.0), 1.0 / math.sqrt(3.0), ((1, T_END), (2, T_END)), ()),
    "F14": ((-1.0, 1.0, 1.0), 1.0 / math.sqrt(3.0), ((3, T_END), (4, T_END)), ()),
    "F15": ((-1.0, 0.0, -1.0), 0.5, ((2, T_END), (3, T_END)), ()),
    "F21": ((_A - 2.0, -_A, -_A), _A / math.hypot(_A - 2.0, _A, _A),
            ((1, T_END), (2, T_END), (3, T_END)), ()),
    "F22": ((-_A, _A, _A - 2.0), _A / math.hypot(_A - 2.0, _A, _A),
            ((2, T_END), (3, T_END), (4, T_END)), ()),
    "F23": ((1.0, 0.0, 0.0), 0.0, tuple((i, t) for i in (1, 2) for t in _SIDE), (1, 2)),
    "F24": ((0.0, 0.0, 1.0), 0.0, tuple((i, t) for i in (3, 4) for t in _SIDE), (3, 4)),
}


class Catalogue(NamedTuple):
    """The face catalogue as arrays, one row per face in catalogue order:
    kind, parameter and partner (nan where the kind has none), the curves
    wholly contained in the face (a (faces, 4) mask), and the exposing pair
    (y, d). The generator points of all faces are stacked face by face,
    `sizes` of them per face, each with its (curve, t) label; a face that
    holds no whole curve is anchored at its generators."""

    kinds: list
    params: np.ndarray
    partners: np.ndarray
    full: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    gen_ids: np.ndarray
    gen_ts: np.ndarray
    points: np.ndarray


class Exposure(NamedTuple):
    """Verdicts of verify_catalogue, one row per face: samples on the face,
    largest on-face residual, margin at each radius (one column per delta)
    and whether the face passes."""

    onface_counts: np.ndarray
    residuals: np.ndarray
    margins: np.ndarray
    passed: np.ndarray


def generator_points(ids, ts):
    """The points of the generators (ids[k], ts[k]), one per row, from one
    curve_points call per curve on parameters checked and clamped to [0, T]
    as curve_point does it, so each point has the bits of curve_point."""
    clamped = check_param(ts)
    points = np.empty((len(ts), 3))
    for i in CURVE_IDS:
        on = ids == i
        points[on] = curve_points(i, clamped[on])
    return points


def _fixed_face(kind):
    """The block of one fixed face (see build_catalogue)."""
    y, d, generators, curves = _FIXED[kind]
    ids, ts = zip(*generators)
    return ([kind], [math.nan], [math.nan], [[i in curves for i in CURVE_IDS]],
            [np.array(y) / math.hypot(*y)], [d], np.array([ids]), np.array([ts]))


def build_catalogue(theta_grid):
    """The whole catalogue over the given parameter grid, which carries both
    the singleton parameters and the ruling parameters, built kind by kind
    from arrays: the rulings are one evaluation of ruling_data on the grid
    (F11, F12) and one on its theta_for_partner image (F02, F03 at the grid
    parameters), and the generator points one generator_points call.

    Count: 1 + 4*|theta_grid| + 2*|theta_grid| + 3 + 4.
    """
    th = np.asarray(theta_grid, dtype=float)
    if th.size == 0:
        raise DegenerateInputError("theta grid is empty")
    n = th.size
    ruled = ruling_data(th)
    back = ruling_data(theta_for_partner(th))
    s, c, one, nan = np.sin(th), np.cos(th), np.ones(n), np.full(n, math.nan)
    singles = (  # the pairs of F01..F04
        (np.column_stack([one, -s, c]), 1.0 - c),
        (back.mirror_normal + [1.0, 0.0, 0.0], back.offset),
        (back.normal + [0.0, 0.0, 1.0], back.offset),
        (np.column_stack([c, s, one]), 1.0 - c),
    )
    # One block per kind, F11 and F12 interleaved in one: kinds, params,
    # partners, full curves, normals, offsets, and the generators' curves
    # and parameters, each with one row per face.
    blocks = [_fixed_face("F00")]
    blocks += [([f"F0{i}"] * n, th, nan, np.zeros((n, 4), bool), y, d, np.full((n, 1), i),
                th[:, None]) for i, (y, d) in zip(CURVE_IDS, singles)]
    blocks.append((["F11", "F12"] * n, np.repeat(th, 2), np.repeat(ruled.t, 2),
                   np.zeros((2 * n, 4), bool),
                   np.stack([ruled.normal, ruled.mirror_normal], axis=1).reshape(-1, 3),
                   np.repeat(ruled.offset, 2), np.tile([[1, 3], [4, 2]], (n, 1)),
                   np.repeat(np.column_stack([th, ruled.t]), 2, axis=0)))
    blocks += [_fixed_face(kind) for kind in list(_FIXED)[1:]]
    kinds, params, partners, full, normals, offsets, ids, ts = zip(*blocks)
    gen_ids = np.concatenate([a.ravel() for a in ids])
    gen_ts = np.concatenate([a.ravel() for a in ts])
    return Catalogue(
        kinds=[kind for block in kinds for kind in block],
        params=np.concatenate(params),
        partners=np.concatenate(partners),
        full=np.concatenate(full),
        normals=np.concatenate(normals),
        offsets=np.concatenate(offsets),
        sizes=np.concatenate([np.full(len(a), a.shape[1]) for a in ids]),
        gen_ids=gen_ids,
        gen_ts=gen_ts,
        points=generator_points(gen_ids, gen_ts),
    )


def face_label(catalogue, j):
    """The kind of face j, with its parameter where it has one."""
    kind, param = catalogue.kinds[j], catalogue.params[j]
    return kind if math.isnan(param) else f"{kind}({param:.6f})"


def _anchor_residuals(catalogue):
    """Largest |<y, p> - d| over the generator points p of each face and
    their centroid. The faces with the same number of generators share one
    stacked product, with the bits of the per-face product. Raises
    DomainError for the first face whose pair misses its generators by
    more than 1e-3.
    """
    sizes = catalogue.sizes
    starts = np.cumsum(sizes) - sizes
    anchor_res = np.empty(len(sizes))
    res = np.empty(len(sizes))
    for size in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == size)
        pts = catalogue.points[starts[rows, None] + np.arange(size)]
        y, d = catalogue.normals[rows][:, :, None], catalogue.offsets[rows]
        anchor_res[rows] = np.abs(np.matmul(pts, y)[:, :, 0] - d[:, None]).max(axis=1)
        # convex combinations of generators must reach the same hyperplane
        centroid_res = np.abs(np.matmul(pts.mean(axis=1)[:, None, :], y)[:, 0, 0] - d)
        res[rows] = np.maximum(anchor_res[rows], centroid_res)
    bad = np.flatnonzero(anchor_res > 1e-3)
    if bad.size:
        j = bad[0]
        raise DomainError(f"pair does not match face {face_label(catalogue, j)}: "
                          f"anchor residual {anchor_res[j]:.3g}")
    return res


def _distance_table(catalogue):
    """Per face and curve: the anchor parameter (inf where the face has none)
    and the reach through the common endpoint (the smallest anchor parameter;
    0 for a planar side, -inf on the curves wholly contained in the face). A
    sample of curve c at t lies at parameter distance min(|t - anchor|,
    t + reach) from the face, where -inf means on it. The anchors of a face
    are its generators, unless it holds whole curves."""
    n, full = len(catalogue.sizes), catalogue.full
    face = np.repeat(np.arange(n), catalogue.sizes)
    anchored = ~full.any(axis=1)[face]
    face, curve = face[anchored], catalogue.gen_ids[anchored] - 1
    twice = np.flatnonzero(np.bincount(4 * face + curve, minlength=4 * n) > 1)
    if twice.size:
        j, c = divmod(int(twice[0]), 4)
        raise DomainError(f"face {face_label(catalogue, j)} has two anchors on curve {c + 1}")
    anchor_t = np.full((n, len(CURVE_IDS)), math.inf)
    anchor_t[face, curve] = catalogue.gen_ts[anchored]
    reach = np.where(full, -math.inf, np.where(full.any(axis=1, keepdims=True), 0.0, math.inf))
    return anchor_t, np.minimum(reach, anchor_t.min(axis=1, keepdims=True))


def _curve_runs(ids, ts):
    """(start, stop, curve index) of each run of equal curve ids; one run
    per curve for samples stacked curve by curve. The parameters must not
    decrease along a run."""
    ids = np.asarray(ids)
    if not (ids[:, None] == CURVE_IDS).any(axis=1).all():
        raise DomainError(f"sample curve ids must lie in {CURVE_IDS}")
    same = ids[1:] == ids[:-1]
    # a NaN fails the comparison, or is caught alone in its run by isnan
    if not (ts[1:] >= ts[:-1])[same].all() or np.isnan(ts).any():
        raise DomainError("sample parameters must be non-decreasing along each curve run")
    cuts = np.flatnonzero(~same) + 1
    starts, stops = np.append(0, cuts), np.append(cuts, len(ids))
    return [(a, b, int(ids[a]) - 1) for a, b in zip(starts, stops)]


def _sample_ranges(catalogue, ids, ts, deltas):
    """Index ranges of the samples on each face (parameter distance at most
    ONFACE_DIST) and, per delta, of those at distance >= delta: shape
    (1 + len(deltas), faces, 4 * runs), two disjoint ranges (start, stop)
    per curve run, empty where stop <= start.

    Along a sorted run fl(t + reach) and fl(t - anchor) do not decrease, so
    each range end is the first sample at which one of them reaches a bound
    (x > b is x >= nextafter(b, inf) for floats). np.searchsorted finds it
    up to the rounding of bound - shift; stepping while the kernel's own
    predicate disagrees at the neighbouring sample makes it exact.
    """
    anchor_t, reach = _distance_table(catalogue)
    runs = _curve_runs(ids, ts)
    n = len(anchor_t)
    # distance <= ONFACE_DIST is the complement of distance >= its successor
    radii = [math.nextafter(ONFACE_DIST, math.inf), *deltas]
    # per radius: where t + reach reaches it, where t - anchor exceeds -radius
    # (enters the band around the anchor) and where it reaches the radius
    bounds = np.array([b for r in radii for b in (r, math.nextafter(-r, math.inf), r)])
    on_reach = np.arange(len(bounds)) % 3 == 0
    ends = np.empty((len(radii), n, len(runs), 4), dtype=np.int32)
    for r, (lo, hi, c) in enumerate(runs):
        shift = np.where(on_reach, reach[:, c, None], -anchor_t[:, c, None])
        k = lo + np.searchsorted(ts[lo:hi], bounds - shift)
        while True:
            down = (k > lo) & (ts[np.maximum(k - 1, lo)] + shift >= bounds)
            short = (k < hi) & ~(ts[np.minimum(k, hi - 1)] + shift >= bounds)
            if not (down.any() or short.any()):
                break
            k += short.astype(int) - down
        near, enter, leave = k.reshape(n, len(radii), 3).transpose(2, 1, 0)
        cols = ends[:, :, r].transpose(2, 0, 1)  # (start, stop, start, stop) x radius x face
        # at distance >= radius: past the near prefix and outside the band
        cols[0], cols[1], cols[2], cols[3] = near, enter, np.maximum(near, leave), hi
        # on the face, the complement: the near prefix and the band
        on = cols[:, 0]
        on[0], on[1], on[2], on[3] = lo, near[0], np.maximum(near[0], enter[0]), leave[0]
    return ends.reshape(len(radii), n, 4 * len(runs))


def _reduce_ranges(ufunc, values, ends, empty):
    """ufunc.reduce over values[start:stop] for each range of ends (start,
    stop, start, ... along the last axis), `empty` for an empty range. Every
    end must be below len(values)."""
    out = ufunc.reduceat(values, ends.reshape(-1))[::2].reshape(*ends.shape[:-1], -1)
    out[ends[..., 1::2] <= ends[..., ::2]] = empty
    return out


def _scan(catalogue, body, deltas):
    """Per face: the on-face sample count, the largest on-face |slack| and
    the smallest slack at distance >= each delta, both inf where no sample
    is in the range. The slack of face j's pair at a point x is
    offsets[j] - <normals[j], x>.

    The faces are walked in blocks of about BLOCK_ELEMENTS (face, sample)
    values, written into one buffer. The slack is monotone in the value v,
    so its extremes over a range are those of the values: the smallest
    slack is d - max v, the largest |slack| the larger of |d - max v| and
    |d - min v|.
    """
    ids, ts, points = body
    normals, offsets = catalogue.normals, catalogue.offsets
    faces = len(normals)
    ends = _sample_ranges(catalogue, ids, ts, deltas)
    counts = np.maximum(ends[0, :, 1::2] - ends[0, :, ::2], 0).sum(axis=1)
    n = len(ts)
    step = max(1, BLOCK_ELEMENTS // n)
    buf = np.zeros(min(step, faces) * n + 1)  # the last entry keeps every end valid
    residuals = np.empty(faces)
    margins = np.empty((faces, len(deltas)))
    for start in range(0, faces, step):
        rows = slice(start, min(start + step, faces))
        size = rows.stop - rows.start
        block = ends[:, rows] + n * np.arange(size)[:, None]
        values = buf[:size * n + 1]
        # one matrix-vector product per face, the bits of points @ y
        np.matmul(points, normals[rows, :, None], out=values[:-1].reshape(size, n, 1))
        top = _reduce_ranges(np.maximum, values, block, -math.inf).max(axis=2)
        low = _reduce_ranges(np.minimum, values, block[0], math.inf).min(axis=1)
        d = offsets[rows]
        margins[rows] = d[:, None] - top[1:].T
        residuals[rows] = np.maximum(np.abs(d - top[0]), np.abs(d - low))
    return counts, residuals, margins


def verify_catalogue(catalogue, body, deltas=MARGIN_DELTAS):
    """Exposure of every face of a catalogue, checked on the samples of C:
    a face passes when its on-face residual is at most EQ_ABS and its
    margin (the smallest slack d - <y, x> over the samples at parameter
    distance >= delta) is positive at every radius delta.

    The samples of each curve run must be sorted by parameter, and the
    catalogue is walked in blocks of faces (see BLOCK_ELEMENTS), so the
    memory held stays flat as catalogue and samples grow.
    """
    if min(deltas) <= ONFACE_DIST:
        raise DomainError(f"margin radii must exceed the on-face distance {ONFACE_DIST}")
    if not catalogue.normals.any(axis=1).all():
        raise DegenerateInputError("exposing normal must be nonzero")
    anchor_res = _anchor_residuals(catalogue)
    counts, res, margins = _scan(catalogue, body, deltas)
    residuals = np.maximum(anchor_res, np.where(counts > 0, res, 0.0))
    return Exposure(counts, residuals, margins,
                    (residuals <= EQ_ABS) & (margins > 0.0).all(axis=1))
