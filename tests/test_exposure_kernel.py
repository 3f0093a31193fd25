"""The closed-form exposure check `faces.verify_catalogue` against the
per-face sampled reference checks in helpers, on the reference catalogue's
(face, pair) rows and on bodies sampled on grids that hold every face
anchor: equal verdicts, every sampled margin at least the closed-form margin
less its rounding bound (the samples are points of the arcs), and residuals
equal to rounding on the faces anchored at their generators. Also: lifted
reference margins on the cone over C' twice the sampled body margins within
the forward-error bound of the lift identity, array lifts equal to the
reference cone and functionals, far intervals selecting exactly the samples
the reference distances select, the interval maximum and every generator's
residual against 50-digit arithmetic, and memory flat in the catalogue
size."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from conelab import construction as con
from conelab import faces as fc
from conelab.linalg import DegenerateInputError, DomainError, gamma
from helpers import (
    ExposingPair,
    FaceDescriptor,
    catalogue_of,
    exposure_reports,
    reference_catalogue,
    reference_cone,
    reference_lift,
    reference_param_distances,
    reference_verify_cone_exposure,
    reference_verify_exposure,
    sample_body,
    sample_cone,
    verification_grids,
)

T = con.T_END
DELTAS = (0.01, 0.05, 0.1)  # the radii pinned by test_acceptance.py


@functools.lru_cache(maxsize=None)
def setup(samples, thetas):
    """Reference (face, pair) rows, the body sampled on grids holding every
    face anchor, and the reference generators of the cone over C' and lifted
    pairs."""
    _, grids = verification_grids(thetas, samples)
    catalogue = reference_catalogue(con.theta_grid(thetas))
    body = sample_body(grids)
    return catalogue, body, reference_cone(body), [reference_lift(pair) for _, pair in catalogue]


@functools.lru_cache(maxsize=None)
def arrays(thetas):
    return fc.build_catalogue(con.theta_grid(thetas))


@functools.lru_cache(maxsize=None)
def sampled(samples, thetas, deltas):
    """The per-face sampled reference reports."""
    catalogue, body, _, _ = setup(samples, thetas)
    return [reference_verify_exposure(face, pair, body, deltas=deltas) for face, pair in catalogue]


# every cell of the knob lattice {8, 64, 512}^2 and 2048/256; coarse samples
# against fine thetas put anchors between base samples and the reach of many
# faces below delta, which gives the far sets their middle parts
CELLS = pytest.mark.parametrize("samples, thetas, deltas", [
    (64, 8, fc.MARGIN_DELTAS),
    (512, 64, fc.MARGIN_DELTAS),
    (512, 512, fc.MARGIN_DELTAS),
    (512, 64, DELTAS),
    (256, 32, (0.1, 0.02)),
    (8, 8, fc.MARGIN_DELTAS),
    (8, 512, fc.MARGIN_DELTAS),
    (64, 512, fc.MARGIN_DELTAS),
    (512, 8, fc.MARGIN_DELTAS),
    (8, 64, fc.MARGIN_DELTAS),
    (64, 64, fc.MARGIN_DELTAS),
    (2048, 256, fc.MARGIN_DELTAS),
])


@CELLS
def test_reports_equal_the_per_face_reference(samples, thetas, deltas):
    catalogue, _, _, _ = setup(samples, thetas)
    exposure = fc.verify_catalogue(arrays(thetas), deltas=deltas)
    reports = sampled(samples, thetas, deltas)
    assert exposure.passed.tolist() == [r.passed for r in reports]
    assert exposure.passed.all()
    for (face, pair), ref, margins, bound, residual in zip(
            catalogue, reports, exposure.margins.tolist(), exposure.bounds.tolist(),
            exposure.residuals.tolist()):
        for delta, margin in zip(deltas, margins):
            # the samples at distance >= delta are points of the arcs there
            assert ref.margins[delta] >= margin - bound, (face.label(), delta)
        if not face.full_curves:
            # The on-face samples are the generators themselves: the
            # reference takes their value by a 3-term product at the point,
            # verify_catalogue by the arc closed form at its label. Both
            # round the same exact value; on these cells they differ by at
            # most 0.08 of 2 gamma_3 (|d| + |y|.|x|), with |x_k| <= 1 on C.
            scale = abs(pair.offset) + float(np.abs(pair.normal).sum())
            assert abs(residual - ref.max_onface_residual) <= 2 * gamma(3) * scale, face.label()


@CELLS
def test_lifted_reference_margins_are_twice_the_body_margins(samples, thetas, deltas):
    # <lift(y, d), (1, 2x + SHIFT)> = 2(<y, x> - d) exactly, so each lifted
    # margin of the per-face reference on the cone is twice the sampled
    # body margin over the same samples, up to rounding. Computed, the two
    # values at one sample differ by at most
    # gamma_10 (|2d| + |y|.(|SHIFT| + |2x + SHIFT| + 2|x|)); the scale is
    # bounded here by the largest |x_k| and |2x_k + SHIFT| per coordinate,
    # and gamma_12 leaves two roundings for the comparison itself.
    catalogue, body, cone, lifted = setup(samples, thetas)
    reports = sampled(samples, thetas, deltas)
    x = body.xyz
    spread = (np.abs(con.SHIFT) + np.abs(2.0 * x + con.SHIFT).max(axis=0)
              + 2.0 * np.abs(x).max(axis=0))
    for (face, pair), lift, rep in zip(catalogue, lifted, reports):
        ref = reference_verify_cone_exposure(lift, cone, body.ids, body.ts, face, deltas=deltas)
        assert ref.onface_count == rep.onface_count, face.label()
        bound = gamma(12) * (abs(2.0 * pair.offset) + float(np.abs(pair.normal) @ spread))
        for delta in deltas:
            cone_margin, body_margin = ref.margins[delta], 2.0 * rep.margins[delta]
            if math.isinf(body_margin):
                assert cone_margin == body_margin, face.label()
            else:
                assert abs(cone_margin - body_margin) <= bound, (face.label(), delta)


@pytest.mark.parametrize("samples, thetas", [(64, 8), (512, 64), (512, 512), (2048, 256)])
def test_array_lifts_have_the_bits_of_the_reference(samples, thetas):
    _, _, cone, lifted = setup(samples, thetas)
    normals, offsets = arrays(thetas).normals, arrays(thetas).offsets
    _, grids = verification_grids(thetas, samples)
    assert sample_cone(grids).generators.tobytes() == cone.tobytes()
    assert con.lift_pairs(normals, offsets).tobytes() == np.array(lifted).tobytes()


def test_zero_far_slack_keeps_its_sign():
    # The pair x_1 <= 0 holds {curve1(0.5)}, and curves 1 and 2 lie in
    # x_1 = 0 (A = B = 0 there), so the slack far from the face is 0 - 0 =
    # +0.0. The margin keeps that sign, as the sampled reference's does, and
    # a zero margin fails the check.
    face = FaceDescriptor("F01", 0, param=0.5, anchors=((1, 0.5),))
    pair = ExposingPair(np.array([1.0, 0.0, 0.0]), 0.0)
    rep, = exposure_reports(catalogue_of([(face, pair)]))
    ref = reference_verify_exposure(face, pair, sample_body(con.curve_grid(64)))
    assert rep.margins == ref.margins == dict.fromkeys(fc.MARGIN_DELTAS, 0.0)
    assert not np.signbit(list(rep.margins.values())).any()
    assert rep.verdict == ref.verdict == "fail"


def test_margin_below_its_rounding_bound_fails():
    # x_1 <= 1e-17 leaves a margin of exactly 1e-17, which the rounding of
    # the values on curves 3 and 4 (|A| + 2|B| = 2 on curve 4) could make
    # out of a margin of zero: it is below the bound, about 2.2e-15, so the
    # face fails, where a bare margin > 0 test would pass it
    face = FaceDescriptor("F01", 0, param=0.5, anchors=((1, 0.5),))
    catalogue = catalogue_of([(face, ExposingPair(np.array([1.0, 0.0, 0.0]), 1e-17))])
    exposure = fc.verify_catalogue(catalogue)
    assert (exposure.margins == 1e-17).all()
    assert exposure.bounds[0] == gamma(fc.MARGIN_ROUNDINGS) * 2.0
    assert not exposure.passed[0]


def test_residual_of_a_planar_side_covers_its_whole_curves():
    # F23 tilted by 1e-6 out of x_1 = 0 and listed by its origin generator
    # alone: the pair is exact there, but leaves curve 1, which the face
    # holds whole, by up to 1e-6 sin T. The residual is that largest
    # |<y, x> - d| over the curves, so the face fails.
    face = FaceDescriptor("F23", 2, full_curves=(1, 2))
    catalogue = catalogue_of([(face, ExposingPair(np.array([1.0, -1e-6, 0.0]), 0.0))])
    catalogue = catalogue._replace(sizes=np.array([1]), gen_ids=np.array([1]),
                                   gen_ts=np.array([0.0]))
    exposure = fc.verify_catalogue(catalogue)
    assert exposure.residuals[0] == pytest.approx(1e-6 * math.sin(T), rel=1e-12)
    assert not exposure.passed[0]


@pytest.mark.parametrize("samples, thetas", [(512, 64), (2048, 256)])
def test_kernel_memory_stays_under_two_mib(samples, thetas):
    catalogue = arrays(thetas)
    fc.verify_catalogue(catalogue)  # warm numpy up
    tracemalloc.start()
    try:
        fc.verify_catalogue(catalogue)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a handful of (2, faces, 4) arrays per radius, whatever the sample count
    assert peak <= 2 * 2**20


def test_param_distances_equal_the_reference():
    # (8, 512) and (512, 8): coarse samples against fine thetas and back
    for samples, thetas in ((64, 8), (8, 512), (512, 8)):
        catalogue, body, _, _ = setup(samples, thetas)
        anchor, reach = fc._distance_table(arrays(thetas))
        curve, ts = body.ids - 1, body.ts[:, None]
        for delta in fc.MARGIN_DELTAS:
            lo, hi = fc._far_intervals(anchor, reach, delta)
            far = ((lo[:, curve] <= ts) & (ts <= hi[:, curve])).any(axis=0).T
            for (face, _), selected in zip(catalogue, far):
                dist = reference_param_distances(face, body.ids, body.ts)
                assert np.array_equal(selected, dist >= delta), (face.label(), delta)
    twice = FaceDescriptor("F11", 1, anchors=((1, 0.1), (1, 0.2)))
    with pytest.raises(DomainError):
        fc.verify_catalogue(catalogue_of([(twice, catalogue[0][1])]))


def test_generator_residuals_against_50_digits():
    # Each generator's residual is d - arc_value(A, B, t) at its (curve, t)
    # label. Against <y, x(t)> - d in 50-digit arithmetic, on the float y,
    # d and t themselves, it is off by at most the face's rounding bound,
    # for every generator of every kind; so is each face's residual
    # against the largest exact |<y, x(t)> - d| over its generators (on
    # F23 and F24, whose whole curves it also covers, y is a unit vector
    # and the exact value is 0 on those curves).
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    for thetas in (8, 512):
        catalogue = arrays(thetas)
        assert set(catalogue.kinds) == {
            "F00", "F01", "F02", "F03", "F04", "F11", "F12",
            "F13", "F14", "F15", "F21", "F22", "F23", "F24"}
        exposure = fc.verify_catalogue(catalogue)
        face = np.repeat(np.arange(len(catalogue.kinds)), catalogue.sizes)
        a, b = con.arc_coefficients(catalogue.normals)
        curve = catalogue.gen_ids - 1
        computed = (catalogue.offsets[face]
                    - con.arc_value(a[face, curve], b[face, curve],
                                    con.arc_sines(catalogue.gen_ts)))
        exact = []
        for i, t, y, d in zip(catalogue.gen_ids.tolist(), catalogue.gen_ts.tolist(),
                              catalogue.normals[face].tolist(), catalogue.offsets[face].tolist()):
            x = con._ARC_COLUMNS[i](mp.sin(mp.mpf(t)), mp.cos(mp.mpf(t)))
            exact.append(mp.mpf(d) - mp.fsum(mp.mpf(yk) * xk for yk, xk in zip(y, x)))
        bounds = exposure.bounds[face]
        for k in range(len(face)):
            assert abs(mp.mpf(computed[k]) - exact[k]) <= bounds[k], k
        largest = np.zeros(len(catalogue.kinds))
        np.maximum.at(largest, face, [float(abs(e)) for e in exact])
        assert (np.abs(exposure.residuals - largest) <= exposure.bounds).all()
        assert (exposure.residuals <= exposure.bounds).all()


def test_zero_normal_rejected():
    catalogue = arrays(8)
    normals = catalogue.normals.copy()
    normals[3] = 0.0
    with pytest.raises(DegenerateInputError):
        fc.verify_catalogue(catalogue._replace(normals=normals))
    fc.verify_catalogue(catalogue)  # the same catalogue with its own normal passes


def test_empty_catalogue_gives_no_reports():
    exposure = fc.verify_catalogue(catalogue_of([]))
    assert all(len(field) == 0 for field in exposure)


def test_margin_radii_must_be_off_the_face():
    catalogue, _, _, _ = setup(64, 8)
    for deltas in ((0.0, 0.1), (-0.01,)):  # radius 0 takes in the face itself
        with pytest.raises(DomainError):
            fc.verify_catalogue(arrays(8), deltas=deltas)
    far = exposure_reports(catalogue_of(catalogue[:1]), deltas=(1.0,))
    assert math.isinf(far[0].margins[1.0])


def exact_arc_max(mp, a, b, lo, hi):
    """max of a sin t + b (cos t - 1) over [lo, hi] in mpmath arithmetic."""
    if lo > hi:
        return -mp.inf
    a, b, lo, hi = (mp.mpf(v) for v in (a, b, lo, hi))
    points = [lo, hi]
    peak = mp.atan2(a, b)
    if lo <= peak <= hi:
        points.append(peak)
    return max(a * mp.sin(t) + b * (mp.cos(t) - 1) for t in points)


def test_arc_max_against_50_digits():
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    rng = np.random.default_rng(2113)
    n = 2000
    a = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    b = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    lo, hi = np.sort(rng.uniform(0.0, T, (2, n)), axis=0)
    d = rng.uniform(-1.0, 1.0, n) * (np.abs(a) + np.abs(b))
    # peaks inside [0, T]: a > 0 and b > 0 with a / b below tan T = 1
    inner = rng.uniform(0.1, 0.99, 40)
    peak = np.arctan2(inner, 1.0)
    single = np.concatenate([[0.0, T], rng.uniform(0.0, T, 38)])
    edges = [
        (inner, np.ones(40), peak, np.full(40, T)),                      # t* at the low end
        (inner, np.ones(40), np.zeros(40), peak),                        # t* at the high end
        (inner, np.ones(40), np.nextafter(peak, 1.0), np.full(40, T)),   # just below the interval
        (inner, np.ones(40), np.zeros(40), np.nextafter(peak, 0.0)),     # just above it
        (inner, np.ones(40), peak + 1e-9, np.full(40, T)),
        (np.zeros(2), np.zeros(2), np.array([0.0, 0.3]), np.array([T, 0.3])),  # A = B = 0
        (inner, np.ones(40), np.full(40, 0.5), np.full(40, 0.4)),        # empty
        # lo == hi: the single point at which an on-face residual is taken
        (inner, np.ones(40), peak, peak),
        (a[:40], b[:40], single, single),
    ]
    for ea, eb, elo, ehi in edges:
        a, b, lo, hi = (np.concatenate([x, e]) for x, e in zip((a, b, lo, hi), (ea, eb, elo, ehi)))
        d = np.concatenate([d, np.zeros(len(ea))])
    top = con.arc_max(a, b, lo, hi)
    bound = gamma(fc.MARGIN_ROUNDINGS) * (np.abs(d) + np.abs(a) + 2.0 * np.abs(b))
    assert np.isneginf(top[lo > hi]).all() and (top[lo <= hi] > -math.inf).all()
    for k in np.flatnonzero(lo <= hi):
        exact = exact_arc_max(mp, a[k], b[k], lo[k], hi[k])
        assert abs(float(top[k]) - exact) <= bound[k], k
        # the margin d - max too, with the rounding of its subtraction
        assert abs(float(d[k] - top[k]) - (mp.mpf(d[k]) - exact)) <= bound[k], k
