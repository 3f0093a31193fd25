"""The blocked exposure kernel `faces.verify_catalogue` against the per-face
reference checks in helpers, on the reference catalogue's (face, pair) rows:
body reports equal to the last bit, lifted
reference margins on the cone over C' twice the body margins within the
forward-error bound of the lift identity, sample ranges selecting exactly
the samples the reference distances select, array lifts equal to the
reference cone and functionals, reports independent of the block size, and
memory flat in the catalogue size."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from conelab import construction as con
from conelab import faces as fc
from conelab import reporting
from conelab.linalg import DegenerateInputError, DomainError, gamma
from helpers import (
    ExposingPair,
    FaceDescriptor,
    catalogue_of,
    exposure_reports,
    face_sample_points,
    reference_catalogue,
    reference_cone,
    reference_lift,
    reference_param_distances,
    reference_verify_cone_exposure,
    reference_verify_exposure,
)

T = con.T_END
DELTAS = (0.01, 0.05, 0.1)  # the radii pinned by test_acceptance.py


@functools.lru_cache(maxsize=None)
def setup(samples, thetas):
    """Reference (face, pair) rows, body, and the reference generators of
    the cone over C' and lifted pairs, on the grids that `verify` uses at
    this size; the array catalogue is arrays(samples, thetas)."""
    _, grids = reporting._grids(
        reporting.RunConfig(samples_per_curve=samples, theta_grid_size=thetas)
    )
    catalogue = reference_catalogue(con.theta_grid(thetas))
    body = con.sample_body(grids)
    return catalogue, body, reference_cone(body), [reference_lift(pair) for _, pair in catalogue]


@functools.lru_cache(maxsize=None)
def arrays(samples, thetas):
    catalogue, _ = reporting._grids(
        reporting.RunConfig(samples_per_curve=samples, theta_grid_size=thetas)
    )
    return catalogue


def kernel(samples, thetas, **kwargs):
    _, body, _, _ = setup(samples, thetas)
    return exposure_reports(arrays(samples, thetas), body, **kwargs)


def bits(reports):
    """Every field of every report, floats as their exact hex form."""
    return [
        (r.face_label, r.max_onface_residual.hex(),
         {d: m.hex() for d, m in r.margins.items()}, r.onface_count, r.verdict)
        for r in reports
    ]


# (8, 512), (64, 512) and (512, 8): coarse samples against fine thetas, so
# anchors fall between base samples and the reach of many faces is < delta,
# which gives the middle ranges of the far sets
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
])


@CELLS
def test_reports_equal_the_per_face_reference(samples, thetas, deltas):
    catalogue, body, _, _ = setup(samples, thetas)
    reports = kernel(samples, thetas, deltas=deltas)
    assert bits(reports) == bits(
        [reference_verify_exposure(face, pair, body, deltas=deltas) for face, pair in catalogue]
    )
    assert all(r.passed for r in reports)


@CELLS
def test_lifted_reference_margins_are_twice_the_body_margins(samples, thetas, deltas):
    # <lift(y, d), (1, 2x + SHIFT)> = 2(<y, x> - d) exactly, so each lifted
    # margin of the per-face reference on the cone is twice the kernel's
    # body margin over the same samples, up to rounding. Computed, the two
    # values at one sample differ by at most
    # gamma_10 (|2d| + |y|.(|SHIFT| + |2x + SHIFT| + 2|x|)); the scale is
    # bounded here by the largest |x_k| and |2x_k + SHIFT| per coordinate,
    # and gamma_12 leaves two roundings for the comparison itself.
    catalogue, body, cone, lifted = setup(samples, thetas)
    reports = kernel(samples, thetas, deltas=deltas)
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
    _, body, cone, lifted = setup(samples, thetas)
    normals, offsets = arrays(samples, thetas).normals, arrays(samples, thetas).offsets
    _, grids = reporting._grids(
        reporting.RunConfig(samples_per_curve=samples, theta_grid_size=thetas)
    )
    assert con.sample_cone(grids).generators.tobytes() == cone.tobytes()
    assert con.lift_pairs(normals, offsets).tobytes() == np.array(lifted).tobytes()


@pytest.mark.parametrize("samples, thetas", [(64, 8), (512, 64)])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, samples, thetas):
    catalogue, body, _, _ = setup(samples, thetas)
    default = kernel(samples, thetas)
    for budget in (1, len(catalogue) * len(body.ts)):  # one face, one block
        monkeypatch.setattr(fc, "BLOCK_ELEMENTS", budget)
        assert bits(kernel(samples, thetas)) == bits(default)


def hand_made_body():
    """A body on the grids {0, 0.3, 0.5, 0.7, T} (curve 1), {0, 0.4, T}
    (curve 2) and {0, T} (curves 3, 4), with one face: the pair x_1 <= 0
    holds {curve1(0.5)}, since curve 1 lies in x_1 = 0. The face sample and
    the curve-2 sample at 0.4 (0.9 away from the face) have x_1 = 0, every
    other sample x_1 = -1/2. Returns the body, the face and the pair."""
    grids = {1: np.array([0.0, 0.3, 0.5, 0.7, T]), 2: np.array([0.0, 0.4, T]),
             3: np.array([0.0, T]), 4: np.array([0.0, T])}
    first = {i: np.full(g.size, -0.5) for i, g in grids.items()}
    first[1][2], first[2][1] = 0.0, 0.0
    x1 = np.concatenate(list(first.values()))
    body = con.BodySamples(ids=np.concatenate([np.full(g.size, i) for i, g in grids.items()]),
                           ts=np.concatenate(list(grids.values())),
                           xyz=np.column_stack([x1, np.zeros((x1.size, 2))]))
    face = FaceDescriptor("F01", 0, param=0.5, anchors=((1, 0.5),))
    return body, face, ExposingPair(np.array([1.0, 0.0, 0.0]), 0.0)


def test_zero_far_slack_keeps_its_sign():
    # The far sample lies on the hyperplane: its slack is 0 - 0 = +0.0. The
    # margin keeps that sign, as the reference's does, and a zero margin
    # fails the check.
    body, face, pair = hand_made_body()
    rep, = exposure_reports(catalogue_of([(face, pair)]), body)
    ref = reference_verify_exposure(face, pair, body)
    assert bits([rep]) == bits([ref])
    assert not np.signbit(rep.margins[0.01]) and not np.signbit(ref.margins[0.01])
    assert rep.verdict == "fail"


@pytest.mark.parametrize("samples, thetas", [(512, 64), (2048, 256)])
def test_kernel_memory_stays_under_two_mib(samples, thetas):
    _, body, _, _ = setup(samples, thetas)
    catalogue = arrays(samples, thetas)
    fc.verify_catalogue(catalogue, body)  # warm numpy up
    tracemalloc.start()
    try:
        fc.verify_catalogue(catalogue, body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole faces x samples matrix would take ~25 MB at 512/64
    assert peak <= 2 * 2**20


def assert_ranges_select(ends, dist, deltas):
    """The ranges of one face (a row of faces._sample_ranges) are disjoint
    and select exactly the samples at reference distance <= ONFACE_DIST and,
    per delta, >= delta."""
    index = np.arange(len(dist))
    inside = (index >= ends[:, ::2, None]) & (index < ends[:, 1::2, None])
    assert inside.sum(axis=1).max() <= 1
    expected = [dist <= fc.ONFACE_DIST] + [dist >= delta for delta in deltas]
    assert np.array_equal(inside.any(axis=1), expected)


def test_param_distances_equal_the_reference():
    # (8, 512) and (512, 8): coarse samples against fine thetas and back
    for samples, thetas in ((64, 8), (8, 512), (512, 8)):
        catalogue, body, _, _ = setup(samples, thetas)
        faces = [face for face, _ in catalogue]
        ends = fc._sample_ranges(arrays(samples, thetas), body.ids, body.ts, fc.MARGIN_DELTAS)
        for j, face in enumerate(faces):
            dist = reference_param_distances(face, body.ids, body.ts)
            assert_ranges_select(ends[:, j], dist, fc.MARGIN_DELTAS)
    twice = FaceDescriptor("F11", 1, anchors=((1, 0.1), (1, 0.2)))
    with pytest.raises(DomainError):
        fc._sample_ranges(catalogue_of([(twice, catalogue[0][1])]), body.ids, body.ts,
                          fc.MARGIN_DELTAS)
    with pytest.raises(DomainError):  # id 0 would index curve 4's anchors
        fc._sample_ranges(catalogue_of(catalogue[:1]), body.ids - 1, body.ts, fc.MARGIN_DELTAS)


def test_range_ends_follow_the_float_predicate():
    # Every curve is sampled, with repeats, at the floats a few ulps either
    # side of each bound of the distance predicate: anchor +- ONFACE_DIST,
    # anchor +- delta and delta - reach for two singletons (one of reach
    # 0.004 < delta), and ONFACE_DIST and delta for a planar side (reach
    # 0). There np.searchsorted on bound - shift can miss the predicate's
    # own boundary, which the ranges must still follow to the sample.
    deltas = (0.005, 0.01, 0.02)
    anchors = (0.004, 0.3)
    faces = [FaceDescriptor("F01", 0, param=anchors[0], anchors=((1, anchors[0]),)),
             FaceDescriptor("F03", 0, param=anchors[1], anchors=((3, anchors[1]),)),
             FaceDescriptor("F23", 2, full_curves=(1, 2))]
    bounds = (fc.ONFACE_DIST, *deltas)
    centres = [x for a in anchors for b in bounds for x in (a + b, a - b, b - a)] + list(bounds)
    grid = [0.0, T]
    for x in centres:
        for _ in range(8):
            x = np.nextafter(x, -math.inf)
        for _ in range(16):
            grid += [x, x] if len(grid) % 3 else [x]
            x = np.nextafter(x, math.inf)
    grid = np.sort(np.array([t for t in grid if t >= 0.0]))
    ids, ts = np.repeat(con.CURVE_IDS, len(grid)), np.tile(grid, len(con.CURVE_IDS))
    pair = ExposingPair(np.array([1.0, 0.0, 0.0]), 0.0)
    ends = fc._sample_ranges(catalogue_of([(face, pair) for face in faces]), ids, ts, deltas)
    for j, face in enumerate(faces):
        assert_ranges_select(ends[:, j], reference_param_distances(face, ids, ts), deltas)


@pytest.mark.parametrize("fault", ["swap", "nan", "nan alone"])
def test_curve_runs_must_be_sorted(fault):
    _, body, _, _ = setup(64, 8)
    ids, ts = body.ids.copy(), body.ts.copy()
    k = np.flatnonzero(ids == 2)[5]
    if fault == "swap":
        ts[[k, k + 1]] = ts[[k + 1, k]]
    elif fault == "nan":
        ts[k] = math.nan
    else:  # a NaN that is a run of its own
        ids[k] = 3
        ts[k] = math.nan
    with pytest.raises(DomainError):
        fc.verify_catalogue(arrays(64, 8), body._replace(ids=ids, ts=ts))


def test_batched_anchor_residuals_have_the_per_face_bits():
    # the residual at the points the atlas lists, face by face, for every kind
    for samples, thetas in ((64, 8), (512, 512)):
        catalogue, _, _, _ = setup(samples, thetas)
        faces = [face for face, _ in catalogue]
        assert {face.kind for face in faces} == {
            "F00", "F01", "F02", "F03", "F04", "F11", "F12",
            "F13", "F14", "F15", "F21", "F22", "F23", "F24"}
        batched = fc._anchor_residuals(arrays(samples, thetas))
        for (face, pair), res in zip(catalogue, batched):
            pts, y, d = face_sample_points(face), pair.normal, pair.offset
            per_face = max(np.abs(pts @ y - d).max(), abs(float(pts.mean(axis=0) @ y) - d))
            assert res == per_face, face.label()


def test_zero_normal_rejected():
    _, body, _, _ = setup(64, 8)
    catalogue = arrays(64, 8)
    normals = catalogue.normals.copy()
    normals[3] = 0.0
    with pytest.raises(DegenerateInputError):
        fc.verify_catalogue(catalogue._replace(normals=normals), body)
    fc.verify_catalogue(catalogue, body)  # the same catalogue with its own normal passes


def test_empty_catalogue_gives_no_reports():
    _, body, _, _ = setup(64, 8)
    exposure = fc.verify_catalogue(catalogue_of([]), body)
    assert all(len(field) == 0 for field in exposure)


def test_margin_radii_must_be_off_the_face():
    catalogue, body, _, _ = setup(64, 8)
    with pytest.raises(DomainError):
        fc.verify_catalogue(arrays(64, 8), body, deltas=(1e-9, 0.1))
    far = exposure_reports(catalogue_of(catalogue[:1]), body, deltas=(1.0,))
    assert math.isinf(far[0].margins[1.0])
