"""The blocked exposure kernel `faces.verify_catalogue` against the per-face
reference checks in helpers: reports equal to the last bit, its lifted side
derived from the body and the pairs equal to the reference cone and
functionals, independent of the block size, and memory flat in the
catalogue size."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from conelab import construction as con
from conelab import faces as fc
from conelab import reporting
from conelab.linalg import DomainError
from helpers import (
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
    """Catalogue, body, and the reference generators of the cone over C'
    and lifted pairs, on the grids that `verify` uses at this size."""
    th, grids = reporting._grids(
        reporting.RunConfig(samples_per_curve=samples, theta_grid_size=thetas)
    )
    catalogue = fc.build_catalogue(th)
    body = con.sample_body(grids)
    return catalogue, body, reference_cone(body), [reference_lift(pair) for _, pair in catalogue]


def kernel(samples, thetas, **kwargs):
    catalogue, body, _, _ = setup(samples, thetas)
    return fc.verify_catalogue(catalogue, body, lifted=True, **kwargs)


def bits(reports):
    """Every field of every report, floats as their exact hex form."""
    return [
        (r.face_label, r.max_onface_residual.hex(),
         {d: m.hex() for d, m in r.margins.items()}, r.onface_count, r.verdict)
        for r in reports
    ]


@pytest.mark.parametrize("samples, thetas, deltas", [
    (64, 8, fc.MARGIN_DELTAS),
    (512, 64, fc.MARGIN_DELTAS),
    (512, 512, fc.MARGIN_DELTAS),
    (512, 64, DELTAS),
    (256, 32, (0.1, 0.02)),
])
def test_reports_equal_the_per_face_reference(samples, thetas, deltas):
    catalogue, body, cone, lifted = setup(samples, thetas)
    body_reports, lifted_reports = kernel(samples, thetas, deltas=deltas)
    assert bits(body_reports) == bits(
        [reference_verify_exposure(face, pair, body, deltas=deltas) for face, pair in catalogue]
    )
    assert bits(lifted_reports) == bits([
        reference_verify_cone_exposure(lift, cone, body.ids, body.ts, face, deltas=deltas)
        for (face, _), lift in zip(catalogue, lifted)
    ])
    if (samples, thetas) == (512, 512):
        # the known fine-grid failure: weakly exposed singletons near the origin
        assert all(r.passed for r in body_reports)
        assert [r.face_label for r in lifted_reports if not r.passed] == [
            "lift:F02(0.001534)", "lift:F03(0.001534)",
        ]
    else:
        assert all(r.passed for r in body_reports + lifted_reports)


@pytest.mark.parametrize("samples, thetas", [(64, 8), (512, 64), (512, 512), (2048, 256)])
def test_array_lifts_have_the_bits_of_the_reference(samples, thetas):
    catalogue, body, cone, lifted = setup(samples, thetas)
    normals = np.array([pair.normal for _, pair in catalogue])
    offsets = np.array([pair.offset for _, pair in catalogue])
    assert con.homogenize(body).generators.tobytes() == cone.tobytes()
    assert con.lift_pairs(normals, offsets).tobytes() == np.array(lifted).tobytes()


@pytest.mark.parametrize("samples, thetas", [(64, 8), (512, 64)])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, samples, thetas):
    catalogue, body, _, _ = setup(samples, thetas)
    default = kernel(samples, thetas)
    for budget in (1, len(catalogue) * len(body.ts)):  # one face, one block
        monkeypatch.setattr(fc, "BLOCK_ELEMENTS", budget)
        blocked = kernel(samples, thetas)
        assert bits(blocked[0]) == bits(default[0])
        assert bits(blocked[1]) == bits(default[1])


@pytest.mark.parametrize("far_value, verdict", [(-0.5, "fail"), (-2.0, "pass")])
def test_far_generator_must_clear_eq_abs_on_the_cone(far_value, verdict):
    # A hand-made body on the grids {0, 0.3, 0.5, 0.7, T} (curve 1),
    # {0, 0.4, T} (curve 2) and {0, T} (curves 3, 4). The pair x_1 <= 0
    # exposes the face {curve1(0.5)}, since curve 1 lies in x_1 = 0; it lifts
    # to (-1/2, 1, 0, 0), of value 2 x_1 on the generator over x. The face
    # sample has x_1 = 0, the curve-2 sample at 0.4 (0.9 away from the face)
    # x_1 = far_value * eq_abs / 2, and every other sample x_1 = -1/2. A
    # dyadic eq_abs keeps every lifted value exact.
    eq_abs = 2.0**-30
    grids = {1: np.array([0.0, 0.3, 0.5, 0.7, T]), 2: np.array([0.0, 0.4, T]),
             3: np.array([0.0, T]), 4: np.array([0.0, T])}
    first = {i: np.full(g.size, -0.5) for i, g in grids.items()}
    first[1][2], first[2][1] = 0.0, far_value * eq_abs / 2.0
    x1 = np.concatenate(list(first.values()))
    body = con.BodySamples(ids=np.concatenate([np.full(g.size, i) for i, g in grids.items()]),
                           ts=np.concatenate(list(grids.values())),
                           xyz=np.column_stack([x1, np.zeros((x1.size, 2))]))
    face = fc.FaceDescriptor("F01", 0, param=0.5, anchors=((1, 0.5),))
    pair = fc.ExposingPair(np.array([1.0, 0.0, 0.0]), 0.0)
    body_rep, rep = (reports[0] for reports in
                     fc.verify_catalogue([(face, pair)], body, lifted=True, eq_abs=eq_abs))
    assert body_rep.passed
    assert rep.verdict == verdict
    assert rep.margins[0.01] == -far_value * eq_abs
    assert rep.onface_count == 1
    assert bits([rep]) == bits([reference_verify_cone_exposure(
        reference_lift(pair), reference_cone(body), body.ids, body.ts, face, eq_abs=eq_abs)])


@pytest.mark.parametrize("samples, thetas", [(512, 64), (2048, 256)])
def test_kernel_memory_stays_under_two_mib(samples, thetas):
    catalogue, body, _, _ = setup(samples, thetas)
    fc.verify_catalogue(catalogue[:4], body, lifted=True)  # warm numpy up
    tracemalloc.start()
    try:
        fc.verify_catalogue(catalogue, body, lifted=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole faces x samples matrix would take ~25 MB at 512/64
    assert peak <= 2 * 2**20


def test_param_distances_equal_the_reference():
    def kernel_distances(face, ids, ts):
        return fc._block_distances(fc._distance_table([face]), slice(0, 1), fc._curve_runs(ids), ts)[0]

    catalogue, body, _, _ = setup(64, 8)
    for face, _ in catalogue:
        assert np.array_equal(kernel_distances(face, body.ids, body.ts),
                              reference_param_distances(face, body.ids, body.ts)), face.label()
    twice = fc.FaceDescriptor("F11", 1, anchors=((1, 0.1), (1, 0.2)))
    with pytest.raises(DomainError):
        kernel_distances(twice, body.ids, body.ts)
    with pytest.raises(DomainError):  # id 0 would index curve 4's anchors
        kernel_distances(catalogue[0][0], body.ids - 1, body.ts)


def test_batched_anchor_residuals_have_the_per_face_bits():
    for samples, thetas in ((64, 8), (512, 512)):
        catalogue, _, _, _ = setup(samples, thetas)
        faces = [face for face, _ in catalogue]
        normals = np.array([pair.normal for _, pair in catalogue])
        offsets = np.array([pair.offset for _, pair in catalogue])
        batched = fc._anchor_residuals(faces, normals, offsets)
        for (face, pair), res in zip(catalogue, batched):
            pts, y, d = fc.face_points(face), pair.normal, pair.offset
            per_face = max(np.abs(pts @ y - d).max(), abs(float(pts.mean(axis=0) @ y) - d))
            assert res == per_face, face.label()


def test_margin_radii_must_be_off_the_face():
    catalogue, body, _, _ = setup(64, 8)
    with pytest.raises(DomainError):
        fc.verify_catalogue(catalogue, body, deltas=(1e-9, 0.1))
    assert math.isinf(fc.verify_catalogue(catalogue[:1], body, deltas=(1.0,))[0][0].margins[1.0])
