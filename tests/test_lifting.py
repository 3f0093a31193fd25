import numpy as np
import pytest

from conelab import construction as con
from conelab import faces as fc
from helpers import (
    FaceDescriptor,
    exposing_pair,
    face_rows,
    reference_verify_cone_exposure,
    sample_cone,
)

T = con.T_END


def lift(normal, offset):
    """The cone functional of one body pair (y, d)."""
    return con.lift_pairs(np.array([normal], dtype=float), [offset])[0]


def lifted_report(face, cone):
    """The per-face reference check of the lift of the face's closed-form
    pair on the generators of the cone over C'."""
    pair = exposing_pair(face)
    return reference_verify_cone_exposure(lift(pair.normal, pair.offset), cone.generators,
                                          cone.ids, cone.ts, face)


@pytest.fixture(scope="module")
def cone():
    # grids carry selected ruling anchors so lifted equality sets are nonempty
    thetas = np.array([T / 4, T / 2, T])
    partners = np.array([con.ruling_data(th).t for th in thetas])
    base = con.curve_grid(256)
    outer = np.unique(np.concatenate([base, thetas]))
    inner = np.unique(np.concatenate([base, partners]))
    return sample_cone({1: outer, 2: inner, 3: inner, 4: outer})


class TestLifting:
    def test_lift_is_minus_offset_then_normal(self):
        # (e3, 1/4) moves to (e3, 1) on C' = 2C + SHIFT
        assert np.array_equal(lift([0.0, 0.0, 1.0], 0.25), [-1.0, 0.0, 0.0, 1.0])

    def test_zero_offset_pair(self):
        # (e1, -1/4) moves to (e1, 0) on C'
        assert np.array_equal(lift([1.0, 0.0, 0.0], -0.25), [0.0, 1.0, 0.0, 0.0])

    def test_scaled_body_transfer(self):
        y = lift([0.0, 0.0, 1.0], 0.0)
        assert -y[0] == pytest.approx(0.5)  # 2*0 + <e3, SHIFT>
        assert np.array_equal(y[1:], [0.0, 0.0, 1.0])

    def test_lifted_flat_side_annihilates_its_generators(self):
        y = lift([0.0, 0.0, 1.0], 0.0)
        assert np.allclose(y, [-0.5, 0.0, 0.0, 1.0], atol=1e-15)
        ts = np.linspace(0.0, T, 97)
        for i in (3, 4):
            assert np.abs(con.lift_points(con.curve_points(i, ts)) @ y).max() <= 1e-15
        # the doubled pair from the correspondence with the perp direction
        assert np.allclose(2.0 * y, -con.WITNESS_U, atol=1e-15)

    def test_lifted_value_is_twice_the_body_slack(self):
        catalogue = fc.build_catalogue(con.theta_grid(8))
        normals, offsets = catalogue.normals, catalogue.offsets
        x = con.curve_points(1, np.linspace(0.0, T, 33))
        values = con.lift_points(x) @ con.lift_pairs(normals, offsets).T
        assert np.abs(values - 2.0 * (x @ normals.T - offsets)).max() <= 1e-15


class TestConeExposure:
    def test_flat_side_equality_set(self, cone):
        face = FaceDescriptor("F24", 2, full_curves=(3, 4))
        rep = lifted_report(face, cone)
        assert rep.passed
        expected = int(((cone.ids == 3) | (cone.ids == 4) | (cone.ts == 0.0)).sum())
        assert rep.onface_count == expected

    def test_singleton_equality_only_at_its_generator(self, cone):
        th = T / 2
        face = FaceDescriptor("F01", 0, param=th, anchors=((1, th),))
        rep = lifted_report(face, cone)
        assert rep.passed
        assert rep.onface_count == 1

    def test_ruled_face_equality_pair(self, cone):
        th = T / 4
        r = con.ruling_data(th)
        face = FaceDescriptor("F11", 1, param=th, partner=r.t, anchors=((1, th), (3, r.t)))
        rep = lifted_report(face, cone)
        assert rep.passed
        assert rep.onface_count == 2

    def test_apex_value_is_zero(self):
        pair = exposing_pair(FaceDescriptor("F24", 2, full_curves=(3, 4)))
        assert float(np.zeros(4) @ lift(pair.normal, pair.offset)) == 0.0

    def test_whole_catalogue_lifts_cleanly(self, cone):
        catalogue = fc.build_catalogue(np.array([T / 4, T / 2, T]))
        for face, _ in face_rows(catalogue):
            assert lifted_report(face, cone).passed, face.label()

