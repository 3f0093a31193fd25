import numpy as np
import pytest

from conelab import construction as con
from conelab import faces as fc
from conelab import lifting as lf
from conelab.linalg import DimensionMismatchError, DomainError
from helpers import polar_generator_model

T = con.T_END


def lifted_report(face, cone):
    """The exposure kernel's lifted check of the face's closed-form pair."""
    y = lf.lift_pair(lf.pair_for_scaled_body(fc.exposing_pair(face)))
    return fc.verify_catalogue([(face, None)], cone=cone, lifted=[y])[1][0]


@pytest.fixture(scope="module")
def cone():
    # grids carry selected ruling anchors so lifted equality sets are nonempty
    thetas = np.array([T / 4, T / 2, T])
    partners = np.array([con.ruling_data(th).t for th in thetas])
    base = con.curve_grid(256)
    outer = np.unique(np.concatenate([base, thetas]))
    inner = np.unique(np.concatenate([base, partners]))
    grids = {1: outer, 2: inner, 3: inner, 4: outer}
    return con.homogenize(con.sample_body(grids, shifted=True))


class TestLifting:
    def test_lift_is_minus_offset_then_normal(self):
        pair = fc.ExposingPair(np.array([0.0, 0.0, 1.0]), 1.0, fc.CLOSED_FORM)
        assert np.array_equal(lf.lift_pair(pair), [-1.0, 0.0, 0.0, 1.0])

    def test_zero_offset_pair(self):
        pair = fc.ExposingPair(np.array([1.0, 0.0, 0.0]), 0.0, fc.CLOSED_FORM)
        assert np.array_equal(lf.lift_pair(pair), [0.0, 1.0, 0.0, 0.0])

    def test_scaled_body_transfer(self):
        pair = fc.ExposingPair(np.array([0.0, 0.0, 1.0]), 0.0, fc.CLOSED_FORM)
        moved = lf.pair_for_scaled_body(pair)
        assert moved.offset == pytest.approx(0.5)  # 2*0 + <e3, SHIFT>
        assert np.array_equal(moved.normal, pair.normal)

    def test_lifted_flat_side_annihilates_its_generators(self):
        pair = lf.pair_for_scaled_body(fc.ExposingPair(np.array([0.0, 0.0, 1.0]), 0.0, fc.CLOSED_FORM))
        y = lf.lift_pair(pair)
        assert np.allclose(y, [-0.5, 0.0, 0.0, 1.0], atol=1e-15)
        ts = np.linspace(0.0, T, 97)
        for i in (3, 4):
            gens = np.hstack([np.ones((97, 1)), 2.0 * con.curve_points(i, ts) + con.SHIFT])
            assert np.abs(gens @ y).max() <= 1e-15
        # the doubled pair from the correspondence with the perp direction
        assert np.allclose(2.0 * y, -con.witness().u, atol=1e-15)


class TestConeExposure:
    def test_flat_side_equality_set(self, cone):
        face = fc.FaceDescriptor("F24", 2, full_curves=(3, 4))
        rep = lifted_report(face, cone)
        assert rep.passed
        ids, ts = cone.labels
        expected = int(((ids == 3) | (ids == 4) | (ts == 0.0)).sum())
        assert rep.onface_count == expected

    def test_singleton_equality_only_at_its_generator(self, cone):
        th = T / 2
        face = fc.FaceDescriptor("F01", 0, param=th, anchors=((1, th),))
        rep = lifted_report(face, cone)
        assert rep.passed
        assert rep.onface_count == 1

    def test_ruled_face_equality_pair(self, cone):
        th = T / 4
        r = con.ruling_data(th)
        face = fc.FaceDescriptor("F11", 1, param=th, partner=r.t, anchors=((1, th), (3, r.t)))
        rep = lifted_report(face, cone)
        assert rep.passed
        assert rep.onface_count == 2

    def test_apex_value_is_zero(self, cone):
        face = fc.FaceDescriptor("F24", 2, full_curves=(3, 4))
        lifted = lf.lift_pair(lf.pair_for_scaled_body(fc.exposing_pair(face)))
        assert float(np.zeros(4) @ lifted) == 0.0

    def test_dimension_mismatch(self, cone):
        face = fc.FaceDescriptor("F24", 2, full_curves=(3, 4))
        with pytest.raises(DimensionMismatchError):
            fc.verify_catalogue([(face, None)], cone=cone, lifted=[np.array([1.0, 0.0, 0.0])])

    def test_whole_catalogue_lifts_cleanly(self, cone):
        catalogue = fc.build_catalogue(np.array([T / 4, T / 2, T]))
        lifted = [lf.lift_pair(lf.pair_for_scaled_body(pair)) for _, pair in catalogue]
        for rep in fc.verify_catalogue(catalogue, cone=cone, lifted=lifted)[1]:
            assert rep.passed, rep.face_label

    def test_apex_exposure_on_the_slice(self, cone):
        rep = lf.apex_exposure_report(cone)
        assert rep["passed"]
        assert rep["max_generator_value"] == pytest.approx(-1.0)


class TestPolar:
    def test_square_polar_is_the_crosspolytope(self):
        square = lf.square_body(16)
        # (-1, 1/2, 1/2): one-norm 1, on the boundary of the polar
        gens = np.hstack([np.ones((len(square), 1)), square])
        inside = np.array([-1.0, 0.5, 0.5])
        assert (gens @ inside).max() <= 1e-12
        outside = np.array([-1.0, 1.01, 0.0])
        assert (gens @ outside).max() > 1e-3

    def test_direction_zero_always_inside(self):
        square = lf.square_body(8)
        gens = np.hstack([np.ones((len(square), 1)), square])
        assert (gens @ np.array([-1.0, 0.0, 0.0])).max() == -1.0

    def test_disc_polar_radius_threshold(self):
        disc = lf.unit_circle_grid(256)
        gens = np.hstack([np.ones((len(disc), 1)), disc])
        probe = lf.unit_circle_grid(17)  # directions incommensurate with samples
        for direction in probe:
            inside = np.concatenate([[-1.0], (1.0 - 1e-3) * direction])
            outside = np.concatenate([[-1.0], (1.0 + 1e-3) * direction])
            assert (gens @ inside).max() <= 0.0
            assert (gens @ outside).max() > 0.0

    def test_correspondence_check_passes_on_controls(self):
        rep = lf.polar_correspondence_check(lf.square_body(16), lf.unit_circle_grid(256),
                                            interior_margin=0.5)
        assert rep.passed
        assert rep.max_membership_residual <= 1e-9
        assert rep.min_sharpness_violation > 0.0
        rep = lf.polar_correspondence_check(lf.unit_circle_grid(256), lf.unit_circle_grid(128),
                                            interior_margin=0.5)
        assert rep.passed

    def test_body_without_interior_origin_rejected(self):
        shifted_square = lf.square_body(8) + np.array([5.0, 0.0])
        with pytest.raises(DomainError):
            lf.polar_correspondence_check(shifted_square, lf.unit_circle_grid(64),
                                          interior_margin=0.5)

    def test_polar_generator_model_is_valid(self):
        samples = lf.square_body(8)
        model = polar_generator_model(samples, lf.unit_circle_grid(32))
        cone_gens = np.hstack([np.ones((len(samples), 1)), samples])
        assert (model.generators @ cone_gens.T).max() <= 1e-12
