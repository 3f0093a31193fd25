import numpy as np
import pytest

from conelab import construction as con
from conelab import faces as fc
from conelab import lifting as lf
from conelab.linalg import DomainError
from helpers import polar_generator_model

T = con.T_END


def lift(normal, offset):
    """The cone functional of one body pair (y, d)."""
    return con.lift_pairs(np.array([normal], dtype=float), [offset])[0]


def lifted_report(face, body):
    """The exposure kernel's lifted check of the face's closed-form pair."""
    return fc.verify_catalogue([(face, fc.exposing_pair(face))], body, lifted=True)[1][0]


@pytest.fixture(scope="module")
def body():
    # grids carry selected ruling anchors so lifted equality sets are nonempty
    thetas = np.array([T / 4, T / 2, T])
    partners = np.array([con.ruling_data(th).t for th in thetas])
    base = con.curve_grid(256)
    outer = np.unique(np.concatenate([base, thetas]))
    inner = np.unique(np.concatenate([base, partners]))
    return con.sample_body({1: outer, 2: inner, 3: inner, 4: outer})


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
        assert np.allclose(2.0 * y, -con.witness().u, atol=1e-15)

    def test_lifted_value_is_twice_the_body_slack(self):
        pairs = [fc.exposing_pair(f) for f in fc.enumerate_faces(con.theta_grid(8))]
        normals = np.array([p.normal for p in pairs])
        offsets = np.array([p.offset for p in pairs])
        x = con.curve_points(1, np.linspace(0.0, T, 33))
        values = con.lift_points(x) @ con.lift_pairs(normals, offsets).T
        assert np.abs(values - 2.0 * (x @ normals.T - offsets)).max() <= 1e-15


class TestConeExposure:
    def test_flat_side_equality_set(self, body):
        face = fc.FaceDescriptor("F24", 2, full_curves=(3, 4))
        rep = lifted_report(face, body)
        assert rep.passed
        expected = int(((body.ids == 3) | (body.ids == 4) | (body.ts == 0.0)).sum())
        assert rep.onface_count == expected

    def test_singleton_equality_only_at_its_generator(self, body):
        th = T / 2
        face = fc.FaceDescriptor("F01", 0, param=th, anchors=((1, th),))
        rep = lifted_report(face, body)
        assert rep.passed
        assert rep.onface_count == 1

    def test_ruled_face_equality_pair(self, body):
        th = T / 4
        r = con.ruling_data(th)
        face = fc.FaceDescriptor("F11", 1, param=th, partner=r.t, anchors=((1, th), (3, r.t)))
        rep = lifted_report(face, body)
        assert rep.passed
        assert rep.onface_count == 2

    def test_apex_value_is_zero(self):
        pair = fc.exposing_pair(fc.FaceDescriptor("F24", 2, full_curves=(3, 4)))
        assert float(np.zeros(4) @ lift(pair.normal, pair.offset)) == 0.0

    def test_whole_catalogue_lifts_cleanly(self, body):
        catalogue = fc.build_catalogue(np.array([T / 4, T / 2, T]))
        for rep in fc.verify_catalogue(catalogue, body, lifted=True)[1]:
            assert rep.passed, rep.face_label

    def test_apex_exposure_on_the_slice(self, body):
        rep = lf.apex_exposure_report(con.homogenize(body))
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
