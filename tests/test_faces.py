import math

import numpy as np
import pytest

from conelab import construction as con
from conelab import faces as fc
from conelab import reporting
from conelab.linalg import DegenerateInputError, DomainError
from helpers import mirror_point, reference_param_distances, support_plane_through

T = con.T_END


@pytest.fixture(scope="module")
def body():
    return con.sample_body(con.curve_grid(512))


@pytest.fixture(scope="module")
def coarse_body():
    return con.sample_body(con.curve_grid(128))


def face_of(kind, catalogue, param=None):
    for f in catalogue:
        if f.kind == kind and (param is None or f.param == pytest.approx(param, abs=1e-12)):
            return f
    raise AssertionError(f"{kind}({param}) not in catalogue")


class TestEnumerate:
    def test_count_formula(self):
        cat = fc.enumerate_faces(con.theta_grid(5))
        assert len(cat) == 1 + 4 * 5 + 2 * 5 + 3 + 4 == 38

    def test_single_theta_gives_one_ruled_face_per_family(self):
        cat = fc.enumerate_faces(np.array([T]))
        f11 = [f for f in cat if f.kind == "F11"]
        f12 = [f for f in cat if f.kind == "F12"]
        assert len(f11) == len(f12) == 1
        # at the top parameter the ruling joins the two arc endpoints p1, p3
        pts = fc.face_points(f11[0])
        assert np.allclose(pts[0], con.ENDPOINTS[1], atol=1e-12)
        assert np.allclose(pts[1], con.ENDPOINTS[3], atol=1e-12)

    def test_endpoint_chords_always_present(self):
        cat = fc.enumerate_faces(con.theta_grid(2))
        assert {f.kind for f in cat} >= {"F13", "F14", "F15", "F21", "F22", "F23", "F24"}
        pts = fc.face_points(face_of("F13", cat))
        assert np.allclose(pts, [con.ENDPOINTS[1], con.ENDPOINTS[2]], atol=1e-15)

    def test_dimension_matches_kind(self):
        for f in fc.enumerate_faces(con.theta_grid(4)):
            assert f.dimension == int(f.kind[1])

    def test_ruled_face_generators(self):
        th = T / 3
        cat = fc.enumerate_faces(np.array([th]))
        r = con.ruling_data(th)
        f11 = face_of("F11", cat, th)
        assert f11.anchors == ((1, th), (3, r.t))
        f12 = face_of("F12", cat, th)
        assert f12.anchors == ((4, th), (2, r.t))

    def test_empty_grid_rejected(self):
        with pytest.raises(DegenerateInputError):
            fc.enumerate_faces(np.array([]))
        with pytest.raises(DomainError):
            fc.enumerate_faces(np.array([0.0, T]))


class TestExposingPairs:
    def test_singleton_pair_on_curve1(self):
        th = math.pi / 8
        pair = fc.singleton_pair(1, th)
        assert np.allclose(pair.normal, [1.0, -math.sin(th), math.cos(th)], atol=1e-15)
        assert pair.offset == pytest.approx(1.0 - math.cos(th), abs=1e-15)

    def test_flat_side_pair_matches_brute_force_max(self, body):
        face = fc.FaceDescriptor("F24", 2, full_curves=(3, 4))
        pair = fc.exposing_pair(face)
        assert np.allclose(np.abs(pair.normal), [0.0, 0.0, 1.0], atol=1e-12)
        assert pair.offset == pytest.approx(0.0, abs=1e-12)
        # brute force: the third coordinate tops out at 0, exactly on curves 3/4
        third = body.xyz[:, 2]
        assert third.max() == pytest.approx(0.0, abs=1e-15)
        for i, t, z in zip(body.ids, body.ts, third):
            if z > -1e-15:
                assert i in (3, 4) or t == 0.0

    def test_triangle_pair_from_plane_through_generators(self, body):
        face = fc.FaceDescriptor("F21", 2, anchors=((1, T), (2, T), (3, T)))
        pair = fc.exposing_pair(face)
        a = 1.0 / math.sqrt(2.0)
        reference = np.array([a - 2.0, -a, -a])
        reference /= np.linalg.norm(reference)
        assert abs(abs(float(pair.normal @ reference)) - 1.0) < 1e-9
        assert (body.xyz @ pair.normal - pair.offset).max() <= 1e-12

    def test_origin_pair_and_closed_form_both_expose(self, body, coarse_body):
        # the closed forms of the fixed faces expose their faces on a fine
        # body; those of the faces spanned by endpoints equal the max-margin
        # LP oracle (the planar sides have the brute-force test above)
        cat = fc.enumerate_faces(con.theta_grid(2))
        n = 4096
        fine = con.sample_body(con.curve_grid(n))
        for kind in ("F00", "F13", "F14", "F15", "F21", "F22", "F23", "F24"):
            face = face_of(kind, cat)
            pair = fc.exposing_pair(face)
            if not face.full_curves:
                oracle = support_plane_through(fc.face_points(face), coarse_body)
                assert np.abs(pair.normal - oracle.normal).max() <= 1e-12, kind
                assert abs(pair.offset - oracle.offset) <= 1e-12, kind
            slack = fine.xyz @ pair.normal - pair.offset
            onface = reference_param_distances(face, fine.ids, fine.ts) <= 1e-9
            # a planar side holds two whole curves and the origin of the others
            assert onface.sum() == (2 * n + 2 if face.full_curves else len(face.anchors))
            assert np.abs(slack[onface]).max() <= 1e-15, kind
            assert slack[~onface].max() < 0.0, kind
            assert fc.verify_catalogue([(face, pair)], body)[0][0].passed, kind

    def test_triangle_pairs_are_mirror_images(self):
        cat = fc.enumerate_faces(con.theta_grid(2))
        p21 = fc.exposing_pair(face_of("F21", cat))
        p22 = fc.exposing_pair(face_of("F22", cat))
        assert np.array_equal(mirror_point(p21.normal), p22.normal)
        assert p21.offset == p22.offset

    def test_catalogue_needs_no_body_and_no_plane_fit(self, monkeypatch):
        expected = fc.build_catalogue(con.theta_grid(64))

        def refuse(*args, **kwargs):
            raise AssertionError("a closed-form catalogue samples no body and fits no plane")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(con, "sample_body", refuse)
        for (face, pair), (_, ref) in zip(fc.build_catalogue(con.theta_grid(64)), expected):
            assert np.array_equal(pair.normal, ref.normal) and pair.offset == ref.offset, face.label()


class TestVerifyExposure:
    def test_ruled_face_equality_and_margins(self, body):
        th = T / 2
        cat = fc.enumerate_faces(np.array([th]))
        f11 = face_of("F11", cat, th)
        pair = fc.exposing_pair(f11)
        rep = fc.verify_catalogue([(f11, pair)], body)[0][0]
        assert rep.passed
        assert rep.max_onface_residual <= 1e-12
        # equality value on the curve-1 anchor reproduces the offset
        assert float(con.curve_point(1, th) @ pair.normal) == pytest.approx(pair.offset, abs=1e-12)
        assert all(m > 0 for m in rep.margins.values())

    def test_ruling_normal_nonpositive_on_curves_2_and_4(self, body):
        for th in np.linspace(T / 16, T, 16):
            r = con.ruling_data(th)
            for i in (2, 4):
                vals = body.points[i] @ r.normal
                assert vals.max() <= 1e-15
            assert r.offset > 0

    def test_singleton_on_curve3_equality_only_at_partner(self, body):
        th = T / 3
        r = con.ruling_data(th)
        f03 = fc.FaceDescriptor("F03", 0, param=r.t, anchors=((3, r.t),))
        pair = fc.singleton_pair(3, r.t)
        vals = body.points[3] @ pair.normal - pair.offset
        ts = body.grids[3]
        away = np.abs(ts - r.t) > 1e-9
        assert vals[away].max() < 0
        assert float(con.curve_point(3, r.t) @ pair.normal) == pytest.approx(pair.offset, abs=1e-12)
        assert fc.verify_catalogue([(f03, pair)], body)[0][0].passed

    def test_mismatched_pair_is_an_input_error(self, body):
        cat = fc.enumerate_faces(np.array([T / 2]))
        f11 = face_of("F11", cat)
        wrong = fc.exposing_pair(face_of("F24", cat))
        with pytest.raises(DomainError):
            fc.verify_catalogue([(f11, wrong)], body)

    def test_whole_catalogue_passes_out_of_sample(self, body):
        catalogue = fc.build_catalogue(con.theta_grid(16))
        for (face, _), rep in zip(catalogue, fc.verify_catalogue(catalogue, body)[0]):
            assert rep.passed, (face.label(), rep)

    def test_catalogue_computes_each_ruling_once(self, monkeypatch):
        thetas, _ = reporting._grids(reporting.RunConfig(samples_per_curve=64,
                                                         theta_grid_size=8))
        plain = [(f, fc.exposing_pair(f)) for f in fc.enumerate_faces(thetas)]
        seen = []

        def counted(theta):
            seen.append(theta)
            return con.ruling_data(theta)

        monkeypatch.setattr(fc, "ruling_data", counted)
        shared = fc.build_catalogue(thetas)
        # F11/F12 share theta; F02/F03 share theta_for_partner(t)
        assert len(seen) == len(set(seen)) == 2 * len(thetas)
        for (face, pair), (_, ref) in zip(shared, plain):
            assert np.array_equal(pair.normal, ref.normal) and pair.offset == ref.offset
            if face.kind == "F11":
                assert face.partner == con.ruling_data(face.param).t

    def test_ruled_midpoints_achieve_equality(self):
        for th in np.linspace(T / 32, T, 32):
            r = con.ruling_data(th)
            mid = 0.5 * (con.curve_point(1, th) + con.curve_point(3, r.t))
            assert abs(float(mid @ r.normal) - r.offset) <= 1e-9


class TestIdentities:
    def test_residuals_at_an_interior_point(self):
        res = fc.identity_suite(T / 3, T / 5)
        assert len(res) == 6
        assert max(res.values()) <= 1e-12

    def test_equality_at_matching_parameters(self):
        th = 0.37
        r = con.ruling_data(th)
        assert float(con.curve_point(1, th) @ r.normal) == pytest.approx(r.offset, abs=1e-12)

    def test_curve2_value_vanishes_at_zero(self):
        r = con.ruling_data(0.52)
        assert float(con.curve_point(2, 0.0) @ r.normal) == 0.0

    def test_shifted_normal_rows_for_curves_3_and_4_are_unchanged(self):
        # the shifted normal adds a third coordinate; curves 3/4 have none
        e3 = np.array([0.0, 0.0, 1.0])
        for th in np.linspace(T / 8, T, 8):
            r = con.ruling_data(th)
            for i in (3, 4):
                pts = con.curve_points(i, np.linspace(0, T, 33))
                assert np.abs(pts @ (r.normal + e3) - pts @ r.normal).max() <= 1e-15

    def test_domain_error(self):
        with pytest.raises(DomainError):
            fc.identity_suite(T + 0.5, T / 2)

    def test_grid_evaluates_the_arcs_once(self, monkeypatch):
        ts, thetas = np.linspace(0.0, T, 100), np.linspace(T / 100, T, 100)
        expected = {}
        for th in thetas:
            for k, v in fc.identity_suite(ts, th).items():
                expected[k] = max(expected.get(k, 0.0), float(v.max()))
        calls = []
        real = con.curve_points

        def counted(i, t):
            calls.append(i)
            return real(i, t)

        monkeypatch.setattr(fc, "curve_points", counted)
        monkeypatch.setattr(con, "curve_points", counted)
        assert reporting.identity_grid_max(ts, thetas) == expected
        assert sorted(calls) == [1, 2, 3, 4]


class TestSymmetry:
    def test_mirror_exchanges_the_curves(self):
        ts = np.linspace(0.0, T, 65)
        swap = {1: 4, 4: 1, 2: 3, 3: 2}
        for i, j in swap.items():
            mirrored = np.array([mirror_point(p) for p in con.curve_points(i, ts)])
            assert np.abs(mirrored - con.curve_points(j, ts)).max() <= 1e-12

    def test_mirror_maps_ruling_normal_to_its_mirror(self):
        for th in np.linspace(T / 16, T, 16):
            r = con.ruling_data(th)
            assert np.allclose(mirror_point(r.normal), r.mirror_normal, atol=1e-12)

    def test_mirror_image_reports_match(self, body):
        th = T / 5
        r = con.ruling_data(th)
        f11 = fc.FaceDescriptor("F11", 1, param=th, partner=r.t, anchors=((1, th), (3, r.t)))
        f12 = fc.FaceDescriptor("F12", 1, param=th, partner=r.t, anchors=((4, th), (2, r.t)))
        rep11, rep12 = fc.verify_catalogue([(f, fc.exposing_pair(f)) for f in (f11, f12)], body)[0]
        for delta in rep11.margins:
            assert rep11.margins[delta] == pytest.approx(rep12.margins[delta], abs=1e-12)


class TestCoverage:
    def test_every_sample_lies_in_a_catalogued_face(self):
        grid = con.curve_grid(64)
        # the catalogue's grid carries the singletons: every positive sample
        cat = fc.enumerate_faces(grid[grid > 0])
        body = con.sample_body(grid)
        ids, ts = body.ids, body.ts
        covered = np.zeros(len(ids), dtype=bool)
        for face in cat:
            covered |= reference_param_distances(face, ids, ts) <= 1e-12
        assert covered.all()
