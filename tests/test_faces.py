import math
from fractions import Fraction

import numpy as np
import pytest

from conelab import construction as con
from conelab import faces as fc
from conelab import reporting
from conelab.linalg import DegenerateInputError, DomainError, gamma
import helpers
from exact import ARCS, M_END, ONE, QSqrt2, arc_zeros, combine, dot, within
from helpers import (
    ENDPOINTS,
    FaceDescriptor,
    catalogue_of,
    exposing_pair,
    exposure_reports,
    face_rows,
    face_sample_points,
    identity_suite,
    mirror_point,
    reference_catalogue,
    reference_param_distances,
    sample_body,
)

T = con.T_END


@pytest.fixture(scope="module")
def body():
    return sample_body(con.curve_grid(512))


def face_of(kind, catalogue, param=None):
    """The first (face, pair) row of the given kind (and parameter) of an
    array catalogue."""
    for f, pair in face_rows(catalogue):
        if f.kind == kind and (param is None or f.param == pytest.approx(param, abs=1e-12)):
            return f, pair
    raise AssertionError(f"{kind}({param}) not in catalogue")


def as_bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


# The pairs (y, d) of the fixed faces exactly, in Q(sqrt 2), as faces._FIXED
# writes them: y unnormalised, d its offset. a = 1/sqrt 2.
_A = QSqrt2(0, Fraction(1, 2))
EXACT_FIXED = {
    "F00": ((1, 0, 1), 0),
    "F13": ((1, -1, -1), 1),
    "F14": ((-1, 1, 1), 1),
    "F15": ((-1, 0, -1), _A),
    "F21": ((_A - 2, -_A, -_A), _A),
    "F22": ((-_A, _A, _A - 2), _A),
    "F23": ((1, 0, 0), 0),
    "F24": ((0, 0, 1), 0),
}

# Each float of a catalogue pair is at most eight roundings from its exact
# value, normalised: 1/sqrt 2 takes two, a - 2 one more, math.hypot (within
# 1 ulp) two, and the division by it one. Each is at most 1 in size.
PAIR_ROUNDING = Fraction(gamma(8))


def fixed_pair_misses(catalogue):
    """The fixed faces whose pair in the catalogue is not the exact pair,
    normalised, within PAIR_ROUNDING in every float."""
    misses = []
    for kind, (y, d) in EXACT_FIXED.items():
        pair = face_of(kind, catalogue)[1]
        floats = [*pair.normal.tolist(), pair.offset]
        if not all(within(Fraction(x), a, dot(y, y), PAIR_ROUNDING)
                   for x, a in zip(floats, [*y, d])):
            misses.append(kind)
    return misses


class TestEnumerate:
    def test_count_formula(self):
        cat = fc.build_catalogue(con.theta_grid(5))
        assert len(cat.kinds) == 1 + 4 * 5 + 2 * 5 + 3 + 4 == 38
        for field in (cat.params, cat.partners, cat.full, cat.normals, cat.offsets, cat.sizes):
            assert len(field) == 38
        points = fc.generator_points(cat.gen_ids, cat.gen_ts)
        assert len(cat.gen_ids) == len(cat.gen_ts) == len(points) == cat.sizes.sum()

    def test_single_theta_gives_one_ruled_face_per_family(self):
        cat = fc.build_catalogue(np.array([T]))
        assert cat.kinds.count("F11") == cat.kinds.count("F12") == 1
        # at the top parameter the ruling joins the two arc endpoints p1, p3
        pts = face_sample_points(face_of("F11", cat)[0])
        assert np.allclose(pts[0], ENDPOINTS[1], atol=1e-12)
        assert np.allclose(pts[1], ENDPOINTS[3], atol=1e-12)

    def test_endpoint_chords_always_present(self):
        cat = fc.build_catalogue(con.theta_grid(2))
        assert set(cat.kinds) >= {"F13", "F14", "F15", "F21", "F22", "F23", "F24"}
        pts = face_sample_points(face_of("F13", cat)[0])
        assert np.allclose(pts, [ENDPOINTS[1], ENDPOINTS[2]], atol=1e-15)

    def test_dimension_matches_kind(self):
        # the atlas's dimension is the affine dimension of the face's
        # generator points
        atlas = reporting.run_faces(reporting.RunConfig(theta_grid_size=8))
        for f in atlas["faces"]:
            pts = np.array([g["point"] for g in f["generators"]])
            rank = np.linalg.matrix_rank(pts - pts[0], tol=1e-12)
            assert f["dimension"] == int(f["kind"][1]) == rank, f["kind"]

    def test_ruled_face_generators(self):
        th = T / 3
        cat = fc.build_catalogue(np.array([th]))
        r = con.ruling_data(th)
        f11, _ = face_of("F11", cat, th)
        assert f11.anchors == ((1, th), (3, r.t))
        f12, _ = face_of("F12", cat, th)
        assert f12.anchors == ((4, th), (2, r.t))

    def test_empty_grid_rejected(self):
        with pytest.raises(DegenerateInputError):
            fc.build_catalogue(np.array([]))
        with pytest.raises(DomainError):
            fc.build_catalogue(np.array([0.0, T]))


class TestArrayCatalogue:
    @pytest.mark.parametrize("n", [8, 64, 512, 1024])
    def test_array_catalogue_has_the_bits_of_the_per_face_route(self, n):
        # theta_grid(n) runs from T/n up to T, where the partner's arccos
        # rounds above T and is clamped to T
        thetas = con.theta_grid(n)
        assert thetas[0] == T / n and thetas[-1] == T
        cat = fc.build_catalogue(thetas)
        rows = reference_catalogue(thetas)
        expected = catalogue_of(rows)
        assert cat.kinds == expected.kinds
        for field in ("params", "partners", "normals", "offsets", "gen_ts"):
            got, ref = as_bits(getattr(cat, field)), as_bits(getattr(expected, field))
            assert np.array_equal(got, ref), field
        # the atlas's generator points, against the reference's gathered
        # generator by generator
        points = fc.generator_points(cat.gen_ids, cat.gen_ts)
        reference = np.vstack(helpers.reference_generator_points([face for face, _ in rows]))
        assert np.array_equal(as_bits(points), as_bits(reference))
        for field in ("full", "sizes", "gen_ids"):
            assert np.array_equal(getattr(cat, field), getattr(expected, field)), field
        top = [j for j, kind in enumerate(cat.kinds) if kind == "F11"][-1]
        assert cat.params[top] == T and cat.partners[top] == T


class TestExposingPairs:
    def test_singleton_pair_on_curve1(self):
        th = math.pi / 8
        _, pair = face_of("F01", fc.build_catalogue(np.array([th])))
        assert np.allclose(pair.normal, [1.0, -math.sin(th), math.cos(th)], atol=1e-15)
        assert pair.offset == pytest.approx(1.0 - math.cos(th), abs=1e-15)

    def test_flat_side_pair_matches_brute_force_max(self, body):
        face, pair = face_of("F24", fc.build_catalogue(con.theta_grid(2)))
        assert face.full_curves == (3, 4)
        assert np.allclose(np.abs(pair.normal), [0.0, 0.0, 1.0], atol=1e-12)
        assert pair.offset == pytest.approx(0.0, abs=1e-12)
        # brute force: the third coordinate tops out at 0, exactly on curves 3/4
        third = body.xyz[:, 2]
        assert third.max() == pytest.approx(0.0, abs=1e-15)
        for i, t, z in zip(body.ids, body.ts, third):
            if z > -1e-15:
                assert i in (3, 4) or t == 0.0

    def test_triangle_pair_from_plane_through_generators(self, body):
        face, pair = face_of("F21", fc.build_catalogue(con.theta_grid(2)))
        assert face.anchors == ((1, T), (2, T), (3, T))
        a = 1.0 / math.sqrt(2.0)
        reference = np.array([a - 2.0, -a, -a])
        reference /= np.linalg.norm(reference)
        assert abs(abs(float(pair.normal @ reference)) - 1.0) < 1e-9
        assert (body.xyz @ pair.normal - pair.offset).max() <= 1e-12

    def test_origin_pair_and_closed_form_both_expose(self):
        # the closed forms of the fixed faces are their exact pairs, which
        # expose them on every point of the arcs: on curve i,
        # (1 + m^2)(d - <y, x(m)>) is a quadratic in m = tan(t/2), >= 0 on
        # [0, sqrt 2 - 1], zero exactly at the face's points on the curve
        # and identically zero on a curve that a planar side holds whole.
        # The arcs leave the origin along -e2, -e3, -e1 and e2 (curves 1-4);
        # a y orthogonal to that tangent touches the curve there, a double
        # zero, and every other zero is a crossing. The fine body samples
        # the float pairs.
        cat = fc.build_catalogue(con.theta_grid(2))
        assert fixed_pair_misses(cat) == []
        ends = {0.0: QSqrt2(0), T: M_END}
        touching = {("F00", 1), ("F00", 4), ("F23", 4), ("F24", 1)}
        n = 4096
        fine = sample_body(con.curve_grid(n))
        for kind, (y, d) in EXACT_FIXED.items():
            face, pair = face_of(kind, cat)
            points = helpers.face_generators(face)
            for i in con.CURVE_IDS:
                quadratic = combine((d, ONE), *((-c, arc) for c, arc in zip(y, ARCS[i])))
                if i in face.full_curves:
                    assert not any(c != 0 for c in quadratic), (kind, i)
                    continue
                zeros = {ends[t] for j, t in points if j == i or t == 0.0}
                assert arc_zeros(quadratic) == {
                    z: 2 if (kind, i) in touching else 1 for z in zeros}, (kind, i)
            slack = fine.xyz @ pair.normal - pair.offset
            onface = reference_param_distances(face, fine.ids, fine.ts) <= 1e-9
            # a planar side holds two whole curves and the origin of the others
            assert onface.sum() == (2 * n + 2 if face.full_curves else len(face.anchors))
            assert np.abs(slack[onface]).max() <= 1e-15, kind
            assert slack[~onface].max() < 0.0, kind
            assert exposure_reports(catalogue_of([(face, pair)]))[0].passed, kind

    def test_an_offset_off_by_1e_9_misses_its_exact_pair(self, monkeypatch):
        for kind, (y, d, *rest) in fc._FIXED.items():
            if d == 0.0:
                continue
            with monkeypatch.context() as patch:
                patch.setitem(fc._FIXED, kind, (y, d * (1.0 + 1e-9), *rest))
                assert fixed_pair_misses(fc.build_catalogue(con.theta_grid(2))) == [kind]

    def test_triangle_pairs_are_mirror_images(self):
        cat = fc.build_catalogue(con.theta_grid(2))
        _, p21 = face_of("F21", cat)
        _, p22 = face_of("F22", cat)
        assert np.array_equal(mirror_point(p21.normal), p22.normal)
        assert p21.offset == p22.offset

    def test_catalogue_needs_no_body_and_no_plane_fit(self, monkeypatch):
        expected = fc.build_catalogue(con.theta_grid(64))

        def refuse(*args, **kwargs):
            raise AssertionError("a closed-form catalogue samples no body and fits no plane")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(con, "curve_grid", refuse)
        for (face, pair), (_, ref) in zip(face_rows(fc.build_catalogue(con.theta_grid(64))),
                                          face_rows(expected)):
            assert np.array_equal(pair.normal, ref.normal) and pair.offset == ref.offset, face.label()


class TestVerifyExposure:
    def test_ruled_face_equality_and_margins(self):
        th = T / 2
        f11, pair = face_of("F11", fc.build_catalogue(np.array([th])), th)
        rep = exposure_reports(catalogue_of([(f11, pair)]))[0]
        assert rep.passed
        assert rep.max_onface_residual <= 1e-12
        # equality value on the curve-1 anchor reproduces the offset
        assert float(con.curve_points(1, th) @ pair.normal) == pytest.approx(pair.offset, abs=1e-12)
        assert all(m > 0 for m in rep.margins.values())

    def test_ruling_normal_nonpositive_on_curves_2_and_4(self, body):
        for th in np.linspace(T / 16, T, 16):
            r = con.ruling_data(th)
            for i in (2, 4):
                vals = body.xyz[body.ids == i] @ r.normal
                assert vals.max() <= 1e-15
            assert r.offset > 0

    def test_singleton_on_curve3_equality_only_at_partner(self, body):
        th = T / 3
        r = con.ruling_data(th)
        f03, pair = face_of("F03", fc.build_catalogue(np.array([r.t])))
        vals = body.xyz[body.ids == 3] @ pair.normal - pair.offset
        ts = body.ts[body.ids == 3]
        away = np.abs(ts - r.t) > 1e-9
        assert vals[away].max() < 0
        assert float(con.curve_points(3, r.t) @ pair.normal) == pytest.approx(pair.offset, abs=1e-12)
        assert exposure_reports(catalogue_of([(f03, pair)]))[0].passed

    def test_mismatched_pair_fails_the_face(self):
        # F24's pair misses F11's generators: the face fails, as it does
        # for any other wrong pair
        cat = fc.build_catalogue(np.array([T / 2]))
        f11, _ = face_of("F11", cat)
        _, wrong = face_of("F24", cat)
        exposure = fc.verify_catalogue(catalogue_of([(f11, wrong)]))
        assert exposure.passed.tolist() == [False]
        assert exposure.residuals[0] > exposure.bounds[0]

    def test_pair_moved_off_its_face_by_1e_12_fails(self):
        # the offset of an F01 pair moved out by 1e-12: the far points lie
        # even deeper inside, but the generator misses the hyperplane by
        # 1e-12, over 300 times the rounding bound of the check (2.7e-15)
        cat = fc.build_catalogue(np.array([T / 2]))
        f01, pair = face_of("F01", cat)
        exposure = fc.verify_catalogue(
            catalogue_of([(f01, pair._replace(offset=pair.offset + 1e-12))]))
        assert exposure.residuals[0] == pytest.approx(1e-12, rel=1e-3)
        assert exposure.bounds[0] < 3e-15
        assert (exposure.margins > exposure.bounds[0]).all()
        assert exposure.passed.tolist() == [False]

    def test_whole_catalogue_passes_out_of_sample(self):
        catalogue = fc.build_catalogue(con.theta_grid(16))
        for rep in exposure_reports(catalogue):
            assert rep.passed, rep

    def test_catalogue_computes_each_ruling_once(self, monkeypatch):
        thetas = con.theta_grid(8)
        plain = reference_catalogue(thetas)
        seen, cosines = [], []
        real_cos = con.partner_cos

        def counted(theta):
            seen.append(np.array(theta))
            return con.ruling_data(theta)

        def counted_cos(theta):
            cosines.append(np.array(theta))
            return real_cos(theta)

        monkeypatch.setattr(fc, "ruling_data", counted)
        monkeypatch.setattr(con, "partner_cos", counted_cos)
        shared = fc.build_catalogue(thetas)
        # one array evaluation per theta set: the grid for F11/F12 and its
        # theta_for_partner image for F02/F03, each evaluating partner_cos once
        assert len(seen) == 2
        assert len(cosines) == 2
        assert np.array_equal(seen[0], thetas)
        assert np.array_equal(seen[1], con.theta_for_partner(thetas))
        for (face, pair), (_, ref) in zip(face_rows(shared), plain):
            assert np.array_equal(pair.normal, ref.normal) and pair.offset == ref.offset
            if face.kind == "F11":
                assert face.partner == con.ruling_data(face.param).t

    def test_ruled_midpoints_achieve_equality(self):
        for th in np.linspace(T / 32, T, 32):
            r = con.ruling_data(th)
            mid = 0.5 * (con.curve_points(1, th) + con.curve_points(3, r.t))
            assert abs(float(mid @ r.normal) - r.offset) <= 1e-9


class TestIdentities:
    def test_residuals_at_an_interior_point(self):
        res = identity_suite(T / 3, T / 5)
        assert len(res) == 6
        assert max(res.values()) <= 1e-12

    def test_equality_at_matching_parameters(self):
        th = 0.37
        r = con.ruling_data(th)
        assert float(con.curve_points(1, th) @ r.normal) == pytest.approx(r.offset, abs=1e-12)

    def test_curve2_value_vanishes_at_zero(self):
        r = con.ruling_data(0.52)
        assert float(con.curve_points(2, 0.0) @ r.normal) == 0.0

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
            identity_suite(T + 0.5, T / 2)

    def test_grid_evaluates_the_arcs_once(self, monkeypatch):
        # acceptance criterion 2 evaluates the suite on a 100 x 100 grid in
        # one call: the arcs once on t, with the maxima of one call per theta
        ts, thetas = np.linspace(0.0, T, 100), np.linspace(T / 100, T, 100)
        expected = {}
        for th in thetas:
            for k, v in identity_suite(ts, th).items():
                expected[k] = max(expected.get(k, 0.0), float(v.max()))
        calls = []
        real = con.curve_points

        def counted(i, t):
            calls.append(i)
            return real(i, t)

        monkeypatch.setattr(helpers, "curve_points", counted)
        grid = identity_suite(ts, thetas)
        assert {k: float(v.max()) for k, v in grid.items()} == expected
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

    def test_mirror_image_reports_match(self):
        th = T / 5
        r = con.ruling_data(th)
        f11 = FaceDescriptor("F11", 1, param=th, partner=r.t, anchors=((1, th), (3, r.t)))
        f12 = FaceDescriptor("F12", 1, param=th, partner=r.t, anchors=((4, th), (2, r.t)))
        rep11, rep12 = exposure_reports(catalogue_of([(f, exposing_pair(f)) for f in (f11, f12)]))
        for delta in rep11.margins:
            assert rep11.margins[delta] == pytest.approx(rep12.margins[delta], abs=1e-12)


class TestMarginLaw:
    # The slope of log(smallest margin of a kind) against log(delta) at 8
    # radii from 1e-3 to 0.1. The arcs touch a face's hyperplane tangentially
    # at its anchors, so the margin shrinks like delta^2, except at the
    # endpoint faces (chords F13-F15, triangles F21/F22): the arcs end on
    # their hyperplanes at a nonzero angle, so there it shrinks like delta.
    def test_margins_shrink_quadratically_except_at_the_endpoint_faces(self):
        catalogue = fc.build_catalogue(con.theta_grid(64))
        deltas = np.geomspace(1e-3, 0.1, 8)
        margins = fc.verify_catalogue(catalogue, deltas=tuple(deltas)).margins
        kinds = np.array(catalogue.kinds)
        for kind in sorted(set(catalogue.kinds)):
            slope = np.polyfit(np.log(deltas), np.log(margins[kinds == kind].min(axis=0)), 1)[0]
            expected = 1.0 if kind in ("F13", "F14", "F15", "F21", "F22") else 2.0
            assert abs(slope - expected) <= 0.1, (kind, slope)


class TestThetaGridLimit:
    """faces.MAX_THETA_GRID: past it the smallest grid parameter T/N gives
    F02/F03 margins that floats cannot tell from 0. The one-face catalogue at
    theta = T/N, the smallest parameter of the grid of N, shows the boundary
    in milliseconds."""

    @staticmethod
    def _failures(n):
        catalogue = fc.build_catalogue(np.array([T / n]))
        exposure = fc.verify_catalogue(catalogue)
        return [fc.face_label(catalogue, j) for j in np.flatnonzero(~exposure.passed)]

    def test_the_limit_is_where_the_margin_law_meets_the_bound(self):
        # theta^2 delta^2 / 2 = 4 gamma(10) at delta = 0.01
        crossing = T * 0.01 / math.sqrt(8.0 * gamma(fc.MARGIN_ROUNDINGS))
        assert fc.MAX_THETA_GRID == math.floor(crossing) == 83337
        catalogue = fc.build_catalogue(np.array([T / fc.MAX_THETA_GRID]))
        exposure = fc.verify_catalogue(catalogue)
        theta = T / fc.MAX_THETA_GRID
        for kind in ("F02", "F03"):
            j = catalogue.kinds.index(kind)
            assert exposure.bounds[j] == gamma(fc.MARGIN_ROUNDINGS) * 4.0
            for delta, margin in zip(fc.MARGIN_DELTAS, exposure.margins[j].tolist()):
                assert margin == pytest.approx(theta**2 * delta**2 / 2.0, rel=1e-3)

    def test_the_last_grid_passes_and_the_next_fails(self):
        assert self._failures(fc.MAX_THETA_GRID) == []
        assert self._failures(fc.MAX_THETA_GRID + 1) == ["F02(0.000009)", "F03(0.000009)"]
        # the grid of N starts at exactly the one face's parameter
        assert con.theta_grid(fc.MAX_THETA_GRID)[0] == T / fc.MAX_THETA_GRID

    def test_run_config_refuses_every_grid_past_the_limit(self):
        assert reporting.RunConfig(theta_grid_size=fc.MAX_THETA_GRID).theta_grid_size == 83337
        for n in (fc.MAX_THETA_GRID + 1, 10**6, 2**63):
            with pytest.raises(DomainError, match="at most 83337"):
                reporting.RunConfig(theta_grid_size=n)


class TestCoverage:
    def test_every_sample_lies_in_a_catalogued_face(self):
        grid = con.curve_grid(64)
        # the catalogue's grid carries the singletons: every positive sample
        cat = fc.build_catalogue(grid[grid > 0])
        body = sample_body(grid)
        ids, ts = body.ids, body.ts
        covered = np.zeros(len(ids), dtype=bool)
        for face, _ in face_rows(cat):
            covered |= reference_param_distances(face, ids, ts) <= 1e-12
        assert covered.all()
