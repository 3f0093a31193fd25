import math

import numpy as np
import pytest

from conelab import construction as con
from conelab import reporting
from conelab.linalg import DegenerateInputError, DomainError

SQRT2_INV = 1.0 / math.sqrt(2.0)
T = con.T_END


class TestCurves:
    def test_all_curves_start_at_the_origin(self):
        for i in con.CURVE_IDS:
            assert np.linalg.norm(con.curve_point(i, 0.0)) <= 1e-12

    def test_endpoint_values(self):
        assert np.allclose(con.curve_point(1, T), [0.0, -SQRT2_INV, SQRT2_INV - 1.0], atol=1e-15)
        assert np.allclose(con.curve_point(2, T), [0.0, SQRT2_INV - 1.0, -SQRT2_INV], atol=1e-15)
        assert np.allclose(con.curve_point(3, T), [-SQRT2_INV, 1.0 - SQRT2_INV, 0.0], atol=1e-15)
        assert np.allclose(con.curve_point(4, T), [SQRT2_INV - 1.0, SQRT2_INV, 0.0], atol=1e-15)

    def test_each_arc_lies_on_its_unit_circle(self):
        ts = np.linspace(0.0, T, 403)
        for i, center in con.ARC_CENTERS.items():
            radii = np.linalg.norm(con.curve_points(i, ts) - center, axis=1)
            assert np.abs(radii - 1.0).max() <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            con.curve_point(1, -0.1)
        with pytest.raises(DomainError):
            con.curve_point(1, T + 0.1)
        with pytest.raises(DomainError):
            con.curve_point(5, 0.1)


class TestPartnerMachinery:
    def test_partner_cos_at_the_right_endpoint(self):
        assert con.partner_cos(T) == pytest.approx(SQRT2_INV, abs=1e-12)

    def test_partner_cos_near_zero(self):
        assert abs(con.partner_cos(1e-6) - 1.0) <= 1e-5

    def test_partner_cos_matches_direct_formula(self):
        for th in np.linspace(1e-3, T, 97):
            direct = math.sin(th) / (1.0 + math.sin(th) - math.cos(th))
            assert con.partner_cos(th) == pytest.approx(direct, abs=1e-12)

    def test_scan_strictly_decreasing_with_negative_derivative(self):
        scan = con.scan_partner_cos(np.linspace(T / 1000, T, 1000))
        assert scan.strictly_decreasing
        assert con.partner_cos(T / 1000) > scan.last_value == pytest.approx(SQRT2_INV, abs=1e-12)

    def test_partner_param_is_an_increasing_bijection(self):
        grid = np.linspace(T / 500, T, 500)
        vals = np.array([con.partner_param(th) for th in grid])
        assert np.all(np.diff(vals) > 0)
        assert abs(vals[-1] - T) <= 1e-9
        assert con.partner_param(1e-18) <= 1e-9
        # closed-form inverse round-trips
        for th in grid[::25]:
            assert con.theta_for_partner(con.partner_param(th)) == pytest.approx(th, abs=1e-9)

    @pytest.mark.parametrize("n", [8, 9, 63, 64, 100, 512, 1000, 1023, 2048, 4096])
    def test_the_partner_of_the_top_is_exactly_the_top(self, n):
        # arccos rounds to T + 1.1e-16 at theta = T; a partner above T would
        # put a second endpoint sample, outside [0, T], on curves 2 and 3
        thetas = con.theta_grid(n)
        assert max(con.partner_param(th) for th in thetas) == T
        assert con.ruling_data(T).t == T
        _, grids = reporting._grids(reporting.RunConfig(samples_per_curve=64,
                                                        theta_grid_size=n))
        for g in grids.values():
            assert g.max() == T and np.count_nonzero(g == T) == 1

    def test_scan_rejects_bad_grids(self):
        with pytest.raises(DomainError):
            con.scan_partner_cos([0.3, 0.2])
        with pytest.raises(DegenerateInputError):
            con.scan_partner_cos([0.3])


class TestRulingData:
    def test_partner_equals_quarter_pi_at_the_top(self):
        r = con.ruling_data(T)
        assert r.t == pytest.approx(math.pi / 4.0, abs=1e-12)

    def test_partner_at_pi_over_8(self):
        # frozen from a 50-digit evaluation of arccos(partner_cos(pi/8))
        assert con.ruling_data(math.pi / 8).t == pytest.approx(0.58431650078359773, abs=1e-12)

    def test_offset_closed_forms_agree(self):
        r = con.ruling_data(T)
        # frozen from a 50-digit evaluation; both closed forms equal it
        assert r.offset == pytest.approx(0.20710678118654752, abs=1e-12)
        assert r.offset == pytest.approx(math.sin(T) * (1.0 - math.cos(r.t)), abs=1e-12)

    def test_bundle_invariants_on_a_grid(self):
        for th in np.linspace(T / 64, T, 64):
            r = con.ruling_data(th)
            assert r.t == pytest.approx(math.acos(con.partner_cos(th)), abs=1e-12)
            assert np.linalg.norm(r.normal) > 0
            assert np.linalg.norm(r.mirror_normal) > 0
            assert SQRT2_INV - 1e-12 <= con.partner_cos(th) < 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            con.ruling_data(0.0)
        with pytest.raises(DomainError):
            con.ruling_data(T + 0.2)


class TestBodiesAndCone:
    def test_scaled_samples_are_exact_affine_images(self):
        raw = con.sample_body(con.curve_grid(33))
        scaled = np.vstack([2.0 * raw.points[i] + con.SHIFT for i in con.CURVE_IDS])
        assert np.array_equal(con.scale_points(raw.xyz), scaled)
        gens = con.lift_points(raw.xyz)
        assert np.array_equal(gens[:, 0], np.ones(len(gens)))
        assert np.array_equal(gens[:, 1:], scaled)
        # a single point lifts to one row
        assert np.array_equal(con.lift_points(raw.xyz[5]), gens[5:6])

    def test_grids_must_cover_both_endpoints(self):
        with pytest.raises(DomainError):
            con.sample_body(np.linspace(0.1, T, 16))
        with pytest.raises(DomainError):
            con.sample_body(np.linspace(0.0, T / 2, 16))

    def test_empty_grid_rejected(self):
        with pytest.raises(DegenerateInputError):
            con.sample_body(np.array([]))

    def test_label_arrays_match_the_stacked_points(self):
        outer = con.curve_grid(33)
        inner = np.unique(np.concatenate([outer, [0.1, 0.2, 0.3]]))
        grids = {1: outer, 2: inner, 3: inner, 4: outer}
        body = con.sample_body(grids)
        assert len(body.ids) == len(body.ts) == len(body.xyz) == sum(g.size for g in grids.values())
        for i, t, x in zip(body.ids, body.ts, body.xyz):
            assert np.array_equal(x, con.curve_point(i, t))

    def test_homogenize_hands_the_label_arrays_to_the_cone(self):
        body = con.sample_body(con.curve_grid(16))
        cone = con.homogenize(body)
        ids, ts = cone.labels
        assert np.array_equal(ids, body.ids) and np.array_equal(ts, body.ts)
        assert np.array_equal(cone.generators[:, 1:], con.scale_points(body.xyz))

    def test_homogenize_generator_for_the_origin_sample(self):
        cone = con.homogenize(con.sample_body(con.curve_grid(8)))
        origin_rows = [g for g, i, t in zip(cone.generators, *cone.labels) if t == 0.0]
        for g in origin_rows:
            assert np.allclose(g, [1.0, 0.5, 0.0, 0.5], atol=1e-15)

    def test_homogenize_generator_for_scaled_p1(self):
        grid = con.curve_grid(8)
        cone = con.homogenize(con.sample_body(grid))
        ids, ts = cone.labels
        k = int(np.flatnonzero((ids == 1) & (ts == T))[0])
        expected = [1.0, 0.5, -math.sqrt(2.0), math.sqrt(2.0) - 1.5]
        assert np.allclose(cone.generators[k], expected, atol=1e-15)
        assert len(cone.generators) == 4 * len(grid)

    def test_homogenize_rejects_non_body(self):
        with pytest.raises(DegenerateInputError):
            con.homogenize(np.zeros((3, 3)))


class TestWitness:
    def test_fixed_constants(self):
        w = con.witness()
        assert np.array_equal(w.q, [-1.0, 0.0, -1.0, 2.0])
        assert np.array_equal(w.u, [1.0, 0.0, 0.0, -2.0])
        assert float(w.q @ w.u) == -5.0

    def test_u_annihilates_the_flat_face_generators(self):
        w = con.witness()
        ts = np.linspace(0.0, T, 101)
        gens = np.hstack([np.ones((101, 1)), 2.0 * con.curve_points(3, ts) + con.SHIFT])
        assert np.abs(gens @ w.u).max() <= 1e-12
