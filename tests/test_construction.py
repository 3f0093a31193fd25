import math
import re

import numpy as np
import pytest

from conelab import construction as con
from conelab import faces as fc
from conelab import niceness as nn
from conelab.linalg import DegenerateInputError, DomainError
from helpers import (
    ladder,
    reference_arc_coefficients,
    reference_cone,
    reference_shift_bounds,
    sample_body,
    sample_cone,
    verification_grids,
)

SQRT2_INV = 1.0 / math.sqrt(2.0)
T = con.T_END

# Each arc lies on a unit circle; centre per curve id.
ARC_CENTERS = {
    1: np.array([0.0, 0.0, -1.0]),
    2: np.array([0.0, -1.0, 0.0]),
    3: np.array([0.0, 1.0, 0.0]),
    4: np.array([-1.0, 0.0, 0.0]),
}


class TestCurves:
    def test_all_curves_start_at_the_origin(self):
        for i in con.CURVE_IDS:
            assert np.linalg.norm(con.curve_points(i, 0.0)) <= 1e-12

    def test_endpoint_values(self):
        assert np.allclose(con.curve_points(1, T), [0.0, -SQRT2_INV, SQRT2_INV - 1.0], atol=1e-15)
        assert np.allclose(con.curve_points(2, T), [0.0, SQRT2_INV - 1.0, -SQRT2_INV], atol=1e-15)
        assert np.allclose(con.curve_points(3, T), [-SQRT2_INV, 1.0 - SQRT2_INV, 0.0], atol=1e-15)
        assert np.allclose(con.curve_points(4, T), [SQRT2_INV - 1.0, SQRT2_INV, 0.0], atol=1e-15)

    def test_each_arc_lies_on_its_unit_circle(self):
        ts = np.linspace(0.0, T, 403)
        for i, center in ARC_CENTERS.items():
            radii = np.linalg.norm(con.curve_points(i, ts) - center, axis=1)
            assert np.abs(radii - 1.0).max() <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            con.curve_points(1, -0.1)
        with pytest.raises(DomainError):
            con.curve_points(1, T + 0.1)
        with pytest.raises(DomainError):
            con.curve_points(5, 0.1)

    def test_the_domain_is_exactly_0_to_T(self):
        # one ulp past T, and the smallest subnormal below 0, are outside
        for t in (np.nextafter(T, 1.0), -5e-324):
            with pytest.raises(DomainError):
                con.curve_points(1, t)
        assert con.curve_points(1, [0.0, T]).shape == (2, 3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda v: con.curve_points(1, v),
        lambda v: con.curve_points(2, [0.1, v]),
        lambda v: con.partner_cos(v),
        lambda v: con.theta_for_partner(v),
        lambda v: con.ruling_data(v),
        lambda v: sample_body(np.array([0.0, v, T])),
        lambda v: sample_cone(np.array([0.0, v, T])),
        lambda v: nn.shift_bounds(np.array([0.0, v, T])),
        lambda v: fc.build_catalogue([0.1, v]),
    ], ids=["curve_point", "curve_points", "partner_cos", "theta_for_partner",
            "ruling_data", "sample_body", "sample_cone", "shift_bounds", "build_catalogue"])
    def test_non_finite_parameters_rejected(self, call, value):
        # every bound check compares with NaN as False, so each must be
        # written to reject it
        with pytest.raises(DomainError):
            call(value)


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
        cosines = np.array([con.partner_cos(th) for th in np.linspace(T / 1000, T, 1000)])
        assert np.all(np.diff(cosines) < 0)
        assert con.partner_cos(T / 1000) > cosines[-1] == pytest.approx(SQRT2_INV, abs=1e-12)

    def test_partner_param_is_an_increasing_bijection(self):
        grid = np.linspace(T / 500, T, 500)
        vals = np.array([con.partner_param(th) for th in grid])
        assert np.all(np.diff(vals) > 0)
        assert abs(vals[-1] - T) <= 1e-9
        assert con.partner_param(1e-18) <= 1e-9
        # closed-form inverse round-trips
        for th in grid[::25]:
            assert con.theta_for_partner(con.partner_param(th)) == pytest.approx(th, abs=1e-9)

    @pytest.mark.parametrize("t", [1.4e-8, 1e-8, 1e-12])
    def test_a_partner_whose_theta_rounds_to_0_is_refused_by_its_own_value(self, t):
        # cos t is 1 or the float below it, so the closed form gives
        # theta = 0; the error names the t given, not a theta the caller
        # never passed
        with pytest.raises(DomainError, match=f"^t={t!r} "):
            con.theta_for_partner(t)
        with pytest.raises(DomainError, match=re.escape(f"t={np.array([t])} ")):
            fc.build_catalogue(np.array([0.5, t]))
        assert con.theta_for_partner(3e-8) > 0.0

    @pytest.mark.parametrize("theta", [1e-17, 5e-324])
    def test_a_theta_whose_partner_cosine_rounds_to_1_is_refused_by_its_own_value(self, theta):
        # below theta ~ 2e-16 the partner cosine rounds to 1, so there is no
        # partner; the error names the theta given, not the derived cosines
        with pytest.raises(DomainError, match=f"^theta={re.escape(repr(theta))} "):
            con.ruling_data(theta)
        for call in (con.ruling_data, fc.build_catalogue):
            with pytest.raises(DomainError, match=re.escape(f"theta={np.array([theta])} ")):
                call(np.array([0.5, theta]))
        assert con.ruling_data(np.array([0.5, 1e-15])).t.min() > 0.0

    @pytest.mark.parametrize("n", [8, 9, 63, 64, 100, 512, 1000, 1023, 2048, 4096])
    def test_the_partner_of_the_top_is_exactly_the_top(self, n):
        # arccos rounds to T + 1.1e-16 at theta = T; a partner above T would
        # put a second endpoint sample, outside [0, T], on curves 2 and 3
        thetas = con.theta_grid(n)
        assert max(con.partner_param(th) for th in thetas) == T
        assert con.ruling_data(T).t == T
        _, grids = verification_grids(n, 64)
        for g in grids.values():
            assert g.max() == T and np.count_nonzero(g == T) == 1


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

    def test_offset_identity_within_its_forward_error_bound(self):
        # ct = partner_cos(theta) solves ct (1 + sin th - cos th) = sin th, so
        # ct (1 - cos th) = sin th (1 - ct) exactly. In doubles, with unit
        # roundoff u = 2^-53 and sin/cos within 1 ulp: ct = c/(c + s) of the
        # half-angle sin and cos is within 4u of its value in [1/sqrt2, 1);
        # 1 - cos th and 1 - ct are exact subtractions (Sterbenz) of operands
        # within u resp. 4u; so the offset ct (1 - cos th) is within
        # 4u * 0.3 + u + u/4 < 2.5u and sin th (1 - ct) within
        # u * 0.3 + 0.71 * 4u + u/4 < 3.4u of the common exact value.
        bound = 6.0 * 2.0**-53
        thetas = np.concatenate([np.geomspace(1e-9, T, 10_001),
                                 np.linspace(T / 10_000, T, 10_000)])
        sin_form = np.sin(thetas) * (1.0 - con.partner_cos(thetas))
        gaps = np.abs(con.ruling_data(thetas).offset - sin_form)
        assert gaps.max() <= bound

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
        raw = sample_body(con.curve_grid(33))
        scaled = np.vstack([2.0 * con.curve_points(i, raw.ts[raw.ids == i]) + con.SHIFT
                            for i in con.CURVE_IDS])
        assert np.array_equal(con.scale_points(raw.xyz), scaled)
        gens = con.lift_points(raw.xyz)
        assert np.array_equal(gens[:, 0], np.ones(len(gens)))
        assert np.array_equal(gens[:, 1:], scaled)
        # a single point lifts to one row
        assert np.array_equal(con.lift_points(raw.xyz[5]), gens[5:6])

    # shift_bounds and the test route sample_cone both take their grids
    # through construction.check_grid
    def test_grids_must_cover_both_endpoints(self):
        # a grid that ends past T, on one curve or on all of them
        past = np.linspace(0.0, T + 5e-13, 16)
        for grid in (np.linspace(0.1, T, 16), np.linspace(0.0, T / 2, 16), past):
            with pytest.raises(DomainError, match="must start at 0 and end at T"):
                nn.shift_bounds(grid)
        for grids in (past, {1: con.curve_grid(16), 2: past, 3: past, 4: con.curve_grid(16)}):
            with pytest.raises(DomainError, match="must start at 0 and end at T"):
                sample_cone(grids)

    def test_grids_must_end_exactly_at_T(self):
        # 5e-13 short of T does not hold T, on one curve or on all of them
        short = np.linspace(0.0, T - 5e-13, 16)
        with pytest.raises(DomainError, match="must start at 0 and end at T"):
            nn.shift_bounds(short)
        for grids in (short, {1: con.curve_grid(16), 2: short, 3: con.curve_grid(16),
                              4: con.curve_grid(16)}):
            with pytest.raises(DomainError, match="must start at 0 and end at T"):
                sample_cone(grids)

    def test_grids_must_be_non_decreasing(self):
        # each curve's samples are one run sorted by parameter
        g = con.curve_grid(9)
        for bad in (g[[0, 2, 1, *range(3, 9)]], np.where(np.arange(9) == 4, np.nan, g)):
            with pytest.raises(DomainError):
                nn.shift_bounds(bad)
            with pytest.raises(DomainError):
                sample_cone({1: g, 2: g, 3: bad, 4: g})
        repeated = np.array([0.0, 0.3, 0.3, T])
        assert len(sample_cone(repeated).ts) == 16
        # curves 1 and 2 bound lambda at their three positive samples
        assert len(reference_shift_bounds(repeated)[0]) == 6
        assert nn.shift_bounds(repeated)["achieving"] == (1, 0.3)

    def test_empty_grid_rejected(self):
        with pytest.raises(DegenerateInputError):
            nn.shift_bounds(np.array([]))
        with pytest.raises(DegenerateInputError):
            sample_cone(np.array([]))

    def test_label_arrays_match_the_stacked_points(self):
        outer = con.curve_grid(33)
        inner = np.unique(np.concatenate([outer, [0.1, 0.2, 0.3]]))
        grids = {1: outer, 2: inner, 3: inner, 4: outer}
        cone = sample_cone(grids)
        assert len(cone.ids) == len(cone.ts) == len(cone.generators) == sum(
            g.size for g in grids.values())
        for i, t, g in zip(cone.ids, cone.ts, cone.generators):
            assert np.array_equal(g, con.lift_points(con.curve_points(i, t))[0])

    def test_sample_cone_hands_the_label_arrays_to_the_cone(self):
        body = sample_body(con.curve_grid(16))
        cone = sample_cone(con.curve_grid(16))
        assert np.array_equal(cone.ids, body.ids) and np.array_equal(cone.ts, body.ts)
        assert np.array_equal(cone.generators[:, 1:], con.scale_points(body.xyz))

    def test_sample_cone_generator_for_the_origin_sample(self):
        cone = sample_cone(con.curve_grid(8))
        origin_rows = [g for g, t in zip(cone.generators, cone.ts) if t == 0.0]
        assert len(origin_rows) == 4
        for g in origin_rows:
            assert np.allclose(g, [1.0, 0.5, 0.0, 0.5], atol=1e-15)

    def test_sample_cone_generator_for_scaled_p1(self):
        grid = con.curve_grid(8)
        cone = sample_cone(grid)
        k = int(np.flatnonzero((cone.ids == 1) & (cone.ts == T))[0])
        expected = [1.0, 0.5, -math.sqrt(2.0), math.sqrt(2.0) - 1.5]
        assert np.allclose(cone.generators[k], expected, atol=1e-15)
        assert len(cone.generators) == 4 * len(grid)

    def test_sample_cone_refuses_what_sample_body_refuses(self):
        g = con.curve_grid(9)
        with pytest.raises(DegenerateInputError):
            sample_cone(np.array([]))
        with pytest.raises(DegenerateInputError):
            sample_cone({1: g, 2: g, 3: g})
        with pytest.raises(DomainError):
            sample_cone({1: g, 2: g, 3: g[[0, 2, 1, *range(3, 9)]], 4: g})


def _reference_optimum(grid):
    """lambda_star and achieving of the reference rows
    (helpers.reference_shift_bounds): their maximum and the (curve, t) of its
    first row, curve by curve; (inf, the first such row, curve by curve)
    when a flat row, <u, g> = 0 with <q, g> > 0, holds for no lambda."""
    a, b = con.arc_coefficients(np.array([con.WITNESS_U[1:], con.WITNESS_Q[1:]]))
    ug, qg = con.arc_value(a[:, :, None], b[:, :, None], con.arc_sines(grid))
    k, j = np.argwhere((ug == 0.0) & (qg > 0.0)).T
    if k.size:
        return math.inf, (con.CURVE_IDS[k[0]], float(grid[j[0]]))
    bounds, ids, ts = reference_shift_bounds(grid)
    k = int(np.argmax(bounds))
    return float(bounds[k]), (int(ids[k]), float(ts[k]))


def _same_optimum(grid):
    """shift_bounds(grid) gives the reference's lambda_star, bit for bit,
    and its achieving (curve, t)."""
    prof = nn.shift_bounds(grid)
    lam, achieving = _reference_optimum(grid)
    return prof["lambda_star"].hex() == lam.hex() and prof["achieving"] == achieving


def _route_error(t, bound):
    """The dot-product route's error in a bound at parameter t: it evaluates
    1 - cos t by cancellation, so about 4u/t^2 relative, taken twice (the
    form perfbench/checks.py states), of |bound| + 1, the size of the two
    terms of cot(t/2)/2 - 1 and tan(t/2)/2 - 1 (near T, where cot(t/2)/2 is
    about 1.2, the difference is 6 times smaller than they are)."""
    return 8.0 * 2.0**-53 / (t * t) * (np.abs(bound) + 1.0)


class TestSampleCone:
    """The sweep reads its rows one curve and functional at a time from one
    pair of sines per grid, and keeps only their largest bound: its
    lambda_star and achieving must be the maximum and first argmax, bit for
    bit, of the rows of helpers.reference_shift_bounds. Those rows agree
    with the dot-product route g @ WITNESS_Q / g @ WITNESS_U on the
    generators of helpers.sample_cone within that route's rounding error,
    and that route's generators hold the bits of the reference lift."""

    @pytest.mark.parametrize("n", [8, 512, 8192, 20000])
    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6, 1e-7, 1e-9, nn.EPS_FLOOR])
    def test_sweep_grids_have_the_bits_of_the_reference(self, eps, n):
        # the sweep's own grid, and the dense ladder with the same smallest
        # positive parameter
        assert _same_optimum(np.array([0.0, eps, T]))
        assert _same_optimum(ladder(eps, n))

    def test_control_and_flat_row_grids_have_the_optimum_of_the_reference(self):
        assert _same_optimum(nn.CONTROL_GRID)
        assert nn.shift_bounds(nn.CONTROL_GRID)["achieving"] == (1, T)
        # far below the floor, the curve-1 row at 1e-170 is flat with
        # <q, g> > 0: no lambda at all, so +inf there, in both
        flat = ladder(1e-170, 16)
        assert _reference_optimum(flat) == (math.inf, (1, 1e-170))
        assert _same_optimum(flat)

    @pytest.mark.parametrize("samples, thetas", [(512, 64), (64, 512), (2048, 256)])
    def test_verify_grids_have_the_bits_of_the_reference(self, samples, thetas):
        # the per-curve grids the sampled face references run on: the cone
        # of the dot-product route lifts their body samples by lift_points,
        # which must hold the bits of moving them to 2x + SHIFT and
        # homogenizing (helpers.reference_cone)
        _, grids = verification_grids(thetas, samples)
        # curves 1/4 share one grid array and 2/3 another
        assert grids[1] is grids[4] and grids[2] is grids[3] and grids[1] is not grids[2]
        cone = sample_cone(grids)
        assert cone.generators.tobytes() == reference_cone(sample_body(grids)).tobytes()

    def test_repeated_values_have_the_bits_of_the_reference(self):
        g = np.array([0.0, 0.0, 0.1, 0.3, 0.3, 0.3, T, T])
        assert _same_optimum(g)

    @pytest.mark.parametrize("n", [8, 512, 8192])
    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_bounds_agree_with_the_dot_product_route(self, eps, n):
        grid = ladder(eps, n)
        bounds, ids, ts = reference_shift_bounds(grid)
        g = sample_cone(grid).generators
        ug, qg = g @ con.WITNESS_U, g @ con.WITNESS_Q
        # the same rows bound lambda in both routes: curves 1 and 2 off t = 0
        assert (ug > 0.0).sum() == len(bounds)
        assert (np.abs(bounds - qg[ug > 0.0] / ug[ug > 0.0]) <= _route_error(ts, bounds)).all()

    def test_sweep_rows_equal_those_of_the_reference_cone(self):
        # the benchmark's six levels down to 1e-6, against the dot-product
        # route on the ladder of 8,192 samples per curve: each row's
        # (curve, t) equals that route's, and its lambda_star equals that
        # route's within the route's rounding error
        levels = (0.3, 0.05, 0.004, 0.0003, 2e-5, 1e-6)
        rows = nn.divergence_sweep(levels)["rows"]
        for e, lam, product, cid, t in rows:
            cone = sample_cone(ladder(e, 8192))
            ug, qg = cone.generators @ con.WITNESS_U, cone.generators @ con.WITNESS_Q
            on = ug > 0.0
            bounds = qg[on] / ug[on]
            k = int(np.argmax(bounds))
            assert (cid, t) == (int(cone.ids[on][k]), float(cone.ts[on][k])) == (1, e)
            assert abs(lam - bounds[k]) <= _route_error(e, lam)
            assert product == lam * e

    def test_one_pair_of_sines_per_sample_and_float_rows(self, monkeypatch):
        sines, rows = [], []
        real_sines, real_value = nn.arc_sines, nn.arc_value

        def counted_sines(t):
            sines.append(t)
            return real_sines(t)

        def counted_value(a, b, pair):
            row = real_value(a, b, pair)
            rows.append(type(row))
            return row

        # sin t and sin(t/2) once per sample of each level's grid
        # (0, epsilon, T), shared by every curve and functional; each row is
        # then one Python float
        monkeypatch.setattr(nn, "arc_sines", counted_sines)
        monkeypatch.setattr(nn, "arc_value", counted_value)
        levels = [1e-1, 1e-2, 1e-3]
        nn.divergence_sweep(levels)
        assert sines == [t for e in levels for t in (0.0, e, T)]
        assert rows == [float] * (3 * 3 * 4 * 2)


class TestArcCoefficients:
    """arc_coefficients picks y's entries with their signs instead of taking
    the matrix product: (A, B) must be the product's, bit for bit, signed
    zeros included (compared as int64 views)."""

    @staticmethod
    def _same_bits(normals):
        normals = np.asarray(normals, dtype=float)
        picks, products = con.arc_coefficients(normals), reference_arc_coefficients(normals)
        return all(p.shape == q.shape and np.array_equal(p.view(np.int64), q.view(np.int64))
                   for p, q in zip(picks, products))

    @pytest.mark.parametrize("thetas", [8, 64, 256, 1024])
    def test_catalogue_normals(self, thetas):
        assert self._same_bits(fc.build_catalogue(con.theta_grid(thetas)).normals)

    def test_witnesses(self):
        ys = np.array([con.WITNESS_U[1:], con.WITNESS_Q[1:]])
        assert self._same_bits(ys)
        assert self._same_bits(ys[:1])
        assert self._same_bits(ys[1])

    def test_signed_zeros(self):
        # every row of entries from {-0.0, +0.0, -1.5, 2.0}: a product of
        # a zero column entry with -1.5 is -0.0, yet the sum is +0.0
        values = [-0.0, 0.0, -1.5, 2.0]
        rows = np.array([[a, b, c] for a in values for b in values for c in values])
        assert self._same_bits(rows)
        assert self._same_bits(rows.reshape(8, 8, 3))


class TestWitness:
    def test_fixed_constants(self):
        assert np.array_equal(con.WITNESS_Q, [-1.0, 0.0, -1.0, 2.0])
        assert np.array_equal(con.WITNESS_U, [1.0, 0.0, 0.0, -2.0])
        assert float(con.WITNESS_Q @ con.WITNESS_U) == -5.0

    def test_witnesses_are_the_lifts_of_arc_pairs(self):
        # q and u are lift_pairs(y, 0), bit for bit, so on the generator over
        # x they take 2<y, x>: the sweep reads them as arc values
        ys = np.array([con.WITNESS_U[1:], con.WITNESS_Q[1:]])
        lifted = con.lift_pairs(ys, [0.0, 0.0])
        assert lifted.tobytes() == np.array([con.WITNESS_U, con.WITNESS_Q]).tobytes()

    def test_u_annihilates_the_flat_face_generators(self):
        ts = np.linspace(0.0, T, 101)
        gens = np.hstack([np.ones((101, 1)), 2.0 * con.curve_points(3, ts) + con.SHIFT])
        assert np.abs(gens @ con.WITNESS_U).max() <= 1e-12
