import dataclasses
import math

import numpy as np
import pytest

from conelab import construction as con
from conelab import niceness as nn
from conelab.linalg import DegenerateInputError, DomainError, Tolerance
from helpers import (
    check_positivity_window,
    fibonacci_sphere_grid,
    polar_generator_model,
    positivity_window,
    reference_conic_membership,
    reference_nice3d_ingredients,
)

T = con.T_END


class TestPerpBasis:
    def test_flat_face_slice_points(self):
        basis = nn.perp_basis(nn.face_slice_points())
        assert basis.shape == (1, 4)
        target = np.array([1.0, 0.0, 0.0, -2.0]) / math.sqrt(5.0)
        angle = math.acos(min(1.0, abs(float(basis[0] @ target))))
        assert angle < 1e-9

    def test_standard_basis_leaves_e4(self):
        basis = nn.perp_basis(np.eye(4)[:3])
        assert basis.shape == (1, 4)
        assert np.allclose(np.abs(basis[0]), [0, 0, 0, 1], atol=1e-12)

    def test_full_span_leaves_nothing(self):
        pts = np.vstack([np.eye(4)[:3], [1.0, 1.0, 1.0, 1.0]])
        assert nn.perp_basis(pts).shape == (0, 4)

    def test_degenerate_points_flagged(self):
        pts = np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0], [3.0, 0, 0, 0]])
        with pytest.raises(DegenerateInputError):
            nn.perp_basis(pts)

    def test_vector_outside_the_kernel_fails_the_recheck(self, monkeypatch):
        monkeypatch.setattr(nn, "nullspace", lambda rows: np.array([[1.0, 0.0, 0.0, 0.0]]))
        with pytest.raises(AssertionError):
            nn.perp_basis(nn.face_slice_points())


class TestWitnessSlack:
    def test_zero_at_the_origin_parameter(self):
        for lam in (-2.0, 0.0, 5.0):
            assert nn.witness_slack(0.0, lam) == 0.0

    def test_shift_minus_one_reduces_to_twice_sine(self):
        for t in np.linspace(0.01, T, 23):
            assert nn.witness_slack(t, -1.0) == pytest.approx(2.0 * math.sin(t), abs=1e-12)
            assert nn.witness_slack(t, -1.0) > 0.0

    def test_value_at_top_parameter_no_shift(self):
        # frozen from a 50-digit evaluation of 2*(2*(cos T - 1) + sin T)
        assert nn.witness_slack(T, 0.0) == pytest.approx(0.24264068711928514, abs=1e-12)

    def test_identity_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for t, lam in zip(rng.uniform(0, T, 200), rng.uniform(-8, 8, 200)):
            nn.witness_slack(float(t), float(lam))  # raises if the dot product disagrees


class TestShiftProfile:
    def test_flat_face_generators_are_unconditional(self):
        cone = nn.refined_cone(0.05, samples_per_curve=64)
        prof = nn.shift_profile(cone)
        w = con.witness()
        for g, cid, t in zip(cone.generators, *cone.labels):
            if cid == 3:
                assert float(g @ w.q) == pytest.approx(2.0 * (math.cos(t) - 1.0), abs=1e-12)
                assert abs(float(g @ w.u)) <= 1e-12
            if cid == 4:
                assert float(g @ w.q) == pytest.approx(-2.0 * math.sin(t), abs=1e-12)
                assert abs(float(g @ w.u)) <= 1e-12
        n_gens = len(cone.generators)
        assert sum(prof.counts.values()) == n_gens
        assert prof.counts["infeasible-constant"] == 0
        # curves 3/4 entirely unconditional, plus the four origin samples
        assert prof.counts["unconditional"] == 2 * 64 + 2

    def test_curve1_bound_formula(self):
        cone = nn.refined_cone(0.02, samples_per_curve=64)
        prof = nn.shift_profile(cone)
        for bound, cid, t in zip(*prof.lower_bounds):
            if cid == 1:
                formula = math.sin(t) / (2.0 * (1.0 - math.cos(t))) - 1.0
                assert bound == pytest.approx(formula, rel=1e-9)
            if cid == 2:
                formula = (1.0 - math.cos(t)) / (2.0 * math.sin(t)) - 1.0
                assert bound == pytest.approx(formula, rel=1e-9)

    def test_lambda_star_at_centi_epsilon(self):
        # frozen from a 50-digit evaluation of sin(e)/(2(1-cos e)) - 1, e=0.01
        prof = nn.shift_profile(nn.refined_cone(0.01, 128))
        assert prof.lambda_star == pytest.approx(98.9991666652777745, rel=1e-8)
        assert prof.achieving == (1, 0.01)
        assert prof.interval[1] == math.inf

    def test_bound_reproduces_equality_at_its_lambda(self):
        cone = nn.refined_cone(0.03, samples_per_curve=32)
        prof = nn.shift_profile(cone)
        w = con.witness()
        by_label = {(cid, t): g for g, cid, t in zip(cone.generators, *cone.labels)}
        for bound, cid, t in list(zip(*prof.lower_bounds))[:20]:
            g = by_label[(cid, t)]
            assert abs(float(g @ (w.q - bound * w.u))) <= 1e-9

    def test_interval_below_lambda_star_fails_the_recheck(self, monkeypatch):
        cone = nn.refined_cone(0.01, 64)
        lam = nn.shift_profile(cone).lambda_star
        monkeypatch.setattr(nn, "feasible_interval", lambda lowers, uppers: (lam - 1.0, math.inf))
        with pytest.raises(AssertionError):
            nn.shift_profile(cone)

    def test_unlabelled_cone_rejected(self):
        from conelab.linalg import ConeModel
        with pytest.raises(DomainError):
            nn.shift_profile(ConeModel(np.eye(4)))


class TestMembershipCrossCheck:
    def test_shifted_witness_against_sampled_polar_generators(self):
        epsilon = 0.01
        cone = nn.refined_cone(epsilon, 128)
        prof = nn.shift_profile(cone)
        w = con.witness()
        samples = con.scale_points(
            con.sample_body({i: nn.sweep_grid(epsilon, 128) for i in con.CURVE_IDS}).xyz
        )

        lam_in = prof.lambda_star + 1.0
        point_in = w.q - lam_in * w.u
        # direction grid includes the query's own direction plus a spread
        dirs = np.vstack([
            point_in[1:] / np.linalg.norm(point_in[1:]),
            np.eye(3),
            fibonacci_sphere_grid(64),
        ])
        polar = polar_generator_model(samples, dirs)
        verdict = reference_conic_membership(point_in, polar)
        assert verdict.inside
        assert verdict.recheck(point_in, polar)

        # one unit below the threshold the membership flips, and a cone
        # generator (the binding curve-1 sample) separates
        lam_out = prof.lambda_star - 1.0
        point_out = w.q - lam_out * w.u
        verdict_out = reference_conic_membership(point_out, polar)
        assert not verdict_out.inside
        assert verdict_out.recheck(point_out, polar)
        binding = np.concatenate([[1.0], 2.0 * con.curve_point(1, epsilon) + con.SHIFT])
        assert float(binding @ point_out) > 0.0
        assert (polar.generators @ binding).max() <= 1e-9


class TestDivergenceSweep:
    def test_default_levels_give_reciprocal_growth(self):
        verdict = nn.divergence_sweep([1e-1, 1e-2, 1e-3, 1e-4], samples_per_curve=64)
        assert verdict.verdict == "NotNiceEvidence"
        products = [row[2] for row in verdict.table]
        # frozen from 50-digit evaluations of eps * (sin(eps)/(2(1-cos eps)) - 1)
        assert products[0] == pytest.approx(0.899166527744700725, rel=1e-6)
        assert products[1] == pytest.approx(0.989991666652777745, rel=1e-6)
        for p in products[-2:]:
            assert 0.9 <= p <= 1.1
        assert verdict.fitted_exponent == pytest.approx(1.0, abs=0.05)

    def test_closure_is_exact_not_toleranced(self):
        rep = nn.closure_check(512)
        assert rep.in_closure
        assert rep.max_curve3_value <= 0.0
        assert rep.max_curve4_value <= 0.0
        assert rep.max_identity_residual <= 1e-12

    def test_achieving_generator_stays_on_curve1(self):
        verdict = nn.divergence_sweep([5e-2, 5e-3, 5e-4], samples_per_curve=32)
        for eps, _, _, cid, t in verdict.table:
            assert cid == 1
            assert t == pytest.approx(eps)

    def test_polyhedral_control_is_inconclusive(self):
        verdict = nn.divergence_sweep([1e-1, 1e-2, 1e-3, 1e-4], control=True)
        assert verdict.verdict == "Inconclusive"
        lams = [row[1] for row in verdict.table]
        assert max(lams) - min(lams) <= 1e-12  # constant over refinement
        assert lams[0] == pytest.approx(0.20710678118654752, abs=1e-12)
        assert abs(verdict.fitted_exponent) < 0.01

    def test_fewer_than_three_levels_is_inconclusive(self):
        verdict = nn.divergence_sweep([1e-2], samples_per_curve=32)
        assert verdict.verdict == "Inconclusive"

    def test_non_monotone_levels_rejected(self):
        with pytest.raises(DomainError):
            nn.divergence_sweep([1e-3, 1e-2])
        with pytest.raises(DomainError):
            nn.divergence_sweep([])


class TestPositivityWindow:
    def test_nonpositive_coefficient_gives_half_pi_exactly(self):
        assert positivity_window(-3.0) == math.pi / 2.0
        assert positivity_window(0.0) == math.pi / 2.0

    def test_known_root_for_coefficient_two(self):
        # positive root of t^2 + 6t - 6 = 0, frozen at 50 digits
        assert positivity_window(2.0) == pytest.approx(0.87298334620741689, abs=1e-12)
        ok, min_val = check_positivity_window(2.0)
        assert ok and min_val > 0.0

    def test_sufficient_condition_strict_inside_window(self):
        for alpha in (0.5, 2.0, 7.0):
            t_a = positivity_window(alpha)
            ts = t_a * np.linspace(0.01, 0.999, 57)
            assert np.all(alpha * ts / 2.0 + ts**2 / 6.0 < 1.0)

    def test_soundness_for_random_coefficients(self):
        rng = np.random.default_rng(13)
        for alpha in rng.uniform(-10.0, 10.0, 100):
            ok, min_val = check_positivity_window(float(alpha), n=2000)
            assert ok, (alpha, min_val)


def assert_same_report(rep, ref):
    for field in dataclasses.fields(rep):
        got, want = getattr(rep, field.name), getattr(ref, field.name)
        if field.name == "projections":
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        else:
            assert type(got) is type(want) and got == want, field.name


class TestNice3D:
    def test_octant_projections_align_with_axes(self):
        rep = nn.nice3d_ingredients(*nn.octant_example(), n_samples=400)
        assert rep.passed
        q1, q2 = rep.projections
        assert np.allclose(q1, [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(q2, [1.0, 0.0, 0.0], atol=1e-12)
        assert rep.agreement_failures == 0
        assert rep.dual_wedge_failures == 0

    def test_half_disc_cone_passes(self):
        rep = nn.nice3d_ingredients(*nn.half_disc_cone_example(), n_samples=400)
        assert rep.passed
        assert rep.sign_pattern_ok
        assert rep.projection_identity_residual <= 1e-12

    @pytest.mark.parametrize("example", [nn.octant_example, nn.half_disc_cone_example])
    def test_block_sampler_replays_the_per_draw_stream(self, example):
        # converse_max_violation is drawn after the wedge, so equal reports
        # mean the generator stopped on the same draw, not only equal counts
        for n_samples in (1, 8, 400, 1200):
            for seed in (7, 11, 2024):
                rep = nn.nice3d_ingredients(*example(), n_samples=n_samples, seed=seed)
                ref = reference_nice3d_ingredients(*example(), n_samples=n_samples, seed=seed)
                assert_same_report(rep, ref)

    @pytest.mark.parametrize("example", [nn.octant_example, nn.half_disc_cone_example])
    def test_ambiguous_wedge_verdicts_redraw_in_a_second_round(self, example, monkeypatch):
        # below the rounding of the inside residual some wedge points are
        # neither certified inside nor outside and must be drawn again
        calls, membership = [], nn.simplicial_membership

        def counted(points, *args, **kwargs):
            calls.append(len(points))
            return membership(points, *args, **kwargs)

        monkeypatch.setattr(nn, "simplicial_membership", counted)
        tiny = Tolerance(eq_abs=1e-17, margin_abs=1e-12)
        for seed in (7, 11, 2024):
            calls.clear()
            rep = nn.nice3d_ingredients(*example(), n_samples=400, seed=seed, tol=tiny)
            assert len(calls) > 3 and calls[2] == 400 and calls[3] < 400
            assert rep.dual_wedge_checked == 400
            ref = reference_nice3d_ingredients(*example(), n_samples=400, seed=seed, tol=tiny)
            assert_same_report(rep, ref)

    def test_normal_in_face_complement_rejected(self):
        cone, p1, p2, _, h2 = nn.octant_example()
        with pytest.raises(DomainError, match="complement"):
            nn.nice3d_ingredients(cone, p1, p2, np.array([0.0, 0.0, 1.0]), h2, n_samples=8)

    def test_normal_negative_on_cone_rejected(self):
        cone, p1, p2, h1, _ = nn.octant_example()
        with pytest.raises(DomainError):
            nn.nice3d_ingredients(cone, p1, p2, h1, np.array([-1.0, 0.0, 1.0]), n_samples=8)

    def test_collinear_face_rejected(self):
        cone, p1, _, h1, h2 = nn.octant_example()
        with pytest.raises(DegenerateInputError):
            nn.nice3d_ingredients(cone, p1, 2.0 * p1, h1, h2, n_samples=8)
