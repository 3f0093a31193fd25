import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from conelab import construction as con
from conelab import niceness as nn
from conelab import reporting
from conelab.linalg import DegenerateInputError, DomainError
from conelab.reporting import RunConfig, write_sweep_csv
from exact import cross, dot, exact
from helpers import (
    check_positivity_window,
    ladder,
    numpy_closure_check,
    numpy_divergence_sweep,
    numpy_shift_bounds,
    positivity_window,
    reference_shift_bounds,
    sample_cone,
    witness_slack,
)

T = con.T_END


# Unit roundoff of binary64, and Higham's gamma_n = n u / (1 - n u).
U = 2.0**-53


def gamma(n):
    return n * U / (1.0 - n * U)


class TestWitnessSlack:
    def test_zero_at_the_origin_parameter(self):
        for lam in (-2.0, 0.0, 5.0, -1e6, 1e6):
            assert witness_slack(0.0, lam) == 0.0

    def test_shift_minus_one_reduces_to_twice_sine(self):
        for t in np.linspace(0.01, T, 23):
            assert witness_slack(t, -1.0) == pytest.approx(2.0 * math.sin(t), abs=1e-12)
            assert witness_slack(t, -1.0) > 0.0

    def test_value_at_top_parameter_no_shift(self):
        # frozen from a 50-digit evaluation of 2*(2*(cos T - 1) + sin T)
        assert witness_slack(T, 0.0) == pytest.approx(0.24264068711928514, abs=1e-12)

    def test_identity_on_random_inputs(self):
        # The dot product <a, b> of a = (1, 2 curve1(t) + SHIFT) and
        # b = q - lam u agrees with the closed form to gamma_16 sum |a_i||b_i|
        # (Higham, section 3.1), a bound that grows with lam as the operands
        # do; an absolute bound fails for |lam| >~ 1e3. Budget: gamma_4 for
        # the 4-term product, gamma_2 for rounding a_i and b_i once each
        # (cos t - 1 is exact by Sterbenz), gamma_3 for the closed form's
        # three roundings, whose terms 4|lam+1||cos t - 1| and 2 sin t sum
        # to at most sum |a_i||b_i| on [0, T], one spare u, and 6u for math
        # and numpy returning cos t and sin t one ulp apart.
        rng = np.random.default_rng(5)
        ts = rng.uniform(0, T, 800)
        lams = np.concatenate([rng.uniform(-8, 8, 200), np.full(200, -1e6), np.full(200, 1e6),
                               rng.uniform(-1e7, 1e7, 200)])
        for t, lam in zip(ts.tolist(), lams.tolist()):
            a = con.lift_points(con.curve_points(1, t))[0]
            b = con.WITNESS_Q - lam * con.WITNESS_U
            bound = gamma(16) * float(np.abs(a) @ np.abs(b))
            assert abs(witness_slack(t, lam) - float(a @ b)) <= bound, (t, lam)


def closed_form_lambda(mp, eps):
    """cot(eps/2)/2 - 1 at the float eps, in mpmath arithmetic."""
    return mp.cot(mp.mpf(eps) / 2) / 2 - 1


class TestShiftProfile:
    """niceness.shift_bounds, the sweep's shift profile: the largest of the
    lower bounds on lambda, one per row of the cone K sampled on a grid.
    The rows themselves are those of helpers.reference_shift_bounds, whose
    maximum and first argmax shift_bounds returns bit for bit
    (test_construction.TestSampleCone)."""

    def test_flat_face_generators_are_unconditional(self):
        # only curves 1 and 2 off the origin bound lambda; every other row,
        # curves 3 and 4 and the four origin samples, is flat and holds
        grid = ladder(0.05, 64)
        cone = sample_cone(grid)
        for g, cid, t in zip(*cone):
            if cid == 3:
                assert float(g @ con.WITNESS_Q) == pytest.approx(2.0 * (math.cos(t) - 1.0), abs=1e-12)
                assert float(g @ con.WITNESS_U) == 0.0
            if cid == 4:
                assert float(g @ con.WITNESS_Q) == pytest.approx(-2.0 * math.sin(t), abs=1e-12)
                assert float(g @ con.WITNESS_U) == 0.0
        _, ids, ts = reference_shift_bounds(grid)
        expected = [(cid, t) for _, cid, t in zip(*cone) if cid in (1, 2) and t > 0.0]
        assert list(zip(ids.tolist(), ts.tolist())) == expected
        assert len(expected) == 2 * 63

    def test_curve1_bound_formula(self):
        for bound, cid, t in zip(*reference_shift_bounds(ladder(0.02, 64))):
            if cid == 1:
                formula = math.sin(t) / (2.0 * (1.0 - math.cos(t))) - 1.0
                assert bound == pytest.approx(formula, rel=1e-9)
            if cid == 2:
                formula = (1.0 - math.cos(t)) / (2.0 * math.sin(t)) - 1.0
                assert bound == pytest.approx(formula, rel=1e-9)

    def test_lambda_star_at_centi_epsilon(self):
        # frozen from a 50-digit evaluation of sin(e)/(2(1-cos e)) - 1, e=0.01
        prof = nn.shift_bounds(ladder(0.01, 128))
        assert prof["lambda_star"] == pytest.approx(98.9991666652777745, rel=1e-14)
        assert prof["achieving"] == (1, 0.01)

    def test_bound_reproduces_equality_at_its_lambda(self):
        grid = ladder(0.03, 32)
        cone = sample_cone(grid)
        by_label = {(cid, t): g for g, cid, t in zip(*cone)}
        for bound, cid, t in list(zip(*reference_shift_bounds(grid)))[:20]:
            g = by_label[(cid, t)]
            assert abs(float(g @ (con.WITNESS_Q - bound * con.WITNESS_U))) <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_no_generator_bounds_lambda_from_above(self, seed):
        # <u, g> = -4 x_3 with x_3 = c - 1 (exact), -s or 0, and rounding is
        # monotone: every computed <u, g> is >= 0, at the smallest and
        # subnormal parameters too, and the curve-3/4 rows have <q, g> <= 0;
        # so are the closed-form rows, where one of A_u, B_u is 0 on each
        # curve and the other term is >= 0
        rng = np.random.default_rng(seed)
        ts = np.sort(np.concatenate([[0.0, 5e-324, 1e-300, 1e-8, T],
                                     rng.uniform(0.0, T, 500),
                                     T * 10.0 ** rng.uniform(-20.0, 0.0, 500)]))
        cone = sample_cone(ts)
        ug, qg = cone.generators @ con.WITNESS_U, cone.generators @ con.WITNESS_Q
        assert (ug >= 0.0).all()
        assert (qg[cone.ids >= 3] <= 0.0).all()
        a, b = con.arc_coefficients(np.array([con.WITNESS_U[1:], con.WITNESS_Q[1:]]))
        ug, qg = con.arc_value(a[:, :, None], b[:, :, None], con.arc_sines(ts))
        assert (ug >= 0.0).all()
        assert (qg[2:] <= 0.0).all()
        assert len(reference_shift_bounds(ts)[0]) == int((ug > 0.0).sum())
        # far below the floor (5e-324, 1e-300) the curve-1 rows are flat
        # with <q, g> = sin t > 0, so no lambda satisfies them: lambda_star
        # is the infimum of the empty set, +inf, first reached at 5e-324
        assert nn.shift_bounds(ts) == {"lambda_star": math.inf, "achieving": (1, 5e-324)}

    def test_flat_row_with_positive_witness_value_holds_for_no_lambda(self):
        # far below the floor, sin^2(t/2) underflows to 0 at t = 1e-170: the
        # curve-1 row there is flat, <u, g> = 0, with <q, g> = sin t > 0, and
        # no lambda satisfies sin t - lambda * 0 <= 0: lambda_star is +inf,
        # reached at that row
        assert math.sin(5e-171) ** 2 == 0.0
        prof = nn.shift_bounds(ladder(1e-170, 16))
        assert prof == {"lambda_star": math.inf, "achieving": (1, 1e-170)}
        _, ids, ts = reference_shift_bounds(ladder(1e-170, 16))
        assert (1, 1e-170) not in zip(ids.tolist(), ts.tolist())

    def test_negative_u_coefficient_is_not_a_generator_of_k(self):
        # x_3 <= 0 on C, so no generator of K has <u, g> = -4 x_3 < 0: in the
        # closed form, u has A = 2 on curve 2, B = -2 on curve 1 and A = B = 0
        # on curves 3 and 4, so A sin t and -2B sin^2(t/2) are never negative
        a, b = con.arc_coefficients(con.WITNESS_U[None, 1:])
        assert np.array_equal(a, [[0.0, 2.0, 0.0, 0.0]])
        assert np.array_equal(b, [[-2.0, 0.0, 0.0, 0.0]])
        # the point (0, 0, 1/4), off C, would give a negative row
        assert float(con.lift_points([0.0, 0.0, 0.25])[0] @ con.WITNESS_U) < 0.0

    def test_row_at_ten_to_the_minus_seven_binds_on_curve_1(self):
        # 4(1 - cos t) ~ 2e-14 there, once read as flat by a 1e-12 cut
        prof = nn.shift_bounds(ladder(1e-7, 512))
        assert prof["achieving"] == (1, 1e-7)
        assert abs(prof["lambda_star"] * 1e-7 - 1.0) <= 2e-7

    @pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-12])
    def test_rows_where_cos_rounds_to_one_give_the_closed_form(self, eps):
        # below ~1.05e-8 cos t rounds to 1, so 1 - cos t would read 0; the
        # closed-form row 4 sin^2(t/2) does not cancel
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 50
        assert math.cos(eps) == 1.0
        prof = nn.shift_bounds(ladder(eps, 64))
        assert prof["achieving"] == (1, eps)
        exact = closed_form_lambda(mp, eps)
        assert abs(prof["lambda_star"] - exact) <= 8 * U * exact

    @pytest.mark.parametrize("n", [8, 512, 8192])
    def test_lambda_star_is_the_closed_form_down_to_the_floor(self, n):
        # lambda* = cot(eps/2)/2 - 1, at (1, eps), within 8u relative for
        # log-uniform eps from 1e-1 down to the floor, and at the floor itself
        # (2.24u is the worst seen on 240 levels from 0.63 down)
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 50
        rng = np.random.default_rng(n)
        levels = 10.0 ** rng.uniform(math.log10(nn.EPS_FLOOR), -1.0, 40)
        for eps in [1e-1, nn.EPS_FLOOR, *levels.tolist()]:
            prof = nn.shift_bounds(ladder(eps, n))
            assert prof["achieving"] == (1, eps)
            exact = closed_form_lambda(mp, eps)
            assert abs(prof["lambda_star"] - exact) <= 8 * U * exact, eps

    def test_eps_floor_is_derived_and_enforced(self):
        # from 2 sqrt(min normal) up sin^2(t/2) is normal; the floor passes,
        # the float just below it raises, through RunConfig too
        assert nn.EPS_FLOOR == 2.0 * math.sqrt(sys.float_info.min) == 2.0**-510
        assert nn.validate_eps([0.1, nn.EPS_FLOOR]) == (0.1, nn.EPS_FLOOR)
        below = float(np.nextafter(nn.EPS_FLOOR, 0.0))
        with pytest.raises(DomainError):
            nn.validate_eps([0.1, below])
        with pytest.raises(DomainError):
            RunConfig(eps_list=(0.1, 0.01, below))
        assert nn.divergence_sweep([1e-1, 1e-100, nn.EPS_FLOOR])["verdict"] == "NotNiceEvidence"


class TestMembershipCrossCheck:
    def test_shifted_witness_against_sampled_polar_generators(self):
        # q - lambda u lies in the polar of the sampled cone exactly when
        # <q - lambda u, g> <= 0 for every generator g: a sign test in
        # Fractions on the float generators and lambda
        epsilon = 0.01
        grid = ladder(epsilon, 128)
        lam = Fraction(nn.shift_bounds(grid)["lambda_star"])
        cone = sample_cone(grid)
        gens = [exact(g) for g in cone.generators]
        q, u = exact(con.WITNESS_Q), exact(con.WITNESS_U)

        def values(shift):
            point = [a - (lam + shift) * b for a, b in zip(q, u)]
            return [dot(point, g) for g in gens]

        # one unit above lambda_star the shifted witness is in the polar
        assert max(values(1)) <= 0
        # one unit below the membership flips, and the binding curve-1
        # sample at epsilon separates
        (binding,) = np.flatnonzero((cone.ids == 1) & (cone.ts == epsilon))
        assert values(-1)[binding] > 0


class TestDivergenceSweep:
    def test_default_levels_give_reciprocal_growth(self):
        sweep = nn.divergence_sweep([1e-1, 1e-2, 1e-3, 1e-4])
        assert sweep["verdict"] == "NotNiceEvidence"
        products = [row[2] for row in sweep["rows"]]
        # frozen from 50-digit evaluations of eps * (sin(eps)/(2(1-cos eps)) - 1)
        assert products[0] == pytest.approx(0.899166527744700725, rel=1e-6)
        assert products[1] == pytest.approx(0.989991666652777745, rel=1e-6)
        for p in products[-2:]:
            assert 0.9 <= p <= 1.1
        assert nn.fitted_exponent(sweep["rows"]) == pytest.approx(1.0, abs=0.05)

    def test_closure_is_exact_not_toleranced(self):
        rep = nn.closure_check()
        assert rep == {"max_curve3_value": 0.0, "max_curve4_value": 0.0, "in_closure": True}

    @pytest.mark.parametrize("seed", range(3))
    def test_closure_residual_within_its_dot_product_bound(self, seed):
        # The closure check reads q's arc values on curves 3 and 4,
        # -2 sin^2(t/2) and -sin t, whose doubles are <q, g> at the
        # generators over them. Against g @ q on the lifted points, each
        # double differs by at most the rounding of a 4-term dot product,
        # gamma_4 |g|^T |q|, plus the error of the stored generator (libm's
        # cos and sin, one ulp each: 2u |g|^T |q|; q has no weight on the
        # one rounded lift column) and the closed form's three roundings
        # (gamma_3 of a value at most |g|^T |q|): gamma_9 |g|^T |q| in all.
        ts = np.concatenate([[0.0, T], np.random.default_rng(seed).uniform(0.0, T, 4000)])
        a, b = con.arc_coefficients(con.WITNESS_Q[None, 1:])
        for i in (3, 4):
            g = con.lift_points(con.curve_points(i, ts))
            closed_form = 2.0 * con.arc_value(a[0, i - 1], b[0, i - 1], con.arc_sines(ts))
            assert (closed_form <= 0.0).all()
            bound = gamma(9) * (np.abs(g) @ np.abs(con.WITNESS_Q))
            assert (np.abs(g @ con.WITNESS_Q - closed_form) <= bound).all()
        maxima = nn.closure_check()
        assert maxima["max_curve3_value"] == maxima["max_curve4_value"] == 0.0

    def test_perturbed_generator_fails_the_closure_bound(self, monkeypatch, tmp_path):
        # flipping the sign of q's curve-4 coefficient A makes its arc value
        # there +sin t, positive on (0, T], and the check fails
        arcs = nn._witness_arcs()  # per curve (A_u, B_u, A_q, B_q)
        a_u, b_u, a_q, b_q = arcs[3]
        assert a_q == -1.0
        perturbed = (*arcs[:3], (a_u, b_u, 1.0, b_q))
        monkeypatch.setattr(nn, "_witness_arcs", lambda: perturbed)
        rep = nn.closure_check()
        assert not rep["in_closure"]
        assert rep["max_curve3_value"] <= 0.0 < rep["max_curve4_value"]
        levels = (1e-1, 1e-2, 1e-3)
        sweep = nn.divergence_sweep(levels)
        assert sweep["verdict"] == "Inconclusive"
        # u is 0 on curve 4, so its rows from t = epsilon on are flat with
        # <q, g> > 0 and hold for no lambda: lambda_star is +inf at every
        # level, and so is the product, and the CSV writes both as inf
        assert sweep["rows"] == [(e, math.inf, math.inf, 4, e) for e in levels]
        out = tmp_path / "s.csv"
        write_sweep_csv(out, sweep)
        assert out.read_bytes().decode() == (
            "epsilon,lambda_star,product,achieving_curve,achieving_t\r\n"
            + "".join(f"{e:.17g},inf,inf,4,{e:.17g}\r\n" for e in levels)
            + "# verdict=Inconclusive\r\n")

    def test_achieving_generator_stays_on_curve1(self):
        sweep = nn.divergence_sweep([5e-2, 5e-3, 5e-4])
        for eps, _, _, cid, t in sweep["rows"]:
            assert cid == 1
            assert t == pytest.approx(eps)

    def test_polyhedral_control_is_inconclusive(self):
        sweep = nn.divergence_sweep([1e-1, 1e-2, 1e-3, 1e-4], control=True)
        assert sweep["verdict"] == "Inconclusive"
        lams = [row[1] for row in sweep["rows"]]
        assert max(lams) == min(lams)  # constant over refinement
        # (sqrt 2 - 1)/2, at curve 1, t = T
        assert lams[0] == pytest.approx(0.20710678118654752, rel=2 * U)
        assert [row[3:] for row in sweep["rows"]] == [(1, T)] * 4
        assert abs(nn.fitted_exponent(sweep["rows"])) < 0.01

    def test_control_rows_are_the_per_level_solves(self):
        # the control grid does not depend on the level, so its one solve
        # gives every row what a solve per level gave
        levels = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
        expected = []
        for e in levels:
            prof = nn.shift_bounds(nn.CONTROL_GRID)
            lam = prof["lambda_star"]
            expected.append((e, lam, lam * e, *prof["achieving"]))
        assert nn.divergence_sweep(levels, control=True)["rows"] == expected

    def test_control_grid_is_solved_once_per_sweep(self, monkeypatch):
        grids = []
        solve = nn.shift_bounds

        def recording(grid):
            grids.append(grid)
            return solve(grid)

        monkeypatch.setattr(nn, "shift_bounds", recording)
        levels = [1e-1, 1e-2, 1e-3, 1e-4]
        nn.divergence_sweep(levels, control=True)
        assert len(grids) == 1 and grids[0] is nn.CONTROL_GRID
        grids.clear()
        # every other level solves its own grid, (0, epsilon, T)
        nn.divergence_sweep(levels)
        assert grids == [(0.0, e, T) for e in levels]

    @pytest.mark.parametrize("n", [8, 9, 513, 8192])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_the_per_level_solves(self, seed, n):
        # each level samples (0, epsilon, T) alone; its row must be what a
        # solve of the dense ladder of n points with the same smallest
        # positive parameter gives, bit for bit
        rng = np.random.default_rng(seed)
        exponents = rng.uniform(math.log10(nn.EPS_FLOOR), math.log10(0.7), 6)
        levels = sorted({max(10.0**x, nn.EPS_FLOOR) for x in exponents} | {nn.EPS_FLOOR},
                        reverse=True)
        for row, e in zip(nn.divergence_sweep(levels)["rows"], levels, strict=True):
            prof = nn.shift_bounds(ladder(e, n))
            lam = prof["lambda_star"]
            assert (row[0], row[1].hex(), row[2].hex(), row[3:]) == (
                e, lam.hex(), (lam * e).hex(), prof["achieving"])

    @pytest.mark.parametrize("bad", ["x", 7, 2.5, 512])
    @pytest.mark.parametrize("control", [False, True])
    def test_bad_sample_count_rejected_on_both_routes(self, bad, control):
        # no grid size is taken, and control is keyword-only: a sample
        # count passed where it once went is refused, not read as control
        with pytest.raises(TypeError, match="positional argument"):
            nn.divergence_sweep([1e-1, 1e-2, 1e-3], bad, **({"control": True} if control else {}))

    def test_fewer_than_three_levels_is_inconclusive(self):
        sweep = nn.divergence_sweep([1e-2])
        assert sweep["verdict"] == "Inconclusive"

    def test_non_monotone_levels_rejected(self):
        with pytest.raises(DomainError):
            nn.divergence_sweep([1e-3, 1e-2])
        with pytest.raises(DomainError):
            nn.divergence_sweep([])


class TestSweepGrid:
    """Each sweep level samples (0, epsilon, T). The dense ladder of
    helpers.ladder, with the same smallest positive parameter, must give
    the same bounds bit for bit, and be the grid its docstring states."""

    @pytest.mark.parametrize("n", [8, 9, 513, 8192])
    @pytest.mark.parametrize("eps", [math.nextafter(T, 0.0), 0.7, 1e-6, nn.EPS_FLOOR])
    def test_ladder(self, eps, n):
        grid = ladder(eps, n)
        assert len(grid) == n
        assert (grid[0], grid[1], grid[-1]) == (0.0, eps, T)
        assert con.check_grid(grid) == tuple(grid.tolist())
        ratios = grid[2:] / grid[1:-1]
        step = math.exp(math.log(T / eps) / (n - 2))
        assert (np.abs(ratios / step - 1.0) <= 1e-12).all()
        three, dense = nn.shift_bounds(np.array([0.0, eps, T])), nn.shift_bounds(grid)
        assert (three["lambda_star"].hex(), three["achieving"]) == (
            dense["lambda_star"].hex(), dense["achieving"])

    def test_level_outside_the_curve_rejected(self):
        for eps in (0.0, -1e-3, T, math.nan):
            for control in (False, True):
                with pytest.raises(DomainError):
                    nn.divergence_sweep([eps], control=control)


class _NoNumpy:
    """Stands in for the numpy module: reading any of its names fails."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} read on the sweep path")


def _random_levels(rng):
    """3 to 6 strictly decreasing levels, log-uniform from just below T down
    to EPS_FLOOR, which is drawn too."""
    exponents = rng.uniform(math.log10(nn.EPS_FLOOR), math.log10(T), rng.integers(3, 7))
    levels = {min(max(10.0**x, nn.EPS_FLOOR), math.nextafter(T, 0.0))
              for x in exponents.tolist()}
    return sorted(levels | ({nn.EPS_FLOOR} if rng.random() < 0.25 else set()), reverse=True)


class TestFloatRoute:
    """The sweep and its closure check run on Python floats with math.sin and
    math.atan2. They must give the bits of the numpy route that they replace
    (helpers.numpy_divergence_sweep), signed zeros included, and make no
    numpy call."""

    @pytest.mark.parametrize("control", [False, True])
    def test_sweep_has_the_bits_of_the_numpy_route(self, control):
        rng = np.random.default_rng(36)
        for _ in range(300):
            levels = _random_levels(rng)
            # repr tells -0.0 from 0.0 and round-trips every float
            assert repr(nn.divergence_sweep(levels, control=control)) == repr(
                numpy_divergence_sweep(levels, control)), levels

    def test_closure_and_control_have_the_bits_of_the_numpy_route(self):
        closure = nn.closure_check()
        assert repr(closure) == repr(numpy_closure_check())
        # curve 4's maximum is -sin 0 = -0.0, at its t = 0 end
        assert math.copysign(1.0, closure["max_curve4_value"]) == -1.0
        for grid in (nn.CONTROL_GRID, (0.0, 0.3, 0.3, T)):
            assert repr(nn.shift_bounds(grid)) == repr(numpy_shift_bounds(np.array(grid)))

    def test_arc_functions_give_the_bits_of_0d_arrays(self):
        # every parameter the sweep and the closure check take a sine of:
        # 0, T, the levels, and curve 4's t* = atan2(-1, 0) = -pi/2, which
        # the clip moves to 0
        levels = _random_levels(np.random.default_rng(7)) + [nn.EPS_FLOOR, 1e-1, 1e-4]
        for t in (0.0, T, -math.pi / 2, *levels):
            floats, arrays = con.arc_sines(t), con.arc_sines(np.array(t))
            assert all(type(v) is float for v in floats)
            assert [v.hex() for v in floats] == [float(v).hex() for v in arrays], t
        # every (A, B) of u and q, over the whole arc as the closure check
        # takes it
        for a_u, b_u, a_q, b_q in nn._witness_arcs():
            for a, b in ((a_u, b_u), (a_q, b_q)):
                top = con.arc_max(a, b, 0.0, T)
                zero_d = con.arc_max(*map(np.array, (a, b, 0.0, T)))
                assert type(top) is float and top.hex() == float(zero_d).hex(), (a, b)

    def test_the_sweep_path_makes_no_numpy_call(self, monkeypatch, tmp_path):
        levels = (1e-1, 1e-2, 1e-3, nn.EPS_FLOOR)
        expected = [repr(nn.divergence_sweep(levels, control=c)) for c in (False, True)]
        bounds, closure = nn.shift_bounds((0.0, 0.1, T)), nn.closure_check()
        csv = tmp_path / "numpy.csv"
        write_sweep_csv(csv, nn.divergence_sweep(levels))
        # the witness arcs too are taken again, with numpy out of reach
        nn._witness_arcs.cache_clear()
        for module in (nn, con, reporting):
            monkeypatch.setattr(module, "np", _NoNumpy())
        try:
            assert [repr(nn.divergence_sweep(levels, control=c)) for c in (False, True)] == expected
            assert nn.shift_bounds((0.0, 0.1, T)) == bounds
            assert nn.closure_check() == closure
            write_sweep_csv(tmp_path / "floats.csv", nn.divergence_sweep(levels))
        finally:
            nn._witness_arcs.cache_clear()
        assert (tmp_path / "floats.csv").read_bytes() == csv.read_bytes()


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


EXAMPLES = [nn.octant_example, nn.half_disc_cone_example]

# scales of p (or h) under which both examples must pass: a subnormal power
# of two, extremes near the float range, and the 1e-10 and 1e10 at which the
# former float route failed
SCALES = [1e-300, 1e-10, 1.0, 1e10, 1e300, 2.0**-1070]


def random_rotation(rng):
    """A random orthogonal 3x3 matrix with determinant +1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def cube_rotations():
    """The 24 rotations of the cube: the signed permutation matrices with
    determinant +1, which map float vectors to float vectors exactly."""
    rots = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            rot = np.zeros((3, 3))
            rot[range(3), perm] = signs
            if np.linalg.det(rot) > 0:
                rots.append(rot)
    return rots


def exposes_its_edges(generators, p1, p2, h1, h2):
    """In Fractions: h_i >= 0 at every generator, zero on p_i and positive
    on the other edge p_j."""
    gens = [exact(g) for g in generators]
    p1, p2, h1, h2 = map(exact, (p1, p2, h1, h2))
    return all(
        all(dot(g, h) >= 0 for g in gens) and dot(h, p_own) == 0 < dot(h, p_other)
        for h, p_own, p_other in ((h1, p1, p2), (h2, p2, p1))
    )


def verdict(*args):
    """The report's verdict fields, or the class of the rejection."""
    try:
        rep = nn.nice3d_ingredients(*args)
    except (DomainError, DegenerateInputError) as exc:
        return type(exc)
    return rep["pass"], rep["sign_pattern_ok"]


def rounded(x):
    """float(x) of a Fraction, +-inf past the float range, as int / int gives."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def dyadic_nice3d_case(rng):
    """Seeded random nice3d inputs: small integer vectors, each times its own
    2^k with k from -1074 (subnormal) to 1000. Most normals are built
    orthogonal to their edge, a (c x p_i) + b c, mostly with the sign of a
    that makes them positive on the other edge, and some parallel to c, so
    every verdict and every rejection occurs."""
    def small(lo=-3, hi=4):
        return [int(x) for x in rng.integers(lo, hi, size=3)]

    def scaled(v):
        k = int(rng.integers(-1074, 1001)) if rng.random() < 0.5 else int(rng.integers(-8, 9))
        return np.array([math.ldexp(float(x), k) for x in v])

    p1, p2 = small(), small()
    if rng.random() < 0.1:
        m = int(rng.integers(-3, 4))
        p2 = [m * x for x in p1]
    c = cross(p1, p2)
    hs = []
    for p, sign in ((p1, 1), (p2, -1)):
        a, b = int(rng.integers(1, 3)) * sign, int(rng.integers(-2, 3))
        pick = rng.random()
        if pick < 0.06:
            h = [(b or 1) * x for x in c]
        elif pick < 0.75:
            h = [(a if rng.random() < 0.8 else -a) * x + b * y for x, y in zip(cross(c, p), c)]
        else:
            h = small()
        hs.append(h)
    gens = [p1, p2, [x + y for x, y in zip(p1, p2)]][:int(rng.integers(1, 4))]
    if rng.random() < 0.15:
        gens.append(small())
    return np.array([scaled(g) for g in gens]), scaled(p1), scaled(p2), *map(scaled, hs)


def exact_nice3d(generators, p1, p2, h1, h2):
    """nice3d_ingredients recomputed in Fractions on the float inputs: the
    report's values, or the rejection as (class, message fragment)."""
    p1, p2, h1, h2 = map(exact, (p1, p2, h1, h2))
    c = cross(p1, p2)
    if not any(c):
        return DegenerateInputError, "span a plane"
    if any(dot(exact(g), h) < 0 for g in generators for h in (h1, h2)):
        return DomainError, "negative"
    qs = [[a - dot(h, c) / dot(c, c) * b for a, b in zip(h, c)] for h in (h1, h2)]
    if not all(any(q) for q in qs):
        return DomainError, "complement"
    ws = [[a - dot(p_own, p_other) / dot(p_own, p_own) * b for a, b in zip(p_other, p_own)]
          for p_own, p_other in ((p1, p2), (p2, p1))]
    sign_ok = dot(qs[0], p1) == 0 < dot(qs[0], p2) and dot(qs[1], p2) == 0 < dot(qs[1], p1)
    return {
        "projections": tuple([rounded(a) for a in q] for q in qs),
        "sign_pattern_ok": sign_ok,
        "wedge_generators": tuple([rounded(a) for a in w] for w in ws),
        "multipliers": tuple(rounded(dot(q, w) / dot(w, w)) for q, w in zip(qs, ws)),
        "pass": sign_ok,
    }


class TestNice3D:
    def test_octant_projections_align_with_axes(self):
        rep = nn.nice3d_ingredients(*nn.octant_example())
        assert rep["pass"]
        assert rep["projections"] == ([0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
        # q_i = c_i * w_i with w1 = e2, w2 = e1: the dual wedge is the quadrant
        assert rep["wedge_generators"] == ([0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
        assert rep["multipliers"] == (1.0, 1.0)

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_lists_and_tuples_give_the_report_of_arrays(self, example):
        cone, *vectors = example()
        base = nn.nice3d_ingredients(cone, *vectors)
        as_lists = nn.nice3d_ingredients(cone.tolist(), *(v.tolist() for v in vectors))
        as_tuples = nn.nice3d_ingredients(tuple(map(tuple, cone.tolist())),
                                          *(tuple(v.tolist()) for v in vectors))
        assert as_lists == as_tuples == base
        with pytest.raises(DomainError, match="complement"):
            nn.nice3d_ingredients(cone.tolist(), vectors[0], vectors[1], (0.0, 0.0, 1.0),
                                  vectors[3])

    def test_every_float_is_its_exact_value_rounded_once(self):
        # seeded dyadic inputs from subnormal to 2^1000 scales: each float of
        # the report is float() of its Fraction value (inf past the range),
        # the verdict is the exact sign pattern, and each rejection is the
        # exact one, raised in the same order
        rng = np.random.default_rng(43)
        outcomes = []
        for _ in range(500):
            args = dyadic_nice3d_case(rng)
            expected = exact_nice3d(*args)
            if isinstance(expected, dict):
                assert nn.nice3d_ingredients(*args) == expected, args
                outcomes.append(expected["pass"])
            else:
                with pytest.raises(expected[0], match=expected[1]):
                    nn.nice3d_ingredients(*args)
                outcomes.append(expected[1])
        counts = {o: outcomes.count(o) for o in (True, False, "span a plane", "negative",
                                                  "complement")}
        assert min(counts.values()) >= 10, counts

    def test_half_disc_cone_passes(self):
        rep = nn.nice3d_ingredients(*nn.half_disc_cone_example())
        assert rep["pass"]
        assert rep["sign_pattern_ok"]
        assert rep["multipliers"] == pytest.approx((math.sqrt(2.0), math.sqrt(2.0)), rel=1e-15)
        # bit for bit, as the nice3d report prints them: int / int gives no
        # signed zeros
        a = 1.0 / math.sqrt(2.0)
        expected = np.array([[a, a, 0.0], [a, -a, 0.0]])
        assert np.array(rep["wedge_generators"]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("example", EXAMPLES)
    @pytest.mark.parametrize("p_scale", SCALES)
    def test_every_scaled_cell_passes(self, example, p_scale):
        # among them the octant with h or p scaled by 1e-10 and the half-disc
        # with h scaled by 1e10, which the float route failed
        cone, p1, p2, h1, h2 = example()
        for h_scale in SCALES:
            rep = nn.nice3d_ingredients(cone, p_scale * p1, p_scale * p2,
                                        h_scale * h1, h_scale * h2)
            assert rep["pass"] and rep["sign_pattern_ok"], h_scale

    def test_multipliers_past_the_float_range_read_inf(self):
        # c_i = 2^1070 overflows on conversion; the exact verdict still passes
        cone, p1, p2, h1, h2 = nn.octant_example()
        tiny = 2.0**-1070
        rep = nn.nice3d_ingredients(cone, tiny * p1, tiny * p2, h1, h2)
        assert rep["pass"] and rep["multipliers"] == (math.inf, math.inf)
        assert rep["wedge_generators"] == ([0.0, tiny, 0.0], [tiny, 0.0, 0.0])

    @pytest.mark.parametrize("example", EXAMPLES)
    @pytest.mark.parametrize("swap", [False, True], ids=["normals", "other-edge-normals"])
    def test_power_of_two_scaling_keeps_the_report(self, example, swap):
        # each of p1, p2, h1, h2 scaled by its own 2^k: the verdict fields
        # stay, and since each float is one rounding of an exact value that
        # scales by a power of two, q_i scales by 2^k(h_i), w_i by 2^k(p_j)
        # and c_i by 2^(k(h_i) - k(p_j)), bit for bit
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        cone, p1, p2, h1, h2 = example()
        if swap:
            h1, h2 = h2, h1
        base = nn.nice3d_ingredients(cone, p1, p2, h1, h2)

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.lists(st.integers(-500, 500), min_size=4, max_size=4))
        def check(ks):
            k1, k2, l1, l2 = ks
            rep = nn.nice3d_ingredients(cone, math.ldexp(1.0, k1) * p1, math.ldexp(1.0, k2) * p2,
                                        math.ldexp(1.0, l1) * h1, math.ldexp(1.0, l2) * h2)
            assert (rep["pass"], rep["sign_pattern_ok"]) == (base["pass"], base["sign_pattern_ok"])
            for q, q0, w, w0, c, c0, kh, kp in zip(
                    rep["projections"], base["projections"], rep["wedge_generators"],
                    base["wedge_generators"], rep["multipliers"], base["multipliers"],
                    (l1, l2), (k2, k1)):
                assert q == [math.ldexp(x, kh) for x in q0]
                assert w == [math.ldexp(x, kp) for x in w0]
                assert c == math.ldexp(c0, kh - kp)

        check()

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_certificate_is_exact_in_fractions(self, example):
        # recomputed in Fractions on the float inputs: q_i is the projection
        # of h_i onto span F, w_i the part of p_j orthogonal to p_i, and
        # q_i = c_i w_i with c_i > 0; the report holds each rounded once
        cone, *vectors = example()
        p1, p2, h1, h2 = map(exact, vectors)
        rep = nn.nice3d_ingredients(cone, *vectors)
        c = cross(p1, p2)
        for i, (h, p_own, p_other) in enumerate(((h1, p1, p2), (h2, p2, p1))):
            q = [a - dot(h, c) / dot(c, c) * b for a, b in zip(h, c)]
            w = [a - dot(p_own, p_other) / dot(p_own, p_own) * b for a, b in zip(p_other, p_own)]
            mult = dot(q, w) / dot(w, w)
            assert mult > 0 and q == [mult * a for a in w]
            assert rep["projections"][i] == [float(a) for a in q]
            assert rep["wedge_generators"][i] == [float(a) for a in w]
            assert rep["multipliers"][i] == float(mult)

    def test_sign_pattern_is_the_generator_certificate(self):
        # pass reads only the sign pattern; the certificate q_i' x r_i = 0 and
        # <q_i', r_i> > 0, recomputed here in Fractions, must agree with it
        # whenever c != 0 and q_i' != 0. Half the normals are built
        # orthogonal to their edge, a (c x p_i) + b c, so both verdicts occur;
        # the one zero generator leaves the sign of h on the cone unchecked
        rng = np.random.default_rng(31)
        verdicts = []
        for _ in range(3000):
            p1, p2 = rng.integers(-3, 4, size=(2, 3)).astype(float)
            c = cross(exact(p1), exact(p2))
            if not any(c):
                continue
            hs = []
            for p in (p1, p2):
                a, b = rng.integers(-2, 3, size=2)
                h = np.array([float(a * x + b * y) for x, y in zip(cross(c, exact(p)), c)])
                hs.append(h if rng.random() < 0.5 else rng.integers(-3, 4, size=3).astype(float))
            qs = [[dot(c, c) * x - dot(exact(h), c) * y for x, y in zip(exact(h), c)] for h in hs]
            if not all(any(q) for q in qs):
                continue
            e1, e2 = exact(p1), exact(p2)
            rs = ([dot(e1, e1) * x - dot(e1, e2) * y for x, y in zip(e2, e1)],
                  [dot(e2, e2) * x - dot(e1, e2) * y for x, y in zip(e1, e2)])
            certified = all(not any(cross(q, r)) and dot(q, r) > 0 for q, r in zip(qs, rs))
            rep = nn.nice3d_ingredients(np.zeros((1, 3)), p1, p2, *hs)
            assert rep["pass"] == rep["sign_pattern_ok"] == certified, (p1, p2, hs)
            verdicts.append(certified)
        assert verdicts.count(True) >= 50 and verdicts.count(False) >= 1000

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_wedge_agrees_with_the_lp_reference(self, example):
        # the certificate claims {y : <y, p1> >= 0, <y, p2> >= 0} equals
        # cone{h1, h2} + span{n}, n = p1 x p2; test it on seeded random
        # points, exactly: by Cramer's rule x = a h1 + b h2 + c n, and x is
        # in cone{h1, h2} + span{n} exactly when a >= 0 and b >= 0
        _, *vectors = example()
        p1, p2, h1, h2 = map(exact, vectors)
        n = cross(p1, p2)
        det = dot(h1, cross(h2, n))
        assert det != 0
        inside = 0
        for x in map(exact, np.random.default_rng(7).normal(size=(1200, 3))):
            in_cone = dot(x, cross(h2, n)) * det >= 0 and dot(h1, cross(x, n)) * det >= 0
            assert in_cone == (dot(x, p1) >= 0 and dot(x, p2) >= 0), x
            inside += in_cone
        assert 0 < inside < 1200

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_cube_rotations_pass(self, example):
        # signed permutations rotate float inputs exactly, so every one of
        # the 24 passes with the base report's multipliers
        base = nn.nice3d_ingredients(*example())
        cone, *vectors = example()
        for rot in cube_rotations():
            rep = nn.nice3d_ingredients(cone @ rot.T, *(rot @ v for v in vectors))
            assert rep["pass"] and rep["sign_pattern_ok"]
            assert rep["multipliers"] == base["multipliers"]

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_rounded_rotations_are_not_exposing_inputs(self, example):
        # a float-rounded rotation moves h_i off zero on p_i, or below zero at
        # a generator, in exact arithmetic; the exact route must not pass such
        # a case, whatever a tolerance would have forgiven
        rng = np.random.default_rng(19)
        cone, *vectors = example()
        assert exposes_its_edges(cone, *vectors)
        for _ in range(20):
            rot = random_rotation(rng)
            args = (cone @ rot.T, *(rot @ v for v in vectors))
            assert not exposes_its_edges(*args)
            assert verdict(*args) in (DomainError, (False, False))

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_swapping_the_edges_swaps_the_report(self, example):
        cone, p1, p2, h1, h2 = example()
        rep = nn.nice3d_ingredients(cone, p1, p2, h1, h2)
        swapped = nn.nice3d_ingredients(cone, p2, p1, h2, h1)
        assert swapped["pass"] and swapped["multipliers"] == rep["multipliers"][::-1]
        for a, b in zip(swapped["wedge_generators"], rep["wedge_generators"][::-1]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_normals_of_the_other_edge_fail(self, example):
        # h2 exposes p2, not p1: q_1 is then orthogonal to w_1
        cone, p1, p2, h1, h2 = example()
        rep = nn.nice3d_ingredients(cone, p1, p2, h2, h1)
        assert not rep["sign_pattern_ok"]
        assert rep["multipliers"] == (0.0, 0.0)
        assert not rep["pass"]

    def test_normal_not_zero_on_its_edge_fails(self):
        # h1 >= 0 on the octant but positive on p1 = e1: it exposes no edge,
        # and q_1 = (0.5, 1, 0) is not parallel to w_1 = e2
        cone, p1, p2, _, h2 = nn.octant_example()
        rep = nn.nice3d_ingredients(cone, p1, p2, np.array([0.5, 1.0, 1.0]), h2)
        assert not rep["sign_pattern_ok"]
        assert np.cross(rep["projections"][0], rep["wedge_generators"][0]).any()
        assert not rep["pass"]

    def test_normal_in_face_complement_rejected(self):
        cone, p1, p2, _, h2 = nn.octant_example()
        with pytest.raises(DomainError, match="complement"):
            nn.nice3d_ingredients(cone, p1, p2, np.array([0.0, 0.0, 1.0]), h2)

    def test_normal_negative_on_cone_rejected(self):
        cone, p1, p2, h1, _ = nn.octant_example()
        with pytest.raises(DomainError, match="negative"):
            nn.nice3d_ingredients(cone, p1, p2, h1, np.array([-1.0, 0.0, 1.0]))

    def test_collinear_face_rejected(self):
        cone, p1, _, h1, h2 = nn.octant_example()
        with pytest.raises(DegenerateInputError):
            nn.nice3d_ingredients(cone, p1, 2.0 * p1, h1, h2)

    def test_rejected_exactly_when_p1_x_p2_is_zero(self):
        # p2 = -2^k p1 and 3 p1 are rejected unless rounding made them
        # independent: 2^-1000 * 1e-300 underflows to 0, and 3 * 0.1 and
        # 3 * -0.7 round differently. Seeded pairs
        # [p1; p2] = U diag(s, s*ratio) V with ratio = s2/s1 a relative 1e-4
        # or 1e-2 either side of 1e-10, or log-uniform in [1e-11, 1e-9], have
        # p1 x p2 != 0 in Fractions and are accepted: no rank tolerance
        cone, _, _, h1, h2 = nn.octant_example()
        rejected = 0
        for p1 in (np.array([1.0, 2.0, 3.0]), np.array([0.1, -0.7, 1e-300]),
                   np.array([3.0, 0.0, 0.0])):
            for p2 in [-math.ldexp(1.0, k) * p1 for k in (-1000, -3, 0, 7, 1000)] + [3.0 * p1]:
                if any(cross(exact(p1), exact(p2))):
                    nn.nice3d_ingredients(cone, p1, p2, h1, h2)
                else:
                    rejected += 1
                    with pytest.raises(DegenerateInputError):
                        nn.nice3d_ingredients(cone, p1, p2, h1, h2)
        assert rejected == 16
        rng = np.random.default_rng(29)
        ratios = np.concatenate([1e-10 * (1.0 + np.repeat([-1e-2, -1e-4, 1e-4, 1e-2], 100)),
                                 10.0 ** rng.uniform(-11.0, -9.0, 400)])
        for ratio in ratios:
            s = 10.0 ** rng.uniform(-3.0, 3.0)
            u = np.linalg.qr(rng.normal(size=(2, 2)))[0]
            v = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            p1, p2 = u @ np.diag([s, s * ratio]) @ v[:2]
            assert any(cross(exact(p1), exact(p2))), ratio
            nn.nice3d_ingredients(cone, p1, p2, h1, h2)

    @pytest.mark.parametrize("vector", ["p1", "p2", "h1", "h2"])
    @pytest.mark.parametrize("bad", [
        np.array([1.0, 0.0]),
        np.array([0.0, math.nan, 1.0]),
        np.array([math.inf, 0.0, 1.0]),
        np.ones(4),
        np.eye(3),
    ], ids=["2-vector", "nan", "inf", "4-vector", "matrix"])
    def test_face_vectors_and_normals_must_be_finite_3_vectors(self, vector, bad):
        cone, *vectors = nn.octant_example()
        args = dict(zip(["p1", "p2", "h1", "h2"], vectors), **{vector: bad})
        with pytest.raises(DomainError, match="shape"):
            nn.nice3d_ingredients(cone, **args)

    @pytest.mark.parametrize("generators, error", [
        (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, math.nan], [0.0, 0.0, 1.0]]), DomainError),
        (np.array([[1.0, 0.0, 0.0], [0.0, math.inf, 0.0]]), DomainError),
        (np.empty((0, 3)), DegenerateInputError),
        (np.eye(4), DomainError),
        (np.eye(3)[:, :2], DomainError),
        (np.array([1.0, 0.0, 0.0]), DomainError),
        (np.ones((2, 3, 3)), DomainError),
    ], ids=["nan", "inf", "empty", "4d", "2d", "one-row-vector", "3-axis"])
    def test_generators_must_be_a_finite_m_by_3_array(self, generators, error):
        _, p1, p2, h1, h2 = nn.octant_example()
        with pytest.raises(error):
            nn.nice3d_ingredients(generators, p1, p2, h1, h2)
