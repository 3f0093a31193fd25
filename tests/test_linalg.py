import math
from fractions import Fraction

import numpy as np
import pytest

from conelab import niceness as nn
from conelab.linalg import (
    ConeModel,
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    Tolerance,
    feasible_interval,
    nullspace,
    simplicial_membership,
)
from helpers import reference_conic_membership, reference_wedge_draws, row_verdicts

SQRT2 = math.sqrt(2.0)


class TestNullspace:
    def test_face_slice_rows_give_the_known_perp_direction(self):
        rows = [
            [1.0, 0.5, 0.0, 0.5],
            [1.0, 0.5 - SQRT2, 2.0 - SQRT2, 0.5],
            [1.0, SQRT2 - 1.5, SQRT2, 0.5],
        ]
        basis = nullspace(rows)
        assert basis.shape == (1, 4)
        target = np.array([1.0, 0.0, 0.0, -2.0]) / math.sqrt(5.0)
        assert abs(abs(basis[0] @ target) - 1.0) < 1e-12

    def test_identity_has_empty_kernel(self):
        assert nullspace(np.eye(3)).shape == (0, 3)

    def test_single_row_gives_two_orthonormal_vectors(self):
        basis = nullspace([[1.0, 1.0, 0.0]])
        assert basis.shape == (2, 3)
        assert np.allclose(basis @ np.array([1.0, 1.0, 0.0]), 0.0, atol=1e-12)
        assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-12)

    def test_injected_kernel_vector_is_recovered(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(2, 6)
            v = rng.normal(size=n)
            v /= np.linalg.norm(v)
            a = rng.normal(size=(n, n))
            a -= np.outer(a @ v, v)  # force v into the kernel
            basis = nullspace(a)
            assert len(basis) >= 1
            cos = np.abs(basis @ v).max()
            assert cos > 1.0 - 1e-8
            # post-conditions: orthonormal, annihilated by a
            assert np.allclose(basis @ basis.T, np.eye(len(basis)), atol=1e-9)
            assert np.abs(a @ basis.T).max() < 1e-9

    def test_empty_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            nullspace(np.empty((0, 3)))


class TestConicMembership:
    def test_inside_quadrant(self):
        cone = ConeModel(np.array([[1.0, 0.0], [0.0, 1.0]]))
        verdict = reference_conic_membership([1.0, 1.0], cone)
        assert verdict.inside
        assert np.allclose(verdict.coefficients, [1.0, 1.0], atol=1e-9)
        assert verdict.recheck([1.0, 1.0], cone)

    def test_outside_quadrant_with_separating_normal(self):
        cone = ConeModel(np.array([[1.0, 0.0], [0.0, 1.0]]))
        verdict = reference_conic_membership([-1.0, 0.0], cone)
        assert not verdict.inside
        s = verdict.normal
        assert s[0] < 0 and abs(s[1]) <= abs(s[0]) * 1e-6 + 1e-9
        assert verdict.margin > 0
        assert verdict.recheck([-1.0, 0.0], cone)

    def test_every_verdict_is_recheckable(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            dim = int(rng.integers(2, 5))
            gens = rng.normal(size=(int(rng.integers(dim, 8)), dim))
            cone = ConeModel(gens)
            if rng.random() < 0.5:
                point = gens.T @ rng.random(len(gens))  # guaranteed inside
            else:
                point = 3.0 * rng.normal(size=dim)
            verdict = reference_conic_membership(point, cone)
            assert verdict.recheck(point, cone)


def lp_inside(point, cone):
    """The LP route's verdict, None where it stalls."""
    verdict = reference_conic_membership(point, cone)
    return None if verdict is None else verdict.inside


def simplicial_cone(h1, h2, n):
    return ConeModel(np.vstack([h1, h2, n, -n]))


def nice3d_streams(example, n_agreement, n_wedge, seed=7):
    """The lifted and planar generators of nice3d_ingredients and the first
    points of the streams it draws: agreement samples, their projections,
    and dual-wedge candidates."""
    _, p1, p2, h1, h2 = example
    nrm = nn.perp_basis(np.vstack([p1, p2]))[0]
    q1, q2 = (h - float(h @ nrm) * nrm for h in (h1, h2))
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(1200, 3))
    wedge = reference_wedge_draws(rng, p1, p2, n_wedge)
    xs = xs[:n_agreement]
    return (h1, h2, nrm), (q1, q2, nrm), xs, xs - np.outer(xs @ nrm, nrm), wedge


class TestSimplicialMembership:
    def random_basis(self, rng):
        while True:
            basis = rng.normal(size=(3, 3))
            if abs(np.linalg.det(basis)) > 0.1:
                return basis

    def random_points(self, rng, basis, m):
        """Half uniformly random, half with c1, c2 >= 0 (inside)."""
        coords = rng.normal(size=(m, 3))
        coords[: m // 2, :2] = np.abs(coords[: m // 2, :2])
        return np.vstack([coords[: m // 2] @ basis, 3.0 * rng.normal(size=(m - m // 2, 3))])

    def test_agrees_with_the_lp_route_and_rechecks(self):
        rng = np.random.default_rng(31)
        decided = 0
        for _ in range(12):
            basis = self.random_basis(rng)
            cone = simplicial_cone(*basis)
            points = self.random_points(rng, basis, 24)
            for x, verdict in zip(points, row_verdicts(simplicial_membership(points, *basis))):
                if verdict is None:
                    continue
                decided += 1
                assert verdict.recheck(x, cone)
                assert lp_inside(x, cone) in (verdict.inside, None)
        assert decided == 12 * 24

    def test_masks_match_the_per_row_verdicts(self):
        # at a tolerance below rounding, points near a facet are ambiguous
        tiny = Tolerance(eq_abs=1e-300, margin_abs=1e-300)
        rng = np.random.default_rng(17)
        ambiguous = 0
        for _ in range(20):
            basis = self.random_basis(rng)
            cone = simplicial_cone(*basis)
            facet = rng.normal(size=(16, 3))
            facet[:, 0] = rng.choice([0.0, -1e-16, 1e-16], 16)  # c1 on its facet
            points = np.vstack([self.random_points(rng, basis, 32), facet @ basis])
            for tol in (Tolerance(), tiny):
                r = simplicial_membership(points, *basis, tol)
                rows = row_verdicts(r)
                decided = r.inside | r.outside
                assert len(r.inside) == len(points) and not (r.inside & r.outside).any()
                assert [v is not None for v in rows] == decided.tolist()
                for i, x in enumerate(points):
                    if not decided[i]:
                        assert rows[i] is None
                        ambiguous += 1
                        continue
                    assert rows[i].inside == bool(r.inside[i])
                    assert rows[i].recheck(x, cone)
        assert ambiguous > 0

    def test_matches_the_lp_route_on_the_nice3d_streams(self):
        for example in (nn.octant_example(), nn.half_disc_cone_example()):
            lifted, planar, xs, projected, wedge = nice3d_streams(example, 150, 150)
            for gens, points in ((lifted, xs), (planar, projected), (lifted, wedge)):
                cone = simplicial_cone(*gens)
                verdicts = row_verdicts(simplicial_membership(points, *gens))
                assert [v and v.inside for v in verdicts] == [lp_inside(x, cone) for x in points]

    def test_points_on_the_facets_are_never_outside(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            basis = self.random_basis(rng)
            coords = rng.normal(size=(40, 3))
            coords[:, 1] = np.abs(coords[:, 1])
            coords[:20, 0] = 0.0
            coords[20:, 0] = -1e-15
            points = coords @ basis
            swapped = coords[:, [1, 0, 2]] @ basis  # c2 on the facet instead
            for pts in (points, swapped):
                for verdict in row_verdicts(simplicial_membership(pts, *basis)):
                    assert verdict is None or verdict.inside

    def test_outside_holds_in_exact_arithmetic(self):
        # With n = e3 and h2 in the x-y plane, <s, n> rounds to exactly 0 and
        # <s, h2> to +-1e-17, so at tolerance 1e-300 the forward-error bound
        # alone keeps a c1 that merely rounds negative from reading outside.
        tiny = Tolerance(eq_abs=1e-300, margin_abs=1e-300)
        rng = np.random.default_rng(2)
        n = np.array([0.0, 0.0, 1.0])
        outside = 0
        for _ in range(100):
            h1, h2 = rng.normal(size=3), np.append(rng.normal(size=2), 0.0)
            c1 = rng.choice([-1.0, 0.0, 1.0], 300) * 10.0 ** rng.uniform(-18, -13, 300)
            points = (np.outer(c1, h1) + np.outer(rng.random(300), h2)
                      + np.outer(rng.normal(size=300), n))
            (a1, b1, _), (a2, b2, _) = ([Fraction(float(v)) for v in h] for h in (h1, h2))
            verdicts = row_verdicts(simplicial_membership(points, h1, h2, n, tiny))
            for x, verdict in zip(points, verdicts):
                if verdict is not None and not verdict.inside:
                    outside += 1
                    x0, x1 = Fraction(float(x[0])), Fraction(float(x[1]))
                    assert (b2 * x0 - a2 * x1) / (a1 * b2 - b1 * a2) < 0  # exact c1
        assert outside > 0

    def test_clearly_outside_points_are_separated(self):
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        points = np.array([[-1e-3, 1.0, 5.0], [2.0, -1.0, -3.0], [-1.0, -2.0, 0.0]])
        verdicts = row_verdicts(simplicial_membership(points, *basis))
        assert [v.inside for v in verdicts] == [False, False, False]
        assert np.allclose([v.margin for v in verdicts], [1e-3, 1.0, 2.0])
        assert np.allclose(verdicts[2].normal, [0.0, -1.0, 0.0])  # c2 is the smaller

    def test_dependent_generators_rejected(self):
        h1 = np.array([1.0, 2.0, 0.5])
        h2 = np.array([-0.3, 1.0, 1.0])
        for gens in ((h1, 2.0 * h1, h2), (h1, h2, h1 - 3.0 * h2), (h1, h2, np.zeros(3))):
            with pytest.raises(DegenerateInputError):
                simplicial_membership(np.ones((2, 3)), *gens)

    def test_rejects_wrong_dimension_and_nan(self):
        basis = np.eye(3)
        with pytest.raises(DimensionMismatchError):
            simplicial_membership(np.ones((2, 2)), *basis)
        with pytest.raises(DomainError):
            simplicial_membership([[math.nan, 0.0, 0.0]], *basis)


class TestFeasibleInterval:
    def test_examples(self):
        assert feasible_interval([0.0, 1.0], [3.0]) == (1.0, 3.0)
        assert feasible_interval([5.0], [2.0]) is None
        assert feasible_interval([], []) == (-math.inf, math.inf)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            lowers = rng.normal(size=rng.integers(0, 5)).tolist()
            uppers = rng.normal(size=rng.integers(0, 5)).tolist()
            interval = feasible_interval(lowers, uppers)
            candidates = lowers + uppers + [-10.0, 0.0, 10.0]
            feasible = [
                x for x in candidates
                if all(lo <= x for lo in lowers) and all(x <= hi for hi in uppers)
            ]
            if interval is None:
                assert not feasible
            else:
                lo, hi = interval
                assert lo <= hi
                for x in feasible:
                    assert lo - 1e-12 <= x <= hi + 1e-12


class TestPlumbingTypes:
    def test_cone_labels_must_match_the_generator_count(self):
        gens = np.eye(3)
        cone = ConeModel(gens, labels=(np.array([1, 2, 3]), np.zeros(3)))
        assert len(cone.labels[0]) == 3
        with pytest.raises(DimensionMismatchError):
            ConeModel(gens, labels=(np.array([1, 2]), np.zeros(3)))
        with pytest.raises(DimensionMismatchError):
            ConeModel(gens, labels=(np.array([1, 2, 3]), np.zeros(4)))

    def test_tolerance_validation(self):
        for bad in (0.0, -1e-9, math.inf, math.nan):
            with pytest.raises(DomainError):
                Tolerance(eq_abs=bad)
            with pytest.raises(DomainError):
                Tolerance(margin_abs=bad)
        assert Tolerance().eq_abs == 1e-9

