import numpy as np
import pytest

from conelab.linalg import DomainError, gamma
from helpers import reference_conic_membership

class TestConicMembership:
    def test_inside_quadrant(self):
        cone = np.eye(2)
        verdict = reference_conic_membership([1.0, 1.0], cone)
        assert verdict.inside
        assert np.allclose(verdict.coefficients, [1.0, 1.0], atol=1e-9)
        assert verdict.recheck([1.0, 1.0], cone)

    def test_outside_quadrant_with_separating_normal(self):
        cone = np.eye(2)
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
            if rng.random() < 0.5:
                point = gens.T @ rng.random(len(gens))  # guaranteed inside
            else:
                point = 3.0 * rng.normal(size=dim)
            verdict = reference_conic_membership(point, gens)
            assert verdict.recheck(point, gens)


class TestGamma:
    def test_values_and_domain(self):
        u = 2.0**-53
        assert gamma(0) == 0.0
        assert gamma(1) == u / (1.0 - u)
        assert 12 * u < gamma(12) < 12 * u * (1.0 + 1e-14)
        for n in (-1, 2**53, 2**54):
            with pytest.raises(DomainError):
                gamma(n)
