import ast
from pathlib import Path

import numpy as np
import pytest

import conelab
from conelab.linalg import DomainError, gamma
from helpers import reference_conic_membership

# The two literals of the mesh test oracle, by function; every other
# threshold in src/ is gamma(n) times a stated scale.
ALLOWED_SMALL_FLOATS = {("meshes", "convexity_check"): {1e-9, 1e-14}}

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


def _small_floats(tree, module):
    """(module, enclosing function, value) for each float literal c in the
    tree with 0 < |c| < 1e-6."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0.0 < abs(node.value) < 1e-6):
            found.append((module, func, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_src_reads_no_bare_tolerance():
    sources = sorted(Path(conelab.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    found = [hit for path in sources
             for hit in _small_floats(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    bare = [(m, f, c) for m, f, c in found if c not in ALLOWED_SMALL_FLOATS.get((m, f), ())]
    assert bare == []
    assert {(m, f, c) for m, f, c in found} == {
        (m, f, c) for (m, f), values in ALLOWED_SMALL_FLOATS.items() for c in values}
