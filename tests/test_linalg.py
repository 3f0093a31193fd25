import ast
from pathlib import Path

import pytest

import conelab
from conelab.linalg import DomainError, gamma

# The two literals of the mesh test oracle, by function; every other
# threshold in src/ is gamma(n) times a stated scale.
ALLOWED_SMALL_FLOATS = {("meshes", "convexity_check"): {1e-9, 1e-14}}


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
