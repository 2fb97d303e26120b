"""The stored form of a Matrix stays inside linalg.

A Matrix is integer rows over one denominator. Modules that only do matrix
algebra must not reach for linalg's private helpers, or that representation
leaks into them again. classify (the spins and closures) and flags (one rank)
work on the integer echelon itself and are not listed.

No module reads the environment either: the one size bound is the constant
linalg.DIM_GUARD, so no setting can change a result from outside.
"""

import ast
from pathlib import Path

import pytest

import tetrabox

PACKAGE = Path(tetrabox.__file__).parent


def private_linalg_imports(module: str) -> list[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "linalg"
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("module", ["tetra", "onsager", "tridiagonal", "serialize", "cli"])
def test_no_private_linalg_names(module):
    assert private_linalg_imports(module) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_setting_comes_from_the_environment(path):
    # every bound is a constant (linalg.DIM_GUARD), never an environment variable
    tree = ast.parse(path.read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert "os" not in {name.split(".")[0] for name in imported}
