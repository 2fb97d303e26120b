"""The stored form of a Matrix stays inside linalg.

A Matrix is integer rows over one denominator. Modules that only do matrix
algebra must not reach for linalg's private helpers, or that representation
leaks into them again. classify (the spins and closures) and flags (one rank
and one solve) work on the integer echelon itself and are not listed.

No module reads the environment either: the size bounds are the constants
linalg.DIM_GUARD (every computation, by its own side) and
serialize.LITERAL_GUARD (the characters of one rational literal in a file),
so no setting can change a result from outside.

The build path stays small. A module's top-level imports run in every
process that loads it, so those of the modules `tetrabox build` loads stay
among them, and cli's top level imports only errors; every other import of
cli is made by the command that runs it. A later top-level import cannot
quietly put tetra or classify back on the build path.

Every spectrum is read in linalg. No other module reaches the minimal
polynomial, the Krylov polynomial or the ladder test, and inside linalg the
dim^2-wide minimal polynomial runs only in _certified_spectrum, on a
Krylov polynomial's shortfall.
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
    # every bound is a constant (linalg.DIM_GUARD, serialize.LITERAL_GUARD), never an environment variable
    tree = ast.parse(path.read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert "os" not in {name.split(".")[0] for name in imported}


POLYNOMIAL_READERS = {"minimal_polynomial", "_krylov_polynomial", "_ladder_roots"}


def calls_of(tree: ast.AST, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "linalg"], ids=lambda p: p.stem)
def test_only_linalg_reads_a_polynomial(path):
    tree = ast.parse(path.read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    # the package re-exports the public minimal_polynomial and calls nothing
    allowed = {"minimal_polynomial"} if path.stem == "__init__" else set()
    assert (imported | attributes) & POLYNOMIAL_READERS <= allowed


def test_the_minimal_polynomial_runs_only_on_a_shortfall():
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    (certified,) = [node for node in tree.body if getattr(node, "name", None) == "_certified_spectrum"]
    assert len(calls_of(certified, "minimal_polynomial")) == len(calls_of(tree, "minimal_polynomial")) == 1


BUILD_PATH = {"onsager", "serialize", "linalg", "errors", "_record"}


def top_level_imports(module: str) -> set[str]:
    """The tetrabox modules a module imports outside its functions."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found, pending = set(), list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tetrabox":
            found |= {node.module.partition(".")[2] or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[2] for alias in node.names if alias.name.split(".")[0] == "tetrabox"}
        pending.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module", sorted(BUILD_PATH))
def test_the_build_path_imports_only_itself(module):
    assert top_level_imports(module) <= BUILD_PATH


def test_cli_imports_only_errors_at_its_top_level():
    assert top_level_imports("cli") == {"errors"}


def test_the_package_imports_no_submodule():
    assert top_level_imports("__init__") == set()
