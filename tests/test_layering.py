"""The stored form of a Matrix stays inside the matrix core and linalg.

A Matrix is integer rows over one denominator. Modules that only do matrix
algebra must not reach for the private helpers of linalg or of the matrix
core, or that representation leaks into them again. classify (the spins and
closures) and flags (one rank and one solve) work on the integer echelon
itself and are not listed.

No module reads the environment either: the size bounds are the constants
matrix.DIM_GUARD (every computation, by its own side) and
serialize.LITERAL_GUARD (the characters of one rational literal in a file),
so no setting can change a result from outside.

The build path stays small. A module's top-level imports run in every
process that loads it, so those of the modules `tetrabox build` loads stay
among them, and cli's top level imports only errors; every other import of
cli is made by the command that runs it. A later top-level import cannot
quietly put tetra or classify back on the build path. The path holds the
matrix core, not linalg: the closed-form fold never eliminates, and the
core imports nothing from linalg, so the elimination engine stays off it.

The package needs the standard library alone: every elimination is
linalg's integer echelon, so no module imports an array library, and
pyproject.toml lists no runtime dependency.

Every spectrum is read in linalg. No other module reaches the minimal
polynomial, the Krylov polynomial or the ladder test, and inside linalg the
dim^2-wide minimal polynomial runs only in diagonal_spectrum, on a Krylov
polynomial's shortfall.

No test module imports a name it never reads. The package's __init__ is
not scanned: it binds its public names for its importers.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import tetrabox

PACKAGE = Path(tetrabox.__file__).parent


def private_linalg_imports(module: str) -> list[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in ("linalg", "matrix")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("module", ["tetra", "onsager", "tridiagonal", "serialize", "cli"])
def test_no_private_linalg_names(module):
    assert private_linalg_imports(module) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_setting_comes_from_the_environment(path):
    # every bound is a constant (matrix.DIM_GUARD, serialize.LITERAL_GUARD), never an environment variable
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
    (spectrum,) = [node for node in tree.body if getattr(node, "name", None) == "diagonal_spectrum"]
    assert len(calls_of(spectrum, "minimal_polynomial")) == len(calls_of(tree, "minimal_polynomial")) == 1


BUILD_PATH = {"onsager", "serialize", "matrix", "errors", "_record"}


def package_modules(node: ast.AST) -> set[str]:
    """The tetrabox modules one import statement names; none for any other node."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        return {node.module} if node.module else {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tetrabox":
        return {node.module.partition(".")[2] or alias.name for alias in node.names}
    if isinstance(node, ast.Import):
        return {alias.name.partition(".")[2] for alias in node.names if alias.name.split(".")[0] == "tetrabox"}
    return set()


def top_level_imports(module: str) -> set[str]:
    """The tetrabox modules a module imports outside its functions."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found, pending = set(), list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        found |= package_modules(node)
        pending.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module", sorted(BUILD_PATH))
def test_the_build_path_imports_only_itself(module):
    assert top_level_imports(module) <= BUILD_PATH


def package_imports(module: str) -> set[str]:
    """The tetrabox modules a module imports anywhere, in a function or not."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return set().union(*map(package_modules, ast.walk(tree)))


def test_the_matrix_core_imports_nothing_from_linalg():
    # at any depth: the core, and what it imports, import linalg neither at the top level nor in a function
    seen, pending = set(), ["matrix"]
    while pending:
        module = pending.pop()
        seen.add(module)
        pending.extend(package_imports(module) - seen)
    assert seen == {"matrix", "errors", "_record"}


def test_cli_imports_only_errors_at_its_top_level():
    assert top_level_imports("cli") == {"errors"}


def test_the_package_imports_no_submodule():
    assert top_level_imports("__init__") == set()


def absolute_imports(path: Path) -> set[str]:
    """The top-level package of every absolute import in a module, at any depth."""
    tree = ast.parse(path.read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0}
    return {name.split(".")[0] for name in names}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_the_package_imports_only_the_standard_library(path):
    # every elimination is linalg's integer echelon: no array library, and no runtime dependency
    assert absolute_imports(path) <= set(sys.stdlib_module_names) | {"tetrabox"}


def test_pyproject_lists_no_runtime_dependency():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.findall(r"^dependencies\s*=\s*(.*)$", project, re.M) == ["[]"]


def unread_imports(path: Path) -> list[str]:
    """The names a module's import statements bind that it never reads."""
    tree = ast.parse(path.read_text())
    bound = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_no_test_module_imports_a_name_it_never_reads(path):
    assert unread_imports(path) == []
