"""The test kit: constructions, fresh copies, work-count spies and a child's environment, each defined once.

Every constructor returns new objects on each call, and the kit holds no
Matrix at module level, so no test reads an eigenspace or a Norton verdict
that another test kept in a matrix's spectral memo.
"""

import os
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

import tetrabox
from tetrabox import Matrix, ModuleSpec, OnsagerModule, inverse, onsager
from tetrabox.tetra import UNORDERED_PAIRS, TetraModule


def fresh(x):
    """An equal Matrix, OnsagerModule or TetraModule on new matrix objects, which hold no memo."""
    if isinstance(x, Matrix):
        return Matrix._of(x.rows, x.cols, x._num, x._den)
    if isinstance(x, OnsagerModule):
        return OnsagerModule(x.dim, fresh(x.A), fresh(x.Astar))
    return TetraModule(dim=x.dim, diameter=x.diameter, x={pair: fresh(m) for pair, m in x.x.items()})


def _block_diagonal(matrices) -> Matrix:
    width = sum(m.cols for m in matrices)
    rows, start = [], 0
    for m in matrices:
        rows += [[0] * start + row + [0] * (width - start - m.cols) for row in m.to_rows()]
        start += m.cols
    return Matrix.from_rows(rows)


def direct_sum(*parts):
    """The block-diagonal sum, in order, of matrices, OnsagerModules or structures (the first's diameter)."""
    first = parts[0]
    if isinstance(first, Matrix):
        return _block_diagonal(parts)
    dim = sum(part.dim for part in parts)
    if isinstance(first, OnsagerModule):
        return OnsagerModule(dim, _block_diagonal([p.A for p in parts]), _block_diagonal([p.Astar for p in parts]))
    return TetraModule(dim=dim, diameter=first.diameter,
                       x={pair: _block_diagonal([p.x[pair] for p in parts]) for pair in first.x})


def grids(rows: int, cols: int, entry):
    """The strategy of rows x cols matrices with every entry drawn from entry."""
    return st.lists(entry, min_size=rows * cols, max_size=rows * cols).map(lambda e: Matrix(rows, cols, e))


def unitriangular(n: int, entries) -> Matrix:
    """L U, L unit lower and U unit upper triangular, so of determinant 1: the
    n(n-1) entries fill L's rows below the diagonal, then U's above it."""
    values = iter(entries)
    lower = [[1 if i == j else next(values) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else next(values) if j > i else 0 for j in range(n)] for i in range(n)]
    return Matrix.from_rows(lower) * Matrix.from_rows(upper)


def unitriangular_matrices(n: int, entry=st.integers(-2, 2)):
    """The strategy of unitriangular(n, ...) with every entry drawn from entry."""
    size = n * (n - 1)
    return st.lists(entry, min_size=size, max_size=size).map(lambda entries: unitriangular(n, entries))


def conjugated(x, p: Matrix):
    """P x P^-1 for a matrix, both generators of an OnsagerModule or the twelve of a structure."""
    p_inverse = inverse(p)
    if isinstance(x, Matrix):
        return p * x * p_inverse
    if isinstance(x, OnsagerModule):
        return OnsagerModule(x.dim, p * x.A * p_inverse, p * x.Astar * p_inverse)
    return TetraModule(dim=x.dim, diameter=x.diameter, x={pair: p * m * p_inverse for pair, m in x.x.items()})


def folded(factors) -> TetraModule:
    """The twelve matrices of a spec's tensor product, folded as build_tetra_from_spec folds them but
    with no refusal, so also where two points collide and the module is reducible."""
    spec = ModuleSpec.of(factors)
    x = onsager._folded_generators(spec, UNORDERED_PAIRS)
    x.update({(s, r): -x[(r, s)] for r, s in UNORDERED_PAIRS})
    return TetraModule(dim=spec.dim, diameter=spec.degree_sum, x=x)


# tensor products at a repeated point: the top of x_01 is a line, and constituents lie below the top
# ((1,2)(1,2) is V(2, 2) + V(0), (1,2)(1,1/2)(1,3) is V(2,2) (x) V(1,3) + V(1,3))
REDUCIBLE_FOLDS = {"1_2_1_2": [(1, 2), (1, 2)], "1_2_2_2": [(1, 2), (2, 2)],
                   "1_2_1_half_1_3": [(1, 2), (1, Fraction(1, 2)), (1, 3)]}


def outcome(errors, call, *args):
    """What call(*args) returns, or the type and text of what it raises among errors."""
    try:
        return call(*args)
    except errors as exc:
        return type(exc), str(exc)


def rebind(monkeypatch, owner, name, replacement, bindings=()) -> None:
    """Patch owner.name, and every name in bindings' modules bound to the same object, with replacement."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, replacement)
    for module in bindings:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, replacement)


def spy(monkeypatch, owner, name, record=lambda first, *rest, **kwargs: first, calls=None, bindings=()) -> list:
    """Wrap owner.name (and its bindings, as rebind does) so that each call appends
    record(*args, **kwargs) (the first argument by default), or record itself where it is no callable,
    to calls (a new list unless one is given), then runs the real one. Returns calls; the patch is
    undone with monkeypatch."""
    calls = [] if calls is None else calls
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(record(*args, **kwargs) if callable(record) else record)
        return real(*args, **kwargs)

    rebind(monkeypatch, owner, name, wrapper, bindings)
    return calls


def subprocess_env(**extra) -> dict:
    """The environment of a child python that imports this tetrabox."""
    src = str(Path(tetrabox.__file__).resolve().parent.parent)
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
