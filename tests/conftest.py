"""Shared fixtures: the classification test grid and cached verdicts, and the
kit's spy, whose tests are marked work_count."""

from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from math import lcm

import pytest

import corpus

from tetrabox import (
    Matrix,
    ModuleSpec,
    OnsagerModule,
    build_from_spec,
    build_tetra,
    build_tetra_from_spec,
    determinant,
    is_irreducible_burnside,
    is_irreducible_criterion,
    kernel,
)
from tetrabox.onsager import kronecker_sum
from tetrabox.tetra import TetraModule

GRID_WEIGHTS = (1, 2, 3)
GRID_PARAMETERS = (
    Fraction(2),
    Fraction(3),
    Fraction(5),
    Fraction(1, 2),
    Fraction(-1),
    Fraction(1),
)

RELATION_SUITE = (
    ((1, Fraction(2)),),
    ((1, Fraction(2)), (1, Fraction(3))),
    ((2, Fraction(2)), (1, Fraction(3))),
    ((1, Fraction(2)), (1, Fraction(3)), (1, Fraction(5))),
)


def _single_factors():
    return [(n, a) for n in GRID_WEIGHTS for a in GRID_PARAMETERS]


@pytest.fixture(scope="session")
def grid_specs():
    """All 1- and 2-factor specs over the grid (dimensions up to 16)."""
    singles = [ModuleSpec((f,)) for f in _single_factors()]
    pairs = [ModuleSpec(pair) for pair in combinations_with_replacement(_single_factors(), 2)]
    return singles + pairs


@pytest.fixture(scope="session")
def relation_suite_specs():
    return [ModuleSpec(factors) for factors in RELATION_SUITE]


@pytest.fixture(scope="session")
def grid_modules(grid_specs):
    return {spec: build_from_spec(spec) for spec in grid_specs}


@pytest.fixture(scope="session")
def grid_burnside(grid_modules):
    return {spec: is_irreducible_burnside(module) for spec, module in grid_modules.items()}


@pytest.fixture(scope="session")
def built_irreducible_grid(grid_specs, grid_modules):
    """The flag-route structure of every irreducible grid spec."""
    return {
        spec: build_tetra(grid_modules[spec])
        for spec in grid_specs
        if is_irreducible_criterion(spec)
    }


@pytest.fixture(scope="session")
def doubled_v():
    """The twelve matrices of V + V for V = (1,2)(1,3), as V (x) Q^2 with Q^2
    trivial: each is kronecker_sum(x_rs, 0). The module is reducible and the
    top eigenspace of A is a plane, so no spin at A's or Astar's ladder can
    decide it: build_tetra takes the Burnside closure. The deep checks of a
    verified file decide it at that plane, with no spin or closure."""
    t = build_tetra_from_spec(ModuleSpec.of([(1, 2), (1, 3)]))
    x = {pair: kronecker_sum(mat, Matrix.zeros(2, 2)) for pair, mat in t.x.items()}
    return TetraModule(dim=8, diameter=t.diameter, x=x)


@pytest.fixture(scope="session")
def fixed_point_roundtrip():
    """The round trip as two builds decided it, given first = build_tetra(m):
    x_01 = A and x_23 = Astar, and a rebuild from x_01, x_23 that repeats
    first's twelve matrices (equal x_01, x_23 give equal four_flags, so the
    flags agree too). The reference for the one-build round trip."""
    def second_half(m, first):
        if first.x[(0, 1)] != m.A or first.x[(2, 3)] != m.Astar:
            return False
        second = build_tetra(OnsagerModule(first.dim, first.x[(0, 1)], first.x[(2, 3)]))
        return second.x == first.x
    return second_half


@pytest.fixture(scope="session")
def two_build_roundtrip(fixed_point_roundtrip):
    """The two-build round trip of a module."""
    return lambda m: fixed_point_roundtrip(m, build_tetra(m))


def _intertwiner_system(m1: OnsagerModule, m2: OnsagerModule) -> Matrix:
    """The 2 dim^2 x dim^2 integer system of S A1 = A2 S and S Astar1 =
    Astar2 S in the row-major entries of S. The equations of each relation
    are scaled by the common denominator of its two matrices, which leaves
    the kernel unchanged."""
    n = m1.dim
    rows = []
    for lhs, rhs in ((m1.A, m2.A), (m1.Astar, m2.Astar)):
        den = lcm(lhs._den, rhs._den)
        p, q = den // lhs._den, den // rhs._den
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for v in range(n):
                    row[i * n + v] += p * lhs._num[v][j]
                for u in range(n):
                    row[u * n + j] -= q * rhs._num[i][u]
                rows.append(row)
    return Matrix._of(len(rows), n * n, rows, 1)


def _reference_intertwiner(m1: OnsagerModule, m2: OnsagerModule):
    """The intertwiner by the linear system: the first canonical kernel basis
    vector, reshaped row-major, whose determinant is nonzero; None if none."""
    if m1.dim != m2.dim:
        return None
    n = m1.dim
    for coords in kernel(_intertwiner_system(m1, m2)).basis_columns():
        candidate = Matrix(n, n, coords)
        if determinant(candidate) != 0:
            return candidate
    return None


@pytest.fixture(scope="session")
def intertwiner_system():
    """Builder of the tall 2 dim^2 x dim^2 intertwiner system, the reference route."""
    return _intertwiner_system


@pytest.fixture(scope="session")
def reference_intertwiner():
    """find_intertwiner as the kernel of that system: the differential reference."""
    return _reference_intertwiner


def _diagonal(*entries) -> Matrix:
    return Matrix.from_rows([[e if i == j else 0 for j, _ in enumerate(entries)] for i, e in enumerate(entries)])


@pytest.fixture(scope="session")
def non_opposite_flags():
    """Two dim-5 pairs (A, Astar = P D P^-1), D = diag(2, 2, 0, 0, -2), each
    irreducible by Norton and of type (0, 0) with d = 2, whose flags 0 and 2
    are not opposite, with the text build_tetra raises on each."""
    d = _diagonal(2, 2, 0, 0, -2)
    cases = (
        (d, [[2, 2, 2, 0, -1], [2, -1, 2, 2, -1], [2, 1, 0, -1, 1], [-1, -1, -1, -1, 2], [0, 2, -1, 0, 2]],
         "component intersections do not sum directly to the full space"),
        (_diagonal(2, 2, 2, 0, -2), [[-1, 1, 0, 1, -1], [0, 1, 1, -1, 0], [0, 1, 0, 1, 1], [2, 1, 2, 2, -1],
                                     [-1, 1, 2, 1, 2]],
         "component intersection 1 is zero"),
    )
    return [(OnsagerModule(5, a, corpus.conjugated(d, Matrix.from_rows(p))),
             f"flags 0 and 2 are not opposite: {reason}") for a, p, reason in cases]


@pytest.fixture
def spy(monkeypatch):
    """corpus.spy on this test's monkeypatch: spy(owner, name, record, calls, bindings)."""
    return partial(corpus.spy, monkeypatch)


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(items):
    # before -m selects: a test that counts work through the kit's spy is a work-count pin
    for item in items:
        if "spy" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.work_count)
