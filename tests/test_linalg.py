import json
import subprocess
import sys
from fractions import Fraction, Fraction as F
from math import gcd, isqrt, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tetrabox import (
    DimensionGuardError,
    Matrix,
    ModuleSpec,
    Subspace,
    annihilates,
    build_from_spec,
    build_tetra,
    build_tetra_from_spec,
    commutator,
    determinant,
    eigenspace,
    evaluation_module,
    four_flags,
    hstack,
    intersect,
    inverse,
    is_diagonalizable_with,
    is_irreducible_criterion,
    kernel,
    kron,
    kronecker_sum,
    minimal_polynomial,
    module_type,
    rational_roots,
    rref,
    subspace_sum,
)
from tetrabox import linalg, matrix
from tetrabox.matrix import as_rational

from corpus import conjugated, direct_sum, fresh, grids, outcome, subprocess_env, unitriangular_matrices

entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def matrices(draw, max_dim=4, square=False):
    rows = draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    return draw(grids(rows, cols, entries))


@st.composite
def subspaces(draw, ambient=4):
    count = draw(st.integers(0, ambient))
    cols = draw(st.lists(st.lists(entries, min_size=ambient, max_size=ambient), min_size=count, max_size=count))
    if not cols:
        return Subspace.zero(ambient)
    return Subspace.span_columns(Matrix.from_rows(cols).transpose())


def span_of_columns(*cols):
    return Subspace.span_columns(Matrix.from_rows(cols).transpose())


class TestRref:
    def test_identity(self):
        assert rref(Matrix.identity(3)) == (Matrix.identity(3), 3)

    def test_zero(self):
        z = Matrix.zeros(2, 2)
        assert rref(z) == (z, 0)

    def test_permutation_matrix(self):
        m = Matrix.from_rows([[0, 1], [1, 0]])
        assert rref(m) == (Matrix.identity(2), 2)

    def test_normalizes_pivots(self):
        m = Matrix.from_rows([[2, 4], [1, 2]])
        reduced, rank = rref(m)
        assert rank == 1
        assert reduced.row_list(0) == [F(1), F(2)]
        assert reduced.row_list(1) == [F(0), F(0)]

    @settings(deadline=None, max_examples=60)
    @given(matrices())
    def test_idempotent(self, m):
        reduced, _ = rref(m)
        assert rref(reduced)[0] == reduced

    @settings(deadline=None, max_examples=60)
    @given(matrices())
    def test_rank_nullity(self, m):
        _, rank = rref(m)
        assert rank + kernel(m).dim == m.cols


class TestKernel:
    def test_line(self):
        assert kernel(Matrix.from_rows([[1, 1]])) == span_of_columns([1, -1])

    def test_identity_has_zero_kernel(self):
        assert kernel(Matrix.identity(2)).is_zero()

    def test_swap_minus_identity(self):
        # eigenvector of the swap matrix for eigenvalue 1, solved by hand
        m = Matrix.from_rows([[0, 1], [1, 0]]) - Matrix.identity(2)
        assert kernel(m) == span_of_columns([1, 1])

    @settings(deadline=None, max_examples=60)
    @given(matrices())
    def test_kernel_vectors_annihilate(self, m):
        null = kernel(m)
        for col in null.basis_columns():
            assert (m * Matrix(m.cols, 1, col)).is_zero()


class TestSubspaceArithmetic:
    def test_intersect_idempotent(self):
        u = span_of_columns([1, 2, 0], [0, 0, 1])
        assert intersect(u, u) == u

    def test_intersect_axes(self):
        e1 = span_of_columns([1, 0])
        e2 = span_of_columns([0, 1])
        assert intersect(e1, e2).is_zero()

    def test_intersect_containment(self):
        plane = span_of_columns([1, 0, 0], [0, 1, 0])
        line = span_of_columns([1, 1, 0])
        assert intersect(plane, line) == line

    def test_sum_with_zero(self):
        u = span_of_columns([1, 2])
        assert subspace_sum(u, Subspace.zero(2)) == u

    def test_sum_of_axes(self):
        e1 = span_of_columns([1, 0])
        e2 = span_of_columns([0, 1])
        assert subspace_sum(e1, e2) == Subspace.full(2)

    def test_sum_idempotent(self):
        u = span_of_columns([1, 2, 3])
        assert subspace_sum(u, u) == u

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            intersect(Subspace.zero(2), Subspace.zero(3))
        with pytest.raises(ValueError):
            subspace_sum(Subspace.full(2), Subspace.full(3))

    @settings(deadline=None, max_examples=60)
    @given(subspaces(), subspaces())
    def test_dimension_formula(self, u, v):
        assert subspace_sum(u, v).dim + intersect(u, v).dim == u.dim + v.dim

    @settings(deadline=None, max_examples=60)
    @given(subspaces())
    def test_canonical_form_ignores_spanning_set(self, u):
        if u.is_zero():
            return
        cols = u.basis_columns()
        # redundant, reordered and rescaled spanning set of the same space
        doubled = [[2 * x for x in cols[-1]]] + cols + [[a + b for a, b in zip(cols[0], cols[-1])]]
        rebuilt = Subspace.span_columns(Matrix.from_rows(doubled).transpose())
        assert rebuilt == u


class TestEigenspace:
    def test_identity_full(self):
        assert eigenspace(Matrix.identity(2), 1) == Subspace.full(2)

    def test_swap_negative_eigenvalue(self):
        m = Matrix.from_rows([[0, 1], [1, 0]])
        assert eigenspace(m, -1) == span_of_columns([1, -1])

    def test_non_eigenvalue(self):
        m = Matrix.from_rows([[0, 1], [1, 0]])
        assert eigenspace(m, 5).is_zero()

    def test_requires_square(self):
        with pytest.raises(ValueError):
            eigenspace(Matrix.from_rows([[1, 2]]), 1)

    @settings(deadline=None, max_examples=60)
    @given(matrices(square=True), st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2)]))
    def test_eigen_equation_exact(self, m, lam):
        space = eigenspace(m, lam)
        for col in space.basis_columns():
            assert m * Matrix(m.rows, 1, col) == lam * Matrix(m.rows, 1, col)


class TestExactScalars:
    """eigenspace, is_diagonalizable_with and rational_roots read each scalar
    exactly (as_rational), as Matrix does: strings and Fractions, never a float."""

    def test_eigenspace(self):
        m = Matrix.from_rows([[F(1, 10), 0], [0, 1]])
        assert eigenspace(m, "1/10") == eigenspace(m, F(1, 10)) == span_of_columns([1, 0])
        with pytest.raises(TypeError, match="as an exact rational"):
            eigenspace(m, 0.1)

    def test_is_diagonalizable_with(self):
        m = Matrix.from_rows([[F(1, 10), 0], [0, 1]])
        assert is_diagonalizable_with(m, ["1/10", 1])
        with pytest.raises(TypeError, match="as an exact rational"):
            is_diagonalizable_with(m, [0.1, 1])

    def test_rational_roots(self):
        # (10x - 1)(x - 1) = 10x^2 - 11x + 1
        assert rational_roots([1, "-11", F(10)]) == {F(1, 10): 1, F(1): 1}
        with pytest.raises(TypeError, match="as an exact rational"):
            rational_roots([-0.1, 1])


class TestDiagonalizability:
    def test_diagonal(self):
        m = Matrix.from_rows([[1, 0], [0, -1]])
        assert is_diagonalizable_with(m, [1, -1])

    def test_nilpotent_jordan_block(self):
        m = Matrix.from_rows([[0, 1], [0, 0]])
        assert not is_diagonalizable_with(m, [0])

    def test_swap(self):
        # generator action e + f on the 2-dimensional module
        m = Matrix.from_rows([[0, 1], [1, 0]])
        assert is_diagonalizable_with(m, [1, -1])

    def test_duplicate_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            is_diagonalizable_with(Matrix.identity(2), [1, 1])


class TestSolve:
    """linalg._solve: T with M T = N from the integer rows [M | N]."""

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_against_the_inverse(self, data):
        n = data.draw(st.integers(1, 4))
        grid = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
        m, rhs = data.draw(grid), data.draw(grid)
        rows = [a + b for a, b in zip(m, rhs)]
        if determinant(Matrix.from_rows(m)) == 0:
            with pytest.raises(ValueError, match="singular"):
                linalg._solve(n, rows)
        else:
            assert linalg._solve(n, rows) == inverse(Matrix.from_rows(m)) * Matrix.from_rows(rhs)

    def test_refuses_a_row_count_other_than_n(self):
        rows = [[1, 0, 5, 6], [0, 1, 7, 8], [1, 1, 0, 0]]
        assert linalg._solve(2, rows[:2]) == Matrix.from_rows([[5, 6], [7, 8]])
        with pytest.raises(ValueError, match="3 rows for 2 unknowns"):
            linalg._solve(2, rows)
        with pytest.raises(ValueError, match="1 rows for 2 unknowns"):
            linalg._solve(2, rows[:1])


class TestScalarHelpers:
    def test_determinant_2x2(self):
        m = Matrix.from_rows([[F(1, 2), 2], [3, 4]])
        assert determinant(m) == F(1, 2) * 4 - 2 * 3

    def test_determinant_singular(self):
        assert determinant(Matrix.from_rows([[1, 2], [2, 4]])) == 0

    @settings(deadline=None, max_examples=40)
    @given(matrices(square=True))
    def test_inverse_roundtrip(self, m):
        if determinant(m) == 0:
            with pytest.raises(ValueError):
                inverse(m)
        else:
            assert m * inverse(m) == Matrix.identity(m.rows)

    def test_minimal_polynomial_diag(self):
        m = Matrix.from_rows([[1, 0], [0, -1]])
        assert minimal_polynomial(m) == (F(-1), F(0), F(1))  # x^2 - 1

    def test_minimal_polynomial_nilpotent(self):
        m = Matrix.from_rows([[0, 1], [0, 0]])
        assert minimal_polynomial(m) == (F(0), F(0), F(1))  # x^2

    def test_minimal_polynomial_identity(self):
        assert minimal_polynomial(Matrix.identity(3)) == (F(-1), F(1))  # x - 1

    @settings(deadline=None, max_examples=40)
    @given(matrices(square=True))
    def test_minimal_polynomial_annihilates(self, m):
        poly = minimal_polynomial(m)
        acc = Matrix.zeros(m.rows, m.rows)
        power = Matrix.identity(m.rows)
        for c in poly:
            acc = acc + c * power
            power = power * m
        assert acc.is_zero()

    def test_rational_roots_full_split(self):
        # (x - 1)(x + 2)x = x^3 + x^2 - 2x
        assert rational_roots([F(0), F(-2), F(1), F(1)]) == {F(1): 1, F(-2): 1, F(0): 1}

    def test_rational_roots_multiplicity(self):
        # (x - 1)^2
        assert rational_roots([F(1), F(-2), F(1)]) == {F(1): 2}

    def test_rational_roots_irrational(self):
        assert rational_roots([F(-2), F(0), F(1)]) is None  # x^2 - 2

    def test_rational_roots_fractional(self):
        # (2x - 1)(x + 3) = 2x^2 + 5x - 3
        assert rational_roots([F(-3), F(5), F(2)]) == {F(1, 2): 1, F(-3): 1}


class TestGuardsAndPlumbing:
    def test_dimension_guard_override(self, monkeypatch):
        monkeypatch.setattr(matrix, "DIM_GUARD", 8)
        assert Matrix.identity(8).rows == 8
        with pytest.raises(DimensionGuardError):
            Matrix.identity(9)

    def test_kron_shapes_and_values(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[0, 1], [1, 0]])
        k = kron(a, b)
        assert (k.rows, k.cols) == (4, 4)
        assert k[0, 1] == 1 and k[0, 3] == 2 and k[2, 1] == 3

    def test_hstack(self):
        m = hstack(Matrix.identity(2), Matrix.from_rows([[5], [6]]))
        assert m.to_rows() == [[1, 0, 5], [0, 1, 6]]

    def test_entry_count_validation(self):
        with pytest.raises(ValueError):
            Matrix(2, 2, (F(1),))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Matrix.identity(2) + Matrix.identity(3)
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2]]) * Matrix.from_rows([[1, 2]])


# -- Matrix arithmetic against a Fraction list-of-lists reference -------------
#
# Matrix stores integer rows over one denominator; these references work on
# plain lists of Fraction rows and share no code with it. Shapes include 0.

ref_entries = st.fractions(min_value=-5, max_value=5, max_denominator=12)
sizes = st.integers(0, 3)
scalars = st.one_of(st.integers(-3, 3), ref_entries)


def fraction_rows(rows, cols):
    return st.lists(st.lists(ref_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def as_matrix(ref, cols):
    return Matrix(len(ref), cols, [x for row in ref for x in row])


def ref_mul(a, b, cols):
    inner = len(b)
    return [[sum((row[k] * b[k][j] for k in range(inner)), F(0)) for j in range(cols)] for row in a]


def ref_kron(a, b, b_cols):
    a_cols = len(a[0]) if a else 0
    return [[a[i][j] * b[k][l] for j in range(a_cols) for l in range(b_cols)] for i in range(len(a)) for k in range(len(b))]


def ref_identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def assert_matches(m, ref, cols):
    """m has the reference's shape, views, zero test and canonical stored form."""
    flat = [x for row in ref for x in row]
    assert (m.rows, m.cols) == (len(ref), cols)
    assert list(m.entries) == flat
    assert all(type(x) is F and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1 for x in m.entries)
    assert [m[i, j] for i in range(m.rows) for j in range(cols)] == flat
    assert [m.row_list(i) for i in range(m.rows)] == ref
    assert [m.col_list(j) for j in range(cols)] == [[row[j] for row in ref] for j in range(cols)]
    assert m.to_rows() == ref
    assert m.is_zero() == all(x == 0 for x in flat)
    rebuilt = as_matrix(ref, cols)
    assert m == rebuilt and hash(m) == hash(rebuilt)


class TestMatrixAgainstFractionReference:
    @settings(deadline=None, max_examples=80)
    @given(st.data(), sizes, sizes, scalars)
    def test_elementwise_and_transpose(self, data, rows, cols, s):
        a = data.draw(fraction_rows(rows, cols))
        b = data.draw(fraction_rows(rows, cols))
        ma, mb = as_matrix(a, cols), as_matrix(b, cols)
        assert_matches(ma, a, cols)
        assert_matches(ma + mb, [[x + y for x, y in zip(r, q)] for r, q in zip(a, b)], cols)
        assert_matches(ma - mb, [[x - y for x, y in zip(r, q)] for r, q in zip(a, b)], cols)
        assert_matches(-ma, [[-x for x in r] for r in a], cols)
        assert_matches(s * ma, [[s * x for x in r] for r in a], cols)
        assert_matches(ma * s, [[x * s for x in r] for r in a], cols)
        assert_matches(ma.transpose(), [[r[j] for r in a] for j in range(cols)], rows)
        assert (ma == mb) == (a == b)

    @settings(deadline=None, max_examples=80)
    @given(st.data(), sizes, sizes, sizes)
    def test_matmul(self, data, n, k, m):
        a, b = data.draw(fraction_rows(n, k)), data.draw(fraction_rows(k, m))
        assert_matches(as_matrix(a, k) * as_matrix(b, m), ref_mul(a, b, m), m)

    @settings(deadline=None, max_examples=60)
    @given(st.data(), sizes, sizes, sizes, sizes)
    def test_kron(self, data, r1, c1, r2, c2):
        a, b = data.draw(fraction_rows(r1, c1)), data.draw(fraction_rows(r2, c2))
        assert_matches(kron(as_matrix(a, c1), as_matrix(b, c2)), ref_kron(a, b, c2), c1 * c2)

    @settings(deadline=None, max_examples=60)
    @given(st.data(), sizes, st.lists(sizes, min_size=1, max_size=3))
    def test_hstack(self, data, rows, widths):
        parts = [data.draw(fraction_rows(rows, w)) for w in widths]
        expected = [[x for part in parts for x in part[i]] for i in range(rows)]
        assert_matches(hstack(*(as_matrix(p, w) for p, w in zip(parts, widths))), expected, sum(widths))

    @settings(deadline=None, max_examples=60)
    @given(st.data(), sizes, sizes)
    def test_commutator_and_kronecker_sum(self, data, n, m):
        a, b, c = data.draw(fraction_rows(n, n)), data.draw(fraction_rows(n, n)), data.draw(fraction_rows(m, m))
        ma, mb, mc = as_matrix(a, n), as_matrix(b, n), as_matrix(c, m)
        ab, ba = ref_mul(a, b, n), ref_mul(b, a, n)
        assert_matches(commutator(ma, mb), [[x - y for x, y in zip(r, q)] for r, q in zip(ab, ba)], n)
        left, right = ref_kron(a, ref_identity(m), m), ref_kron(ref_identity(n), c, m)
        expected = [[x + y for x, y in zip(r, q)] for r, q in zip(left, right)]
        assert_matches(kronecker_sum(ma, mc), expected, n * m)

    @settings(deadline=None, max_examples=60)
    @given(st.data(), sizes, sizes, st.integers(1, 12).map(lambda q: F(1, q)))
    def test_one_matrix_reached_two_ways_is_stored_once(self, data, rows, cols, unit):
        a = data.draw(fraction_rows(rows, cols))
        m = as_matrix(a, cols)
        for other in ((2 * m) * F(1, 2), (m * unit) * unit.denominator, m + m - m, -(-m), m.transpose().transpose()):
            assert other == m and hash(other) == hash(m)
            assert_matches(other, a, cols)


# -- The one-elimination kernel against the unit-tail route -------------------


def reference_kernel(m: Matrix) -> Subspace:
    """The null space by unit tails: each column of m, followed by its unit
    vector, is reduced in one echelon; a column that reduces to zero leaves a
    dependency among the columns in its tail, those tails span the null
    space, and a second elimination makes their span canonical."""
    echelon = linalg._Echelon(m.rows)
    dependencies = []
    for j, column in enumerate(linalg._integer_columns(m)):
        lead, residual = echelon.reduce(column + [int(i == j) for i in range(m.cols)])
        if lead is None:
            dependencies.append(residual[m.rows :])
        else:
            echelon.add(residual)
    return linalg._span(m.cols, dependencies)


def reference_eigenspace(m: Matrix, lam) -> Subspace:
    return reference_kernel(m - lam * Matrix.identity(m.rows))


sparse_entries = st.one_of(st.just(F(0)), entries)


@st.composite
def any_shape(draw):
    """A rows x cols matrix for every shape from 0x0 to 6x8: sparse entries,
    or a product through an inner size 0..3, so low rank is common."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    if draw(st.booleans()):
        return draw(grids(rows, cols, sparse_entries))
    inner = draw(st.integers(0, 3))
    return draw(grids(rows, inner, sparse_entries)) * draw(grids(inner, cols, sparse_entries))


class TestKernelDifferential:
    """kernel and eigenspace against the unit-tail route, basis for basis."""

    @settings(deadline=None, max_examples=200)
    @given(any_shape())
    def test_every_shape(self, m):
        assert kernel(m).basis == reference_kernel(m).basis

    @pytest.mark.parametrize("first, second, solutions", [
        ([(3, 2)], [(3, F(1, 2))], 1),  # isomorphic: S is unique up to scale
        ([(1, 2), (2, 3)], [(2, F(1, 3)), (1, 2)], 1),
        ([(1, 2), (2, 3)], [(1, 2), (2, 5)], 0),  # not isomorphic
        ([(1, 2), (1, 3), (1, 5)], [(1, 2), (1, 3), (1, 5)], 1),
    ])
    def test_intertwiner_systems(self, intertwiner_system, first, second, solutions):
        # the tall 2n^2 x n^2 systems of the reference intertwiner at diameter 3
        system = intertwiner_system(build_from_spec(ModuleSpec.of(first)), build_from_spec(ModuleSpec.of(second)))
        assert system.rows == 2 * system.cols
        assert kernel(system).basis == reference_kernel(system).basis
        assert kernel(system).dim == solutions

    @pytest.mark.parametrize("factors", [[(3, 2), (3, 3)], [(2, 2), (2, 3), (2, 5)]])
    def test_generators_of_built_modules(self, factors):
        t = build_tetra_from_spec(ModuleSpec.of(factors))
        d = t.diameter
        for mat in t.x.values():
            for lam in range(-d - 1, d + 2):
                assert eigenspace(mat, lam).basis == reference_eigenspace(mat, lam).basis


# -- diagonal_spectrum against the minimal-polynomial route ---------------------

def reference_spectrum(m):
    """Distinct eigenvalues (descending) and eigenspaces from the roots of the
    full minimal polynomial, or None when m is not diagonalizable over Q."""
    roots = rational_roots(minimal_polynomial(m))
    if roots is None or any(mult > 1 for mult in roots.values()):
        return None
    eigenvalues = tuple(sorted(roots, reverse=True))
    return eigenvalues, tuple(eigenspace(m, lam) for lam in eigenvalues)


spectrum_values = st.sampled_from([F(0), F(1), F(-1), F(2), F(-2), F(3), F(1, 2), F(-5, 3)])


@st.composite
def blocks(draw):
    """One diagonal block: a scalar, a Jordan block of size 2 or 3, or the
    companion matrix of x^2 - 2."""
    kind = draw(st.sampled_from(["scalar", "scalar", "scalar", "jordan", "irrational"]))
    if kind == "scalar":
        return [[draw(spectrum_values)]]
    if kind == "irrational":
        return [[F(0), F(2)], [F(1), F(0)]]
    lam, size = draw(spectrum_values), draw(st.integers(2, 3))
    return [[lam if i == j else F(int(j == i + 1)) for j in range(size)] for i in range(size)]


@st.composite
def conjugated_block_matrices(draw, max_dim=6):
    """S T S^-1 with T block diagonal and S = L U, L and U unitriangular."""
    parts = draw(st.lists(blocks(), min_size=1, max_size=4))
    n = sum(map(len, parts))
    if n > max_dim:
        parts, n = parts[:1], len(parts[0])
    t = [[F(0)] * n for _ in range(n)]
    offset = 0
    for block in parts:
        for i, row in enumerate(block):
            t[offset + i][offset : offset + len(row)] = row
        offset += len(block)
    return conjugated(Matrix.from_rows(t), draw(unitriangular_matrices(n)))


class TestDiagonalSpectrum:
    @settings(deadline=None, max_examples=150)
    @given(conjugated_block_matrices())
    def test_against_the_minimal_polynomial_route(self, m):
        assert linalg.diagonal_spectrum(m) == reference_spectrum(m)

    @settings(deadline=None, max_examples=40)
    @given(matrices(square=True))
    def test_any_matrix(self, m):
        assert linalg.diagonal_spectrum(m) == reference_spectrum(m)

    def test_start_vector_is_an_eigenvector(self, spy):
        # the minimal polynomial of m on the start vector is x - 2: its one
        # eigenspace is a line, so the full minimal polynomial must decide
        n = 3
        columns = [linalg._krylov_start(n), [0, 1, 0], [0, 0, 1]]
        s = Matrix.from_rows(columns).transpose()
        m = conjugated(Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]]), s)
        calls = spy(linalg, "minimal_polynomial")
        spectrum = linalg.diagonal_spectrum(m)
        assert calls == [m]
        assert spectrum == reference_spectrum(m)
        assert spectrum[0] == (F(2), F(0), F(-2))
        assert spectrum[1][0] == Subspace.span_columns(Matrix.from_rows([columns[0]]).transpose())

    def test_jordan_block_behind_an_eigenvector(self, spy):
        # the start vector is an eigenvector of a matrix with a Jordan block:
        # the fallback's minimal polynomial has a double root
        n = 3
        columns = [linalg._krylov_start(n), [0, 1, 0], [0, 0, 1]]
        s = Matrix.from_rows(columns).transpose()
        m = conjugated(Matrix.from_rows([[1, 0, 0], [0, 3, 1], [0, 0, 3]]), s)
        calls = spy(linalg, "minimal_polynomial")
        assert linalg.diagonal_spectrum(m) is None
        assert calls == [m]

    def test_repeated_root_needs_no_fallback(self, monkeypatch):
        # a Jordan block whose start vector is no eigenvector: mu_v = (x - 1)^2
        monkeypatch.setattr(linalg, "minimal_polynomial", None)
        assert linalg.diagonal_spectrum(Matrix.from_rows([[1, 0], [1, 1]])) is None
        assert linalg.diagonal_spectrum(Matrix.from_rows([[0, 2], [1, 0]])) is None  # x^2 - 2

    @settings(deadline=None, max_examples=100)
    @given(conjugated_block_matrices())
    def test_ladder_route_against_the_minimal_polynomial_route(self, m):
        expected = reference_spectrum(m)
        if expected is not None and any(a - b != 2 for a, b in zip(expected[0], expected[0][1:])):
            expected = None
        assert linalg.ladder_spectrum(m) == expected

    def test_ladder_route_with_a_missed_rung(self, spy):
        # the start vector has no component at eigenvalue 0: mu_v = x^2 - 4 is no
        # ladder, and its eigenlines at +-2 fall short, so the minimal polynomial of m decides
        n = 3
        columns = [[x - (i == 1) for i, x in enumerate(linalg._krylov_start(n))], [0, 0, 1], [0, 1, 0]]
        s = Matrix.from_rows(columns).transpose()
        m = conjugated(Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]]), s)
        assert linalg._krylov_polynomial(m) == (F(-4), F(0), F(1))
        expected = reference_spectrum(m)
        calls = spy(linalg, "minimal_polynomial")
        assert linalg.ladder_spectrum(m) == expected
        assert calls == [m]

    def test_ladder_route_refuses_large_entries_without_a_divisor_search(self):
        # x^2 - (10^30 + 1) has no rational root, and a Jordan block no spectrum
        assert linalg.ladder_spectrum(Matrix.from_rows([[0, 10**30 + 1], [1, 0]])) is None
        assert linalg.ladder_spectrum(Matrix.from_rows([[1, 1], [0, 1]])) is None

    def test_edge_shapes(self):
        assert linalg.diagonal_spectrum(Matrix.zeros(0, 0)) == ((), ())
        assert linalg.diagonal_spectrum(Matrix.identity(3) * 2) == ((F(2),), (Subspace.full(3),))
        with pytest.raises(ValueError):
            linalg.diagonal_spectrum(Matrix.zeros(2, 3))
        assert linalg.ladder_spectrum(Matrix.identity(3) * 2) == ((F(2),), (Subspace.full(3),))
        for shape in ((0, 0), (2, 3)):
            with pytest.raises(ValueError):
                linalg.ladder_spectrum(Matrix.zeros(*shape))


# -- the Krylov start e_0 on built modules, and its fallback elsewhere -----------

LARGE = ModuleSpec.of([(32, 2)])


class TestKrylovStart:
    def test_the_start_is_the_first_unit_vector(self):
        assert linalg._krylov_start(4) == [1, 0, 0, 0]

    def test_krylov_polynomial_is_the_minimal_polynomial_on_built_modules(self, grid_modules):
        # e_0 = v_0 (x) ... (x) v_0 has a component in every eigenspace of A and of A*
        for m in [*grid_modules.values(), build_from_spec(LARGE)]:
            for x in (m.A, m.Astar):
                assert linalg._krylov_polynomial(x) == minimal_polynomial(x)

    def test_spectral_routes_run_no_minimal_polynomial_on_built_modules(self, grid_modules, spy):
        calls = spy(linalg, "minimal_polynomial")
        for spec, m in [*grid_modules.items(), (LARGE, build_from_spec(LARGE))]:
            assert module_type(m)[1:] == (0, 0)
            assert len(four_flags(m)) == 4
            if is_irreducible_criterion(spec):
                assert build_tetra(m).dim == m.dim
        assert calls == []

    @pytest.mark.parametrize("generator", ["A", "Astar"])
    def test_a_block_that_lacks_eigenvalues_falls_back_once(self, generator, spy):
        # V(1) + V(3): e_0 lies in the V(1) block, which lacks the eigenvalues +-3
        m = direct_sum(getattr(evaluation_module(1, 2), generator), getattr(evaluation_module(3, 3), generator))
        assert linalg._krylov_polynomial(m) == (F(-1), F(0), F(1))
        expected = reference_spectrum(m)
        assert expected[0] == (F(3), F(1), F(-1), F(-3))
        for spectrum in (linalg.ladder_spectrum, linalg.diagonal_spectrum):
            calls = spy(linalg, "minimal_polynomial")
            assert spectrum(m) == expected
            assert calls == [m]


# entries from [-2, 2], where a pivot often divides or shares a factor with the entry it eliminates, and up to
# +-10^6, where the coefficients of an elimination grow
echelon_entries = st.one_of(st.integers(-2, 2), st.integers(-10**6, 10**6))


class TestEchelonKeepsReducedRows:
    @settings(deadline=None, max_examples=150)
    @given(st.data(), st.integers(1, 5), st.integers(0, 3))
    def test_later_vectors_give_a_fresh_echelons_rows(self, data, n, tail):
        # tail == 0: plain vectors; otherwise each carries a tail through the elimination. Small entries make
        # pivots that divide the entry they eliminate (the step's p == 1 branch) or share a factor with it
        vector = st.lists(echelon_entries, min_size=n + tail, max_size=n + tail)
        vectors = data.draw(st.lists(vector, max_size=8))
        reads = data.draw(st.sets(st.integers(0, len(vectors))))
        echelon = linalg._Echelon(n)
        for k, v in enumerate(vectors + [None]):
            if k in reads:
                rows, pivots = echelon.reduced_rows()
                assert echelon.rows == dict(zip(pivots, rows))
            if v is not None:
                echelon.add(list(v))
        assert echelon.reduced_rows() == linalg._echelon(n, [list(v) for v in vectors]).reduced_rows()


# -- the gcd-cancelling step against the echelon that strips every update -----------


class StrippingEchelon(linalg._Echelon):
    """The reference engine: every two-term update p v - c row is gcd-stripped."""

    def reduce(self, vec):
        rows = self.rows
        v = vec
        for pos in range(self.n):
            c = v[pos]
            if not c:
                continue
            row = rows.get(pos)
            if row is None:
                return pos, v
            p = row[pos]
            v = linalg._strip_gcd([p * x - c * y for x, y in zip(v, row)])
        return None, v

    def reduced_rows(self):
        pivots = sorted(self.rows)
        rows = [self.rows[c] for c in pivots]
        for k in range(len(pivots) - 1, -1, -1):
            c = pivots[k]
            rk = rows[k]
            p = rk[c]
            for i in range(k):
                ci = rows[i][c]
                if ci:
                    rows[i] = linalg._strip_gcd([p * x - ci * y for x, y in zip(rows[i], rk)])
        self.rows = dict(zip(pivots, rows))
        return rows, pivots


def is_positive_multiple(u, v):
    """Is u = t v for some rational t > 0?"""
    lead = next((i for i, x in enumerate(v) if x), None)
    if lead is None:
        return not any(u)
    return u[lead] * v[lead] > 0 and all(a * v[lead] == b * u[lead] for a, b in zip(u, v))


@st.composite
def echelon_inputs(draw, width, count):
    """count integer vectors of the given width; some are small combinations of
    earlier ones, so that their residuals vanish on the eliminated positions."""
    vectors = []
    for _ in range(count):
        if vectors and draw(st.booleans()):
            coefficients = draw(st.lists(st.integers(-3, 3), min_size=len(vectors), max_size=len(vectors)))
            vectors.append([sum(a * v[i] for a, v in zip(coefficients, vectors)) for i in range(width)])
        else:
            vectors.append(draw(st.lists(echelon_entries, min_size=width, max_size=width)))
    return vectors


@st.composite
def large_matrices(draw, max_dim=5):
    """An integer matrix of up to max_dim rows and columns with entries up to +-10^6,
    over a drawn denominator; some rows are combinations of earlier ones."""
    rows, cols = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    return Matrix._of(rows, cols, draw(echelon_inputs(cols, rows)), draw(st.integers(1, 12)))


class TestCancellingStepDifferential:
    """_Echelon cancels gcd(p, c) from the two multipliers and strips a row once,
    when it is kept; the reference strips every update. The kept rows, reduced
    rows, verdicts and leads are equal, each residual is a positive multiple of
    the reference's, and every routine that eliminates answers as on the reference."""

    def test_the_two_cancellation_branches(self):
        echelon = linalg._Echelon(3)
        assert echelon.add([2, 0, 1]) and echelon.add([0, 6, 5])
        # p = 2 divides c = 4: v - 2 row = [0, 2, 0], which the reference strips to [0, 1, 0]; then
        # gcd(6, 2) = 2: 3 v - row = [0, 0, -5], five times the reference's stripped [0, 0, -1]
        assert echelon.reduce([4, 2, 2]) == (2, [0, 0, -5])
        assert StrippingEchelon.reduce(echelon, [4, 2, 2]) == (2, [0, 0, -1])
        # add keeps the stripped row, with its lead positive
        assert echelon.add([4, 2, 2]) and echelon.rows[2] == [0, 0, 1]
        assert echelon.reduced_rows() == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2])

    @settings(deadline=None, max_examples=200)
    @given(st.data(), st.integers(1, 6), st.integers(0, 3))
    def test_rows_verdicts_leads_and_residuals(self, data, n, tail):
        vectors = data.draw(echelon_inputs(n + tail, data.draw(st.integers(0, 10))))
        reads = data.draw(st.sets(st.integers(0, len(vectors))))
        echelon, reference = linalg._Echelon(n), StrippingEchelon(n)
        for k, v in enumerate(vectors + [None]):
            if k in reads:
                assert echelon.reduced_rows() == reference.reduced_rows()
            if v is None:
                continue
            lead, residual = echelon.reduce(list(v))
            expected_lead, expected = reference.reduce(list(v))
            assert lead == expected_lead
            assert is_positive_multiple(residual, expected)
            assert echelon.add(list(v)) == reference.add(list(v))
            assert echelon.rows == reference.rows
        assert echelon.reduced_rows() == reference.reduced_rows()

    @settings(deadline=None, max_examples=150)
    @given(large_matrices())
    def test_kernel_and_rref(self, m):
        with mock.patch.object(linalg, "_Echelon", StrippingEchelon):
            expected = linalg._kernel(m.cols, m._num), rref(m)
        assert (linalg._kernel(m.cols, m._num), rref(m)) == expected

    @settings(deadline=None, max_examples=150)
    @given(st.data(), st.integers(1, 5))
    def test_intersect(self, data, n):
        # v's columns are drawn after u's, so some are combinations of u's
        columns = data.draw(echelon_inputs(n, data.draw(st.integers(0, 2 * n))))
        cut = data.draw(st.integers(0, len(columns)))
        u, v = (linalg._span(n, part) for part in (columns[:cut], columns[cut:]))
        with mock.patch.object(linalg, "_Echelon", StrippingEchelon):
            expected = intersect(u, v)
        assert intersect(u, v) == expected

    @settings(deadline=None, max_examples=150)
    @given(st.data(), st.integers(1, 5))
    def test_solve(self, data, n):
        rows = data.draw(echelon_inputs(2 * n, n))
        with mock.patch.object(linalg, "_Echelon", StrippingEchelon):
            expected = outcome(REFUSALS, linalg._solve, n, rows)
        assert outcome(REFUSALS, linalg._solve, n, rows) == expected

    @settings(deadline=None, max_examples=150)
    @given(st.data(), st.integers(1, 5))
    def test_first_dependence(self, data, n):
        # both routes of _first_dependence, each on a matrix object that holds no memo
        m = Matrix._of(n, n, data.draw(echelon_inputs(n, n)), data.draw(st.integers(1, 12)))
        with mock.patch.object(linalg, "_Echelon", StrippingEchelon):
            expected = linalg._krylov_polynomial(fresh(m)), minimal_polynomial(m)
        assert (linalg._krylov_polynomial(fresh(m)), minimal_polynomial(m)) == expected


# -- _ladder_roots on integers against the Fraction expansion -------------------


def monic_with_roots(roots):
    """prod (x - lam) over the roots, expanded in Fractions, constant term first."""
    poly = [F(1)]
    for lam in roots:
        poly = [F(0)] + poly
        for k in range(len(poly) - 1):
            poly[k] -= lam * poly[k + 1]
    return tuple(poly)


def reference_ladder_roots(poly):
    """The ladder test on Fractions: expand prod_i (x - c + 2i) and compare with poly."""
    d = len(poly) - 2
    c = F(-poly[d], d + 1) + d
    roots = [c - 2 * i for i in range(d + 1)]
    return roots if monic_with_roots(roots) == tuple(poly) else None


class TestLadderRootsDifferential:
    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(0, 8),
        st.fractions(min_value=-30, max_value=30, max_denominator=9),
        st.one_of(st.none(), st.tuples(st.integers(0, 8), st.fractions(min_value=-3, max_value=3, max_denominator=5))),
    )
    def test_ladders_and_perturbed_ladders(self, d, c, perturbation):
        roots = [c - 2 * i for i in range(d + 1)]
        if perturbation is not None:
            index, shift = perturbation
            roots[index % (d + 1)] += shift
        poly = monic_with_roots(roots)
        assert linalg._ladder_roots(poly) == reference_ladder_roots(poly)
        if perturbation is None:
            assert linalg._ladder_roots(poly) == roots

    @settings(deadline=None, max_examples=200)
    @given(st.lists(entries, min_size=1, max_size=6))
    def test_any_monic_polynomial(self, lower):
        poly = tuple(lower) + (F(1),)
        assert linalg._ladder_roots(poly) == reference_ladder_roots(poly)


# -- rational_roots against the divisor search it replaced ---------------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _eval_poly(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def reference_rational_roots(coeffs):
    """The former rational_roots, verbatim: trial division by the divisors of
    both end coefficients, whose time grows with their values."""
    poly = [Fraction(as_rational(c)) for c in coeffs]
    while poly and poly[-1] == 0:
        poly.pop()
    if len(poly) <= 1:
        raise ValueError("polynomial must have positive degree")
    roots: dict[Fraction, int] = {}
    while len(poly) > 1:
        denom = lcm(*(c.denominator for c in poly))
        ints = [int(c * denom) for c in poly]
        if ints[0] == 0:
            root = Fraction(0)
        else:
            candidates = (
                Fraction(sign * p, q)
                for p in _divisors(ints[0])
                for q in _divisors(ints[-1])
                if gcd(p, q) == 1
                for sign in (1, -1)
            )
            root = next((x for x in candidates if _eval_poly(poly, x) == 0), None)
            if root is None:
                return None
        roots[root] = roots.get(root, 0) + 1
        # synthetic division by (x - root); the remainder is zero by construction
        quotient = [Fraction(0)] * (len(poly) - 1)
        acc = poly[-1]
        for i in range(len(poly) - 2, -1, -1):
            quotient[i] = acc
            acc = poly[i] + acc * root
        poly = quotient
    return roots


def times(p, q):
    """The product of two polynomials, constant term first."""
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


# (c, b, q): q x^2 + b x + c whose discriminant is no square, irreducible over Q with real or complex roots
irreducible_quadratics = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 3)).filter(
    lambda cbq: not is_square(cbq[1] ** 2 - 4 * cbq[0] * cbq[2]))


@settings(deadline=None, max_examples=200)
@given(
    # small heights, so that the divisor search finishes; a repeated root is common
    st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3), max_size=5),
    st.lists(irreducible_quadratics, max_size=2),
    entries.filter(bool),
)
def test_rational_roots_against_the_divisor_search(roots, quadratics, lead):
    poly = [lead * c for c in monic_with_roots(roots)]
    for quadratic in quadratics:
        poly = times(poly, quadratic)
    found = outcome(ValueError, rational_roots, poly)
    assert found == outcome(ValueError, reference_rational_roots, poly)
    if isinstance(found, dict):
        assert list(found) == sorted(found, reverse=True)


# the calls a divisor search never finished, run in a child process so that a hang fails at the timeout
LARGE_COEFFICIENTS = """
import json, sys
from tetrabox import Matrix, diagonal_spectrum, rational_roots, verify_tridiagonal_pair

polys = json.load(sys.stdin)
report = verify_tridiagonal_pair(Matrix.from_rows([[0, 10**30 + 1], [1, 0]]), Matrix.from_rows([[1, 0], [0, -1]]))
spectrum = diagonal_spectrum(Matrix.from_rows([[3**i if i == j else 0 for j in range(9)] for i in range(9)]))
print(json.dumps([report.diagonalizable_A, [str(lam) for lam in spectrum[0]],
                  [[[str(r), k] for r, k in rational_roots(poly).items()] for poly in polys]]))
"""


def test_large_coefficients_return():
    # prod_{i<40} (x - 3^i), four mixed roots and the ladder at d = 128, each times -3/7
    cases = [[F(3**i) for i in range(39, -1, -1)], [F(5), F(10**12 + 39, 2**40), F(0), F(-7, 3)],
             [F(lam) for lam in range(128, -129, -2)]]
    polys = [[str(F(-3, 7) * c) for c in monic_with_roots(roots)] for roots in cases]
    proc = subprocess.run([sys.executable, "-c", LARGE_COEFFICIENTS], input=json.dumps(polys), capture_output=True,
                          text=True, env=subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, [str(3**i) for i in range(8, -1, -1)],
                                       [[[str(r), 1] for r in roots] for roots in cases]]


# -- the spectral memo: eigenspaces and Krylov polynomial kept on their matrix ----

# what a route refuses with, compared by type and text
REFUSALS = (ValueError, DimensionGuardError)


@st.composite
def square_matrices(draw):
    """A square matrix from 0 x 0 to 4 x 4, or a conjugated block matrix, whose
    spectrum, ladder or not, is often rational."""
    if draw(st.booleans()):
        return draw(conjugated_block_matrices(max_dim=5))
    n = draw(st.integers(0, 4))
    return draw(grids(n, n, sparse_entries))


SPECTRAL_ROUTES = {
    "ladder_spectrum": linalg.ladder_spectrum,
    "diagonal_spectrum": linalg.diagonal_spectrum,
    "_krylov_polynomial": linalg._krylov_polynomial,
}


@pytest.mark.work_count
class TestSpectralMemo:
    """eigenspace and _krylov_polynomial keep what they compute on the matrix, in a
    memo that at most linalg._MEMO_BOUND matrices hold at once and that also keeps
    Norton's verdicts (its lifetime is pinned by
    test_classify.py::TestOneNortonVerdictPerPair::test_verdict_dies_with_its_matrix)."""

    @settings(deadline=None, max_examples=150)
    @given(square_matrices(), st.lists(st.one_of(spectrum_values, entries), max_size=4))
    def test_two_calls_answer_as_a_fresh_copy_does(self, m, eigenvalues):
        # eigenvalues and non-eigenvalues alike; the second call forms no kernel
        for lam in eigenvalues:
            expected = eigenspace(fresh(m), lam)
            first = eigenspace(m, lam)
            with mock.patch.object(linalg, "_kernel", side_effect=AssertionError("kernel formed again")):
                second = eigenspace(m, lam)
            assert first == second == expected and second is first
        for name, route in SPECTRAL_ROUTES.items():
            expected = outcome(REFUSALS, route, fresh(m))
            assert outcome(REFUSALS, route, m) == outcome(REFUSALS, route, m) == expected, name

    @settings(deadline=None, max_examples=100)
    @given(square_matrices(), st.lists(st.one_of(spectrum_values, entries), max_size=3))
    def test_a_kernel_of_transposed_rows_is_the_transposes_eigenspace(self, m, eigenvalues):
        # Norton's dual line: read off the transposed integer rows, with no transpose to hold a memo
        for lam in eigenvalues:
            assert linalg._shifted_kernel(zip(*m._num), m._den, lam) == eigenspace(m.transpose(), lam)

    def test_the_oldest_holder_beyond_the_bound_loses_its_memo(self):
        held = [Matrix.from_rows([[k, 1], [0, -k]]) for k in range(1, linalg._MEMO_BOUND + 2)]
        for m in held:
            assert eigenspace(m, 0).dim == 0
        oldest, *rest = held
        assert getattr(oldest, "_spectral_memo", None) is None
        assert all(0 in m._spectral_memo for m in rest)
        # the memo is no field: ==, hash and repr read the stored form alone
        assert rest[-1] == fresh(rest[-1]) and hash(rest[-1]) == hash(fresh(rest[-1]))
        assert "_spectral_memo" not in repr(rest[-1])
        for m in held:
            copy = fresh(m)
            assert [eigenspace(m, lam) for lam in (m[0, 0], 0)] == [eigenspace(copy, lam) for lam in (m[0, 0], 0)]
            assert linalg.ladder_spectrum(m) == linalg.ladder_spectrum(copy)

    @pytest.mark.parametrize("route", [lambda m: eigenspace(m, 3), linalg.ladder_spectrum, linalg.diagonal_spectrum],
                             ids=["eigenspace", "ladder_spectrum", "diagonal_spectrum"])
    def test_a_lowered_guard_refuses_a_hit_as_a_miss(self, monkeypatch, route):
        hit = evaluation_module(3, 2).A
        assert route(hit) == route(fresh(hit))
        miss = fresh(hit)
        monkeypatch.setattr(matrix, "DIM_GUARD", 3)
        refusals = [outcome(REFUSALS, route, m) for m in (hit, miss, hit)]
        assert refusals == [(DimensionGuardError, "matrix side 4 exceeds the dimension guard 3")] * 3
        monkeypatch.setattr(matrix, "DIM_GUARD", 4)
        assert route(hit) == route(miss)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: hstack(Matrix.zeros(2, 1), Matrix.zeros(1, 1)), (ValueError, "row count mismatch")),
        (lambda: hstack(), (ValueError, "hstack needs at least one matrix")),
        (lambda: is_diagonalizable_with(Matrix.zeros(2, 3), [0]),
         (ValueError, "diagonalizability requires a square matrix")),
        (lambda: determinant(Matrix.zeros(2, 3)), (ValueError, "determinant requires a square matrix")),
        (lambda: determinant(Matrix.zeros(0, 0)), 1),
        (lambda: annihilates(Matrix.zeros(2, 3), Matrix.zeros(2, 1), [(1, [0])]),
         (ValueError, "shape mismatch: 2x3 acting on 2x1")),
        (lambda: annihilates(Matrix.zeros(2, 2), Matrix.zeros(2, 2), [(1, [0])]),
         (ValueError, "block widths do not add up to the column count")),
        (lambda: minimal_polynomial(Matrix.zeros(2, 3)), (ValueError, "minimal polynomial requires a square matrix")),
        (lambda: minimal_polynomial(Matrix.zeros(0, 0)), (0, 1)),
        # trailing zero coefficients are no degree
        (lambda: rational_roots([-1, 1, 0]), {1: 1}),
        (lambda: rational_roots([5, 0]), (ValueError, "polynomial must have positive degree")),
    ],
    ids=["hstack", "hstack_empty", "diagonalizable", "determinant", "determinant_0x0", "annihilates_shape",
         "annihilates_widths", "minimal_polynomial", "minimal_polynomial_0x0", "rational_roots", "rational_roots_constant"],
)
def test_public_input_checks(call, expected):
    assert outcome(ValueError, call) == expected


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: Matrix.from_rows([[1, 2], [3]]), (ValueError, "ragged rows")),
        (lambda: Matrix.identity(2) * 1.5, (TypeError, "unsupported operand type(s) for *: 'Matrix' and 'float'")),
        (lambda: "x" * Matrix.identity(2), (TypeError, "can't multiply sequence by non-int of type 'Matrix'")),
    ],
    ids=["ragged", "times_float", "str_times"],
)
def test_matrix_input_checks(call, expected):
    assert outcome((ValueError, TypeError), call) == expected
