from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tetrabox import (
    DimensionGuardError,
    Matrix,
    ModuleSpec,
    Subspace,
    build_from_spec,
    build_tetra_from_spec,
    commutator,
    determinant,
    eigenspace,
    hstack,
    intersect,
    inverse,
    is_diagonalizable_with,
    kernel,
    kron,
    kronecker_sum,
    minimal_polynomial,
    rational_roots,
    rref,
    subspace_sum,
)
from tetrabox import linalg

entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def matrices(draw, max_dim=4, square=False):
    rows = draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    data = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Matrix.from_rows(data)


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
        monkeypatch.setattr(linalg, "DIM_GUARD", 8)
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

    def grid(r, c):
        return Matrix(r, c, draw(st.lists(sparse_entries, min_size=r * c, max_size=r * c)))

    if draw(st.booleans()):
        return grid(rows, cols)
    inner = draw(st.integers(0, 3))
    return grid(rows, inner) * grid(inner, cols)


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
    small = st.integers(-2, 2)
    lower = [[draw(small) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[draw(small) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    s = Matrix.from_rows(lower) * Matrix.from_rows(upper)
    return s * Matrix.from_rows(t) * inverse(s)


class TestDiagonalSpectrum:
    @settings(deadline=None, max_examples=150)
    @given(conjugated_block_matrices())
    def test_against_the_minimal_polynomial_route(self, m):
        assert linalg.diagonal_spectrum(m) == reference_spectrum(m)

    @settings(deadline=None, max_examples=40)
    @given(matrices(square=True))
    def test_any_matrix(self, m):
        assert linalg.diagonal_spectrum(m) == reference_spectrum(m)

    def test_start_vector_is_an_eigenvector(self, monkeypatch):
        # the minimal polynomial of m on the start vector is x - 2: its one
        # eigenspace is a line, so the full minimal polynomial must decide
        n = 3
        columns = [linalg._krylov_start(n), [0, 1, 0], [0, 0, 1]]
        s = Matrix.from_rows(columns).transpose()
        m = s * Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]]) * inverse(s)
        calls = []
        real = linalg.minimal_polynomial
        monkeypatch.setattr(linalg, "minimal_polynomial", lambda x: calls.append(x) or real(x))
        spectrum = linalg.diagonal_spectrum(m)
        assert calls == [m]
        assert spectrum == reference_spectrum(m)
        assert spectrum[0] == (F(2), F(0), F(-2))
        assert spectrum[1][0] == Subspace.span_columns(Matrix.from_rows([columns[0]]).transpose())

    def test_jordan_block_behind_an_eigenvector(self, monkeypatch):
        # the start vector is an eigenvector of a matrix with a Jordan block:
        # the fallback's minimal polynomial has a double root
        n = 3
        columns = [linalg._krylov_start(n), [0, 1, 0], [0, 0, 1]]
        s = Matrix.from_rows(columns).transpose()
        m = s * Matrix.from_rows([[1, 0, 0], [0, 3, 1], [0, 0, 3]]) * inverse(s)
        calls = []
        real = linalg.minimal_polynomial
        monkeypatch.setattr(linalg, "minimal_polynomial", lambda x: calls.append(x) or real(x))
        assert linalg.diagonal_spectrum(m) is None
        assert calls == [m]

    def test_repeated_root_needs_no_fallback(self, monkeypatch):
        monkeypatch.setattr(linalg, "minimal_polynomial", None)
        assert linalg.diagonal_spectrum(Matrix.from_rows([[1, 1], [0, 1]])) is None
        assert linalg.diagonal_spectrum(Matrix.from_rows([[0, 2], [1, 0]])) is None  # x^2 - 2

    @settings(deadline=None, max_examples=100)
    @given(conjugated_block_matrices())
    def test_ladder_route_against_the_minimal_polynomial_route(self, m):
        expected = reference_spectrum(m)
        if expected is not None and any(a - b != 2 for a, b in zip(expected[0], expected[0][1:])):
            expected = None
        with mock.patch.object(linalg, "rational_roots", side_effect=AssertionError("divisor search")):
            assert linalg.ladder_spectrum(m) == expected

    def test_ladder_route_with_a_missed_rung(self, monkeypatch):
        # the start vector has no component at eigenvalue 0: mu_v = x^2 - 4 is
        # no ladder, so the minimal polynomial of m decides, by the ladder test
        n = 3
        columns = [[x - (i == 1) for i, x in enumerate(linalg._krylov_start(n))], [0, 0, 1], [0, 1, 0]]
        s = Matrix.from_rows(columns).transpose()
        m = s * Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]]) * inverse(s)
        assert linalg._krylov_polynomial(m) == (F(-4), F(0), F(1))
        expected = reference_spectrum(m)
        calls = []
        real = linalg.minimal_polynomial
        monkeypatch.setattr(linalg, "minimal_polynomial", lambda x: calls.append(x) or real(x))
        monkeypatch.setattr(linalg, "rational_roots", None)
        assert linalg.ladder_spectrum(m) == expected
        assert calls == [m]

    def test_ladder_route_refuses_large_entries_without_a_divisor_search(self, monkeypatch):
        # x^2 - (10^30 + 1): rational_roots would try about 10^15 divisors
        monkeypatch.setattr(linalg, "rational_roots", None)
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
