"""Differential tests of the exact linear algebra against SymPy.

Random rational matrices up to 5x5 go through tetrabox and through SymPy's
own exact routines, which share no code with the integer echelon here.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from tetrabox import (  # noqa: E402
    Matrix,
    Subspace,
    annihilates,
    determinant,
    eigenspace,
    hstack,
    intersect,
    inverse,
    kernel,
    minimal_polynomial,
    rational_roots,
    rref,
    subspace_sum,
)

from corpus import conjugated, grids  # noqa: E402

entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# many zero entries make rank deficiency and repeated eigenvalues common
sparse_entries = st.one_of(st.just(F(0)), entries)


@st.composite
def matrices(draw, max_dim=5, square=False, rows=None):
    rows = rows or draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    return draw(grids(rows, cols, sparse_entries))


@st.composite
def edge_matrices(draw, rows=None, cols=None):
    """Products (rows x k)(k x cols) with every size from 0 to 4: 0 rows,
    0 columns and rank below min(rows, cols) (k small) are all common."""
    rows = draw(st.integers(0, 4)) if rows is None else rows
    inner = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4)) if cols is None else cols
    return draw(grids(rows, inner, sparse_entries)) * draw(grids(inner, cols, sparse_entries))


edge_pairs = st.integers(0, 4).flatmap(lambda n: st.tuples(edge_matrices(rows=n), edge_matrices(rows=n)))


def to_sympy(m: Matrix):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.entries])


def to_fraction(x) -> F:
    x = sympy.Rational(x)
    return F(int(x.p), int(x.q))


def from_sympy(m) -> Matrix:
    return Matrix(m.rows, m.cols, tuple(to_fraction(x) for x in m))


def span(ambient: int, vectors) -> Subspace:
    """Canonical subspace spanned by SymPy column vectors."""
    if not vectors:
        return Subspace.zero(ambient)
    return Subspace.span_columns(from_sympy(sympy.Matrix.hstack(*vectors)))


def sympy_span_basis(ambient: int, vectors) -> Matrix:
    """The canonical basis of the span of SymPy column vectors, by SymPy
    alone: the nonzero rows of the rref of their transpose, as columns."""
    stacked = sympy.Matrix.hstack(sympy.zeros(ambient, 0), *vectors)
    reduced, pivots = stacked.T.rref()
    return from_sympy(reduced[: len(pivots), :].T)


def columns(m):
    return [m[:, j] for j in range(m.cols)]


def orthogonal_complement(ambient: int, vectors):
    if not vectors:
        return [sympy.eye(ambient)[:, j] for j in range(ambient)]
    return sympy.Matrix.hstack(*vectors).T.nullspace()


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rref_and_rank(m):
    reduced, pivots = to_sympy(m).rref()
    assert rref(m) == (from_sympy(reduced), len(pivots))


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_kernel(m):
    assert kernel(m) == span(m.cols, to_sympy(m).nullspace())


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(matrices(rows=n), matrices(rows=n))))
def test_intersect(pair):
    """The reference is the complement of the sum of the two complements,
    computed without the kernel of the stacked bases that intersect uses."""
    a, b = pair
    n = a.rows
    u = Subspace.span_columns(a)
    v = Subspace.span_columns(b)
    ua, vb = to_sympy(a), to_sympy(b)
    complements = orthogonal_complement(n, [ua[:, j] for j in range(ua.cols)]) + orthogonal_complement(
        n, [vb[:, j] for j in range(vb.cols)]
    )
    assert intersect(u, v) == span(n, orthogonal_complement(n, complements))


@settings(deadline=None, max_examples=60)
@given(matrices(square=True))
def test_determinant(m):
    assert determinant(m) == to_fraction(to_sympy(m).det())


@settings(deadline=None, max_examples=60)
@given(matrices(square=True))
def test_inverse(m):
    reference = to_sympy(m)
    if reference.det() == 0:
        with pytest.raises(ValueError):
            inverse(m)
    else:
        assert inverse(m) == from_sympy(reference.inv())


@settings(deadline=None, max_examples=60)
@given(matrices(square=True))
def test_minimal_polynomial(m):
    """The reference is the first k at which the flattened I, m, ..., m^k
    become dependent (SymPy rank); their null vector, made monic, gives the
    coefficients."""
    reference = to_sympy(m)
    n = m.rows
    powers = [sympy.eye(n).reshape(n * n, 1)]
    power = sympy.eye(n)
    while True:
        power = power * reference
        powers.append(power.reshape(n * n, 1))
        stacked = sympy.Matrix.hstack(*powers)
        if stacked.rank() < len(powers):
            break
    (null,) = stacked.nullspace()
    expected = tuple(to_fraction(c / null[-1]) for c in null)
    assert minimal_polynomial(m) == expected


@settings(deadline=None, max_examples=80)
@given(edge_matrices())
def test_rref_and_rank_at_the_edges(m):
    reduced, pivots = to_sympy(m).rref()
    assert rref(m) == (from_sympy(reduced), len(pivots))


@settings(deadline=None, max_examples=80)
@given(edge_matrices())
def test_span_columns(m):
    assert Subspace.span_columns(m).basis == sympy_span_basis(m.rows, columns(to_sympy(m)))


@settings(deadline=None, max_examples=80)
@given(edge_matrices())
def test_kernel_at_the_edges(m):
    assert kernel(m).basis == sympy_span_basis(m.cols, to_sympy(m).nullspace())


@settings(deadline=None, max_examples=80)
@given(edge_pairs)
def test_sum_and_containment(pair):
    a, b = pair
    u, v = Subspace.span_columns(a), Subspace.span_columns(b)
    sa, sb = to_sympy(a), to_sympy(b)
    rank_a = sa.rank()
    assert subspace_sum(u, v).basis == sympy_span_basis(a.rows, columns(sa) + columns(sb))
    assert u.contains(v) == (sympy.Matrix.hstack(sa, sb).rank() == rank_a)
    for j in range(b.cols):
        expected = sympy.Matrix.hstack(sa, sb[:, j]).rank() == rank_a
        assert u.contains(Subspace.span_columns(Matrix(a.rows, 1, b.col_list(j)))) == expected
    assert u.contains(Subspace.span_columns(Matrix(a.rows, 1, [F(0)] * a.rows)))


@settings(deadline=None, max_examples=80)
@given(edge_pairs)
def test_intersect_at_the_edges(pair):
    a, b = pair
    n = a.rows
    complements = orthogonal_complement(n, columns(to_sympy(a))) + orthogonal_complement(n, columns(to_sympy(b)))
    expected = sympy_span_basis(n, orthogonal_complement(n, complements))
    assert intersect(Subspace.span_columns(a), Subspace.span_columns(b)).basis == expected


# eigenvalues of the drawn x and candidate roots; two of them are not integers
ROOT_POOL = (F(0), F(1), F(-1), F(2), F(1, 2), F(-2, 3))


@st.composite
def annihilator_cases(draw):
    """A square x, and m as up to three blocks of columns, each with its
    own distinct roots from ROOT_POOL.

    Half the x are S T S^-1 with T upper triangular over ROOT_POOL, so
    repeated eigenvalues and Jordan blocks (non-diagonalizable x) are common;
    the rest are plain random. Half the blocks are combinations of vectors
    in the kernels of x - mu I, or of (x - mu I)^2, at their roots, plus
    perhaps one random column; the rest are random.
    """
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        eigenvalues = draw(st.lists(st.sampled_from(ROOT_POOL), min_size=n, max_size=n))
        triangular = [[eigenvalues[i] if i == j else draw(sparse_entries) if i < j else 0 for j in range(n)]
                      for i in range(n)]
        s = Matrix.from_rows([[1 if i == j else draw(sparse_entries) if i > j else 0 for j in range(n)]
                              for i in range(n)])
        s = s * s.transpose()  # unit lower times unit upper: invertible
        x = conjugated(Matrix.from_rows(triangular), s)
    else:
        x = draw(matrices(square=True, rows=n))
    xs = to_sympy(x)
    blocks, parts = [], []
    for _ in range(draw(st.integers(1, 3))):
        roots = draw(st.lists(st.sampled_from(ROOT_POOL), unique=True, max_size=3))
        width = draw(st.integers(0, 3))
        power = draw(st.sampled_from([1, 2]))
        vectors = [v for mu in roots for v in ((xs - mu * sympy.eye(n)) ** power).nullspace()]
        if vectors and draw(st.booleans()):
            part = from_sympy(sympy.Matrix.hstack(*vectors)) * draw(grids(len(vectors), width, sparse_entries))
            if draw(st.booleans()):
                part = hstack(part, draw(grids(n, 1, sparse_entries)))
        else:
            part = draw(grids(n, width, sparse_entries))
        blocks.append((part.cols, roots))
        parts.append(part)
    return x, hstack(*parts), blocks


@settings(deadline=None, max_examples=150)
@given(annihilator_cases())
def test_annihilates_against_sympy(case):
    """Each block's verdict equals SymPy's prod (x - mu I) block == 0, and
    equals the Bezout statement that the block's columns lie in the sum of
    SymPy's nullspaces of the x - mu I."""
    x, m, blocks = case
    n = x.rows
    xs, ms = to_sympy(x), to_sympy(m)
    killed, inside, lo = [], [], 0
    for width, roots in blocks:
        block = ms[:, lo : lo + width]
        lo += width
        product = sympy.eye(n)
        for mu in roots:
            product = (xs - mu * sympy.eye(n)) * product
        killed.append((product * block).is_zero_matrix)
        kernels = [v for mu in roots for v in (xs - mu * sympy.eye(n)).nullspace()]
        eigenvectors = sympy.Matrix.hstack(sympy.zeros(n, 0), *kernels)
        inside.append(sympy.Matrix.hstack(eigenvectors, block).rank() == eigenvectors.rank())
    assert annihilates(x, m, blocks) == killed == inside


# eigenvalues of none of the drawn matrices: two integers and a proper fraction
NON_EIGENVALUES = (F(3), F(-5, 2), F(1, 3))


@st.composite
def jordan_conjugates(draw):
    """S J S^-1 for a Jordan form J of size 1 to 5, its blocks of size 1 to
    3 at eigenvalues from ROOT_POOL (repeated eigenvalues and blocks above
    size 1, so non-diagonalizable matrices, are common), and S unit lower
    times unit upper triangular, so invertible."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda sizes: sum(sizes) <= 5))
    n = sum(sizes)
    jordan = [[F(0)] * n for _ in range(n)]
    at = 0
    for size in sizes:
        mu = draw(st.sampled_from(ROOT_POOL))
        for k in range(at, at + size):
            jordan[k][k] = mu
            if k + 1 < at + size:
                jordan[k][k + 1] = F(1)
        at += size
    s = Matrix.from_rows([[1 if i == j else draw(sparse_entries) if i > j else 0 for j in range(n)]
                          for i in range(n)])
    s = s * s.transpose()
    return conjugated(Matrix.from_rows(jordan), s)


@settings(deadline=None, max_examples=150)
@given(jordan_conjugates(), st.sampled_from(ROOT_POOL + NON_EIGENVALUES))
def test_eigenspace_against_sympy(x, lam):
    """The canonical basis of ker(x - lam I), from SymPy's nullspace."""
    n = x.rows
    shifted = to_sympy(x) - sympy.Rational(lam.numerator, lam.denominator) * sympy.eye(n)
    assert eigenspace(x, lam).basis == sympy_span_basis(n, shifted.nullspace())


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 4).flatmap(lambda n: edge_matrices(rows=n, cols=n)))
def test_inverse_at_the_edges(m):
    reference = to_sympy(m)
    if reference.rank() < m.rows:
        with pytest.raises(ValueError):
            inverse(m)
    else:
        assert inverse(m) == from_sympy(reference.inv())


# heights up to 10^30 over denominators up to 10^12, beside small roots that often repeat
root_heights = st.one_of(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                         st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**12)))


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.tuples(root_heights, st.integers(1, 3)), min_size=0, max_size=4),
    st.sampled_from([None, 2, 3, -1]),
    entries.filter(bool),
)
def test_rational_roots_against_sympy(roots, square, lead):
    # lead * prod (x - r)^k, times x^2 - square when one is drawn (irrational or complex roots)
    x = sympy.Symbol("x")
    expr = sympy.Rational(lead.numerator, lead.denominator) * (x**2 - square if square else 1)
    for r, k in roots:
        expr *= (x - sympy.Rational(r.numerator, r.denominator)) ** k
    poly = sympy.Poly(expr, x)
    if poly.degree() < 1:
        return
    found = rational_roots([to_fraction(c) for c in reversed(poly.all_coeffs())])
    expected = sympy.roots(poly)
    if all(r.is_rational for r in expected):
        assert found == {to_fraction(r): k for r, k in expected.items()}
        assert list(found) == sorted(found, reverse=True)
    else:
        assert found is None
