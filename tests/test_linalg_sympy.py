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
    determinant,
    intersect,
    inverse,
    kernel,
    minimal_polynomial,
    rref,
)

entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# many zero entries make rank deficiency and repeated eigenvalues common
sparse_entries = st.one_of(st.just(F(0)), entries)


@st.composite
def matrices(draw, max_dim=5, square=False, rows=None):
    rows = rows or draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    data = draw(st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Matrix.from_rows(data)


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
