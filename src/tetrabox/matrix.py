"""Exact rational matrices and the dimension guard: what `tetrabox build` runs.

A matrix is stored as integer numerator rows over one positive common
denominator, reduced so that the denominator and all numerators have gcd 1.
That form is canonical, so two matrices are equal exactly when their stored
forms are, and every operation here (sums, scalar and matrix products,
transpose, Kronecker products, commutators) runs on the integers.
``fractions.Fraction`` objects are made only by the views that read single
entries out (``entries``, indexing, ``row_list``, ``col_list``,
``to_rows``); there are no tolerances anywhere.

`tetrabox build`, its refusals and `tetrabox classify` run only this: the
closed-form fold of onsager never eliminates. Every elimination (subspaces,
kernels, spectra, inverses) is linalg's, which re-exports the names here,
so a build process compiles none of it.

Every size bound in the package is the one constant DIM_GUARD, checked by
require_within_guard on the side of each problem: a matrix's larger side
here, a spec's module dimension and a Burnside closure's dim^2, each before
that problem is built.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from ._record import Record
from .errors import DimensionGuardError

DIM_GUARD = 4096  # read at call time, so a test can lower it


def require_within_guard(side: int, what: str) -> None:
    """Refuse a problem whose side (rows, dimension or unknowns) is above DIM_GUARD."""
    if side > DIM_GUARD:
        raise DimensionGuardError(f"{what} {side} exceeds the dimension guard {DIM_GUARD}")


def as_rational(value) -> int | Fraction:
    """An int or Fraction as it is; a string literal parsed to a Fraction.
    Every scalar the package takes is read here, so a float is refused
    (TypeError), never rounded to the binary fraction it stores."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _int_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], cols: int) -> list[list[int]]:
    """Product of integer matrices given as row lists; b has cols columns."""
    out = []
    for ai in a:
        row = [0] * cols
        for s, bk in zip(ai, b):
            if s:
                row = [x + s * y for x, y in zip(row, bk)]
        out.append(row)
    return out


class Matrix(Record):
    """Immutable dense rational matrix: integer numerator rows over one denominator.

    The stored form is _num, a tuple of rows of integers, and _den, a
    positive integer, with the matrix equal to _num / _den and gcd(_den, all
    numerators) = 1. The form is canonical, so == and hash compare it
    directly. Matrix(rows, cols, entries) takes row-major int, Fraction or
    string entries; entries and the other views give Fraction objects.
    """

    rows: int
    cols: int
    _num: tuple[tuple[int, ...], ...]
    _den: int
    _fields = ("rows", "cols", "_num", "_den")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        values = [as_rational(x) for x in entries]
        if len(values) != rows * cols:
            raise ValueError("entry count does not match matrix shape")
        den = lcm(*(x.denominator for x in values))
        flat = [x.numerator * (den // x.denominator) for x in values]
        self._store(rows, cols, [flat[i * cols : (i + 1) * cols] for i in range(rows)], den)

    @classmethod
    def _of(cls, rows: int, cols: int, num: Iterable[Sequence[int]], den: int) -> "Matrix":
        """The matrix num / den, for integer rows num and a positive integer den."""
        m = cls.__new__(cls)
        m._store(rows, cols, num, den)
        return m

    def _store(self, rows: int, cols: int, num: Iterable[Sequence[int]], den: int) -> None:
        num = tuple(map(tuple, num))
        g = gcd(den, *chain.from_iterable(num)) if den > 1 else 1
        if g > 1:
            num = tuple([tuple([x // g for x in row]) for row in num])
            den //= g
        for name, value in (("rows", rows), ("cols", cols), ("_num", num), ("_den", den)):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Validation shared by every constructor: the shape and the dimension guard."""
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        require_within_guard(max(self.rows, self.cols), "matrix side")

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "Matrix":
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, [x for row in data for x in row])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, ([int(i == j) for j in range(n)] for i in range(n)), 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, [[0] * cols] * rows, 1)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The row-major entries, each a Fraction in lowest terms."""
        den = self._den
        return tuple(Fraction(x, den) for row in self._num for x in row)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return Fraction(self._num[i][j], self._den)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def row_list(self, i: int) -> list[Fraction]:
        return [Fraction(x, self._den) for x in self._num[i]]

    def col_list(self, j: int) -> list[Fraction]:
        return [Fraction(row[j], self._den) for row in self._num]

    def to_rows(self) -> list[list[Fraction]]:
        return [self.row_list(i) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix._of(self.cols, self.rows, zip(*self._num) if self.rows else [()] * self.cols, self._den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, on the least common denominator."""
        self._require_same_shape(other)
        den = lcm(self._den, other._den)
        p, q = den // self._den, sign * (den // other._den)
        num = ([p * x + q * y for x, y in zip(r, s)] for r, s in zip(self._num, other._num))
        return Matrix._of(self.rows, self.cols, num, den)

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.rows, self.cols, ([-x for x in row] for row in self._num), self._den)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
            num = _int_matmul(self._num, other._num, other.cols)
            return Matrix._of(self.rows, other.cols, num, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            num = ([p * x for x in row] for row in self._num)
            return Matrix._of(self.rows, self.cols, num, self._den * other.denominator)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def _require_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """ab - ba for square matrices of one size, on the denominator of ab."""
    if not (a.is_square and b.is_square and a.rows == b.rows):
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    n = a.rows
    ab, ba = _int_matmul(a._num, b._num, n), _int_matmul(b._num, a._num, n)
    return Matrix._of(n, n, ([x - y for x, y in zip(p, q)] for p, q in zip(ab, ba)), a._den * b._den)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with row-major index convention."""
    num = ([x * y for x in ra for y in rb] for ra in a._num for rb in b._num)
    return Matrix._of(a.rows * b.rows, a.cols * b.cols, num, a._den * b._den)
