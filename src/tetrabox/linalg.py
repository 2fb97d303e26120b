"""Exact dense linear algebra over the rationals.

A matrix is stored as integer numerator rows over one positive common
denominator, reduced so that the denominator and all numerators have gcd 1.
That form is canonical, so two matrices are equal exactly when their stored
forms are, and every operation (sums, scalar and matrix products, transpose,
Kronecker products, stacking, commutators, inverses) runs on the integers.
``fractions.Fraction`` objects are made only by the views that read
single entries out (``entries``, indexing, ``row_list``, ``col_list``,
``to_rows``) and by the scalar results (determinant, minimal
polynomial); there are no tolerances anywhere. Subspaces are kept in a
canonical reduced column-echelon form, so two subspaces are equal as sets
exactly when their representations compare equal.

Exact elimination has one engine: the incremental integer echelon
``_Echelon``, which reads the stored integer rows or columns directly
(two-term integer row combinations, gcd-stripped after every update).
Subspaces go to it directly: a span, a sum or a membership test is the
echelon of integer basis columns (its rank, or its reduced rows as the
canonical basis). A kernel is one elimination of the matrix's rows with
their columns taken in reverse order: each reduced row then writes its
pivot unknown through free unknowns of smaller index, so the null vector of
each free unknown leads there and vanishes at the other free positions, and
these vectors are the canonical basis as they stand. An intersection reads
the dependencies between two bases off tails carried through the
elimination. The public rref,
inverses, the minimal polynomial and the spins and closures of ``classify``
use the same echelon; this is much faster than eliminating on Fraction
objects and gives the identical reduced echelon form. The determinant runs
Bareiss elimination on the same integer rows.

Whether vectors lie in a sum of eigenspaces of one matrix x needs no
elimination: for distinct mu_j the kernel of prod_j (x - mu_j I) is the
direct sum of the kernels of the factors, so annihilates decides it by
integer products with x alone, whether or not x is diagonalizable.

The spectrum of a matrix m that should be diagonalizable is read off one
pass, diagonal_spectrum: the minimal polynomial mu_v of m on one fixed
vector v (a Krylov sequence, an echelon n wide where minimal_polynomial
needs n^2) gives the candidate eigenvalues, a ladder c, c-2, ... without a
divisor search. mu_v divides the minimal polynomial of m, so a repeated or
irrational root refutes diagonalizability at once. Otherwise the
eigenspaces at the roots are independent, and when their dimensions add up
to n they are the certificate: m is diagonalizable with exactly those
eigenvalues, and the eigenspaces are returned for the caller to use. Only
when they fall short (v missed an eigenvalue, or m has a Jordan block) does
the minimal polynomial of m decide. Only a mu_v that is no ladder goes to
rational_roots, whose divisor search grows with the entries. The generators
of an Onsager module must have a ladder spectrum, and ladder_spectrum
reads theirs by the ladder test alone: a mu_v that is no ladder may have
missed a rung, so the minimal polynomial of m decides, by the same test.

Every size bound in the package is the one constant DIM_GUARD, checked by
require_within_guard on the side of each problem: a matrix's larger side
here, a spec's module dimension and a Burnside closure's dim^2, each before
that problem is built.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
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


def _as_rational(value) -> int | Fraction:
    """An int or Fraction as it is; a string literal parsed to a Fraction."""
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
        values = [_as_rational(x) for x in entries]
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


def hstack(*mats: Matrix) -> Matrix:
    """Concatenate matrices with equal row counts side by side."""
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch")
    den = lcm(*(m._den for m in mats))
    scaled = [[[x * (den // m._den) for x in row] for row in m._num] for m in mats]
    return Matrix._of(rows, sum(m.cols for m in mats), (chain(*parts) for parts in zip(*scaled)), den)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with row-major index convention."""
    num = ([x * y for x in ra for y in rb] for ra in a._num for rb in b._num)
    return Matrix._of(a.rows * b.rows, a.cols * b.cols, num, a._den * b._den)


# -- integer elimination core -------------------------------------------------

def _strip_gcd(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


class _Echelon:
    """Incremental integer echelon basis of a subspace of Q^n.

    Each row is gcd-stripped and keyed by the position of its leading
    entry, which is positive. Reductions are two-term integer combinations
    with gcd stripping, which realizes exact rational elimination without
    Fraction overhead. Vectors may be longer than n: only the first n
    positions are eliminated, and the tail is carried along, so a tail of
    unit vectors records which combination of the inputs a residual is.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: list[int]) -> tuple[int | None, list[int]]:
        """Eliminate the first n positions of vec against the basis.

        Returns the leading position of the residual, None when its first n
        entries all vanish, and the residual itself, tail included.
        """
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
            v = _strip_gcd([p * x - c * y for x, y in zip(v, row)])
        return None, v

    def add(self, vec: list[int]) -> bool:
        """Extend the span by vec; False when vec already lies in it."""
        lead, v = self.reduce(vec)
        if lead is None:
            return False
        v = _strip_gcd(v)
        if v[lead] < 0:
            v = [-x for x in v]
        self.rows[lead] = v
        return True

    def reduced_rows(self) -> tuple[list[list[int]], list[int]]:
        """Back-substituted basis rows in pivot order, and their pivots.

        Each returned row vanishes in every other row's pivot column, so
        dividing it by its pivot entry gives a row of the reduced echelon form.
        """
        pivots = sorted(self.rows)
        rows = [self.rows[c] for c in pivots]
        for k in range(len(pivots) - 1, -1, -1):
            c = pivots[k]
            rk = rows[k]
            p = rk[c]
            for i in range(k):
                ci = rows[i][c]
                if ci:
                    rows[i] = _strip_gcd([p * x - ci * y for x, y in zip(rows[i], rk)])
        return rows, pivots


def _echelon(n: int, vectors: Iterable[list[int]]) -> _Echelon:
    """The integer echelon of the vectors, eliminated on their first n positions."""
    echelon = _Echelon(n)
    for v in vectors:
        echelon.add(v)
    return echelon


def _integer_columns(m: Matrix) -> list[list[int]]:
    """The columns of den * m as integer vectors, read from the stored rows."""
    return [[row[j] for row in m._num] for j in range(m.cols)]


def _reduced_echelon(echelon: _Echelon, height: int = 0) -> tuple[Matrix, int]:
    """The reduced row-echelon form of the echelon's span, and its rank.

    Each back-substituted echelon row is divided by its pivot entry; zero
    rows pad the result to height rows. The echelon may go on taking vectors.
    """
    n = echelon.n
    rows, pivots = echelon.reduced_rows()
    den = lcm(*(row[c] for row, c in zip(rows, pivots)))
    num = [[x * (den // row[c]) for x in row] for row, c in zip(rows, pivots)]
    return Matrix._of(max(height, len(num)), n, num + [[0] * n] * (height - len(num)), den), len(num)


def _span(n: int, vectors: Iterable[list[int]]) -> Subspace:
    """The canonical subspace of Q^n spanned by integer vectors of length n.

    Its basis columns are the rows of the reduced echelon form of the vectors.
    """
    return Subspace(n, _reduced_echelon(_echelon(n, vectors))[0].transpose())


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank, computed exactly."""
    return _reduced_echelon(_echelon(m.cols, m._num), m.rows)


class Subspace(Record):
    """Subspace of Q^n given by a canonical column-echelon basis matrix.

    Canonical form: the basis columns are the nonzero rows of the reduced
    row-echelon form of the transposed spanning matrix, so equal subspaces
    have identical representations.
    """

    ambient_dim: int
    basis: Matrix
    _fields = ("ambient_dim", "basis")

    # its own positional __init__, as Matrix has: a lib-grid pass builds about
    # a thousand subspaces, and Record's generic one costs more per call
    def __init__(self, ambient_dim: int, basis: Matrix):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        if basis.rows != ambient_dim:
            raise ValueError("basis rows must match ambient dimension")

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.zeros(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @classmethod
    def span_columns(cls, mat: Matrix) -> "Subspace":
        """Subspace spanned by the columns of ``mat``, canonicalized."""
        return _span(mat.rows, _integer_columns(mat))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def basis_columns(self) -> list[list[Fraction]]:
        return [self.basis.col_list(j) for j in range(self.dim)]

    def contains(self, other: "Subspace") -> bool:
        self._require_same_ambient(other)
        columns = _integer_columns(self.basis) + _integer_columns(other.basis)
        return len(_echelon(self.ambient_dim, columns)) == self.dim

    def _require_same_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


def _kernel(width: int, rows: Iterable[Sequence[int]]) -> Subspace:
    """Null space of the integer matrix with the given rows of length width.

    The rows are reduced with their columns in reverse order, so a reduced
    row with its pivot at unknown p reads that unknown off free unknowns of
    smaller index only. The null vector that sets free unknown f to 1 and the
    other free unknowns to 0 then leads at f and vanishes at every other free
    position: these vectors are the canonical basis, read off directly.
    """
    last = width - 1
    reduced, pivots = _echelon(width, (list(row[::-1]) for row in rows)).reduced_rows()
    bound = {last - c: row for row, c in zip(reduced, pivots)}  # pivot unknown -> its reversed row
    free = [j for j in range(width) if j not in bound]
    den = lcm(*(row[c] for row, c in zip(reduced, pivots)))
    basis = []
    for j in range(width):
        row = bound.get(j)
        if row is None:
            basis.append([den if f == j else 0 for f in free])
        else:
            scale = den // row[last - j]
            basis.append([-scale * row[last - f] for f in free])
    return Subspace(width, Matrix._of(width, len(free), basis, den))


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the null space of ``m``."""
    return _kernel(m.cols, m._num)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    """Canonical basis of u + v."""
    u._require_same_ambient(v)
    return _span(u.ambient_dim, _integer_columns(u.basis) + _integer_columns(v.basis))


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Canonical basis of u ∩ v (Zassenhaus).

    A dependency sum_i a_i u_i + sum_j b_j v_j = 0 between the two bases
    gives the common vector sum_i a_i u_i, and every common vector arises
    so. Each u_i carries itself as its tail and each v_j a zero tail; the
    u_i are independent, so the v_j that reduce to zero leave a basis of the
    dependencies, and their tails span u ∩ v.
    """
    u._require_same_ambient(v)
    n = u.ambient_dim
    echelon = _echelon(n, (column + column for column in _integer_columns(u.basis)))
    common = []
    for column in _integer_columns(v.basis):
        lead, residual = echelon.reduce(column + [0] * n)
        if lead is None:
            common.append(residual[n:])
        else:
            echelon.add(residual)
    return _span(n, common)


def eigenspace(m: Matrix, lam) -> Subspace:
    """All vectors v with m v = lam v; zero subspace when lam is not an eigenvalue."""
    if not m.is_square:
        raise ValueError("eigenspace requires a square matrix")
    lam = Fraction(lam)
    # q den (m - lam I) with lam = p/q: the rows of q * num, less p * den on the diagonal
    q, shift = lam.denominator, lam.numerator * m._den
    rows = [[q * x for x in row] for row in m._num]
    for i, row in enumerate(rows):
        row[i] -= shift
    return _kernel(m.cols, rows)


def is_diagonalizable_with(m: Matrix, eigenvalues: Sequence) -> bool:
    """True iff the eigenspaces of the listed eigenvalues fill the whole space."""
    if not m.is_square:
        raise ValueError("diagonalizability requires a square matrix")
    vals = [Fraction(x) for x in eigenvalues]
    if len(set(vals)) != len(vals):
        raise ValueError("eigenvalues must be distinct")
    total = sum(eigenspace(m, lam).dim for lam in vals)
    return total == m.rows


def determinant(m: Matrix) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    rows, scale = list(m._num), m._den  # det m = det(rows) / scale^n
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pr is None:
                return Fraction(0)
            rows[k], rows[pr] = rows[pr], rows[k]
            sign = -sign
        pk = rows[k][k]
        for i in range(k + 1, n):
            ri, rk_ = rows[i], rows[k]
            ci = ri[k]
            rows[i] = [(pk * ri[j] - ci * rk_[j]) // prev for j in range(n)]
        prev = pk
    return Fraction(sign * rows[n - 1][n - 1], scale**n)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises ValueError on singular input.

    With m = num / den, [m | I] is reduced as the integer rows [num | den I],
    and reduced row i reads r_i e_i in front and r_i times row i of m^-1
    behind; the inverse is those tails over the lcm of the r_i.
    """
    if not m.is_square:
        raise ValueError("inverse requires a square matrix")
    n = m.rows
    augmented = (list(row) + [m._den if i == j else 0 for j in range(n)] for i, row in enumerate(m._num))
    echelon = _echelon(n, augmented)
    if len(echelon) < n:
        raise ValueError("matrix is singular")
    return _tails(echelon, n)


def _tails(echelon: _Echelon, n: int) -> Matrix:
    """The n x n matrix T of an echelon of n rows of length 2n with pivots
    0..n-1: reduced row i is r_i (e_i, t_i), and t_i is row i of T."""
    reduced, _ = echelon.reduced_rows()
    s = lcm(*(row[i] for i, row in enumerate(reduced)))
    return Matrix._of(n, n, ([x * (s // row[i]) for x in row[n:]] for i, row in enumerate(reduced)), s)


def annihilates(x: Matrix, m: Matrix, blocks: Sequence[tuple[int, Sequence]]) -> list[bool]:
    """For each block (width, roots) of consecutive columns of m, left to
    right: is the product of (x - mu I) over mu in roots zero on that block?

    For distinct roots the product is squarefree, so by Bezout its kernel is
    the direct sum of the eigenspaces ker(x - mu I), for any square x: this
    decides whether the block lies in the sum of those eigenspaces, with no
    eigenbasis, completion or inverse; with no roots the block must vanish.
    On the stored integer rows, with x = X / den and a root mu = p / q, a
    factor maps an integer column y to q (X y) - p den y, a nonzero multiple
    of (x - mu I) y. The k-th factors of all blocks take one product with X,
    on the columns that still have a k-th root; the others stay as they are.
    """
    if not x.is_square or x.cols != m.rows:
        raise ValueError(f"shape mismatch: {x.rows}x{x.cols} acting on {m.rows}x{m.cols}")
    if sum(width for width, _ in blocks) != m.cols:
        raise ValueError("block widths do not add up to the column count")
    column_roots = [[_as_rational(mu) for mu in roots] for width, roots in blocks for _ in range(width)]
    y = [list(row) for row in m._num]
    for k in range(max(map(len, column_roots), default=0)):
        if not any(map(any, y)):
            break
        # the columns with a k-th root p/q, and (q, p den) for each
        live = [j for j, mu in enumerate(column_roots) if k < len(mu)]
        scales = [(column_roots[j][k].denominator, column_roots[j][k].numerator * x._den) for j in live]
        xy = _int_matmul(x._num, [[row[j] for j in live] for row in y], len(live))
        for row, products in zip(y, xy):
            for j, (q, s), a in zip(live, scales, products):
                row[j] = q * a - s * row[j]
    verdicts, lo = [], 0
    for width, _ in blocks:
        verdicts.append(not any(any(row[lo : lo + width]) for row in y))
        lo += width
    return verdicts


def _first_dependence(m: Matrix, width: int, powers: Iterator[list[int]]) -> tuple[Fraction, ...]:
    """Monic coefficients, constant term first, of the first linear dependence
    among the vectors M^0 s, M^1 s, ... of length width, for the integer
    matrix M = scale * m acting on some start s.

    Each vector, followed by the unit tail e_k, is reduced in one echelon,
    and the first residual whose leading width entries vanish carries
    sum_j b_j M^j s = 0 in its tail, so sum_j b_j scale^j m^j s = 0. Its
    degree is at most n, the side of m.
    """
    n, scale = m.rows, m._den
    echelon = _Echelon(width)
    for k, vector in zip(range(n + 1), powers):
        tail = [0] * (n + 1)
        tail[k] = 1
        lead, residual = echelon.reduce(vector + tail)
        if lead is None:
            coeffs = [b * scale**j for j, b in enumerate(residual[width : width + k + 1])]
            return tuple(Fraction(c, coeffs[k]) for c in coeffs)
        echelon.add(residual)
    raise RuntimeError("minimal polynomial search did not terminate")  # degree <= n


def minimal_polynomial(m: Matrix) -> tuple[Fraction, ...]:
    """Monic minimal polynomial coefficients, constant term first.

    The first linear dependence among the flattened powers I, M, M^2, ... of
    M = scale * m, an echelon n^2 wide. M^(k+1) is formed as M M^k, which
    equals M^k M and skips the zeros of the sparse M.
    """
    if not m.is_square:
        raise ValueError("minimal polynomial requires a square matrix")
    n = m.rows
    if n == 0:
        return (Fraction(0), Fraction(1))
    a = m._num

    def powers():
        power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        while True:
            yield [x for row in power for x in row]
            power = _int_matmul(a, power, n)

    return _first_dependence(m, n * n, powers())


def _krylov_start(n: int) -> list[int]:
    """A fixed integer vector with no symmetry. (With modulus 13 it would
    start 1, 3, 5, 7, which misses the eigenvalue -2 of A on every (1, a)(1, b).)"""
    return [1 + (7919 * i) % 101 for i in range(n)]


def _krylov_polynomial(m: Matrix) -> tuple[Fraction, ...]:
    """The minimal polynomial of m on the start vector s, which divides that
    of m: the first linear dependence among s, M s, M^2 s, ..., n wide."""
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in m._num]

    def powers():
        vector = _krylov_start(m.rows)
        while True:
            yield vector
            vector = [sum(x * vector[j] for j, x in row) for row in rows]

    return _first_dependence(m, m.rows, powers())


def _ladder_top(poly: Sequence[Fraction]) -> Fraction | None:
    """The top root c when the monic poly is prod_{i=0}^{d} (x - c + 2i), of
    degree d + 1; else None.

    The degree gives d and the sum of the roots, (d + 1)(c - d), gives c;
    the product of the d + 1 linear factors is then compared with poly.
    """
    d = len(poly) - 2
    c = Fraction(-poly[d], d + 1) + d
    expected = [Fraction(1)]
    for i in range(d + 1):
        lam = c - 2 * i
        expected = [Fraction(0)] + expected
        for k in range(len(expected) - 1):
            expected[k] = expected[k] - lam * expected[k + 1]
    return c if tuple(expected) == tuple(poly) else None


def _ladder_roots(poly: Sequence[Fraction]) -> list[Fraction] | None:
    """The roots c, c-2, ... of poly in descending order when it is a ladder
    (_ladder_top), else None."""
    c = _ladder_top(poly)
    return None if c is None else [c - 2 * i for i in range(len(poly) - 1)]


def _distinct_roots(poly: Sequence[Fraction]) -> list[Fraction] | None:
    """The roots of poly in descending order when they are rational and
    simple, else None. A ladder c, c-2, ... is read off without a divisor search."""
    roots = _ladder_roots(poly)
    if roots is not None:
        return roots
    roots = rational_roots(poly)
    if roots is None or any(mult > 1 for mult in roots.values()):
        return None
    return sorted(roots, reverse=True)


def _certified_spectrum(
    m: Matrix, roots: Sequence[Fraction], read_roots: Callable[[Sequence[Fraction]], list[Fraction] | None]
) -> tuple[tuple[Fraction, ...], tuple[Subspace, ...]] | None:
    """The candidate roots with their eigenspaces when those fill the space;
    otherwise read_roots on the minimal polynomial of m decides, reusing the
    eigenspaces already found, and None is its refutation."""
    spaces = {lam: eigenspace(m, lam) for lam in roots}
    if sum(space.dim for space in spaces.values()) < m.rows:
        roots = read_roots(minimal_polynomial(m))
        if roots is None:
            return None
        spaces = {lam: spaces[lam] if lam in spaces else eigenspace(m, lam) for lam in roots}
    return tuple(roots), tuple(spaces[lam] for lam in roots)


def diagonal_spectrum(m: Matrix) -> tuple[tuple[Fraction, ...], tuple[Subspace, ...]] | None:
    """The distinct eigenvalues of m in descending order and their
    eigenspaces, when m is diagonalizable over Q; None otherwise.

    Candidates are the roots of mu_v, the minimal polynomial of m on one
    vector; their eigenspaces certify them when their dimensions add up to
    n (see the module docstring). Only a shortfall runs the minimal
    polynomial of m, and the eigenspaces already found are kept.
    """
    if not m.is_square:
        raise ValueError("a spectrum requires a square matrix")
    if m.rows == 0:
        return (), ()
    roots = _distinct_roots(_krylov_polynomial(m))
    return None if roots is None else _certified_spectrum(m, roots, _distinct_roots)


def ladder_spectrum(m: Matrix) -> tuple[tuple[Fraction, ...], tuple[Subspace, ...]] | None:
    """The eigenvalues c, c-2, ..., c-2d of m and its eigenspaces at them,
    when m is diagonalizable with such a spectrum; None otherwise.

    As diagonal_spectrum, but only the ladder test reads roots: a mu_v that
    is no ladder may still miss an eigenvalue of a ladder, so the minimal
    polynomial of m decides, and neither polynomial reaches the divisor
    search of rational_roots, whose length grows with the entries.
    """
    if not m.is_square or m.rows == 0:
        raise ValueError("a ladder spectrum requires a nonempty square matrix")
    return _certified_spectrum(m, _ladder_roots(_krylov_polynomial(m)) or [], _ladder_roots)


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


def _eval_poly(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_roots(coeffs: Sequence[Fraction]) -> dict[Fraction, int] | None:
    """Roots (with multiplicity) of a polynomial, if they are all rational.

    Returns None when the polynomial does not split into rational linear
    factors. Coefficients are constant term first.
    """
    poly = [Fraction(c) for c in coeffs]
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
