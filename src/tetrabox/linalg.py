"""Exact dense linear algebra over the rationals.

Matrices store ``fractions.Fraction`` entries and every operation is exact;
there are no tolerances anywhere. Subspaces are kept in a canonical reduced
column-echelon form, so two subspaces are equal as sets exactly when their
representations compare equal.

Row reduction is done fraction-free on integer rows (each row scaled by the
lcm of its denominators, gcd-stripped after every update) and converted back
to rationals at the end; this is much faster than eliminating on Fraction
objects and produces the identical reduced echelon form.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionGuardError

DEFAULT_DIM_GUARD = 4096

Scalar = Fraction


def dim_guard() -> int:
    """Current matrix-size guard; TETRABOX_DIM_GUARD overrides the default."""
    raw = os.environ.get("TETRABOX_DIM_GUARD")
    if raw is None:
        return DEFAULT_DIM_GUARD
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TETRABOX_DIM_GUARD must be an integer, got {raw!r}") from None


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with row-major rational entries."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        guard = dim_guard()
        if self.rows > guard or self.cols > guard:
            raise DimensionGuardError(
                f"matrix size {self.rows}x{self.cols} exceeds the dimension "
                f"guard {guard} (set TETRABOX_DIM_GUARD to raise it)"
            )
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match matrix shape")

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "Matrix":
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        flat = []
        for row in data:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(_as_fraction(x) for x in row)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i * self.cols + j]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def row_list(self, i: int) -> list[Fraction]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def col_list(self, j: int) -> list[Fraction]:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self) -> list[list[Fraction]]:
        return [self.row_list(i) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        e = self.entries
        c = self.cols
        return Matrix(c, self.rows, tuple(e[i * c + j] for j in range(c) for i in range(self.rows)))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        if isinstance(other, (int, Fraction)):
            s = _as_fraction(other)
            return Matrix(self.rows, self.cols, tuple(a * s for a in self.entries))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def _matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        zero = Fraction(0)
        out = [zero] * (n * m)
        for i in range(n):
            base = i * k
            obase = i * m
            for l in range(k):
                s = a[base + l]
                if s:
                    bbase = l * m
                    for j in range(m):
                        t = b[bbase + j]
                        if t:
                            out[obase + j] += s * t
        return Matrix(n, m, tuple(out))

    def apply(self, vector: Sequence[Fraction]) -> list[Fraction]:
        """Matrix-vector product."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        e = self.entries
        out = []
        for i in range(self.rows):
            base = i * self.cols
            s = Fraction(0)
            for j, x in enumerate(vector):
                if x:
                    s += e[base + j] * x
            out.append(s)
        return out

    def _require_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


def hstack(*mats: Matrix) -> Matrix:
    """Concatenate matrices with equal row counts side by side."""
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch")
    out_rows = []
    for i in range(rows):
        row: list[Fraction] = []
        for m in mats:
            row.extend(m.row_list(i))
        out_rows.append(row)
    total_cols = sum(m.cols for m in mats)
    return Matrix(rows, total_cols, tuple(x for row in out_rows for x in row))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with row-major index convention."""
    n = a.rows * b.rows
    m = a.cols * b.cols
    out = [Fraction(0)] * (n * m)
    for i1 in range(a.rows):
        for j1 in range(a.cols):
            s = a[i1, j1]
            if not s:
                continue
            for i2 in range(b.rows):
                base = (i1 * b.rows + i2) * m + j1 * b.cols
                for j2 in range(b.cols):
                    t = b[i2, j2]
                    if t:
                        out[base + j2] = s * t
    return Matrix(n, m, tuple(out))


# -- integer elimination core -------------------------------------------------

def _strip_gcd(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return row
    if g > 1:
        return [x // g for x in row]
    return row


def _integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Scale each row to integers and strip its content.

    Row scaling leaves the row space, the rank and the kernel unchanged.
    """
    out = []
    for row in rows:
        denom = 1
        for x in row:
            denom = lcm(denom, x.denominator)
        out.append(_strip_gcd([int(x * denom) for x in row]))
    return out


def _rref_int(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon; returns rows and pivot columns.

    The returned pivot rows are integral and gcd-stripped; dividing each by
    its pivot entry yields the rational reduced row echelon form.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        for i in range(r + 1, nrows):
            ci = rows[i][c]
            if ci:
                ri, rr = rows[i], rows[r]
                rows[i] = _strip_gcd([p * x - ci * y for x, y in zip(ri, rr)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        p = rows[k][c]
        for i in range(k):
            ci = rows[i][c]
            if ci:
                ri, rk = rows[i], rows[k]
                rows[i] = _strip_gcd([p * x - ci * y for x, y in zip(ri, rk)])
    return rows, pivots


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank, computed exactly."""
    if m.rows == 0 or m.cols == 0:
        return m, 0
    rows, pivots = _rref_int(_integer_rows(m.to_rows()), m.cols)
    out: list[Fraction] = []
    for k, c in enumerate(pivots):
        p = rows[k][c]
        out.extend(Fraction(x, p) for x in rows[k])
    zero_fill = (Fraction(0),) * ((m.rows - len(pivots)) * m.cols)
    return Matrix(m.rows, m.cols, tuple(out) + zero_fill), len(pivots)


def _pivot_columns(reduced: Matrix, rank: int) -> list[int]:
    pivots = []
    for i in range(rank):
        row = reduced.row_list(i)
        pivots.append(next(j for j, x in enumerate(row) if x))
    return pivots


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n given by a canonical column-echelon basis matrix.

    Canonical form: the basis columns are the nonzero rows of the reduced
    row-echelon form of the transposed spanning matrix, so equal subspaces
    have identical representations.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
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
        if mat.cols == 0:
            return cls.zero(mat.rows)
        reduced, rank = rref(mat.transpose())
        if rank == 0:
            return cls.zero(mat.rows)
        cols = [reduced.row_list(i) for i in range(rank)]
        basis = Matrix(mat.rows, rank, tuple(cols[k][i] for i in range(mat.rows) for k in range(rank)))
        return cls(mat.rows, basis)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def basis_columns(self) -> list[list[Fraction]]:
        return [self.basis.col_list(j) for j in range(self.dim)]

    def contains_vector(self, vector: Sequence[Fraction]) -> bool:
        if len(vector) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if all(x == 0 for x in vector):
            return True
        if self.dim == 0:
            return False
        stacked = hstack(self.basis, Matrix(self.ambient_dim, 1, tuple(_as_fraction(x) for x in vector)))
        return rref(stacked)[1] == self.dim

    def contains(self, other: "Subspace") -> bool:
        self._require_same_ambient(other)
        if other.dim == 0:
            return True
        if other.dim > self.dim:
            return False
        return rref(hstack(self.basis, other.basis))[1] == self.dim

    def _require_same_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the null space of ``m``."""
    if m.cols == 0:
        return Subspace.zero(0)
    reduced, rank = rref(m)
    pivots = _pivot_columns(reduced, rank)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    if not free:
        return Subspace.zero(m.cols)
    cols = []
    for j in free:
        v = [Fraction(0)] * m.cols
        v[j] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -reduced[k, j]
        cols.append(v)
    span = Matrix(m.cols, len(cols), tuple(cols[k][i] for i in range(m.cols) for k in range(len(cols))))
    return Subspace.span_columns(span)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    """Canonical basis of u + v."""
    u._require_same_ambient(v)
    if u.dim == 0:
        return v
    if v.dim == 0:
        return u
    return Subspace.span_columns(hstack(u.basis, v.basis))


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Canonical basis of u ∩ v, via the kernel of the stacked basis system."""
    u._require_same_ambient(v)
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim)
    stacked = hstack(u.basis, v.basis)
    null = kernel(stacked)
    if null.is_zero():
        return Subspace.zero(u.ambient_dim)
    cols = []
    for coeffs in null.basis_columns():
        cols.append(u.basis.apply(coeffs[: u.dim]))
    span = Matrix(u.ambient_dim, len(cols), tuple(cols[k][i] for i in range(u.ambient_dim) for k in range(len(cols))))
    return Subspace.span_columns(span)


def eigenspace(m: Matrix, lam) -> Subspace:
    """All vectors v with m v = lam v; zero subspace when lam is not an eigenvalue."""
    if not m.is_square:
        raise ValueError("eigenspace requires a square matrix")
    lam = _as_fraction(lam)
    return kernel(m - lam * Matrix.identity(m.rows))


def is_diagonalizable_with(m: Matrix, eigenvalues: Sequence) -> bool:
    """True iff the eigenspaces of the listed eigenvalues fill the whole space."""
    if not m.is_square:
        raise ValueError("diagonalizability requires a square matrix")
    vals = [_as_fraction(x) for x in eigenvalues]
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
    rows = []
    scale = 1
    for row in m.to_rows():
        denom = 1
        for x in row:
            denom = lcm(denom, x.denominator)
        scale *= denom
        rows.append([int(x * denom) for x in row])
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
    return Fraction(sign * rows[n - 1][n - 1], scale)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises ValueError on singular input."""
    if not m.is_square:
        raise ValueError("inverse requires a square matrix")
    n = m.rows
    reduced, rank = rref(hstack(m, Matrix.identity(n)))
    if rank < n or _pivot_columns(reduced, rank) != list(range(n)):
        raise ValueError("matrix is singular")
    out = []
    for i in range(n):
        out.extend(reduced.row_list(i)[n:])
    return Matrix(n, n, tuple(out))


def minimal_polynomial(m: Matrix) -> tuple[Fraction, ...]:
    """Monic minimal polynomial coefficients, constant term first.

    Found as the first linear dependence among I, m, m^2, ... with the
    dependence coefficients tracked through an incremental echelon basis.
    """
    if not m.is_square:
        raise ValueError("minimal polynomial requires a square matrix")
    n = m.rows
    if n == 0:
        return (Fraction(0), Fraction(1))
    nn = n * n
    echelon: dict[int, tuple[list[Fraction], list[Fraction]]] = {}
    power = Matrix.identity(n)
    k = 0
    while True:
        vec = list(power.entries)
        coeffs = [Fraction(0)] * k + [Fraction(1)]
        for pos in range(nn):
            c = vec[pos]
            if not c:
                continue
            hit = echelon.get(pos)
            if hit is None:
                inv = 1 / c
                echelon[pos] = ([x * inv for x in vec], [x * inv for x in coeffs])
                break
            row, row_coeffs = hit
            vec = [x - c * y for x, y in zip(vec, row)]
            for idx, y in enumerate(row_coeffs):
                coeffs[idx] -= c * y
        else:
            return tuple(coeffs)
        if k > n:  # cannot happen: the minimal polynomial has degree <= n
            raise RuntimeError("minimal polynomial search did not terminate")
        power = power * m
        k += 1


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
    poly = [_as_fraction(c) for c in coeffs]
    while poly and poly[-1] == 0:
        poly.pop()
    if len(poly) <= 1:
        raise ValueError("polynomial must have positive degree")
    roots: dict[Fraction, int] = {}
    while len(poly) > 1:
        denom = 1
        for c in poly:
            denom = lcm(denom, c.denominator)
        ints = [int(c * denom) for c in poly]
        root = None
        if ints[0] == 0:
            root = Fraction(0)
        else:
            found = False
            for p in _divisors(ints[0]):
                for q in _divisors(ints[-1]):
                    if gcd(p, q) != 1:
                        continue
                    for cand in (Fraction(p, q), Fraction(-p, q)):
                        if _eval_poly(poly, cand) == 0:
                            root = cand
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            if not found:
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
