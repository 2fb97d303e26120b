"""Exact dense linear algebra over the rationals.

Matrices store ``fractions.Fraction`` entries and every operation is exact;
there are no tolerances anywhere. Subspaces are kept in a canonical reduced
column-echelon form, so two subspaces are equal as sets exactly when their
representations compare equal.

Exact elimination has one engine and one conversion. A matrix becomes
integer rows once, with one common scale (``_integerized``), and every
elimination runs in the incremental integer echelon ``_Echelon``: two-term
integer row combinations, gcd-stripped after every update, converted back to
rationals only at the end. Subspaces go to it directly: a span, a sum or a
membership test is the echelon of integer basis columns (its rank, or its
reduced rows as the canonical basis), and a kernel or an intersection reads
the dependencies among columns off tails carried through the elimination.
The public rref, inverses, the minimal polynomial and the spins and closures
of ``classify`` use the same echelon; this is much faster than eliminating
on Fraction objects and gives the identical reduced echelon form. The
determinant runs Bareiss elimination on the same integer rows.
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


def _common_scale_rows(mats: Sequence[Matrix]) -> tuple[list[list[list[int]]], int]:
    """Integer rows of D * m for every m, with D the least common denominator
    of all their entries; each m is recovered as its rows / D."""
    denom = lcm(*{x.denominator for m in mats for x in m.entries})
    return [[[x.numerator * (denom // x.denominator) for x in m.row_list(i)] for i in range(m.rows)]
            for m in mats], denom


def _scaled_matrix(rows: list[list[int]], scale: int, cols: int) -> Matrix:
    """The rational matrix rows / scale, with cols columns."""
    return Matrix(len(rows), cols, tuple(Fraction(v, scale) for row in rows for v in row))


def _integerized(m: Matrix) -> tuple[list[list[int]], Fraction]:
    """Integer rows of scale * m with one global scale, content stripped.

    scale is positive; m is recovered as rows / scale.
    """
    (rows,), denom = _common_scale_rows([m])
    g = 0
    for row in rows:
        for x in row:
            g = gcd(g, x)
    if g > 1:
        rows = [[x // g for x in row] for row in rows]
    return rows, Fraction(denom, max(g, 1))


def _int_matmul(a: list[list[int]], b: list[list[int]], cols: int) -> list[list[int]]:
    """Product of integer matrices given as row lists; b has cols columns."""
    out = []
    for ai in a:
        row = [0] * cols
        for s, bk in zip(ai, b):
            if s:
                row = [x + s * y for x, y in zip(row, bk)]
        out.append(row)
    return out


def _int_commutator(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """ab - ba for square integer matrices given as row lists."""
    n = len(a)
    return [[x - y for x, y in zip(p, q)] for p, q in zip(_int_matmul(a, b, n), _int_matmul(b, a, n))]


def _is_zero_rows(rows: list[list[int]]) -> bool:
    return not any(any(row) for row in rows)


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
    """The columns of scale * m as integer vectors, on _integerized's one scale."""
    rows = _integerized(m)[0]
    return [[row[j] for row in rows] for j in range(m.cols)]


def _span(n: int, vectors: Iterable[list[int]]) -> Subspace:
    """The canonical subspace of Q^n spanned by integer vectors of length n.

    Its basis columns are the rows of the reduced echelon form of the
    vectors, each divided by its pivot entry.
    """
    rows, pivots = _echelon(n, vectors).reduced_rows()
    entries = tuple(Fraction(row[i], row[c]) for i in range(n) for row, c in zip(rows, pivots))
    return Subspace(n, Matrix(n, len(rows), entries))


def _dependencies(n: int, heads: Sequence[list[int]], tails: Sequence[list[int]]) -> list[list[int]]:
    """Tails of the vanishing combinations of the heads, one per dependent head.

    Each head (length n) is reduced with its tail in one echelon. When head
    j reduces to zero, the residual is a combination sum_i c_i heads[i] = 0
    with c_j != 0 and c_i = 0 for i > j, and its tail is sum_i c_i tails[i].
    These combinations are a basis of all vanishing ones, so the tails span
    their image: with unit tails, the dependencies among the heads.
    """
    echelon = _Echelon(n)
    found = []
    for head, tail in zip(heads, tails):
        lead, residual = echelon.reduce(head + tail)
        if lead is None:
            found.append(residual[n:])
        else:
            echelon.add(residual)
    return found


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank, computed exactly."""
    rows, pivots = _echelon(m.cols, _integerized(m)[0]).reduced_rows()
    out = tuple(Fraction(x, row[c]) for row, c in zip(rows, pivots) for x in row)
    zero_fill = (Fraction(0),) * ((m.rows - len(pivots)) * m.cols)
    return Matrix(m.rows, m.cols, out + zero_fill), len(pivots)


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
        return _span(mat.rows, _integer_columns(mat))

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
        (column,) = _integer_columns(Matrix(self.ambient_dim, 1, tuple(_as_fraction(x) for x in vector)))
        return len(_echelon(self.ambient_dim, _integer_columns(self.basis) + [column])) == self.dim

    def contains(self, other: "Subspace") -> bool:
        self._require_same_ambient(other)
        columns = _integer_columns(self.basis) + _integer_columns(other.basis)
        return len(_echelon(self.ambient_dim, columns)) == self.dim

    def _require_same_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the null space of ``m``: the dependencies among its columns."""
    units = [[int(i == j) for i in range(m.cols)] for j in range(m.cols)]
    return _span(m.cols, _dependencies(m.rows, _integer_columns(m), units))


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    """Canonical basis of u + v."""
    u._require_same_ambient(v)
    return _span(u.ambient_dim, _integer_columns(u.basis) + _integer_columns(v.basis))


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Canonical basis of u ∩ v (Zassenhaus).

    A dependency sum_i a_i u_i + sum_j b_j v_j = 0 between the two bases
    gives the common vector sum_i a_i u_i, and every common vector arises
    so; each u_i carries itself as its tail and each v_j a zero tail.
    """
    u._require_same_ambient(v)
    n = u.ambient_dim
    first, second = _integer_columns(u.basis), _integer_columns(v.basis)
    return _span(n, _dependencies(n, first + second, first + [[0] * n] * len(second)))


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
    rows, scale = _integerized(m)  # det m = det(rows) / scale^n
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
    return sign * rows[n - 1][n - 1] / scale**n


def _inverse_rows(m: Matrix) -> tuple[list[list[int]], int]:
    """Integer rows R and a positive integer scale s with m^-1 = R / s.

    Raises ValueError on singular input. [m | I] is reduced on one common
    scale: with m = rows / (p/q) it is the integer rows [q rows | p I], and
    reduced row i reads r_i e_i in front and r_i times row i of m^-1 behind.
    s is the lcm of the r_i; R and s are then divided by their common gcd.
    """
    if not m.is_square:
        raise ValueError("inverse requires a square matrix")
    n = m.rows
    rows, scale = _integerized(m)
    p, q = scale.numerator, scale.denominator
    augmented = ([q * x for x in row] + [p if i == j else 0 for j in range(n)] for i, row in enumerate(rows))
    echelon = _echelon(n, augmented)
    if len(echelon) < n:
        raise ValueError("matrix is singular")
    reduced, _ = echelon.reduced_rows()
    s = lcm(*(row[i] for i, row in enumerate(reduced)))
    out = [[x * (s // row[i]) for x in row[n:]] for i, row in enumerate(reduced)]
    g = gcd(s, *(x for row in out for x in row))
    if g > 1:
        out, s = [[x // g for x in row] for row in out], s // g
    return out, s


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises ValueError on singular input."""
    rows, scale = _inverse_rows(m)
    return _scaled_matrix(rows, scale, m.cols)


class BlockBasis:
    """Coordinates with respect to independent subspaces V_0, ..., V_k.

    The stacked bases P of the listed subspaces are completed to a basis Q
    of the whole space by the unit vectors e_j at the non-pivot positions of
    the echelon of P's columns, and Q is inverted once. A matrix m is then
    described by its coordinate matrix C = Q^-1 m P, whose column block i
    holds the coordinates of the images of the basis of V_i. Coordinates in
    a basis are unique, so m + c I maps V_i into the sum of some listed V_j
    exactly when column block i of C + c [I on block i] vanishes outside the
    rows of those blocks; the completion rows belong to no listed subspace.
    """

    def __init__(self, ambient_dim: int, spaces: Sequence[Subspace]):
        n = ambient_dim
        stacked = hstack(Matrix.zeros(n, 0), *(space.basis for space in spaces))
        k = stacked.cols
        full = stacked
        if k < n:
            pivots = _echelon(n, _integer_columns(stacked)).rows
            if len(pivots) != k:
                raise ValueError("subspaces are not independent")
            units = [j for j in range(n) if j not in pivots]
            one, zero = Fraction(1), Fraction(0)
            completion = Matrix(n, len(units), tuple(one if i == j else zero for i in range(n) for j in units))
            full = hstack(stacked, completion)
        self._basis = _integerized(stacked)
        self._inverse = _inverse_rows(full)
        self._starts = [0]
        self._block_of = []
        for i, space in enumerate(spaces):
            self._starts.append(self._starts[-1] + space.dim)
            self._block_of.extend([i] * space.dim)
        self._block_of.extend([-1] * (n - k))

    def coordinates(self, m: Matrix) -> tuple[list[list[int]], Fraction]:
        """Integer rows of scale * C for C = Q^-1 m P, and that scale."""
        rows, scale = _integerized(m)
        p, p_scale = self._basis
        q_inv, q_scale = self._inverse
        k = self._starts[-1]
        return _int_matmul(q_inv, _int_matmul(rows, p, k), k), scale * p_scale * q_scale

    def maps_into(self, coords: tuple[list[list[int]], Fraction], i: int,
                  targets: Iterable[int], shift=0) -> bool:
        """Does m + shift * I map V_i into the sum of V_j over j in targets?

        coords is coordinates(m); targets outside 0..k name no subspace and
        are ignored.
        """
        rows, scale = coords
        keep = {j for j in targets if 0 <= j < len(self._starts) - 1}
        diagonal = -_as_fraction(shift) * scale
        lo, hi = self._starts[i], self._starts[i + 1]
        for a, row in enumerate(rows):
            if self._block_of[a] in keep:
                continue
            for c in range(lo, hi):
                if row[c] != (diagonal if a == c else 0):
                    return False
        return True


def minimal_polynomial(m: Matrix) -> tuple[Fraction, ...]:
    """Monic minimal polynomial coefficients, constant term first.

    Found as the first linear dependence among I, M, M^2, ... for the
    integer matrix M = scale * m: each flattened power M^k, followed by the
    unit tail e_k, is reduced in one echelon, and the first residual whose
    leading n^2 entries vanish carries sum_j b_j M^j = 0 in its tail, so
    sum_j b_j scale^j m^j = 0.
    """
    if not m.is_square:
        raise ValueError("minimal polynomial requires a square matrix")
    n = m.rows
    if n == 0:
        return (Fraction(0), Fraction(1))
    nn = n * n
    a, scale = _integerized(m)
    echelon = _Echelon(nn)
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(n + 1):
        tail = [0] * (n + 1)
        tail[k] = 1
        lead, residual = echelon.reduce([x for row in power for x in row] + tail)
        if lead is None:
            coeffs = [b * scale**j for j, b in enumerate(residual[nn : nn + k + 1])]
            return tuple(c / coeffs[k] for c in coeffs)
        echelon.add(residual)
        power = _int_matmul(power, a, n)
    raise RuntimeError("minimal polynomial search did not terminate")  # degree <= n


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
