"""Exact linear algebra over the rationals: the elimination engine.

It works on matrix.Matrix, whose core module (products, Kronecker products
and the dimension guard) a spec build runs without loading this one; the
core's public names are re-exported here. Fraction objects are made only by
the scalar results (determinant, minimal polynomial), with no tolerances.
Subspaces are kept in a canonical reduced column-echelon form, so two
subspaces are equal as sets exactly when their representations compare
equal.

Exact elimination has one engine: the incremental integer echelon
``_Echelon``, which reads the stored integer rows or columns directly
(two-term integer row combinations whose multipliers share no factor; a
row is gcd-stripped once, when the echelon keeps it).
Subspaces go to it directly: a span, a sum or a membership test is the
echelon of integer basis columns (its rank, or its reduced rows as the
canonical basis). A kernel is one elimination of the matrix's rows with
their columns taken in reverse order: each reduced row then writes its
pivot unknown through free unknowns of smaller index, so the null vector of
each free unknown leads there and vanishes at the other free positions, and
these vectors are the canonical basis as they stand. An intersection reads
the dependencies between two bases off tails carried through the
elimination. The public rref, the minimal polynomial, the spins and the
closure of ``classify`` and every solve M T = N (_solve, one elimination
of the integer rows [M | N]; an inverse solves [num | den I]) use the same
echelon: the identical reduced echelon form, much faster than on Fractions.
The public determinant runs Bareiss elimination; no runtime path calls it.

Whether vectors lie in a sum of eigenspaces of one matrix x needs no
elimination: for distinct mu_j the kernel of prod_j (x - mu_j I) is the
direct sum of the kernels of the factors, so annihilates decides it by
integer products with x alone, whether or not x is diagonalizable.

The spectrum of a matrix m that should be diagonalizable is read off one
pass, diagonal_spectrum. The minimal polynomial mu_v of m on v = e_0 (a
Krylov sequence, n wide where minimal_polynomial is n^2) gives candidate
eigenvalues; on a built module's A and A* it is their minimal polynomial
(_krylov_start). It divides that of m, so a repeated or irrational root
refutes diagonalizability at once. Otherwise the eigenspaces at the roots
are independent, and when their dimensions add up to n they certify the
spectrum and are returned; only a shortfall (v missed an eigenvalue, or m
has a Jordan block) runs the minimal polynomial of m. A ladder c, c-2, ...
is read by the ladder test; any other polynomial goes to rational_roots,
whose integer Newton steps for one root number at most the degree times
the bits of a root bound, so its time grows with the coefficients' bits,
not their values. ladder_spectrum is diagonal_spectrum restricted to
spectra that step down by 2, and _ladder_eigenpairs offers a generator's
ladder eigenspaces lazily to Norton's test. No other module reads a
polynomial, so for every caller the minimal polynomial runs only on a
shortfall.

A matrix keeps what eigenspace and _krylov_polynomial compute on it, so
every spectral route above, and each caller's (build_tetra's pass, then
check_onsager_equivalence's on the same A and A*), forms each kernel once
per matrix object. The memo is the one place where the package keeps a
derived fact about a matrix: a dict on the matrix, set by
object.__setattr__ and read by getattr (never through __dict__, which would
materialize and slow every field read), outside the fields that ==, hash
and repr see. Eigenspaces are keyed by eigenvalue, the Krylov polynomial by
None and Norton's verdicts (classify) by the partner matrix, which never
equals a Fraction or None; all are immutable values. It lives and dies
with its matrix, and an equal matrix built separately computes its own.
At most _MEMO_BOUND matrices hold one, the twelve generators of one
TetraModule: weak references to the holders queue oldest first, and a new
holder past the bound pops the oldest and deletes its memo if it still
lives, so a caller that keeps every result retains no more than twelve
matrices' subspaces and verdicts. A hit checks the matrix's side against
matrix.DIM_GUARD first, as the kernel's basis does on a miss, so a lowered
guard refuses on every call. That constant, the package's one size bound,
lives with require_within_guard in the core and is not re-exported here.
"""

from __future__ import annotations

import weakref
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from ._record import Record
# the build path's arithmetic; commutator and kron are re-exported with Matrix
from .matrix import Matrix, _int_matmul, as_rational, commutator, kron, require_within_guard


def hstack(*mats: Matrix) -> Matrix:
    """Concatenate matrices with equal row counts side by side."""
    if not mats:
        raise ValueError("hstack needs at least one matrix")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch")
    den = lcm(*(m._den for m in mats))
    scaled = [[[x * (den // m._den) for x in row] for row in m._num] for m in mats]
    return Matrix._of(rows, sum(m.cols for m in mats), (chain(*parts) for parts in zip(*scaled)), den)


# -- integer elimination core -------------------------------------------------

def _strip_gcd(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _cancel(p: int, c: int, v: list[int], row: list[int]) -> list[int]:
    """(p v - c row) / g for g = gcd(p, c), p > 0: v with its entry c at the
    lead p of row eliminated, by one two-integer gcd and no strip of the row."""
    g = gcd(p, c)
    if g == p:
        c //= g
        return [x - c * y for x, y in zip(v, row)]
    p //= g
    c //= g
    return [p * x - c * y for x, y in zip(v, row)]


class _Echelon:
    """Incremental integer echelon basis of a subspace of Q^n.

    Each row is gcd-stripped and keyed by the position of its leading
    entry, which is positive. Reductions are two-term integer combinations,
    which realize exact rational elimination without Fraction overhead.
    Vectors may be longer than n: only the first n positions are
    eliminated, and the tail is carried along, so a tail of unit vectors
    records which combination of the inputs a residual is.

    One step of reduce eliminates the entry c of the residual v at the lead
    p > 0 of a kept row as (p v - c row) / gcd(p, c), a fraction-free step
    whose two multipliers share no factor, and strips nothing: a row is
    stripped once, in add, when it is kept. This keeps the rows that a strip
    after every step would keep. By induction each residual is a
    positive rational multiple of the stripped one: when v = t w with t > 0,
    the entry read off v is t times that of w, and (p v - c row) / g is a
    positive multiple of p w - c' row for c' = c / t, so also of its strip.
    A positive multiple has the same zero pattern and lead, so every step
    meets the same rows in the same order, and add's strip and sign then
    keep the same primitive row. reduced_rows cancels gcd(p, c) the same way
    and strips each updated row, which is kept, so the stored rows and
    their back-substituted forms are those of the stripped elimination too.
    A residual's tail is only determined up to that positive factor: a
    caller that reads it (intersect, _first_dependence) canonicalizes it,
    by _span in intersect and by monic normalization in _first_dependence.
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
            v = _cancel(row[pos], c, v, row)
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
        """Back-substituted basis rows in pivot order, and their pivots. Each
        row vanishes in every other row's pivot column, so divided by its pivot
        entry it is a row of the reduced echelon form. The echelon keeps these
        rows, so a later call back-substitutes only the new pivots."""
        pivots = sorted(self.rows)
        rows = [self.rows[c] for c in pivots]
        for k in range(len(pivots) - 1, -1, -1):
            c = pivots[k]
            rk = rows[k]
            p = rk[c]
            for i in range(k):
                ci = rows[i][c]
                if ci:
                    rows[i] = _strip_gcd(_cancel(p, ci, rows[i], rk))
        self.rows = dict(zip(pivots, rows))
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


_MEMO_BOUND = 12  # matrices that hold a spectral memo at one time: a TetraModule's generators
_memo_holders: deque[weakref.ref] = deque()  # their weak references, oldest first


def _spectral_memo(m: Matrix) -> dict:
    """The memo of m: its eigenspaces keyed by eigenvalue, its Krylov
    polynomial keyed by None and Norton's verdicts keyed by the partner
    matrix. A matrix that makes one joins the holders, and past the bound
    the oldest holder leaves them, with its memo if it lives."""
    memo = getattr(m, "_spectral_memo", None)
    if memo is None:
        memo = {}
        object.__setattr__(m, "_spectral_memo", memo)
        _memo_holders.append(weakref.ref(m))
        if len(_memo_holders) > _MEMO_BOUND:
            oldest = _memo_holders.popleft()()
            if oldest is not None:
                object.__delattr__(oldest, "_spectral_memo")
    return memo


def eigenspace(m: Matrix, lam) -> Subspace:
    """All vectors v with m v = lam v; zero subspace when lam is not an eigenvalue."""
    if not m.is_square:
        raise ValueError("eigenspace requires a square matrix")
    require_within_guard(m.cols, "matrix side")  # as the kernel's basis would, on a hit too
    lam = Fraction(as_rational(lam))
    memo = _spectral_memo(m)
    space = memo.get(lam)
    if space is None:
        space = memo[lam] = _shifted_kernel(m._num, m._den, lam)
    return space


def _shifted_kernel(num: Iterable[Sequence[int]], den: int, lam: Fraction | int) -> Subspace:
    """ker(num / den - lam I) for square integer rows num: with lam = p/q, the
    kernel of q den (num / den - lam I), the rows of q num less p den on the diagonal."""
    q, shift = lam.denominator, lam.numerator * den
    rows = [[q * x for x in row] for row in num]
    for i, row in enumerate(rows):
        row[i] -= shift
    return _kernel(len(rows), rows)


def is_diagonalizable_with(m: Matrix, eigenvalues: Sequence) -> bool:
    """True iff the eigenspaces of the listed eigenvalues fill the whole space."""
    if not m.is_square:
        raise ValueError("diagonalizability requires a square matrix")
    vals = [Fraction(as_rational(x)) for x in eigenvalues]
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
    """Exact inverse of m = num / den, the solve of the integer rows
    [num | den I]; raises ValueError on singular input."""
    if not m.is_square:
        raise ValueError("inverse requires a square matrix")
    n = m.rows
    return _solve(n, [list(row) + [m._den if i == j else 0 for j in range(n)] for i, row in enumerate(m._num)])


def _solve(n: int, rows: Sequence[list[int]]) -> Matrix:
    """T with M T = N, for the integer rows [M | N] of length 2n: reduced row
    i reads r_i (e_i, row i of T). Raises ValueError unless M is invertible."""
    if len(rows) != n:
        raise ValueError(f"{len(rows)} rows for {n} unknowns")
    echelon = _echelon(n, rows)
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
    column_roots = [[as_rational(mu) for mu in roots] for width, roots in blocks for _ in range(width)]
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
    """e_0. Each factor of a built module is tridiagonal in the weight basis with
    nonzero off-diagonal entries, so v_0 is cyclic for its A and A*, and e_0 =
    v_0 (x) ... (x) v_0 meets every eigenspace of both. On other input (say a
    conjugated or block-diagonal matrix) a shortfall runs the minimal polynomial."""
    return [1] + [0] * (n - 1)


def _krylov_polynomial(m: Matrix) -> tuple[Fraction, ...]:
    """The minimal polynomial of m on s = e_0, which divides that of m and is
    it on a built module: the first dependence among s, M s, M^2 s, ..., n wide."""
    memo = _spectral_memo(m)
    if None not in memo:
        rows = [[(j, x) for j, x in enumerate(row) if x] for row in m._num]

        def powers():
            vector = _krylov_start(m.rows)
            while True:
                yield vector
                vector = [sum(x * vector[j] for j, x in row) for row in rows]

        memo[None] = _first_dependence(m, m.rows, powers())
    return memo[None]


def _ladder_roots(poly: Sequence[Fraction]) -> list[Fraction] | None:
    """The roots c, c-2, ..., c-2d of the monic poly in descending order when
    it is prod_{i=0}^{d} (x - c + 2i), of degree d + 1; else None.

    The degree gives d and the sum of the roots, (d + 1)(c - d), gives c;
    for c = p / q in lowest terms, the integer product of the d + 1 factors
    q x - p + 2iq, which is q^(d+1) times the monic ladder, is then
    compared with q^(d+1) poly.
    """
    d = len(poly) - 2
    c = Fraction(-poly[d], d + 1) + d
    p, q = c.numerator, c.denominator
    expected = [1]
    for i in range(d + 1):
        r = p - 2 * i * q
        expected = [q * lower - r * same for same, lower in zip(expected + [0], [0] + expected)]
    scale = q ** (d + 1)
    if any(e != scale * a for e, a in zip(expected, poly)):
        return None
    return [c - 2 * i for i in range(d + 1)]


def _distinct_roots(poly: Sequence[Fraction]) -> list[Fraction] | None:
    """The roots of poly in descending order when they are rational and
    simple, else None. A ladder c, c-2, ... is read off by the ladder test."""
    roots = _ladder_roots(poly)
    if roots is not None:
        return roots
    roots = rational_roots(poly)
    if roots is None or any(mult > 1 for mult in roots.values()):
        return None
    return list(roots)


def diagonal_spectrum(m: Matrix) -> tuple[tuple[Fraction, ...], tuple[Subspace, ...]] | None:
    """The distinct eigenvalues of m in descending order and their
    eigenspaces, when m is diagonalizable over Q; None otherwise.

    Candidates are the roots of mu_v, the minimal polynomial of m on one
    vector; their eigenspaces certify them when their dimensions add up to
    n (see the module docstring). Only a shortfall runs the minimal
    polynomial of m, and the eigenspaces already found are read off m's memo.
    """
    if not m.is_square:
        raise ValueError("a spectrum requires a square matrix")
    if m.rows == 0:
        return (), ()
    roots = _distinct_roots(_krylov_polynomial(m))
    if roots is None:
        return None
    spaces = [eigenspace(m, lam) for lam in roots]
    if sum(space.dim for space in spaces) < m.rows:
        roots = _distinct_roots(minimal_polynomial(m))
        if roots is None:
            return None
        spaces = [eigenspace(m, lam) for lam in roots]
    return tuple(roots), tuple(spaces)


def ladder_spectrum(m: Matrix) -> tuple[tuple[Fraction, ...], tuple[Subspace, ...]] | None:
    """The eigenvalues c, c-2, ..., c-2d of m and its eigenspaces at them,
    when m is diagonalizable with such a spectrum; None otherwise: the
    diagonal_spectrum of m when its eigenvalues step down by 2."""
    if not m.is_square or m.rows == 0:
        raise ValueError("a ladder spectrum requires a nonempty square matrix")
    spectrum = diagonal_spectrum(m)
    if spectrum is None or any(a - b != 2 for a, b in zip(spectrum[0], spectrum[0][1:])):
        return None
    return spectrum


def _krylov_ladder(m: Matrix) -> list[Fraction] | None:
    """The ladder roots c, c-2, ..., c-2d of the Krylov polynomial of m at
    e_0, top first, when it is such a ladder; else None. The polynomial is
    kept in m's memo, so a second reading costs one ladder test. m is
    nonempty and square."""
    return _ladder_roots(_krylov_polynomial(m))


def _ladder_eigenpairs(m: Matrix) -> Iterator[tuple[Fraction, Subspace]]:
    """(lam, eigenspace of m at lam), one at a time, at the ladder roots of the
    Krylov polynomial of m, top first; then the pairs of ladder_spectrum(m),
    which runs the minimal polynomial only on a shortfall. m is nonempty."""
    for lam in _krylov_ladder(m) or ():
        yield lam, eigenspace(m, lam)
    yield from zip(*(ladder_spectrum(m) or ((), ())))


def rational_roots(coeffs: Sequence[Fraction]) -> dict[Fraction, int] | None:
    """Roots (with multiplicity) of a polynomial, top first, if they are all
    rational.

    Returns None when the polynomial does not split into rational linear
    factors. Coefficients are constant term first.

    For the monic f of degree n, with den the lcm of its denominators,
    g(y) = den^n f(y / den) is monic with integer coefficients, and its
    rational roots are the integers den r. From y = B = 2 << max_i
    ceil(bitlen(g_(n-i)) / i), a power of two at or above Fujiwara's bound
    2 max_i |g_(n-i)|^(1/i) on every root, Newton's integer steps
    y <- y - ceil(g(y) / g'(y)) run until g(y) = 0; g is then divided by
    y - rho at that root rho, and the steps go on from rho, so a repeated
    root is found again at once and the roots come out top first.

    Suppose g, of degree m, splits. Its roots are real, so by Rolle those of
    g' and g'' lie at or below its largest root rho, and g, g', g'' are >= 0
    on [rho, oo). Convexity puts the Newton point of a y > rho in [rho, y),
    and the ceiling keeps y >= rho, rho being an integer. Since g'/g =
    sum_j 1/(y - r_j) <= m / (y - rho), each step takes at least (y - rho)/m
    off the distance y - rho, which is at most 2B when the steps for rho
    start: after m bitlen(2B) steps it is below 2B e^(-bitlen(2B)) < 1, so
    zero. Hence when g splits no y meets g(y) < 0, g'(y) <= 0 or a step
    count past m bitlen(2B), and each of these returns None exactly; every
    root returned has g(y) = 0 exactly.
    """
    poly = [Fraction(as_rational(c)) for c in coeffs]
    while poly and poly[-1] == 0:
        poly.pop()
    if len(poly) <= 1:
        raise ValueError("polynomial must have positive degree")
    poly = [c / poly[-1] for c in poly]
    n, den = len(poly) - 1, lcm(*(c.denominator for c in poly))
    g = [c.numerator * den ** (n - i) // c.denominator for i, c in enumerate(poly)]
    y = bound = 2 << max(-(-c.bit_length() // (n - i)) for i, c in enumerate(g[:-1]))
    roots: dict[Fraction, int] = {}
    while len(g) > 1:
        for _ in range((len(g) - 1) * (2 * bound).bit_length() + 1):
            value, slope = 1, 0  # g(y) and g'(y), by one Horner pass
            for c in reversed(g[:-1]):
                slope = slope * y + value
                value = value * y + c
            if value <= 0 or slope <= 0:
                break
            y -= -(-value // slope)
        if value:  # below the root, a slope that is not positive, or too many steps: g does not split
            return None
        root = Fraction(y, den)
        roots[root] = roots.get(root, 0) + 1
        # g / (x - y) by synthetic division, whose remainder g(y) is zero
        acc, quotient = 0, []
        for c in reversed(g):
            acc = acc * y + c
            quotient.append(acc)
        g = quotient[-2::-1]
    return roots
