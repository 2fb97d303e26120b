"""Irreducibility and isomorphism tests.

Two independent routes are provided for each question. Irreducibility is
decided either by the evaluation-parameter criterion (a_1, a_1^-1, ...,
a_n, a_n^-1 mutually distinct) or by a Burnside test: the pair acts
absolutely irreducibly exactly when the unital associative algebra it
generates is the full matrix algebra, of dimension dim^2. Isomorphism is
decided either by equivalence of evaluation data (permutations and
parameter inversions) or by an explicit intertwiner search.

The Burnside closure is exact. A fast certificate runs the identical
closure over the prime field F_65521: reaching full rank there proves full
rank over the rationals, since specializing mod p never increases rank.
Only when the modular closure stops short does the exact integer closure
run; its verdict is final either way. numpy is imported only when the
certificate runs.

Norton's spinning test (the MeatAxe irreducibility test, run here in exact
arithmetic) decides the same question at any dimension without building
the algebra of words: when the top eigenspaces of A and of A^T are lines,
the module is irreducible exactly when the eigenvector of A spins to the
whole space under A, Astar and the eigenvector of A^T spins to the whole
space under A^T, Astar^T. Any endomorphism of the module preserves the
line ker(A - d I), so the endomorphism algebra is Q and the verdict is
absolute irreducibility, the one Burnside decides.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionGuardError, ReducibleModuleError
from .linalg import Matrix, _integer_rows, _strip_gcd, determinant, eigenspace, kernel
from .onsager import ModuleSpec, OnsagerModule, module_type

ORACLE_GUARD = 64

_PRIME = 65521  # largest prime below 2^16: dot products of reduced rows fit in int64


def _canonical_parameter(a: Fraction) -> str:
    """Representative of {a, 1/a}: the lexicographically smaller serialization."""
    return min(str(a), str(1 / a))


def equivalence_key(spec: ModuleSpec) -> tuple[tuple[int, str], ...]:
    """Multiset key invariant under factor permutation and parameter inversion.

    Trivial (n = 0) factors do not change the module and are dropped.
    """
    items = [(n, _canonical_parameter(a)) for n, a in spec.factors if n >= 1]
    return tuple(sorted(items))


def is_irreducible_criterion(spec: ModuleSpec) -> bool:
    """Evaluation-parameter criterion: the 2n values a_i, a_i^-1 are distinct.

    The type shift never affects irreducibility and is ignored. A spec with
    no nontrivial factor is the one-dimensional module, which is irreducible.
    """
    values: list[Fraction] = []
    for n, a in spec.factors:
        if n >= 1:
            values.append(a)
            values.append(1 / a)
    return len(set(values)) == len(values)


def are_equivalent(s1: ModuleSpec, s2: ModuleSpec) -> bool:
    """Equal up to factor permutation and replacing parameters by inverses."""
    for s in (s1, s2):
        if s.shift != (Fraction(0), Fraction(0)):
            raise ValueError("equivalence is defined for type-(0,0) specs; normalize first")
    return equivalence_key(s1) == equivalence_key(s2)


def _integerized(m: Matrix) -> list[list[int]]:
    """Integer matrix spanning the same line as m (global scale, content stripped)."""
    denom = 1
    for x in m.entries:
        denom = lcm(denom, x.denominator)
    rows = [[int(x * denom) for x in m.row_list(i)] for i in range(m.rows)]
    g = 0
    for row in rows:
        for x in row:
            g = gcd(g, x)
    if g > 1:
        rows = [[x // g for x in row] for row in rows]
    return rows


class _Echelon:
    """Incremental integer echelon basis of a subspace of Q^n.

    Each row is gcd-stripped and keyed by the position of its leading
    entry, which is positive. Reductions are two-term integer combinations
    with gcd stripping, which realizes exact rational elimination without
    Fraction overhead.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, vec: list[int]) -> bool:
        """Extend the span by vec; False when vec already lies in it."""
        rows = self.rows
        v = vec
        for pos in range(self.n):
            c = v[pos]
            if not c:
                continue
            row = rows.get(pos)
            if row is None:
                v = _strip_gcd(v)
                if v[pos] < 0:
                    v = [-x for x in v]
                rows[pos] = v
                return True
            p = row[pos]
            v = _strip_gcd([p * x - c * y for x, y in zip(v, row)])
        return False


def _closure_full_mod_p(gens: list[list[list[int]]], n: int) -> bool:
    """True iff the word closure of gens spans all of End(V) over F_p.

    A True answer certifies full span over Q as well; False is inconclusive.
    """
    import numpy as np

    nn = n * n
    basis = np.zeros((nn, nn), dtype=np.int64)
    piv_cols: list[int] = []
    size = 0

    def try_add(vec: np.ndarray) -> bool:
        nonlocal size
        v = vec % _PRIME
        if size:
            v = (v - v[piv_cols] @ basis[:size]) % _PRIME
        support = np.nonzero(v)[0]
        if support.size == 0:
            return False
        p = int(support[0])
        v = (v * pow(int(v[p]), _PRIME - 2, _PRIME)) % _PRIME
        col = basis[:size, p].copy()
        if np.any(col):
            basis[:size] = (basis[:size] - np.outer(col, v)) % _PRIME
        basis[size] = v
        piv_cols.append(p)
        size += 1
        return True

    # entries may exceed int64, so reduce mod p in Python first
    mats = [np.array([[x % _PRIME for x in row] for row in g], dtype=np.int64) for g in gens]
    ident = np.eye(n, dtype=np.int64)
    queue = [ident]
    try_add(ident.reshape(-1).copy())
    while queue and size < nn:
        word = queue.pop(0)
        for g in mats:
            product = (word @ g) % _PRIME
            if try_add(product.reshape(-1).copy()):
                queue.append(product)
                if size == nn:
                    return True
    return size == nn


def _closure_dimension_exact(gens: list[list[list[int]]], n: int) -> int:
    """Dimension over Q of the unital algebra generated by integer matrices.

    Breadth-first word closure: every accepted word is multiplied on the
    right by each generator until no product leaves the current span, which
    is tracked in an integer echelon basis of the flattened words.
    """
    nn = n * n
    span = _Echelon(nn)

    def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        out = []
        for i in range(n):
            ai = a[i]
            row = [0] * n
            for k in range(n):
                s = ai[k]
                if s:
                    bk = b[k]
                    for j in range(n):
                        if bk[j]:
                            row[j] += s * bk[j]
            out.append(row)
        return out

    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    queue = [ident]
    span.add([x for row in ident for x in row])
    while queue and len(span) < nn:
        word = queue.pop(0)
        for g in gens:
            product = matmul(word, g)
            if span.add([x for row in product for x in row]):
                queue.append(product)
                if len(span) == nn:
                    return nn
    return len(span)


def _spins_to_full(vector: list[int], gens: list[list[list[int]]]) -> bool:
    """True iff the words in gens applied to vector span all of Q^n.

    Every vector that enlarges the span is queued and its images under each
    generator are offered in turn, so the final span is the smallest
    gens-invariant subspace containing vector.
    """
    n = len(vector)
    sparse = [[[(j, x) for j, x in enumerate(row) if x] for row in g] for g in gens]
    span = _Echelon(n)
    span.add(vector)
    queue = [vector]
    while queue and len(span) < n:
        v = queue.pop()
        for g in sparse:
            image = _strip_gcd([sum(x * v[j] for j, x in row) for row in g])
            if span.add(image):
                queue.append(image)
    return len(span) == n


def generated_algebra_dimension(a: Matrix, b: Matrix, guard: int = ORACLE_GUARD) -> int:
    """Exact dimension of the unital algebra generated by a and b."""
    if not (a.is_square and b.is_square) or a.rows != b.rows:
        raise ValueError("generators must be square matrices of equal size")
    if a.rows > guard:
        raise DimensionGuardError(f"dimension {a.rows} exceeds the oracle guard {guard}")
    gens = [_integerized(a), _integerized(b)]
    return _closure_dimension_exact(gens, a.rows)


def pair_generates_full_algebra(a: Matrix, b: Matrix, guard: int = ORACLE_GUARD) -> bool:
    """True iff the algebra generated by a, b is all of End(V).

    Scaling a generator rescales every word, which leaves all spans
    unchanged, so the integerized generators give the same answer.
    """
    if not (a.is_square and b.is_square) or a.rows != b.rows:
        raise ValueError("generators must be square matrices of equal size")
    n = a.rows
    if n > guard:
        raise DimensionGuardError(f"dimension {n} exceeds the oracle guard {guard}")
    if n == 0:
        return True
    gens = [_integerized(a), _integerized(b)]
    if _closure_full_mod_p(gens, n):
        return True
    return _closure_dimension_exact(gens, n) == n * n


def is_irreducible_burnside(m: OnsagerModule, guard: int = ORACLE_GUARD) -> bool:
    """Burnside test: the module is (absolutely) irreducible iff the algebra
    generated by A and Astar has dimension dim^2."""
    return pair_generates_full_algebra(m.A, m.Astar, guard=guard)


def is_irreducible_spin(m: OnsagerModule, top: Fraction | None = None, guard: int = ORACLE_GUARD) -> bool:
    """Norton's spinning test: the module is (absolutely) irreducible iff the
    eigenvector v of A at top spins to Q^dim under A, Astar and the
    eigenvector w of A^T at top spins to Q^dim under A^T, Astar^T.

    top is the largest eigenvalue of A (d for a type-(0,0) module) and is
    found by module_type when omitted. The spin needs the eigenspace to be
    a line (ker(A^T - top I) then is one too); otherwise the Burnside test
    decides, within guard. The spin itself has no size guard.
    """
    if top is None:
        d, alpha, _ = module_type(m)
        top = d + alpha
    line = eigenspace(m.A, top)
    if line.dim != 1:
        return is_irreducible_burnside(m, guard=guard)
    dual_line = eigenspace(m.A.transpose(), top)
    a, astar = _integerized(m.A), _integerized(m.Astar)
    a_t, astar_t = [list(col) for col in zip(*a)], [list(col) for col in zip(*astar)]
    return (
        _spins_to_full(_integer_rows(line.basis_columns())[0], [a, astar])
        and _spins_to_full(_integer_rows(dual_line.basis_columns())[0], [a_t, astar_t])
    )


def find_intertwiner(m1: OnsagerModule, m2: OnsagerModule, guard: int = ORACLE_GUARD) -> Matrix | None:
    """Invertible S with S A1 = A2 S and S Astar1 = Astar2 S, if one exists.

    The joint intertwining conditions form a linear system in the entries of
    S; each kernel basis vector is reshaped and tested for invertibility by
    an exact determinant. For absolutely irreducible inputs the solution
    space has dimension at most one, so a single test decides.
    """
    if max(m1.dim, m2.dim) > guard:
        raise DimensionGuardError(f"dimension exceeds the oracle guard {guard}")
    if m1.dim != m2.dim:
        return None
    n = m1.dim
    rows: list[list[Fraction]] = []
    for lhs, rhs in ((m1.A, m2.A), (m1.Astar, m2.Astar)):
        for i in range(n):
            for j in range(n):
                row = [Fraction(0)] * (n * n)
                for v in range(n):
                    row[i * n + v] += lhs[v, j]
                for u in range(n):
                    row[u * n + j] -= rhs[i, u]
                rows.append(row)
    system = Matrix(2 * n * n, n * n, tuple(x for row in rows for x in row))
    solutions = kernel(system)
    for coords in solutions.basis_columns():
        candidate = Matrix(n, n, tuple(coords))
        if determinant(candidate) != 0:
            return candidate
    return None


def is_isomorphic(s1: ModuleSpec, s2: ModuleSpec) -> bool:
    """Isomorphism of the modules built from two irreducible specs.

    For irreducible tensor products of evaluation modules, isomorphism holds
    exactly when the specs are equivalent.
    """
    for s in (s1, s2):
        if not is_irreducible_criterion(s):
            raise ReducibleModuleError(f"spec {s.factors} is reducible; isomorphism is not defined here")
    return are_equivalent(s1, s2)
