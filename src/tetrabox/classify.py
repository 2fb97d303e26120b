"""Irreducibility and isomorphism tests.

Two independent routes are provided for each question. Irreducibility is
decided either by the evaluation-parameter criterion (a_1, a_1^-1, ...,
a_n, a_n^-1 mutually distinct) or by a Burnside test: the pair acts
absolutely irreducibly exactly when the unital associative algebra it
generates is the full matrix algebra, of dimension dim^2. Isomorphism is
decided either by equivalence of evaluation data (permutations and
parameter inversions) or by an explicit intertwiner search.

The Burnside closure is exact: the algebra is the spin of the identity
matrix under right multiplication by each generator, computed by the same
routine and the same integer echelon (linalg._Echelon) as Norton's spin
below. A fast certificate runs the word closure over the prime field
F_65521: reaching full rank there proves full rank over the rationals,
since specializing mod p never increases rank. Only when the modular
closure stops short does the exact closure run; its verdict is final
either way. numpy is imported only when the
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

from collections import deque
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionGuardError, ReducibleModuleError
from .linalg import Matrix, _Echelon, _integerized, _strip_gcd, determinant, eigenspace, kernel
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


def _spin_dimension(vector: list[int], sparse_gens: list[list[list[tuple[int, int]]]]) -> int:
    """Dimension of the smallest subspace that contains vector and is
    invariant under the operators in sparse_gens.

    Each operator is given by its rows as (column, entry) pairs. Every
    vector that enlarges the span is queued, oldest first, and its images
    under each operator are offered in turn.
    """
    n = len(vector)
    span = _Echelon(n)
    span.add(vector)
    queue = deque([vector])
    while queue and len(span) < n:
        v = queue.popleft()
        for g in sparse_gens:
            image = _strip_gcd([sum(x * v[j] for j, x in row) for row in g])
            if span.add(image):
                queue.append(image)
    return len(span)


def _sparse_rows(g: Iterable[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """Rows of an integer matrix as (column, entry) pairs of their nonzeros."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in g]


def _closure_dimension_exact(gens: list[list[list[int]]], n: int) -> int:
    """Dimension over Q of the unital algebra generated by integer matrices.

    The algebra is the spin of the identity under right multiplication by
    each generator. On flattened n x n matrices, entry (i, j) of W g is
    sum_k W[i][k] g[k][j], so that operator's row (i, j) holds the nonzero
    entries of column j of g.
    """
    operators = []
    for g in gens:
        columns = _sparse_rows(zip(*g))
        operators.append([[(i * n + k, x) for k, x in columns[j]] for i in range(n) for j in range(n)])
    identity = [1 if i == j else 0 for i in range(n) for j in range(n)]
    return _spin_dimension(identity, operators)


def _integer_generators(a: Matrix, b: Matrix, guard: int) -> list[list[list[int]]]:
    """Integer rows of a and b, each on its own scale, for the closures.

    Scaling a generator rescales every word, which leaves all spans
    unchanged, so the integerized generators give the same algebra.
    """
    if not (a.is_square and b.is_square) or a.rows != b.rows:
        raise ValueError("generators must be square matrices of equal size")
    if a.rows > guard:
        raise DimensionGuardError(f"dimension {a.rows} exceeds the oracle guard {guard}")
    return [_integerized(a)[0], _integerized(b)[0]]


def generated_algebra_dimension(a: Matrix, b: Matrix, guard: int = ORACLE_GUARD) -> int:
    """Exact dimension of the unital algebra generated by a and b."""
    return _closure_dimension_exact(_integer_generators(a, b, guard), a.rows)


def pair_generates_full_algebra(a: Matrix, b: Matrix, guard: int = ORACLE_GUARD) -> bool:
    """True iff the algebra generated by a, b is all of End(V)."""
    gens = _integer_generators(a, b, guard)
    n = a.rows
    if n == 0:
        return True
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
    a, astar = _integerized(m.A)[0], _integerized(m.Astar)[0]
    v = _integerized(line.basis.transpose())[0][0]
    w = _integerized(dual_line.basis.transpose())[0][0]
    return (
        _spin_dimension(v, [_sparse_rows(a), _sparse_rows(astar)]) == m.dim
        and _spin_dimension(w, [_sparse_rows(zip(*a)), _sparse_rows(zip(*astar))]) == m.dim
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
