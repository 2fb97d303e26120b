"""Irreducibility and isomorphism tests.

Two independent routes are provided for each question. Irreducibility is
decided either by the evaluation-parameter criterion (a_1, a_1^-1, ...,
a_n, a_n^-1 mutually distinct) or by a Burnside test: the pair acts
absolutely irreducibly exactly when the unital associative algebra it
generates is the full matrix algebra, of dimension dim^2. Isomorphism is
decided either by equivalence of evaluation data (permutations and
parameter inversions) or by an explicit intertwiner, one spin in M1 + M2.

The Burnside closure has one entry, generated_algebra_dimension. It runs
the word closure over the prime field F_65521 first: full rank there proves
full rank over the rationals, since specializing mod p never increases
rank. Only when that certificate stops short does the exact closure run,
the spin of the identity matrix under right multiplication by each
generator, by the same routine and the same integer echelon
(linalg._Echelon) as Norton's spin below. numpy is imported only when the
certificate runs.

Norton's spinning test (the MeatAxe irreducibility test, run here in exact
arithmetic) decides the same question without building the algebra of
words, for any pair (X, Y) where ker(X - c I) is a line <v>; then
ker(X^T - c I) is a line <w> too. The pair generates End(V) exactly when v
spins to V under X, Y and w spins to V* under X^T, Y^T:

- Let U be a proper nonzero invariant subspace. If c is an eigenvalue of X
  on U, then U contains v, and the spin of v stays inside U. Otherwise c is
  an eigenvalue of X on V/U, so the annihilator of U, which is (V/U)* in
  V*, contains w, and the spin of w stays inside it. Either way a spin
  stops short. Conversely, a short spin of v is a proper invariant subspace
  of V, and a short spin of w one of V*, whose annihilator is one of V.
- So both spins full means V is irreducible. An endomorphism commuting
  with X and Y maps v to c' v, hence every word applied to v to c' times
  it, so it is the scalar c': End = Q, and Burnside's theorem gives the
  full algebra. Spins are ranks, unchanged over any extension field, so
  this is absolute irreducibility, the question the closure decides.

So the matrix side has one route. pair_generates_full_algebra (and with it
is_irreducible_burnside), tetra.build_tetra, tetra.pairwise_burnside (at
the first eigenline of the chain it holds, else at the diameter d) and the
tridiagonal-pair check take Norton's verdict, in both directions, whenever
the eigenspace they ask at is a line. The closure decides only otherwise:
when there is no spectrum {c, c-2, ...} or that eigenspace is not a line.

Norton's verdict on a pair is kept on its first generator, a, in a dict
that _full_algebra_with_top creates in a's instance __dict__ on its first
call, keyed by the partner b: the verdict is exact whichever eigenline
decided it. A Matrix is immutable, so the bool stays true of a, and
is_irreducible_burnside, build_tetra, pairwise_burnside and the
tridiagonal checks spin once per pair of matrix objects. The dict is no
Matrix field, so ==, hash and repr of a Matrix do not see it; it lives
and dies with its matrix, and an equal matrix built separately runs its own
test, so there is no process-wide table to bound. Only Norton's bools are
kept. The closure's verdict is not: its guard is read at call time, so a
pair it decided is refused again once the guard is lowered, and a
DimensionGuardError is raised on every call. No subspace is kept either:
eigenspaces would live as long as every matrix that produced one.

The spins, the intertwiner's included, have no size bound. The closure
works in End(V) and refuses a dim^2 above linalg.DIM_GUARD before it
starts, so at the default 4096 it runs up to dim 64.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import lcm

from .errors import ReducibleModuleError, SpectrumError
from .linalg import (
    Matrix,
    Subspace,
    _Echelon,
    _integer_columns,
    _strip_gcd,
    _ladder_top,
    _tails,
    determinant,
    eigenspace,
    minimal_polynomial,
    require_within_guard,
)
from .onsager import _NOT_A_LADDER, ModuleSpec, OnsagerModule

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


def _reducibility_diagnostic(spec: ModuleSpec) -> str | None:
    """Why spec fails the criterion, as one line; None when it passes."""
    if is_irreducible_criterion(spec):
        return None
    if any(n >= 1 and a * a == 1 for n, a in spec.factors):
        return "reducible: a = ±1 in an evaluation factor"
    return "reducible: the parameters a_i, a_i^-1 are not mutually distinct"


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


def _spin(vector: list[int], sparse_gens: list[list[list[tuple[int, int]]]]) -> _Echelon:
    """Echelon basis of the smallest subspace that contains vector and is
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
    return span


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
    return len(_spin(identity, operators))


def _require_square_pair(a: Matrix, b: Matrix) -> None:
    if not (a.is_square and b.is_square) or a.rows != b.rows:
        raise ValueError("generators must be square matrices of equal size")


def generated_algebra_dimension(a: Matrix, b: Matrix) -> int:
    """Dimension of the unital algebra generated by a and b: the package's one
    Burnside closure, within the guard, run on their integer rows (scaling a
    generator rescales every word and keeps every span). dim^2 when the mod-p
    certificate reaches full rank, which proves it, else the exact closure."""
    _require_square_pair(a, b)
    gens, n = [a._num, b._num], a.rows
    require_within_guard(n * n, "Burnside closure dimension")
    return n * n if _closure_full_mod_p(gens, n) else _closure_dimension_exact(gens, n)


def _norton(a: Matrix, b: Matrix, top: Fraction | None, line: Subspace | None = None) -> bool | None:
    """Norton's test on the pair (a, b) at the eigenvalue top.

    When ker(a - top I) is a line, spanned by v, and ker(a^T - top I) by w:
    True iff v spins to Q^n under a, b and w spins to Q^n under a^T, b^T,
    which is exactly when a and b generate End(V) (see the module
    docstring). A False verdict is a spin that stopped short: a proper
    invariant subspace of V, or of V* under the transposes. None when top is
    None or the eigenspace is not a line; the test then says nothing. A
    caller that holds ker(a - top I) passes it as line, and it is not
    computed again. The spin has no size guard.
    """
    if line is None and top is not None:
        line = eigenspace(a, top)
    if line is None or line.dim != 1:
        return None
    gens = [a._num, b._num]
    if len(_spin(_integer_columns(line.basis)[0], [_sparse_rows(g) for g in gens])) < a.rows:
        return False
    dual_line = _integer_columns(eigenspace(a.transpose(), top).basis)[0]
    return len(_spin(dual_line, [_sparse_rows(zip(*g)) for g in gens])) == a.rows


def _spectrum_top(a: Matrix) -> Fraction | None:
    """Top eigenvalue c of a diagonalizable a with spectrum {c, c-2, ...}, else None.

    c is read off the minimal polynomial and checked by one product of
    linear factors (linalg._ladder_top). Unlike rational_roots there is no
    search over the divisors of a coefficient, whose length grows with the
    entries, and unlike linalg.diagonal_spectrum no eigenspace is computed.
    """
    return _ladder_top(minimal_polynomial(a))


def _full_algebra_with_top(a: Matrix, b: Matrix, top: Fraction | None, line: Subspace | None = None) -> bool:
    """pair_generates_full_algebra for a caller that knows an eigenvalue top
    of a (None: none known) and perhaps its eigenspace line. Norton's test is
    sound at any eigenvalue whose eigenspace is a line, so it decides there;
    otherwise the closure does. Norton's verdict, exact at any line, is kept
    on a, keyed by b, and read back at any top (see the module docstring)."""
    verdicts = a.__dict__.setdefault("_norton_verdicts", {})
    verdict = verdicts.get(b)
    if verdict is None:
        verdict = _norton(a, b, top, line)
        if verdict is None:
            return generated_algebra_dimension(a, b) == a.rows**2
        verdicts[b] = verdict
    return verdict


def pair_generates_full_algebra(a: Matrix, b: Matrix) -> bool:
    """True iff the algebra generated by a, b is all of End(V).

    Norton's test decides, at any dimension, when a has an arithmetic
    spectrum {c, c-2, ...} whose top eigenspace is a line; otherwise the
    Burnside closure does, within the guard.
    """
    _require_square_pair(a, b)
    return _full_algebra_with_top(a, b, _spectrum_top(a))


def is_irreducible_burnside(m: OnsagerModule) -> bool:
    """Burnside test: the module is (absolutely) irreducible iff A and Astar
    generate End(V), as pair_generates_full_algebra decides it."""
    return pair_generates_full_algebra(m.A, m.Astar)


def _direct_sum_rows(x1: Matrix, x2: Matrix) -> list[list[tuple[int, int]]]:
    """diag(x1, x2) on one integer scale, the lcm of their denominators, as sparse rows."""
    den, zeros = lcm(x1._den, x2._den), [0] * x1.rows
    p, q = den // x1._den, den // x2._den
    return _sparse_rows([[p * x for x in r] + zeros for r in x1._num] + [zeros + [q * x for x in r] for r in x2._num])


def find_intertwiner(m1: OnsagerModule, m2: OnsagerModule) -> Matrix | None:
    """Invertible S with S A1 = A2 S and S Astar1 = Astar2 S, if one exists.

    The domain is an m1 whose A1 has a top eigenline <v1> = ker(A1 - c I);
    every irreducible module has one. c is read off the spectrum of A1,
    whose minimal polynomial is an elimination dim^2 wide (about 0.1 s at
    dim 64); a caller that knows c, as compare --oracle knows d + alpha
    from the spec, passes it to _intertwiner_with_top instead.
    """
    if m1.dim != m2.dim:
        return None
    c = _spectrum_top(m1.A)
    if c is None:
        raise SpectrumError(_NOT_A_LADDER)
    return _intertwiner_with_top(m1, m2, c)


def _intertwiner_with_top(m1: OnsagerModule, m2: OnsagerModule, c: Fraction) -> Matrix | None:
    """find_intertwiner for a caller that knows the top eigenvalue c of A1.

    An intertwiner T maps v1 to t v2, <v2> = ker(A2 - c I), so (v1, v2) is
    spun in M1 + M2 under diag(A1, A2) and diag(Astar1, Astar2). The spin
    projects onto the spin of v1, so a pivot missing among 0..dim-1, like an
    eigenspace of A1 at c that is not a line, raises ReducibleModuleError.
    An invertible T makes the graph of T / t invariant, with (v1, v2) in it
    and dimension dim, so it is the spin: an extra pivot rules T out.
    Otherwise the spin is the graph of an intertwiner S, read as
    linalg.inverse reads an inverse, scaled to a first nonzero entry 1
    (unique for irreducible m1); its determinant decides.
    """
    if m1.dim != m2.dim:
        return None
    n = m1.dim
    line1, line2 = eigenspace(m1.A, c), eigenspace(m2.A, c)
    if line1.dim != 1:
        raise ReducibleModuleError(f"m1 is reducible: A1 has a {line1.dim}-dimensional eigenspace at its top {c}")
    if line2.dim != 1:
        return None
    (v1,), (v2,) = _integer_columns(line1.basis), _integer_columns(line2.basis)
    graph = _spin(v1 + v2, [_direct_sum_rows(x1, x2) for x1, x2 in ((m1.A, m2.A), (m1.Astar, m2.Astar))])
    if sorted(graph.rows)[:n] != list(range(n)):
        raise ReducibleModuleError("m1 is reducible: the top eigenline of A1 spins to a proper invariant subspace")
    if len(graph) > n:
        return None
    witness = _tails(graph, n).transpose()  # reduced row j is r_j (e_j, S e_j)
    witness = witness * (1 / next(x for x in witness.entries if x))
    return witness if determinant(witness) != 0 else None


def is_isomorphic(s1: ModuleSpec, s2: ModuleSpec) -> bool:
    """Isomorphism of the modules built from two irreducible specs.

    For irreducible tensor products of evaluation modules, isomorphism holds
    exactly when the specs are equivalent.
    """
    for s in (s1, s2):
        if not is_irreducible_criterion(s):
            raise ReducibleModuleError(f"spec {s.factors} is reducible; isomorphism is not defined here")
    return are_equivalent(s1, s2)
