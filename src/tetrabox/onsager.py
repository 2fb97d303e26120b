"""Construction of Onsager-algebra module data from sl2 evaluation data.

An Onsager module is a pair of square matrices (A, Astar) giving the actions
of the two standard generators. Modules are built from weight-basis sl2
representations, turned into evaluation modules A = e + f, Astar = a e + a^-1 f,
and combined by tensor products (Kronecker sums). The diameter d and the
type shift (alpha, alphastar) describe the spectra {d - 2i + alpha} and
{d - 2i + alphastar} of the two generators.

Every generator x_rs of the tetrahedron algebra acts on the evaluation
factor V(n, a) as rho_n(X_rs), with X_rs = gamma h + alpha e + beta f an
element of sl2 fixed by a (_EVALUATION):

- On V(1, a) = Q^2, x_01 = A and x_23 = Astar have eigenvalues -1 and 1,
  with eigenlines L_0, L_1 = span(1, -/+1) for A and L_2, L_3 =
  span(a, -/+1) for Astar. These lines are the four flags, and the flags
  fix every x_rs: it is -1 on L_r and 1 on L_s, which for a != +-1 is the
  one matrix [[gamma, alpha], [beta, -gamma]] of the table.
- rho_n is a Lie map, so the matrices rho_n(X_rs) satisfy the defining
  relations of the tetrahedron algebra, as the X_rs do on V(1, a), with
  x_01 = rho_n(e + f) = A and x_23 = rho_n(a e + a^-1 f) = Astar. On an
  irreducible module x_01 and x_23 fix the four flags and the flags fix
  every x_rs, so these are the matrices tetra.build_tetra derives.

Everything a spec alone decides lives here, beside ModuleSpec: the
evaluation-parameter criterion and its one-line diagnostic, the equivalence
key, and the spec route of the twelve generators (build_tetra_from_spec,
with the TetraModule record it fills and the corner constants). So
`tetrabox build` loads neither classify nor tetra; both re-export these
names, and every import path keeps working.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from types import MappingProxyType

from ._record import Record
from .errors import ReducibleModuleError, SpectrumError, TypeShiftError
from .linalg import Matrix, Subspace, commutator, kron, ladder_spectrum, require_within_guard

Q0 = Fraction(0)
Q1 = Fraction(1)


class Sl2Triple(Record):
    """Matrices of e, f, h acting on a weight-basis sl2 module."""

    e: Matrix
    f: Matrix
    h: Matrix
    _fields = ("e", "f", "h")

    @property
    def dim(self) -> int:
        return self.h.rows

    def brackets_hold(self) -> bool:
        """Exact check of [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
        return (
            commutator(self.e, self.f) == self.h
            and commutator(self.h, self.e) == 2 * self.e
            and commutator(self.h, self.f) == (-2) * self.f
        )


def sl2_irreducible(n: int) -> Sl2Triple:
    """The (n+1)-dimensional irreducible sl2 module in the weight basis.

    Basis v_0, ..., v_n with h v_i = (n-2i) v_i, f v_i = v_{i+1} and
    e v_i = i(n-i+1) v_{i-1}; all entries are integers.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = n + 1
    e = [[Q0] * m for _ in range(m)]
    f = [[Q0] * m for _ in range(m)]
    h = [[Q0] * m for _ in range(m)]
    for i in range(m):
        h[i][i] = Fraction(n - 2 * i)
        if i + 1 <= n:
            f[i + 1][i] = Q1
        if i >= 1:
            e[i - 1][i] = Fraction(i * (n - i + 1))
    return Sl2Triple(Matrix.from_rows(e), Matrix.from_rows(f), Matrix.from_rows(h))


class OnsagerModule(Record):
    """Actions A, Astar of the two standard Onsager generators on Q^dim.

    The module is its matrices: equality and hash compare dim, A and Astar
    only, whatever built them. Its diameter and type are facts of the
    matrices, derived by module_type.
    """

    dim: int
    A: Matrix
    Astar: Matrix
    _fields = ("dim", "A", "Astar")

    def __post_init__(self):
        if not (self.A.is_square and self.Astar.is_square):
            raise ValueError("generator actions must be square matrices")
        if self.A.rows != self.dim or self.Astar.rows != self.dim:
            raise ValueError("generator size does not match module dimension")


class ModuleSpec(Record):
    """Serializable identity of a module: evaluation factors plus a type shift.

    Each factor (n, a) stands for the (n+1)-dimensional evaluation module
    with nonzero evaluation parameter a; n = 0 gives the trivial factor.
    """

    factors: tuple[tuple[int, Fraction], ...]
    shift: tuple[Fraction, Fraction] = (Q0, Q0)
    _fields = ("factors", "shift")

    def __post_init__(self):
        for n, a in self.factors:
            if n < 0:
                raise ValueError("factor weight must be nonnegative")
            if a == 0:
                raise ValueError("evaluation parameter must be nonzero")

    @classmethod
    def of(cls, factors: Sequence[tuple[int, object]], shift=(0, 0)) -> "ModuleSpec":
        fs = tuple((int(n), Fraction(a)) for n, a in factors)
        return cls(fs, (Fraction(shift[0]), Fraction(shift[1])))

    @property
    def dim(self) -> int:
        d = 1
        for n, _ in self.factors:
            d *= n + 1
        return d

    @property
    def degree_sum(self) -> int:
        return sum(n for n, _ in self.factors)


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


# (gamma, alpha, beta) of X_rs = gamma h + alpha e + beta f, the action of x_rs
# (r < s) on V(1, a); the four pairs that mix A and Astar need a != +-1
_EVALUATION = {
    (0, 1): lambda a: (Q0, Q1, Q1),
    (2, 3): lambda a: (Q0, a, 1 / a),
    (0, 2): lambda a: ((a + 1) / (a - 1), 2 * a / (a - 1), -2 / (a - 1)),
    (1, 3): lambda a: ((a + 1) / (a - 1), -2 * a / (a - 1), 2 / (a - 1)),
    (0, 3): lambda a: ((a - 1) / (a + 1), 2 * a / (a + 1), 2 / (a + 1)),
    (1, 2): lambda a: ((a - 1) / (a + 1), -2 * a / (a + 1), -2 / (a + 1)),
}


def _evaluation_generators(n: int, a: Fraction, pairs) -> dict[tuple[int, int], Matrix]:
    """x_rs = rho_n(gamma h + alpha e + beta f) on V(n, a) for each pair r < s
    asked for (module docstring); a zero h term is not formed."""
    triple = sl2_irreducible(n)
    x = {}
    for pair in pairs:
        gamma, alpha, beta = _EVALUATION[pair](a)
        m = alpha * triple.e + beta * triple.f
        x[pair] = gamma * triple.h + m if gamma else m
    return x


def evaluation_module(n: int, a) -> OnsagerModule:
    """Evaluation module of dimension n+1: A = e + f, Astar = a e + a^-1 f."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("evaluation parameter must be nonzero")
    x = _evaluation_generators(n, a, ((0, 1), (2, 3)))
    return OnsagerModule(n + 1, x[(0, 1)], x[(2, 3)])


def trivial_module() -> OnsagerModule:
    """The unique one-dimensional module of type (0,0)."""
    return evaluation_module(0, 1)


def kronecker_sum(a: Matrix, b: Matrix) -> Matrix:
    return kron(a, Matrix.identity(b.rows)) + kron(Matrix.identity(a.rows), b)


def tensor(m1: OnsagerModule, m2: OnsagerModule) -> OnsagerModule:
    """Tensor product module: each generator acts as a Kronecker sum."""
    return OnsagerModule(m1.dim * m2.dim, kronecker_sum(m1.A, m2.A), kronecker_sum(m1.Astar, m2.Astar))


def _fold(matrices: Iterable[Matrix]) -> Matrix:
    """Left fold of the matrices by Kronecker sums, from the 1 x 1 zero of the trivial module."""
    folded = Matrix.zeros(1, 1)
    for m in matrices:
        folded = kronecker_sum(folded, m)
    return folded


def _folded_generators(spec: ModuleSpec, pairs) -> dict[tuple[int, int], Matrix]:
    """x_rs on the spec's unshifted module for each pair r < s asked for: the
    left fold (_fold) of its evaluation factors' matrices. A trivial factor
    (n = 0) acts as the 1 x 1 zero and is skipped. A spec above the
    dimension guard is refused before any factor is built."""
    require_within_guard(spec.dim, "module dimension")
    factors = [_evaluation_generators(n, a, pairs) for n, a in spec.factors if n]
    return {pair: _fold(factor[pair] for factor in factors) for pair in pairs}


def build_from_spec(spec: ModuleSpec) -> OnsagerModule:
    """Tensor product of the evaluation factors (A = x_01 and Astar = x_23 by
    _folded_generators), then the type shift.

    The module has diameter spec.degree_sum and type spec.shift, which
    module_type recomputes from the matrices: each factor (n, a) has A and
    Astar diagonalizable with spectrum {n, n-2, ..., -n}, and a Kronecker
    sum of diagonalizable matrices is diagonalizable with the sums of their
    eigenvalues. A spec above the dimension guard is refused before any
    factor is built.
    """
    x = _folded_generators(spec, ((0, 1), (2, 3)))
    module = OnsagerModule(spec.dim, x[(0, 1)], x[(2, 3)])
    alpha, alphastar = spec.shift
    if alpha or alphastar:
        ident = Matrix.identity(module.dim)
        module = OnsagerModule(module.dim, module.A + alpha * ident, module.Astar + alphastar * ident)
    return module


CORNERS = (0, 1, 2, 3)

ORDERED_PAIRS = tuple((r, s) for r in CORNERS for s in CORNERS if r != s)

UNORDERED_PAIRS = tuple((r, s) for r in CORNERS for s in CORNERS if r < s)

# the three ways to split the four corners into two disjoint pairs
OPPOSITE_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


class TetraModule(Record):
    """The twelve generator matrices x_rs on one module, as a read-only copy
    of the table given; the four flags are four_flags of (x_01, x_23)."""

    dim: int
    diameter: int
    x: MappingProxyType[tuple[int, int], Matrix]
    _fields = ("dim", "diameter", "x")
    # compared by identity: x is a mapping proxy, which has no hash
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        object.__setattr__(self, "x", MappingProxyType(dict(self.x)))
        if set(self.x) != set(ORDERED_PAIRS):
            raise ValueError("expected one matrix per ordered pair of distinct corners")
        for pair, mat in self.x.items():
            if not mat.is_square or mat.rows != self.dim:
                raise ValueError(f"matrix for {pair} does not act on the module")


def build_tetra_from_spec(spec: ModuleSpec) -> TetraModule:
    """The twelve generator matrices of a spec's module, folded from its factors.

    On each evaluation factor (n_i, a_i), x_rs for r < s is rho_n of its
    closed form in sl2, and the factors' matrices are folded as
    build_from_spec folds A and Astar (_folded_generators), so x_01 and x_23
    equal its A and Astar entry for entry and every x_rs equals
    tetra.build_tetra(build_from_spec(spec)).x[rs] (module docstring).
    Only x_rs with r < s is folded: x_sr = -x_rs on each factor, and a
    Kronecker sum is linear.

    Refuses the specs tetra.build_tetra(build_from_spec(spec)) refuses,
    before any factor is built, in this order and with the one-line texts
    `tetrabox build` prints: ReducibleModuleError when the
    evaluation-parameter criterion fails (a = +-1, where the closed forms
    have no value, or a collision between two factors, which is invisible
    to each factor alone), TypeShiftError on a nonzero shift,
    DimensionGuardError when spec.dim is above linalg.DIM_GUARD.
    """
    reason = _reducibility_diagnostic(spec)
    if reason is not None:
        raise ReducibleModuleError(reason)
    alpha, alphastar = spec.shift
    if alpha != 0 or alphastar != 0:
        raise TypeShiftError(f"type shift ({alpha}, {alphastar}) is not (0, 0); "
                             "only type-(0,0) modules carry the six-generator structure")
    x = _folded_generators(spec, UNORDERED_PAIRS)
    x.update({(s, r): -x[(r, s)] for r, s in UNORDERED_PAIRS})
    return TetraModule(dim=spec.dim, diameter=spec.degree_sum, x=x)


# the refusal of a generator that is not diagonalizable with spectrum c, c-2, ..., c-2d
_NOT_A_LADDER = (
    "spectrum is not of the form {c, c-2, ..., c-2d} with the matrix "
    "diagonalizable; not an irreducible Onsager module candidate"
)


def _generator_spectrum(m: Matrix) -> tuple[tuple[Fraction, ...], tuple[Subspace, ...]]:
    """The eigenvalues c, c-2, ..., c-2d of a generator m and its eigenspaces
    at them (linalg.ladder_spectrum); SpectrumError when m is not
    diagonalizable over Q with such a spectrum, or is 0 x 0."""
    if m.rows == 0:
        raise SpectrumError("scalar spectrum could not be extracted")
    spectrum = ladder_spectrum(m)
    if spectrum is None:
        raise SpectrumError(_NOT_A_LADDER)
    return spectrum


def _module_spectra(m: OnsagerModule) -> tuple[int, Fraction, Fraction, tuple[Subspace, ...], tuple[Subspace, ...]]:
    """module_type of m, with the eigenspaces of A and of Astar at their
    eigenvalues c, c-2, ..., c-2d from the same spectral pass."""
    values_a, spaces_a = _generator_spectrum(m.A)
    values_s, spaces_s = _generator_spectrum(m.Astar)
    d_a, d_s = len(values_a) - 1, len(values_s) - 1
    if d_a != d_s:
        raise SpectrumError(f"generator spectra have different lengths ({d_a + 1} vs {d_s + 1})")
    return d_a, values_a[0] - d_a, values_s[0] - d_s, spaces_a, spaces_s


def module_type(m: OnsagerModule) -> tuple[int, Fraction, Fraction]:
    """Diameter d and type (alpha, alphastar) of a module candidate.

    Each generator's distinct eigenvalues must step down by 2 from a top c:
    linalg.ladder_spectrum reads them by the ladder test off its minimal
    polynomial on one vector, certified by their eigenspaces, or off its
    minimal polynomial when those fall short. Then d + 1 is their number
    and c - d the type. Raises SpectrumError when either generator is not
    diagonalizable over Q with a spectrum of the form {c, c-2, ..., c-2d}
    (a 0 x 0 generator has no spectrum), or when the two diameters differ.
    """
    return _module_spectra(m)[:3]


def normalize_type(m: OnsagerModule) -> OnsagerModule:
    """The module with both generators shifted to type (0,0); a module of
    type (0,0) comes back equal to m."""
    _, alpha, alphastar = module_type(m)
    ident = Matrix.identity(m.dim)
    return OnsagerModule(m.dim, m.A - alpha * ident, m.Astar - alphastar * ident)


def dolan_grady_holds(x: Matrix, y: Matrix) -> bool:
    """Exact check of both Dolan-Grady relations for the pair (x, y): with
    xy = [x, y], [x, [x, xy]] = 4xy and, negated, [y, [y, xy]] = 4xy."""
    xy = commutator(x, y)
    four = 4 * xy
    return commutator(x, commutator(x, xy)) == four and commutator(y, commutator(y, xy)) == four
