"""Assembly and verification of the full six-generator module structure.

From an irreducible type-(0,0) Onsager module, every ordered pair (r, s) of
distinct corner indices determines a decomposition of the space (induced by
the opposite flags r and s), and the generator x_rs acts on its i-th piece
as the scalar 2i - d. This module assembles all twelve matrices x_rs by an
explicit change of basis, and verifies against them every defining relation
of the tetrahedron algebra: antisymmetry x_rs + x_sr = 0, the triangle
relation [x_rs, x_st] = 2 x_rs + 2 x_st, and the Dolan-Grady relation
between generators with four distinct indices. Spectral facts (common
eigenvalue set {d-2i}, eigenspace dimension tables, the action of one
generator on another's eigenspaces, flag independence) are verified as
exact subspace statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .classify import ORACLE_GUARD, is_irreducible_spin, pair_generates_full_algebra
from .errors import DimensionGuardError, OppositionError, ReducibleModuleError, TypeShiftError
from .flags import Flag, four_flags, induced_decomposition
from .linalg import Matrix, Subspace, commutator, eigenspace, hstack, inverse, subspace_sum
from .onsager import OnsagerModule, module_type

CORNERS = (0, 1, 2, 3)

ORDERED_PAIRS = tuple((r, s) for r in CORNERS for s in CORNERS if r != s)

UNORDERED_PAIRS = tuple((r, s) for r in CORNERS for s in CORNERS if r < s)

# the three ways to split the four corners into two disjoint pairs
OPPOSITE_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


@dataclass(frozen=True)
class CheckResult:
    """One verified identity or inclusion, with the residual on failure."""

    relation: str
    instance: tuple
    passed: bool
    residual: Matrix | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


@dataclass(frozen=True)
class EigenTable:
    """Eigenspace dimensions of every generator at every eigenvalue d-2i."""

    eigenvalues: tuple[Fraction, ...]
    dims: dict[tuple[int, int], tuple[int, ...]]
    constant_across_pairs: bool
    symmetric: bool
    sums_to_dim: bool

    @property
    def all_passed(self) -> bool:
        return self.constant_across_pairs and self.symmetric and self.sums_to_dim


@dataclass(frozen=True, eq=False)
class TetraModule:
    """The twelve generator matrices x_rs on one module, plus its four flags."""

    dim: int
    diameter: int
    x: dict[tuple[int, int], Matrix]
    flags: tuple[Flag, Flag, Flag, Flag] | None = None

    def __post_init__(self):
        if set(self.x) != set(ORDERED_PAIRS):
            raise ValueError("expected one matrix per ordered pair of distinct corners")
        for pair, mat in self.x.items():
            if not mat.is_square or mat.rows != self.dim:
                raise ValueError(f"matrix for {pair} does not act on the module")


def _opposite_decompositions(flags: tuple[Flag, ...]) -> dict[tuple[int, int], tuple[Subspace, ...]]:
    """Decomposition induced by every ordered pair of the four flags.

    Raises OppositionError naming the first pair that is not opposite.
    """
    decomps: dict[tuple[int, int], tuple[Subspace, ...]] = {}
    for r, s in ORDERED_PAIRS:
        try:
            decomps[(r, s)] = induced_decomposition(flags[r], flags[s]).subspaces
        except OppositionError as exc:
            raise OppositionError(f"flags {r} and {s} are not opposite: {exc}") from None
    return decomps


def build_tetra(m: OnsagerModule, guard: int = ORACLE_GUARD) -> TetraModule:
    """Assemble all twelve generator matrices from the four flags of m.

    The input must be irreducible of type (0,0). Reducibility is rejected
    up front by Norton's spinning test, at any dimension. Only when the top
    eigenspace of A is not a line does the spin defer to the Burnside test,
    which is bounded by guard; above it the flag-opposition scan still
    rejects reducible input, naming the first failing pair of flags.
    """
    d, alpha, alphastar = module_type(m)
    if alpha != 0 or alphastar != 0:
        raise TypeShiftError(f"module has type ({alpha}, {alphastar}); normalize to (0, 0) first")
    try:
        if not is_irreducible_spin(m, Fraction(d), guard=guard):
            raise ReducibleModuleError("module is reducible: the generated algebra is not full")
    except DimensionGuardError:
        pass  # undecided above the guard; the opposition scan below rejects
    flags = four_flags(m)
    decomps = _opposite_decompositions(flags)
    x: dict[tuple[int, int], Matrix] = {}
    for (r, s), pieces in decomps.items():
        basis = hstack(*(piece.basis for piece in pieces))
        diag_entries: list[Fraction] = []
        for i, piece in enumerate(pieces):
            diag_entries.extend([Fraction(2 * i - d)] * piece.dim)
        diag = Matrix(m.dim, m.dim, tuple(
            diag_entries[i] if i == j else Fraction(0) for i in range(m.dim) for j in range(m.dim)
        ))
        x[(r, s)] = basis * diag * inverse(basis)
    return TetraModule(dim=m.dim, diameter=d, x=x, flags=flags)


def verify_relations(t: TetraModule) -> VerificationReport:
    """Evaluate every defining relation instance as an exact matrix identity."""
    checks: list[CheckResult] = []
    x = t.x
    for r, s in UNORDERED_PAIRS:
        residual = x[(r, s)] + x[(s, r)]
        checks.append(CheckResult("antisymmetry", (r, s), residual.is_zero(),
                                  None if residual.is_zero() else residual))
    for r, s, tt in permutations(CORNERS, 3):
        residual = commutator(x[(r, s)], x[(s, tt)]) - 2 * x[(r, s)] - 2 * x[(s, tt)]
        checks.append(CheckResult("triangle", (r, s, tt), residual.is_zero(),
                                  None if residual.is_zero() else residual))
    for r, s, tt, u in permutations(CORNERS, 4):
        a, b = x[(r, s)], x[(tt, u)]
        inner = commutator(a, b)
        residual = commutator(a, commutator(a, inner)) - 4 * inner
        checks.append(CheckResult("dolan_grady", (r, s, tt, u), residual.is_zero(),
                                  None if residual.is_zero() else residual))
    return VerificationReport(tuple(checks))


def _eigenspace_chain(t: TetraModule, pair: tuple[int, int]) -> list[Subspace]:
    """Eigenspaces of x_pair at d, d-2, ..., -d (zero subspace when absent)."""
    d = t.diameter
    return [eigenspace(t.x[pair], Fraction(d - 2 * i)) for i in range(d + 1)]


def eigentable(t: TetraModule) -> EigenTable:
    """Eigenspace dimension table over all six generator pairs."""
    d = t.diameter
    eigenvalues = tuple(Fraction(d - 2 * i) for i in range(d + 1))
    dims: dict[tuple[int, int], tuple[int, ...]] = {}
    for pair in UNORDERED_PAIRS:
        dims[pair] = tuple(space.dim for space in _eigenspace_chain(t, pair))
    rows = list(dims.values())
    constant = all(row == rows[0] for row in rows)
    symmetric = all(row == row[::-1] for row in rows)
    sums = all(sum(row) == t.dim for row in rows)
    return EigenTable(eigenvalues, dims, constant, symmetric, sums)


def _maps_into(mat: Matrix, source: Subspace, target: Subspace) -> bool:
    return all(target.contains_vector(mat.apply(col)) for col in source.basis_columns())


def verify_action_table(t: TetraModule) -> VerificationReport:
    """Check how each generator moves each eigenspace of every other one.

    For x_tu acting on the eigenspace of x_rs at eigenvalue lam, the verified
    inclusion depends on how {t,u} meets {r,s}: equal or reversed pairs act
    as scalars, one shared index shifts the eigenvalue by 2 (up or down, with
    the sign fixed by which index is shared), and four distinct indices keep
    the vector within the three adjacent eigenspaces.
    """
    d = t.diameter
    dim = t.dim
    ident = Matrix.identity(dim)
    zero = Subspace.zero(dim)
    chains = {pair: _eigenspace_chain(t, pair) for pair in ORDERED_PAIRS}

    def space_at(pair: tuple[int, int], lam: Fraction) -> Subspace:
        idx = (d - lam) / 2
        if idx.denominator != 1 or not (0 <= idx <= d):
            return zero
        return chains[pair][int(idx)]

    checks: list[CheckResult] = []
    for r, s in ORDERED_PAIRS:
        for tt, u in ORDERED_PAIRS:
            for i in range(d + 1):
                lam = Fraction(d - 2 * i)
                source = space_at((r, s), lam)
                mat = t.x[(tt, u)]
                if (tt, u) == (r, s):
                    case, shifted, target = "fixes", mat - lam * ident, zero
                elif (tt, u) == (s, r):
                    case, shifted, target = "negates", mat + lam * ident, zero
                elif tt == s:
                    case, shifted, target = "raises_plus", mat + lam * ident, space_at((r, s), lam + 2)
                elif u == s:
                    case, shifted, target = "raises_minus", mat - lam * ident, space_at((r, s), lam + 2)
                elif tt == r:
                    case, shifted, target = "lowers_minus", mat - lam * ident, space_at((r, s), lam - 2)
                elif u == r:
                    case, shifted, target = "lowers_plus", mat + lam * ident, space_at((r, s), lam - 2)
                else:
                    window = subspace_sum(
                        subspace_sum(space_at((r, s), lam + 2), source), space_at((r, s), lam - 2)
                    )
                    case, shifted, target = "adjacent", mat, window
                passed = _maps_into(shifted, source, target)
                checks.append(CheckResult(f"action_{case}", (r, s, tt, u, str(lam)), passed))
    return VerificationReport(tuple(checks))


def flag_independence_check(t: TetraModule) -> bool:
    """Partial eigenspace sums of x_rs and x_rt agree for every r and lambda."""
    d = t.diameter
    for r in CORNERS:
        others = [s for s in CORNERS if s != r]
        partials = {}
        for s in others:
            chain = _eigenspace_chain(t, (r, s))  # eigenvalues d down to -d
            sums = []
            acc = Subspace.zero(t.dim)
            for space in reversed(chain):  # accumulate upward from -d
                acc = subspace_sum(acc, space)
                sums.append(acc)
            partials[s] = sums
        for s, tt in ((others[0], others[1]), (others[0], others[2]), (others[1], others[2])):
            if partials[s] != partials[tt]:
                return False
    return True


def pairwise_burnside(t: TetraModule, guard: int = ORACLE_GUARD) -> bool:
    """Each of the three disjoint generator pairs alone generates End(V)."""
    return all(
        pair_generates_full_algebra(t.x[p1], t.x[p2], guard=guard)
        for p1, p2 in OPPOSITE_PAIRS
    )


def rebuild_from_standard_generators(t: TetraModule) -> TetraModule:
    """Rebuild all twelve matrices from x_01 and x_23 of the given structure."""
    return build_tetra(OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)]))


def roundtrip_uniqueness(m: OnsagerModule) -> bool:
    """Fixed-point test of the construction.

    Builds the twelve matrices, re-derives the four flags from the standard
    generators x_01, x_23 of the result, rebuilds everything, and demands a
    bit-identical outcome with x_01 = A and x_23 = Astar.
    """
    first = build_tetra(m)
    if first.x[(0, 1)] != m.A or first.x[(2, 3)] != m.Astar:
        return False
    second = rebuild_from_standard_generators(first)
    return second.x == first.x and second.flags == first.flags
