"""Assembly and verification of the full six-generator module structure.

Two routes build the twelve matrices, and they agree entry for entry.

From a spec, build_tetra_from_spec follows the paper's classification:
an irreducible module is a tensor product of evaluation modules, and the
tetrahedron algebra acts on V (x) W by x_rs (x) I + I (x) x_rs. So each
small evaluation factor is built by the flag route below and the six x_rs
with r < s are folded by Kronecker sums, in the left-fold order of
onsager.build_from_spec, and negated for x_sr. The fold is a tetrahedron
structure with x_01 = A and x_23 = Astar; its four flags are the
eigenspace flags of x_01, x_10, x_23 and x_32, and those flags fix every
x_rs, so it is the structure the flag route derives.

From bare matrices (no factorization known), every ordered pair (r, s) of
distinct corner indices determines a decomposition of the space (induced by
the opposite flags r and s), and the generator x_rs acts on its i-th piece
as the scalar 2i - d. The pair (s, r) induces the same pieces in reverse
order, and 2(d-i) - d = -(2i - d), so x_sr = -x_rs: this module builds six
decompositions, reads x_rs for r < s off one integer elimination each
(flags._acting_as) and negates it for x_sr. The decompositions of (0, 1)
and (2, 3) are the eigenspace chains of A and Astar that certify their
spectra (onsager.module_type), so only the four pairs that mix A and Astar
intersect flags.

It verifies against any twelve matrices (a file's are independent data)
every defining relation of the tetrahedron algebra: antisymmetry
x_rs + x_sr = 0, the triangle relation [x_rs, x_st] = 2 x_rs + 2 x_st, and
the Dolan-Grady relation between generators with four distinct indices.
The relations are decided by plain matrix algebra, which runs on integer
rows over one denominator per matrix (see linalg), and each instance is the
test that its residual matrix vanishes. Spectral facts (common eigenvalue
set {d-2i}, eigenspace dimension tables, the action of one generator on
another's eigenspaces, flag independence) are verified as exact subspace
statements.
Each inclusion of the image of an eigenspace of x_rs under a shifted x_tu
in a sum of eigenspaces of x_rs, and each inclusion of an eigenspace of x_rt
in a partial eigenspace sum of x_rs (flag independence), is the test that a
product of factors x_rs - mu I annihilates it (linalg.annihilates): no
change of basis, no inverse and no subspace sum. A TetraModule's matrices
are read-only, so the eigenspace chain of each generator is computed once
per TetraModule and shared by every check that needs it.

Verification runs on six generators once antisymmetry is shown. Wherever
a file's own x_sr equals -x_rs exactly (one comparison of canonical forms,
never assumed), every check on x_sr is the same check on x_rs read through
the sign: its eigenspace chain is x_rs's reversed, its action-table rows and
columns repeat x_rs's verdicts, and its triangle and Dolan-Grady residuals
are x_rs's up to sign. So the reports equal those of twelve independent
generators, and a pair that is not antisymmetric is computed in full.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from types import MappingProxyType

from ._record import Record
from .classify import _full_algebra, _reducibility_diagnostic
from .errors import OppositionError, ReducibleModuleError, TypeShiftError
from .flags import _acting_as, _flag_components, _induced_subspaces
from .linalg import (
    Matrix,
    Subspace,
    annihilates,
    commutator,
    eigenspace,
    hstack,
    require_within_guard,
)
from .onsager import (
    ModuleSpec,
    OnsagerModule,
    _dolan_grady_residual,
    _module_spectra,
    evaluation_module,
    kronecker_sum,
)

CORNERS = (0, 1, 2, 3)

ORDERED_PAIRS = tuple((r, s) for r in CORNERS for s in CORNERS if r != s)

UNORDERED_PAIRS = tuple((r, s) for r in CORNERS for s in CORNERS if r < s)

# the three ways to split the four corners into two disjoint pairs
OPPOSITE_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


class CheckResult(Record):
    """One verified identity or inclusion, with the residual on failure."""

    relation: str
    instance: tuple
    passed: bool
    residual: Matrix | None = None
    _fields = ("relation", "instance", "passed", "residual")


class VerificationReport(Record):
    checks: tuple[CheckResult, ...]
    _fields = ("checks",)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


class EigenTable(Record):
    """Eigenspace dimensions of every generator at every eigenvalue d-2i.

    diameter_attained: d is an eigenvalue of some generator, so of all of
    them when constant_across_pairs holds, and the declared d is no mere bound.
    """

    eigenvalues: tuple[Fraction, ...]
    dims: dict[tuple[int, int], tuple[int, ...]]
    constant_across_pairs: bool
    symmetric: bool
    sums_to_dim: bool
    diameter_attained: bool
    _fields = ("eigenvalues", "dims", "constant_across_pairs", "symmetric", "sums_to_dim", "diameter_attained")

    @property
    def all_passed(self) -> bool:
        return self.constant_across_pairs and self.symmetric and self.sums_to_dim and self.diameter_attained


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
        object.__setattr__(self, "_chains", {})
        if set(self.x) != set(ORDERED_PAIRS):
            raise ValueError("expected one matrix per ordered pair of distinct corners")
        for pair, mat in self.x.items():
            if not mat.is_square or mat.rows != self.dim:
                raise ValueError(f"matrix for {pair} does not act on the module")


def build_tetra(m: OnsagerModule) -> TetraModule:
    """Assemble all twelve generator matrices from the four flags of m.

    For each pair r < s, x_rs is the one matrix that acts on piece i of the
    decomposition the flags r and s induce as the scalar 2i - d, read off
    one elimination (flags._acting_as); x_sr is -x_rs, since the pair
    (s, r) induces the same pieces in reverse order.

    Flag 1 is flag 0's decomposition inverted, so the pieces of (0, 1) are
    the eigenspaces of A at 2i - d that module_type certified the spectra
    with, in the canonical form an intersection gives, and those of (2, 3)
    are Astar's: only the four pairs that mix A and Astar intersect flags.

    The input must be irreducible of type (0,0). Norton's spinning test
    decides that at any dimension at the first eigenline of A at d, d-2,
    ..., the eigenspaces the spectral pass holds; on every irreducible
    module that is the one at d. Where A has no eigenline the Burnside
    closure decides, and when dim^2 is above linalg.DIM_GUARD it raises
    DimensionGuardError rather than build: the flag-opposition scan passes
    some reducible modules, such as V + V. four_flags(m) gives the flags.
    """
    d, alpha, alphastar, spaces_a, spaces_s = _module_spectra(m)
    if alpha != 0 or alphastar != 0:
        raise TypeShiftError(f"module has type ({alpha}, {alphastar}); normalize to (0, 0) first")
    if not _full_algebra(m.A, m.Astar, zip(range(d, -d - 1, -2), spaces_a)):
        raise ReducibleModuleError("module is reducible: the generated algebra is not full")
    chains = {(0, 1): spaces_a[::-1], (2, 3): spaces_s[::-1]}  # eigenvalues -d up to d
    flags = _flag_components(*chains.values())
    x: dict[tuple[int, int], Matrix] = {}
    for r, s in UNORDERED_PAIRS:
        pieces = chains[(r, s)] if (r, s) in chains else _induced_subspaces(flags[r], flags[s])
        if isinstance(pieces, str):
            raise OppositionError(f"flags {r} and {s} are not opposite: {pieces}")
        x[(r, s)] = _acting_as(range(-d, d + 1, 2), pieces)
        x[(s, r)] = -x[(r, s)]
    return TetraModule(dim=m.dim, diameter=d, x=x)


def build_tetra_from_spec(spec: ModuleSpec) -> TetraModule:
    """The twelve generator matrices of a spec's module, folded from its factors.

    Each evaluation factor (n_i, a_i) is built by build_tetra, and the
    factors' matrices are combined by Kronecker sums in the left-fold order
    of build_from_spec, so x_01 and x_23 equal its A and Astar entry for
    entry and every x_rs equals build_tetra(build_from_spec(spec)).x[rs].
    Only x_rs with r < s is folded: x_sr = -x_rs on each factor, and a
    Kronecker sum is linear.

    Refuses the specs build_tetra(build_from_spec(spec)) refuses, before any
    factor is built, in this order and with the one-line texts `tetrabox
    build` prints: ReducibleModuleError when the evaluation-parameter
    criterion fails (a collision between two factors is invisible to each
    factor alone), TypeShiftError on a nonzero shift, DimensionGuardError
    when spec.dim is above linalg.DIM_GUARD.
    """
    reason = _reducibility_diagnostic(spec)
    if reason is not None:
        raise ReducibleModuleError(reason)
    alpha, alphastar = spec.shift
    if alpha != 0 or alphastar != 0:
        raise TypeShiftError(f"type shift ({alpha}, {alphastar}) is not (0, 0); "
                             "only type-(0,0) modules carry the six-generator structure")
    require_within_guard(spec.dim, "module dimension")
    x = {pair: Matrix.zeros(1, 1) for pair in UNORDERED_PAIRS}  # the trivial module, the unit of the fold
    for n, a in spec.factors:
        factor = build_tetra(evaluation_module(n, a)).x
        x = {pair: kronecker_sum(x[pair], factor[pair]) for pair in UNORDERED_PAIRS}
    x.update({(s, r): -x[(r, s)] for r, s in UNORDERED_PAIRS})
    return TetraModule(dim=spec.dim, diameter=spec.degree_sum, x=x)


def _antisymmetric_pairs(t: TetraModule) -> frozenset[tuple[int, int]]:
    """The ordered pairs (r, s), both orders, on which x_sr = -x_rs holds exactly.

    Decided on t's own matrices by one comparison of canonical forms per
    pair r < s, never assumed. On such a pair every check on x_sr is a check
    on x_rs read through the sign, so the checks of the pair are computed once
    (see _eigenspace_chain, verify_relations and verify_action_table).
    """
    pairs = [(r, s) for r, s in UNORDERED_PAIRS if t.x[(s, r)] == -t.x[(r, s)]]
    return frozenset(pairs + [(s, r) for r, s in pairs])


def _oriented(pair: tuple[int, int], antisymmetric: frozenset) -> tuple[tuple[int, int], int]:
    """The pair whose checks decide pair's, and the sign: (s, r) and -1 when
    r > s and x_rs = -x_sr, else pair itself and 1."""
    r, s = pair
    return ((s, r), -1) if r > s and pair in antisymmetric else (pair, 1)


def verify_relations(t: TetraModule) -> VerificationReport:
    """Evaluate every defining relation instance as an exact matrix identity.

    Each residual is a Matrix, and a Matrix is exact integer rows over one
    denominator, so an instance passes exactly when its residual is zero.
    Antisymmetry is checked on every pair and assumed nowhere. Where it
    holds, the other instances are computed on six generators: triangle
    (t, s, r) has residual -residual(r, s, t) once x_sr = -x_rs and
    x_ts = -x_st, and Dolan-Grady is odd in each of its two generators, so
    the four orientations of {r, s}, {t, u} share one residual up to sign.
    The inner commutator of Dolan-Grady is shared too, since
    [x_tu, x_rs] = -[x_rs, x_tu] for any two matrices.
    """
    x = t.x
    antisymmetric = _antisymmetric_pairs(t)
    checks: list[CheckResult] = []

    def record(relation: str, instance: tuple, residual: Matrix, sign: int = 1) -> None:
        passed = residual.is_zero()
        checks.append(CheckResult(relation, instance, passed, None if passed else sign * residual))

    for r, s in UNORDERED_PAIRS:
        record("antisymmetry", (r, s), x[(r, s)] + x[(s, r)])
    triangles: dict = {}
    for r, s, tt in permutations(CORNERS, 3):
        if r > tt and {(r, s), (s, tt)} <= antisymmetric:
            record("triangle", (r, s, tt), triangles[(tt, s, r)], -1)
            continue
        a, b = x[(r, s)], x[(s, tt)]
        triangles[(r, s, tt)] = residual = commutator(a, b) - 2 * (a + b)
        record("triangle", (r, s, tt), residual)
    inner: dict = {}
    dolan_grady: dict = {}
    for r, s, tt, u in permutations(CORNERS, 4):
        first, sign_first = _oriented((r, s), antisymmetric)
        second, sign_second = _oriented((tt, u), antisymmetric)
        residual = dolan_grady.get((first, second))
        if residual is None:
            if (second, first) in inner:
                bracket = -inner[(second, first)]
            else:
                bracket = inner[(first, second)] = commutator(x[first], x[second])
            residual = dolan_grady[(first, second)] = _dolan_grady_residual(x[first], bracket)
        record("dolan_grady", (r, s, tt, u), residual, sign_first * sign_second)
    return VerificationReport(tuple(checks))


def _eigenspace_chain(t: TetraModule, pair: tuple[int, int]) -> tuple[Subspace, ...]:
    """Eigenspaces of x_pair at d, d-2, ..., -d (zero subspace when absent).

    Computed once per pair and kept on t; t.x is read-only, so the chain
    stays the chain of t.x[pair]. For r > s with x_rs = -x_sr exactly, the
    chain of x_rs is the chain of x_sr reversed, so on a file that passes
    antisymmetry the eigenspace table, the action table and the
    flag-independence check share six chains, and twelve otherwise.
    """
    chain = t._chains.get(pair)
    if chain is None:
        if pair[0] > pair[1] and pair in _antisymmetric_pairs(t):
            chain = _eigenspace_chain(t, pair[::-1])[::-1]
        else:
            d = t.diameter
            chain = tuple(eigenspace(t.x[pair], Fraction(d - 2 * i)) for i in range(d + 1))
        t._chains[pair] = chain
    return chain


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
    attained = any(row[0] > 0 for row in rows)
    return EigenTable(eigenvalues, dims, constant, symmetric, sums, attained)


def _action_case(r: int, s: int, tt: int, u: int) -> tuple[str, int, tuple[int, ...]]:
    """How x_tu moves the eigenspaces of x_rs.

    Returns the case name, the sign c with which x_tu + c*lam is applied
    to the eigenspace at lam = d-2i, and the offsets k of the eigenspaces
    i+k that must contain the image (i-1 holds lam+2, i+1 holds lam-2).
    """
    if (tt, u) == (r, s):
        return "fixes", -1, ()
    if (tt, u) == (s, r):
        return "negates", 1, ()
    if tt == s:
        return "raises_plus", 1, (-1,)
    if u == s:
        return "raises_minus", -1, (-1,)
    if tt == r:
        return "lowers_minus", -1, (1,)
    if u == r:
        return "lowers_plus", 1, (1,)
    return "adjacent", 0, (-1, 0, 1)


def verify_action_table(t: TetraModule) -> VerificationReport:
    """Check how each generator moves each eigenspace of every other one.

    For x_tu acting on the eigenspace of x_rs at eigenvalue lam, the verified
    inclusion depends on how {t,u} meets {r,s}: equal or reversed pairs act
    as scalars, one shared index shifts the eigenvalue by 2 (up or down, with
    the sign fixed by which index is shared), and four distinct indices keep
    the vector within the three adjacent eigenspaces.

    With P_i the basis of the eigenspace E_i of x_rs at lam_i = d-2i, the
    inclusion (x_tu + c lam_i) E_i in the sum of the E_j over the targets j
    (those in 0..d; none means the image is zero) holds exactly when
    prod_j (x_rs - lam_j) (x_tu + c lam_i) P_i = 0, since for distinct lam_j
    the kernel of that product is the sum of the E_j (linalg.annihilates).
    x_rs P_i = lam_i P_i, so (x_tu + c lam_i) P_i is block i of
    (x_tu + c x_rs) P: one product per pair of generators, then at most
    three products of x_rs with it, shared by all d+1 blocks.

    Each antisymmetric pair is checked on one generator. With x_sr = -x_rs,
    check (s, r, t, u, lam) states what (r, s, t, u, -lam) does, since c and
    the offsets both change sign (fixes and negates, raises_plus and
    lowers_minus, raises_minus and lowers_plus trade places); with
    x_ut = -x_tu, column (u, t) states what column (t, u) does at every lam.
    So a file that passes antisymmetry takes 36 of the 144 pairs.
    """
    d = t.diameter
    ladder = [d - 2 * i for i in range(d + 1)]
    antisymmetric = _antisymmetric_pairs(t)
    oriented = {pair: _oriented(pair, antisymmetric) for pair in ORDERED_PAIRS}
    own = [pair for pair in ORDERED_PAIRS if oriented[pair][0] == pair]
    verdicts: dict = {}
    for r, s in own:
        chain = _eigenspace_chain(t, (r, s))
        stacked = hstack(*(space.basis for space in chain))
        x_rs = t.x[(r, s)]
        for tt, u in own:
            _, sign, offsets = _action_case(r, s, tt, u)
            image = (t.x[(tt, u)] + sign * x_rs) * stacked
            targets = [[lam - 2 * k for k in offsets if abs(lam - 2 * k) <= d] for lam in ladder]
            blocks = [(space.dim, roots) for space, roots in zip(chain, targets)]
            verdicts[((r, s), (tt, u))] = annihilates(x_rs, image, blocks)
    checks: list[CheckResult] = []
    for r, s in ORDERED_PAIRS:
        row, row_sign = oriented[(r, s)]
        for tt, u in ORDERED_PAIRS:
            case = _action_case(r, s, tt, u)[0]
            # row_sign -1 reverses: x_rs at lam is read off x_sr at -lam
            for lam, passed in zip(ladder, verdicts[(row, oriented[(tt, u)][0])][::row_sign]):
                checks.append(CheckResult(f"action_{case}", (r, s, tt, u, str(lam)), passed))
    return VerificationReport(tuple(checks))


def flag_independence_check(t: TetraModule) -> bool:
    """Partial eigenspace sums of x_rs and x_rt agree for every r and lambda.

    Accumulated upward from -d, the k-th partial sum of x_rs is the direct
    sum of its eigenspaces at theta_0, ..., theta_k (theta_j = 2j - d), which
    is the kernel of prod_{j<=k} (x_rs - theta_j) by Bezout. So, with s the
    first corner other than r, the sums of x_rt equal those of x_rs exactly
    when the eigenspace dimensions of the two agree step by step (the sums
    then have equal dimensions) and that product annihilates the k-th
    eigenspace of x_rt for every k (each sum of x_rt then lies in the one of
    x_rs): one linalg.annihilates call for each of the two other t, and no
    subspace sum.
    """
    d = t.diameter
    thetas = [2 * j - d for j in range(d + 1)]
    for r in CORNERS:
        s, *others = [c for c in CORNERS if c != r]
        dims = [space.dim for space in reversed(_eigenspace_chain(t, (r, s)))]
        for tt in others:
            chain = _eigenspace_chain(t, (r, tt))[::-1]  # eigenvalues -d up to d
            if [space.dim for space in chain] != dims:
                return False
            blocks = [(space.dim, thetas[: k + 1]) for k, space in enumerate(chain)]
            if not all(annihilates(t.x[(r, s)], hstack(*(space.basis for space in chain)), blocks)):
                return False
    return True


def pairwise_burnside(t: TetraModule) -> bool:
    """Each of the three disjoint generator pairs alone generates End(V).

    Norton's test is sound at any eigenvalue whose eigenspace is a line, so
    each pair is decided at any dimension by one spin, at the first line of
    the eigenspace chain of x_p (d, d-2, ...), which eigentable has already
    computed and kept on t; on every irreducible structure that is
    ker(x_p - d). Where the chain has no line, the Burnside closure
    decides, within the guard; a verdict already kept on x_p (classify) is
    read back.
    """
    d = t.diameter
    return all(_full_algebra(t.x[p1], t.x[p2], zip(range(d, -d - 1, -2), _eigenspace_chain(t, p1)))
               for p1, p2 in OPPOSITE_PAIRS)


def roundtrip_uniqueness(m: OnsagerModule) -> bool:
    """Round trip of the construction: t = build_tetra(m) has x_01 = A and
    x_23 = Astar, entry for entry.

    One build decides it. When t passes, a rebuild from t's standard
    generators x_01, x_23 would hand build_tetra exactly m's dim, A and
    Astar, which is all of its input that build_tetra reads, so the rebuild
    would repeat t's twelve matrices and its comparison with t could not
    fail.
    """
    t = build_tetra(m)
    return t.x[(0, 1)] == m.A and t.x[(2, 3)] == m.Astar
