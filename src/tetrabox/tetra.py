"""Assembly and verification of the full six-generator module structure.

Two routes build the twelve matrices, and they agree entry for entry.

From a spec, build_tetra_from_spec follows the paper's classification:
an irreducible module is a tensor product of evaluation modules, and the
tetrahedron algebra acts on V (x) W by x_rs (x) I + I (x) x_rs. On each
evaluation factor V(n, a), x_rs is rho_n of a fixed element of sl2, read off
the four flags of V(1, a) (onsager module docstring), so the six x_rs with
r < s are folded from closed forms, as build_from_spec folds A and Astar,
and negated for x_sr. No spectrum, flag or solve is computed. That route
reads the spec alone, so it lives in onsager with the TetraModule record
and the corner constants, and this module re-exports them: `tetrabox build`
loads no tetra. This module holds the matrix routes, and it imports classify
(Norton's test) and flags only inside build_tetra, pairwise_burnside and
_rebuild_is_the_file, so `tetrabox verify` loads neither and
`verify --deep` only classify.

From bare matrices (no factorization known), every ordered pair (r, s) of
distinct corner indices determines a decomposition of the space (induced by
the opposite flags r and s), and the generator x_rs acts on its i-th piece
as the scalar 2i - d. The pair (s, r) induces the same pieces in reverse
order, and 2(d-i) - d = -(2i - d), so x_sr = -x_rs: this module builds six
decompositions, reads x_rs for r < s off one integer elimination each
(flags._acting_as) and negates it for x_sr. The decompositions of (0, 1)
and (2, 3) are the eigenspace chains of A and Astar that certify their
spectra (onsager.module_type), so only the four pairs that mix A and Astar
intersect flags, and that elimination is also what decides whether their
intersections sum directly to the space: no other rank of them is taken.

It verifies against any twelve matrices (a file's are independent data)
every defining relation of the tetrahedron algebra: antisymmetry
x_rs + x_sr = 0, the triangle relation [x_rs, x_st] = 2 x_rs + 2 x_st, and
the Dolan-Grady relation between generators with four distinct indices.
The relations are decided by plain matrix algebra, which runs on integer
rows over one denominator per matrix (see linalg), and each instance is one
exact equality of its two sides; its residual is formed only when it fails.
Spectral facts (common eigenvalue set {d-2i}, eigenspace dimension tables,
the action of one generator on another's eigenspaces, flag independence) are
verified as exact subspace statements.
Each inclusion of the image of an eigenspace of x_rs under a shifted x_tu
in a sum of eigenspaces of x_rs, and each inclusion of an eigenspace of x_rt
in a partial eigenspace sum of x_rs (flag independence), is the test that a
product of factors x_rs - mu I annihilates it (linalg.annihilates): no
change of basis, no inverse and no subspace sum. Each eigenspace of a
generator is formed once and kept in that matrix's spectral memo (linalg),
so every check that needs a chain shares it; a TetraModule keeps no chain.

Verification runs on six generators once antisymmetry is shown. Whether a
file's x_sr equals -x_rs exactly is decided once per TetraModule and kept
(_antisymmetric). Wherever it does, every check on x_sr is the same check on
x_rs read through the sign: its eigenspace chain is x_rs's reversed, its
action-table rows and columns repeat x_rs's verdicts, and its triangle and
Dolan-Grady sides are x_rs's up to sign. So the reports equal those of twelve
independent generators; a pair that is not antisymmetric is computed in full.

The action table and flag independence are consequences of the relations.
_verify runs the four stages of `tetrabox verify` in order and decides its
route from the verdicts it holds: once all 54 relation instances and the
eigentable have passed at the declared d, it returns the action table and
flag independence passed, with nothing computed, and on every other file it
computes them exactly. The public functions always compute exactly. The
argument, with E_lam the eigenspace of x_rs at lam:

- sums_to_dim makes every x_rs diagonalizable with its eigenvalues on the
  ladder d, d-2, ..., -d (x_sr = -x_rs shares the ladder), so the image of
  any product of factors x_rs - mu is the sum of the E_lam it does not kill,
  and an eigenspace off the ladder is 0. E_lam = ker(x_rs - lam) gives the
  fixes row, and x_sr = -x_rs the negates row.
- The triangle relation [x_rs, x_st] = 2 x_rs + 2 x_st gives, for v in
  E_lam, x_rs (x_st + lam) v = (lam+2)(x_st + lam) v: the raises_plus row
  (at lam = d the image is 0, as the check with no target states), and with
  x_ts = -x_st the raises_minus row. The same relation for x_sr, whose
  eigenspace at -lam is E_lam, gives x_rs (x_ru - lam) v =
  (lam-2)(x_ru - lam) v: the lowering rows.
- For v in E_lam, ad(x_rs)^k (y) v = (x_rs - lam)^k y v, so Dolan-Grady
  [x_rs, [x_rs, [x_rs, x_tu]]] = 4 [x_rs, x_tu] gives
  (x_rs - lam)(x_rs - lam - 2)(x_rs - lam + 2) x_tu v = 0, and with
  sums_to_dim x_tu v lies in E_{lam+2} + E_lam + E_{lam-2}: the adjacent rows.
- Flag independence. Let G_k = E_{-d} + ... + E_{2k-d}, the k-th partial sum
  of x_rs from -d. By the lowering row, (x_rt - mu) E_mu lies in E_{mu-2},
  so x_rt keeps every G_k and (x_rt - theta_k) G_k lies in G_{k-1}
  (theta_k = 2k - d). So prod_{j<=k} (x_rt - theta_j) kills G_k, and G_k lies
  in its kernel, the k-th partial sum of x_rt. constant_across_pairs and
  symmetric make the twelve generators' rows of eigenspace dimensions equal,
  so the two sums have one dimension and are equal.

The eigentable needs one chain once the relations hold. After all 54
instances have passed, _verify computes the chain of x_01 alone and reports
its row for all six pairs; on every other file, as in the public
eigentable, six chains are computed. The argument (Hartwig and
Terwilliger, J. Algebra 2007; Benkart and Terwilliger, The equitable basis
for sl2, Math. Z. 2011): for distinct r, s, t put (x, y, z) = (x_rs, x_st, x_tr) and
e = (x + z)/2, f = -(y + z)/2, h = z. The triangle instances (t, r, s),
(s, t, r) and (r, s, t) give [h, e] = 2e, [h, f] = -2f and [e, f] = h, so
these are a representation rho of sl2 on Q^n, and rho(e), rho(f) are
nilpotent (they move the generalized eigenspaces of rho(h) by +2 and -2).
Since (ad e)^2 h = [e, -2e] = 0, exp rho(e) rho(h) exp(-rho(e)) =
rho(h - 2e) = -x, and likewise exp rho(f) rho(h) exp(-rho(f)) =
rho(h + 2f) = -y. The weights of a finite-dimensional sl2-module are
symmetric about 0, with dim ker(rho(h) - lam) = dim ker(rho(h) + lam) at
every lam, so x, y, z and their negatives all have the eigenspace
dimensions of rho(h) at every lam; with antisymmetry, so do x_sr, x_ts and
x_rt. Every edge shares a triangle with {0, 1} except {2, 3}, which shares
one with {0, 2}, so all six rows equal the row of x_01 at any declared d.

Irreducibility needs one line once the four stages have passed. By the
paper's classification, ker(x_01 - d) is a line on every absolutely
irreducible module, so where it is no line the module is not, and where it
is, Norton's test at it decides (_rebuild_is_the_file): `verify --deep`
builds nothing and runs no closure on such a file.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from operator import neg

from ._record import Record
from .errors import OppositionError, ReducibleModuleError, TypeShiftError
from .linalg import Matrix, Subspace, annihilates, commutator, eigenspace, hstack
from .onsager import OnsagerModule, _module_spectra
# the spec route, its record and the corner constants live beside ModuleSpec; re-exported here
from .onsager import CORNERS, OPPOSITE_PAIRS, ORDERED_PAIRS, UNORDERED_PAIRS, TetraModule, build_tetra_from_spec


# build_tetra's refusal of a pair that does not generate End(V), and verify --deep's of a verified file
_NOT_FULL = "module is reducible: the generated algebra is not full"


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


def build_tetra(m: OnsagerModule) -> TetraModule:
    """Assemble all twelve generator matrices from the four flags of m.

    For each pair r < s, x_rs is the one matrix that acts on piece i of the
    decomposition the flags r and s induce as the scalar 2i - d, read off
    one elimination (flags._acting_as); x_sr is -x_rs, since the pair
    (s, r) induces the same pieces in reverse order. That solve decides
    opposition too: a zero intersection, or pieces the solve refuses as no
    direct sum filling the space, raise OppositionError naming the pair.

    Flag 1 is flag 0's decomposition inverted, so the pieces of (0, 1) are
    the eigenspaces of A at 2i - d that module_type certified the spectra
    with, in the canonical form an intersection gives, and those of (2, 3)
    are Astar's: only the four pairs that mix A and Astar intersect flags.

    The input must be irreducible of type (0,0). Norton's spinning test
    decides that at any dimension at the first eigenline of A at d, d-2,
    ..., the eigenspaces the spectral pass holds; on every irreducible
    module that is the one at d. Where A has no eigenline it runs at the
    first ladder eigenline of Astar. Where neither has one the Burnside
    closure decides, and when dim^2 is above matrix.DIM_GUARD it raises
    DimensionGuardError rather than build: the flag-opposition scan passes
    some reducible modules, such as V + V. four_flags(m) gives the flags.
    """
    from .classify import _full_algebra
    from .flags import _NOT_DIRECT, _acting_as, _flag_components, _induced_subspaces

    d, alpha, alphastar, spaces_a, spaces_s = _module_spectra(m)
    if alpha != 0 or alphastar != 0:
        raise TypeShiftError(f"module has type ({alpha}, {alphastar}); normalize to (0, 0) first")
    if not _full_algebra(m.A, m.Astar, zip(range(d, -d - 1, -2), spaces_a)):
        raise ReducibleModuleError(_NOT_FULL)
    chains = {(0, 1): spaces_a[::-1], (2, 3): spaces_s[::-1]}  # eigenvalues -d up to d
    flags = _flag_components(*chains.values())
    x: dict[tuple[int, int], Matrix] = {}
    for r, s in UNORDERED_PAIRS:
        pieces = chains[(r, s)] if (r, s) in chains else _induced_subspaces(flags[r], flags[s])
        if isinstance(pieces, str):
            raise OppositionError(f"flags {r} and {s} are not opposite: {pieces}")
        try:  # the solve refuses pieces that are no direct sum filling the space
            x[(r, s)] = _acting_as(range(-d, d + 1, 2), pieces)
        except ValueError:
            raise OppositionError(f"flags {r} and {s} are not opposite: {_NOT_DIRECT}") from None
        x[(s, r)] = -x[(r, s)]
    return TetraModule(dim=m.dim, diameter=d, x=x)


def _antisymmetric(t: TetraModule) -> frozenset[tuple[int, int]]:
    """The ordered pairs (r, s), both orders, on which x_sr = -x_rs holds exactly.

    One comparison of canonical forms per pair r < s, never assumed, when a
    check first asks; kept on t, since t.x is read-only.
    """
    pairs = getattr(t, "_antisymmetric", None)
    if pairs is None:
        mirrored = [(r, s) for r, s in UNORDERED_PAIRS if _negates(t.x[(r, s)], t.x[(s, r)])]
        pairs = frozenset(mirrored + [(s, r) for r, s in mirrored])
        object.__setattr__(t, "_antisymmetric", pairs)
    return pairs


def _negates(a: Matrix, b: Matrix) -> bool:
    """b == -a on two matrices of one shape, read off their canonical forms
    (one denominator, numerator rows of opposite sign) with no Matrix built."""
    return a._den == b._den and all(tuple(map(neg, row_a)) == row_b for row_a, row_b in zip(a._num, b._num))


def _oriented(pair: tuple[int, int], antisymmetric: frozenset) -> tuple[tuple[int, int], int]:
    """The pair whose checks decide pair's, and the sign: (s, r) and -1 when
    r > s and x_rs = -x_sr, else pair itself and 1."""
    r, s = pair
    return ((s, r), -1) if r > s and pair in antisymmetric else (pair, 1)


def verify_relations(t: TetraModule) -> VerificationReport:
    """Evaluate every defining relation instance as an exact matrix identity.

    Each instance is one comparison of its two sides (x_rs and -x_sr, kept
    by _antisymmetric; [x_rs, x_st] and 2(x_rs + x_st); [x, [x, [x, y]]] and
    4[x, y]), and a Matrix is canonical integer rows over one denominator, so
    == decides it exactly. The residual, lhs - rhs (x_rs + x_sr for
    antisymmetry), is formed only for a failing instance. Where antisymmetry
    passes, the other instances are computed on six generators: triangle
    (t, s, r) has the sides of (r, s, t) negated once x_sr = -x_rs and
    x_ts = -x_st, and Dolan-Grady is odd in each of its two generators, so
    the four orientations of {r, s}, {t, u} share one pair of sides up to
    sign. The inner commutator of Dolan-Grady is shared too, since
    [x_tu, x_rs] = -[x_rs, x_tu] for any two matrices.
    """
    x = t.x
    checks: list[CheckResult] = []

    def record(relation: str, instance: tuple, lhs: Matrix, rhs: Matrix, sign: int = 1) -> None:
        passed = lhs == rhs
        checks.append(CheckResult(relation, instance, passed, None if passed else sign * (lhs - rhs)))

    antisymmetric = _antisymmetric(t)
    for r, s in UNORDERED_PAIRS:
        passed = (r, s) in antisymmetric
        checks.append(CheckResult("antisymmetry", (r, s), passed, None if passed else x[(r, s)] + x[(s, r)]))
    triangles: dict = {}
    for r, s, tt in permutations(CORNERS, 3):
        if r > tt and {(r, s), (s, tt)} <= antisymmetric:
            record("triangle", (r, s, tt), *triangles[(tt, s, r)], -1)
            continue
        a, b = x[(r, s)], x[(s, tt)]
        triangles[(r, s, tt)] = sides = commutator(a, b), 2 * (a + b)
        record("triangle", (r, s, tt), *sides)
    inner: dict = {}
    dolan_grady: dict = {}
    for r, s, tt, u in permutations(CORNERS, 4):
        first, sign_first = _oriented((r, s), antisymmetric)
        second, sign_second = _oriented((tt, u), antisymmetric)
        sides = dolan_grady.get((first, second))
        if sides is None:
            if (second, first) in inner:
                bracket = -inner[(second, first)]
            else:
                bracket = inner[(first, second)] = commutator(x[first], x[second])
            sides = dolan_grady[(first, second)] = commutator(x[first], commutator(x[first], bracket)), 4 * bracket
        record("dolan_grady", (r, s, tt, u), *sides, sign_first * sign_second)
    return VerificationReport(tuple(checks))


def _eigenspace_chain(t: TetraModule, pair: tuple[int, int]) -> tuple[Subspace, ...]:
    """Eigenspaces of x_pair at d, d-2, ..., -d (zero subspace when absent).

    Each is formed once and kept in the memo of t.x[pair] (linalg), whose
    bound admits the twelve generators of one module. For r > s with
    x_rs = -x_sr (_antisymmetric), the chain of x_rs is x_sr's reversed, so
    the eigentable, action table and flag-independence check share six
    chains on a file that passes antisymmetry, and up to twelve otherwise.
    On a file whose relations have passed, _verify asks for the chain of
    x_01 alone (module docstring), and once the eigentable has passed too,
    for no other.
    """
    if pair[0] > pair[1] and pair in _antisymmetric(t):
        return _eigenspace_chain(t, pair[::-1])[::-1]
    d = t.diameter
    return tuple(eigenspace(t.x[pair], Fraction(d - 2 * i)) for i in range(d + 1))


def eigentable(t: TetraModule) -> EigenTable:
    """Eigenspace dimension table over all six generator pairs, one chain each."""
    return _eigentable(t, one_chain=False)


def _eigentable(t: TetraModule, one_chain: bool) -> EigenTable:
    """eigentable, or with one_chain x_01's row for all six pairs, which is sound
    once all 54 relation instances have passed (module docstring)."""
    d = t.diameter
    eigenvalues = tuple(Fraction(d - 2 * i) for i in range(d + 1))
    if one_chain:
        dims = dict.fromkeys(UNORDERED_PAIRS, tuple(space.dim for space in _eigenspace_chain(t, (0, 1))))
    else:
        dims = {pair: tuple(space.dim for space in _eigenspace_chain(t, pair)) for pair in UNORDERED_PAIRS}
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
    the vector within the three adjacent eigenspaces. Each inclusion is
    computed exactly (_action_verdicts).
    """
    return _action_table(t, _action_verdicts(t))


def _action_table(t: TetraModule, verdicts: dict | None) -> VerificationReport:
    """The action table's report of verdicts, or with None every check passed
    (sound once the relations and the eigentable have passed, module docstring)."""
    d = t.diameter
    ladder = [d - 2 * i for i in range(d + 1)]
    passed = [True] * (d + 1)
    checks: list[CheckResult] = []
    for r, s in ORDERED_PAIRS:
        for tt, u in ORDERED_PAIRS:
            case = _action_case(r, s, tt, u)[0]
            column = passed if verdicts is None else verdicts[((r, s), (tt, u))]
            checks.extend(CheckResult(f"action_{case}", (r, s, tt, u, str(lam)), ok) for lam, ok in zip(ladder, column))
    return VerificationReport(tuple(checks))


def _action_verdicts(t: TetraModule) -> dict:
    """The action table's verdicts at lam = d, d-2, ..., -d, for each row
    (r, s) and column (t, u), computed exactly.

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
    So a file that passes antisymmetry takes 36 of the 144 pairs. On a
    mirrored pair the row's shift -x_rs is the file's own x_sr, and only a
    pair that is not mirrored forms its negation.
    """
    d = t.diameter
    ladder = [d - 2 * i for i in range(d + 1)]
    antisymmetric = _antisymmetric(t)
    oriented = {pair: _oriented(pair, antisymmetric) for pair in ORDERED_PAIRS}
    own = [pair for pair in ORDERED_PAIRS if oriented[pair][0] == pair]
    verdicts: dict = {}
    for r, s in own:
        chain = _eigenspace_chain(t, (r, s))
        stacked = hstack(*(space.basis for space in chain))
        x_rs = t.x[(r, s)]
        shifts = {1: x_rs, -1: t.x[(s, r)] if (r, s) in antisymmetric else -x_rs}
        for tt, u in own:
            _, sign, offsets = _action_case(r, s, tt, u)
            image = (t.x[(tt, u)] + shifts[sign] if sign else t.x[(tt, u)]) * stacked
            targets = [[lam - 2 * k for k in offsets if abs(lam - 2 * k) <= d] for lam in ladder]
            blocks = [(space.dim, roots) for space, roots in zip(chain, targets)]
            verdicts[((r, s), (tt, u))] = annihilates(x_rs, image, blocks)
    # row_sign -1 reverses: x_rs at lam is read off x_sr at -lam
    return {(row, column): verdicts[(oriented[row][0], oriented[column][0])][::oriented[row][1]]
            for row in ORDERED_PAIRS for column in ORDERED_PAIRS}


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


def _verify(t: TetraModule) -> tuple[VerificationReport, EigenTable, VerificationReport, bool]:
    """The four stages of `tetrabox verify` in order: relations, eigentable,
    action table and flag independence. Once all 54 relation instances pass,
    the eigentable's six rows are read off x_01's chain; once it passes too,
    the last two hold (module docstring) and are returned passed, with nothing
    computed. Every other stage is computed as its public function computes it.
    """
    relations = verify_relations(t)
    table = _eigentable(t, one_chain=True) if relations.all_passed else eigentable(t)
    if relations.all_passed and table.all_passed:
        return relations, table, _action_table(t, None), True
    return relations, table, verify_action_table(t), flag_independence_check(t)


def pairwise_burnside(t: TetraModule) -> bool:
    """Each of the three disjoint generator pairs alone generates End(V).

    Norton's test is sound at any eigenvalue whose eigenspace is a line, so
    each pair is decided at any dimension by one spin, at the first line
    among the eigenspaces of x_p at d, d-2, ...; on every irreducible
    structure that is ker(x_p - d). The eigenspaces are read one at a time,
    as the spin asks for them, off the memo of x_p (linalg), so a chain an
    earlier check formed is not formed again. Where x_p has no eigenline on
    the ladder, the spin runs at the first ladder eigenline of the pair's
    other generator, and only where neither has one does the Burnside
    closure decide, within the guard; a verdict already kept in x_p's memo
    (classify) is read back.
    """
    from .classify import _full_algebra

    ladder = range(t.diameter, -t.diameter - 1, -2)
    return all(_full_algebra(t.x[p1], t.x[p2], ((lam, eigenspace(t.x[p1], lam)) for lam in ladder))
               for p1, p2 in OPPOSITE_PAIRS)


def _rebuild_is_the_file(t: TetraModule) -> bool:
    """Would build_tetra of the pair (x_01, x_23) give back t, its twelve
    matrices and its declared d? Precondition: all 54 relation instances and
    the eigentable at the declared d have passed on t (cli._deep_checks calls
    it only then). True when ker(x_01 - d), kept in x_01's memo by the
    one-chain eigentable, is a line and Norton's test at it finds (x_01, x_23)
    irreducible; that verdict is kept in x_01's memo (classify._full_algebra),
    and pairwise_burnside reads it back. False otherwise, and then the module
    is not absolutely irreducible, so build_tetra would refuse the pair:
    nothing else is asked, and no build or closure runs.

    Why a top that is no line decides: over an algebraic closure K of Q the
    54 relations still hold, so the twelve matrices are a module over K, and
    a pair that generates End(V) over Q does over K (spans are ranks). By the
    paper's classification (Hartwig and Terwilliger, J. Algebra 2007) that
    module is then a tensor product of evaluation modules V(n_i, a_i), on
    which x_01 has the top eigenvalue sum n_i with the line of the top weight
    vectors as its eigenspace. By sums_to_dim and diameter_attained the top
    eigenvalue of x_01 is d, so ker(x_01 - d) is a line on every absolutely
    irreducible file. By the module docstring's sl2 argument the (0, 1) row
    holds the weight multiplicities of a finite-dimensional sl2-module with
    top weight d: the entry at lam counts its irreducible constituents of top
    weight at least |lam|, so every entry is positive and none is smaller
    than the top one, and no eigenspace below the top is a line when the top
    is not.

    Where the verdict is True, this is the paper's uniqueness, four flags fix
    every x_rs, read off checks that have run:

    1. Antisymmetry: x_sr = -x_rs for every pair (the relations).
    2. Spectra: x_01, and x_23 with the same row, are diagonalizable with
       the eigenvalues d, d-2, ..., -d, each of positive multiplicity
       (sums_to_dim, the positive row, constant_across_pairs). So
       module_type reads diameter d and type (0, 0): build_tetra refuses no
       shift, and its d is the declared d.
    3. Irreducibility: the pair is irreducible, and build_tetra's test of it
       is exact (on the file's own x_01 it reads the kept verdict back), so
       it refuses nothing.
    4. Flags: by flag independence (module docstring), flag r is the
       ascending partial eigenspace sums of x_rs for every s != r. build_tetra
       takes flags 0 and 1 off x_01, flags 2 and 3 off x_23, and the
       descending sums of x_rs are the ascending sums of x_sr = -x_rs. So,
       with E_0, ..., E_d the eigenspaces of x_rs at -d, ..., d, its piece i
       of the pair r < s is (E_0 + ... + E_i) & (E_i + ... + E_d) = E_i,
       since the E_j sum directly to V. Every E_i is nonzero (the twelve rows
       equal the positive (0, 1) row), so the flags are opposite, and the
       rebuilt x_rs, 2i - d on E_i, is the file's x_rs; x_sr = -x_rs is
       the file's x_sr by 1.
    """
    from .classify import _full_algebra

    top = eigenspace(t.x[(0, 1)], t.diameter)
    return top.dim == 1 and _full_algebra(t.x[(0, 1)], t.x[(2, 3)], [(t.diameter, top)])


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
