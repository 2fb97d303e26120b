from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from tetrabox import (
    Matrix,
    ModuleSpec,
    SpectrumError,
    Subspace,
    TdpReport,
    build_from_spec,
    check_onsager_equivalence,
    commutator,
    diagonal_spectrum,
    dolan_grady_holds,
    eigenspace,
    evaluation_module,
    is_irreducible_criterion,
    subspace_sum,
    verify_tridiagonal_pair,
)
from tetrabox import classify, linalg, tridiagonal
from tetrabox.tridiagonal import _block_tridiagonal_ordering, _is_arithmetic_step_two, eigenvalue_sequences

from corpus import conjugated, fresh, grids, outcome, unitriangular_matrices

H = Matrix.from_rows([[1, 0], [0, -1]])


def pair_of(factors):
    m = build_from_spec(ModuleSpec.of(factors))
    return m.A, m.Astar


class TestVerify:
    def test_irreducible_evaluation_pair(self):
        report = verify_tridiagonal_pair(*pair_of([(1, 2)]))
        assert report.diagonalizable_A and report.diagonalizable_Astar
        assert report.standard_ordering_A == (F(1), F(-1))
        assert report.standard_ordering_Astar == (F(1), F(-1))
        assert report.irreducible and report.verdict

    def test_commuting_diagonal_pair_fails(self):
        # common eigenvector: the first coordinate axis is invariant
        report = verify_tridiagonal_pair(H, H)
        assert report.diagonalizable_A and report.diagonalizable_Astar
        assert not report.irreducible
        assert not report.verdict

    def test_one_dimensional(self):
        z = Matrix.zeros(1, 1)
        assert verify_tridiagonal_pair(z, z).verdict

    def test_non_diagonalizable(self):
        n = Matrix.from_rows([[0, 1], [0, 0]])
        report = verify_tridiagonal_pair(n, n.transpose())
        assert not report.diagonalizable_A and not report.diagonalizable_Astar
        assert not report.verdict

    def test_tridiagonality_failure(self):
        # full-diameter jumps: Astar maps the top eigenspace of A straight
        # to the bottom one, three eigenvalues apart, and 1 to -1; in the
        # order (3, -3, 1, -1) those are neighbors, but span(e1, e4) is
        # invariant, so the pair is reducible
        a = Matrix.from_rows([[3, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -3]])
        b = Matrix.from_rows([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
        report = verify_tridiagonal_pair(a, b)
        assert report.diagonalizable_A and report.diagonalizable_Astar
        assert report.standard_ordering_A == (F(3), F(-3), F(1), F(-1))
        assert not report.irreducible
        assert not report.verdict

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            verify_tridiagonal_pair(Matrix.identity(2), Matrix.identity(3))


def reference_block_tridiagonal(acting, spaces, ambient):
    """Vector by vector: each image must lie in the window of three neighbors."""
    zero = Subspace.zero(ambient)
    for i, space in enumerate(spaces):
        below = spaces[i - 1] if i > 0 else zero
        above = spaces[i + 1] if i + 1 < len(spaces) else zero
        window = subspace_sum(subspace_sum(below, space), above)
        images = (acting * Matrix(ambient, 1, col) for col in space.basis_columns())
        if not all(window.contains(Subspace.span_columns(image)) for image in images):
            return False
    return True


class TestBlockTridiagonalDifferential:
    """The annihilator test against the vector route, on the given ordering
    and on one with its second and third eigenvalues swapped."""

    def verdicts(self, acting, diagonal, eigenvalues):
        swapped = [eigenvalues[0], eigenvalues[2], eigenvalues[1], *eigenvalues[3:]]  # breaks adjacency
        out = []
        for order in (eigenvalues, swapped):
            spaces = [eigenspace(diagonal, lam) for lam in order]
            verdict = _block_tridiagonal_ordering(acting, diagonal, order, spaces)
            assert verdict == reference_block_tridiagonal(acting, spaces, diagonal.rows)
            out.append(verdict)
        return out

    @pytest.mark.parametrize("factors", [[(1, 2), (1, 3)], [(2, 3), (1, F(1, 2))]])
    def test_agrees_with_vector_route(self, factors):
        a, astar = pair_of(factors)
        d = sum(n for n, _ in factors)
        eigenvalues = [F(d - 2 * i) for i in range(d + 1)]
        verdicts = []
        for acting in (astar, a, astar + commutator(a, astar)):
            verdicts += self.verdicts(acting, a, eigenvalues)
        assert True in verdicts and False in verdicts

    def test_non_integer_eigenvalues(self):
        # blocks of sizes 1, 2, 1, 1 at the eigenvalues 1/2, -1/3, 5, -2/7, in
        # the basis s: a p/q root is applied as q (X Y) - p den Y
        eigenvalues = [F(1, 2), F(-1, 3), F(5), F(-2, 7)]
        block = [0, 1, 1, 2, 3]
        s = Matrix.from_rows([[1, 0, 0, 0, 0], [2, 1, 0, 0, 0], [0, -1, 1, 0, 0], [1, 0, 3, 1, 0], [0, 2, 0, -1, 1]])
        s = s * s.transpose()
        diagonal = Matrix.from_rows([[eigenvalues[block[i]] if i == j else 0 for j in range(5)] for i in range(5)])
        diagonal = conjugated(diagonal, s)
        near = [[F(i + 2 * j + 1, 3) if abs(block[i] - block[j]) <= 1 else 0 for j in range(5)] for i in range(5)]
        jump = [[1 if (i, j) == (0, 4) else near[i][j] for j in range(5)] for i in range(5)]
        assert self.verdicts(conjugated(Matrix.from_rows(near), s), diagonal, eigenvalues) == [True, False]
        assert self.verdicts(diagonal, diagonal, eigenvalues) == [True, True]
        assert self.verdicts(conjugated(Matrix.from_rows(jump), s), diagonal, eigenvalues) == [False, False]


class TestSpectrumReuse:
    def test_no_minimal_polynomial_on_d16(self, spy):
        # both spectra are Krylov certificates, and Norton's test reuses A's top
        calls = spy(linalg, "minimal_polynomial")
        assert verify_tridiagonal_pair(*pair_of([(3, 2), (3, 3)])).verdict
        assert calls == []


class TestSequences:
    def test_dim_two(self):
        assert eigenvalue_sequences(*pair_of([(1, 2)])) == ((F(1), F(-1)), (F(1), F(-1)))

    def test_tensor_pair(self):
        seqs = eigenvalue_sequences(*pair_of([(1, 2), (1, 3)]))
        assert seqs == ((F(2), F(0), F(-2)), (F(2), F(0), F(-2)))

    def test_trivial_pair(self):
        z = Matrix.zeros(1, 1)
        assert eigenvalue_sequences(z, z) == ((F(0),), (F(0),))

    def test_not_a_pair(self):
        with pytest.raises(ValueError):
            eigenvalue_sequences(H, H)

    def test_non_arithmetic_scaled_pair(self):
        # scaling A by 3 keeps the tridiagonal-pair axioms but stretches the
        # eigenvalue gaps to 6
        a, astar = pair_of([(1, 2)])
        with pytest.raises(SpectrumError):
            eigenvalue_sequences(3 * a, astar)


class TestOnsagerEquivalence:
    @pytest.mark.parametrize(
        "factors", [[(1, 2)], [(1, 2), (1, 3)], [(2, 2), (1, 3)], [(1, 1)], [(2, -1)], [(1, 2), (1, F(1, 2))]]
    )
    def test_equivalence_on_modules(self, factors):
        assert check_onsager_equivalence(*pair_of(factors))

    def test_equivalence_on_designed_failures(self):
        assert check_onsager_equivalence(H, H)  # both sides fail
        z = Matrix.zeros(1, 1)
        assert check_onsager_equivalence(z, z)  # both sides hold

    def test_scaled_pair_breaks_both_sides(self):
        # 3A stretches the eigenvalue gaps and violates Dolan-Grady together
        a, astar = pair_of([(1, 2)])
        assert check_onsager_equivalence(3 * a, astar)


def reference_report(a: Matrix, astar: Matrix) -> TdpReport:
    """verify_tridiagonal_pair as one pass over all four axioms: both spectra,
    both descending orderings (no other order is tried), then irreducibility
    by classify._full_algebra on a's spectrum, on fresh copies of the two
    matrices. Every Kronecker sum of ladders passes in the descending order,
    so on modules it is the report field for field."""
    a, astar = fresh(a), fresh(astar)
    spec_a, spec_s = diagonal_spectrum(a), diagonal_spectrum(astar)
    ordering_a = spec_a[0] if spec_a is not None and _block_tridiagonal_ordering(astar, a, *spec_a) else None
    ordering_s = spec_s[0] if spec_s is not None and _block_tridiagonal_ordering(a, astar, *spec_s) else None
    irreducible = classify._full_algebra(a, astar, zip(*spec_a) if spec_a else ())
    return TdpReport(spec_a is not None, spec_s is not None, ordering_a, ordering_s, irreducible,
                     ordering_a is not None and ordering_s is not None and irreducible)


def reference_onsager_equivalence(a: Matrix, astar: Matrix) -> bool:
    """check_onsager_equivalence with no early return: the full report, then
    both sides, the Dolan-Grady relations computed whatever the report says."""
    report = reference_report(a, astar)
    side_tdp = (
        report.verdict
        and _is_arithmetic_step_two(report.standard_ordering_A)
        and _is_arithmetic_step_two(report.standard_ordering_Astar)
    )
    side_onsager = dolan_grady_holds(a, astar) and report.irreducible
    return side_tdp == side_onsager


def reference_sequences(a: Matrix, astar: Matrix) -> tuple[tuple[F, ...], tuple[F, ...]]:
    """eigenvalue_sequences read off the full reference report, whatever its irreducibility verdict."""
    report = reference_report(a, astar)
    if not report.verdict:
        raise ValueError("not a tridiagonal pair")
    for name, s in (("eigenvalue", report.standard_ordering_A), ("dual eigenvalue", report.standard_ordering_Astar)):
        if not _is_arithmetic_step_two(s):
            raise SpectrumError(f"{name} sequence {tuple(map(str, s))} is not arithmetic with difference 2")
    return report.standard_ordering_A, report.standard_ordering_Astar


def assert_agrees_with_reference(a: Matrix, astar: Matrix) -> None:
    # eigenvalue_sequences on fresh copies misses a's memo; after verify_tridiagonal_pair it reads the verdict kept;
    # each gives the two sequences, or the type and text of its refusal
    refusals = (ValueError, SpectrumError)
    sequences = outcome(refusals, reference_sequences, a, astar)
    assert outcome(refusals, eigenvalue_sequences, fresh(a), fresh(astar)) == sequences
    assert verify_tridiagonal_pair(a, astar) == reference_report(a, astar)
    assert check_onsager_equivalence(a, astar) == reference_onsager_equivalence(a, astar)
    assert outcome(refusals, eigenvalue_sequences, a, astar) == sequences


# a = 1 and -1 and the pair 2, 1/2 make reducible modules
CONJUGATION_POOL = (F(2), F(3), F(1, 2), F(-1), F(1))


@st.composite
def conjugated_modules(draw):
    """(A, Astar) of a 1- or 2-factor spec, possibly shifted, conjugated by
    one unitriangular P: P A P^-1 and P Astar P^-1."""
    factors = draw(st.lists(st.tuples(st.integers(1, 2), st.sampled_from(CONJUGATION_POOL)), min_size=1, max_size=2))
    shift = draw(st.sampled_from(((0, 0), (1, 0), (0, F(-1, 2)))))
    m = build_from_spec(ModuleSpec.of(factors, shift=shift))
    m = conjugated(m, draw(unitriangular_matrices(m.dim)))
    return m.A, m.Astar


class TestIrreducibilityFirst:
    """check_onsager_equivalence decides irreducibility first and stops on a
    reducible pair; its answers and verify_tridiagonal_pair's reports equal
    those of the full report."""

    def test_grid_modules(self, grid_modules, spy):
        # every grid pair passes in the descending order, so no eigenbasis is inverted
        inverted = spy(tridiagonal, "inverse")
        for s, m in grid_modules.items():
            assert_agrees_with_reference(m.A, m.Astar)
            assert check_onsager_equivalence(m.A, m.Astar), s.factors
        assert inverted == []

    @settings(max_examples=30, deadline=None)
    @given(conjugated_modules())
    def test_conjugated_modules(self, pair):
        assert_agrees_with_reference(*pair)

    def test_designed_pairs(self):
        a, astar = pair_of([(1, 2)])
        v1 = evaluation_module(1, F(1))
        for pair in ((H, H), (v1.A, v1.Astar), (3 * a, astar), (Matrix.zeros(1, 1), Matrix.zeros(1, 1))):
            assert_agrees_with_reference(*pair)
            assert check_onsager_equivalence(*pair)

    def test_reducible_pair_reads_only_the_spectrum_of_a(self, grid_specs, spy):
        # on fresh matrices the verdict is a miss and reads a's spectrum alone; it is kept in a's memo, so a
        # second check, and eigenvalue_sequences's refusal, read no spectrum at all
        reducible = [build_from_spec(s) for s in grid_specs if not is_irreducible_criterion(s)]
        calls = {name: spy(tridiagonal, name) for name in ("diagonal_spectrum", "annihilates", "dolan_grady_holds")}
        for m in reducible:
            assert check_onsager_equivalence(m.A, m.Astar)
            assert check_onsager_equivalence(m.A, m.Astar)
            with pytest.raises(ValueError, match="not a tridiagonal pair"):
                eigenvalue_sequences(m.A, m.Astar)
        assert len(calls["diagonal_spectrum"]) == len(reducible)
        assert all(seen is m.A for seen, m in zip(calls["diagonal_spectrum"], reducible))
        assert calls["annihilates"] == [] and calls["dolan_grady_holds"] == []

    def test_irreducible_pair_computes_both_sides(self, spy):
        a, astar = pair_of([(1, 2), (2, 3)])
        calls = {name: spy(tridiagonal, name) for name in ("diagonal_spectrum", "annihilates", "dolan_grady_holds")}
        assert check_onsager_equivalence(a, astar)
        assert [len(calls[name]) for name in calls] == [2, 2, 1]


class TestEigenspaceShiftEquivalence:
    """The cube-commutator expression vanishes on an eigenspace exactly when
    that eigenspace lands in the three adjacent ones; both sides computed
    independently on sample pairs."""

    @pytest.mark.parametrize(
        "factors", [[(1, 2)], [(1, 1)], [(2, 3)], [(1, 2), (1, 3)], [(1, 2), (1, F(1, 2))]]
    )
    def test_equivalence(self, factors):
        a, astar = pair_of(factors)
        dim = a.rows
        phi = commutator(a, commutator(a, commutator(a, astar))) - 4 * commutator(a, astar)
        # candidate eigenvalues: every integer in [-dim, dim]
        for lam in range(-dim, dim + 1):
            space = eigenspace(a, F(lam))
            if space.is_zero():
                continue
            vanishes = all((phi * Matrix(dim, 1, col)).is_zero() for col in space.basis_columns())
            window = subspace_sum(
                subspace_sum(eigenspace(a, F(lam + 2)), space), eigenspace(a, F(lam - 2))
            )
            included = all(
                window.contains(Subspace.span_columns(astar * Matrix(dim, 1, col))) for col in space.basis_columns()
            )
            assert vanishes == included


# the split form of a Leonard pair with theta = theta* = (1, -2, 4) and
# phi = (12, -15): each is irreducible tridiagonal in the other's eigenbasis
# in the order 1, -2, 4, which is not monotone
LEONARD_A = Matrix.from_rows([[1, 0, 0], [1, -2, 0], [0, 1, 4]])
LEONARD_ASTAR = Matrix.from_rows([[1, 12, 0], [0, -2, -15], [0, 0, 4]])
LEONARD_ORDER = (F(4), F(-2), F(1))


def reference_ordering_exists(acting: Matrix, diagonal: Matrix) -> bool:
    """Some order of the eigenvalues of diagonal passes the block test, by trying them all."""
    eigenvalues, _ = diagonal_spectrum(diagonal)
    return any(_block_tridiagonal_ordering(acting, diagonal, order, [eigenspace(diagonal, lam) for lam in order])
               for order in permutations(eigenvalues))


@st.composite
def diagonal_and_acting(draw):
    """A diagonalizable D = P diag(values) P^-1 with 2 to 4 distinct values,
    some repeated, and a sparse integer matrix acting on the same space."""
    values = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=4, unique=True))
    mult = [draw(st.integers(1, 2)) for _ in values]
    diag = [v for v, k in zip(values, mult) for _ in range(k)]
    n = len(diag)
    d = Matrix.from_rows([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
    acting = draw(grids(n, n, st.sampled_from((0, 0, 0, 1, -2))))
    lower = Matrix.from_rows([[1 if i == j else draw(st.integers(-1, 1)) if j < i else 0 for j in range(n)]
                              for i in range(n)])
    return conjugated(acting, lower), conjugated(d, lower)


class TestStandardOrdering:
    """An ordering that is not descending: read off which eigenspaces the
    other operator joins, whenever the joins form disjoint paths."""

    def test_leonard_pair_with_a_non_monotone_ordering(self):
        report = verify_tridiagonal_pair(LEONARD_A, LEONARD_ASTAR)
        assert report == TdpReport(True, True, LEONARD_ORDER, LEONARD_ORDER, True, True)
        assert check_onsager_equivalence(LEONARD_A, LEONARD_ASTAR)
        with pytest.raises(SpectrumError, match="not arithmetic"):
            eigenvalue_sequences(LEONARD_A, LEONARD_ASTAR)

    @settings(max_examples=25, deadline=None)
    @given(unitriangular_matrices(3))
    def test_conjugated_leonard_pair(self, p):
        a, astar = conjugated(LEONARD_A, p), conjugated(LEONARD_ASTAR, p)
        assert verify_tridiagonal_pair(a, astar) == TdpReport(True, True, LEONARD_ORDER, LEONARD_ORDER, True, True)
        assert check_onsager_equivalence(a, astar)

    def test_three_cycle_has_no_ordering(self):
        # each eigenspace of the diagonal is joined to both others
        diagonal = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        acting = Matrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        report = verify_tridiagonal_pair(diagonal, acting)
        assert report.diagonalizable_A and report.standard_ordering_A is None
        assert not report.verdict
        assert not reference_ordering_exists(acting, diagonal)

    @settings(max_examples=60, deadline=None)
    @given(diagonal_and_acting())
    def test_an_ordering_is_found_exactly_when_one_exists(self, pair):
        acting, diagonal = pair
        ordering = tridiagonal._standard_ordering(acting, diagonal, *diagonal_spectrum(diagonal))
        assert (ordering is not None) == reference_ordering_exists(acting, diagonal)
        if ordering is not None:
            spaces = [eigenspace(diagonal, lam) for lam in ordering]
            assert _block_tridiagonal_ordering(acting, diagonal, ordering, spaces)


@pytest.mark.parametrize(
    "check, expected",
    [(verify_tridiagonal_pair, TdpReport(True, True, (), (), True, True)), (eigenvalue_sequences, ((), ())),
     (check_onsager_equivalence, True)],
    ids=["verify_tridiagonal_pair", "eigenvalue_sequences", "check_onsager_equivalence"],
)
def test_the_0x0_pair(check, expected):
    # a 0 x 0 operator has no eigenspace: every axiom holds vacuously, with empty orderings
    assert check(Matrix.zeros(0, 0), Matrix.zeros(0, 0)) == expected
