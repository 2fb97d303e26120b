from fractions import Fraction as F

import pytest

from tetrabox import (
    Matrix,
    ModuleSpec,
    SpectrumError,
    Subspace,
    build_from_spec,
    check_onsager_equivalence,
    commutator,
    eigenspace,
    evaluation_module,
    inverse,
    subspace_sum,
    verify_tridiagonal_pair,
)
from tetrabox import classify, linalg
from tetrabox.tridiagonal import _block_tridiagonal_ordering, eigenvalue_sequences

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
        # to the bottom one, three eigenvalues apart
        a = Matrix.from_rows([[3, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -3]])
        b = Matrix.from_rows([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
        report = verify_tridiagonal_pair(a, b)
        assert report.diagonalizable_A and report.diagonalizable_Astar
        assert report.standard_ordering_A is None
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


def conjugated(s, rows):
    return s * Matrix.from_rows(rows) * inverse(s)


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
        diagonal = conjugated(s, [[eigenvalues[block[i]] if i == j else 0 for j in range(5)] for i in range(5)])
        near = [[F(i + 2 * j + 1, 3) if abs(block[i] - block[j]) <= 1 else 0 for j in range(5)] for i in range(5)]
        jump = [[1 if (i, j) == (0, 4) else near[i][j] for j in range(5)] for i in range(5)]
        assert self.verdicts(conjugated(s, near), diagonal, eigenvalues) == [True, False]
        assert self.verdicts(diagonal, diagonal, eigenvalues) == [True, True]
        assert self.verdicts(conjugated(s, jump), diagonal, eigenvalues) == [False, False]


class TestSpectrumReuse:
    def test_no_minimal_polynomial_on_d16(self, monkeypatch):
        # both spectra are Krylov certificates, and Norton's test reuses A's top
        calls = []
        real = linalg.minimal_polynomial
        for module in (linalg, classify):
            monkeypatch.setattr(module, "minimal_polynomial", lambda m: calls.append(m) or real(m))
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
