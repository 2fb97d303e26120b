import gc
import weakref
from collections import deque
from fractions import Fraction as F
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tetrabox import (
    DimensionGuardError,
    Flag,
    Matrix,
    ModuleSpec,
    OnsagerModule,
    OppositionError,
    ReducibleModuleError,
    SpectrumError,
    Subspace,
    are_equivalent,
    are_opposite,
    build_from_spec,
    build_tetra,
    build_tetra_from_spec,
    check_onsager_equivalence,
    determinant,
    eigenspace,
    eigentable,
    equivalence_key,
    evaluation_module,
    find_intertwiner,
    four_flags,
    generated_algebra_dimension,
    induced_decomposition,
    is_irreducible_burnside,
    is_irreducible_criterion,
    is_isomorphic,
    module_type,
    pair_generates_full_algebra,
    pairwise_burnside,
    trivial_module,
    verify_tridiagonal_pair,
)
from tetrabox import classify, flags, linalg, matrix, tetra
from tetrabox.linalg import _Echelon
from tetrabox.tetra import OPPOSITE_PAIRS

import corpus
from corpus import conjugated, direct_sum, unitriangular_matrices


def spec(*factors, shift=(0, 0)):
    return ModuleSpec.of(list(factors), shift=shift)


class TestCriterion:
    def test_distinct_parameters(self):
        assert is_irreducible_criterion(spec((1, 2), (1, 3)))

    def test_inverse_collision(self):
        assert not is_irreducible_criterion(spec((1, 2), (2, F(1, 2))))

    def test_unit_parameter(self):
        assert not is_irreducible_criterion(spec((1, 1)))
        assert not is_irreducible_criterion(spec((2, -1)))

    def test_trivial_spec_is_irreducible(self):
        assert is_irreducible_criterion(spec((0, 1)))
        assert is_irreducible_criterion(ModuleSpec(()))

    def test_weight_zero_factors_ignored(self):
        assert is_irreducible_criterion(spec((0, 2), (1, F(1, 2))))

    def test_shift_is_ignored(self):
        assert is_irreducible_criterion(spec((1, 2), shift=(3, 0)))


class TestBurnside:
    def test_trivial(self):
        assert is_irreducible_burnside(trivial_module())
        assert generated_algebra_dimension(trivial_module().A, trivial_module().Astar) == 1

    def test_irreducible_evaluation(self):
        m = evaluation_module(1, F(2))
        assert generated_algebra_dimension(m.A, m.Astar) == 4
        assert is_irreducible_burnside(m)

    def test_reducible_evaluation(self):
        m = evaluation_module(1, F(1))
        # A = Astar, so the algebra is spanned by I and A only
        assert generated_algebra_dimension(m.A, m.Astar) == 2
        assert not is_irreducible_burnside(m)

    def test_guard(self, monkeypatch):
        # V + V has no top line, so only the closure can decide, and its dim^2 is above the guard
        m = direct_sum(evaluation_module(1, F(2)), evaluation_module(1, F(2)))
        monkeypatch.setattr(matrix, "DIM_GUARD", 4)
        with pytest.raises(DimensionGuardError, match="Burnside closure dimension 16"):
            is_irreducible_burnside(m)

    def test_spin_refutes_reducible_input_above_the_guard(self, monkeypatch, spy):
        # the d9 (2,3)(2,3) is reducible, and its top line spins short: no closure, so no guard
        m = build_from_spec(spec((2, 3), (2, 3)))
        calls = spy(classify, "_spin", lambda *args: args)
        monkeypatch.setattr(matrix, "DIM_GUARD", 64)
        assert not is_irreducible_burnside(m)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "factors",
        [
            [(1, F(2))],
            [(2, F(-1))],
            [(1, F(2)), (1, F(3))],
            [(1, F(2)), (1, F(1, 2))],
            [(2, F(3)), (2, F(3))],
            [(3, F(5)), (1, F(1))],
        ],
    )
    def test_agrees_with_criterion(self, factors):
        s = ModuleSpec.of(factors)
        assert is_irreducible_burnside(build_from_spec(s)) == is_irreducible_criterion(s)


class TestSpin:
    """is_irreducible_burnside decides by Norton's spin wherever A has an eigenline."""

    def test_agrees_with_burnside_and_criterion_on_grid(self, spy, grid_modules):
        # every grid module's top eigenspace is a line, so no verdict needs the closure
        closures = spy(classify, "_closure_dimension_exact", lambda gens, n: n)
        for s, module in grid_modules.items():
            assert is_irreducible_burnside(module) == is_irreducible_criterion(s), s.factors
        assert closures == []

    def test_shifted_module(self):
        assert is_irreducible_burnside(build_from_spec(spec((1, 2), (1, 3), shift=(3, -1))))
        assert not is_irreducible_burnside(build_from_spec(spec((1, 2), (1, F(1, 2)), shift=(3, -1))))

    def test_direct_sum_takes_the_burnside_fallback(self, spy):
        # V + V: every eigenspace of A is a plane, so Norton's test says nothing
        m = direct_sum(evaluation_module(1, F(2)), evaluation_module(1, F(2)))
        assert eigenspace(m.A, 1).dim == 2
        closures = spy(classify, "_closure_dimension_exact", lambda gens, n: n)
        assert not is_irreducible_burnside(m)
        with pytest.raises(ReducibleModuleError):
            build_tetra(m)
        assert closures == [4, 4]

    def test_reducible_beyond_the_oracle_guard(self):
        m = build_from_spec(spec((4, 2), (12, F(1, 2))))
        assert m.dim == 65 and m.dim * m.dim > matrix.DIM_GUARD
        assert not is_irreducible_burnside(m)
        with pytest.raises(ReducibleModuleError):
            build_tetra(m)


def word_closure_dimension(a: Matrix, b: Matrix) -> int:
    """Reference: the word closure the spin replaced. Every accepted word,
    oldest first, is multiplied on the right by each generator with a dense
    integer matmul, and the flattened words are kept in an integer echelon."""
    n = a.rows
    gens = [a._num, b._num]

    def matmul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    span = _Echelon(n * n)
    span.add([x for row in identity for x in row])
    queue = deque([identity])
    while queue:
        word = queue.popleft()
        for g in gens:
            product = matmul(word, g)
            if span.add([x for row in product for x in row]):
                queue.append(product)
    return len(span)


def exact_closure_dimension(a: Matrix, b: Matrix) -> int:
    """Reference: the exact closure alone, with no Norton spin first."""
    return classify._closure_dimension_exact([a._num, b._num], a.rows)


class TestClosureDifferential:
    @pytest.mark.parametrize(
        "factors",
        [
            [(1, 1)],
            [(2, -1), (1, 2)],
            [(2, 2), (2, F(1, 2))],
            [(1, 2), (2, 3)],
            [(2, 3), (2, 5)],
        ],
    )
    def test_grid_modules(self, factors):
        m = build_from_spec(spec(*factors))
        expected = word_closure_dimension(m.A, m.Astar)
        assert exact_closure_dimension(m.A, m.Astar) == generated_algebra_dimension(m.A, m.Astar) == expected
        assert (expected == m.dim**2) == is_irreducible_criterion(spec(*factors))

    def test_reducible_grid_module_dimension(self):
        m = build_from_spec(spec((3, 2), (3, F(1, 2))))
        assert exact_closure_dimension(m.A, m.Astar) == word_closure_dimension(m.A, m.Astar) == 84
        assert generated_algebra_dimension(m.A, m.Astar) == 84

    def test_direct_sum(self):
        m = direct_sum(evaluation_module(1, F(2)), evaluation_module(2, F(3)))
        a, b = m.A, m.Astar
        # End(V) + End(W) plus nothing else: the summands are not isomorphic
        assert exact_closure_dimension(a, b) == word_closure_dimension(a, b) == 4 + 9
        assert generated_algebra_dimension(a, b) == 4 + 9


SMALL = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 3)))


@st.composite
def conjugated_pairs(draw):
    """(kind, a, b) with a = P D P^-1 and b = P T P^-1 for a random invertible P.

    generic: D a ladder diag(c, c-2, ...) in random order, T random.
    triangular: the same ladder, T block upper triangular with a nonzero
        corner, so P's first k columns span an invariant subspace and b is
        not block diagonal in P's basis; the ladder's order decides whether
        the top line lies in that subspace or the dual line in its
        annihilator.
    repeated_top: D two ladders with the same top, so that eigenspace is
        not a line; T block diagonal or random.
    non_ladder: D with steps of 1, or a Jordan block, which has no
        arithmetic spectrum of step 2; T random.
    """
    kind = draw(st.sampled_from(("generic", "triangular", "repeated_top", "non_ladder")))
    n = draw(st.integers(2, 5))
    c = draw(SMALL)
    k = draw(st.integers(1, n - 1))
    t = [[draw(SMALL) for _ in range(n)] for _ in range(n)]
    d = [[F(0)] * n for _ in range(n)]
    if kind in ("generic", "triangular"):
        for i, lam in enumerate(draw(st.permutations([c - 2 * i for i in range(n)]))):
            d[i][i] = lam
    elif kind == "repeated_top":
        for i, lam in enumerate([c - 2 * i for i in range(k)] + [c - 2 * i for i in range(n - k)]):
            d[i][i] = lam
    else:
        jordan = draw(st.booleans())
        for i in range(n):
            d[i][i] = c if jordan else c - i
            if jordan and i + 1 < n:
                d[i][i + 1] = F(1)
    if kind == "triangular" or (kind == "repeated_top" and draw(st.booleans())):
        for i in range(k, n):
            for j in range(k):
                t[i][j] = F(0)
        if kind == "triangular":
            t[0][k] = draw(SMALL.filter(bool))
        else:
            for i in range(k):
                for j in range(k, n):
                    t[i][j] = F(0)
    m = conjugated(OnsagerModule(n, Matrix.from_rows(d), Matrix.from_rows(t)), draw(unitriangular_matrices(n, SMALL)))
    return kind, m.A, m.Astar


@st.composite
def quotient_pairs(draw):
    """(m1, m2, split): m1 = P (D, T) P^-1 with D a ladder in random order
    and T block upper triangular, so the first k coordinates span a
    submodule K, and m2 = Q (D, T') Q^-1 with T' = T, or (split) T with its
    corner block zeroed. Split, the map of m1 onto its quotient by K is an
    intertwiner that kills K, so the spin from the top line can be the graph
    of a singular S."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n - 1))
    c = draw(SMALL)
    # the top eigenvalue c sits outside K, so the top line is no vector of K
    ladder = draw(st.permutations([c - 2 * i for i in range(n)]))
    top = draw(st.integers(k, n - 1))
    ladder[ladder.index(c)], ladder[top] = ladder[top], c
    d = [[F(0)] * n for _ in range(n)]
    for i, lam in enumerate(ladder):
        d[i][i] = lam
    t = [[F(0) if i >= k > j else draw(SMALL) for j in range(n)] for i in range(n)]
    split = draw(st.booleans())
    t_split = [[F(0) if split and i < k <= j else x for j, x in enumerate(row)] for i, row in enumerate(t)]
    modules = []
    for b in (t, t_split):
        p = draw(unitriangular_matrices(n, SMALL))
        modules.append(conjugated(OnsagerModule(n, Matrix.from_rows(d), Matrix.from_rows(b)), p))
    return modules[0], modules[1], split


class TestNortonDifferential:
    """Norton's verdicts against the closure they replace."""

    def test_grid_modules(self, grid_modules, grid_burnside):
        for s, m in grid_modules.items():
            expected = generated_algebra_dimension(m.A, m.Astar) == m.dim**2
            assert pair_generates_full_algebra(m.A, m.Astar) == expected, s.factors
            assert pair_generates_full_algebra(m.Astar, m.A) == expected, s.factors
            assert grid_burnside[s] == expected, s.factors

    def test_disjoint_pairs_of_built_grid(self, built_irreducible_grid):
        for s, t in built_irreducible_grid.items():
            for p1, p2 in OPPOSITE_PAIRS:
                assert generated_algebra_dimension(t.x[p1], t.x[p2]) == t.dim**2, (s.factors, p1, p2)
                assert pair_generates_full_algebra(t.x[p1], t.x[p2]), (s.factors, p1, p2)
                assert pair_generates_full_algebra(t.x[p2], t.x[p1]), (s.factors, p2, p1)

    def test_h_h_and_v1(self):
        h = Matrix.from_rows([[1, 0], [0, -1]])
        v = evaluation_module(1, F(1))
        for a, b in ((h, h), (v.A, v.Astar)):
            assert generated_algebra_dimension(a, b) < 4
            assert not pair_generates_full_algebra(a, b)
            assert not is_irreducible_burnside(OnsagerModule(2, a, b))

    @settings(max_examples=80, deadline=None)
    @given(conjugated_pairs())
    # e_0 is the eigenvector at 0: its Krylov polynomial x is a one-rung ladder, and that eigenspace a line
    @example(("non_ladder", Matrix.from_rows([[0, 0], [0, -1]]), Matrix.zeros(2, 2)))
    def test_conjugated_pairs(self, drawn):
        kind, a, b = drawn
        n = a.rows
        expected = exact_closure_dimension(a, b) == n * n
        assert (generated_algebra_dimension(a, b) == n * n) == expected
        assert pair_generates_full_algebra(a, b) == expected
        assert is_irreducible_burnside(OnsagerModule(n, a, b)) == expected
        # a Norton verdict is kept in a's memo exactly when a, or else b, offered an eigenline to spin
        verdicts = norton_verdicts(a)
        b_line = offers_line(b)
        if kind == "triangular":
            assert verdicts == {b: False}
        elif kind == "generic":
            assert verdicts == {b: expected}
        elif kind == "repeated_top":
            # two ladders of lengths k and n - k share their top: a line below it unless k = n - k
            assert (b in verdicts) == (2 * (len(linalg.minimal_polynomial(a)) - 1) != n or b_line)
        else:
            # no ladder spectrum, so a offers a line iff an eigenspace at a ladder root of mu_(e_0) is one
            assert linalg.ladder_spectrum(a) is None
            roots = linalg._ladder_roots(linalg._krylov_polynomial(a)) or ()
            assert (b in verdicts) == (any(eigenspace(a, lam).dim == 1 for lam in roots) or b_line)

    @settings(max_examples=60, deadline=None)
    @given(conjugated_pairs(), st.data())
    def test_any_order_of_eigenpairs(self, drawn, data):
        # _full_algebra at whichever eigenline it meets first, against the exact closure
        _, a, b = drawn
        expected = exact_closure_dimension(a, b) == a.rows**2
        roots = sorted(linalg.rational_roots(linalg.minimal_polynomial(a)), reverse=True)
        eigenpairs = [(lam, eigenspace(a, lam)) for lam in roots]
        for order in (eigenpairs, eigenpairs[::-1], data.draw(st.permutations(eigenpairs))):
            linalg._spectral_memo(a).pop(b, None)
            assert classify._full_algebra(a, b, order) == expected

    def test_burnside_and_pairwise_need_no_closure(self, spy, grid_modules, built_irreducible_grid):
        calls = []
        for name in ("generated_algebra_dimension", "_closure_dimension_exact"):
            spy(classify, name, name, calls)
        for s, t in built_irreducible_grid.items():
            assert pairwise_burnside(t), s.factors
            assert is_irreducible_burnside(grid_modules[s]), s.factors
        assert calls == []
        assert not is_irreducible_burnside(direct_sum(evaluation_module(1, F(2)), evaluation_module(1, F(2))))
        assert calls



def offers_line(m: Matrix) -> bool:
    """Whether one of m's ladder eigenspaces, as linalg._ladder_eigenpairs reads them, is a line."""
    return classify._first_line(linalg._ladder_eigenpairs(m)) is not None


def long_entry_pair(digits: int) -> tuple[Matrix, Matrix]:
    """(x_02, x_13) of the d6 build (2, 2)(1, 3), with entries (0, 1) and (1, 0) of
    x_02 replaced by the integer 77...7 of the given length, as the long-entry
    file of the CLI tests has them at 4000 digits."""
    t = build_tetra_from_spec(spec((2, 2), (1, 3)))
    rows = [list(row) for row in t.x[(0, 2)].to_rows()]
    rows[0][1] = rows[1][0] = F("7" * digits)
    return Matrix.from_rows(rows), t.x[(1, 3)]


class TestSecondGeneratorLine:
    """Where the first generator offers no eigenline, Norton's test runs at the
    first ladder eigenline of the second, since (b, a) generates the same
    algebra: against the exact closure, which a spy then never sees."""

    @pytest.mark.parametrize("digits", [20, 60])
    def test_long_entries_of_x_02(self, spy, digits):
        a, b = long_entry_pair(digits)
        assert not offers_line(a) and offers_line(b)
        assert exact_closure_dimension(a, b) == 36
        closures = spy(classify, "_closure_dimension_exact", lambda gens, n: n)
        assert pair_generates_full_algebra(a, b) is True
        assert norton_verdicts(a) == {b: True}
        assert generated_algebra_dimension(a, b) == 36
        assert closures == []

    def test_decides_above_the_guard(self, monkeypatch):
        # the closure's dim^2 36 would be refused; the spin at x_13's top line has no size bound
        a, b = long_entry_pair(20)
        monkeypatch.setattr(matrix, "DIM_GUARD", 35)
        assert pair_generates_full_algebra(a, b)
        with pytest.raises(DimensionGuardError):
            generated_algebra_dimension(a, b)

    @settings(max_examples=60, deadline=None)
    @given(conjugated_pairs())
    def test_conjugated_pairs_with_the_roles_swapped(self, drawn):
        # the drawn b comes first, so mostly only the ladder, now second, offers a line
        _, a, b = drawn
        n = a.rows
        expected = exact_closure_dimension(b, a) == n * n
        with pytest.MonkeyPatch.context() as mp:
            closures = corpus.spy(mp, classify, "_closure_dimension_exact", lambda gens, n: n)
            assert pair_generates_full_algebra(b, a) == expected
            assert is_irreducible_burnside(OnsagerModule(n, b, a)) == expected
        if offers_line(b) or offers_line(a):
            assert norton_verdicts(b) == {a: expected}
            assert closures == []
        else:
            assert closures == [n, n]


class TestOneLadderRoute:
    """pair_generates_full_algebra reads a's ladder in linalg (_ladder_eigenpairs),
    and find_intertwiner its top off the certified pass of module_type."""

    def test_no_minimal_polynomial_on_built_modules(self, grid_specs, spy):
        # fresh builds, so no Norton verdict kept on an earlier matrix answers in place of the route
        specs = [s for s in grid_specs if is_irreducible_criterion(s)] + [spec((32, 2))]
        calls = spy(linalg, "minimal_polynomial")
        for s in specs:
            assert is_irreducible_burnside(build_from_spec(s)), s.factors
            m = build_from_spec(s)
            assert find_intertwiner(m, m) == Matrix.identity(m.dim), s.factors
        assert calls == []

    @pytest.mark.parametrize("small_first", [True, False], ids=["V(1,2)+V(3,3)", "V(3,3)+V(1,2)"])
    def test_a_short_krylov_ladder_falls_back_to_the_ladder_spectrum(self, monkeypatch, spy, small_first):
        # with V(1, 2) first, e_0 lies in it: mu_(e_0) is the ladder {1, -1}, and both its eigenspaces are
        # planes, so the line at 3 comes from ladder_spectrum, whose minimal polynomial runs once
        v, w = evaluation_module(1, F(2)), evaluation_module(3, F(3))
        if not small_first:
            v, w = w, v

        def module() -> OnsagerModule:
            return direct_sum(v, w)

        a = module().A
        krylov = (F(-1), F(0), F(1)) if small_first else linalg.minimal_polynomial(a)
        assert linalg._krylov_polynomial(a) == krylov
        expected = exact_closure_dimension(a, module().Astar) == 36
        assert expected is False
        monkeypatch.setattr(matrix, "DIM_GUARD", 10)
        closures = spy(classify, "_closure_dimension_exact", lambda gens, n: n)
        polynomials = spy(linalg, "minimal_polynomial")
        m = module()
        assert pair_generates_full_algebra(m.A, m.Astar) is expected
        assert norton_verdicts(m.A) == {m.Astar: expected}
        assert closures == []
        assert polynomials == ([m.A] if small_first else [])

    def test_empty_module(self):
        z = Matrix.zeros(0, 0)
        assert pair_generates_full_algebra(z, z)
        # a 0 x 0 A1 has no spectrum, as module_type says
        with pytest.raises(SpectrumError, match="scalar spectrum could not be extracted"):
            find_intertwiner(OnsagerModule(0, z, z), OnsagerModule(0, z, z))


def lower_eigenline_module() -> OnsagerModule:
    """evaluation_module(2, 2) plus a 1 x 1 block 2 in both generators: A has
    a plane at its top 2 and lines at 0 and -2."""
    two = Matrix.from_rows([[2]])
    return direct_sum(evaluation_module(2, F(2)), OnsagerModule(1, two, two))


def test_a_lower_eigenline_decides_where_the_top_is_a_plane(monkeypatch, spy):
    # each check on its own matrices, so each finds the line at 0 itself; a closure of dim^2 16 would be refused
    assert [eigenspace(lower_eigenline_module().A, lam).dim for lam in (2, 0, -2)] == [2, 1, 1]
    monkeypatch.setattr(matrix, "DIM_GUARD", 15)
    closures = spy(classify, "_closure_dimension_exact", lambda gens, n: n)
    assert not is_irreducible_burnside(lower_eigenline_module())
    with pytest.raises(ReducibleModuleError):
        build_tetra(lower_eigenline_module())
    m = lower_eigenline_module()
    assert not verify_tridiagonal_pair(m.A, m.Astar).irreducible
    m = lower_eigenline_module()
    assert check_onsager_equivalence(m.A, m.Astar)
    assert closures == []


@pytest.mark.parametrize(
    "check, refuses",
    [
        (lambda t, m: pairwise_burnside(t), False),
        (lambda t, m: pair_generates_full_algebra(t.x[(0, 2)], t.x[(1, 3)]), False),
        (lambda t, m: verify_tridiagonal_pair(m.A, m.Astar).verdict, False),
        (lambda t, m: is_irreducible_burnside(m), False),
        (lambda t, m: generated_algebra_dimension(m.A, m.Astar), True),
        (lambda t, m: find_intertwiner(m, m) is not None, False),
    ],
    ids=["pairwise_burnside", "pair_generates_full_algebra", "verify_tridiagonal_pair",
         "is_irreducible_burnside", "generated_algebra_dimension", "find_intertwiner"],
)
def test_oracle_guard_binds_only_the_closures(monkeypatch, check, refuses):
    # on a d16 whose dim^2 is above the guard the spin still answers, and the dim^2 oracles refuse
    t = build_tetra_from_spec(spec((3, 2), (3, 3)))
    m = OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)])
    monkeypatch.setattr(matrix, "DIM_GUARD", 64)
    if refuses:
        with pytest.raises(DimensionGuardError):
            check(t, m)
    else:
        assert check(t, m) is True


def test_one_guard_bounds_each_problem_by_its_own_side(monkeypatch):
    # a matrix by its larger side, a closure by dim^2; the intertwiner is a spin, with no side of its own
    monkeypatch.setattr(matrix, "DIM_GUARD", 32)
    assert Matrix.zeros(1, 32).cols == 32
    with pytest.raises(DimensionGuardError, match="matrix side 33 exceeds the dimension guard 32"):
        Matrix.zeros(1, 33)
    d5, d6 = evaluation_module(4, 2), evaluation_module(5, 2)
    assert generated_algebra_dimension(d5.A, d5.Astar) == 25
    with pytest.raises(DimensionGuardError, match="Burnside closure dimension 36 exceeds the dimension guard 32"):
        generated_algebra_dimension(d6.A, d6.Astar)
    assert find_intertwiner(d5, d5) == Matrix.identity(5)
    assert find_intertwiner(d6, d6) == Matrix.identity(6)


class TestEquivalence:
    def test_permutation_and_inversion(self):
        assert are_equivalent(spec((1, 2), (1, 3)), spec((1, 3), (1, F(1, 2))))

    def test_different_weights(self):
        assert not are_equivalent(spec((1, 2)), spec((2, 2)))

    def test_reflexive(self):
        s = spec((2, 3), (1, 5))
        assert are_equivalent(s, s)

    def test_key_invariance(self):
        factors = ((1, F(2)), (2, F(3)), (1, F(5)))
        base = equivalence_key(ModuleSpec(factors))
        for perm in permutations(factors):
            for mask in range(8):
                flipped = tuple(
                    (n, 1 / a if mask & (1 << i) else a) for i, (n, a) in enumerate(perm)
                )
                assert equivalence_key(ModuleSpec(flipped)) == base

    def test_trivial_factors_dropped(self):
        assert equivalence_key(spec((0, 7), (1, 2))) == equivalence_key(spec((1, 2)))

    def test_shifted_spec_rejected(self):
        with pytest.raises(ValueError):
            are_equivalent(spec((1, 2), shift=(1, 0)), spec((1, 2)))


class TestIntertwiner:
    def test_self_intertwiner(self):
        m = build_from_spec(spec((1, 2), (1, 3)))
        s = find_intertwiner(m, m)
        assert s is not None
        assert s * m.A == m.A * s and s * m.Astar == m.Astar * s

    def test_inverse_parameter_pair(self):
        m1 = evaluation_module(1, F(2))
        m2 = evaluation_module(1, F(1, 2))
        s = find_intertwiner(m1, m2)
        assert s is not None
        assert s * m1.A == m2.A * s
        assert s * m1.Astar == m2.Astar * s

    def test_distinct_parameters_no_intertwiner(self):
        assert find_intertwiner(evaluation_module(1, F(2)), evaluation_module(1, F(3))) is None

    def test_shifted_module(self):
        # the top eigenvalue of A is d + alpha
        m = build_from_spec(spec((1, 2), (1, 3), shift=(3, -1)))
        assert find_intertwiner(m, m) == Matrix.identity(4)

    def test_dim_mismatch(self):
        assert find_intertwiner(evaluation_module(1, F(2)), evaluation_module(2, F(2))) is None

    def test_guard(self, monkeypatch):
        # the spin is 2 dim wide: a d16 decides where its dim^2 is above the guard
        m = build_from_spec(spec((3, 2), (3, 3)))
        monkeypatch.setattr(matrix, "DIM_GUARD", 64)
        assert find_intertwiner(m, m) == Matrix.identity(16)


def decided_as_by_the_determinant(m1, m2):
    """find_intertwiner on (m1, m2), checked against the determinant of the
    candidate S it read off the spin: the witness is S scaled exactly when
    det S != 0. Returns whether S is invertible, None with no candidate."""
    candidates = []
    real_tails = classify._tails
    spy = lambda graph, n: candidates.append(real_tails(graph, n)) or candidates[-1]  # noqa: E731
    with mock.patch.object(classify, "_tails", spy):
        try:
            witness = find_intertwiner(m1, m2)
        except ReducibleModuleError:
            return None
    if not candidates:
        assert witness is None
        return None
    s = candidates[0].transpose()
    invertible = determinant(s) != 0
    assert witness == (s * (1 / next(x for x in s.entries if x)) if invertible else None)
    return invertible


class TestIntertwinerDifferential:
    """find_intertwiner, one spin in M1 + M2, against reference_intertwiner,
    the kernel of the 2 dim^2 x dim^2 system, matrix for matrix."""

    def test_grid_pairs(self, grid_specs, grid_modules, reference_intertwiner):
        small = [s for s in grid_specs if is_irreducible_criterion(s) and s.dim <= 9]
        pairs = [(s1, s2) for s1 in small for s2 in small if s1.dim == s2.dim]
        assert len(pairs) == 338
        for s1, s2 in pairs:
            m1, m2 = grid_modules[s1], grid_modules[s2]
            expected = reference_intertwiner(m1, m2)
            assert find_intertwiner(m1, m2) == expected, (s1.factors, s2.factors)
            assert (expected is not None) == is_isomorphic(s1, s2), (s1.factors, s2.factors)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_conjugates(self, grid_specs, grid_modules, reference_intertwiner, data):
        # (m, P m P^-1) in either order
        s = data.draw(st.sampled_from([s for s in grid_specs if is_irreducible_criterion(s) and s.dim <= 9]))
        m = grid_modules[s]
        conjugate = conjugated(m, data.draw(unitriangular_matrices(m.dim, SMALL)))
        m1, m2 = (conjugate, m) if data.draw(st.booleans()) else (m, conjugate)
        witness = find_intertwiner(m1, m2)
        assert witness is not None and witness == reference_intertwiner(m1, m2)

    def test_equal_tables_not_isomorphic(self, reference_intertwiner):
        def table(m):
            d = module_type(m)[0]
            return [[eigenspace(x, lam).dim for lam in range(-d, d + 1)] for x in (m.A, m.Astar)]

        m1, m2 = build_from_spec(spec((2, 2), (2, 3))), build_from_spec(spec((2, 2), (2, 5)))
        assert table(m1) == table(m2)
        assert find_intertwiner(m1, m2) is None and reference_intertwiner(m1, m2) is None
        # d27, where the reference system would take about 10 s
        m1, m2 = build_from_spec(spec((2, 2), (2, 3), (2, 5))), build_from_spec(spec((2, 2), (2, 3), (2, 7)))
        assert table(m1) == table(m2)
        assert find_intertwiner(m1, m2) is None

    def test_d27_isomorphic(self):
        m1 = build_from_spec(spec((2, 2), (2, 3), (2, 5)))
        m2 = build_from_spec(spec((2, F(1, 5)), (2, 2), (2, F(1, 3))))
        s = find_intertwiner(m1, m2)
        assert s is not None and s * m1.A == m2.A * s and s * m1.Astar == m2.Astar * s

    @pytest.mark.parametrize("factors", [[(1, 1)], [(2, 3), (2, 3)]], ids=["v1", "v3_v3"])
    def test_reducible_spin_raises(self, reference_intertwiner, factors):
        # the top eigenline spins to a proper submodule; the system still finds a matrix
        m = build_from_spec(ModuleSpec.of(factors))
        assert reference_intertwiner(m, m) is not None
        with pytest.raises(ReducibleModuleError, match="spins to a proper invariant subspace"):
            find_intertwiner(m, m)

    def test_reducible_m1_with_pivots_past_its_head(self):
        # v1 spins to a line of the d2 (1,1), v2 to all of the d2 (1,2): pivots 0, 2, 3
        with pytest.raises(ReducibleModuleError, match="spins to a proper invariant subspace"):
            find_intertwiner(evaluation_module(1, 1), evaluation_module(1, 2))

    def test_top_eigenspace_not_a_line_raises(self, doubled_v):
        m = OnsagerModule(8, doubled_v.x[(0, 1)], doubled_v.x[(2, 3)])
        with pytest.raises(ReducibleModuleError, match="2-dimensional eigenspace"):
            find_intertwiner(m, m)

    def test_no_line_in_a2(self, reference_intertwiner):
        # A2 = diag(A, A) of a d2 has no eigenvalue 2, the top of the d4's A1
        m1, v = build_from_spec(spec((1, 2), (1, 3))), evaluation_module(1, F(2))
        m2 = direct_sum(v, v)
        assert find_intertwiner(m1, m2) is None and reference_intertwiner(m1, m2) is None

    @pytest.mark.parametrize("factors", [[(1, 2), (1, 2)], [(1, 2), (1, 1)]], ids=["v2_v2", "v2_v1"])
    def test_reducible_m2_extra_pivots(self, reference_intertwiner, factors):
        # the spin of (v1, v2) meets 0 + M2 in a proper submodule: pivots past dim
        m1, m2 = build_from_spec(spec((1, 2), (1, 3))), build_from_spec(ModuleSpec.of(factors))
        assert find_intertwiner(m1, m2) is None and reference_intertwiner(m1, m2) is None

    def test_singular_graph(self, reference_intertwiner):
        # a reducible m1 spun from its top line onto the graph of a singular S: the determinant decides
        a, b1 = Matrix.from_rows([[1, 0], [0, -1]]), Matrix.from_rows([[0, 0], [1, 0]])
        m1, m2 = OnsagerModule(2, a, b1), OnsagerModule(2, a, Matrix.zeros(2, 2))
        assert find_intertwiner(m1, m2) is None and reference_intertwiner(m1, m2) is None

    def test_rank_decides_as_the_determinant_on_grid_pairs(self, grid_specs, grid_modules):
        irreducible = [s for s in grid_specs if is_irreducible_criterion(s)]
        pairs = [(s1, s2) for s1 in irreducible for s2 in irreducible if s1.dim == s2.dim]
        verdicts = [decided_as_by_the_determinant(grid_modules[s1], grid_modules[s2]) for s1, s2 in pairs]
        # Schur: S from an irreducible m1 with S v1 = v2 != 0 is invertible
        assert False not in verdicts and True in verdicts
        # the singular graph: det S = 0, so no witness
        a, b1 = Matrix.from_rows([[1, 0], [0, -1]]), Matrix.from_rows([[0, 0], [1, 0]])
        assert decided_as_by_the_determinant(OnsagerModule(2, a, b1), OnsagerModule(2, a, Matrix.zeros(2, 2))) is False

    @settings(max_examples=80, deadline=None)
    @given(quotient_pairs())
    def test_rank_decides_as_the_determinant_on_conjugations(self, drawn):
        m1, m2, split = drawn
        verdict = decided_as_by_the_determinant(m1, m2)
        assert not (verdict is False and not split)  # m2 isomorphic to m1: S invertible

    def test_no_elimination_wider_than_the_spin(self, spy):
        # the width of every echelon, whichever module builds it
        widths = spy(linalg._Echelon, "__init__", lambda self, n: n)
        for first, second, found in [
            ([(3, 2), (3, 3)], [(3, F(1, 3)), (3, 2)], True),
            ([(3, 2), (3, 3)], [(3, 2), (3, 5)], False),
            ([(2, 2), (2, 3), (2, 5)], [(2, 5), (2, 3), (2, F(1, 2))], True),
        ]:
            s1 = ModuleSpec.of(first)
            m1, m2 = build_from_spec(s1), build_from_spec(ModuleSpec.of(second))
            widths.clear()
            # the form compare --oracle calls, with the top the spec gives
            assert (classify._intertwiner_with_top(m1, m2, s1.degree_sum) is not None) == found
            assert max(widths) == 2 * m1.dim, (first, second, widths)

    def test_top_from_the_spec_gives_the_same_witness(self, grid_specs, grid_modules):
        # compare --oracle passes d; find_intertwiner reads the top off the spectrum of A1
        irreducible = [s for s in grid_specs if is_irreducible_criterion(s)]
        pairs = [(s1, s2) for s1 in irreducible for s2 in irreducible if s1.dim == s2.dim]
        assert len(pairs) == 463
        for s1, s2 in pairs:
            m1, m2 = grid_modules[s1], grid_modules[s2]
            expected = find_intertwiner(m1, m2)
            assert classify._intertwiner_with_top(m1, m2, s1.degree_sum) == expected, (s1.factors, s2.factors)


class TestIsomorphism:
    def test_all_factors_inverted(self):
        assert is_isomorphic(spec((1, 2), (1, 3)), spec((1, F(1, 2)), (1, F(1, 3))))

    def test_different_keys(self):
        s1, s2 = spec((1, 2), (1, 3)), spec((1, 2), (1, 5))
        assert not is_isomorphic(s1, s2)
        assert find_intertwiner(build_from_spec(s1), build_from_spec(s2)) is None

    def test_single_inversion(self):
        assert is_isomorphic(spec((2, 2)), spec((2, F(1, 2))))

    def test_reducible_rejected(self):
        with pytest.raises(ReducibleModuleError):
            is_isomorphic(spec((1, 1)), spec((1, 2)))


def spy_eigenspaces(monkeypatch) -> list:
    """(matrix, eigenvalue) of every eigenspace call that forms its kernel from
    now on; a memo hit forms none. The list holds each matrix, so no two of
    them share an id while it lives."""
    calls, kernels = [], corpus.spy(monkeypatch, linalg, "_kernel")
    real = linalg.eigenspace

    def formed(m, lam):
        before = len(kernels)
        space = real(m, lam)
        if len(kernels) > before:
            calls.append((m, lam))
        return space

    corpus.rebind(monkeypatch, linalg, "eigenspace", formed, (classify, tetra))
    return calls


def norton_verdicts(a: Matrix) -> dict:
    """Norton's verdicts kept in a's spectral memo, keyed by the partner matrix."""
    return {b: verdict for b, verdict in a._spectral_memo.items() if isinstance(b, Matrix)}


def recomputed(calls: list) -> list:
    """The (size, eigenvalue) of every call that repeats an earlier one on the same matrix object."""
    keys = [(id(m), lam) for m, lam in calls]
    return [(m.rows, lam) for i, (m, lam) in enumerate(calls) if keys[i] in keys[:i]]


@pytest.mark.work_count
class TestOneNortonVerdictPerPair:
    """Norton's verdict is kept on the first generator, keyed by the second,
    so every entry point on the same matrices spins once."""

    @pytest.mark.parametrize("factors, irreducible", [([(1, 2), (2, 3)], True), ([(1, 2), (2, F(1, 2))], False)])
    def test_three_entry_points_one_test(self, spy, factors, irreducible):
        m = build_from_spec(spec(*factors))
        calls = spy(classify, "_norton", lambda a, b, *args: (a, b))
        assert is_irreducible_burnside(m) == irreducible
        if irreducible:
            assert build_tetra(m).x[(0, 1)] == m.A
        else:
            with pytest.raises(ReducibleModuleError):
                build_tetra(m)
        assert check_onsager_equivalence(m.A, m.Astar)
        assert verify_tridiagonal_pair(m.A, m.Astar).irreducible == irreducible
        assert len(calls) == 1 and calls[0][0] is m.A and calls[0][1] is m.Astar

    def test_pairwise_burnside_reads_the_build_verdict(self, spy):
        # the library route that verify --deep takes on a file that failed a plain check: the flag-route rebuild
        # of the file's (x_01, x_23), then pairwise_burnside on the file
        t = build_tetra_from_spec(spec((3, 2), (3, 3)))
        standard = OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)])
        calls = spy(classify, "_norton", lambda a, b, *args: (a, b))
        assert build_tetra(standard).x == t.x
        assert pairwise_burnside(t)
        # build_tetra's test answers for (x_01, x_23); the other two pairs run their own
        assert calls == [(t.x[p1], t.x[p2]) for p1, p2 in OPPOSITE_PAIRS]
        assert calls[0][0] is standard.A and calls[0][1] is standard.Astar

    def test_equal_modules_each_run_their_own_test(self, spy):
        first, second = (build_from_spec(spec((2, 3), (1, 5))) for _ in range(2))
        assert first.A == second.A and first.A is not second.A
        before = (hash(first.A), repr(first.A))
        assert "_spectral_memo" not in vars(first.A)
        calls = spy(classify, "_norton", lambda a, b, *args: (a, b))
        assert is_irreducible_burnside(first) and is_irreducible_burnside(first)
        assert len(calls) == 1
        assert is_irreducible_burnside(second)
        assert len(calls) == 2 and calls[1][0] is second.A
        # the verdict sits in the memo in the instance __dict__, outside the fields that ==, hash and repr read
        assert norton_verdicts(first.A) == {first.Astar: True}
        assert "_spectral_memo" not in Matrix._fields
        assert first.A == second.A
        assert (hash(first.A), repr(first.A)) == before == (hash(second.A), repr(second.A))

    def test_verdict_dies_with_its_matrix(self):
        m = build_from_spec(spec((1, 2), (1, 3)))
        assert is_irreducible_burnside(m)
        a, astar = weakref.ref(m.A), weakref.ref(m.Astar)
        del m
        assert a() is None and astar() is None
        # so do the eigenspaces build_tetra and the tridiagonal check read, kept on A and Astar
        m = build_from_spec(spec((1, 2), (1, 3)))
        assert is_irreducible_burnside(m) and build_tetra(m).dim == 4 and check_onsager_equivalence(m.A, m.Astar)
        # 3 rungs and the Krylov polynomial on each, and on A Norton's verdict on (A, Astar)
        assert (len(m.A._spectral_memo), len(m.Astar._spectral_memo)) == (5, 4)
        a, astar = weakref.ref(m.A), weakref.ref(m.Astar)
        del m
        assert a() is None and astar() is None

    def test_three_questions_form_each_kernel_once(self, spy):
        # a fresh d16 build: Norton's lines in A and A^T; then the 7 + 7 eigenspaces of A and Astar but the
        # top line of A, which Norton formed; then none, as every eigenspace is read off the memo
        m = build_from_spec(spec((3, 2), (3, 3)))
        kernels = spy(linalg, "_kernel")
        counts = []
        for question in (is_irreducible_burnside, build_tetra, lambda m: check_onsager_equivalence(m.A, m.Astar)):
            before = len(kernels)
            assert question(m)
            counts.append(len(kernels) - before)
        assert counts == [2, 13, 0]

    def test_find_intertwiner_forms_the_top_line_once(self, spy):
        # A1's certified pass forms its 10 eigenspaces, the top line among them, and A2's top line is the 11th
        s = spec((3, 2), (3, 3), (3, 5))
        m1, m2 = build_from_spec(s), build_from_spec(s)
        kernels = spy(linalg, "_kernel")
        assert find_intertwiner(m1, m2) == Matrix.identity(m1.dim)
        assert len(kernels) == 11

    def test_guard_refusal_is_raised_on_every_call(self, monkeypatch):
        # V + V has no top line, so only the closure decides, and its dim^2 16 is above the guard
        m = direct_sum(evaluation_module(1, F(2)), evaluation_module(1, F(2)))
        monkeypatch.setattr(matrix, "DIM_GUARD", 8)
        checks = (is_irreducible_burnside, build_tetra, lambda m: verify_tridiagonal_pair(m.A, m.Astar),
                  lambda m: check_onsager_equivalence(m.A, m.Astar))
        for _ in range(2):
            for check in checks:
                with pytest.raises(DimensionGuardError, match="Burnside closure dimension 16"):
                    check(m)
        assert norton_verdicts(m.A) == {}

    @pytest.mark.parametrize("factors", [[(1, 2), (2, 3)], [(1, 2), (2, F(1, 2))]], ids=["irreducible", "reducible"])
    def test_no_eigenspace_recomputes_a_line_in_hand(self, monkeypatch, factors):
        # Norton takes ker(A - d) from the spectrum or the chain its caller holds
        s = spec(*factors)
        calls = spy_eigenspaces(monkeypatch)
        entry_points = [
            lambda m: build_tetra(m),
            lambda m: verify_tridiagonal_pair(m.A, m.Astar),
            lambda m: check_onsager_equivalence(m.A, m.Astar),
        ]
        for run in entry_points:
            calls.clear()
            try:
                run(build_from_spec(s))
            except ReducibleModuleError:
                pass
            assert calls and recomputed(calls) == []
        if is_irreducible_criterion(s):
            t = build_tetra_from_spec(s)
            calls.clear()
            eigentable(t)
            assert pairwise_burnside(t)
            assert recomputed(calls) == []
        else:
            # build_tetra asks before either spectrum: A's top line, where Norton's spin stops short, is the
            # one eigenspace it forms
            m = build_from_spec(s)
            calls.clear()
            with pytest.raises(ReducibleModuleError):
                build_tetra(m)
            assert [(mat is m.A, lam) for mat, lam in calls] == [(True, s.degree_sum)]


def count_subspaces() -> int:
    """The Subspace objects alive now."""
    gc.collect()
    return sum(isinstance(obj, linalg.Subspace) for obj in gc.get_objects())


@pytest.mark.work_count
class TestOneMemoPerMatrix:
    """linalg's spectral memo is the one place where a derived fact about a matrix is kept: a TetraModule
    keeps no chain and a Matrix no verdict beside it, so one bound holds for every kept subspace."""

    def test_kept_modules_keep_the_subspaces_of_the_bounded_holders(self):
        # 30 kept d16 modules after their eigentables: at most _MEMO_BOUND generators keep their d + 1 eigenspaces
        s = spec((3, 2), (3, 3))
        before, kept = count_subspaces(), []
        for _ in range(30):
            kept.append(build_tetra_from_spec(s))
            assert eigentable(kept[-1]).all_passed
        assert count_subspaces() - before <= linalg._MEMO_BOUND * (s.degree_sum + 1)

    def test_matrices_and_modules_keep_nothing_beside_the_memo(self):
        m = build_from_spec(spec((3, 2), (3, 3)))
        assert is_irreducible_burnside(m)
        t = build_tetra(m)
        assert check_onsager_equivalence(m.A, m.Astar)
        relations, table, actions, independent = tetra._verify(t)
        assert relations.all_passed and table.all_passed and actions.all_passed and independent
        assert pairwise_burnside(t)
        fields = set(Matrix._fields) | {"_spectral_memo"}
        assert set(vars(m.A)) == set(vars(m.Astar)) == fields
        assert all(set(vars(x)) <= fields for x in t.x.values())
        assert set(vars(t)) == {"dim", "diameter", "x", "_antisymmetric"}

    def test_norton_makes_its_first_generator_the_only_new_holder(self, spy):
        # the dual line ker(A^T - d) is read off A's transposed rows: no transpose is built to hold a memo
        m = build_from_spec(spec((3, 2), (3, 3)))
        before = list(linalg._memo_holders)
        calls = spy(classify, "_norton", lambda a, b, *args: (a, b))
        assert is_irreducible_burnside(m) and len(calls) == 1
        new = [ref() for ref in linalg._memo_holders if all(ref is not old for old in before)]
        assert len(new) == 1 and new[0] is m.A


class TestOneDecisionPerQuestion:
    """Each piece set reaches one elimination and each Burnside question one
    Norton verdict: the solve that reads x_rs decides whether build_tetra's
    pieces sum directly, Decomposition's rank decides it for
    induced_decomposition and are_opposite, and a pair Norton cannot decide
    goes to the closure without being asked again. The pieces themselves are
    read off one solve of coordinates, shared by build_tetra's four mixed pairs."""

    @staticmethod
    def spy_eliminations(spy) -> list[str]:
        """The eliminations flags runs from now on: a rank (_echelon) or a solve (_solve)."""
        calls = []
        for name in ("_echelon", "_solve"):
            spy(flags, name, name, calls)
        return calls

    def test_build_tetra_solves_once_per_mixed_pair(self, grid_modules, built_irreducible_grid, spy):
        # x_01 and x_23 are A and Astar as given; one solve writes Astar's eigenbasis in A's, and each of the
        # pairs (0, 2), (0, 3), (1, 2), (1, 3) reads its x_rs off one more
        calls = self.spy_eliminations(spy)
        for s, t in built_irreducible_grid.items():
            before = len(calls)
            m = grid_modules[s]
            built = build_tetra(m)
            assert built.x == t.x
            assert built.x[(0, 1)] is m.A and built.x[(2, 3)] is m.Astar
            assert calls[before:] == ["_solve"] * 5, s.factors

    def test_build_tetra_intersects_nothing(self, grid_modules, built_irreducible_grid, spy):
        # no linalg.intersect and no flag's partial sums: the pieces are read off one echelon per mixed pair
        calls = []
        for owner, name in ((linalg, "intersect"), (flags, "_partial_sums")):
            spy(owner, name, name, calls, (linalg, flags, tetra, classify))
        for s, t in built_irreducible_grid.items():
            assert build_tetra(grid_modules[s]).x == t.x
        assert calls == []
        four_flags(grid_modules[next(iter(built_irreducible_grid))])
        assert calls == ["_partial_sums"] * 4

    def test_induced_decomposition_ranks_its_pieces_once(self, non_opposite_flags, spy):
        opposite = four_flags(build_from_spec(spec((1, 2), (1, 3))))
        f0, _, f2, _ = four_flags(non_opposite_flags[0][0])
        calls = self.spy_eliminations(spy)
        for r, s in permutations(range(4), 2):
            assert are_opposite(opposite[r], opposite[s])
            assert induced_decomposition(opposite[r], opposite[s]).diameter == 2
        # one solve of g's adapted basis in f's coordinates, then one rank of the pieces
        assert calls == ["_solve", "_echelon"] * 24
        # three lines in Q^5 (non_opposite_flags' first pair), refused by their count before any rank;
        # then a flag (L, Q^2) against itself, whose pieces L, L fill no plane: one rank each
        line = Subspace.span_columns(Matrix.from_rows([[1], [2]]))
        same = Flag((line, Subspace.full(2)))
        for f, g, ranks in ((f0, f2, 0), (same, same, 1)):
            del calls[:]
            assert not are_opposite(f, g)
            with pytest.raises(OppositionError) as refused:
                induced_decomposition(f, g)
            assert str(refused.value) == (
                "flags are not opposite: component intersections do not sum directly to the full space"
            )
            assert calls == (["_solve"] + ["_echelon"] * ranks) * 2

    def test_an_undecided_pair_asks_norton_once(self, spy):
        # V + V of the d4 build: no eigenline in either generator, so the one verdict is None and the closure decides
        t = build_tetra_from_spec(spec((1, 2), (1, 3)))
        a, b = (direct_sum(t.x[p], t.x[p]) for p in ((0, 1), (2, 3)))
        calls = spy(classify, "_norton_verdict", "norton")
        closures = spy(classify, "_closure_dimension_exact", lambda gens, n: n)
        assert not pair_generates_full_algebra(a, b)
        assert calls == ["norton"] and closures == [8]

    def test_a_non_ladder_pair_reads_each_minimal_polynomial_once(self, spy):
        # a has the irrational eigenvalues +-sqrt(2), refuted by its Krylov polynomial x^2 - 2 alone, and
        # b = diag(1, 1, 0, 0) a plane at 1 and no ladder, so Norton cannot run; the closure decides with no second
        # pass over either spectrum
        j = Matrix.from_rows([[0, 1], [2, 0]])
        a, b = direct_sum(j, j), Matrix.from_rows([[int(i == k < 2) for k in range(4)] for i in range(4)])
        calls = spy(classify, "_norton_verdict", "norton")
        spy(linalg, "minimal_polynomial", calls=calls)
        closures = spy(classify, "_closure_dimension_exact", lambda gens, n: n)
        assert not pair_generates_full_algebra(a, b)
        assert calls == ["norton", b] and closures == [4]
