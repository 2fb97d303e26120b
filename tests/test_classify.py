import weakref
from collections import deque
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from tetrabox import (
    DimensionGuardError,
    Matrix,
    ModuleSpec,
    OnsagerModule,
    ReducibleModuleError,
    are_equivalent,
    build_from_spec,
    build_tetra,
    build_tetra_from_spec,
    check_onsager_equivalence,
    eigenspace,
    eigentable,
    equivalence_key,
    evaluation_module,
    find_intertwiner,
    generated_algebra_dimension,
    inverse,
    is_irreducible_burnside,
    is_irreducible_criterion,
    is_isomorphic,
    module_type,
    pair_generates_full_algebra,
    pairwise_burnside,
    trivial_module,
    verify_tridiagonal_pair,
)
from tetrabox import classify, linalg, tetra
from tetrabox.linalg import _Echelon
from tetrabox.tetra import OPPOSITE_PAIRS


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
        m = doubled(evaluation_module(1, F(2)))
        monkeypatch.setattr(linalg, "DIM_GUARD", 4)
        with pytest.raises(DimensionGuardError, match="Burnside closure dimension 16"):
            is_irreducible_burnside(m)

    def test_spin_refutes_reducible_input_above_the_guard(self, monkeypatch):
        # the d9 (2,3)(2,3) is reducible, and its top line spins short: no closure, so no guard
        m = build_from_spec(spec((2, 3), (2, 3)))
        calls = []
        real = classify._spin
        monkeypatch.setattr(classify, "_spin", lambda *args: calls.append(args) or real(*args))
        monkeypatch.setattr(linalg, "DIM_GUARD", 64)
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


def block_diagonal(a: Matrix, b: Matrix) -> Matrix:
    rows = [row + [0] * b.cols for row in a.to_rows()]
    rows += [[0] * a.cols + row for row in b.to_rows()]
    return Matrix.from_rows(rows)


def doubled(v: OnsagerModule) -> OnsagerModule:
    """V + V: the top eigenspace of A is a plane, so Norton's test says nothing."""
    return OnsagerModule(2 * v.dim, block_diagonal(v.A, v.A), block_diagonal(v.Astar, v.Astar))


def spy_closures(monkeypatch) -> list[int]:
    """The dimensions at which classify.generated_algebra_dimension runs from now on."""
    calls = []
    real = classify.generated_algebra_dimension
    monkeypatch.setattr(classify, "generated_algebra_dimension", lambda a, b: calls.append(a.rows) or real(a, b))
    return calls


class TestSpin:
    """is_irreducible_burnside decides by Norton's spin wherever A has a top line."""

    def test_agrees_with_burnside_and_criterion_on_grid(self, monkeypatch, grid_modules):
        # every grid module's top eigenspace is a line, so no verdict needs the closure
        closures = spy_closures(monkeypatch)
        for s, module in grid_modules.items():
            assert is_irreducible_burnside(module) == is_irreducible_criterion(s), s.factors
        assert closures == []

    def test_shifted_module(self):
        assert is_irreducible_burnside(build_from_spec(spec((1, 2), (1, 3), shift=(3, -1))))
        assert not is_irreducible_burnside(build_from_spec(spec((1, 2), (1, F(1, 2)), shift=(3, -1))))

    def test_direct_sum_takes_the_burnside_fallback(self, monkeypatch):
        m = doubled(evaluation_module(1, F(2)))
        assert eigenspace(m.A, 1).dim == 2
        closures = spy_closures(monkeypatch)
        assert not is_irreducible_burnside(m)
        with pytest.raises(ReducibleModuleError):
            build_tetra(m)
        assert closures == [4, 4]

    def test_reducible_beyond_the_oracle_guard(self):
        m = build_from_spec(spec((4, 2), (12, F(1, 2))))
        assert m.dim == 65 and m.dim * m.dim > linalg.DIM_GUARD
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
    """Reference: the exact closure alone, with no mod-p certificate."""
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
        v, w = evaluation_module(1, F(2)), evaluation_module(2, F(3))
        a, b = block_diagonal(v.A, w.A), block_diagonal(v.Astar, w.Astar)
        # End(V) + End(W) plus nothing else: the summands are not isomorphic
        assert exact_closure_dimension(a, b) == word_closure_dimension(a, b) == 4 + 9
        assert generated_algebra_dimension(a, b) == 4 + 9


def unitriangular_product(n: int, entries: list) -> Matrix:
    """L U with L unit lower and U unit upper triangular: determinant 1."""
    lower = [[F(1) if i == j else (entries.pop() if j < i else F(0)) for j in range(n)] for i in range(n)]
    upper = [[F(1) if i == j else (entries.pop() if j > i else F(0)) for j in range(n)] for i in range(n)]
    return Matrix.from_rows(lower) * Matrix.from_rows(upper)


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
    p = unitriangular_product(n, [draw(SMALL) for _ in range(n * (n - 1))])
    p_inv = inverse(p)
    return kind, p * Matrix.from_rows(d) * p_inv, p * Matrix.from_rows(t) * p_inv


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
    def test_conjugated_pairs(self, drawn):
        kind, a, b = drawn
        n = a.rows
        expected = exact_closure_dimension(a, b) == n * n
        assert (generated_algebra_dimension(a, b) == n * n) == expected
        assert pair_generates_full_algebra(a, b) == expected
        assert is_irreducible_burnside(OnsagerModule(n, a, b)) == expected
        verdict = classify._norton(a, b, classify._spectrum_top(a))
        if kind == "triangular":
            assert verdict is False
        elif kind in ("repeated_top", "non_ladder"):
            assert verdict is None

    def test_burnside_and_pairwise_need_no_closure(self, monkeypatch, grid_modules, built_irreducible_grid):
        calls = []
        for name in ("generated_algebra_dimension", "_closure_full_mod_p", "_closure_dimension_exact"):
            real = getattr(classify, name)
            monkeypatch.setattr(classify, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        for s, t in built_irreducible_grid.items():
            assert pairwise_burnside(t), s.factors
            assert is_irreducible_burnside(grid_modules[s]), s.factors
        assert calls == []
        assert not is_irreducible_burnside(doubled(evaluation_module(1, F(2))))
        assert calls


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
    monkeypatch.setattr(linalg, "DIM_GUARD", 64)
    if refuses:
        with pytest.raises(DimensionGuardError):
            check(t, m)
    else:
        assert check(t, m) is True


def test_one_guard_bounds_each_problem_by_its_own_side(monkeypatch):
    # a matrix by its larger side, a closure by dim^2; the intertwiner is a spin, with no side of its own
    monkeypatch.setattr(linalg, "DIM_GUARD", 32)
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
        monkeypatch.setattr(linalg, "DIM_GUARD", 64)
        assert find_intertwiner(m, m) == Matrix.identity(16)


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
        m, n = grid_modules[s], grid_modules[s].dim
        p = unitriangular_product(n, [data.draw(SMALL) for _ in range(n * (n - 1))])
        p_inv = inverse(p)
        conjugate = OnsagerModule(n, p * m.A * p_inv, p * m.Astar * p_inv)
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
        m2 = doubled(v)
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

    def test_no_elimination_wider_than_the_spin(self, monkeypatch):
        widths = []

        class Spy(linalg._Echelon):
            def __init__(self, n):
                widths.append(n)
                super().__init__(n)

        monkeypatch.setattr(linalg, "_Echelon", Spy)
        monkeypatch.setattr(classify, "_Echelon", Spy)
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


def spy_norton(monkeypatch) -> list:
    """The pairs (a, b) on which classify._norton runs from now on."""
    calls = []
    real = classify._norton
    monkeypatch.setattr(classify, "_norton", lambda a, b, *args: calls.append((a, b)) or real(a, b, *args))
    return calls


def spy_eigenspaces(monkeypatch) -> list:
    """(matrix, eigenvalue) of every eigenspace kernel from now on. The list
    holds each matrix, so no two of them share an id while it lives."""
    calls = []
    real = linalg.eigenspace
    for module in (linalg, classify, tetra):
        monkeypatch.setattr(module, "eigenspace", lambda m, lam: calls.append((m, lam)) or real(m, lam))
    return calls


def recomputed(calls: list) -> list:
    """The (size, eigenvalue) of every call that repeats an earlier one on the same matrix object."""
    keys = [(id(m), lam) for m, lam in calls]
    return [(m.rows, lam) for i, (m, lam) in enumerate(calls) if keys[i] in keys[:i]]


class TestOneNortonVerdictPerPair:
    """Norton's verdict is kept on the first generator, keyed by the second
    and the top, so every entry point on the same matrices spins once."""

    @pytest.mark.parametrize("factors, irreducible", [([(1, 2), (2, 3)], True), ([(1, 2), (2, F(1, 2))], False)])
    def test_three_entry_points_one_test(self, monkeypatch, factors, irreducible):
        m = build_from_spec(spec(*factors))
        calls = spy_norton(monkeypatch)
        assert is_irreducible_burnside(m) == irreducible
        if irreducible:
            assert build_tetra(m).x[(0, 1)] == m.A
        else:
            with pytest.raises(ReducibleModuleError):
                build_tetra(m)
        assert check_onsager_equivalence(m.A, m.Astar)
        assert verify_tridiagonal_pair(m.A, m.Astar).irreducible == irreducible
        assert len(calls) == 1 and calls[0][0] is m.A and calls[0][1] is m.Astar

    def test_pairwise_burnside_reads_the_build_verdict(self, monkeypatch):
        # verify --deep: the flag-route rebuild of a file's (x_01, x_23), then pairwise_burnside on the file
        t = build_tetra_from_spec(spec((3, 2), (3, 3)))
        standard = OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)])
        calls = spy_norton(monkeypatch)
        assert build_tetra(standard).x == t.x
        assert pairwise_burnside(t)
        # build_tetra's test answers for (x_01, x_23); the other two pairs run their own
        assert calls == [(t.x[p1], t.x[p2]) for p1, p2 in OPPOSITE_PAIRS]
        assert calls[0][0] is standard.A and calls[0][1] is standard.Astar

    def test_equal_modules_each_run_their_own_test(self, monkeypatch):
        first, second = (build_from_spec(spec((2, 3), (1, 5))) for _ in range(2))
        assert first.A == second.A and first.A is not second.A
        before = (hash(first.A), repr(first.A))
        assert "_norton_verdicts" not in vars(first.A)
        calls = spy_norton(monkeypatch)
        assert is_irreducible_burnside(first) and is_irreducible_burnside(first)
        assert len(calls) == 1
        assert is_irreducible_burnside(second)
        assert len(calls) == 2 and calls[1][0] is second.A
        # the verdict sits in the instance __dict__, outside the fields that ==, hash and repr read
        assert vars(first.A)["_norton_verdicts"] == {first.Astar: True}
        assert "_norton_verdicts" not in Matrix._fields
        assert first.A == second.A
        assert (hash(first.A), repr(first.A)) == before == (hash(second.A), repr(second.A))

    def test_verdict_dies_with_its_matrix(self):
        m = build_from_spec(spec((1, 2), (1, 3)))
        assert is_irreducible_burnside(m)
        a, astar = weakref.ref(m.A), weakref.ref(m.Astar)
        del m
        assert a() is None and astar() is None

    def test_guard_refusal_is_raised_on_every_call(self, monkeypatch):
        # V + V has no top line, so only the closure decides, and its dim^2 16 is above the guard
        m = doubled(evaluation_module(1, F(2)))
        monkeypatch.setattr(linalg, "DIM_GUARD", 8)
        checks = (is_irreducible_burnside, build_tetra, lambda m: verify_tridiagonal_pair(m.A, m.Astar),
                  lambda m: check_onsager_equivalence(m.A, m.Astar))
        for _ in range(2):
            for check in checks:
                with pytest.raises(DimensionGuardError, match="Burnside closure dimension 16"):
                    check(m)
        assert vars(m.A).get("_norton_verdicts", {}) == {}

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
