from fractions import Fraction as F
from itertools import permutations

import pytest

from tetrabox import (
    ORACLE_GUARD,
    DimensionGuardError,
    Matrix,
    ModuleSpec,
    OnsagerModule,
    ReducibleModuleError,
    are_equivalent,
    build_from_spec,
    build_tetra,
    eigenspace,
    equivalence_key,
    evaluation_module,
    find_intertwiner,
    generated_algebra_dimension,
    is_irreducible_burnside,
    is_irreducible_criterion,
    is_irreducible_spin,
    is_isomorphic,
    trivial_module,
)
from tetrabox import classify


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

    def test_guard(self):
        m = build_from_spec(spec((1, 2), (1, 3)))
        with pytest.raises(DimensionGuardError):
            is_irreducible_burnside(m, guard=2)

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


class TestSpin:
    def test_agrees_with_burnside_and_criterion_on_grid(self, grid_modules, grid_burnside):
        for s, module in grid_modules.items():
            assert is_irreducible_spin(module) == grid_burnside[s] == is_irreducible_criterion(s), s.factors

    def test_shifted_module(self):
        assert is_irreducible_spin(build_from_spec(spec((1, 2), (1, 3), shift=(3, -1))))
        assert not is_irreducible_spin(build_from_spec(spec((1, 2), (1, F(1, 2)), shift=(3, -1))))

    def test_direct_sum_takes_the_burnside_fallback(self, monkeypatch):
        v = evaluation_module(1, F(2))
        m = OnsagerModule(4, block_diagonal(v.A, v.A), block_diagonal(v.Astar, v.Astar))
        assert eigenspace(m.A, 1).dim == 2
        calls = []

        def spy(module, guard):
            calls.append(module.dim)
            return is_irreducible_burnside(module, guard=guard)

        monkeypatch.setattr(classify, "is_irreducible_burnside", spy)
        with pytest.raises(ReducibleModuleError):
            build_tetra(m)
        assert calls == [4]

    def test_reducible_beyond_the_oracle_guard(self):
        m = build_from_spec(spec((4, 2), (12, F(1, 2))))
        assert m.dim == 65 > ORACLE_GUARD
        with pytest.raises(ReducibleModuleError):
            build_tetra(m)


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

    def test_dim_mismatch(self):
        assert find_intertwiner(evaluation_module(1, F(2)), evaluation_module(2, F(2))) is None

    def test_guard(self):
        m = build_from_spec(spec((3, 2), (1, 3)))
        with pytest.raises(DimensionGuardError):
            find_intertwiner(m, m, guard=4)


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
