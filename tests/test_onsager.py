from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tetrabox import (
    DimensionGuardError,
    Matrix,
    ModuleSpec,
    OnsagerModule,
    SpectrumError,
    build_from_spec,
    dolan_grady_holds,
    eigenspace,
    evaluation_module,
    module_type,
    normalize_type,
    sl2_irreducible,
    tensor,
    trivial_module,
)
from tetrabox import linalg, onsager
from tetrabox.serialize import module_from_json, module_to_json

SAMPLE_FACTORS = [(1, F(2)), (2, F(3)), (3, F(1, 2)), (1, F(-1)), (2, F(1)), (2, F(5))]


class TestSl2:
    def test_trivial(self):
        t = sl2_irreducible(0)
        zero = Matrix.zeros(1, 1)
        assert t.e == zero and t.f == zero and t.h == zero

    def test_dim_two(self):
        t = sl2_irreducible(1)
        assert t.h == Matrix.from_rows([[1, 0], [0, -1]])
        assert t.e == Matrix.from_rows([[0, 1], [0, 0]])
        assert t.f == Matrix.from_rows([[0, 0], [1, 0]])

    def test_dim_three(self):
        t = sl2_irreducible(2)
        assert t.h == Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
        assert t.e == Matrix.from_rows([[0, 2, 0], [0, 0, 2], [0, 0, 0]])
        assert t.f == Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("n", range(11))
    def test_bracket_relations(self, n):
        assert sl2_irreducible(n).brackets_hold()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sl2_irreducible(-1)


class TestEvaluationModule:
    def test_parameter_two(self):
        m = evaluation_module(1, F(2))
        assert m.A == Matrix.from_rows([[0, 1], [1, 0]])
        assert m.Astar == Matrix.from_rows([[0, 2], [F(1, 2), 0]])

    def test_parameter_one_collapses(self):
        m = evaluation_module(1, 1)
        assert m.Astar == m.A

    def test_trivial(self):
        m = evaluation_module(0, F(7))
        assert m.dim == 1
        assert m.A == Matrix.zeros(1, 1) and m.Astar == Matrix.zeros(1, 1)
        assert module_type(m) == (0, 0, 0)

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            evaluation_module(1, 0)

    @pytest.mark.parametrize("n,a", SAMPLE_FACTORS)
    def test_dolan_grady(self, n, a):
        m = evaluation_module(n, a)
        assert dolan_grady_holds(m.A, m.Astar)


class TestTensor:
    def test_trivial_factor_is_identity(self):
        m = evaluation_module(2, F(3))
        assert tensor(trivial_module(), m).A == m.A
        assert tensor(m, trivial_module()).Astar == m.Astar

    def test_dims_multiply(self):
        m = tensor(evaluation_module(1, F(2)), evaluation_module(2, F(3)))
        assert m.dim == 6
        assert module_type(m)[0] == 3

    def test_kronecker_sum_spectrum(self):
        m = tensor(evaluation_module(1, F(2)), evaluation_module(1, F(3)))
        dims = {lam: eigenspace(m.A, lam).dim for lam in (2, 0, -2)}
        assert dims == {2: 1, 0: 2, -2: 1}

    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 2), (2, 3), (3, 3)])
    def test_spectrum_matches_lattice_count(self, n1, n2):
        # independent oracle: the multiplicity of lam for the Kronecker sum is
        # the number of weight pairs (n1-2i) + (n2-2j) = lam
        m = tensor(evaluation_module(n1, F(2)), evaluation_module(n2, F(5)))
        d = n1 + n2
        for k in range(d + 1):
            lam = d - 2 * k
            expected = sum(
                1
                for i in range(n1 + 1)
                for j in range(n2 + 1)
                if (n1 - 2 * i) + (n2 - 2 * j) == lam
            )
            assert eigenspace(m.A, F(lam)).dim == expected
            assert eigenspace(m.Astar, F(lam)).dim == expected

    @pytest.mark.parametrize("f1,f2", [((1, F(2)), (1, F(3))), ((2, F(5)), (1, F(1, 2))), ((1, F(1)), (2, F(2)))])
    def test_preserves_dolan_grady(self, f1, f2):
        m = tensor(evaluation_module(*f1), evaluation_module(*f2))
        assert dolan_grady_holds(m.A, m.Astar)
        assert dolan_grady_holds(m.Astar, m.A)

    def test_result_beyond_guard_rejected(self, monkeypatch):
        from tetrabox import DimensionGuardError

        m1 = evaluation_module(2, F(2))
        m2 = evaluation_module(3, F(3))
        monkeypatch.setattr(linalg, "DIM_GUARD", 8)
        with pytest.raises(DimensionGuardError):
            tensor(m1, m2)  # 3 * 4 = 12 > 8


def left_fold_of_tensor(spec: ModuleSpec) -> OnsagerModule:
    """build_from_spec as a left fold of tensor over the evaluation factors,
    the trivial module when there are none, then the type shift."""
    module = None
    for n, a in spec.factors:
        factor = evaluation_module(n, a)
        module = factor if module is None else tensor(module, factor)
    if module is None:
        module = trivial_module()
    ident = Matrix.identity(module.dim)
    return OnsagerModule(module.dim, module.A + spec.shift[0] * ident, module.Astar + spec.shift[1] * ident)


class TestFold:
    def test_no_matrices_fold_to_the_trivial_module(self):
        assert onsager._fold([]) == Matrix.zeros(1, 1) == trivial_module().A

    def test_matches_the_left_fold_of_tensor_on_the_grid(self, grid_specs):
        for spec in grid_specs:
            assert build_from_spec(spec) == left_fold_of_tensor(spec), spec.factors

    @pytest.mark.parametrize("factors", [[], [(0, 3)], [(1, 2), (2, 3), (1, 5)], [(2, F(1, 2)), (0, 7), (1, -3)]])
    @pytest.mark.parametrize("shift", [(0, 0), (1, F(-1, 2))])
    def test_matches_the_left_fold_of_tensor(self, factors, shift):
        spec = ModuleSpec.of(factors, shift=shift)
        assert build_from_spec(spec) == left_fold_of_tensor(spec)


class TestBuildFromSpec:
    def test_single_factor(self):
        m = build_from_spec(ModuleSpec.of([(1, 2)]))
        ref = evaluation_module(1, F(2))
        assert m == ref
        assert module_type(m) == (1, 0, 0)

    def test_two_factor_diameter(self):
        m = build_from_spec(ModuleSpec.of([(1, 2), (1, 3)]))
        assert m.dim == 4 and module_type(m)[0] == 2

    def test_shift_moves_spectrum(self):
        m = build_from_spec(ModuleSpec.of([(1, 2)], shift=(3, 0)))
        assert eigenspace(m.A, 4).dim == 1 and eigenspace(m.A, 2).dim == 1
        assert module_type(m) == (1, 3, 0)

    def test_empty_spec_is_trivial(self):
        m = build_from_spec(ModuleSpec(()))
        assert m == trivial_module() and module_type(m) == (0, 0, 0)

    def test_weight_zero_factors_are_trivial(self):
        m = build_from_spec(ModuleSpec.of([(0, 5), (0, 7)]))
        assert m == trivial_module() and module_type(m) == (0, 0, 0)

    @pytest.mark.parametrize(
        "factors", [[(1, 2)], [(1, 2), (2, 3)], [(1, 2), (1, 3), (1, 5)], [(0, 3), (2, F(1, 2))]]
    )
    def test_diameter_is_weight_sum(self, factors):
        spec = ModuleSpec.of(factors)
        assert module_type(build_from_spec(spec))[0] == spec.degree_sum

    def test_invalid_factors_rejected(self):
        with pytest.raises(ValueError):
            ModuleSpec.of([(1, 0)])
        with pytest.raises(ValueError):
            ModuleSpec.of([(-1, 2)])

    def test_oversized_spec_refused_before_any_factor_is_built(self, monkeypatch):
        monkeypatch.setattr(linalg, "DIM_GUARD", 8)
        calls = []
        for name in ("kron", "sl2_irreducible"):
            original = getattr(onsager, name)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(onsager, name, spy)
        with pytest.raises(DimensionGuardError, match="dimension 16 exceeds the dimension guard 8"):
            build_from_spec(ModuleSpec.of([(1, 2)] * 4))
        assert calls == []

    def test_spec_at_the_guard_builds(self, monkeypatch):
        monkeypatch.setattr(linalg, "DIM_GUARD", 8)
        assert build_from_spec(ModuleSpec.of([(1, 2)] * 3)).dim == 8


SPEC_PARAMETERS = (F(2), F(-3), F(1, 2), F(1), F(-1), F(5, 3))

SHIFTS = st.builds(F, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def shifted_specs(draw):
    """Up to three factors (n = 0 allowed, reducible parameters included), dimension at most 16."""
    factors = []
    dim = 1
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, min(3, 16 // dim - 1)))
        factors.append((n, draw(st.sampled_from(SPEC_PARAMETERS))))
        dim *= n + 1
    shift = draw(st.tuples(SHIFTS, SHIFTS))
    return ModuleSpec.of(factors, shift=shift)


class TestStoredType:
    """The spec's degree sum and shift, which `tetrabox build` writes as the
    module's diameter and type, are what module_type reads off the matrices."""

    def test_acceptance_grid(self, grid_modules):
        for spec, m in grid_modules.items():  # reducible specs included
            assert module_type(m) == (spec.degree_sum, *spec.shift)

    @settings(max_examples=40, deadline=None)
    @given(shifted_specs())
    def test_drawn_specs(self, spec):
        assert module_type(build_from_spec(spec)) == (spec.degree_sum, *spec.shift)


class TestModuleEquality:
    """A module is its matrices: whatever built it, equal matrices give equal
    modules with equal hashes."""

    def test_fields(self):
        assert OnsagerModule._fields == ("dim", "A", "Astar")

    @pytest.mark.parametrize("factors", [[(1, 2), (1, 3)], [(2, 3)], [(1, 2), (0, 5), (2, F(1, 2))]])
    def test_equal_matrices_are_equal_modules(self, factors):
        m = build_from_spec(ModuleSpec.of(factors))
        folded = trivial_module()
        for n, a in factors:
            folded = tensor(folded, evaluation_module(n, a))
        same = [folded, module_from_json(module_to_json(m)), OnsagerModule(m.dim, m.A, m.Astar), normalize_type(m)]
        assert all(x == m for x in same)
        assert {hash(x) for x in same} == {hash(m)}

    def test_d4_build_is_the_tensor(self):
        spec = ModuleSpec.of([(1, 2), (1, 3)])
        assert build_from_spec(spec) == tensor(evaluation_module(1, 2), evaluation_module(1, 3))


class TestModuleType:
    def test_trivial(self):
        assert module_type(trivial_module()) == (0, 0, 0)

    def test_plain_evaluation(self):
        assert module_type(evaluation_module(1, F(2))) == (1, 0, 0)

    def test_shifted(self):
        m = build_from_spec(ModuleSpec.of([(1, 2)], shift=(3, -1)))
        assert module_type(m) == (1, 3, -1)

    def test_non_arithmetic_spectrum_rejected(self):
        bad = OnsagerModule(2, Matrix.from_rows([[0, 0], [0, 1]]), Matrix.identity(2))
        with pytest.raises(SpectrumError):
            module_type(bad)

    def test_non_diagonalizable_rejected(self):
        jordan = Matrix.from_rows([[1, 1], [0, -1]])  # eigenvalues 1, -1, fine
        ok = OnsagerModule(2, jordan, Matrix.identity(2) * 0 + jordan)
        assert module_type(ok)[0] == 1
        nilpotent = Matrix.from_rows([[0, 1], [0, 0]])
        with pytest.raises(SpectrumError):
            module_type(OnsagerModule(2, nilpotent, nilpotent))

    def test_mismatched_diameters_rejected(self):
        a = Matrix.from_rows([[1, 0], [0, -1]])
        with pytest.raises(SpectrumError):
            module_type(OnsagerModule(2, a, Matrix.identity(2)))


class TestNormalizeType:
    def test_already_normal(self):
        m = build_from_spec(ModuleSpec.of([(1, 2)]))
        normal = normalize_type(m)
        assert normal.A == m.A and normal.Astar == m.Astar

    def test_undoes_shift_bit_exactly(self):
        plain = build_from_spec(ModuleSpec.of([(1, 2)]))
        shifted = build_from_spec(ModuleSpec.of([(1, 2)], shift=(3, -1)))
        normal = normalize_type(shifted)
        assert normal.A == plain.A and normal.Astar == plain.Astar

    def test_trivial_unchanged(self):
        m = trivial_module()
        normal = normalize_type(m)
        assert normal.A == m.A and normal.Astar == m.Astar

    @pytest.mark.parametrize("shift", [(0, 0), (3, -1), (F(1, 2), F(5, 3))])
    def test_type_after_normalization(self, shift):
        m = build_from_spec(ModuleSpec.of([(1, 2), (1, 3)], shift=shift))
        assert module_type(normalize_type(m)) == (2, 0, 0)
