from fractions import Fraction as F

import pytest

from tetrabox import (
    Matrix,
    ModuleSpec,
    OppositionError,
    ReducibleModuleError,
    TypeShiftError,
    build_from_spec,
    build_tetra,
    commutator,
    eigenspace,
    eigentable,
    evaluation_module,
    flag_independence_check,
    four_flags,
    is_diagonalizable_with,
    pairwise_burnside,
    roundtrip_uniqueness,
    subspace_sum,
    trivial_module,
    verify_action_table,
    verify_relations,
)
from tetrabox.tetra import CORNERS, ORDERED_PAIRS, TetraModule, _opposite_decompositions

SAMPLE_SPECS = [
    ModuleSpec.of([(1, 2)]),
    ModuleSpec.of([(1, 2), (1, 3)]),
    ModuleSpec.of([(2, 2), (1, 3)]),
]


@pytest.fixture(scope="module")
def built():
    return {spec: build_tetra(build_from_spec(spec)) for spec in SAMPLE_SPECS}


class TestBuild:
    def test_trivial_module_is_all_zero(self):
        t = build_tetra(trivial_module())
        assert all(mat == Matrix.zeros(1, 1) for mat in t.x.values())

    def test_standard_generators_identified(self):
        m = evaluation_module(1, F(2))
        t = build_tetra(m)
        assert t.x[(0, 1)] == m.A
        assert t.x[(2, 3)] == m.Astar

    def test_dim_two_cross_generator(self):
        # assembled by hand from the eigenlines (1,-1) and (-2,1)
        t = build_tetra(evaluation_module(1, F(2)))
        assert t.x[(0, 2)] == Matrix.from_rows([[3, 4], [-2, -3]])

    def test_antisymmetry_by_construction(self, built):
        for t in built.values():
            for r, s in ORDERED_PAIRS:
                assert t.x[(s, r)] == -t.x[(r, s)]

    def test_reducible_input_rejected(self):
        with pytest.raises(ReducibleModuleError):
            build_tetra(build_from_spec(ModuleSpec.of([(1, 1)])))
        with pytest.raises(ReducibleModuleError):
            build_tetra(build_from_spec(ModuleSpec.of([(1, 2), (1, F(1, 2))])))

    def test_reducible_input_fails_opposition_scan(self):
        # the flag scan behind the irreducibility test rejects on its own,
        # naming the first failing pair
        m = build_from_spec(ModuleSpec.of([(2, 1)]))
        with pytest.raises(OppositionError, match=r"flags \d and \d are not opposite"):
            _opposite_decompositions(four_flags(m))
        # spinning needs no guard, so the scan is never reached
        with pytest.raises(ReducibleModuleError):
            build_tetra(m, guard=0)

    def test_shifted_input_rejected(self):
        m = build_from_spec(ModuleSpec.of([(1, 2)], shift=(3, 0)))
        with pytest.raises(TypeShiftError):
            build_tetra(m)


class TestRelations:
    def test_all_instances_pass(self, built):
        for t in built.values():
            report = verify_relations(t)
            assert len(report.checks) == 6 + 24 + 24
            assert report.all_passed

    def test_trivial_module_passes(self):
        assert verify_relations(build_tetra(trivial_module())).all_passed

    def test_tampered_generator_is_reported(self):
        t = build_tetra(evaluation_module(1, F(2)))
        x = dict(t.x)
        x[(0, 1)] = x[(0, 1)] + Matrix.identity(2)
        tampered = TetraModule(dim=t.dim, diameter=t.diameter, x=x, flags=None)
        report = verify_relations(tampered)
        assert not report.all_passed
        failure = next(c for c in report.failures() if c.relation == "antisymmetry")
        assert failure.instance == (0, 1)
        assert failure.residual == Matrix.identity(2)


class TestSpectra:
    def test_eigentable_dim_two(self, built):
        table = eigentable(built[SAMPLE_SPECS[0]])
        assert table.eigenvalues == (F(1), F(-1))
        assert all(dims == (1, 1) for dims in table.dims.values())
        assert table.all_passed

    def test_eigentable_dim_four(self, built):
        table = eigentable(built[SAMPLE_SPECS[1]])
        assert all(dims == (1, 2, 1) for dims in table.dims.values())
        assert table.all_passed

    def test_eigentable_trivial(self):
        table = eigentable(build_tetra(trivial_module()))
        assert table.eigenvalues == (F(0),)
        assert all(dims == (1,) for dims in table.dims.values())

    def test_every_generator_diagonalizable_with_ladder_spectrum(self, built):
        for spec, t in built.items():
            d = t.diameter
            ladder = [F(d - 2 * i) for i in range(d + 1)]
            for mat in t.x.values():
                assert is_diagonalizable_with(mat, ladder)
                assert all(eigenspace(mat, lam).dim >= 1 for lam in ladder)


class TestActionTable:
    def test_all_rows_pass(self, built):
        for t in built.values():
            report = verify_action_table(t)
            assert report.all_passed
            cases = {c.relation for c in report.checks}
            assert cases == {
                "action_fixes",
                "action_negates",
                "action_raises_plus",
                "action_raises_minus",
                "action_lowers_minus",
                "action_lowers_plus",
                "action_adjacent",
            }

    def test_trivial_module(self):
        assert verify_action_table(build_tetra(trivial_module())).all_passed


class TestEigenspaceShiftOnGenerators:
    def test_triangle_relation_matches_eigenspace_shift(self, built):
        # the shifted eigenspace inclusion holds exactly where the triangle
        # relation holds; verify both directly on generator pairs sharing an index
        t = built[SAMPLE_SPECS[1]]
        d = t.diameter
        for r, s, u in [(0, 1, 2), (1, 2, 3), (3, 0, 2), (2, 3, 1)]:
            a, b = t.x[(r, s)], t.x[(s, u)]
            residual = commutator(a, b) - 2 * a - 2 * b
            assert residual.is_zero()
            for i in range(d + 1):
                lam = F(2 * i - d)
                space = eigenspace(a, lam)
                target = eigenspace(a, lam + 2)
                shifted = b + lam * Matrix.identity(t.dim)
                for col in space.basis_columns():
                    assert target.contains_vector(shifted.apply(col))


class TestGlobalStructure:
    def test_flag_independence(self, built):
        for t in built.values():
            assert flag_independence_check(t)

    def test_pairwise_burnside(self, built):
        assert pairwise_burnside(built[SAMPLE_SPECS[0]])
        assert pairwise_burnside(built[SAMPLE_SPECS[1]])

    def test_partial_sums_match_flags(self, built):
        t = built[SAMPLE_SPECS[1]]
        d = t.diameter
        for r in CORNERS:
            s = next(c for c in CORNERS if c != r)
            acc = None
            for i in range(d + 1):
                space = eigenspace(t.x[(r, s)], F(2 * i - d))
                acc = space if acc is None else subspace_sum(acc, space)
                assert acc == t.flags[r].components[i]


class TestRoundtrip:
    def test_trivial(self):
        assert roundtrip_uniqueness(trivial_module())

    def test_dim_two(self):
        assert roundtrip_uniqueness(evaluation_module(1, F(2)))

    def test_dim_four(self):
        assert roundtrip_uniqueness(build_from_spec(ModuleSpec.of([(1, 2), (1, 3)])))
