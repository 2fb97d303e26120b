from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from tetrabox import (
    DimensionGuardError,
    Matrix,
    Subspace,
    ModuleSpec,
    OnsagerModule,
    OppositionError,
    ReducibleModuleError,
    SpectrumError,
    TetraboxError,
    TypeShiftError,
    build_from_spec,
    build_tetra,
    build_tetra_from_spec,
    check_onsager_equivalence,
    commutator,
    dolan_grady_holds,
    eigenspace,
    eigentable,
    evaluation_module,
    hstack,
    inverse,
    intersect,
    flag_independence_check,
    four_flags,
    is_diagonalizable_with,
    is_irreducible_burnside,
    is_irreducible_criterion,
    module_type,
    pair_generates_full_algebra,
    pairwise_burnside,
    roundtrip_uniqueness,
    subspace_sum,
    trivial_module,
    verify_action_table,
    verify_relations,
    verify_tridiagonal_pair,
)
from tetrabox import classify, cli, flags, linalg, matrix, onsager, tetra
from tetrabox.onsager import _module_spectra
from tetrabox.tetra import (
    CORNERS,
    ORDERED_PAIRS,
    UNORDERED_PAIRS,
    CheckResult,
    TetraModule,
    _antisymmetric,
)

import corpus
from corpus import REDUCIBLE_FOLDS, conjugated, direct_sum, folded, fresh, grids, outcome, unitriangular_matrices

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

    def test_reducible_input_fails_opposition_scan(self, monkeypatch):
        # past the irreducibility test the flag scan rejects on its own: the solve of the first pair whose
        # pieces are no direct sum refuses, and build_tetra names that pair
        m = build_from_spec(ModuleSpec.of([(2, 1)]))
        with monkeypatch.context() as patch:
            patch.setattr(classify, "_full_algebra", lambda a, b, eigenpairs: True)
            with pytest.raises(OppositionError) as refused:
                build_tetra(m)
        assert str(refused.value) == (
            "flags 0 and 2 are not opposite: component intersections do not sum directly to the full space"
        )
        # spinning needs no guard, so the scan is never reached
        monkeypatch.setattr(matrix, "DIM_GUARD", 3)
        with pytest.raises(ReducibleModuleError):
            build_tetra(m)

    def test_irreducible_input_with_flags_not_opposite_is_refused(self, non_opposite_flags):
        # Norton passes both pairs; only the opposition of flags 0 and 2 fails
        for m, text in non_opposite_flags:
            assert module_type(m) == (2, 0, 0) and pair_generates_full_algebra(m.A, m.Astar)
            with pytest.raises(OppositionError) as refused:
                build_tetra(m)
            assert str(refused.value) == text

    def test_undecided_reducible_input_is_refused(self, doubled_v, monkeypatch):
        # V + V passes the flag-opposition scan, so only the closure rejects it
        m = OnsagerModule(8, doubled_v.x[(0, 1)], doubled_v.x[(2, 3)])
        with pytest.raises(ReducibleModuleError):
            build_tetra(m)
        monkeypatch.setattr(matrix, "DIM_GUARD", 16)
        with pytest.raises(DimensionGuardError):
            build_tetra(m)

    def test_shifted_input_rejected(self):
        m = build_from_spec(ModuleSpec.of([(1, 2)], shift=(3, 0)))
        with pytest.raises(TypeShiftError):
            build_tetra(m)


# 1 and -1 make a factor reducible unless it is trivial (n = 0)
PARAMETER_POOL = (F(2), F(3), F(5), F(1, 2), F(-1, 3), F(-2), F(1), F(-1))


@st.composite
def small_specs(draw):
    """Three factors of dimension at most 5 (n = 0 allowed), module dimension at most 18."""
    factors = []
    dim = 1
    for _ in range(3):
        n = draw(st.integers(0, min(4, 18 // dim - 1)))
        factors.append((n, draw(st.sampled_from(PARAMETER_POOL))))
        dim *= n + 1
    return ModuleSpec(tuple(factors))


def assert_same_structure(got: TetraModule, expected: TetraModule) -> None:
    assert (got.dim, got.diameter) == (expected.dim, expected.diameter)
    assert got.x == expected.x


class TestBuildFromSpec:
    """The Kronecker fold of the factors against the flag route on the whole module."""

    def test_matches_flag_route_on_the_grid(self, built_irreducible_grid):
        for spec, expected in built_irreducible_grid.items():
            assert_same_structure(build_tetra_from_spec(spec), expected)

    def test_empty_spec(self):
        spec = ModuleSpec(())
        assert_same_structure(build_tetra_from_spec(spec), build_tetra(build_from_spec(spec)))

    @settings(max_examples=30, deadline=None)
    @given(small_specs())
    def test_matches_flag_route_on_drawn_specs(self, spec):
        try:
            expected = build_tetra(build_from_spec(spec))
        except TetraboxError as exc:
            with pytest.raises(type(exc)):
                build_tetra_from_spec(spec)
        else:
            assert_same_structure(build_tetra_from_spec(spec), expected)

    def test_folds_six_generators_per_factor(self, spy):
        # x_sr = -x_rs on each factor, and a Kronecker sum is linear; the fold is onsager's
        calls = spy(onsager, "kronecker_sum", 1)
        t = build_tetra_from_spec(ModuleSpec.of([(1, 2), (2, 3), (1, 5)]))
        assert len(calls) == 6 * 3
        assert all(t.x[(s, r)] == -t.x[(r, s)] for r, s in UNORDERED_PAIRS)

    def test_oversized_spec_refused_before_any_factor_is_built(self, monkeypatch, spy):
        monkeypatch.setattr(matrix, "DIM_GUARD", 8)
        calls = []
        for name in ("kron", "sl2_irreducible"):
            spy(onsager, name, name, calls)
        with pytest.raises(DimensionGuardError, match="dimension 16 exceeds the dimension guard 8"):
            build_tetra_from_spec(ModuleSpec.of([(1, 2), (1, 3), (1, 5), (1, 7)]))
        # the criterion comes before the guard: (1,2) x 4 is reducible
        with pytest.raises(ReducibleModuleError, match="not mutually distinct"):
            build_tetra_from_spec(ModuleSpec.of([(1, 2)] * 4))
        assert calls == []

    def test_refusals_in_the_cli_order(self, monkeypatch):
        # criterion, then shift, then guard, each with the one line `tetrabox build` prints
        monkeypatch.setattr(matrix, "DIM_GUARD", 8)
        shifted_and_large = ModuleSpec.of([(1, 2), (1, 3), (1, 5), (1, 7)], shift=(1, 0))
        with pytest.raises(ReducibleModuleError, match=r"^reducible: a = ±1 in an evaluation factor$"):
            build_tetra_from_spec(ModuleSpec.of([(1, -1), (1, 2)] * 2, shift=(1, 0)))
        with pytest.raises(ReducibleModuleError, match=r"^reducible: the parameters a_i, a_i\^-1 are not"):
            build_tetra_from_spec(ModuleSpec.of([(1, 2), (1, F(1, 2)), (1, 3), (1, 5)], shift=(1, 0)))
        with pytest.raises(TypeShiftError) as refused:
            build_tetra_from_spec(shifted_and_large)
        assert str(refused.value) == (
            "type shift (1, 0) is not (0, 0); only type-(0,0) modules carry the six-generator structure"
        )

    def test_collision_between_factors_rejected(self):
        # each factor alone is irreducible; only the criterion sees 2 = (1/2)^-1
        with pytest.raises(ReducibleModuleError):
            build_tetra_from_spec(ModuleSpec.of([(1, 2), (1, F(1, 2))]))
        with pytest.raises(ReducibleModuleError):
            build_tetra_from_spec(ModuleSpec.of([(1, 1)]))

    def test_shifted_spec_rejected(self):
        with pytest.raises(TypeShiftError):
            build_tetra_from_spec(ModuleSpec.of([(1, 2)], shift=(3, 0)))


def assert_closed_forms_match(n: int, a: F) -> None:
    expected = build_tetra(evaluation_module(n, a)).x
    got = onsager._evaluation_generators(n, a, UNORDERED_PAIRS)
    assert {pair: expected[pair] for pair in UNORDERED_PAIRS} == got, (n, a)


class TestEvaluationFactors:
    """The closed forms rho_n(gamma h + alpha e + beta f) of one factor against the flag route on it."""

    # the acceptance grid's parameters but 1 and -1, where the factor is reducible
    @pytest.mark.parametrize("a", [F(2), F(3), F(5), F(1, 2)])
    def test_matches_flag_route_at_the_grid_parameters(self, a):
        for n in range(1, 13):
            assert_closed_forms_match(n, a)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 12),
        a=st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(lambda a: a not in (0, 1, -1)),
    )
    def test_matches_flag_route_at_drawn_parameters(self, n, a):
        assert_closed_forms_match(n, a)


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
        tampered = TetraModule(dim=t.dim, diameter=t.diameter, x=x)
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

    def test_eigentable_misdeclared_diameter(self, built):
        t = built[SAMPLE_SPECS[2]]
        table = eigentable(TetraModule(dim=t.dim, diameter=t.diameter + 2, x=t.x))
        assert table.constant_across_pairs and table.symmetric and table.sums_to_dim
        assert not table.diameter_attained and not table.all_passed

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


def reference_action_table(t):
    """The action table by vectors: apply each shifted generator to every
    basis vector of the source eigenspace and test membership in the target
    subspace by row reduction."""
    d = t.diameter
    ident = Matrix.identity(t.dim)
    zero = Subspace.zero(t.dim)
    chains = {pair: [eigenspace(t.x[pair], F(d - 2 * i)) for i in range(d + 1)] for pair in ORDERED_PAIRS}

    def space_at(pair, lam):
        idx = (d - lam) / 2
        if idx.denominator != 1 or not (0 <= idx <= d):
            return zero
        return chains[pair][int(idx)]

    out = []
    for r, s in ORDERED_PAIRS:
        for tt, u in ORDERED_PAIRS:
            for i in range(d + 1):
                lam = F(d - 2 * i)
                source = space_at((r, s), lam)
                mat = t.x[(tt, u)]
                up, down = space_at((r, s), lam + 2), space_at((r, s), lam - 2)
                if (tt, u) == (r, s):
                    case, shifted, target = "fixes", mat - lam * ident, zero
                elif (tt, u) == (s, r):
                    case, shifted, target = "negates", mat + lam * ident, zero
                elif tt == s:
                    case, shifted, target = "raises_plus", mat + lam * ident, up
                elif u == s:
                    case, shifted, target = "raises_minus", mat - lam * ident, up
                elif tt == r:
                    case, shifted, target = "lowers_minus", mat - lam * ident, down
                elif u == r:
                    case, shifted, target = "lowers_plus", mat + lam * ident, down
                else:
                    case, shifted, target = "adjacent", mat, subspace_sum(subspace_sum(up, source), down)
                passed = all(
                    target.contains(Subspace.span_columns(shifted * Matrix(t.dim, 1, col)))
                    for col in source.basis_columns()
                )
                out.append((f"action_{case}", (r, s, tt, u, str(lam)), passed))
    return out


def direct_antisymmetric(t):
    """The ordered pairs on which x_rs + x_sr is zero, each pair compared afresh."""
    return frozenset(pair for pair in ORDERED_PAIRS if (t.x[pair] + t.x[pair[::-1]]).is_zero())


def memo_holders(t):
    """The pairs whose generator in t holds a spectral memo."""
    return {pair for pair, m in t.x.items() if hasattr(m, "_spectral_memo")}


def with_generator(t, pair, mat):
    x = dict(t.x)
    x[pair] = mat
    return TetraModule(dim=t.dim, diameter=t.diameter, x=x)


def with_mirrored_change(t, pair, delta):
    """x_pair + E and x_reversed - E, with E = delta in entry (0, 1): still
    antisymmetric, but no longer a module."""
    e = Matrix.from_rows([[delta if (i, j) == (0, 1) else 0 for j in range(t.dim)] for i in range(t.dim)])
    changed = with_generator(t, pair, t.x[pair] + e)
    changed = with_generator(changed, pair[::-1], t.x[pair[::-1]] - e)
    assert pair in _antisymmetric(changed)
    return changed


def jordan_perturbed(t, pair):
    """x_pair with one Jordan block joining the first two eigenvectors of its
    second eigenspace, so it is no longer diagonalizable."""
    d = t.diameter
    chain = [eigenspace(t.x[pair], F(d - 2 * i)) for i in range(d + 1)]
    basis = hstack(*(space.basis for space in chain))
    diagonal = [F(d - 2 * i) for i, space in enumerate(chain) for _ in range(space.dim)]
    k = chain[0].dim  # first column of the second eigenspace, which has dim >= 2
    jordan = Matrix.from_rows([
        [diagonal[a] if a == b else (1 if (a, b) == (k, k + 1) else 0) for b in range(t.dim)]
        for a in range(t.dim)
    ])
    return with_generator(t, pair, basis * jordan * inverse(basis))


class TestActionTableDifferential:
    """The annihilator action table against the vector-by-vector route."""

    def assert_same(self, t):
        got = [(c.relation, c.instance, c.passed) for c in verify_action_table(t).checks]
        assert got == reference_action_table(t)
        assert _antisymmetric(t) == direct_antisymmetric(t)
        return got

    def test_built_modules(self, built):
        for t in built.values():
            assert all(passed for _, _, passed in self.assert_same(t))

    def test_trivial_module(self):
        self.assert_same(build_tetra(trivial_module()))

    def test_one_changed_entry(self, built):
        t = built[SAMPLE_SPECS[2]]
        mat = t.x[(0, 2)]
        entries = list(mat.entries)
        entries[1] += 1
        got = self.assert_same(with_generator(t, (0, 2), Matrix(mat.rows, mat.cols, tuple(entries))))
        assert not all(passed for _, _, passed in got)

    @pytest.mark.parametrize("pair", [(2, 0), (1, 0), (3, 2)])
    def test_reversed_generator_changed_alone(self, built, pair):
        # x_sr is no longer -x_rs, so that row and column are computed in full
        t = built[SAMPLE_SPECS[2]]
        t = with_generator(t, pair, with_entry_changed(t.x[pair], 1, 2, F(1, 7)))
        assert pair not in _antisymmetric(t)
        got = self.assert_same(t)
        assert not all(passed for _, _, passed in got)

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 3)])
    def test_antisymmetric_change(self, built, pair):
        # still antisymmetric, so the mirrored verdicts are read off, also where they fail
        t = with_mirrored_change(built[SAMPLE_SPECS[2]], pair, F(2, 3))
        got = self.assert_same(t)
        failed = {instance[:2] for _, instance, passed in got if not passed}
        assert pair in failed and pair[::-1] in failed

    def test_not_diagonalizable(self, built):
        t = jordan_perturbed(built[SAMPLE_SPECS[1]], (0, 1))
        d = t.diameter
        dims = [eigenspace(t.x[(0, 1)], F(d - 2 * i)).dim for i in range(d + 1)]
        assert sum(dims) < t.dim  # the eigenspaces do not fill the space
        got = self.assert_same(t)
        assert not all(passed for _, _, passed in got)

    def test_misdeclared_diameter(self, built):
        # every eigenspace outside the true ladder is zero, so every inclusion holds
        t = built[SAMPLE_SPECS[2]]
        got = self.assert_same(TetraModule(dim=t.dim, diameter=t.diameter + 2, x=t.x))
        assert all(passed for _, _, passed in got)

    def test_no_ladder_eigenvalue(self, built):
        t = built[SAMPLE_SPECS[1]]
        t = with_generator(t, (0, 2), t.x[(0, 2)] + Matrix.identity(t.dim))
        d = t.diameter
        assert all(eigenspace(t.x[(0, 2)], F(d - 2 * i)).is_zero() for i in range(d + 1))
        got = self.assert_same(t)
        assert not all(passed for _, _, passed in got)


@pytest.mark.work_count
class TestSixGenerators:
    """Where x_sr = -x_rs holds, the chains and the action table are computed once per pair."""

    @pytest.fixture(scope="class")
    def d16(self):
        return build_tetra_from_spec(ModuleSpec.of([(3, 2), (3, 3)]))

    # the four public checks in verify's order; each computes exactly, whatever ran before it
    EXACT = (verify_relations, eigentable, verify_action_table, flag_independence_check)

    def count_work(self, t, spy, checks=EXACT):
        """Kernels formed over the checks, and per check the annihilates calls
        and the matrices built (each Matrix constructor runs __post_init__), on
        a copy of t with new matrix objects, so no eigenspace or Norton verdict
        that an earlier test kept in a matrix's memo is read. The spies record
        None, so they keep no object alive."""
        copy = fresh(t)
        kernels, annihilations = spy(linalg, "_kernel", None), spy(tetra, "annihilates", None)
        constructed = spy(linalg.Matrix, "__post_init__", None)
        annihilators, matrices = {}, {}
        for check in checks:
            before = len(annihilations), len(constructed)
            check(copy)
            annihilators[check.__name__] = len(annihilations) - before[0]
            matrices[check.__name__] = len(constructed) - before[1]
        return len(kernels), annihilators, matrices

    def test_built_module(self, d16, spy):
        assert _antisymmetric(d16) == frozenset(ORDERED_PAIRS)
        kernels, annihilators, matrices = self.count_work(d16, spy)
        assert kernels == 6 * (d16.diameter + 1)
        # flag independence: two calls per corner
        assert annihilators == {"verify_relations": 0, "eigentable": 0,
                                "verify_action_table": 36, "flag_independence_check": 8}
        # relations: 12 triangles of 3, 6 Dolan-Grady pairs of sides of 3 and
        # 3 inner commutators with their negations; action table: per row one
        # stack, 5 sums with products and 1 product (the antisymmetry
        # comparisons build no matrix); flag independence: one stack per
        # (r, t); eigentable: one basis per eigenspace
        assert matrices == {"verify_relations": 60, "eigentable": 42,
                            "verify_action_table": 72, "flag_independence_check": 8}

    def test_passed_relations_and_eigentable_decide_the_rest(self, d16, spy):
        # _verify: the relations have passed, so the eigentable computes the chain of x_01 alone, and once
        # it has passed too nothing is computed after it; the matrices are the relations' 60 and 7 bases
        kernels, annihilators, matrices = self.count_work(d16, spy, (tetra._verify,))
        assert kernels == d16.diameter + 1
        assert annihilators == {"_verify": 0}
        assert matrices == {"_verify": 67}

    def test_public_checks_compute_whatever_ran_before(self, d16, spy):
        # verify's stages through the public functions on one TetraModule: the relations pass, and the three
        # later stages still compute six chains and every inclusion; no verdict is kept on the module
        t = fresh(d16)
        chains = spy(tetra, "_eigenspace_chain", lambda t, pair: pair)
        annihilators = spy(tetra, "annihilates", lambda *args: args)
        assert verify_relations(t).all_passed
        assert eigentable(t).all_passed
        assert memo_holders(t) == set(chains) == set(UNORDERED_PAIRS)
        assert verify_action_table(t).all_passed and len(annihilators) == 36
        assert flag_independence_check(t) and len(annihilators) == 36 + 8
        assert memo_holders(t) == set(UNORDERED_PAIRS)
        assert not {"_relations_passed", "_eigentable_passed"} & set(vars(t))

    def test_verified_deep_checks_add_one_dual_line(self, d16, spy):
        # the deep checks of a verified file read ker(x_01 - d) off x_01's memo and form the dual line
        # ker(x_01^T - d) of Norton's test at it; the other two pairs follow from that verdict and spin nothing
        def deep_checks(t):
            return cli._deep_checks(None, t, None, True)

        kernels, annihilators, _ = self.count_work(d16, spy, (tetra._verify, deep_checks))
        assert kernels == d16.diameter + 2
        assert annihilators == dict.fromkeys(annihilators, 0)

    def test_pairwise_burnside_adds_one_eigenspace_per_other_pair(self, d16, spy):
        # the library route, which the deep checks of a verified file do not take: the top-line decision reads
        # ker(x_01 - d) off x_01's memo and keeps Norton's verdict on (x_01, x_23), forming the dual line
        # ker(x_01^T - d); pairwise_burnside reads it back and forms ker(x_p - d), a line, and its dual line
        # for p = (0, 2) and (0, 3)
        checks = (tetra._verify, tetra._rebuild_is_the_file, pairwise_burnside)
        kernels, annihilators, _ = self.count_work(d16, spy, checks)
        assert kernels == d16.diameter + 6
        assert annihilators == dict.fromkeys(annihilators, 0)

    @pytest.mark.parametrize("relations", ["unverified", "failed", "passed"])
    def test_six_chains_unless_the_relations_passed(self, d16, spy, relations):
        # _verify reads every row off the chain of x_01 once all 54 instances have passed; the public
        # eigentable computes six chains, after relations that failed as after none (a mirrored change
        # still passes antisymmetry but fails the triangle relations)
        t = with_mirrored_change(d16, (0, 2), F(1, 7)) if relations == "failed" else d16
        copy = fresh(t)
        if relations == "failed":
            assert not verify_relations(copy).all_passed
        chains = spy(tetra, "_eigenspace_chain", lambda t, pair: pair)
        if relations == "passed":
            assert tetra._verify(copy)[1].all_passed
        else:
            eigentable(copy)
        expected = [(0, 1)] if relations == "passed" else list(UNORDERED_PAIRS)
        assert chains == expected and memo_holders(copy) == set(expected)

    def test_one_reversed_generator_changed(self, d16, spy):
        t = with_generator(d16, (1, 0), with_entry_changed(d16.x[(1, 0)], 0, 0, 1))
        assert _antisymmetric(t) == frozenset(ORDERED_PAIRS) - {(0, 1), (1, 0)}
        kernels, annihilators, matrices = self.count_work(t, spy)
        assert kernels == 7 * (t.diameter + 1)
        # flag independence: corner 0 passes with its two calls, and corner 1
        # fails on the dimensions of x_10's chain before any call
        assert annihilators == {"verify_relations": 0, "eigentable": 0,
                                "verify_action_table": 49, "flag_independence_check": 2}
        # relations: 2 more Dolan-Grady pairs of sides and 4 more triangles,
        # and the residuals of 1 + 4 + 4 failing instances; action table: a
        # seventh row and column, and the negations of x_01 and x_10, which
        # are not mirrored
        assert matrices == {"verify_relations": 97, "eigentable": 42,
                            "verify_action_table": 106, "flag_independence_check": 2}

    @pytest.mark.parametrize("changed, kernels", [(0, 7), (1, 49), (2, 56), (3, 63), (6, 84)])
    def test_verify_forms_each_chain_once(self, d16, spy, changed, kernels):
        # each pair that is not mirrored adds the chain of x_sr to the six; the memo holds the twelve
        # generators of one module, so with 9 to 12 chains none is formed twice
        t = d16
        for r, s in UNORDERED_PAIRS[:changed]:
            t = with_generator(t, (s, r), with_entry_changed(t.x[(s, r)], 0, 0, 1))
        assert len(_antisymmetric(t)) == 2 * (6 - changed)
        assert self.count_work(t, spy, (tetra._verify,))[0] == kernels

    def test_one_comparison_per_pair_over_every_stage(self, d16, monkeypatch, spy):
        # x_sr = -x_rs is compared once per pair r < s, on the stored forms, and every stage reads the
        # pairs _antisymmetric keeps
        t = TetraModule(dim=d16.dim, diameter=d16.diameter, x=dict(d16.x))
        equalities = []
        real_eq = linalg.Matrix.__eq__

        # a conditional spy: only comparisons that involve one of t's matrices are recorded
        def spy_eq(a, b):
            if any(a is mat or b is mat for mat in t.x.values()):
                equalities.append(a)
            return real_eq(a, b)

        compared = spy(tetra, "_negates", lambda a, b: (a, b))
        monkeypatch.setattr(linalg.Matrix, "__eq__", spy_eq)
        for check in self.EXACT + (pairwise_burnside,):
            check(t)
        assert [(id(a), id(b)) for a, b in compared] == [(id(t.x[(r, s)]), id(t.x[(s, r)])) for r, s in UNORDERED_PAIRS]
        assert equalities == []

    def test_negates_on_built_and_changed_matrices(self, d16):
        for r, s in UNORDERED_PAIRS:
            a, b = d16.x[(r, s)], d16.x[(s, r)]
            assert tetra._negates(a, b) and tetra._negates(b, a)
            assert not tetra._negates(a, a) and not tetra._negates(a, 2 * b)
            assert not tetra._negates(a, with_entry_changed(b, 3, 5, F(1, 9)))
        zero = Matrix.zeros(3, 3)
        assert tetra._negates(zero, zero)

    def test_mirrored_chain_is_the_reversed_chain(self, d16):
        t = TetraModule(dim=d16.dim, diameter=d16.diameter, x=dict(d16.x))
        d = t.diameter
        for r, s in UNORDERED_PAIRS:
            chain = tetra._eigenspace_chain(t, (s, r))
            assert chain == tetra._eigenspace_chain(t, (r, s))[::-1]
            assert chain == tuple(eigenspace(t.x[(s, r)], F(d - 2 * i)) for i in range(d + 1))


def reference_relations(t):
    """Every relation instance by Matrix algebra, each product formed afresh.

    It shares Matrix arithmetic with verify_relations; that arithmetic is
    checked against a Fraction list-of-lists reference in test_linalg.
    """
    x = t.x
    checks = []

    def record(relation, instance, residual):
        checks.append(CheckResult(relation, instance, residual.is_zero(), None if residual.is_zero() else residual))

    for r, s in UNORDERED_PAIRS:
        record("antisymmetry", (r, s), x[(r, s)] + x[(s, r)])
    for r, s, tt in permutations(CORNERS, 3):
        record("triangle", (r, s, tt), commutator(x[(r, s)], x[(s, tt)]) - 2 * x[(r, s)] - 2 * x[(s, tt)])
    for r, s, tt, u in permutations(CORNERS, 4):
        a, b = x[(r, s)], x[(tt, u)]
        inner = commutator(a, b)
        record("dolan_grady", (r, s, tt, u), commutator(a, commutator(a, inner)) - 4 * inner)
    return tuple(checks)


def reference_dolan_grady(x, y):
    xy = commutator(x, y)
    return commutator(x, commutator(x, xy)) == 4 * xy and commutator(y, commutator(y, -xy)) == -4 * xy


def with_entry_changed(mat, i, j, delta):
    entries = list(mat.entries)
    entries[i * mat.cols + j] += delta
    return Matrix(mat.rows, mat.cols, tuple(entries))


def rational_matrices(n):
    return grids(n, n, st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3, 7))))


NEW_DENOMINATORS = st.builds(F, st.integers(-6, 6).filter(bool), st.sampled_from((1, 7, 11, 49)))


class TestRelationsDifferential:
    """verify_relations, with its shared Dolan-Grady brackets, against every product formed afresh."""

    def assert_same(self, t):
        got = verify_relations(t).checks
        assert got == reference_relations(t)
        assert _antisymmetric(t) == direct_antisymmetric(t)
        return got

    def test_built_irreducible_grid(self, built_irreducible_grid):
        for t in built_irreducible_grid.values():
            assert all(c.passed for c in self.assert_same(t))

    def test_trivial_module(self):
        self.assert_same(build_tetra(trivial_module()))

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.sampled_from(SAMPLE_SPECS),
        pair=st.sampled_from(ORDERED_PAIRS),
        cell=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        delta=NEW_DENOMINATORS,
    )
    def test_one_changed_entry(self, built, spec, pair, cell, delta):
        t = built[spec]
        i, j = cell[0] % t.dim, cell[1] % t.dim
        got = self.assert_same(with_generator(t, pair, with_entry_changed(t.x[pair], i, j, delta)))
        assert not all(c.passed for c in got)

    @pytest.mark.parametrize("pair", [(1, 0), (2, 1), (3, 0)])
    def test_reversed_generator_changed_alone(self, built, pair):
        t = built[SAMPLE_SPECS[2]]
        got = self.assert_same(with_generator(t, pair, with_entry_changed(t.x[pair], 0, 1, F(1, 7))))
        assert (pair[1], pair[0]) in {c.instance for c in got if not c.passed and c.relation == "antisymmetry"}

    @settings(max_examples=30, deadline=None)
    @given(spec=st.sampled_from(SAMPLE_SPECS[1:]), pair=st.sampled_from(UNORDERED_PAIRS), delta=NEW_DENOMINATORS)
    def test_antisymmetric_change(self, built, spec, pair, delta):
        # the mirrored residuals are negated copies, also where they fail
        got = self.assert_same(with_mirrored_change(built[spec], pair, delta))
        failed = {c.relation for c in got if not c.passed}
        assert "antisymmetry" not in failed and failed

    @pytest.mark.parametrize(
        "replace",
        [lambda m: m, lambda m: -m.transpose(), lambda m: -2 * m],
        ids=["x_rs", "minus_transpose", "minus_twice"],
    )
    def test_reversed_generator_not_the_negative(self, built, replace):
        t = built[SAMPLE_SPECS[2]]
        for r, s in [(0, 1), (3, 1)]:
            got = self.assert_same(with_generator(t, (s, r), replace(t.x[(r, s)])))
            failed = {c.relation for c in got if not c.passed}
            assert "antisymmetry" in failed

    def test_every_matrix_scaled_by_a_third(self, built):
        t = built[SAMPLE_SPECS[1]]
        scaled = TetraModule(dim=t.dim, diameter=t.diameter, x={p: F(1, 3) * m for p, m in t.x.items()})
        got = self.assert_same(scaled)
        assert {c.relation for c in got if not c.passed} == {"triangle", "dolan_grady"}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(rational_matrices(n), rational_matrices(n))))
    def test_dolan_grady_holds_on_random_pairs(self, pair):
        x, y = pair
        assert dolan_grady_holds(x, y) == reference_dolan_grady(x, y)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 4),
        a=st.sampled_from(PARAMETER_POOL),
        shifts=st.tuples(NEW_DENOMINATORS, NEW_DENOMINATORS),
        cell=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        delta=st.one_of(st.just(F(0)), NEW_DENOMINATORS),
    )
    def test_dolan_grady_holds_near_a_module(self, n, a, shifts, cell, delta):
        # an evaluation module satisfies both relations, also after scalar shifts
        m = evaluation_module(n, a)
        ident = Matrix.identity(m.dim)
        x = with_entry_changed(m.A + shifts[0] * ident, cell[0] % m.dim, cell[1] % m.dim, delta)
        y = m.Astar + shifts[1] * ident
        expected = reference_dolan_grady(x, y)
        assert dolan_grady_holds(x, y) == dolan_grady_holds(y, x) == expected
        assert expected or delta != 0

    def test_dolan_grady_holds_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            dolan_grady_holds(Matrix.identity(2), Matrix.identity(3))


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
                    assert target.contains(Subspace.span_columns(shifted * Matrix(t.dim, 1, col)))


def reference_flag_independence(t):
    """Flag independence by canonical subspace sums: for each corner r, the
    partial sums of the eigenspaces of x_rs, accumulated upward from -d, are
    the same for the three s != r. Eigenspaces are computed afresh."""
    d = t.diameter
    for r in CORNERS:
        partials = []
        for s in CORNERS:
            if s == r:
                continue
            acc, sums = Subspace.zero(t.dim), []
            for i in range(d, -1, -1):
                acc = subspace_sum(acc, eigenspace(t.x[(r, s)], F(d - 2 * i)))
                sums.append(acc)
            partials.append(sums)
        if any(sums != partials[0] for sums in partials[1:]):
            return False
    return True


def chain_dims(t, pair):
    d = t.diameter
    return [eigenspace(t.x[pair], F(d - 2 * i)).dim for i in range(d + 1)]


class TestFlagIndependenceDifferential:
    """The annihilator flag-independence check against canonical subspace sums."""

    def assert_same(self, t):
        verdict = flag_independence_check(t)
        assert verdict is reference_flag_independence(t)
        return verdict

    def test_irreducible_grid(self, built_irreducible_grid):
        for t in built_irreducible_grid.values():
            assert self.assert_same(t)

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(ORDERED_PAIRS), st.integers(0, 5), st.integers(0, 5),
           st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool), st.booleans())
    def test_one_entry_changed(self, built, pair, i, j, delta, mirrored):
        # the d3 module (2,2)(1,3) of dim 6; mirrored keeps x_sr = -x_rs
        t = built[SAMPLE_SPECS[2]]
        changed = with_generator(t, pair, with_entry_changed(t.x[pair], i, j, delta))
        if mirrored:
            changed = with_generator(changed, pair[::-1], -changed.x[pair])
        self.assert_same(changed)

    def test_same_weights_other_parameter(self):
        # x_02 and x_20 of (1,2)(1,5) in the file of (1,2)(1,3): every chain
        # has the same dimensions, so the annihilators decide, and a sum differs
        t = build_tetra_from_spec(ModuleSpec.of([(1, 2), (1, 3)]))
        other = build_tetra_from_spec(ModuleSpec.of([(1, 2), (1, 5)]))
        t = with_generator(with_generator(t, (0, 2), other.x[(0, 2)]), (2, 0), other.x[(2, 0)])
        assert all(chain_dims(t, pair) == chain_dims(t, (0, 1)) for pair in ORDERED_PAIRS)
        assert self.assert_same(t) is False

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2)])
    def test_one_not_diagonalizable(self, built, pair):
        # x_02's smaller eigenspaces still lie in the sums of x_01, the first
        # generator at corner 0, so only the dimensions tell them apart
        t = jordan_perturbed(built[SAMPLE_SPECS[1]], pair)
        assert sum(chain_dims(t, pair)) < t.dim
        assert self.assert_same(t) is False

    def test_not_diagonalizable_and_independent(self, built):
        # x_01 = x_02 = x_03, not diagonalizable, and the other nine as built:
        # the sums at corner 0 agree, and Bezout decides them through x_01
        t = built[SAMPLE_SPECS[1]]
        jordan = jordan_perturbed(t, (0, 1)).x[(0, 1)]
        for pair in ((0, 1), (0, 2), (0, 3)):
            t = with_generator(t, pair, jordan)
        assert sum(chain_dims(t, (0, 1))) < t.dim
        assert self.assert_same(t) is True

    def test_only_columns_with_a_factor_left_are_multiplied(self, spy):
        # at d27, 864 column products carry a factor; multiplying every column at every step takes 1512
        t = build_tetra_from_spec(ModuleSpec.of([(2, 2), (2, 3), (2, 5)]))
        eigentable(t)  # the chains, which the check reuses, are not counted
        columns = spy(linalg, "_int_matmul", lambda a, b, cols: cols)
        assert flag_independence_check(t)
        assert 0 < sum(columns) <= 864


class TestGlobalStructure:
    def test_flag_independence(self, built):
        for t in built.values():
            assert flag_independence_check(t)

    def test_pairwise_burnside(self, built):
        assert pairwise_burnside(built[SAMPLE_SPECS[0]])
        assert pairwise_burnside(built[SAMPLE_SPECS[1]])

    def test_partial_sums_match_flags(self, built):
        t = built[SAMPLE_SPECS[1]]
        flags = four_flags(build_from_spec(SAMPLE_SPECS[1]))
        d = t.diameter
        for r in CORNERS:
            s = next(c for c in CORNERS if c != r)
            acc = None
            for i in range(d + 1):
                space = eigenspace(t.x[(r, s)], F(2 * i - d))
                acc = space if acc is None else subspace_sum(acc, space)
                assert acc == flags[r].components[i]


class TestPairwiseBurnsideAtD:
    """pairwise_burnside asks Norton's test at the first line of each chain
    at the structure's d, d-2, ..., against pair_generates_full_algebra,
    which reads each generator's ladder in linalg (_ladder_eigenpairs)."""

    def assert_same(self, t, monkeypatch):
        expected = all(pair_generates_full_algebra(t.x[p], t.x[q]) for p, q in tetra.OPPOSITE_PAIRS)
        with monkeypatch.context() as patch:
            calls = corpus.spy(patch, linalg, "minimal_polynomial")
            assert pairwise_burnside(t) is expected
        assert calls == []
        return expected

    def test_irreducible_grid(self, built_irreducible_grid, monkeypatch):
        for t in built_irreducible_grid.values():
            assert self.assert_same(t, monkeypatch)

    def test_doubled_v(self, doubled_v, monkeypatch):
        # the top eigenspace at d is a plane: the closure decides
        assert self.assert_same(doubled_v, monkeypatch) is False

    def test_declared_d_not_an_eigenvalue(self, monkeypatch):
        # the d6 (3,2)(3,3) declared d = 8: ker(x_p - 8) is zero, and the chain's first line is at 6
        t = build_tetra_from_spec(ModuleSpec.of([(3, 2), (3, 3)]))
        misdeclared = TetraModule(dim=t.dim, diameter=8, x=t.x)
        with monkeypatch.context() as patch:
            closures = corpus.spy(patch, classify, "_closure_dimension_exact", lambda gens, n: n)
            assert pairwise_burnside(misdeclared)
        assert closures == []
        assert self.assert_same(misdeclared, monkeypatch) is True


class TestOneSpectralPass:
    """module_type, four_flags, build_tetra and verify_tridiagonal_pair read
    each generator's eigenvalues and eigenspaces off one certificate
    (linalg.ladder_spectrum and linalg.diagonal_spectrum)."""

    def test_no_minimal_polynomial_on_the_irreducible_grid(self, grid_modules, built_irreducible_grid, spy):
        # every mu_v is a ladder whose eigenspaces fill the space: no fallback, no divisor search
        calls = spy(linalg, "minimal_polynomial")
        spy(linalg, "rational_roots", calls=calls)
        for spec, t in built_irreducible_grid.items():
            m = grid_modules[spec]
            assert module_type(m) == (t.diameter, 0, 0)
            assert four_flags(m)[0].diameter == t.diameter
            assert build_tetra(m).x == t.x
            assert verify_tridiagonal_pair(m.A, m.Astar).verdict
        assert calls == []

    def test_chains_are_the_pieces_of_their_pair(self, grid_modules, built_irreducible_grid):
        # F0_i meet F1_(d-i) is the eigenspace of A at 2i - d, in the canonical form of an intersection, so
        # build_tetra takes A and Astar themselves as x_01 and x_23
        for spec, t in built_irreducible_grid.items():
            m, d = grid_modules[spec], t.diameter
            pieces_01 = intersected_pieces(four_flags(m), 0, 1)
            pieces_23 = intersected_pieces(four_flags(m), 2, 3)
            assert pieces_01 == tuple(eigenspace(m.A, F(2 * i - d)) for i in range(d + 1))
            assert pieces_23 == tuple(eigenspace(m.Astar, F(2 * i - d)) for i in range(d + 1))


class TestFlagComponents:
    def test_builds_no_flag_record_and_no_subspace_sum(self, grid_modules, built_irreducible_grid, spy):
        # build_tetra reads its pieces off eigenbases; only four_flags builds Flag records. Every Flag, public or
        # of partial sums (Flag._of), checks its dimensions
        made = []
        for record, check in ((flags.Flag, "_check_dimensions"), (flags.Decomposition, "__post_init__")):
            spy(record, check, type, made)
        spy(linalg, "subspace_sum", "subspace_sum", made, (flags, tetra))
        for spec, t in built_irreducible_grid.items():
            assert build_tetra(grid_modules[spec]).x == t.x
        assert made == []
        four_flags(grid_modules[next(iter(built_irreducible_grid))])
        assert made == [flags.Flag] * 4


def intersected_pieces(flag_records, r, s):
    """The pieces F_i & G_{d-i} of the flags r and s by linalg.intersect of
    their partial sums, or the reason when one is zero: the reference."""
    f, g = flag_records[r].components, flag_records[s].components
    d = len(f) - 1
    pieces = tuple(intersect(f[i], g[d - i]) for i in range(d + 1))
    zero = next((i for i, piece in enumerate(pieces) if piece.is_zero()), None)
    return pieces if zero is None else f"component intersection {zero} is zero"


def change_of_basis_generators(m):
    """The twelve x_rs by the change of basis the one solve replaces:
    hstack(theta_i P_i) times inverse(hstack(P_i)), with P_i the pieces
    the flags r and s induce (intersected_pieces) and theta_i = 2i - d.
    Raises OppositionError, as build_tetra words it, for the first pair r < s
    whose pieces are not all nonzero or do not sum directly to the space."""
    flag_records = four_flags(m)
    d = flag_records[0].diameter
    x = {}
    for r, s in UNORDERED_PAIRS:
        pieces = intersected_pieces(flag_records, r, s)
        if isinstance(pieces, str):
            raise OppositionError(f"flags {r} and {s} are not opposite: {pieces}")
        try:
            inverted = inverse(hstack(*(piece.basis for piece in pieces)))
        except ValueError:
            raise OppositionError(f"flags {r} and {s} are not opposite: component intersections do not sum "
                                  "directly to the full space") from None
        x[(r, s)] = hstack(*((2 * i - d) * piece.basis for i, piece in enumerate(pieces))) * inverted
        x[(s, r)] = -x[(r, s)]
    return x


def assert_pieces_are_intersections(m):
    """flags._mixed_pieces reads, for each pair that mixes A and Astar, the
    subspaces intersected_pieces gives, or the same reason."""
    _, _, _, spaces_a, spaces_s = _module_spectra(m)
    flag_records = four_flags(m)
    seen = []
    for (r, s), pieces in flags._mixed_pieces(spaces_a, spaces_s):
        seen.append((r, s))
        expected = intersected_pieces(flag_records, r, s)
        if isinstance(expected, str):
            assert pieces == expected
        else:
            assert tuple(Subspace.span_columns(Matrix.from_rows(piece).transpose()) for piece in pieces) == expected
    assert seen == [(0, 2), (0, 3), (1, 2), (1, 3)]


@st.composite
def ladder_pairs(draw):
    """(A, Astar) of type (0, 0) with one drawn d: A diagonal, Astar = P D P^-1
    for a sparse unimodular P, so that many pairs are not opposite. Half the
    draws give Astar A's eigenvalue multiplicities, and palindromic ones,
    which opposite flags need."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, 6))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=d, max_size=d)))
    dims = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    if draw(st.booleans()):
        dims = [max(a, b) for a, b in zip(dims, dims[::-1])]
        n = sum(dims)

    def ladder(dims):
        values = [2 * i - d for i, k in enumerate(dims) for _ in range(k)]
        order = draw(st.permutations(range(n)))
        return Matrix.from_rows([[values[order[i]] if i == j else 0 for j in range(n)] for i in range(n)])

    other = dims if draw(st.booleans()) else draw(st.permutations(dims))
    p = draw(unitriangular_matrices(n, st.sampled_from([0, 1, -1, 2])))
    return OnsagerModule(n, ladder(dims), conjugated(ladder(other), p))


@pytest.mark.work_count
class TestOneSolvePerGenerator:
    """build_tetra reads each x_rs off one elimination, with the change of
    basis as the differential reference, and its pieces off one echelon per
    pair, with linalg.intersect of the partial sums as the reference."""

    def test_grid(self, grid_modules, built_irreducible_grid):
        for spec, t in built_irreducible_grid.items():
            assert t.x == change_of_basis_generators(grid_modules[spec]), spec.factors
            assert_pieces_are_intersections(grid_modules[spec])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_conjugates(self, grid_specs, grid_modules, data):
        # P m P^-1 for a unit lower times unit upper triangular P
        spec = data.draw(st.sampled_from([s for s in grid_specs if is_irreducible_criterion(s) and s.dim <= 9]))
        m = grid_modules[spec]
        conjugate = conjugated(m, data.draw(unitriangular_matrices(m.dim)))
        built = build_tetra(conjugate)
        assert built.x == change_of_basis_generators(conjugate)
        assert built.x[(0, 1)] is conjugate.A and built.x[(2, 3)] is conjugate.Astar
        assert_pieces_are_intersections(conjugate)

    @settings(max_examples=100, deadline=None)
    @given(ladder_pairs())
    def test_drawn_pairs_past_the_irreducibility_test(self, m):
        # the flag route on pairs Norton might refuse: the same twelve matrices, or the same refusal text
        assert_pieces_are_intersections(m)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "_full_algebra", lambda a, b, eigenpairs: True)
            built = build_result(build_tetra, m)
            assert built == outcome(OppositionError, change_of_basis_generators, m)

    def test_refusals(self, non_opposite_flags, monkeypatch):
        # a non-direct sum and an empty piece, each as the reference words it, then a reducible V(2, 1)
        # past the irreducibility test, whose pieces of (0, 2) are no direct sum
        cases = list(non_opposite_flags)
        reducible = build_from_spec(ModuleSpec.of([(2, 1)]))
        cases.append((reducible, "flags 0 and 2 are not opposite: component intersections do not sum directly "
                                 "to the full space"))
        monkeypatch.setattr(classify, "_full_algebra", lambda a, b, eigenpairs: True)
        for m, text in cases:
            assert_pieces_are_intersections(m)
            refused = build_result(build_tetra, m)
            assert refused == outcome(OppositionError, change_of_basis_generators, m) == (OppositionError, text)

    def test_no_inverse_hstack_product_or_determinant(self, grid_modules, built_irreducible_grid, monkeypatch, spy):
        # spies on every module that could hold the names, so an import by name is seen too
        calls = []
        for name in ("inverse", "hstack", "determinant"):
            spy(linalg, name, name, calls, (flags, tetra, classify))
        real_mul = Matrix.__mul__
        # a conditional spy: a product by a scalar is no matrix product
        monkeypatch.setattr(Matrix, "__mul__",
                            lambda a, b: (isinstance(b, Matrix) and calls.append("product")) or real_mul(a, b))
        for spec, t in built_irreducible_grid.items():
            m = grid_modules[spec]
            assert build_tetra(m).x == t.x
            assert calls == [], spec.factors
            assert classify.find_intertwiner(m, m) == Matrix.identity(m.dim)
            assert "determinant" not in calls, spec.factors
            calls.clear()


class TestReadOnlyMatrices:
    def test_assignment_raises(self, built):
        t = built[SAMPLE_SPECS[1]]
        with pytest.raises(TypeError):
            t.x[(0, 1)] = t.x[(1, 0)]
        assert build_tetra(OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)])).x == t.x

    def test_the_given_table_is_copied(self, built):
        t = built[SAMPLE_SPECS[0]]
        table = dict(t.x)
        copy = TetraModule(dim=t.dim, diameter=t.diameter, x=table)
        table[(0, 1)] = Matrix.zeros(2, 2)
        assert copy.x == t.x


class TestRoundtrip:
    def test_agrees_with_two_builds_on_grid(self, grid_modules, built_irreducible_grid, fixed_point_roundtrip):
        # the first build of the two-build reference is the grid's own build
        for spec, first in built_irreducible_grid.items():
            module = grid_modules[spec]
            assert roundtrip_uniqueness(module) is fixed_point_roundtrip(module, first) is True, spec.factors

    def test_trivial(self):
        assert roundtrip_uniqueness(trivial_module())

    def test_dim_two(self):
        assert roundtrip_uniqueness(evaluation_module(1, F(2)))

    def test_dim_four(self):
        assert roundtrip_uniqueness(build_from_spec(ModuleSpec.of([(1, 2), (1, 3)])))


def spectra_first_build(m: OnsagerModule) -> TetraModule:
    """build_tetra with its refusals in the order spectra, type, then irreducibility at the certified
    eigenspaces of A: the reference that asking irreducibility first agrees with outside build_tetra's
    documented class. Past them it is build_tetra, told the pair is irreducible, as the reference decided."""
    d, alpha, alphastar, spaces_a, _ = _module_spectra(m)
    if alpha != 0 or alphastar != 0:
        raise TypeShiftError(f"module has type ({alpha}, {alphastar}); normalize to (0, 0) first")
    if not classify._full_algebra(m.A, m.Astar, zip(range(d, -d - 1, -2), spaces_a)):
        raise ReducibleModuleError(tetra._NOT_FULL)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "_verdict_before_spectra", lambda a, b: True)
        return build_tetra(m)


def build_result(build, m: OnsagerModule):
    """The twelve matrices build(m) gives, or the type and text of its refusal."""
    return outcome(TetraboxError, lambda: dict(build(m).x))


def assert_refused_as_before(m: OnsagerModule) -> None:
    """build_tetra on m and the spectra-first reference on fresh matrix objects, so that neither reads a
    verdict or eigenspace the other kept, give the same matrices or the same refusal."""
    assert build_result(build_tetra, m) == build_result(spectra_first_build, fresh(m))


@st.composite
def conjugated_grid_modules(draw, grid_specs):
    """P m P^-1 for a grid module of dim <= 9, irreducible or not, possibly shifted, and a unit lower times
    unit upper triangular P."""
    spec = draw(st.sampled_from([s for s in grid_specs if s.dim <= 9]))
    shift = draw(st.sampled_from(((0, 0), (1, 0), (0, F(-1, 2)), (1, 1))))
    m = build_from_spec(ModuleSpec(spec.factors, shift))
    return conjugated(m, draw(unitriangular_matrices(m.dim)))


# a reducible pair in the one class whose refusal changed: V(1, 2) + W, where on W A is diag(1, -1) and Astar a
# Jordan block at 1. e_0 lies in V(1, 2), so both Krylov ladders read 1, -1, type (0, 0) with d = 1, but Astar
# is not diagonalizable
JORDAN_W = OnsagerModule(2, Matrix.from_rows([[1, 0], [0, -1]]), Matrix.from_rows([[1, 1], [0, 1]]))


class TestIrreducibilityBeforeSpectra:
    """build_tetra asks irreducibility before either spectrum where the Krylov ladders of A and Astar at
    e_0 read type (0, 0) with one d, against a reference that refuses in the order spectra, type, then
    irreducibility: the same twelve matrices or the same refusal, outside the one documented class."""

    def test_grid(self, grid_modules):
        for m in grid_modules.values():
            assert_refused_as_before(m)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_conjugates(self, grid_specs, data):
        assert_refused_as_before(data.draw(conjugated_grid_modules(grid_specs)))

    @pytest.mark.parametrize("factors", [[(1, 2)], [(1, 2), (1, 3)], [(2, 1)]])
    def test_v_plus_v(self, factors, monkeypatch):
        # no eigenline on either side: the closure decides, and below its guard both refuse as the guard words it
        v = build_from_spec(ModuleSpec.of(factors))
        assert_refused_as_before(direct_sum(v, v))
        monkeypatch.setattr(matrix, "DIM_GUARD", 2 * v.dim)
        assert_refused_as_before(direct_sum(v, v))
        assert build_result(build_tetra, direct_sum(v, v))[0] is DimensionGuardError

    @pytest.mark.parametrize("factors", REDUCIBLE_FOLDS.values())
    def test_reducible_folds(self, factors):
        # tensor products at a repeated point, folded with no refusal: the top of A is a line
        t = folded(factors)
        m = OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)])
        assert build_result(build_tetra, m) == (ReducibleModuleError, tetra._NOT_FULL)
        assert_refused_as_before(m)

    def test_refused_after_the_spectra(self, monkeypatch, spy):
        # P^-1 (V + V) P, P's first column v_2 + v_-2 of A on the first summand: e_0 meets A's eigenspaces at 2
        # and -2 alone, which is no ladder, so nothing is asked before the spectra; they certify type (0, 0), and
        # with no eigenline on either side the closure refuses
        v = build_from_spec(ModuleSpec.of([(1, 2), (1, 3)]))
        rows = Matrix.identity(8).to_rows()
        for i, x in enumerate((2, 0, 0, 2, 0, 0, 0, 0)):
            rows[i][0] = x
        m = conjugated(direct_sum(v, v), inverse(Matrix.from_rows(rows)))
        assert linalg._krylov_ladder(m.A) is None and linalg._krylov_ladder(m.Astar) == [2, 0, -2]
        assert module_type(fresh(m)) == (2, 0, 0)
        verdicts, early = [], classify._verdict_before_spectra
        monkeypatch.setattr(classify, "_verdict_before_spectra",
                            lambda a, b: verdicts.append(early(a, b)) or verdicts[-1])
        closures = spy(classify, "_closure_dimension_exact", lambda gens, n: n)
        assert build_result(build_tetra, fresh(m)) == (ReducibleModuleError, tetra._NOT_FULL)
        assert verdicts == [None] and closures == [8]
        assert_refused_as_before(m)

    def test_the_documented_class(self):
        m = direct_sum(evaluation_module(1, F(2)), JORDAN_W)
        assert linalg._krylov_ladder(m.A) == linalg._krylov_ladder(m.Astar) == [1, -1]
        assert not is_diagonalizable_with(m.Astar, [1, -1])
        # refused as reducible before the spectra, where the spectra-first order refused Astar's spectrum
        assert build_result(build_tetra, m) == (ReducibleModuleError, tetra._NOT_FULL)
        assert build_result(spectra_first_build, m) == (SpectrumError, onsager._NOT_A_LADDER)

    @pytest.mark.parametrize("shift", [(1, 0), (0, F(-1, 2)), (1, 1)], ids=["A", "Astar", "both"])
    def test_shifted_reducible_module_is_refused_as_shifted(self, shift):
        # a Krylov ladder of a shifted type asks nothing early, even where both read one ladder: the type is
        # refused, as before
        m = build_from_spec(ModuleSpec.of([(1, 2), (1, F(1, 2))], shift=shift))
        text = f"module has type ({shift[0]}, {shift[1]}); normalize to (0, 0) first"
        assert build_result(build_tetra, m) == (TypeShiftError, text)
        assert_refused_as_before(m)
        assert not is_irreducible_burnside(m)

    def test_kept_verdict_forms_no_kernel(self, grid_specs, spy):
        # after is_irreducible_burnside, a reducible pair is refused by build_tetra and answered by
        # check_onsager_equivalence off the verdict kept in A's memo, with no eigenspace or other kernel formed
        kernels = spy(linalg, "_kernel")
        for spec in grid_specs:
            if is_irreducible_criterion(spec):
                continue
            m = build_from_spec(spec)
            assert not is_irreducible_burnside(m)
            kernels.clear()
            with pytest.raises(ReducibleModuleError):
                build_tetra(m)
            assert check_onsager_equivalence(m.A, m.Astar)
            assert kernels == [], spec.factors
