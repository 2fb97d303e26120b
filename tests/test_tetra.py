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
    TetraboxError,
    TypeShiftError,
    build_from_spec,
    build_tetra,
    build_tetra_from_spec,
    commutator,
    dolan_grady_holds,
    eigenspace,
    eigentable,
    evaluation_module,
    hstack,
    inverse,
    flag_independence_check,
    four_flags,
    is_diagonalizable_with,
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
from tetrabox import classify, flags, linalg, onsager, tetra
from tetrabox.tetra import (
    CORNERS,
    ORDERED_PAIRS,
    UNORDERED_PAIRS,
    CheckResult,
    TetraModule,
    _antisymmetric_pairs,
    _opposite_pieces,
)

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
        # the flag scan behind the irreducibility test rejects on its own,
        # naming the first failing pair
        m = build_from_spec(ModuleSpec.of([(2, 1)]))
        components = tuple(f.components for f in four_flags(m))
        with pytest.raises(OppositionError) as raised:
            for r, s in UNORDERED_PAIRS:
                _opposite_pieces(components, r, s)
        assert str(raised.value) == (
            "flags 0 and 2 are not opposite: component intersections do not sum directly to the full space"
        )
        # spinning needs no guard, so the scan is never reached
        monkeypatch.setattr(linalg, "DIM_GUARD", 3)
        with pytest.raises(ReducibleModuleError):
            build_tetra(m)

    def test_undecided_reducible_input_is_refused(self, doubled_v, monkeypatch):
        # V + V passes the flag-opposition scan, so only the closure rejects it
        m = OnsagerModule(8, doubled_v.x[(0, 1)], doubled_v.x[(2, 3)])
        with pytest.raises(ReducibleModuleError):
            build_tetra(m)
        monkeypatch.setattr(linalg, "DIM_GUARD", 16)
        with pytest.raises(DimensionGuardError):
            build_tetra(m)

    def test_shifted_input_rejected(self):
        m = build_from_spec(ModuleSpec.of([(1, 2)], shift=(3, 0)))
        with pytest.raises(TypeShiftError):
            build_tetra(m)


PARAMETER_POOL = (F(2), F(3), F(5), F(1, 2), F(-1, 3), F(-2))


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

    def test_folds_six_generators_per_factor(self, monkeypatch):
        # x_sr = -x_rs on each factor, and a Kronecker sum is linear
        calls = []
        real = tetra.kronecker_sum
        monkeypatch.setattr(tetra, "kronecker_sum", lambda a, b: calls.append(1) or real(a, b))
        t = build_tetra_from_spec(ModuleSpec.of([(1, 2), (2, 3), (1, 5)]))
        assert len(calls) == 6 * 3
        assert all(t.x[(s, r)] == -t.x[(r, s)] for r, s in UNORDERED_PAIRS)

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
            build_tetra_from_spec(ModuleSpec.of([(1, 2), (1, 3), (1, 5), (1, 7)]))
        # the criterion comes before the guard: (1,2) x 4 is reducible
        with pytest.raises(ReducibleModuleError, match="not mutually distinct"):
            build_tetra_from_spec(ModuleSpec.of([(1, 2)] * 4))
        assert calls == []

    def test_refusals_in_the_cli_order(self, monkeypatch):
        # criterion, then shift, then guard, each with the one line `tetrabox build` prints
        monkeypatch.setattr(linalg, "DIM_GUARD", 8)
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
    assert pair in _antisymmetric_pairs(changed)
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
        assert pair not in _antisymmetric_pairs(t)
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


class TestSixGenerators:
    """Where x_sr = -x_rs holds, the chains and the action table are computed once per pair."""

    @pytest.fixture(scope="class")
    def d16(self):
        return build_tetra_from_spec(ModuleSpec.of([(3, 2), (3, 3)]))

    def count_work(self, t, monkeypatch):
        """Eigenspace calls over the four checks, and annihilates calls per check."""
        calls = {"eigenspace": 0, "annihilates": 0}
        for name in calls:
            original = getattr(tetra, name)

            def spy(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(tetra, name, spy)
        fresh = TetraModule(dim=t.dim, diameter=t.diameter, x=dict(t.x))
        annihilators = {}
        for check in (verify_relations, eigentable, verify_action_table, flag_independence_check):
            before = calls["annihilates"]
            check(fresh)
            annihilators[check.__name__] = calls["annihilates"] - before
        return calls["eigenspace"], annihilators

    def test_built_module(self, d16, monkeypatch):
        assert _antisymmetric_pairs(d16) == frozenset(ORDERED_PAIRS)
        eigenspaces, annihilators = self.count_work(d16, monkeypatch)
        assert eigenspaces == 6 * (d16.diameter + 1)
        # flag independence: two calls per corner
        assert annihilators == {"verify_relations": 0, "eigentable": 0,
                                "verify_action_table": 36, "flag_independence_check": 8}

    def test_one_reversed_generator_changed(self, d16, monkeypatch):
        t = with_generator(d16, (1, 0), with_entry_changed(d16.x[(1, 0)], 0, 0, 1))
        assert _antisymmetric_pairs(t) == frozenset(ORDERED_PAIRS) - {(0, 1), (1, 0)}
        eigenspaces, annihilators = self.count_work(t, monkeypatch)
        assert eigenspaces == 7 * (t.diameter + 1)
        # flag independence: corner 0 passes with its two calls, and corner 1
        # fails on the dimensions of x_10's chain before any call
        assert annihilators == {"verify_relations": 0, "eigentable": 0,
                                "verify_action_table": 49, "flag_independence_check": 2}

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
    entry = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3, 7)))
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(Matrix.from_rows)


NEW_DENOMINATORS = st.builds(F, st.integers(-6, 6).filter(bool), st.sampled_from((1, 7, 11, 49)))


class TestRelationsDifferential:
    """verify_relations, with its shared Dolan-Grady brackets, against every product formed afresh."""

    def assert_same(self, t):
        got = verify_relations(t).checks
        assert got == reference_relations(t)
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
        fresh = TetraModule(dim=t.dim, diameter=t.diameter, x=dict(t.x))
        verdict = flag_independence_check(fresh)
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

    def test_only_columns_with_a_factor_left_are_multiplied(self, monkeypatch):
        # at d27, 864 column products carry a factor; multiplying every column at every step takes 1512
        t = build_tetra_from_spec(ModuleSpec.of([(2, 2), (2, 3), (2, 5)]))
        eigentable(t)  # the chains, which the check reuses, are not counted
        columns = []
        real = linalg._int_matmul
        monkeypatch.setattr(linalg, "_int_matmul", lambda a, b, cols: columns.append(cols) or real(a, b, cols))
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
    """pairwise_burnside asks Norton's test at the first line of a chain it
    holds, else at the structure's d, against pair_generates_full_algebra,
    which finds each top from a minimal polynomial."""

    def assert_same(self, t, monkeypatch):
        expected = all(pair_generates_full_algebra(t.x[p], t.x[q]) for p, q in tetra.OPPOSITE_PAIRS)
        calls = []
        real = linalg.minimal_polynomial
        with monkeypatch.context() as patch:
            for module in (linalg, classify):
                patch.setattr(module, "minimal_polynomial", lambda m: calls.append(m) or real(m))
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
        # the d6 (3,2)(3,3) declared d = 8, no chain held: ker(x_p - 8) is zero, so the closure decides
        t = build_tetra_from_spec(ModuleSpec.of([(3, 2), (3, 3)]))
        misdeclared = TetraModule(dim=t.dim, diameter=8, x=t.x)
        closures = []
        real = classify.generated_algebra_dimension
        with monkeypatch.context() as patch:
            patch.setattr(classify, "generated_algebra_dimension", lambda a, b: closures.append(a.rows) or real(a, b))
            assert pairwise_burnside(misdeclared)
        assert closures == [16, 16, 16]
        assert self.assert_same(misdeclared, monkeypatch) is True


class TestOneSpectralPass:
    """module_type, four_flags, build_tetra and verify_tridiagonal_pair read
    each generator's eigenvalues and eigenspaces off one certificate
    (linalg.ladder_spectrum and linalg.diagonal_spectrum)."""

    def test_no_minimal_polynomial_on_the_irreducible_grid(self, grid_modules, built_irreducible_grid, monkeypatch):
        # every mu_v is a ladder whose eigenspaces fill the space: no fallback, no divisor search
        calls = []
        real_poly, real_roots = linalg.minimal_polynomial, linalg.rational_roots
        for module in (linalg, classify):
            monkeypatch.setattr(module, "minimal_polynomial", lambda m: calls.append(m) or real_poly(m))
        monkeypatch.setattr(linalg, "rational_roots", lambda p: calls.append(p) or real_roots(p))
        for spec, t in built_irreducible_grid.items():
            m = grid_modules[spec]
            assert module_type(m) == (t.diameter, 0, 0)
            assert four_flags(m)[0].diameter == t.diameter
            assert build_tetra(m).x == t.x
            assert verify_tridiagonal_pair(m.A, m.Astar).verdict
        assert calls == []

    def test_chains_are_the_pieces_of_their_pair(self, grid_modules, built_irreducible_grid):
        # F0_i meet F1_(d-i) is the eigenspace of A at 2i - d, in the canonical form of an intersection
        for spec, t in built_irreducible_grid.items():
            m, d = grid_modules[spec], t.diameter
            components = tuple(f.components for f in four_flags(m))
            assert _opposite_pieces(components, 0, 1) == tuple(eigenspace(m.A, F(2 * i - d)) for i in range(d + 1))
            assert _opposite_pieces(components, 2, 3) == tuple(eigenspace(m.Astar, F(2 * i - d)) for i in range(d + 1))


class TestFlagComponents:
    def test_builds_no_flag_record_and_no_subspace_sum(self, grid_modules, built_irreducible_grid, monkeypatch):
        # build_tetra intersects the flags' component tuples; only four_flags wraps them in Flag records
        made = []
        for record in (flags.Flag, flags.Decomposition):
            real = record.__post_init__
            monkeypatch.setattr(record, "__post_init__", lambda self, real=real: made.append(type(self)) or real(self))
        real_sum = linalg.subspace_sum
        for module in (linalg, flags, tetra):
            if hasattr(module, "subspace_sum"):
                monkeypatch.setattr(module, "subspace_sum", lambda u, v: made.append("subspace_sum") or real_sum(u, v))
        for spec, t in built_irreducible_grid.items():
            assert build_tetra(grid_modules[spec]).x == t.x
        assert made == []
        four_flags(grid_modules[next(iter(built_irreducible_grid))])
        assert made == [flags.Flag] * 4


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
