"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact rational equality; there are no tolerances. The
classification grid (1- and 2-factor specs over n in {1,2,3} and
a in {2, 3, 5, 1/2, -1, 1}) comes from the shared session fixtures.
"""

import json
import time
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement

import pytest

from tetrabox import (
    Matrix,
    ModuleSpec,
    OppositionError,
    ReducibleModuleError,
    TypeShiftError,
    are_opposite,
    build_from_spec,
    build_tetra,
    check_onsager_equivalence,
    eigenspace,
    eigentable,
    find_intertwiner,
    flag_independence_check,
    four_flags,
    intersect,
    is_diagonalizable_with,
    is_irreducible_criterion,
    is_isomorphic,
    roundtrip_uniqueness,
    verify_action_table,
    verify_relations,
    verify_tridiagonal_pair,
)
from tetrabox.cli import main as cli_main
from tetrabox.tridiagonal import eigenvalue_sequences


def report(criterion: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}")
    assert not failures, f"{criterion}: {failures[:10]}"


@pytest.fixture(scope="module")
def built_suite(relation_suite_specs):
    return {spec: build_tetra(build_from_spec(spec)) for spec in relation_suite_specs}


def test_criterion_1_relation_suite(relation_suite_specs, built_suite):
    start = time.monotonic()
    failures = []
    for spec in relation_suite_specs:
        tetra = built_suite[spec]
        result = verify_relations(tetra)
        if len(result.checks) != 6 + 24 + 24:
            failures.append((spec.factors, "wrong instance count"))
        for check in result.checks:
            if not check.passed or check.residual is not None:
                failures.append((spec.factors, check.relation, check.instance))
    elapsed = time.monotonic() - start
    if elapsed >= 30:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    report("criterion 1 (relation suite)", failures)


def test_criterion_2_spectral_suite(relation_suite_specs, built_suite):
    failures = []
    for spec in relation_suite_specs:
        tetra = built_suite[spec]
        d = spec.degree_sum
        if tetra.diameter != d:
            failures.append((spec.factors, "diameter mismatch"))
        ladder = [F(d - 2 * i) for i in range(d + 1)]
        for pair, mat in tetra.x.items():
            if not is_diagonalizable_with(mat, ladder):
                failures.append((spec.factors, pair, "not diagonalizable on the ladder"))
            if any(eigenspace(mat, lam).dim == 0 for lam in ladder):
                failures.append((spec.factors, pair, "missing ladder eigenvalue"))
        table = eigentable(tetra)
        if not (table.constant_across_pairs and table.symmetric and table.sums_to_dim):
            failures.append((spec.factors, "eigentable booleans"))
    report("criterion 2 (spectral suite)", failures)


def test_criterion_3_identification(relation_suite_specs, built_suite, built_irreducible_grid, grid_modules):
    failures = []
    suite_modules = {spec: build_from_spec(spec) for spec in relation_suite_specs}
    for source, built in (
        (suite_modules, built_suite),
        ({s: grid_modules[s] for s in built_irreducible_grid}, built_irreducible_grid),
    ):
        for spec, tetra in built.items():
            module = source[spec]
            if tetra.x[(0, 1)] != module.A:
                failures.append((spec.factors, "x01 != A"))
            if tetra.x[(2, 3)] != module.Astar:
                failures.append((spec.factors, "x23 != Astar"))
    report("criterion 3 (standard generator identification)", failures)


def test_criterion_4_flag_suite(relation_suite_specs, built_suite):
    failures = []
    for spec in relation_suite_specs:
        tetra = built_suite[spec]
        flags = four_flags(build_from_spec(spec))
        d = tetra.diameter
        for f, g in combinations(flags, 2):
            if not are_opposite(f, g):
                failures.append((spec.factors, "flags not opposite"))
            for i in range(d + 1):
                for j in range(d - i):  # i + j < d
                    if not intersect(f.components[i], g.components[j]).is_zero():
                        failures.append((spec.factors, f"nonzero intersection at {i},{j}"))
        if not flag_independence_check(tetra):
            failures.append((spec.factors, "flag independence"))
    report("criterion 4 (flag suite)", failures)


def test_criterion_5_action_table(relation_suite_specs, built_suite):
    failures = []
    expected_cases = {
        "action_fixes",
        "action_negates",
        "action_raises_plus",
        "action_raises_minus",
        "action_lowers_minus",
        "action_lowers_plus",
        "action_adjacent",
    }
    for spec in relation_suite_specs:
        result = verify_action_table(built_suite[spec])
        seen = {c.relation for c in result.checks}
        if seen != expected_cases:
            failures.append((spec.factors, "row types missing", expected_cases - seen))
        for check in result.checks:
            if not check.passed:
                failures.append((spec.factors, check.relation, check.instance))
    report("criterion 5 (action table)", failures)


def test_criterion_6_classification_agreement(grid_specs, grid_modules, grid_burnside):
    start = time.monotonic()
    failures = []
    for spec in grid_specs:
        if is_irreducible_criterion(spec) != grid_burnside[spec]:
            failures.append((spec.factors, "criterion vs burnside"))
    irreducible = [s for s in grid_specs if is_irreducible_criterion(s)]
    for s1, s2 in combinations_with_replacement(irreducible, 2):
        iso = is_isomorphic(s1, s2)
        witness = find_intertwiner(grid_modules[s1], grid_modules[s2])
        if iso != (witness is not None):
            failures.append((s1.factors, s2.factors, "isomorphism vs intertwiner"))
    elapsed = time.monotonic() - start
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    report("criterion 6 (classification agreement)", failures)


def test_criterion_7_roundtrip_and_rejection(grid_specs, grid_modules, built_irreducible_grid):
    failures = []
    for spec in grid_specs:
        module = grid_modules[spec]
        if is_irreducible_criterion(spec):
            if not roundtrip_uniqueness(module):
                failures.append((spec.factors, "roundtrip"))
        else:
            try:
                build_tetra(module)
                failures.append((spec.factors, "reducible module was not rejected"))
            except (ReducibleModuleError, OppositionError):
                pass
    for shift in ((F(3), F(0)), (F(0), F(-1)), (F(1, 2), F(2))):
        shifted = build_from_spec(ModuleSpec(((1, F(2)), (1, F(3))), shift))
        try:
            build_tetra(shifted)
            failures.append((shift, "shifted module was not rejected"))
        except TypeShiftError:
            pass
    report("criterion 7 (round trip / uniqueness / rejection)", failures)


def test_criterion_8_tridiagonal_suite(grid_specs, grid_modules):
    failures = []
    for spec in grid_specs:
        module = grid_modules[spec]
        if is_irreducible_criterion(spec):
            result = verify_tridiagonal_pair(module.A, module.Astar)
            if not result.verdict:
                failures.append((spec.factors, "tridiagonal verdict"))
                continue
            d = spec.degree_sum
            ladder = tuple(F(d - 2 * i) for i in range(d + 1))
            if eigenvalue_sequences(module.A, module.Astar) != (ladder, ladder):
                failures.append((spec.factors, "eigenvalue sequences"))
        if not check_onsager_equivalence(module.A, module.Astar):
            failures.append((spec.factors, "onsager-pair equivalence"))
    diag = Matrix.from_rows([[1, 0], [0, -1]])
    if not check_onsager_equivalence(diag, diag):
        failures.append(("(h, h)", "onsager-pair equivalence"))
    v11 = build_from_spec(ModuleSpec(((1, F(1)),)))
    if not check_onsager_equivalence(v11.A, v11.Astar):
        failures.append(("V(1)", "onsager-pair equivalence"))
    if verify_tridiagonal_pair(diag, diag).verdict:
        failures.append(("(h, h)", "verdict should fail"))
    if verify_tridiagonal_pair(v11.A, v11.Astar).verdict:
        failures.append(("V(1)", "verdict should fail"))
    report("criterion 8 (tridiagonal suite)", failures)


def test_criterion_9_fault_injection(tmp_path, capsys):
    failures = []

    def build_file(factors, name):
        spec_path = tmp_path / f"{name}.spec.json"
        spec_path.write_text(json.dumps({"factors": factors, "shift": ["0", "0"]}))
        out_path = tmp_path / f"{name}.module.json"
        assert cli_main(["build", str(spec_path), "-o", str(out_path)]) == 0
        return json.loads(out_path.read_text())

    def verify_tampered(data, key, i, j, name):
        tampered = json.loads(json.dumps(data))
        entry = F(tampered["tetra"]["x"][key][i][j])
        tampered["tetra"]["x"][key][i][j] = str(entry + 1)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(tampered))
        code = cli_main(["verify", str(path)])
        out = json.loads(capsys.readouterr().out)
        named = out["relations"]["failures"] or out["action_table"]["failures"]
        if code != 1:
            failures.append((name, key, i, j, f"exit {code}"))
        if not named:
            failures.append((name, key, i, j, "no failing instance named"))

    # every entry of every generator on the dimension-2 module
    data2 = build_file([{"n": 1, "a": "2"}], "dim2")
    capsys.readouterr()
    for key in data2["tetra"]["x"]:
        for i in range(2):
            for j in range(2):
                verify_tampered(data2, key, i, j, f"dim2-{key}-{i}{j}")

    # one entry of every generator on the dimension-4 module
    data4 = build_file([{"n": 1, "a": "2"}, {"n": 1, "a": "3"}], "dim4")
    capsys.readouterr()
    for idx, key in enumerate(sorted(data4["tetra"]["x"])):
        verify_tampered(data4, key, idx % 4, (idx * 2 + 1) % 4, f"dim4-{key}")

    report("criterion 9 (fault injection)", failures)
