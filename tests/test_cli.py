import contextlib
import copy
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tetrabox
from tetrabox import Matrix, classify, cli, flags, linalg, matrix, onsager, tetra
from tetrabox.classify import find_intertwiner
from tetrabox.cli import main
from tetrabox.errors import DimensionGuardError, ReducibleModuleError, TetraboxError
from tetrabox.onsager import ModuleSpec, OnsagerModule, build_from_spec, module_type
from tetrabox.tetra import build_tetra, verify_relations
from tetrabox.serialize import (
    LITERAL_GUARD,
    module_from_json,
    module_to_json,
    spec_from_json,
    tetra_from_json,
    tetra_to_json,
)

import corpus
from corpus import REDUCIBLE_FOLDS, conjugated, direct_sum, folded, subprocess_env, unitriangular_matrices


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def spec_json(factors, shift="0") -> dict:
    """The spec document of (n, a) factors, of type shift (shift, 0); with shift None it has no shift key."""
    spec = {"factors": [{"n": n, "a": a} for n, a in factors]}
    if shift is not None:
        spec["shift"] = [shift, "0"]
    return spec


SPEC_V2 = spec_json([(1, "2")])
SPEC_V2_V3 = spec_json([(1, "2"), (1, "3")])
SPEC_REDUCIBLE = spec_json([(1, "1")])
SPEC_TRIVIAL = spec_json([(0, "1")])


@pytest.fixture
def spec_v2(tmp_path):
    return write_json(tmp_path / "v2.json", SPEC_V2)


@pytest.fixture
def built_v2(tmp_path, spec_v2):
    out = tmp_path / "v2.module.json"
    assert main(["build", spec_v2, "-o", str(out)]) == 0
    return out


class TestBuild:
    def test_success_writes_all_generators(self, built_v2):
        data = json.loads(built_v2.read_text())
        assert len(data["tetra"]["x"]) == 12
        assert data["tetra"]["x"]["01"] == data["module"]["A"]
        assert data["tetra"]["x"]["23"] == data["module"]["Astar"]

    def test_deterministic_output(self, tmp_path, spec_v2):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["build", spec_v2, "-o", str(out1)]) == 0
        assert main(["build", spec_v2, "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_reducible_spec_rejected(self, tmp_path, capsys):
        spec = write_json(tmp_path / "red.json", SPEC_REDUCIBLE)
        assert main(["build", spec, "-o", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert "reducible" in err and err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()

    def test_shifted_spec_rejected(self, tmp_path, capsys):
        spec = write_json(tmp_path / "shifted.json", spec_json([(1, "2")], "3"))
        assert main(["build", spec, "-o", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert "type shift" in err and err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["build", str(bad), "-o", str(tmp_path / "out.json")]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["build", str(tmp_path / "nope.json"), "-o", str(tmp_path / "out.json")]) == 2

    def test_invalid_spec_values(self, tmp_path):
        spec = write_json(tmp_path / "zero.json", spec_json([(1, "0")], None))
        assert main(["build", spec, "-o", str(tmp_path / "out.json")]) == 2

    def test_output_into_a_missing_directory(self, tmp_path, spec_v2, capsys):
        out = tmp_path / "missing" / "out.json"
        assert main(["build", spec_v2, "-o", str(out)]) == 2
        assert_one_error_line(*capsys.readouterr())
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "factors, shift, line",
        [
            ([(1, "2"), (1, "1/2")], "0", "reducible: the parameters a_i, a_i^-1 are not mutually distinct"),
            ([(1, "-1"), (1, "2")], "0", "reducible: a = ±1 in an evaluation factor"),
            ([(1, "2"), (1, "3")], "1", "type shift (1, 0) is not (0, 0); "
                                        "only type-(0,0) modules carry the six-generator structure"),
            ([(1, "2"), (1, "1/2")], "1", "reducible: the parameters a_i, a_i^-1 are not mutually distinct"),
            ([(1, a) for a in ("2", "3", "5", "7", "11", "13", "17", "19", "23", "29", "31", "37", "41")], "0",
             "module dimension 8192 exceeds the dimension guard 4096"),
        ],
        ids=["reducible", "unit", "shifted", "reducible_shifted", "d8192"],
    )
    def test_refusal_lines_are_pinned(self, tmp_path, capsys, factors, shift, line):
        spec = write_json(tmp_path / "s.json", spec_json(factors, shift))
        assert main(["build", spec, "-o", str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr() == ("", f"error: {line}\n")
        assert not (tmp_path / "out.json").exists()

    def test_spec_route_runs_no_flag_route(self, tmp_path, spy):
        # every factor is folded from its closed forms: no spectrum, Norton spin, flag or solve
        calls = []
        for owner, name in [(tetra, "build_tetra"), (onsager, "_module_spectra"), (classify, "_full_algebra"),
                            (flags, "_acting_as"), (flags, "_partial_sums")]:
            # the name is patched wherever a module imported it
            spy(owner, name, name, calls, (tetrabox, classify, cli, flags, onsager, tetra))
        for factors in ([(1, "2"), (1, "3")], [(3, "2"), (3, "3")], [(2, "2"), (2, "3"), (2, "5")]):
            spec = write_json(tmp_path / "s.json", spec_json(factors, None))
            assert main(["build", spec, "-o", str(tmp_path / "m.json")]) == 0
        assert calls == []
        # build_from_spec takes a = -1 (a reducible module): it forms x_01 and x_23 only, never dividing by a + 1
        triple = onsager.sl2_irreducible(1)
        m = build_from_spec(ModuleSpec.of([(2, 3), (1, -1)]))
        first = onsager.evaluation_module(2, 3)
        assert m.A == onsager.kronecker_sum(first.A, triple.e + triple.f)
        assert m.Astar == onsager.kronecker_sum(first.Astar, -triple.e - triple.f)

    def test_large_single_factor_builds_fast(self, tmp_path):
        # the flag route spent over a minute on this factor's spectra alone; the closed forms take well under 1 s
        spec = write_json(tmp_path / "d65.json", spec_json([(64, "2")], None))
        out = tmp_path / "d65.module.json"
        start = time.monotonic()
        assert main(["build", spec, "-o", str(out)]) == 0
        assert time.monotonic() - start < 20
        t = tetra_from_json(json.loads(out.read_text())["tetra"])
        assert t.dim == 65 and verify_relations(t).all_passed

    def test_trivial_spec_builds(self, tmp_path):
        spec = write_json(tmp_path / "trivial.json", SPEC_TRIVIAL)
        out = tmp_path / "trivial.module.json"
        assert main(["build", spec, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["module"]["dim"] == 1


class TestVerify:
    def test_built_module_passes(self, built_v2, capsys):
        assert main(["verify", str(built_v2)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["relations"]["failures"] == []

    def test_deep_passes(self, built_v2, capsys):
        assert main(["verify", str(built_v2), "--deep"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["deep"]["pass"] is True
        assert report["deep"]["roundtrip_uniqueness"] is True
        assert report["deep"]["spec_matches"] is True
        assert report["deep"]["pairwise_burnside"] is True
        assert list(report["deep"]) == ["pass", "rebuild_matches", "roundtrip_uniqueness",
                                        "spec_matches", "pairwise_burnside"]

    def test_deep_without_spec_has_no_spec_key(self, built_v2, tmp_path, capsys):
        data = json.loads(built_v2.read_text())
        del data["spec"]
        assert main(["verify", write_json(tmp_path / "m.json", data), "--deep"]) == 0
        assert "spec_matches" not in json.loads(capsys.readouterr().out)["deep"]

    def test_deep_spec_with_other_parameter_fails(self, built_v2, tmp_path, capsys):
        data = json.loads(built_v2.read_text())
        data["spec"]["factors"][0]["a"] = "3"
        assert main(["verify", write_json(tmp_path / "m.json", data), "--deep"]) == 1
        deep = json.loads(capsys.readouterr().out)["deep"]
        assert deep["spec_matches"] is False and deep["pass"] is False
        assert deep["rebuild_matches"] is True and deep["roundtrip_uniqueness"] is True

    def test_deep_spec_of_other_dimension_builds_nothing(self, built_v2, tmp_path, monkeypatch, capsys):
        def refuse(spec):
            raise AssertionError("a spec of another dimension was built")

        # cli imports each name from its defining module when a command runs, so the spies patch that module;
        # build_from_spec is the fold spec_matches would compare
        for name in ("build_tetra_from_spec", "build_from_spec"):
            monkeypatch.setattr(onsager, name, refuse)
        data = json.loads(built_v2.read_text())
        data["spec"]["factors"][0]["n"] = 2
        assert main(["verify", write_json(tmp_path / "m.json", data), "--deep"]) == 1
        assert json.loads(capsys.readouterr().out)["deep"]["spec_matches"] is False

    def test_deep_malformed_spec_exits_2(self, built_v2, tmp_path, capsys):
        data = json.loads(built_v2.read_text())
        data["spec"]["factors"][0]["a"] = "1.5"
        assert main(["verify", write_json(tmp_path / "m.json", data), "--deep"]) == 2
        assert_one_error_line(*capsys.readouterr())

    def test_tampered_entry_fails(self, built_v2, tmp_path, capsys):
        data = json.loads(built_v2.read_text())
        data["tetra"]["x"]["02"][0][0] = "99"
        tampered = write_json(tmp_path / "tampered.json", data)
        assert main(["verify", tampered]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert report["relations"]["failures"]
        failing = report["relations"]["failures"][0]
        assert failing["relation"] and failing["instance"]

    def test_tampered_entry_fails_deep(self, built_v2, tmp_path, capsys):
        data = json.loads(built_v2.read_text())
        data["tetra"]["x"]["13"][1][0] = "-7"
        tampered = write_json(tmp_path / "tampered.json", data)
        assert main(["verify", tampered, "--deep"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False

    @pytest.mark.parametrize(
        "section, key, value",
        [("module", "Astar", None), ("module", "dim", "4"), ("tetra", "d", "x"), ("module", "diameter", -1),
         ("module", "diameter", "1"), ("module", "type", ["0"]), ("module", "type", ["x", "0"]),
         ("tetra", "d", None)],
    )
    def test_malformed_field_exits_2(self, built_v2, tmp_path, capsys, section, key, value):
        data = json.loads(built_v2.read_text())
        if value is None:
            del data[section][key]
        else:
            data[section][key] = value
        path = write_json(tmp_path / "malformed.json", data)
        assert main(["verify", path, "--deep"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("renamed", [False, True], ids=["added", "renamed"])
    def test_generator_key_with_a_non_ascii_digit_exits_2(self, built_v2, tmp_path, capsys, renamed):
        # "0\u0661" is two Unicode digits: read as digits it would name x_01, so an added key of zeros would
        # replace x_01 and a renamed x_01 would verify
        data = json.loads(built_v2.read_text())
        x = data["tetra"]["x"]
        x["0\u0661"] = x.pop("01") if renamed else [["0"] * len(row) for row in x["01"]]
        path = write_json(tmp_path / "key.json", data)
        assert main(["verify", path]) == 2
        out, err = capsys.readouterr()
        assert_one_error_line(out, err)
        assert "bad generator key" in err

    def test_guard_refusal_is_skipped_not_failed(self, doubled_v, tmp_path, monkeypatch, capsys):
        # V + V with one entry of x_02 tampered fails the plain checks, so the deep checks build its pair
        # (x_01, x_23), which is V + V's: the spin cannot decide it and the closure is above the guard
        module = OnsagerModule(8, doubled_v.x[(0, 1)], doubled_v.x[(2, 3)])
        data = {"module": module_to_json(module), "tetra": tetra_to_json(doubled_v)}
        _tamper_x02(data)
        path = write_json(tmp_path / "vv.json", data)
        monkeypatch.setattr(matrix, "DIM_GUARD", 16)
        assert main(["verify", path, "--deep"]) == 1
        report = json.loads(capsys.readouterr().out)
        # the exit is the plain checks'; the refused deep check does not fail verification
        assert report["pass"] is False and report["relations"]["failures"]
        deep = report["deep"]
        assert deep["pass"] is True
        assert deep["pairwise_burnside"] == "skipped"
        assert deep["rebuild_matches"] == "skipped"
        assert "guard" in deep["skipped"] and "\n" not in deep["skipped"]

    def test_unattained_diameter_fails(self, tmp_path, monkeypatch, capsys):
        # (3,2)(3,3) has d = 6; a declared 8 only adds zero eigenspaces at both ends
        spec = write_json(tmp_path / "s.json", spec_json(D16))
        out = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        data["tetra"]["d"] = 8
        path = write_json(tmp_path / "d8.json", data)
        # pairwise_burnside asks Norton at the first line of each chain, at 6, so no closure runs
        monkeypatch.setattr(classify, "_closure_dimension_exact", lambda gens, n: pytest.fail("a closure ran"))
        for deep in ([], ["--deep"]):
            capsys.readouterr()
            assert main(["verify", path, *deep]) == 1
            report = json.loads(capsys.readouterr().out)
            assert report["d"] == 8 and report["pass"] is False
            assert report["eigentable"]["diameter_attained"] is False
            assert report["relations"]["failures"] == [] and report["action_table"]["failures"] == []
        assert report["deep"]["spec_matches"] is False

    @pytest.mark.parametrize("d, code", [(3, 1), (4, 2), (2000, 2)])
    def test_diameter_at_least_dim_exits_2_without_a_chain(self, tmp_path, monkeypatch, capsys, d, code):
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)
        out = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        data["tetra"]["d"] = d
        path = write_json(tmp_path / "d.json", data)
        if code == 2:
            monkeypatch.setattr(tetra, "_eigenspace_chain", lambda t, pair: pytest.fail("a chain was computed"))
        capsys.readouterr()
        assert main(["verify", path]) == code
        if code == 2:
            assert_one_error_line(*capsys.readouterr())

    def test_bad_generator_key_exits_2(self, built_v2, tmp_path, capsys):
        data = json.loads(built_v2.read_text())
        x = data["tetra"]["x"]
        x["0x"] = x.pop("02")
        path = write_json(tmp_path / "renamed.json", data)
        capsys.readouterr()
        assert main(["verify", path]) == 2
        assert_one_error_line(*capsys.readouterr())

    def test_garbage_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert main(["verify", str(bad)]) == 2

    def test_trivial_module_passes(self, tmp_path, capsys):
        spec = write_json(tmp_path / "trivial.json", SPEC_TRIVIAL)
        out = tmp_path / "trivial.module.json"
        assert main(["build", spec, "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out), "--deep"]) == 0


class TestClassify:
    def test_irreducible_pair(self, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)
        assert main(["classify", spec]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "irreducible": True,
            "d": 2,
            "type": ["0", "0"],
            "equivalence_key": [[1, "1/2"], [1, "1/3"]],
        }

    def test_reducible_spec_still_classifies(self, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", spec_json([(1, "2"), (2, "1/2")]))
        assert main(["classify", spec]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["irreducible"] is False
        assert out["d"] == 3

    def test_trivial(self, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", SPEC_TRIVIAL)
        assert main(["classify", spec]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["irreducible"] is True
        assert out["d"] == 0
        assert out["type"] == ["0", "0"]
        assert out["equivalence_key"] == []

    def test_reads_diameter_and_type_off_the_spec(self, tmp_path, monkeypatch, capsys):
        # they are the module's diameter and type (module_type), so classify builds nothing
        data = {"factors": [{"n": 2, "a": "3"}, {"n": 0, "a": "5"}], "shift": ["1/2", "-3"]}
        d, alpha, alphastar = module_type(build_from_spec(spec_from_json(data)))
        calls = []
        monkeypatch.setattr(onsager, "build_from_spec", lambda s: calls.append(s))
        assert main(["classify", write_json(tmp_path / "s.json", data)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert calls == []
        assert out["d"] == d == 2
        assert out["type"] == [str(alpha), str(alphastar)] == ["1/2", "-3"]

    def test_parse_error(self, tmp_path):
        assert main(["classify", str(tmp_path / "missing.json")]) == 2


class TestCompare:
    def run(self, tmp_path, s1, s2, *flags):
        p1 = write_json(tmp_path / "s1.json", s1)
        p2 = write_json(tmp_path / "s2.json", s2)
        return main(["compare", p1, p2, *flags])

    def test_inverse_parameter_isomorphic(self, tmp_path, capsys):
        code = self.run(tmp_path, SPEC_V2, spec_json([(1, "1/2")], None), "--oracle")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out == {"isomorphic": True, "intertwiner_found": True, "oracle_agrees": True}

    def test_distinct_parameters_not_isomorphic(self, tmp_path, capsys):
        code = self.run(tmp_path, SPEC_V2, spec_json([(1, "3")], None), "--oracle")
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out == {"isomorphic": False, "intertwiner_found": False, "oracle_agrees": True}

    def test_dimension_mismatch(self, tmp_path, capsys):
        assert self.run(tmp_path, SPEC_V2, spec_json([(2, "2")], None)) == 1
        assert json.loads(capsys.readouterr().out) == {"isomorphic": False}
        other = spec_json([(2, "2"), (1, "3")])
        assert self.run(tmp_path, SPEC_V2_V3, other, "--oracle") == 1
        assert json.loads(capsys.readouterr().out) == {
            "isomorphic": False, "intertwiner_found": False, "oracle_agrees": True,
        }

    @pytest.mark.parametrize("position", [0, 1])
    def test_shifted_input(self, tmp_path, capsys, position):
        specs = [SPEC_V2, SPEC_V2]
        specs[position] = spec_json([(1, "2")], "1")
        assert self.run(tmp_path, *specs) == 2
        out, err = capsys.readouterr()
        assert_one_error_line(out, err)
        assert err.endswith(f"s{position + 1}.json: type shift is not (0, 0); normalize before comparing\n")

    def test_reducible_input(self, tmp_path, capsys):
        assert self.run(tmp_path, SPEC_V2, SPEC_REDUCIBLE) == 2
        assert "reducible" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "other,code",
        [
            (spec_json([(1, "1/3"), (1, "1/2")], None), 0),
            (spec_json([(1, "5"), (1, "2")], None), 1),
        ],
        ids=["isomorphic", "not_isomorphic"],
    )
    def test_oracle_decides_under_a_low_guard(self, tmp_path, monkeypatch, capsys, other, code):
        # the oracle is a spin 2 dim wide: a d4 decides at guard 16, where its dim^2 is at the guard
        monkeypatch.setattr(matrix, "DIM_GUARD", 16)
        assert self.run(tmp_path, SPEC_V2_V3, other, "--oracle") == code
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "isomorphic": code == 0,
            "intertwiner_found": code == 0,
            "oracle_agrees": True,
        }
        assert captured.err == ""

    def test_oracle_refusal_of_a_module_build_is_skipped(self, tmp_path, monkeypatch, capsys):
        # build_from_spec refuses each d16 module; the criterion still decides
        monkeypatch.setattr(matrix, "DIM_GUARD", 8)
        d16 = spec_json([(1, a) for a in ("2", "3", "5", "7")])
        other = spec_json([(1, a) for a in ("7", "1/5", "1/3", "2")])
        assert self.run(tmp_path, d16, other, "--oracle") == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "isomorphic": True,
            "intertwiner_found": "skipped",
            "oracle_agrees": "skipped",
            "skipped": "module dimension 16 exceeds the dimension guard 8",
        }
        assert captured.err == ""

    def test_an_oracle_that_disagrees_exits_3(self, tmp_path, monkeypatch, capsys):
        # a stand-in oracle that finds no intertwiner between isomorphic specs
        monkeypatch.setattr(classify, "_intertwiner_with_top", lambda m1, m2, c: None)
        assert self.run(tmp_path, SPEC_V2, spec_json([(1, "1/2")], None), "--oracle") == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"isomorphic": True, "intertwiner_found": False, "oracle_agrees": False}
        assert captured.err == "error: intertwiner oracle disagrees with the equivalence criterion\n"

    def test_a_library_error_of_the_oracle_exits_2(self, tmp_path, monkeypatch, capsys):
        # a refusal of the oracle's modules other than the guard's is malformed input: no report is written
        def refuse(m1, m2, c):
            raise ReducibleModuleError("m1 is reducible: stand-in refusal")

        monkeypatch.setattr(classify, "_intertwiner_with_top", refuse)
        assert self.run(tmp_path, SPEC_V2, SPEC_V2, "--oracle") == 2
        out, err = capsys.readouterr()
        assert_one_error_line(out, err)
        assert err == "error: m1 is reducible: stand-in refusal\n"

    def test_oracle_reads_the_top_off_the_spec(self, tmp_path, spy, capsys):
        # d + alpha is the spec's degree sum: no minimal polynomial, no elimination wider than the spin
        calls, widths = spy(linalg, "minimal_polynomial"), spy(linalg._Echelon, "__init__", lambda self, n: n)
        d16 = spec_json(D16)
        for other, code in ((spec_json([(3, "1/3"), (3, "2")], None), 0),
                            (spec_json([(3, "2"), (3, "5")], None), 1)):
            assert self.run(tmp_path, d16, other, "--oracle") == code
            assert json.loads(capsys.readouterr().out)["oracle_agrees"] is True
        assert calls == []
        assert max(widths) == 32


class TestInspect:
    def test_table(self, built_v2, capsys):
        assert main(["inspect", str(built_v2), "--table"]) == 0
        out = json.loads(capsys.readouterr().out)
        table = out["eigentable"]
        assert table["eigenvalues"] == ["1", "-1"]
        assert all(dims == [1, 1] for dims in table["dims"].values())
        assert table["constant_across_pairs"] and table["symmetric"] and table["sums_to_dim"]

    def test_flags(self, tmp_path, capsys):
        spec = write_json(tmp_path / "trivial.json", SPEC_TRIVIAL)
        out_path = tmp_path / "trivial.module.json"
        assert main(["build", spec, "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(out_path), "--flags"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["flags"] == [[[["1"]]]] * 4

    def test_table_dim_four(self, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)
        out_path = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(out_path), "--table"]) == 0
        table = json.loads(capsys.readouterr().out)["eigentable"]
        assert table["eigenvalues"] == ["2", "0", "-2"]
        assert all(dims == [1, 2, 1] for dims in table["dims"].values())

    def test_shifted_module_exits_1_with_one_line(self, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)
        out_path = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        shifted = module_from_json(data["module"])
        data["module"]["A"] = module_to_json(OnsagerModule(4, shifted.A + Matrix.identity(4), shifted.Astar))["A"]
        path = write_json(tmp_path / "shifted.json", data)
        capsys.readouterr()
        assert main(["inspect", path, "--flags"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: module has type (1, 0), expected (0, 0)\n"

    @pytest.mark.parametrize("tamper", ["swapped", "negated_A"])
    def test_module_section_not_the_files_pair_exits_1(self, tmp_path, capsys, tamper):
        # the flags of a module section that is not (x_01, x_23) do not belong to the file
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)
        out_path = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        if tamper == "swapped":
            data["module"] = module_to_json(build_from_spec(ModuleSpec.of([(1, 2)])))
        else:
            module = module_from_json(data["module"])
            data["module"]["A"] = module_to_json(OnsagerModule(4, -module.A, module.Astar))["A"]
        path = write_json(tmp_path / f"{tamper}.json", data)
        capsys.readouterr()
        assert main(["inspect", path, "--flags"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: the module section is not the tetra section's (x_01, x_23)\n"
        # the bare module document is a module like any other
        bare = write_json(tmp_path / f"{tamper}.bare.json", data["module"])
        assert main(["inspect", bare, "--flags"]) == 0

    def test_requires_exactly_one_mode(self, built_v2):
        with pytest.raises(SystemExit):
            main(["inspect", str(built_v2)])

    def test_parse_error(self, tmp_path):
        assert main(["inspect", str(tmp_path / "missing.json"), "--table"]) == 2


class TestModuleMetadata:
    """A module file's "diameter" and "type" are validated, not trusted: the
    matrices fix both."""

    @pytest.mark.parametrize("key, value", [("type", ["1", "0"]), ("diameter", 0)])
    def test_wrong_metadata_does_not_reach_the_intertwiner(self, tmp_path, key, value):
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)
        out_path = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        data["module"][key] = value
        module, built = module_from_json(data["module"]), build_from_spec(spec_from_json(SPEC_V2_V3))
        assert module == built and hash(module) == hash(built)
        assert find_intertwiner(module, built) == Matrix.identity(4)


class TestGuardOverride:
    def test_guard_limits_build(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(matrix, "DIM_GUARD", 3)
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)  # dim 4 module
        assert main(["build", spec, "-o", str(tmp_path / "out.json")]) == 1
        assert "guard" in capsys.readouterr().err

    def test_oversized_spec_refused_by_classify(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(matrix, "DIM_GUARD", 8)
        spec = write_json(tmp_path / "s.json", spec_json([(1, "2")] * 4))
        assert main(["classify", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: module dimension 16 exceeds the dimension guard 8\n"


def reference_deep_checks(module, t, two_build_roundtrip, spec=None):
    """The deep checks from their definitions: the file's pair (x_01, x_23)
    rebuilt, the module section compared with that pair matrix by matrix, the
    pair's two-build round trip and, for an echoed spec, the spec's module
    compared with the pair and its Kronecker fold with the file. The rebuild
    matches when it gives the file's twelve matrices and its declared d."""
    out = {"pass": True}
    try:
        standard = OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)])
        rebuilt = build_tetra(standard)
        out["rebuild_matches"] = rebuilt.diameter == t.diameter and rebuilt.x == t.x
        is_pair = module is None or (module.dim, module.A, module.Astar) == (t.dim, t.x[(0, 1)], t.x[(2, 3)])
        out["roundtrip_uniqueness"] = is_pair and two_build_roundtrip(standard)
        if spec is not None:
            same_shape = spec.dim == t.dim and spec.degree_sum == t.diameter
            out["spec_matches"] = (same_shape and build_from_spec(spec) == standard
                                   and tetra.build_tetra_from_spec(spec).x == t.x)
        try:
            out["pairwise_burnside"] = tetra.pairwise_burnside(t)
        except DimensionGuardError as exc:
            out["pairwise_burnside"] = "skipped"
            out["skipped"] = str(exc)
        out["pass"] = all((out["rebuild_matches"], out["roundtrip_uniqueness"], out.get("spec_matches", True),
                           out["pairwise_burnside"] is not False))
    except TetraboxError as exc:
        out["pass"] = False
        out["error"] = str(exc)
    return out


def _tamper_x13(data):
    data["tetra"]["x"]["13"][1][0] = "-7"


def _module_a_is_not_x01(data):
    # (-A, Astar) is again an irreducible module, with a round trip of its own
    data["module"]["A"] = [[str(-F(x)) for x in row] for row in data["module"]["A"]]


def _module_of_dim_two(data):
    data["module"] = module_to_json(build_from_spec(spec_from_json(SPEC_V2)))


def _no_module(data):
    del data["module"]


def _misdeclared_d_no_spec(data):
    # every eigentable dim reads 0 at d = 3; only the declared d tells the rebuild apart
    data["tetra"]["d"] = 3
    del data["spec"]


def _reducible_spec(data):
    data["spec"] = spec_json([(1, "2"), (1, "1/2")])


def _shifted_spec(data):
    data["spec"]["shift"] = ["1", "0"]


@pytest.fixture(scope="module")
def d4_build(tmp_path_factory):
    root = tmp_path_factory.mktemp("deep")
    out = root / "d4.module.json"
    assert main(["build", write_json(root / "d4.json", SPEC_V2_V3), "-o", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def d16_build(tmp_path_factory):
    root = tmp_path_factory.mktemp("deep")
    out = root / "d16.module.json"
    assert main(["build", write_json(root / "d16.json", spec_json(D16)), "-o", str(out)]) == 0
    return json.loads(out.read_text())


def _spec_a(factor, a):
    def edit(data):
        data["spec"]["factors"][factor]["a"] = a(data["spec"]["factors"])
    return edit


def _spec_swapped(data):
    data["spec"]["factors"].reverse()


def _spec_other_n(data):
    data["spec"]["factors"][0]["n"] += 1


def _misdeclared_d(data):
    data["tetra"]["d"] += 1


def _misdeclared_d_minus_2(data):
    data["tetra"]["d"] -= 2


def _added(deltas):
    """The edit that adds deltas[key] to entry (0, 1) of x_key, for each key."""
    def edit(data):
        for key, delta in deltas.items():
            row = data["tetra"]["x"][key][0]
            row[1] = str(F(row[1]) + delta)
    return edit


_tamper_x02 = _added({"02": F(1, 7)})


def _doubled(data):
    # V + V, block-diagonal, as a file of its tetra section alone
    t = tetra_from_json(data["tetra"])
    data.clear()
    data["tetra"] = tetra_to_json(direct_sum(t, t))


# echoed-spec files: the spec edited, the rest of the file edited, or the file as built
ECHOED_SPEC_EDITS = {
    "clean": None,
    "other_a": _spec_a(0, lambda factors: "5"),
    "swapped": _spec_swapped,
    "a_inverted": _spec_a(0, lambda factors: str(1 / F(factors[0]["a"]))),
    "reducible": _spec_a(1, lambda factors: str(1 / F(factors[0]["a"]))),
    "a_is_1": _spec_a(0, lambda factors: "1"),
    "shifted": _shifted_spec,
    "other_n": _spec_other_n,
    "misdeclared_d": _misdeclared_d,
    "x02": _tamper_x02,
    "module_A": _module_a_is_not_x01,
}

REDUCIBLE = {"pass": False, "error": "module is reducible: the generated algebra is not full"}

D4 = [(1, "2"), (1, "3")]
D16 = [(3, "2"), (3, "3")]
D16_INV = [(3, "2"), (3, "-1/3")]
D27 = [(2, "2"), (2, "3"), (2, "5")]
D27_INV = [(2, "2"), (2, "-1/3"), (2, "5")]
D49 = [(48, "2")]
D81 = [(2, "2"), (2, "3"), (2, "5"), (2, "-7")]
D64 = [(3, "2"), (3, "3"), (3, "5")]
D8192 = [(1, a) for a in ("2", "3", "5", "7", "11", "13", "17", "19", "23", "29", "31", "37", "41")]


def _x10_is_computed(report):
    # x_10 no longer mirrors x_01, so its action row is computed, not read off x_01's
    failed = [(f["relation"], f["instance"]) for f in report["relations"]["failures"]]
    rows = [f["instance"][:2] for f in report["action_table"]["failures"]]
    return ("antisymmetry", [0, 1]) in failed and [1, 0] in rows


def _plain_checks_pass_but_reducible(report):
    # the top eigenspace of x_01 is a plane: the deep error is build_tetra's refusal text, with no build and no
    # closure run (the (48, 2) sum's closure would be above the guard)
    return (report["relations"]["failures"] == [] and report["flag_independence"] is True
            and report["deep"] == REDUCIBLE)


def _pin(name, factors, edit, command, code, digest=None, check=None, other=None, seconds=None):
    return pytest.param(factors, edit, command, code, digest, check, other, seconds, id=name)


# every pinned CLI output: the spec, an edit of its build file, the command (on the edited build file, on the
# spec for build, or on the spec and the spec of the other factors for compare), the exit code, the sha256 of
# what the command writes (the build file, else stdout), what the JSON written must satisfy, and the seconds
# the command may take
PINNED_BYTES = [
    # the bytes the spec route folds from closed forms
    _pin("d4-build", D4, None, ["build"], 0, "b7a65d0933d32bdd3f32ceafea93b91547351eb574c5f3e62d9ddd155cc3a7ce"),
    _pin("d16-build", D16, None, ["build"], 0, "a85ceaadd7037be30cc62f0c3b348c1c62ab4be1f9ca3e4ce27484f5f3fec2e4"),
    _pin("d16_inv-build", D16_INV, None, ["build"], 0,
         "ce1a1010f339cb0ed85d8ed89722461b0a38d804c65610e2d2f8f982058c7f96"),
    _pin("d27_inv-build", D27_INV, None, ["build"], 0,
         "056f895e357a00e6c816875523d489473c9a527bd96402210e220bf935f91493"),
    # one large factor: every x_rs is rho_48 of a closed form in sl2, so no spectrum, flag or solve runs
    _pin("d49-build", D49, None, ["build"], 0, "f00ecd3caf0b6013571e35abf78c1750e366e9b92db0e36a4da11548e5c60a90"),
    # the four flags: each Krylov sequence starts at e_0, which meets every eigenspace of A and Astar
    _pin("d16-flags", D16, None, ["inspect", "--flags"], 0,
         "dd17912f78b55996d6a2edc60f30305f169084e472d2592fef156ced9f956dbe"),
    _pin("d49-flags", D49, None, ["inspect", "--flags"], 0,
         "354c58b164a04f3143651effda0ab5c321b8dccdfd1d74d33ada15f63a2a4c08"),
    _pin("d4-flags", D4, None, ["inspect", "--flags"], 0),
    # the eigentable, one chain per pair
    _pin("d16-table", D16, None, ["inspect", "--table"], 0,
         "1c6ee04be7c9811ccb44fe4c134ef65b5bc126e024279fa2edc3d800cb5acc5b"),
    # the exact stages: the action table, flag independence and the eigentable read off the relations and the
    # chain of x_01 once the relations pass
    _pin("d27-verify", D27, None, ["verify"], 0, "ef7b30a9710276312ec40137217f06f961f57dbfe64c62a7d5dfa4c889f7db8c"),
    _pin("d27_inv-verify", D27_INV, None, ["verify"], 0,
         "ef7b30a9710276312ec40137217f06f961f57dbfe64c62a7d5dfa4c889f7db8c"),
    _pin("d49-verify", D49, None, ["verify"], 0, "5fe5954ccbf58defddc3188df83827f913116e12167d3afcd93782eb666f2864",
         lambda report: report["pass"] is True),
    # a tampered file: the report, failure residuals included
    _pin("d16_inv_x02-verify", D16_INV, _tamper_x02, ["verify"], 1,
         "4786ff8f5c1245a9edbd30733e8fa178ccfdbd996bd9e61f3517ad6d9aeb35a1"),
    _pin("d4_x02-verify", D4, _tamper_x02, ["verify"], 1,
         "7968b65ca78fbeaf026122c223fe8aad8e63f7d91b456515e8b97c5b2b9a3172"),
    _pin("d4_x10-verify", D4, _added({"10": F(1, 7)}), ["verify"], 1,
         "7caae852e34dce562e589cd0817df77f5485c42881195598945ff631003667f4", _x10_is_computed),
    # x_02 + E and x_20 - E still pass antisymmetry but fail the triangle relations, so the exact action table
    # reads every mirrored row through the sign
    _pin("d4_mirrored-verify", D4, _added({"02": F(1, 7), "20": F(-1, 7)}), ["verify"], 1,
         "c63d25093dfbbc9936940b03363a9c4636a9eccfb41b40f897b016146cb60145"),
    # deep: one Norton decision at the top line of x_01 settles every deep key
    _pin("d16-deep", D16, None, ["verify", "--deep"], 0,
         "ca72257af08e72ddcae1de1ee32a27c248c948b1a2ee88f8154d9fd53a2d95fe",
         lambda report: report["deep"]["pairwise_burnside"] is True),
    _pin("d81-deep", D81, None, ["verify", "--deep"], 0,
         "0f690e5a45754e41a9eb8c15b88cfa43c377ede6dbfb51005176ac0f80ca1303"),
    # Norton's spin at the top line of x_01 runs the elimination engine where coefficient growth would show,
    # as time before it shows as bytes
    _pin("d49-deep", D49, None, ["verify", "--deep"], 0,
         "c5dd50e6bca822b3bf78cb00b61d3eb6ac633174701d156200a69792414da75b", seconds=120),
    # x_02 + E fails the relations, so the deep check rebuilds the file's (x_01, x_23) through build_tetra
    _pin("d16_x02_plus_1-deep", D16, _added({"02": 1}), ["verify", "--deep"], 1,
         "f6d50becce6ff617b773a8d6b66f05bc102d12b50b52b1ade94e100f793ba91e",
         lambda report: report["deep"]["rebuild_matches"] is False),
    # an echoed spec with another parameter: the spec's module is not the file's pair
    _pin("d16_other_a-deep", D16, ECHOED_SPEC_EDITS["other_a"], ["verify", "--deep"], 1,
         "a2ac77d1c313608c1dc73440a4f5eba5dcd522491922bbe3f3c74e2bf3ff3619",
         lambda report: report["deep"]["spec_matches"] is False),
    _pin("d4_vv-deep", D4, _doubled, ["verify", "--deep"], 1, check=_plain_checks_pass_but_reducible),
    _pin("d49_vv-deep", D49, _doubled, ["verify", "--deep"], 1, check=_plain_checks_pass_but_reducible),
    # the intertwiner oracle is one spin 2 dim wide, so it decides above the closure's dim^2 bound
    _pin("d64-compare", D64, None, ["compare", "--oracle"], 0,
         check=lambda report: report["intertwiner_found"] is True, other=[(3, "1/5"), (3, "2"), (3, "3")]),
    _pin("d64_other-compare", D64, None, ["compare", "--oracle"], 1,
         check=lambda report: report["oracle_agrees"] is True, other=[(3, "2"), (3, "3"), (3, "7")]),
    # both modules are above the dimension guard: the oracle reads "skipped", the criterion decides
    _pin("d8192-compare", D8192, None, ["compare", "--oracle"], 0,
         check=lambda report: report["intertwiner_found"] == report["oracle_agrees"] == "skipped",
         other=[(n, "1/" + a) for n, a in reversed(D8192)]),
]


class TestPinnedBytes:
    """The CLI's byte contract, in process through main: a change that keeps
    the written bytes keeps every row's digest."""

    @pytest.mark.parametrize("factors, edit, command, code, digest, check, other, seconds", PINNED_BYTES)
    def test_output_bytes(self, tmp_path, capsys, factors, edit, command, code, digest, check, other, seconds):
        spec = write_json(tmp_path / "spec.json", spec_json(factors))
        built = tmp_path / "built.json"
        name, *rest = command
        if name == "build":
            argv = [name, spec, "-o", str(built)]
        elif other is not None:
            argv = [name, spec, write_json(tmp_path / "other.json", spec_json(other)), *rest]
        else:
            assert main(["build", spec, "-o", str(built)]) == 0
            data = json.loads(built.read_text())
            if edit is not None:
                edit(data)
            argv = [name, write_json(tmp_path / "edited.json", data), *rest]
        capsys.readouterr()
        start = time.monotonic()
        assert main(argv) == code
        assert seconds is None or time.monotonic() - start < seconds
        written = built.read_bytes() if name == "build" else capsys.readouterr().out.encode()
        if digest is not None:
            assert hashlib.sha256(written).hexdigest() == digest
        if check is not None:
            assert check(json.loads(written)), written


class TestDeepChecksDifferential:
    """The deep checks against a reference that builds the file's pair itself. cli imports
    build_tetra from tetra when a command runs, so spy(tetra, "build_tetra") sees every build."""

    @pytest.mark.parametrize(
        "edit, roundtrip",
        [(None, True), (_tamper_x13, True), (_module_a_is_not_x01, False), (_module_of_dim_two, False),
         (_no_module, True), (_misdeclared_d_no_spec, True)],
        ids=["clean", "x13", "module_A", "module_dim2", "no_module", "misdeclared_d_no_spec"],
    )
    def test_same_report(self, d4_build, spy, two_build_roundtrip, edit, roundtrip):
        data = copy.deepcopy(d4_build)
        if edit is not None:
            edit(data)
        t = tetra_from_json(data["tetra"])
        module = module_from_json(data["module"]) if "module" in data else None
        expected = reference_deep_checks(module, t, two_build_roundtrip)
        assert expected["roundtrip_uniqueness"] is roundtrip
        calls = spy(tetra, "build_tetra")
        # given no passing verdict of the plain checks, the deep checks take the exact route: one build
        assert cli._deep_checks(module, t, None, False) == expected
        assert calls == [OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)])]

    @pytest.mark.parametrize("edit", ECHOED_SPEC_EDITS.values(), ids=ECHOED_SPEC_EDITS)
    @pytest.mark.parametrize("build", ["d4_build", "d16_build"])
    def test_same_report_with_the_spec_folded(self, request, two_build_roundtrip, build, edit):
        # the reference folds the spec by the Kronecker route; the CLI reads the rebuild, given the verdict of
        # the plain checks and given none
        data = copy.deepcopy(request.getfixturevalue(build))
        if edit is not None:
            edit(data)
        t, spec = tetra_from_json(data["tetra"]), spec_from_json(data["spec"])
        module = module_from_json(data["module"])
        expected = reference_deep_checks(module, t, two_build_roundtrip, spec)
        relations, table, actions, independent = tetra._verify(t)
        for verified in (relations.all_passed and table.all_passed and actions.all_passed and independent, False):
            assert cli._deep_checks(module, t, spec, verified) == expected

    @pytest.mark.parametrize("edit", ECHOED_SPEC_EDITS.values(), ids=ECHOED_SPEC_EDITS)
    def test_one_flag_route_build_and_no_fold(self, d16_build, tmp_path, spy, capsys, edit):
        # a file that passes the plain checks, with a pair Norton finds irreducible, is its own
        # rebuild and runs no build; the two edits that fail a plain check run one
        data = copy.deepcopy(d16_build)
        if edit is not None:
            edit(data)
        path = write_json(tmp_path / "m.json", data)
        # the spy on tetra sees every flag-route build, cli's and any other, so one list counts them all
        calls = spy(tetra, "build_tetra")
        folds = spy(onsager, "build_tetra_from_spec")
        main(["verify", path, "--deep"])
        assert "deep" in json.loads(capsys.readouterr().out)
        t = tetra_from_json(data["tetra"])
        rebuilt = edit in (_misdeclared_d, _tamper_x02)
        assert calls == ([OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)])] if rebuilt else [])
        assert folds == []


class TestDeepReadsTheFile:
    """A file that contradicts itself fails verify --deep, with every key decided.
    Where its twelve matrices pass the plain checks, it is its own rebuild and
    no build runs."""

    @pytest.mark.parametrize("edit", [_module_a_is_not_x01, _module_of_dim_two], ids=["module_A", "module_dim2"])
    def test_module_section_other_than_the_pair_fails(self, d4_build, tmp_path, spy, capsys, edit):
        data = copy.deepcopy(d4_build)
        edit(data)
        calls = spy(tetra, "build_tetra")
        assert main(["verify", write_json(tmp_path / "m.json", data), "--deep"]) == 1
        deep = json.loads(capsys.readouterr().out)["deep"]
        assert deep == {"pass": False, "rebuild_matches": True, "roundtrip_uniqueness": False,
                        "spec_matches": True, "pairwise_burnside": True}
        assert calls == []

    @pytest.mark.parametrize("edit", [_reducible_spec, _shifted_spec], ids=["reducible", "shifted"])
    def test_echoed_spec_of_another_module_reads_false(self, d4_build, tmp_path, spy, capsys, edit):
        data = copy.deepcopy(d4_build)
        edit(data)
        calls = spy(tetra, "build_tetra")
        assert main(["verify", write_json(tmp_path / "m.json", data), "--deep"]) == 1
        deep = json.loads(capsys.readouterr().out)["deep"]
        assert deep == {"pass": False, "rebuild_matches": True, "roundtrip_uniqueness": True,
                        "spec_matches": False, "pairwise_burnside": True}
        assert calls == []

    def test_flags_not_opposite_is_the_deep_error(self, non_opposite_flags, tmp_path, capsys):
        # x_01 = A, x_23 = Astar, zero mixed pairs: the flag-route rebuild refuses the pair
        for m, text in non_opposite_flags:
            zero = Matrix.zeros(m.dim, m.dim)
            x = {pair: zero for pair in tetra.ORDERED_PAIRS}
            x.update({(0, 1): m.A, (1, 0): -m.A, (2, 3): m.Astar, (3, 2): -m.Astar})
            t = tetra.TetraModule(dim=m.dim, diameter=2, x=x)
            path = write_json(tmp_path / "t.json", {"tetra": tetra_to_json(t)})
            capsys.readouterr()
            assert main(["verify", path, "--deep"]) == 1
            assert json.loads(capsys.readouterr().out)["deep"] == {"pass": False, "error": text}

    def test_misdeclared_d_without_a_spec_fails_the_rebuild(self, d4_build, tmp_path, capsys):
        data = copy.deepcopy(d4_build)
        _misdeclared_d_no_spec(data)
        assert main(["verify", write_json(tmp_path / "m.json", data), "--deep"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert all(dims == [0, 0, 0, 0] for dims in report["eigentable"]["dims"].values())
        assert report["deep"] == {"pass": False, "rebuild_matches": False, "roundtrip_uniqueness": True,
                                  "pairwise_burnside": True}


class TestImpliedRouteDifferential:
    """tetra._verify, which reads the eigentable off x_01's chain once the
    relations pass and the action table and flag independence off the
    relations and the eigentable, and the deep checks given its verdict,
    which read the rebuild off Norton's test at the top of x_01, against the
    exact route: the four public stages, the eigentable from six chains, and
    the deep checks given no passing verdict, which run build_tetra."""

    @staticmethod
    def assert_same(t, calls, module=None, spec=None):
        """_verify against the public stages on t itself, and the deep checks
        given its verdict against those given False; on a verified t the deep
        checks run no build and no closure, and put the pair (x_01, x_23) alone
        to classify._full_algebra, so no pairwise_burnside runs: once where
        ker(x_01 - d) is a line, and not at all where it is not. Returns
        whether the relations and the eigentable passed, the flag-route builds
        of the deep checks given the verdict and their dict."""
        relations, table, actions, independent = tetra._verify(t)
        assert relations == tetra.verify_relations(t)
        assert table == tetra.eigentable(t)
        assert actions == tetra.verify_action_table(t)
        assert independent is tetra.flag_independence_check(t)
        plain = relations.all_passed and table.all_passed
        verified = plain and actions.all_passed and independent
        # the implied route first, so that its Norton verdict is its own and not the one the build keeps
        with pytest.MonkeyPatch.context() as patch:
            closures = corpus.spy(patch, classify, "_closure_dimension_exact", lambda gens, n: n)
            pairs = corpus.spy(patch, classify, "_full_algebra", lambda a, b, eigenpairs: (a, b))
            deep = cli._deep_checks(module, t, spec, verified)
        builds = list(calls)
        if verified:
            assert (builds, closures) == ([], [])
            spins = 1 if linalg.eigenspace(t.x[(0, 1)], t.diameter).dim == 1 else 0
            assert len(pairs) == spins and all(a is t.x[(0, 1)] and b is t.x[(2, 3)] for a, b in pairs)
        calls.clear()
        assert deep == cli._deep_checks(module, t, spec, False)
        assert len(calls) == 1  # the exact route builds
        return plain, builds, deep

    def test_grid_files(self, built_irreducible_grid, spy):
        calls = spy(tetra, "build_tetra")
        for spec, t in built_irreducible_grid.items():
            module = OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)])
            plain, builds, deep = self.assert_same(t, calls, module, spec)
            assert plain and builds == [] and deep["pass"] is True
            calls.clear()

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_conjugated_grid_files(self, built_irreducible_grid, spy, data):
        t = data.draw(st.sampled_from([t for t in built_irreducible_grid.values() if t.dim <= 9]))
        calls = spy(tetra, "build_tetra")
        plain, builds, deep = self.assert_same(conjugated(t, data.draw(unitriangular_matrices(t.dim))), calls)
        assert plain and builds == [] and deep["pass"] is True

    @pytest.mark.parametrize("pair", tetra.ORDERED_PAIRS, ids=lambda pair: "x%d%d" % pair)
    def test_one_tampered_generator(self, d4_build, spy, pair):
        data = copy.deepcopy(d4_build)
        _added({"%d%d" % pair: F(1, 7)})(data)
        calls = spy(tetra, "build_tetra")
        plain, builds, deep = self.assert_same(tetra_from_json(data["tetra"]), calls, module_from_json(data["module"]),
                                               spec_from_json(data["spec"]))
        assert not plain and len(builds) == 1

    @pytest.mark.parametrize(
        "build, edit",
        [("d4_build", _misdeclared_d), ("d4_build", _misdeclared_d_no_spec), ("d16_build", _misdeclared_d),
         # every chain fills V at d + 2, and only diameter_attained fails
         ("d16_build", lambda data: _misdeclared_d(data) or _misdeclared_d(data)),
         # the top eigenvalues are off the ladder at d - 2, so the exact action table has failures
         ("d4_build", _misdeclared_d_minus_2), ("d16_build", _misdeclared_d_minus_2)],
        ids=["d4_plus_1", "d4_3_no_spec", "d16_plus_1", "d16_plus_2", "d4_minus_2", "d16_minus_2"],
    )
    def test_misdeclared_d(self, request, spy, build, edit):
        data = copy.deepcopy(request.getfixturevalue(build))
        edit(data)
        spec = spec_from_json(data["spec"]) if "spec" in data else None
        calls = spy(tetra, "build_tetra")
        t = tetra_from_json(data["tetra"])
        plain, builds, deep = self.assert_same(t, calls, module_from_json(data["module"]), spec)
        assert not plain and len(builds) == 1 and deep["rebuild_matches"] is False
        if edit is _misdeclared_d_minus_2:
            assert not tetra.verify_action_table(t).all_passed

    def test_v_plus_v(self, doubled_v, spy):
        # the relations and the eigentable pass, but the top eigenspace of x_01 is a plane: the verified route
        # refuses with build_tetra's text, where build_tetra's closure finds the pair reducible
        calls = spy(tetra, "build_tetra")
        plain, builds, deep = self.assert_same(doubled_v, calls)
        assert plain and builds == []
        assert deep == REDUCIBLE

    def test_v_plus_v_below_a_lowered_guard(self, doubled_v, monkeypatch, spy):
        # with dim^2 above the guard the build route's closure refuses and its keys read "skipped";
        # the verified route needs no closure and still decides
        calls = spy(tetra, "build_tetra")
        monkeypatch.setattr(matrix, "DIM_GUARD", 16)
        monkeypatch.setattr(classify, "_closure_dimension_exact", lambda gens, n: pytest.fail("a closure ran"))
        assert cli._deep_checks(None, doubled_v, None, True) == REDUCIBLE
        assert calls == []
        deep = cli._deep_checks(None, doubled_v, None, False)
        assert len(calls) == 1 and deep["rebuild_matches"] == "skipped" and "guard" in deep["skipped"]
        assert deep["pass"] is True

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_conjugated_v_plus_v(self, doubled_v, spy, data):
        # P (V + V) P^-1 is again a verified module whose top eigenspace of x_01 is a plane
        calls = spy(tetra, "build_tetra")
        p = data.draw(unitriangular_matrices(doubled_v.dim))
        plain, builds, deep = self.assert_same(conjugated(doubled_v, p), calls)
        assert plain and builds == [] and deep == REDUCIBLE

    @pytest.mark.parametrize("factors", REDUCIBLE_FOLDS.values(), ids=REDUCIBLE_FOLDS)
    def test_reducible_folds(self, spy, factors):
        # the fold passes the plain checks, and Norton's test at the top line of x_01 finds the pair reducible
        calls = spy(tetra, "build_tetra")
        plain, builds, deep = self.assert_same(folded(factors), calls)
        assert plain and builds == [] and deep == REDUCIBLE

    @pytest.mark.parametrize("factors", REDUCIBLE_FOLDS.values(), ids=REDUCIBLE_FOLDS)
    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_conjugated_reducible_folds(self, spy, factors, data):
        t = folded(factors)
        calls = spy(tetra, "build_tetra")
        plain, builds, deep = self.assert_same(conjugated(t, data.draw(unitriangular_matrices(t.dim))), calls)
        assert plain and builds == [] and deep == REDUCIBLE

    def test_v_plus_w(self, d4_build, spy):
        # two non-isomorphic irreducible modules of one d and one dimension: every row is the sum of theirs,
        # so the top eigenspace of x_01 is a plane
        v = tetra_from_json(d4_build["tetra"])
        w = tetra.build_tetra_from_spec(ModuleSpec.of([(1, 5), (1, F(-1, 3))]))
        calls = spy(tetra, "build_tetra")
        plain, builds, deep = self.assert_same(direct_sum(v, w), calls)
        assert plain and builds == [] and deep == REDUCIBLE

    def test_v_plus_trivial(self, d4_build, spy):
        # x_01 has a top eigenline, and Norton's spin of it stops at V: the pair is reducible
        t = tetra_from_json(d4_build["tetra"])
        trivial = tetra.TetraModule(dim=1, diameter=t.diameter, x={pair: Matrix.zeros(1, 1) for pair in t.x})
        calls = spy(tetra, "build_tetra")
        plain, builds, deep = self.assert_same(direct_sum(t, trivial), calls)
        assert plain and builds == []
        assert deep == REDUCIBLE

    @pytest.mark.parametrize(
        "summands, d",
        [(("d16", "d4"), 6), (("v3", "d4"), 2), (("v3", "d4"), 3)],
        ids=["d16_plus_d4", "v3_plus_d4", "v3_plus_d4_d3"],
    )
    def test_reducible_sums(self, d4_build, d16_build, spy, summands, d):
        # the relations hold on a direct sum of modules, so the eigentable reads its six rows off x_01's chain,
        # also at a declared d that neither summand has; Norton's test at x_01's top, or the build where the
        # plain checks fail, finds the pair reducible
        built = {"d4": tetra_from_json(d4_build["tetra"]), "d16": tetra_from_json(d16_build["tetra"]),
                 "v3": tetra.build_tetra_from_spec(ModuleSpec.of([(2, 5)]))}
        t = direct_sum(*(built[name] for name in summands))
        t = tetra.TetraModule(dim=t.dim, diameter=d, x=t.x)
        calls = spy(tetra, "build_tetra")
        plain, builds, deep = self.assert_same(t, calls)
        assert plain is (d == built[summands[0]].diameter) and len(builds) == (0 if plain else 1)
        assert deep == REDUCIBLE

    def test_passing_deep_verify_computes_no_inclusion_and_builds_nothing(self, d16_build, tmp_path, monkeypatch, spy,
                                                                         capsys):
        calls = spy(tetra, "build_tetra")
        for owner, name in ((tetra, "annihilates"), (linalg, "annihilates"), (tetra, "build_tetra")):
            monkeypatch.setattr(owner, name, lambda *args, _name=name: pytest.fail(f"{_name} ran"))
        assert main(["verify", write_json(tmp_path / "m.json", d16_build), "--deep"]) == 0
        assert json.loads(capsys.readouterr().out)["deep"]["pass"] is True
        assert calls == []


class TestNonLadderGenerator:
    """A generator whose minimal polynomial is x^2 - (10^30 + 1) is refused:
    rational_roots' Newton steps find no rational root at once."""

    BIG = [["0", str(10**30 + 1)], ["1", "0"]]

    def test_inspect_flags_exits_1(self, tmp_path, capsys):
        module = module_to_json(build_from_spec(ModuleSpec.of([(1, 2)])))
        module["A"] = self.BIG
        out_path = tmp_path / "m.json"
        assert main(["build", write_json(tmp_path / "s.json", SPEC_V2), "-o", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        data["module"]["A"] = self.BIG
        for path in (write_json(tmp_path / "bare.json", module), write_json(tmp_path / "build.json", data)):
            capsys.readouterr()
            assert main(["inspect", path, "--flags"]) == 1
            assert_one_error_line(*capsys.readouterr())

    def test_verify_deep_exits_1(self, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        assert main(["build", write_json(tmp_path / "s.json", SPEC_V2), "-o", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        data["tetra"]["x"]["01"] = self.BIG
        data["tetra"]["x"]["10"] = [["0", str(-(10**30 + 1))], ["-1", "0"]]
        capsys.readouterr()
        assert main(["verify", write_json(tmp_path / "big.json", data), "--deep"]) == 1
        assert json.loads(capsys.readouterr().out)["deep"]["pass"] is False


class TestCrossProcessDeterminism:
    def test_build_and_deep_verify_bytes_ignore_the_hash_seed(self, tmp_path):
        # string hashing, and with it set and dict iteration order, changes with PYTHONHASHSEED; the bytes of the
        # build file, its deep report and its four flags must not
        spec = write_json(tmp_path / "d16.json", spec_json(D16_INV))
        outputs = []
        for seed in ("0", "1"):
            env = subprocess_env(PYTHONHASHSEED=seed)
            out = tmp_path / f"d16.{seed}.module.json"
            written = []
            for command in (["build", spec, "-o", str(out)], ["verify", "--deep", str(out)],
                            ["inspect", "--flags", str(out)]):
                proc = subprocess.run([sys.executable, "-m", "tetrabox.cli", *command], capture_output=True, env=env,
                                      timeout=300)
                assert proc.returncode == 0, proc.stderr
                written.append(proc.stdout)
            outputs.append((out.read_bytes(), *written))
        assert outputs[0] == outputs[1]


# the matrix core and not linalg: the fold runs products and Kronecker products, and no elimination
BUILD_MODULES = {"cli", "errors", "_record", "matrix", "onsager", "serialize"}


def imported_modules(*args) -> tuple[int, list[str]]:
    """The exit code of a console-script process running one command, and every
    module it holds when it exits, in import order.

    The child writes the keys of sys.modules to a file as it exits: a module
    that the package's lazy __getattr__ loads through importlib.import_module
    is in sys.modules but in no -X importtime profile. -S keeps out what the
    site hooks import, so the list is the interpreter's start-up modules and
    what the command imports. The process runs the installed `tetrabox`
    script's entry, so tetrabox.cli is imported by name (under -m it runs as
    __main__)."""
    with tempfile.TemporaryDirectory() as scratch:
        listing = Path(scratch) / "modules.txt"
        code = ("import sys\ntry:\n    from tetrabox.cli import run; run()\nfinally:\n"
                f"    open({str(listing)!r}, 'w').write('\\n'.join(sys.modules))")
        proc = subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True, text=True,
                              env=subprocess_env(), timeout=120)
        assert "Traceback" not in proc.stderr, proc.stderr
        return proc.returncode, listing.read_text().splitlines()


def tetrabox_modules(imported: list[str]) -> set[str]:
    return {name.split(".", 1)[1] for name in imported if name.startswith("tetrabox.")}


class TestImports:
    def test_build_verify_and_deep_verify_load_no_dataclasses_inspect_or_numpy(self, tmp_path):
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)
        out = str(tmp_path / "m.json")
        for args in (["build", spec, "-o", out], ["verify", out], ["verify", out, "--deep"]):
            exit_code, imported = imported_modules(*args)
            assert exit_code == 0
            loaded = {name.split(".")[0] for name in imported} & {"dataclasses", "inspect", "numpy", "typing"}
            assert not loaded, (args, loaded)

    @pytest.mark.parametrize(
        "factors, shift, code",
        [([(1, "2"), (1, "3")], "0", 0), ([(1, "2"), (1, "1/2")], "0", 1), ([(2, "3"), (1, "-1")], "0", 1),
         ([(1, "2"), (1, "3")], "1", 1)],
        ids=["build", "reducible", "minus_one", "shifted"],
    )
    def test_build_and_its_refusals_load_six_modules(self, tmp_path, factors, shift, code):
        # the spec route is onsager's; neither classify nor tetra nor flags is compiled, nor the elimination engine
        spec = write_json(tmp_path / "s.json", spec_json(factors, shift))
        out = tmp_path / "m.json"
        exit_code, imported = imported_modules("build", spec, "-o", str(out))
        assert exit_code == code and out.exists() is (code == 0)
        assert tetrabox_modules(imported) == BUILD_MODULES
        assert "tetrabox.linalg" not in imported

    @pytest.mark.parametrize("factors", [[(1, "2"), (1, "3")], [(1, "2"), (1, "1/2")]], ids=["irreducible", "reducible"])
    def test_classify_loads_the_build_modules(self, tmp_path, factors):
        # the criterion, the key and the guard read the spec alone: nothing is built or eliminated
        spec = write_json(tmp_path / "s.json", spec_json(factors, None))
        exit_code, imported = imported_modules("classify", spec)
        assert exit_code == 0 and tetrabox_modules(imported) == BUILD_MODULES
        assert "tetrabox.linalg" not in imported

    @pytest.mark.parametrize("deep, extra", [([], {"tetra", "linalg"}), (["--deep"], {"tetra", "linalg", "classify"})],
                             ids=["verify", "deep"])
    def test_verify_loads_tetra_and_deep_verify_classify(self, built_v2, deep, extra):
        # the relations and the eigentable are tetra's, on linalg's eigenspaces; Norton's test in the deep checks
        # is classify's
        exit_code, imported = imported_modules("verify", str(built_v2), *deep)
        loaded = tetrabox_modules(imported)
        assert exit_code == 0 and loaded == BUILD_MODULES | extra
        assert not loaded & {"flags", "tridiagonal"}

    def test_burnside_on_an_irreducible_build_does_not_load_numpy(self):
        # Norton's spin decides, and no module of the package imports numpy
        code = ("import sys; from tetrabox import ModuleSpec, build_from_spec, is_irreducible_burnside; "
                "assert is_irreducible_burnside(build_from_spec(ModuleSpec.of([(3, 2), (3, 3)]))); "
                "print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env(),
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestClosedStdout:
    @pytest.mark.parametrize("command", [["verify"], ["inspect", "--table"]], ids=["verify", "inspect"])
    def test_no_traceback_and_not_a_failed_check(self, built_v2, command):
        # the reader is gone before the report is written, as in `tetrabox verify m.json | true`: nothing
        # reaches stderr, a traceback least of all
        with subprocess.Popen([sys.executable, "-m", "tetrabox.cli", *command, str(built_v2)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env()) as proc:
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert proc.returncode != 1
        assert err == ""


class TestLongIntegers:
    @pytest.mark.parametrize("literal", ["7" * 4000, "1/" + "7" * 4000], ids=["numerator", "denominator"])
    @pytest.mark.parametrize("deep", [[], ["--deep"]], ids=["verify", "deep"])
    def test_a_residual_past_python_s_digit_limit_is_reported(self, tmp_path, literal, deep):
        # the residual of a 4000-digit entry has about 8000 digits, past the default 4300 of str(int)
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)
        out = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        data["tetra"]["x"]["02"][0][1] = literal
        tampered = write_json(tmp_path / "tampered.json", data)
        proc = subprocess.run([sys.executable, "-m", "tetrabox.cli", "verify", *deep, tampered],
                              capture_output=True, text=True, env=subprocess_env(), timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert json.loads(proc.stdout)["pass"] is False

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string digit limit")
    def test_main_leaves_the_digit_limit_as_it_found_it(self, tmp_path, capsys):
        # main lifts the limit while it runs and puts the caller's back, on a report, a failed check and an
        # argparse exit alike; the residual of a 4000-digit entry is still written in full
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            spec = write_json(tmp_path / "s.json", SPEC_V2_V3)
            assert main(["classify", spec]) == 0
            assert sys.get_int_max_str_digits() == 4300
            out = tmp_path / "m.json"
            assert main(["build", spec, "-o", str(out)]) == 0
            data = json.loads(out.read_text())
            data["tetra"]["x"]["02"][0][1] = "7" * 4000
            tampered = write_json(tmp_path / "tampered.json", data)
            capsys.readouterr()
            assert main(["verify", tampered]) == 1
            assert json.loads(capsys.readouterr().out)["pass"] is False
            assert sys.get_int_max_str_digits() == 4300
            with pytest.raises(SystemExit):
                main(["no-such-command"])
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(old)

    def test_deep_closure_on_long_entries_is_decided_by_the_certificate(self, tmp_path):
        # the certificate is Norton's test: two 4000-digit entries leave x_02 no eigenline, so Norton's test
        # decides (x_02, x_13) at the top line of x_13, where the exact closure alone runs for more than a minute;
        # a spy in the child process reports every exact closure on stderr (hand-written: the child imports no
        # test kit)
        spec = write_json(tmp_path / "s.json", spec_json([(2, "2"), (1, "3")]))
        out = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        data["tetra"]["x"]["02"][0][1] = data["tetra"]["x"]["02"][1][0] = "7" * 4000
        tampered = write_json(tmp_path / "tampered.json", data)
        spy = ("import sys; from tetrabox import classify; from tetrabox.cli import run; "
               "real = classify._closure_dimension_exact; "
               "classify._closure_dimension_exact = lambda gens, n: print('exact closure', n, file=sys.stderr) "
               "or real(gens, n); run()")
        proc = subprocess.run([sys.executable, "-c", spy, "verify", "--deep", tampered],
                              capture_output=True, text=True, env=subprocess_env(), timeout=30)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "exact closure" not in proc.stderr, proc.stderr
        assert json.loads(proc.stdout)["deep"]["pairwise_burnside"] is True


class TestLiteralGuard:
    """One rational literal longer than serialize.LITERAL_GUARD characters is
    malformed input: exit 2 with one error line, before any digit is converted."""

    @pytest.mark.parametrize("deep", [[], ["--deep"]], ids=["verify", "deep"])
    def test_a_long_entry_exits_2_at_once(self, tmp_path, capsys, deep):
        # one 400 000-digit entry kept a d4 verify in the matrix arithmetic for minutes
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)
        out = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        data["tetra"]["x"]["02"][0][1] = "7" * 400_000
        tampered = write_json(tmp_path / "tampered.json", data)
        capsys.readouterr()
        start = time.monotonic()
        assert main(["verify", *deep, tampered]) == 2
        assert time.monotonic() - start < 10
        out, err = capsys.readouterr()
        assert_one_error_line(out, err)
        assert err.endswith(": rational literal of 400000 characters exceeds the literal guard 10000\n")

    @pytest.mark.parametrize("command", ["build", "classify", "compare"])
    def test_a_long_parameter_exits_2(self, tmp_path, capsys, command):
        spec = write_json(tmp_path / "s.json", spec_json([(1, "1/" + "7" * LITERAL_GUARD)], None))
        extra = {"build": ["-o", str(tmp_path / "out.json")], "classify": [],
                 "compare": [write_json(tmp_path / "v2.json", SPEC_V2)]}[command]
        assert main([command, spec, *extra]) == 2
        assert_one_error_line(*capsys.readouterr())
        assert not (tmp_path / "out.json").exists()

    @staticmethod
    def build_long_parameters(tmp_path, digits: int) -> tuple[subprocess.CompletedProcess, Path]:
        # a child process, whose entry point lifts Python's limit on the digits of an int-string conversion
        spec = write_json(tmp_path / "s.json", spec_json([(1, "7" * digits), (1, "3" * digits)]))
        out = tmp_path / "out.json"
        proc = subprocess.run([sys.executable, "-m", "tetrabox.cli", "build", spec, "-o", str(out)],
                              capture_output=True, text=True, env=subprocess_env(), timeout=120)
        return proc, out

    def test_a_build_that_would_write_a_long_literal_exits_1(self, tmp_path):
        # each parameter is read within the guard, but the generators of (1, a)(1, b) hold a literal of
        # 4 digits + 1 characters: the file would be one that verify refuses, so none is written
        proc, out = self.build_long_parameters(tmp_path, 3000)
        assert proc.returncode == 1, proc.stderr
        assert_one_error_line(proc.stdout, proc.stderr)
        assert proc.stderr.endswith(": the build has a rational literal of 12001 characters, "
                                    "above the literal guard 10000 that verify reads\n")
        assert not out.exists()

    def test_a_build_at_the_guard_is_written_and_verified(self, tmp_path):
        proc, out = self.build_long_parameters(tmp_path, 2499)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert max(len(x) for rows in data["tetra"]["x"].values() for row in rows for x in row) == 9997
        proc = subprocess.run([sys.executable, "-m", "tetrabox.cli", "verify", str(out)],
                              capture_output=True, text=True, env=subprocess_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_an_in_process_build_at_the_guard_is_written_and_verified(self, tmp_path, capsys):
        # main lifts Python's limit on int-string conversions itself, so a caller in process gets what the
        # console script gets; the limit is put back to its default first, whatever an earlier call left
        if hasattr(sys, "set_int_max_str_digits"):
            old = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(4300)
        try:
            spec = write_json(tmp_path / "s.json", spec_json([(1, "7" * 2499), (1, "3" * 2499)]))
            out = tmp_path / "out.json"
            assert main(["build", spec, "-o", str(out)]) == 0
            assert main(["verify", str(out)]) == 0
            assert json.loads(capsys.readouterr().out)["pass"] is True
        finally:
            if hasattr(sys, "set_int_max_str_digits"):
                sys.set_int_max_str_digits(old)

    def test_an_entry_at_the_guard_is_read(self, tmp_path):
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)
        out = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        data["tetra"]["x"]["02"][0][1] = "1/" + "7" * (LITERAL_GUARD - 2)
        tampered = write_json(tmp_path / "tampered.json", data)
        proc = subprocess.run([sys.executable, "-m", "tetrabox.cli", "verify", tampered],
                              capture_output=True, text=True, env=subprocess_env(), timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["pass"] is False


def assert_one_error_line(out: str, err: str) -> None:
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestWrongTypes:
    """A value of the wrong JSON type exits 2 with one error line."""

    @pytest.mark.parametrize("command", ["build", "classify", "compare"])
    def test_factors_not_a_list(self, tmp_path, capsys, command):
        spec = write_json(tmp_path / "s.json", {"factors": 5})
        extra = {"build": ["-o", str(tmp_path / "out.json")], "classify": [],
                 "compare": [write_json(tmp_path / "v2.json", SPEC_V2)]}[command]
        assert main([command, spec, *extra]) == 2
        assert_one_error_line(*capsys.readouterr())

    def test_generator_table_not_an_object(self, built_v2, tmp_path, capsys):
        data = json.loads(built_v2.read_text())
        data["tetra"]["x"] = []
        assert main(["verify", write_json(tmp_path / "m.json", data)]) == 2
        assert_one_error_line(*capsys.readouterr())

    def test_top_level_not_an_object(self, tmp_path, capsys):
        assert main(["inspect", write_json(tmp_path / "seven.json", 7), "--flags"]) == 2
        assert_one_error_line(*capsys.readouterr())


class TestDeeplyNestedJson:
    """JSON nested too deep to decode is unreadable input, not a crash."""

    @pytest.mark.parametrize("command", [["build"], ["verify"], ["classify"], ["compare"], ["inspect", "--table"]])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, command):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100000)
        extra = {"build": ["-o", str(tmp_path / "out.json")],
                 "compare": [write_json(tmp_path / "v2.json", SPEC_V2)]}.get(command[0], [])
        assert main([command[0], str(nested), *command[1:], *extra]) == 2
        out, err = capsys.readouterr()
        assert_one_error_line(out, err)
        assert "Traceback" not in err


OPTIONAL_KEYS = {"shift", "dim", "diameter", "type"}
VALID_RATIONALS = ("0", "1", "-1", "2", "-3/2", "7/5")
INVALID_RATIONALS = ("1.5", "1/0", "", "+3", "x", "2/-3")
OTHER_KINDS = (None, True, 1.5, 7, "x", [], {})
# each command with the sections of a build file it reads (None: a spec file)
FUZZ_COMMANDS = (
    (["build"], None), (["classify"], None), (["compare"], None),
    (["verify"], ("tetra",)), (["verify", "--deep"], ("tetra", "module", "spec")),
    (["inspect", "--table"], ("tetra",)), (["inspect", "--flags"], ("module",)),
)


def _kind(value):
    return bool if isinstance(value, bool) else type(value)


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(data, doc, sections):
    """One random edit of doc: returns the edited document and whether it
    breaks the file schema (a missing required key, a wrong type, a ragged
    row or a malformed rational literal)."""
    # below the root, and only in the sections the command reads, below theirs
    nodes = [(p, n) for p, n in _nodes(doc) if p and (sections is None or (len(p) > 1 and p[0] in sections))]
    rows = [(p, n) for p, n in nodes if isinstance(p[-1], int) and isinstance(n, list)]
    kind = data.draw(st.sampled_from(["remove", "retype", "rational"] + (["ragged"] if rows else [])))
    if kind == "remove":
        path, _ = data.draw(st.sampled_from(nodes))
        # dropping one factor of a spec leaves a valid spec
        violates = path[-1] not in OPTIONAL_KEYS and path[-2:-1] != ("factors",)
    elif kind == "retype":
        path, node = data.draw(st.sampled_from([((), doc), *nodes]))
        value = data.draw(st.sampled_from([v for v in OTHER_KINDS if _kind(v) != _kind(node)]))
        violates = True
    elif kind == "ragged":
        path, row = data.draw(st.sampled_from(rows))
        value = data.draw(st.sampled_from([row[:-1], row + ["0"]]))
        violates = True
    else:
        path, _ = data.draw(st.sampled_from([(p, n) for p, n in nodes if isinstance(n, str)]))
        value = data.draw(st.sampled_from(VALID_RATIONALS + INVALID_RATIONALS))
        violates = value in INVALID_RATIONALS
    if not path:
        return value, violates
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "remove":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc, violates


class TestFuzz:
    """Mutated d4 spec and build files never escape with an exception."""

    @pytest.fixture(scope="class")
    def d4_files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        spec = write_json(root / "d4.json", SPEC_V2_V3)
        out = root / "d4.module.json"
        assert main(["build", spec, "-o", str(out)]) == 0
        return spec, json.loads(out.read_text())

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_exit_code_contract(self, d4_files, data):
        spec_path, built = d4_files
        argv, sections = data.draw(st.sampled_from(FUZZ_COMMANDS))
        doc, violates = _mutate(data, SPEC_V2_V3 if sections is None else built, sections)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(Path(tmp) / "input.json", doc)
            extra = {"build": ["-o", str(Path(tmp) / "out.json")], "compare": [spec_path]}.get(argv[0], [])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([argv[0], path, *argv[1:], *extra])
        assert code in (0, 1, 2)
        if violates:
            assert code == 2, (argv, doc)
        if code == 2:
            assert_one_error_line(out.getvalue(), err.getvalue())
