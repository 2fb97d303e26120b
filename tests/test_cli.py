import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tetrabox
from tetrabox import Matrix, classify, cli, linalg, tetra
from tetrabox.classify import find_intertwiner
from tetrabox.cli import main
from tetrabox.errors import DimensionGuardError, TetraboxError
from tetrabox.onsager import ModuleSpec, OnsagerModule, build_from_spec, module_type
from tetrabox.tetra import build_tetra
from tetrabox.serialize import module_from_json, module_to_json, spec_from_json, tetra_from_json, tetra_to_json

SPEC_V2 = {"factors": [{"n": 1, "a": "2"}], "shift": ["0", "0"]}
SPEC_V2_V3 = {"factors": [{"n": 1, "a": "2"}, {"n": 1, "a": "3"}], "shift": ["0", "0"]}
SPEC_REDUCIBLE = {"factors": [{"n": 1, "a": "1"}], "shift": ["0", "0"]}
SPEC_TRIVIAL = {"factors": [{"n": 0, "a": "1"}], "shift": ["0", "0"]}


def subprocess_env(**extra) -> dict:
    """The environment of a child python that imports this tetrabox."""
    src = str(Path(tetrabox.__file__).resolve().parent.parent)
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


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
        spec = write_json(tmp_path / "shifted.json", {"factors": [{"n": 1, "a": "2"}], "shift": ["3", "0"]})
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
        spec = write_json(tmp_path / "zero.json", {"factors": [{"n": 1, "a": "0"}]})
        assert main(["build", spec, "-o", str(tmp_path / "out.json")]) == 2

    @pytest.mark.parametrize(
        "factors, digest",
        [
            ([(1, "2"), (1, "3")], "b7a65d0933d32bdd3f32ceafea93b91547351eb574c5f3e62d9ddd155cc3a7ce"),
            ([(3, "2"), (3, "-1/3")], "ce1a1010f339cb0ed85d8ed89722461b0a38d804c65610e2d2f8f982058c7f96"),
            ([(2, "2"), (2, "-1/3"), (2, "5")], "056f895e357a00e6c816875523d489473c9a527bd96402210e220bf935f91493"),
        ],
        ids=["d4", "d16", "d27"],
    )
    def test_output_bytes_are_pinned(self, tmp_path, factors, digest):
        # the bytes the flag route writes; the Kronecker route must reproduce them
        spec = write_json(tmp_path / "s.json", {"factors": [{"n": n, "a": a} for n, a in factors], "shift": ["0", "0"]})
        out = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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
        spec = write_json(tmp_path / "s.json", {"factors": [{"n": n, "a": a} for n, a in factors],
                                                "shift": [shift, "0"]})
        assert main(["build", spec, "-o", str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr() == ("", f"error: {line}\n")
        assert not (tmp_path / "out.json").exists()

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

        monkeypatch.setattr(cli, "build_tetra_from_spec", refuse)
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
         ("module", "diameter", "1"), ("module", "type", ["0"]), ("module", "type", ["x", "0"])],
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

    def test_guard_refusal_is_skipped_not_failed(self, doubled_v, tmp_path, monkeypatch, capsys):
        # V + V above the guard: the spin cannot decide it and the closure refuses
        module = OnsagerModule(8, doubled_v.x[(0, 1)], doubled_v.x[(2, 3)])
        path = write_json(tmp_path / "vv.json", {"module": module_to_json(module), "tetra": tetra_to_json(doubled_v)})
        monkeypatch.setattr(linalg, "DIM_GUARD", 16)
        assert main(["verify", path, "--deep"]) == 0
        deep = json.loads(capsys.readouterr().out)["deep"]
        assert deep["pass"] is True
        assert deep["pairwise_burnside"] == "skipped"
        assert deep["rebuild_matches"] == "skipped"
        assert "guard" in deep["skipped"] and "\n" not in deep["skipped"]

    @pytest.mark.parametrize(
        "factors, tampered, code, digest",
        [
            ([(2, "2"), (2, "-1/3"), (2, "5")], False, 0,
             "ef7b30a9710276312ec40137217f06f961f57dbfe64c62a7d5dfa4c889f7db8c"),
            ([(3, "2"), (3, "-1/3")], True, 1,
             "4786ff8f5c1245a9edbd30733e8fa178ccfdbd996bd9e61f3517ad6d9aeb35a1"),
        ],
        ids=["d27", "d16-tampered"],
    )
    def test_output_bytes_are_pinned(self, tmp_path, capsys, factors, tampered, code, digest):
        # the report the Fraction-matrix relations wrote, failure residuals included
        spec = write_json(tmp_path / "s.json", {"factors": [{"n": n, "a": a} for n, a in factors], "shift": ["0", "0"]})
        out = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out)]) == 0
        if tampered:
            data = json.loads(out.read_text())
            x02 = data["tetra"]["x"]["02"]
            x02[0][1] = str(F(x02[0][1]) + F(1, 7))
            write_json(out, data)
        capsys.readouterr()
        assert main(["verify", str(out)]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_unattained_diameter_fails(self, tmp_path, monkeypatch, capsys):
        # (3,2)(3,3) has d = 6; a declared 8 only adds zero eigenspaces at both ends
        spec = write_json(tmp_path / "s.json", {"factors": [{"n": 3, "a": "2"}, {"n": 3, "a": "3"}],
                                                "shift": ["0", "0"]})
        out = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        data["tetra"]["d"] = 8
        path = write_json(tmp_path / "d8.json", data)
        # pairwise_burnside asks Norton at the first line of each chain, at 6, so no closure runs
        monkeypatch.setattr(classify, "generated_algebra_dimension", lambda a, b: pytest.fail("a closure ran"))
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
        spec = write_json(
            tmp_path / "s.json",
            {"factors": [{"n": 1, "a": "2"}, {"n": 2, "a": "1/2"}], "shift": ["0", "0"]},
        )
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
        monkeypatch.setattr(cli, "build_from_spec", lambda s: calls.append(s))
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
        code = self.run(tmp_path, SPEC_V2, {"factors": [{"n": 1, "a": "1/2"}]}, "--oracle")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out == {"isomorphic": True, "intertwiner_found": True, "oracle_agrees": True}

    def test_distinct_parameters_not_isomorphic(self, tmp_path, capsys):
        code = self.run(tmp_path, SPEC_V2, {"factors": [{"n": 1, "a": "3"}]}, "--oracle")
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out == {"isomorphic": False, "intertwiner_found": False, "oracle_agrees": True}

    def test_dimension_mismatch(self, tmp_path, capsys):
        assert self.run(tmp_path, SPEC_V2, {"factors": [{"n": 2, "a": "2"}]}) == 1
        assert json.loads(capsys.readouterr().out) == {"isomorphic": False}

    def test_reducible_input(self, tmp_path, capsys):
        assert self.run(tmp_path, SPEC_V2, SPEC_REDUCIBLE) == 2
        assert "reducible" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "other,code",
        [
            ({"factors": [{"n": 1, "a": "1/3"}, {"n": 1, "a": "1/2"}]}, 0),
            ({"factors": [{"n": 1, "a": "5"}, {"n": 1, "a": "2"}]}, 1),
        ],
        ids=["isomorphic", "not_isomorphic"],
    )
    def test_oracle_decides_under_a_low_guard(self, tmp_path, monkeypatch, capsys, other, code):
        # the oracle is a spin 2 dim wide: a d4 decides at guard 16, where its dim^2 is at the guard
        monkeypatch.setattr(linalg, "DIM_GUARD", 16)
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
        monkeypatch.setattr(linalg, "DIM_GUARD", 8)
        d16 = {"factors": [{"n": 1, "a": a} for a in ("2", "3", "5", "7")], "shift": ["0", "0"]}
        other = {"factors": [{"n": 1, "a": a} for a in ("7", "1/5", "1/3", "2")], "shift": ["0", "0"]}
        assert self.run(tmp_path, d16, other, "--oracle") == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "isomorphic": True,
            "intertwiner_found": "skipped",
            "oracle_agrees": "skipped",
            "skipped": "module dimension 16 exceeds the dimension guard 8",
        }
        assert captured.err == ""

    def test_oracle_reads_the_top_off_the_spec(self, tmp_path, monkeypatch, capsys):
        # d + alpha is the spec's degree sum: no minimal polynomial, no elimination wider than the spin
        calls, widths = [], []
        for module in (linalg, tetrabox.classify):
            real = module.minimal_polynomial
            monkeypatch.setattr(module, "minimal_polynomial", lambda m, real=real: calls.append(m) or real(m))

        class Spy(linalg._Echelon):
            def __init__(self, n):
                widths.append(n)
                super().__init__(n)

        monkeypatch.setattr(linalg, "_Echelon", Spy)
        monkeypatch.setattr(tetrabox.classify, "_Echelon", Spy)
        d16 = {"factors": [{"n": 3, "a": "2"}, {"n": 3, "a": "3"}], "shift": ["0", "0"]}
        for other, code in (({"factors": [{"n": 3, "a": "1/3"}, {"n": 3, "a": "2"}]}, 0),
                            ({"factors": [{"n": 3, "a": "2"}, {"n": 3, "a": "5"}]}, 1)):
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
        monkeypatch.setattr(linalg, "DIM_GUARD", 3)
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)  # dim 4 module
        assert main(["build", spec, "-o", str(tmp_path / "out.json")]) == 1
        assert "guard" in capsys.readouterr().err

    def test_oversized_spec_refused_by_classify(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(linalg, "DIM_GUARD", 8)
        spec = write_json(tmp_path / "s.json", {"factors": [{"n": 1, "a": "2"}] * 4, "shift": ["0", "0"]})
        assert main(["classify", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: module dimension 16 exceeds the dimension guard 8\n"


def reference_deep_checks(module, t, two_build_roundtrip):
    """The deep checks of a file without a spec, from their definitions: the
    file's pair (x_01, x_23) rebuilt, the module section compared with that
    pair matrix by matrix, and the pair's two-build round trip."""
    out = {"pass": True}
    try:
        standard = OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)])
        out["rebuild_matches"] = build_tetra(standard).x == t.x
        is_pair = module is None or (module.dim, module.A, module.Astar) == (t.dim, t.x[(0, 1)], t.x[(2, 3)])
        out["roundtrip_uniqueness"] = is_pair and two_build_roundtrip(standard)
        try:
            out["pairwise_burnside"] = tetra.pairwise_burnside(t)
        except DimensionGuardError as exc:
            out["pairwise_burnside"] = "skipped"
            out["skipped"] = str(exc)
        out["pass"] = all((out["rebuild_matches"], out["roundtrip_uniqueness"],
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


def _reducible_spec(data):
    data["spec"] = {"factors": [{"n": 1, "a": "2"}, {"n": 1, "a": "1/2"}], "shift": ["0", "0"]}


def _shifted_spec(data):
    data["spec"]["shift"] = ["1", "0"]


@pytest.fixture(scope="module")
def d4_build(tmp_path_factory):
    root = tmp_path_factory.mktemp("deep")
    out = root / "d4.module.json"
    assert main(["build", write_json(root / "d4.json", SPEC_V2_V3), "-o", str(out)]) == 0
    return json.loads(out.read_text())


def spy_flag_route_builds(monkeypatch):
    """The modules cli hands to the flag-route build_tetra, in call order."""
    calls = []
    real = cli.build_tetra
    monkeypatch.setattr(cli, "build_tetra", lambda m: calls.append(m) or real(m))
    return calls


class TestDeepChecksDifferential:
    """The deep checks against a reference that builds the file's pair itself."""

    @pytest.mark.parametrize(
        "edit, roundtrip",
        [(None, True), (_tamper_x13, True), (_module_a_is_not_x01, False), (_module_of_dim_two, False),
         (_no_module, True)],
        ids=["clean", "x13", "module_A", "module_dim2", "no_module"],
    )
    def test_same_report(self, d4_build, monkeypatch, two_build_roundtrip, edit, roundtrip):
        data = copy.deepcopy(d4_build)
        if edit is not None:
            edit(data)
        t = tetra_from_json(data["tetra"])
        module = module_from_json(data["module"]) if "module" in data else None
        expected = reference_deep_checks(module, t, two_build_roundtrip)
        assert expected["roundtrip_uniqueness"] is roundtrip
        calls = spy_flag_route_builds(monkeypatch)
        assert cli._deep_checks(module, t, None) == expected
        assert calls == [OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)])]


class TestDeepReadsTheFile:
    """A file that contradicts itself fails verify --deep, with every key decided."""

    @pytest.mark.parametrize("edit", [_module_a_is_not_x01, _module_of_dim_two], ids=["module_A", "module_dim2"])
    def test_module_section_other_than_the_pair_fails(self, d4_build, tmp_path, monkeypatch, capsys, edit):
        data = copy.deepcopy(d4_build)
        edit(data)
        calls = spy_flag_route_builds(monkeypatch)
        assert main(["verify", write_json(tmp_path / "m.json", data), "--deep"]) == 1
        deep = json.loads(capsys.readouterr().out)["deep"]
        assert deep == {"pass": False, "rebuild_matches": True, "roundtrip_uniqueness": False,
                        "spec_matches": True, "pairwise_burnside": True}
        assert [m.dim for m in calls] == [4]

    @pytest.mark.parametrize("edit", [_reducible_spec, _shifted_spec], ids=["reducible", "shifted"])
    def test_echoed_spec_of_another_module_reads_false(self, d4_build, tmp_path, monkeypatch, capsys, edit):
        data = copy.deepcopy(d4_build)
        edit(data)
        calls = spy_flag_route_builds(monkeypatch)
        assert main(["verify", write_json(tmp_path / "m.json", data), "--deep"]) == 1
        deep = json.loads(capsys.readouterr().out)["deep"]
        assert deep == {"pass": False, "rebuild_matches": True, "roundtrip_uniqueness": True,
                        "spec_matches": False, "pairwise_burnside": True}
        assert [m.dim for m in calls] == [4]


class TestNonLadderGenerator:
    """A generator whose minimal polynomial is x^2 - (10^30 + 1) is refused by
    the ladder test, with no search over the divisors of 10^30 + 1."""

    BIG = [["0", str(10**30 + 1)], ["1", "0"]]

    @pytest.fixture
    def no_divisor_search(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "rational_roots", lambda poly: calls.append(poly) or None)
        return calls

    def test_inspect_flags_exits_1(self, tmp_path, capsys, no_divisor_search):
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
        assert no_divisor_search == []

    def test_verify_deep_exits_1(self, tmp_path, capsys, no_divisor_search):
        out_path = tmp_path / "m.json"
        assert main(["build", write_json(tmp_path / "s.json", SPEC_V2), "-o", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        data["tetra"]["x"]["01"] = self.BIG
        data["tetra"]["x"]["10"] = [["0", str(-(10**30 + 1))], ["-1", "0"]]
        capsys.readouterr()
        assert main(["verify", write_json(tmp_path / "big.json", data), "--deep"]) == 1
        assert json.loads(capsys.readouterr().out)["deep"]["pass"] is False
        assert no_divisor_search == []


class TestCrossProcessDeterminism:
    def test_build_and_deep_verify_bytes_ignore_the_hash_seed(self, tmp_path):
        # string hashing, and with it set and dict iteration order, changes
        # with PYTHONHASHSEED; the output bytes must not
        spec = write_json(tmp_path / "d16.json", {"factors": [{"n": 3, "a": "2"}, {"n": 3, "a": "-1/3"}],
                                                  "shift": ["0", "0"]})
        outputs = []
        for seed in ("0", "1"):
            env = subprocess_env(PYTHONHASHSEED=seed)
            out = tmp_path / f"d16.{seed}.module.json"
            build = subprocess.run([sys.executable, "-m", "tetrabox.cli", "build", spec, "-o", str(out)],
                                   capture_output=True, env=env, timeout=300)
            assert build.returncode == 0, build.stderr
            verify = subprocess.run([sys.executable, "-m", "tetrabox.cli", "verify", "--deep", str(out)],
                                    capture_output=True, env=env, timeout=300)
            assert verify.returncode == 0, verify.stderr
            outputs.append((out.read_bytes(), verify.stdout))
        assert outputs[0] == outputs[1]


class TestImports:
    def test_build_verify_and_deep_verify_load_no_dataclasses_inspect_or_numpy(self, tmp_path):
        # -X importtime lists every module the process imports on stderr; -S
        # keeps out what the site hooks import, so the list is tetrabox's own
        env = subprocess_env()
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)
        out = str(tmp_path / "m.json")
        for args in (["build", spec, "-o", out], ["verify", out], ["verify", out, "--deep"]):
            proc = subprocess.run(
                [sys.executable, "-S", "-X", "importtime", "-m", "tetrabox.cli", *args],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
            assert "tetrabox.classify" in imported
            loaded = {name.split(".")[0] for name in imported} & {"dataclasses", "inspect", "numpy", "typing"}
            assert not loaded, (args, loaded)

    def test_burnside_on_an_irreducible_build_does_not_load_numpy(self):
        # Norton's spin decides; the mod-p certificate, and numpy with it, never runs
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
        # the reader is gone before the report is written, as in `tetrabox verify m.json | true`
        with subprocess.Popen([sys.executable, "-m", "tetrabox.cli", *command, str(built_v2)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env()) as proc:
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert proc.returncode != 1
        assert "Traceback" not in err and "BrokenPipe" not in err, err


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

    def test_deep_closure_on_long_entries_is_decided_by_the_certificate(self, tmp_path):
        # two 4000-digit entries leave x_02 no eigenline, so the Burnside closure decides (x_02, x_13):
        # the mod-p certificate in milliseconds, where the exact closure alone runs for more than a minute
        spec = write_json(tmp_path / "s.json", {"factors": [{"n": 2, "a": "2"}, {"n": 1, "a": "3"}],
                                                "shift": ["0", "0"]})
        out = tmp_path / "m.json"
        assert main(["build", spec, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        data["tetra"]["x"]["02"][0][1] = data["tetra"]["x"]["02"][1][0] = "7" * 4000
        tampered = write_json(tmp_path / "tampered.json", data)
        proc = subprocess.run([sys.executable, "-m", "tetrabox.cli", "verify", "--deep", tampered],
                              capture_output=True, text=True, env=subprocess_env(), timeout=30)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert json.loads(proc.stdout)["deep"]["pairwise_burnside"] is True


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
