import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tetrabox
from tetrabox.cli import main

SPEC_V2 = {"factors": [{"n": 1, "a": "2"}], "shift": ["0", "0"]}
SPEC_V2_V3 = {"factors": [{"n": 1, "a": "2"}, {"n": 1, "a": "3"}], "shift": ["0", "0"]}
SPEC_REDUCIBLE = {"factors": [{"n": 1, "a": "1"}], "shift": ["0", "0"]}
SPEC_TRIVIAL = {"factors": [{"n": 0, "a": "1"}], "shift": ["0", "0"]}


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
        assert "reducible" in capsys.readouterr().err

    def test_shifted_spec_rejected(self, tmp_path, capsys):
        spec = write_json(tmp_path / "shifted.json", {"factors": [{"n": 1, "a": "2"}], "shift": ["3", "0"]})
        assert main(["build", spec, "-o", str(tmp_path / "out.json")]) == 1
        assert "type shift" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["build", str(bad), "-o", str(tmp_path / "out.json")]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["build", str(tmp_path / "nope.json"), "-o", str(tmp_path / "out.json")]) == 2

    def test_invalid_spec_values(self, tmp_path):
        spec = write_json(tmp_path / "zero.json", {"factors": [{"n": 1, "a": "0"}]})
        assert main(["build", spec, "-o", str(tmp_path / "out.json")]) == 2

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
        assert report["deep"]["pairwise_burnside"] is True

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
        [("module", "Astar", None), ("module", "dim", "4"), ("tetra", "d", "x")],
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

    def test_requires_exactly_one_mode(self, built_v2):
        with pytest.raises(SystemExit):
            main(["inspect", str(built_v2)])

    def test_parse_error(self, tmp_path):
        assert main(["inspect", str(tmp_path / "missing.json"), "--table"]) == 2


class TestGuardOverride:
    def test_env_var_limits_build(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TETRABOX_DIM_GUARD", "3")
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)  # dim 4 module
        assert main(["build", spec, "-o", str(tmp_path / "out.json")]) == 1
        assert "guard" in capsys.readouterr().err

    def test_non_integer_env_var_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TETRABOX_DIM_GUARD", "abc")
        spec = write_json(tmp_path / "s.json", SPEC_V2)
        assert main(["build", spec, "-o", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err == "error: TETRABOX_DIM_GUARD must be an integer, got 'abc'\n"


class TestImports:
    def test_build_and_verify_do_not_load_numpy(self, tmp_path):
        # -X importtime lists every module the process imports on stderr
        src = str(Path(tetrabox.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        spec = write_json(tmp_path / "s.json", SPEC_V2_V3)
        out = str(tmp_path / "m.json")
        for args in (["build", spec, "-o", out], ["verify", out]):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "tetrabox.cli", *args],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
            assert "tetrabox.classify" in imported
            assert not any(name.split(".")[0] == "numpy" for name in imported), args
