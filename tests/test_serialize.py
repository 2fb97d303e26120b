from fractions import Fraction as F

import pytest

from tetrabox import Matrix, ModuleSpec, build_from_spec, build_tetra, evaluation_module
from tetrabox.serialize import (
    fraction_from_str,
    matrix_from_json,
    matrix_to_json,
    module_from_json,
    module_to_json,
    spec_from_json,
    spec_to_json,
    tetra_from_json,
    tetra_to_json,
)


class TestFractionStrings:
    @pytest.mark.parametrize("value,text", [(F(2), "2"), (F(-1, 2), "-1/2"), (F(0), "0"), (F(7, 3), "7/3")])
    def test_to_str(self, value, text):
        assert matrix_to_json(Matrix.from_rows([[value]])) == [[text]]

    @pytest.mark.parametrize("text,value", [("2", F(2)), ("-1/2", F(-1, 2)), ("0", F(0)), ("10/4", F(5, 2))])
    def test_from_str(self, text, value):
        assert fraction_from_str(text) == value

    @pytest.mark.parametrize("bad", ["1.5", "a", "1/0", "+3", "", "2/-3", "1e3", 3])
    def test_rejects_non_rational_literals(self, bad):
        with pytest.raises(ValueError):
            fraction_from_str(bad)


class TestMatrixJson:
    def test_roundtrip(self):
        m = Matrix.from_rows([[F(1, 2), -2], [0, 3]])
        encoded = matrix_to_json(m)
        assert encoded == [["1/2", "-2"], ["0", "3"]]
        assert matrix_from_json(encoded) == m

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            matrix_from_json([["1", "2"], "nope"])


class TestSpecJson:
    def test_roundtrip(self):
        spec = ModuleSpec.of([(1, 2), (2, F(1, 3))], shift=(0, -1))
        encoded = spec_to_json(spec)
        assert encoded == {
            "factors": [{"n": 1, "a": "2"}, {"n": 2, "a": "1/3"}],
            "shift": ["0", "-1"],
        }
        assert spec_from_json(encoded) == spec

    def test_shift_defaults_to_zero(self):
        spec = spec_from_json({"factors": [{"n": 1, "a": "2"}]})
        assert spec.shift == (F(0), F(0))

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"factors": [{"n": 1}]},
            {"factors": [{"n": -1, "a": "2"}]},
            {"factors": [{"n": True, "a": "2"}]},
            {"factors": [{"n": 1, "a": "0"}]},
            {"factors": [{"n": 1, "a": "2"}], "shift": ["1"]},
        ],
    )
    def test_rejects_malformed(self, data):
        with pytest.raises(ValueError):
            spec_from_json(data)


class TestModuleJson:
    def test_roundtrip(self):
        m = build_from_spec(ModuleSpec.of([(1, 2), (1, 5)]))
        encoded = module_to_json(m)
        assert encoded["dim"] == 4
        assert encoded["diameter"] == 2
        assert encoded["type"] == ["0", "0"]
        decoded = module_from_json(encoded)
        assert decoded.A == m.A and decoded.Astar == m.Astar
        assert decoded.diameter == 2 and decoded.type_pair == (F(0), F(0))

    def test_rejects_null_diameter(self):
        encoded = module_to_json(evaluation_module(1, F(2)))
        encoded["diameter"] = None
        with pytest.raises(ValueError):
            module_from_json(encoded)


class TestTetraJson:
    def test_roundtrip(self):
        t = build_tetra(evaluation_module(1, F(2)))
        encoded = tetra_to_json(t)
        assert sorted(encoded["x"]) == [
            "01", "02", "03", "10", "12", "13", "20", "21", "23", "30", "31", "32",
        ]
        decoded = tetra_from_json(encoded)
        assert decoded.x == t.x
        assert decoded.dim == t.dim and decoded.diameter == t.diameter

    def test_rejects_inconsistent_sizes(self):
        t = build_tetra(evaluation_module(1, F(2)))
        encoded = tetra_to_json(t)
        encoded["x"]["01"] = [["0"]]
        with pytest.raises(ValueError):
            tetra_from_json(encoded)
