import contextlib
import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tetrabox import Matrix, ModuleSpec, build_from_spec, build_tetra, evaluation_module
from tetrabox.cli import main
from tetrabox.serialize import (
    LITERAL_GUARD,
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

    @pytest.mark.parametrize("bad", ["1.5", "a", "1/0", "+3", "", "2/-3", "1e3", 3, "3\n", "1/2\n", "٣", "３"])
    def test_rejects_non_rational_literals(self, bad):
        with pytest.raises(ValueError):
            fraction_from_str(bad)

    def test_a_literal_at_the_guard_is_read(self):
        text = "1/" + "7" * (LITERAL_GUARD - 2)
        with no_int_digit_limit():
            assert fraction_from_str(text) == F(1, int(text[2:]))

    @pytest.mark.parametrize("text", ["7" * (LITERAL_GUARD + 1), "1/" + "7" * (LITERAL_GUARD - 1), "7" * 400_000 + "x"],
                             ids=["integer", "fraction", "malformed"])
    def test_a_longer_literal_is_refused_before_it_is_converted(self, text):
        # the interpreter's digit limit is in force here, so any conversion would raise its own error
        with pytest.raises(ValueError, match=rf"^rational literal of {len(text)} characters exceeds the literal guard "
                                             rf"{LITERAL_GUARD}$"):
            fraction_from_str(text)


@contextlib.contextmanager
def no_int_digit_limit():
    """Python's limit on int-string conversions lifted, as the `tetrabox` command
    lifts it (cli.main); a Python without the limit needs nothing."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestMatrixJson:
    def test_roundtrip(self):
        m = Matrix.from_rows([[F(1, 2), -2], [0, 3]])
        encoded = matrix_to_json(m)
        assert encoded == [["1/2", "-2"], ["0", "3"]]
        assert matrix_from_json(encoded) == m

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            matrix_from_json([["1", "2"], "nope"])

    @pytest.mark.parametrize("bad", ["1/0", "1/-2", "1.5", " 3", "3 ", "+3", "", "0x3", 3, None, "3\n", "1/2\n", "٣", "３"])
    def test_rejects_non_rational_entries(self, bad):
        with pytest.raises(ValueError):
            matrix_from_json([["1", bad]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged rows"):
            matrix_from_json([["1", "2"], ["3"]])

    @pytest.mark.parametrize("data", [[], [[]], [[], []]])
    def test_empty_shapes(self, data):
        assert matrix_from_json(data) == Matrix.from_rows(data)


# literals as a file may hold them: unreduced, zero numerators over any
# denominator, a signed zero, leading zeros
LITERALS = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-60, 60), st.integers(1, 60)),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["4/2", "-0/3", "-0", "0/7", "007", "-0012/8", "6/4"]),
)


class TestMatrixJsonAgainstFraction:
    """The integer codec against str(Fraction) and Fraction(text), entry by entry."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda c: st.lists(st.lists(LITERALS, min_size=c, max_size=c), max_size=4)))
    def test_parse_then_write(self, rows):
        reference = Matrix.from_rows([[F(x) for x in row] for row in rows])
        parsed = matrix_from_json(rows)
        assert parsed == reference
        cols = len(rows[0]) if rows else 0
        assert matrix_to_json(parsed) == [[str(F(x)) for x in row] for row in rows]
        assert (parsed.rows, parsed.cols) == (len(rows), cols)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**6)), min_size=3, max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    def test_write_then_parse(self, rows):
        m = Matrix.from_rows(rows)
        encoded = matrix_to_json(m)
        assert encoded == [[str(x) for x in row] for row in rows]
        assert matrix_from_json(encoded) == m


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
    def test_roundtrip(self, tmp_path):
        m = build_from_spec(ModuleSpec.of([(1, 2), (1, 5)]))
        encoded = module_to_json(m)
        assert list(encoded) == ["dim", "A", "Astar"] and encoded["dim"] == 4
        assert module_from_json(encoded) == m
        # `tetrabox build` adds the spec's diameter and type; they are validated, not stored
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(spec_to_json(ModuleSpec.of([(1, 2), (1, 5)]))))
        assert main(["build", str(spec), "-o", str(tmp_path / "m.json")]) == 0
        written = json.loads((tmp_path / "m.json").read_text())["module"]
        assert list(written) == ["dim", "A", "Astar", "diameter", "type"]
        assert written["diameter"] == 2 and written["type"] == ["0", "0"]
        assert module_from_json(written) == m

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

    @pytest.mark.parametrize("key", ["0\u0661", "\u00b2\u00b3", "00", "14", "1", "012", 1])
    def test_only_the_twelve_ascii_keys_name_a_generator(self, key):
        encoded = tetra_to_json(build_tetra(evaluation_module(1, F(2))))
        encoded["x"][key] = encoded["x"]["01"]
        with pytest.raises(ValueError, match="bad generator key"):
            tetra_from_json(encoded)

    def test_rejects_inconsistent_sizes(self):
        t = build_tetra(evaluation_module(1, F(2)))
        encoded = tetra_to_json(t)
        encoded["x"]["01"] = [["0"]]
        with pytest.raises(ValueError):
            tetra_from_json(encoded)
