"""JSON codecs for every externally visible object.

Rationals serialize as strings "p/q" (or "p" when the denominator is 1)
with the sign on the numerator; matrices as row-major nested arrays of such
strings. Encoders emit plain dicts with a fixed key order so that dumps are
byte-reproducible.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .flags import Flag
from .linalg import Matrix
from .onsager import ModuleSpec, OnsagerModule
from .tetra import EigenTable, TetraModule, VerificationReport

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def fraction_to_str(x: Fraction) -> str:
    return str(x)


def fraction_from_str(text: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[fraction_to_str(x) for x in m.row_list(i)] for i in range(m.rows)]


def matrix_from_json(data) -> Matrix:
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("matrix must be a list of rows")
    return Matrix.from_rows([[fraction_from_str(x) for x in row] for row in data])


def spec_to_json(spec: ModuleSpec) -> dict:
    return {
        "factors": [{"n": n, "a": fraction_to_str(a)} for n, a in spec.factors],
        "shift": [fraction_to_str(spec.shift[0]), fraction_to_str(spec.shift[1])],
    }


def spec_from_json(data) -> ModuleSpec:
    if not isinstance(data, dict) or "factors" not in data:
        raise ValueError("module spec must be an object with a 'factors' list")
    factors = []
    for item in data["factors"]:
        if not isinstance(item, dict) or "n" not in item or "a" not in item:
            raise ValueError("each factor needs fields 'n' and 'a'")
        n = item["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"factor weight must be a nonnegative integer, got {n!r}")
        factors.append((n, fraction_from_str(item["a"])))
    shift_raw = data.get("shift", ["0", "0"])
    if not isinstance(shift_raw, list) or len(shift_raw) != 2:
        raise ValueError("shift must be a pair of rationals")
    shift = (fraction_from_str(shift_raw[0]), fraction_from_str(shift_raw[1]))
    return ModuleSpec(tuple(factors), shift)


def module_to_json(m: OnsagerModule) -> dict:
    out = {
        "dim": m.dim,
        "A": matrix_to_json(m.A),
        "Astar": matrix_to_json(m.Astar),
    }
    if m.diameter is not None:
        out["diameter"] = m.diameter
    if m.type_pair is not None:
        out["type"] = [fraction_to_str(m.type_pair[0]), fraction_to_str(m.type_pair[1])]
    return out


def _require_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def module_from_json(data) -> OnsagerModule:
    if not isinstance(data, dict) or "A" not in data or "Astar" not in data:
        raise ValueError("module must be an object with matrices 'A' and 'Astar'")
    a = matrix_from_json(data["A"])
    astar = matrix_from_json(data["Astar"])
    dim = _require_int(data.get("dim", a.rows), "module dimension 'dim'")
    diameter = data.get("diameter")
    if diameter is not None:
        _require_int(diameter, "module diameter")
    type_pair = None
    if "type" in data:
        if not isinstance(data["type"], list) or len(data["type"]) != 2:
            raise ValueError("module type must be a pair of rationals")
        type_pair = (fraction_from_str(data["type"][0]), fraction_from_str(data["type"][1]))
    return OnsagerModule(dim, a, astar, diameter=diameter, type_pair=type_pair)


def _pair_key(pair: tuple[int, int]) -> str:
    return f"{pair[0]}{pair[1]}"


def tetra_to_json(t: TetraModule) -> dict:
    keys = sorted(t.x)
    return {
        "dim": t.dim,
        "d": t.diameter,
        "x": {_pair_key(pair): matrix_to_json(t.x[pair]) for pair in keys},
    }


def tetra_from_json(data) -> TetraModule:
    if not isinstance(data, dict) or "x" not in data:
        raise ValueError("tetra structure must be an object with an 'x' table")
    x = {}
    for key, mat in data["x"].items():
        if not isinstance(key, str) or len(key) != 2 or not key.isdigit():
            raise ValueError(f"bad generator key {key!r}")
        pair = (int(key[0]), int(key[1]))
        x[pair] = matrix_from_json(mat)
    dims = {mat.rows for mat in x.values()}
    if len(dims) != 1:
        raise ValueError("generator matrices have inconsistent sizes")
    dim = _require_int(data.get("dim", dims.pop()), "tetra dimension 'dim'")
    if "d" not in data:
        raise ValueError("tetra structure needs its diameter field 'd'")
    return TetraModule(dim=dim, diameter=_require_int(data["d"], "diameter 'd'"), x=x, flags=None)


def flags_to_json(flags: tuple[Flag, ...]) -> list:
    return [
        [matrix_to_json(component.basis) for component in flag.components]
        for flag in flags
    ]


def eigentable_to_json(table: EigenTable) -> dict:
    return {
        "eigenvalues": [fraction_to_str(x) for x in table.eigenvalues],
        "dims": {_pair_key(pair): list(dims) for pair, dims in sorted(table.dims.items())},
        "constant_across_pairs": table.constant_across_pairs,
        "symmetric": table.symmetric,
        "sums_to_dim": table.sums_to_dim,
    }


def report_to_json(report: VerificationReport, include_passes: bool = False) -> list:
    out = []
    for check in report.checks:
        if check.passed and not include_passes:
            continue
        entry = {
            "relation": check.relation,
            "instance": list(check.instance),
            "pass": check.passed,
        }
        if check.residual is not None:
            entry["residual"] = matrix_to_json(check.residual)
        out.append(entry)
    return out
