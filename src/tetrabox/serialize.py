"""JSON codecs for every externally visible object.

Rationals serialize as strings "p/q" (or "p" when the denominator is 1)
with the sign on the numerator; matrices as row-major nested arrays of such
strings. Encoders emit plain dicts with a fixed key order so that dumps are
byte-reproducible.

A literal read back may be at most LITERAL_GUARD characters long, and a
longer one is refused before it is converted: int(str) is quadratic in the
digits, and one 400 000-digit entry kept a d4 verify busy for minutes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .matrix import Matrix
from .onsager import ModuleSpec, OnsagerModule, TetraModule

# Flag, EigenTable and VerificationReport appear in annotations only, so
# flags and tetra are not imported: `tetrabox build` loads neither.

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")

# characters of one rational literal read back; 4000-digit entries pass
LITERAL_GUARD = 10_000


def _rational_parts(text: str) -> tuple[int, int]:
    """Numerator and positive denominator of a validated literal, as written."""
    if isinstance(text, str) and len(text) > LITERAL_GUARD:
        raise ValueError(f"rational literal of {len(text)} characters exceeds the literal guard {LITERAL_GUARD}")
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def fraction_from_str(text: str) -> Fraction:
    return Fraction(*_rational_parts(text))


def matrix_to_json(m: Matrix) -> list[list[str]]:
    """Each entry as str(Fraction) would write it, from the stored integer rows."""
    den = m._den

    def literal(x: int) -> str:
        g = gcd(x, den)
        return str(x // g) if g == den else f"{x // g}/{den // g}"

    return [[literal(x) for x in row] for row in m._num]


def matrix_from_json(data) -> Matrix:
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("matrix must be a list of rows")
    parts = [[_rational_parts(x) for x in row] for row in data]
    cols = len(parts[0]) if parts else 0
    if any(len(row) != cols for row in parts):
        raise ValueError("ragged rows")
    den = lcm(*(q for row in parts for _, q in row))
    return Matrix._of(len(parts), cols, ([p * (den // q) for p, q in row] for row in parts), den)


def spec_to_json(spec: ModuleSpec) -> dict:
    return {
        "factors": [{"n": n, "a": str(a)} for n, a in spec.factors],
        "shift": [str(spec.shift[0]), str(spec.shift[1])],
    }


def spec_from_json(data) -> ModuleSpec:
    if not isinstance(data, dict) or not isinstance(data.get("factors"), list):
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
    return {"dim": m.dim, "A": matrix_to_json(m.A), "Astar": matrix_to_json(m.Astar)}


def _require_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def module_from_json(data) -> OnsagerModule:
    """The module's dim, A and Astar, which is all an OnsagerModule holds. A
    "diameter" or "type" field, as `tetrabox build` writes them, is validated
    and dropped: the matrices fix both (module_type)."""
    if not isinstance(data, dict) or "A" not in data or "Astar" not in data:
        raise ValueError("module must be an object with matrices 'A' and 'Astar'")
    a = matrix_from_json(data["A"])
    astar = matrix_from_json(data["Astar"])
    dim = _require_int(data.get("dim", a.rows), "module dimension 'dim'")
    if "diameter" in data:
        _require_int(data["diameter"], "module diameter")
    if "type" in data:
        if not isinstance(data["type"], list) or len(data["type"]) != 2:
            raise ValueError("module type must be a pair of rationals")
        for literal in data["type"]:
            fraction_from_str(literal)
    return OnsagerModule(dim, a, astar)


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
    if not isinstance(data, dict) or not isinstance(data.get("x"), dict):
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
    d = _require_int(data["d"], "diameter 'd'")
    if d >= dim:
        raise ValueError(f"diameter d = {d} needs d + 1 distinct eigenvalues, more than the dimension {dim}")
    return TetraModule(dim=dim, diameter=d, x=x)


def flags_to_json(flags: tuple[Flag, ...]) -> list:
    return [
        [matrix_to_json(component.basis) for component in flag.components]
        for flag in flags
    ]


def eigentable_to_json(table: EigenTable) -> dict:
    """The table as JSON; "diameter_attained" appears only when that check fails."""
    out = {
        "eigenvalues": [str(x) for x in table.eigenvalues],
        "dims": {_pair_key(pair): list(dims) for pair, dims in sorted(table.dims.items())},
        "constant_across_pairs": table.constant_across_pairs,
        "symmetric": table.symmetric,
        "sums_to_dim": table.sums_to_dim,
    }
    if not table.diameter_attained:
        out["diameter_attained"] = False
    return out


def report_to_json(report: VerificationReport) -> list:
    """The failed checks of a report, in order."""
    out = []
    for check in report.checks:
        if check.passed:
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
