"""Command-line front end: build, verify, classify, compare, inspect.

All reports are JSON on stdout with a fixed key order, so identical
invocations produce byte-identical output; diagnostics go to stderr.
Exit codes: 0 success, 1 failed checks or rejected (reducible/shifted)
build input, 2 unreadable or malformed input or a non-integer
TETRABOX_DIM_GUARD (and reducible input for `compare`), 3
oracle/criterion disagreement in `compare`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import equivalence_key, find_intertwiner, is_irreducible_criterion, is_isomorphic
from .errors import TetraboxError
from .flags import four_flags
from .linalg import dim_guard
from .onsager import ModuleSpec, OnsagerModule, build_from_spec
from .serialize import (
    eigentable_to_json,
    flags_to_json,
    fraction_to_str,
    module_from_json,
    module_to_json,
    report_to_json,
    spec_from_json,
    spec_to_json,
    tetra_from_json,
    tetra_to_json,
)
from .tetra import (
    TetraModule,
    build_tetra,
    eigentable,
    flag_independence_check,
    pairwise_burnside,
    rebuild_from_standard_generators,
    roundtrip_uniqueness,
    verify_action_table,
    verify_relations,
)


class _InputError(Exception):
    """Unreadable or malformed input; maps to exit code 2."""


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None


def _load_spec(path: str) -> ModuleSpec:
    try:
        return spec_from_json(_load_json(path))
    except ValueError as exc:
        raise _InputError(f"invalid spec {path}: {exc}") from None


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _reducibility_diagnostic(spec: ModuleSpec) -> str:
    if any(n >= 1 and a * a == 1 for n, a in spec.factors):
        return "reducible: a = ±1 in an evaluation factor"
    return "reducible: the parameters a_i, a_i^-1 are not mutually distinct"


def cmd_build(args) -> int:
    spec = _load_spec(args.spec)
    if not is_irreducible_criterion(spec):
        _fail(_reducibility_diagnostic(spec))
        return 1
    if spec.shift[0] != 0 or spec.shift[1] != 0:
        _fail(
            f"type shift ({fraction_to_str(spec.shift[0])}, {fraction_to_str(spec.shift[1])}) "
            "is not (0, 0); only type-(0,0) modules carry the six-generator structure"
        )
        return 1
    module = build_from_spec(spec)
    try:
        tetra = build_tetra(module)
    except TetraboxError as exc:
        _fail(str(exc))
        return 1
    payload = {
        "spec": spec_to_json(spec),
        "module": module_to_json(module),
        "tetra": tetra_to_json(tetra),
    }
    text = json.dumps(payload, indent=2) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {args.out}: {exc}") from None
    return 0


def _deep_checks(module: OnsagerModule, tetra: TetraModule) -> dict:
    out = {"pass": True}
    try:
        rebuilt = rebuild_from_standard_generators(tetra)
        out["rebuild_matches"] = rebuilt.x == tetra.x
        out["roundtrip_uniqueness"] = roundtrip_uniqueness(
            OnsagerModule(module.dim, module.A, module.Astar)
        )
        out["pairwise_burnside"] = pairwise_burnside(tetra)
        out["pass"] = all((out["rebuild_matches"], out["roundtrip_uniqueness"], out["pairwise_burnside"]))
    except TetraboxError as exc:
        out["pass"] = False
        out["error"] = str(exc)
    return out


def cmd_verify(args) -> int:
    data = _load_json(args.module)
    try:
        tetra = tetra_from_json(data["tetra"] if isinstance(data, dict) and "tetra" in data else data)
        if args.deep:
            module = module_from_json(data["module"]) if "module" in data else OnsagerModule(
                tetra.dim, tetra.x[(0, 1)], tetra.x[(2, 3)]
            )
    except (ValueError, KeyError) as exc:
        raise _InputError(f"invalid module file {args.module}: {exc}") from None
    relations = verify_relations(tetra)
    table = eigentable(tetra)
    actions = verify_action_table(tetra)
    independent = flag_independence_check(tetra)
    report = {
        "dim": tetra.dim,
        "d": tetra.diameter,
        "relations": {
            "total": len(relations.checks),
            "passed": sum(1 for c in relations.checks if c.passed),
            "failures": report_to_json(relations),
        },
        "eigentable": eigentable_to_json(table),
        "action_table": {
            "total": len(actions.checks),
            "passed": sum(1 for c in actions.checks if c.passed),
            "failures": report_to_json(actions),
        },
        "flag_independence": independent,
    }
    ok = relations.all_passed and table.all_passed and actions.all_passed and independent
    if args.deep:
        deep = _deep_checks(module, tetra)
        report["deep"] = deep
        ok = ok and deep["pass"]
    report["pass"] = ok
    _emit(report)
    return 0 if ok else 1


def cmd_classify(args) -> int:
    spec = _load_spec(args.spec)
    module = build_from_spec(spec)
    key = [[n, a] for n, a in equivalence_key(spec)]
    alpha, alphastar = module.type_pair
    _emit(
        {
            "irreducible": is_irreducible_criterion(spec),
            "d": module.diameter,
            "type": [fraction_to_str(alpha), fraction_to_str(alphastar)],
            "equivalence_key": key,
        }
    )
    return 0


def cmd_compare(args) -> int:
    s1 = _load_spec(args.spec1)
    s2 = _load_spec(args.spec2)
    for path, spec in ((args.spec1, s1), (args.spec2, s2)):
        if not is_irreducible_criterion(spec):
            _fail(f"{path}: {_reducibility_diagnostic(spec)}")
            return 2
        if spec.shift[0] != 0 or spec.shift[1] != 0:
            _fail(f"{path}: type shift is not (0, 0); normalize before comparing")
            return 2
    isomorphic = is_isomorphic(s1, s2)
    result = {"isomorphic": isomorphic}
    if args.oracle:
        m1 = build_from_spec(s1)
        m2 = build_from_spec(s2)
        try:
            witness = find_intertwiner(m1, m2)
        except TetraboxError as exc:
            raise _InputError(str(exc)) from None
        result["intertwiner_found"] = witness is not None
        result["oracle_agrees"] = (witness is not None) == isomorphic
        _emit(result)
        if not result["oracle_agrees"]:
            _fail("intertwiner oracle disagrees with the equivalence criterion")
            return 3
        return 0 if isomorphic else 1
    _emit(result)
    return 0 if isomorphic else 1


def cmd_inspect(args) -> int:
    data = _load_json(args.module)
    try:
        if args.flags:
            module = module_from_json(data["module"] if "module" in data else data)
            payload = {"flags": flags_to_json(four_flags(module))}
        else:
            tetra = tetra_from_json(data["tetra"] if isinstance(data, dict) and "tetra" in data else data)
            payload = {"eigentable": eigentable_to_json(eigentable(tetra))}
    except (ValueError, KeyError) as exc:
        raise _InputError(f"invalid module file {args.module}: {exc}") from None
    except TetraboxError as exc:
        _fail(str(exc))
        return 1
    _emit(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetrabox",
        description="Build, verify and classify exact tetrahedron/Onsager module structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build the module and all twelve generators from a spec")
    p_build.add_argument("spec", help="path to a module spec JSON file")
    p_build.add_argument("-o", "--out", required=True, help="output JSON path")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="re-verify every defining relation of a built module")
    p_verify.add_argument("module", help="path to a built module JSON file")
    p_verify.add_argument("--deep", action="store_true", help="also run round-trip and pairwise Burnside checks")
    p_verify.set_defaults(func=cmd_verify)

    p_classify = sub.add_parser("classify", help="irreducibility, diameter, type and equivalence key of a spec")
    p_classify.add_argument("spec", help="path to a module spec JSON file")
    p_classify.set_defaults(func=cmd_classify)

    p_compare = sub.add_parser("compare", help="decide isomorphism of two irreducible specs")
    p_compare.add_argument("spec1")
    p_compare.add_argument("spec2")
    p_compare.add_argument("--oracle", action="store_true", help="cross-check with the intertwiner oracle")
    p_compare.set_defaults(func=cmd_compare)

    p_inspect = sub.add_parser("inspect", help="dump the four flags or the eigenspace dimension table")
    p_inspect.add_argument("module", help="path to a built module JSON file")
    group = p_inspect.add_mutually_exclusive_group(required=True)
    group.add_argument("--flags", action="store_true", help="dump the four flags")
    group.add_argument("--table", action="store_true", help="dump the eigenspace dimension table")
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        dim_guard()
    except ValueError as exc:
        _fail(str(exc))
        return 2
    try:
        return args.func(args)
    except _InputError as exc:
        _fail(str(exc))
        return 2
    except TetraboxError as exc:
        # rejected input outside the per-command handlers (e.g. size guards)
        _fail(str(exc))
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
