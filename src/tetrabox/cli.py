"""Command-line front end: build, verify, classify, compare, inspect.

`build` has the spec, so it folds the twelve generators from the spec's
evaluation factors (tetra.build_tetra_from_spec) and prints its refusals.
`verify --deep` reads every key off the file's matrices and one flag-route
build of the module (x_01, x_23), of which the module section is a copy:
the rebuild, the round trip of that pair and, when the file echoes its
spec, whether the spec's module is that pair and folds to the file.
`inspect --flags` on a build file likewise refuses (exit 1) a module
section that is not that pair, after checking its type as for any module.

All reports are JSON on stdout with a fixed key order, so identical
invocations produce byte-identical output; diagnostics go to stderr.
Exit codes: 0 success, 1 failed checks or input above the dimension guard
or rejected (reducible/shifted) build input, 2 unreadable or malformed
input (and reducible input for `compare`), 3 oracle/criterion disagreement
in `compare`. When the guard refuses a deep check (a module whose
irreducibility the spin cannot decide and whose closure is above it), that
check and every later one read "skipped", "skipped" holds the reason, and
the refusal does not fail verification. Likewise, when the guard refuses
the modules of `compare --oracle`, "intertwiner_found" and
"oracle_agrees" read "skipped" and the exit code is the criterion's (0 or
1).
A module file whose diameter d is at least its dimension is malformed
(exit 2, before any eigenspace is computed); a smaller d that is no
generator's eigenvalue fails verification (exit 1). A stdout closed early
(`tetrabox verify m.json | head -1`) ends the process by SIGPIPE, as it ends
other filters, with no traceback and not with exit 1. The same entry point
lifts Python's limit on the digits of an int-string conversion, so a file's
rational literals and a failed check's residual may be of any length.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .classify import (
    _intertwiner_with_top,
    _reducibility_diagnostic,
    equivalence_key,
    is_irreducible_criterion,
    is_isomorphic,
)
from .errors import DimensionGuardError, TetraboxError
from .flags import four_flags
from .linalg import require_within_guard
from .onsager import ModuleSpec, OnsagerModule, build_from_spec
from .serialize import (
    eigentable_to_json,
    flags_to_json,
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
    build_tetra_from_spec,
    eigentable,
    flag_independence_check,
    pairwise_burnside,
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
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
        raise _InputError(f"cannot read {path}: {exc}") from None


def _load_spec(path: str) -> ModuleSpec:
    try:
        return spec_from_json(_load_json(path))
    except ValueError as exc:
        raise _InputError(f"invalid spec {path}: {exc}") from None


def _section(data, key: str):
    """The named section of a combined build file, or the whole document."""
    return data[key] if isinstance(data, dict) and key in data else data


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def cmd_build(args) -> int:
    spec = _load_spec(args.spec)
    tetra = build_tetra_from_spec(spec)  # its refusals (reducible, shifted, guard) exit 1 in main
    # the fold's x_01 and x_23 are build_from_spec(spec)'s A and Astar
    module = module_to_json(OnsagerModule(spec.dim, tetra.x[(0, 1)], tetra.x[(2, 3)]))
    # the spec's diameter and type, which module_type would recompute from the matrices
    module.update(diameter=spec.degree_sum, type=[str(x) for x in spec.shift])
    payload = {"spec": spec_to_json(spec), "module": module, "tetra": tetra_to_json(tetra)}
    text = json.dumps(payload, indent=2) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {args.out}: {exc}") from None
    return 0


def _deep_checks(module: OnsagerModule | None, tetra: TetraModule, spec: ModuleSpec | None) -> dict:
    out = {"pass": True}
    keys = ["rebuild_matches", "roundtrip_uniqueness", "spec_matches", "pairwise_burnside"]
    if spec is None:
        keys.remove("spec_matches")
    try:
        # the module section is a copy of x_01, x_23: every key is read off this one build
        standard = OnsagerModule(tetra.dim, tetra.x[(0, 1)], tetra.x[(2, 3)])
        rebuilt = build_tetra(standard)
        out["rebuild_matches"] = rebuilt.x == tetra.x
        gives_back = rebuilt.x[(0, 1)] == standard.A and rebuilt.x[(2, 3)] == standard.Astar
        # an absent module section counts as the pair itself
        out["roundtrip_uniqueness"] = (module is None or module == standard) and gives_back
        if spec is not None:
            # only a spec whose module is the pair is folded, and the pair has just built
            same_shape = spec.dim == tetra.dim and spec.degree_sum == tetra.diameter
            same_module = same_shape and build_from_spec(spec) == standard
            out["spec_matches"] = same_module and build_tetra_from_spec(spec).x == tetra.x
        out["pairwise_burnside"] = pairwise_burnside(tetra)
    except DimensionGuardError as exc:
        # a refused check is not a failed one
        for key in keys:
            out.setdefault(key, "skipped")
        out["skipped"] = str(exc)
    except TetraboxError as exc:
        out["pass"] = False
        out["error"] = str(exc)
        return out
    out["pass"] = all(out[key] is not False for key in keys)
    return out


def cmd_verify(args) -> int:
    data = _load_json(args.module)
    try:
        tetra = tetra_from_json(_section(data, "tetra"))
        if args.deep:
            module = module_from_json(data["module"]) if "module" in data else None
            spec = spec_from_json(data["spec"]) if "spec" in data else None
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
        deep = _deep_checks(module, tetra, spec)
        report["deep"] = deep
        ok = ok and deep["pass"]
    report["pass"] = ok
    _emit(report)
    return 0 if ok else 1


def cmd_classify(args) -> int:
    spec = _load_spec(args.spec)
    # diameter and type are the spec's degree sum and shift; nothing is built
    require_within_guard(spec.dim, "module dimension")
    key = [[n, a] for n, a in equivalence_key(spec)]
    alpha, alphastar = spec.shift
    _emit(
        {
            "irreducible": is_irreducible_criterion(spec),
            "d": spec.degree_sum,
            "type": [str(alpha), str(alphastar)],
            "equivalence_key": key,
        }
    )
    return 0


def cmd_compare(args) -> int:
    s1 = _load_spec(args.spec1)
    s2 = _load_spec(args.spec2)
    for path, spec in ((args.spec1, s1), (args.spec2, s2)):
        reason = _reducibility_diagnostic(spec)
        if reason is not None:
            _fail(f"{path}: {reason}")
            return 2
        if spec.shift[0] != 0 or spec.shift[1] != 0:
            _fail(f"{path}: type shift is not (0, 0); normalize before comparing")
            return 2
    isomorphic = is_isomorphic(s1, s2)
    result = {"isomorphic": isomorphic}
    if args.oracle:
        try:
            # the top eigenvalue of s1's A is its degree sum: the shift is (0, 0)
            witness = _intertwiner_with_top(build_from_spec(s1), build_from_spec(s2), s1.degree_sum)
        except DimensionGuardError as exc:
            # a refused cross-check is not a failed one: the criterion decides
            result.update(intertwiner_found="skipped", oracle_agrees="skipped", skipped=str(exc))
        except TetraboxError as exc:
            raise _InputError(str(exc)) from None
        else:
            result["intertwiner_found"] = witness is not None
            result["oracle_agrees"] = (witness is not None) == isomorphic
    _emit(result)
    if result.get("oracle_agrees") is False:
        _fail("intertwiner oracle disagrees with the equivalence criterion")
        return 3
    return 0 if isomorphic else 1


def cmd_inspect(args) -> int:
    data = _load_json(args.module)
    try:
        if args.flags:
            module = module_from_json(_section(data, "module"))
            payload = {"flags": flags_to_json(four_flags(module))}
            # a build file's module section is a copy of its x_01, x_23, as verify --deep reads it
            tetra = tetra_from_json(data["tetra"]) if "tetra" in data else None
            if tetra is not None and module != OnsagerModule(tetra.dim, tetra.x[(0, 1)], tetra.x[(2, 3)]):
                _fail(f"{args.module}: the module section is not the tetra section's (x_01, x_23)")
                return 1
        else:
            tetra = tetra_from_json(_section(data, "tetra"))
            payload = {"eigentable": eigentable_to_json(eigentable(tetra))}
    except (ValueError, KeyError) as exc:
        raise _InputError(f"invalid module file {args.module}: {exc}") from None
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
        return args.func(args)
    except _InputError as exc:
        _fail(str(exc))
        return 2
    except TetraboxError as exc:
        # a library refusal (a size guard, reducible or shifted input): one line, exit 1
        _fail(str(exc))
        return 1


def run() -> None:
    if hasattr(signal, "SIGPIPE"):  # not on Windows
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.11+, and 3.10.7+
        sys.set_int_max_str_digits(0)  # exact entries and residuals have no length limit
    sys.exit(main())


if __name__ == "__main__":
    run()
