"""The package binds its public names lazily (PEP 562) and exports what it
always did: the same 72 names, each the object its submodule defines."""

import hashlib
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import tetrabox

# the public names as the package imported them from each submodule before
# it bound them lazily; the names that moved to onsager are re-exported where
# they were, so each import path here still gives the object
EXPORTS = {
    "classify": ("are_equivalent", "equivalence_key", "find_intertwiner", "generated_algebra_dimension",
                 "is_irreducible_burnside", "is_irreducible_criterion", "is_isomorphic", "pair_generates_full_algebra"),
    "errors": ("DimensionGuardError", "OppositionError", "ReducibleModuleError", "SpectrumError", "TetraboxError",
               "TypeShiftError"),
    "flags": ("Decomposition", "Flag", "are_opposite", "flag_from_decomposition", "four_flags",
              "induced_decomposition", "invert_decomposition"),
    "linalg": ("Matrix", "Subspace", "annihilates", "commutator", "determinant", "diagonal_spectrum", "eigenspace",
               "hstack", "intersect", "inverse", "is_diagonalizable_with", "kernel", "kron", "minimal_polynomial",
               "rational_roots", "rref", "subspace_sum"),
    "onsager": ("ModuleSpec", "OnsagerModule", "Sl2Triple", "build_from_spec", "dolan_grady_holds",
                "evaluation_module", "kronecker_sum", "module_type", "normalize_type", "sl2_irreducible", "tensor",
                "trivial_module"),
    "tetra": ("EigenTable", "TetraModule", "VerificationReport", "build_tetra", "build_tetra_from_spec", "eigentable",
              "flag_independence_check", "pairwise_burnside", "roundtrip_uniqueness", "verify_action_table",
              "verify_relations"),
    "tridiagonal": ("TdpReport", "check_onsager_equivalence", "eigenvalue_sequences", "verify_tridiagonal_pair"),
}
PUBLIC = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


def test_all_is_the_same_72_names():
    assert len(PUBLIC) == 72
    assert tetrabox.__all__ == PUBLIC
    # the bytes `print(sorted(tetrabox.__all__))` writes
    assert hashlib.sha256(f"{PUBLIC}\n".encode()).hexdigest() == (
        "6beb2cb03de83cb70459fcbaf369de226afadc46cd56366ead490468e27d474c")
    assert set(PUBLIC) <= set(dir(tetrabox))  # bound or not yet, as when the package imported them all


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_submodule_s_object(module):
    assert getattr(tetrabox, module) is import_module(f"tetrabox.{module}")
    for name in EXPORTS[module]:
        assert getattr(tetrabox, name) is getattr(import_module(f"tetrabox.{module}"), name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from tetrabox import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_a_resolved_name_is_a_plain_attribute(monkeypatch):
    for name in PUBLIC:
        getattr(tetrabox, name)
    monkeypatch.setattr(tetrabox, "__getattr__", lambda name: pytest.fail(f"__getattr__ ran for {name}"))
    for name in PUBLIC:
        assert name in vars(tetrabox)
        getattr(tetrabox, name)


def test_a_stand_in_patched_onto_a_submodule_is_not_kept(monkeypatch):
    # a spy or a tracer's wrapper in place at the first lookup is handed out, and the package holds the
    # original again once the patch is undone, as when it imported every name eagerly
    onsager = import_module("tetrabox.onsager")
    monkeypatch.delitem(vars(tetrabox), "build_from_spec", raising=False)
    with monkeypatch.context() as patch:
        patch.setattr(onsager, "build_from_spec", lambda spec: None)
        stand_in = onsager.build_from_spec
        assert tetrabox.build_from_spec is stand_in
        assert "build_from_spec" not in vars(tetrabox)
    assert tetrabox.build_from_spec is onsager.build_from_spec is not stand_in
    assert "build_from_spec" in vars(tetrabox)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        tetrabox.no_such_name


def test_a_fresh_process_loads_a_name_s_module_on_first_use():
    # import tetrabox loads no submodule; ModuleSpec loads onsager and what onsager imports, no more: the matrix
    # core and not linalg's elimination engine
    code = ("import sys, tetrabox; loaded = lambda: sorted(m for m in sys.modules if m.startswith('tetrabox.')); "
            "print(loaded()); tetrabox.ModuleSpec; print(loaded()); from tetrabox import *; print(len(loaded()))")
    src = str(Path(tetrabox.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "['tetrabox._record', 'tetrabox.errors', 'tetrabox.matrix', 'tetrabox.onsager']",
        "9",
    ]
