"""Exact construction, verification and classification of finite-dimensional
tetrahedron-algebra and Onsager-algebra modules over the rationals.

The package binds its public names on first use (PEP 562): `tetrabox.X`
imports the one submodule that defines X and keeps X in the package
globals, so a later lookup is a plain attribute read, and a process loads
only the submodules it uses. A stand-in patched onto that submodule is
handed out while it is there but never kept.
"""

from importlib import import_module

# submodule -> the public names it defines (the criterion, the key and the
# spec route of the twelve generators live in onsager, beside ModuleSpec)
_EXPORTS = {
    "classify": ("find_intertwiner", "generated_algebra_dimension", "is_irreducible_burnside", "is_isomorphic",
                 "pair_generates_full_algebra"),
    "errors": ("DimensionGuardError", "OppositionError", "ReducibleModuleError", "SpectrumError", "TetraboxError",
               "TypeShiftError"),
    "flags": ("Decomposition", "Flag", "are_opposite", "flag_from_decomposition", "four_flags",
              "induced_decomposition", "invert_decomposition"),
    "linalg": ("Matrix", "Subspace", "annihilates", "commutator", "determinant", "diagonal_spectrum", "eigenspace",
               "hstack", "intersect", "inverse", "is_diagonalizable_with", "kernel", "kron", "minimal_polynomial",
               "rational_roots", "rref", "subspace_sum"),
    "onsager": ("ModuleSpec", "OnsagerModule", "Sl2Triple", "TetraModule", "are_equivalent", "build_from_spec",
                "build_tetra_from_spec", "dolan_grady_holds", "equivalence_key", "evaluation_module",
                "is_irreducible_criterion", "kronecker_sum", "module_type", "normalize_type", "sl2_irreducible",
                "tensor", "trivial_module"),
    "tetra": ("EigenTable", "VerificationReport", "build_tetra", "eigentable", "flag_independence_check",
              "pairwise_burnside", "roundtrip_uniqueness", "verify_action_table", "verify_relations"),
    "tridiagonal": ("TdpReport", "check_onsager_equivalence", "eigenvalue_sequences", "verify_tridiagonal_pair"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # the import binds the submodule here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = f"{__name__}.{_HOME[name]}"
    value = getattr(import_module(home), name)
    # a stand-in (a spy, a tracer's wrapper) is not kept: once its patch is undone the package gives the
    # original again
    if getattr(value, "__module__", None) == home:
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
