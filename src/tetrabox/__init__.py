"""Exact construction, verification and classification of finite-dimensional
tetrahedron-algebra and Onsager-algebra modules over the rationals."""

from .classify import (
    ORACLE_GUARD,
    are_equivalent,
    equivalence_key,
    find_intertwiner,
    generated_algebra_dimension,
    is_irreducible_burnside,
    is_irreducible_criterion,
    is_irreducible_spin,
    is_isomorphic,
    pair_generates_full_algebra,
)
from .errors import (
    DimensionGuardError,
    OppositionError,
    ReducibleModuleError,
    SpectrumError,
    TetraboxError,
    TypeShiftError,
)
from .flags import (
    Decomposition,
    Flag,
    are_opposite,
    flag_from_decomposition,
    four_flags,
    induced_decomposition,
    invert_decomposition,
)
from .linalg import (
    Matrix,
    Subspace,
    commutator,
    determinant,
    eigenspace,
    hstack,
    intersect,
    inverse,
    is_diagonalizable_with,
    kernel,
    kron,
    minimal_polynomial,
    rational_roots,
    rref,
    subspace_sum,
)
from .onsager import (
    ModuleSpec,
    OnsagerModule,
    Sl2Triple,
    build_from_spec,
    dolan_grady_holds,
    evaluation_module,
    kronecker_sum,
    module_type,
    normalize_type,
    sl2_irreducible,
    tensor,
    trivial_module,
)
from .tetra import (
    EigenTable,
    TetraModule,
    VerificationReport,
    build_tetra,
    eigentable,
    flag_independence_check,
    pairwise_burnside,
    roundtrip_uniqueness,
    verify_action_table,
    verify_relations,
)
from .tridiagonal import (
    TdpReport,
    check_onsager_equivalence,
    eigenvalue_sequences,
    verify_tridiagonal_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
