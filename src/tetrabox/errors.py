"""Exception hierarchy shared across the package."""


class TetraboxError(Exception):
    """Base class for all library-specific failures."""


class DimensionGuardError(TetraboxError):
    """A problem is above linalg.DIM_GUARD on its own side (see linalg.require_within_guard)."""


class SpectrumError(TetraboxError):
    """A spectrum is not of the required arithmetic form c, c-2, ..., c-2d."""


class TypeShiftError(TetraboxError):
    """A module has a nonzero type shift where type (0,0) is required."""


class OppositionError(TetraboxError):
    """Two flags are not opposite (no common inducing decomposition)."""


class ReducibleModuleError(TetraboxError):
    """An operation that requires an irreducible module got a reducible one."""
