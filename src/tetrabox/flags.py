"""Flags, decompositions and opposite-flag machinery.

A decomposition is an ordered direct-sum splitting V_0, ..., V_d of the
full space; a flag is the increasing chain of its partial sums. Two flags
are opposite when one decomposition induces the first and its inversion the
second; that decomposition is recovered componentwise as P_i = F_i
"intersect" G_{d-i}, which is also how opposition is decided here: the P_i
must be nonzero and sum directly to the full space (one rank). Nothing more
is needed. Write P_{<=i} and P_{>i} for the sums of the P_j with j <= i and
j > i. Then P_{<=i} lies in F_i and P_{>i} in G_{d-i-1}, so by the modular
law F_i = P_{<=i} + (F_i "intersect" P_{>i}), and F_i "intersect" P_{>i}
lies in F_i "intersect" G_{d-i-1}, inside P_i, which meets P_{>i} only in
0. Hence F_i = P_{<=i}, and likewise G_i = P_{>=d-i}: the pieces induce both
flags. The pair (G, F) induces the same pieces reversed.

A flag's components are the partial sums of its decomposition, read off one
echelon that takes each piece's basis in turn and is read canonically after
each (_partial_sums). Records are built only at the public API: build_tetra
intersects the component tuples of _flag_components and builds no Flag.

An Onsager module of type (0,0) carries four distinguished flags built
from the eigenspace chains of its two generators, one per corner index 0..3.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._record import Record
from .errors import OppositionError, TypeShiftError
from .linalg import Subspace, _Echelon, _echelon, _integer_columns, _reduced_echelon, intersect
from .onsager import OnsagerModule, _module_spectra


def _partial_sums(spaces: Sequence[Subspace]) -> tuple[Subspace, ...]:
    """The canonical sums V_0, V_0 + V_1, ... of the spaces, read off one echelon."""
    n = spaces[0].ambient_dim
    echelon = _Echelon(n)
    sums = []
    for space in spaces:
        for column in _integer_columns(space.basis):
            echelon.add(column)
        sums.append(Subspace(n, _reduced_echelon(echelon)[0].transpose()))
    return tuple(sums)


def _sum_is_direct_and_full(spaces: tuple[Subspace, ...]) -> bool:
    """Do the spaces sum directly to the full space? One rank of the stacked bases."""
    n = spaces[0].ambient_dim
    columns = [column for space in spaces for column in _integer_columns(space.basis)]
    return len(columns) == n and len(_echelon(n, columns)) == n


class Decomposition(Record):
    """Ordered list of nonzero subspaces whose direct sum is the full space."""

    subspaces: tuple[Subspace, ...]
    _fields = ("subspaces",)

    def __post_init__(self):
        if not self.subspaces:
            raise ValueError("a decomposition needs at least one subspace")
        ambient = self.subspaces[0].ambient_dim
        for space in self.subspaces:
            if space.ambient_dim != ambient:
                raise ValueError("ambient dimension mismatch")
            if space.is_zero():
                raise ValueError("decomposition subspaces must be nonzero")
        if not _sum_is_direct_and_full(self.subspaces):
            raise ValueError("subspaces do not form a direct sum filling the space")

    @property
    def ambient_dim(self) -> int:
        return self.subspaces[0].ambient_dim

    @property
    def diameter(self) -> int:
        return len(self.subspaces) - 1


class Flag(Record):
    """Strictly increasing chain of subspaces ending at the full space."""

    components: tuple[Subspace, ...]
    _fields = ("components",)

    def __post_init__(self):
        if not self.components:
            raise ValueError("a flag needs at least one component")
        ambient = self.components[0].ambient_dim
        if self.components[0].is_zero():
            raise ValueError("the first flag component must be nonzero")
        if self.components[-1].dim != ambient:
            raise ValueError("the last flag component must be the full space")
        for prev, cur in zip(self.components, self.components[1:]):
            if cur.ambient_dim != ambient:
                raise ValueError("ambient dimension mismatch")
            if prev.dim >= cur.dim or not cur.contains(prev):
                raise ValueError("flag components must increase strictly")

    @property
    def ambient_dim(self) -> int:
        return self.components[0].ambient_dim

    @property
    def diameter(self) -> int:
        return len(self.components) - 1


def flag_from_decomposition(dec: Decomposition) -> Flag:
    """The flag of partial sums V_0, V_0 + V_1, ..."""
    return Flag(_partial_sums(dec.subspaces))


def invert_decomposition(dec: Decomposition) -> Decomposition:
    return Decomposition(tuple(reversed(dec.subspaces)))


def _induced_subspaces(f: Sequence[Subspace], g: Sequence[Subspace]) -> tuple[Subspace, ...] | str:
    """Componentwise intersections of flag components, or a reason string when not opposite."""
    d = len(f) - 1
    pieces = []
    for i in range(d + 1):
        piece = intersect(f[i], g[d - i])
        if piece.is_zero():
            return f"component intersection {i} is zero"
        pieces.append(piece)
    if not _sum_is_direct_and_full(tuple(pieces)):
        return "component intersections do not sum directly to the full space"
    return tuple(pieces)


def _require_comparable(f: Flag, g: Flag) -> None:
    if f.ambient_dim != g.ambient_dim:
        raise OppositionError("flags live in different ambient spaces")
    if f.diameter != g.diameter:
        raise OppositionError(f"flag diameters differ ({f.diameter} vs {g.diameter})")


def are_opposite(f: Flag, g: Flag) -> bool:
    """True iff some decomposition induces f and its inversion induces g."""
    _require_comparable(f, g)
    return not isinstance(_induced_subspaces(f.components, g.components), str)


def induced_decomposition(f: Flag, g: Flag) -> Decomposition:
    """The unique decomposition inducing the opposite flags f and g."""
    _require_comparable(f, g)
    result = _induced_subspaces(f.components, g.components)
    if isinstance(result, str):
        raise OppositionError(f"flags are not opposite: {result}")
    return Decomposition(result)


def four_flags(m: OnsagerModule) -> tuple[Flag, Flag, Flag, Flag]:
    """The four flags attached to a type-(0,0) module, indexed 0..3.

    Flag 0 accumulates the eigenspaces of A upward from eigenvalue -d,
    flag 1 downward from +d; flags 2 and 3 do the same for Astar. The
    eigenspaces are the ones module_type certifies the spectra with.
    Requires type (0,0).
    """
    _, alpha, alphastar, spaces_a, spaces_s = _module_spectra(m)
    if alpha != 0 or alphastar != 0:
        raise TypeShiftError(f"module has type ({alpha}, {alphastar}), expected (0, 0)")
    return tuple(Flag(components) for components in _flag_components(spaces_a[::-1], spaces_s[::-1]))


def _flag_components(chain_a: Sequence[Subspace], chain_s: Sequence[Subspace]) -> tuple[tuple[Subspace, ...], ...]:
    """Components of flags 0..3 from the eigenspaces of A and Astar at
    -d, 2-d, ..., d: each chain summed upward, then downward."""
    return (_partial_sums(chain_a), _partial_sums(chain_a[::-1]), _partial_sums(chain_s), _partial_sums(chain_s[::-1]))
