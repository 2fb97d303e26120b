"""Flags, decompositions and opposite-flag machinery.

A decomposition is an ordered direct-sum splitting V_0, ..., V_d of the
full space; a flag is the increasing chain of its partial sums. Two flags
are opposite when one decomposition induces the first and its inversion the
second; that decomposition is recovered componentwise as P_i = F_i
"intersect" G_{d-i}, which is also how opposition is decided here: the P_i
must be nonzero and sum directly to the full space. Nothing more is
needed. Write P_{<=i} and P_{>i} for the sums of the P_j with j <= i and
j > i. Then P_{<=i} lies in F_i and P_{>i} in G_{d-i-1}, so by the modular
law F_i = P_{<=i} + (F_i "intersect" P_{>i}), and F_i "intersect" P_{>i}
lies in F_i "intersect" G_{d-i-1}, inside P_i, which meets P_{>i} only in
0. Hence F_i = P_{<=i}, and likewise G_i = P_{>=d-i}: the pieces induce both
flags. The pair (G, F) induces the same pieces reversed.

A flag's components are the partial sums of its decomposition, read off one
echelon that takes each piece's basis in turn and keeps the reduced rows of
each read (_partial_sums). They nest by construction, so the flags of
four_flags and flag_from_decomposition check dimensions only (Flag._of); a
Flag built from public input proves each containment. Records are built
only at the public API: build_tetra intersects the component tuples of
_flag_components, builds no Flag and reads each generator off one solve of
its pieces' bases (_acting_as).

Whether the nonzero P_i sum directly to the full space is decided once, by
the one elimination that already runs on them: Decomposition's rank of the
stacked bases for induced_decomposition and are_opposite, and in build_tetra
the solve of _acting_as, which refuses pieces that are no direct sum filling
the space. _induced_subspaces only intersects, and each caller maps that
refusal to the one reason _NOT_DIRECT.

An Onsager module of type (0,0) carries four distinguished flags built
from the eigenspace chains of its two generators, one per corner index 0..3.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import Record
from .errors import OppositionError, TypeShiftError
from .linalg import Matrix, Subspace, _Echelon, _echelon, _integer_columns, _reduced_echelon, _solve, intersect
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


def _acting_as(eigenvalues: Iterable[int], pieces: Sequence[Subspace]) -> Matrix:
    """The X with X B = B D, B the stacked piece bases and D their scalars:
    one solve of B^T X^T = (B D)^T, whose rows are (b, lam b). Raises
    ValueError unless the pieces sum directly to the full space."""
    rows = [b + [lam * x for x in b] for lam, piece in zip(eigenvalues, pieces) for b in _integer_columns(piece.basis)]
    return _solve(pieces[0].ambient_dim, rows).transpose()


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
        # direct and full: one rank of the stacked bases
        columns = [column for space in self.subspaces for column in _integer_columns(space.basis)]
        if len(columns) != ambient or len(_echelon(ambient, columns)) != ambient:
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
        self._check_dimensions()
        if not all(cur.contains(prev) for prev, cur in zip(self.components, self.components[1:])):
            raise ValueError("flag components must increase strictly")

    @classmethod
    def _of(cls, components: tuple[Subspace, ...]) -> "Flag":
        """The flag of partial sums, which nest by construction (_partial_sums):
        its dimensions are checked, and no containment is proved again."""
        flag = cls.__new__(cls)
        object.__setattr__(flag, "components", components)
        flag._check_dimensions()
        return flag

    def _check_dimensions(self) -> None:
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
            if prev.dim >= cur.dim:
                raise ValueError("flag components must increase strictly")

    @property
    def ambient_dim(self) -> int:
        return self.components[0].ambient_dim

    @property
    def diameter(self) -> int:
        return len(self.components) - 1


def flag_from_decomposition(dec: Decomposition) -> Flag:
    """The flag of partial sums V_0, V_0 + V_1, ..."""
    return Flag._of(_partial_sums(dec.subspaces))


def invert_decomposition(dec: Decomposition) -> Decomposition:
    return Decomposition(tuple(reversed(dec.subspaces)))


def _induced_subspaces(f: Sequence[Subspace], g: Sequence[Subspace]) -> tuple[Subspace, ...] | str:
    """The componentwise intersections F_i & G_{d-i}, or the reason when one is
    zero. Whether they sum directly to the full space is left to the one
    elimination their caller runs on them: Decomposition's rank, or the solve
    of _acting_as."""
    d = len(f) - 1
    pieces = []
    for i in range(d + 1):
        piece = intersect(f[i], g[d - i])
        if piece.is_zero():
            return f"component intersection {i} is zero"
        pieces.append(piece)
    return tuple(pieces)


# the reason for pieces that are all nonzero but no direct sum filling the space
_NOT_DIRECT = "component intersections do not sum directly to the full space"


def _require_comparable(f: Flag, g: Flag) -> None:
    if f.ambient_dim != g.ambient_dim:
        raise OppositionError("flags live in different ambient spaces")
    if f.diameter != g.diameter:
        raise OppositionError(f"flag diameters differ ({f.diameter} vs {g.diameter})")


def _induced(f: Flag, g: Flag) -> Decomposition | str:
    """The decomposition inducing f and g, or why they are not opposite: the
    intersections, then Decomposition's one rank of them."""
    _require_comparable(f, g)
    pieces = _induced_subspaces(f.components, g.components)
    if isinstance(pieces, str):
        return pieces
    try:
        return Decomposition(pieces)
    except ValueError:
        return _NOT_DIRECT


def are_opposite(f: Flag, g: Flag) -> bool:
    """True iff some decomposition induces f and its inversion induces g."""
    return not isinstance(_induced(f, g), str)


def induced_decomposition(f: Flag, g: Flag) -> Decomposition:
    """The unique decomposition inducing the opposite flags f and g."""
    result = _induced(f, g)
    if isinstance(result, str):
        raise OppositionError(f"flags are not opposite: {result}")
    return result


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
    return tuple(Flag._of(components) for components in _flag_components(spaces_a[::-1], spaces_s[::-1]))


def _flag_components(chain_a: Sequence[Subspace], chain_s: Sequence[Subspace]) -> tuple[tuple[Subspace, ...], ...]:
    """Components of flags 0..3 from the eigenspaces of A and Astar at
    -d, 2-d, ..., d: each chain summed upward, then downward."""
    return (_partial_sums(chain_a), _partial_sums(chain_a[::-1]), _partial_sums(chain_s), _partial_sums(chain_s[::-1]))
