"""Tridiagonal-pair verification.

A tridiagonal pair is an ordered pair of diagonalizable operators A, Astar
such that each acts block-tridiagonally on some ordering of the other's
eigenspaces and the two admit no common invariant subspace. Pairs whose
eigenvalue sequences are arithmetic with common difference 2 are exactly
the generator actions of irreducible Onsager modules, and that equivalence
is checked here. Irreducibility is a condition of both sides, so the check
decides it first, once, and computes the rest only for a pair that passes.

Diagonalizability is decided over Q, the working field of this package, by
linalg.diagonal_spectrum: each operator's eigenvalues are the roots of its
minimal polynomial on one vector, read by the ladder test or else by
linalg.rational_roots, whose Newton steps are bounded by the coefficients'
bits, so the time grows with an entry's digits, not its value. They are
certified when their eigenspaces fill the space, and those eigenspaces are
the ones the ordering test reads (the descending order first, else the one
the exact pattern of the other operator's joins between them decides,
_standard_ordering). Irreducibility is asked first, at a's eigenspaces,
read lazily (_irreducible_first): classify._full_algebra reads back a
verdict kept in a's memo, with no root and no eigenspace read, and on a
miss runs Norton's test at the first certified eigenspace of a, from the
top down, that is a line, else at the first ladder eigenline of astar, and
the Burnside closure only when neither offers one. So after build_tetra or
is_irreducible_burnside on the same matrices a reducible pair is refused by
check_onsager_equivalence and eigenvalue_sequences with no spectrum
computed, and a's spectrum is computed once whatever the verdict.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache
from itertools import product

from ._record import Record
from .classify import _full_algebra, _require_square_pair
from .errors import SpectrumError
from .linalg import Matrix, Subspace, annihilates, diagonal_spectrum, hstack, inverse
from .onsager import dolan_grady_holds


class TdpReport(Record):
    """Outcome of the four tridiagonal-pair axioms for one ordered pair."""

    diagonalizable_A: bool
    diagonalizable_Astar: bool
    standard_ordering_A: tuple[Fraction, ...] | None
    standard_ordering_Astar: tuple[Fraction, ...] | None
    irreducible: bool
    verdict: bool
    _fields = ("diagonalizable_A", "diagonalizable_Astar", "standard_ordering_A", "standard_ordering_Astar",
               "irreducible", "verdict")


def _block_tridiagonal_ordering(
    acting: Matrix, diagonal: Matrix, eigenvalues: Sequence[Fraction], spaces: Sequence[Subspace]
) -> bool:
    """Does `acting` map each eigenspace of `diagonal` (D), in the listed order
    of its distinct eigenvalues theta_i with their eigenspaces, into the sum
    of it and its neighbors?

    That sum is the kernel of (D - theta_{i-1})(D - theta_i)(D - theta_{i+1})
    (linalg.annihilates), so with P_i the basis of the eigenspace at theta_i
    the test is that this product kills block i of acting * P.
    """
    if not spaces:  # a 0 x 0 operator has no eigenspace to move
        return True
    blocks = [(space.dim, eigenvalues[max(i - 1, 0) : i + 2]) for i, space in enumerate(spaces)]
    return all(annihilates(diagonal, acting * hstack(*(space.basis for space in spaces)), blocks))


def _standard_ordering(acting: Matrix, diagonal: Matrix, eigenvalues: Sequence[Fraction],
                       spaces: Sequence[Subspace]) -> tuple[Fraction, ...] | None:
    """An ordering of the eigenvalues of `diagonal` on which `acting` is block
    tridiagonal, or None. The descending one is tried first. Otherwise E_i and
    E_j are joined when block (i, j) or (j, i) of acting in the eigenbasis is
    nonzero. An order exists exactly when the joins form disjoint paths; a path
    reversed keeps its joins, so each is read from its larger end, larger first.
    That order is block tridiagonal as read: the exact pattern holds every
    nonzero block, and each join is between neighbors on one path."""
    if _block_tridiagonal_ordering(acting, diagonal, eigenvalues, spaces):
        return tuple(eigenvalues)
    basis = hstack(*(space.basis for space in spaces))
    block = inverse(basis) * acting * basis
    owner = [i for i, space in enumerate(spaces) for _ in range(space.dim)]
    nonzero = {(owner[p], owner[q]) for p, q in product(range(block.rows), repeat=2) if block[p, q]}
    joins = [{j for j in range(len(spaces)) if j != i and {(i, j), (j, i)} & nonzero} for i in range(len(spaces))]
    if any(len(joined) > 2 for joined in joins):
        return None
    order = []  # each path walked from its end not yet reached, the larger ends first
    for end in sorted((i for i, joined in enumerate(joins) if len(joined) < 2), key=lambda i: -eigenvalues[i]):
        step, previous = (None if end in order else end), None
        while step is not None:
            order.append(step)
            step, previous = next(iter(joins[step] - {previous}), None), step
    if len(order) < len(spaces):  # the rest are cycles
        return None
    return tuple(eigenvalues[i] for i in order)


def _report(a: Matrix, astar: Matrix, spec_a, irreducible: bool) -> TdpReport:
    """The four axioms, given a's spectrum and the irreducibility verdict."""
    spec_s = diagonal_spectrum(astar)
    ordering_a = None if spec_a is None else _standard_ordering(astar, a, *spec_a)
    ordering_s = None if spec_s is None else _standard_ordering(a, astar, *spec_s)
    verdict = ordering_a is not None and ordering_s is not None and irreducible
    return TdpReport(
        diagonalizable_A=spec_a is not None,
        diagonalizable_Astar=spec_s is not None,
        standard_ordering_A=ordering_a,
        standard_ordering_Astar=ordering_s,
        irreducible=irreducible,
        verdict=verdict,
    )


def _irreducible_first(a: Matrix, astar: Matrix) -> tuple[bool, Callable[[], tuple | None]]:
    """Whether (a, astar) generates End(V), asked before a's spectrum is read,
    and a's diagonal spectrum, computed at most once. _full_algebra reads a's
    (eigenvalue, eigenspace) pairs lazily, so a verdict kept in a's memo reads
    no root and no eigenspace, and a miss reads the certified pairs of
    diagonal_spectrum(a), as the report then does. The pair's shape is checked
    first, before any other work."""
    _require_square_pair(a, astar)
    spectrum_a = cache(lambda: diagonal_spectrum(a))

    def pairs():
        yield from zip(*(spectrum_a() or ((), ())))

    return _full_algebra(a, astar, pairs()), spectrum_a


def verify_tridiagonal_pair(a: Matrix, astar: Matrix) -> TdpReport:
    """Check all four tridiagonal-pair axioms for (a, astar). Irreducibility is
    decided at a's diagonal spectrum (see the module docstring)."""
    irreducible, spectrum_a = _irreducible_first(a, astar)
    return _report(a, astar, spectrum_a(), irreducible)


def _is_arithmetic_step_two(seq: tuple[Fraction, ...]) -> bool:
    return all(seq[i - 1] - seq[i] == 2 for i in range(1, len(seq)))


def eigenvalue_sequences(a: Matrix, astar: Matrix) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Descending eigenvalue sequence and dual sequence of a tridiagonal pair.

    Raises ValueError when (a, astar) is no tridiagonal pair, on a reducible
    pair before a's spectrum is read (_irreducible_first), and SpectrumError
    when either sequence is not arithmetic with common difference 2 (a pair
    outside this package's scope).
    """
    irreducible, spectrum_a = _irreducible_first(a, astar)
    report = _report(a, astar, spectrum_a(), True) if irreducible else None
    if report is None or not report.verdict:
        raise ValueError("not a tridiagonal pair")
    seq = report.standard_ordering_A
    dual = report.standard_ordering_Astar
    for name, s in (("eigenvalue", seq), ("dual eigenvalue", dual)):
        if not _is_arithmetic_step_two(s):
            raise SpectrumError(f"{name} sequence {tuple(map(str, s))} is not arithmetic with difference 2")
    return seq, dual


def check_onsager_equivalence(a: Matrix, astar: Matrix) -> bool:
    """Equivalence test: [tridiagonal pair with both sequences arithmetic-2]
    against [both Dolan-Grady relations hold and the pair generates the full
    matrix algebra].

    Irreducibility is a condition of both sides, so it is decided first: on
    a pair that does not generate End(V) both sides are false and the
    equivalence holds, with no ordering and no Dolan-Grady relation computed,
    no spectrum of astar, and no spectrum of a where a's memo keeps the
    verdict (_irreducible_first). Otherwise both sides are computed in full,
    on a's spectrum and the one irreducibility verdict.
    """
    irreducible, spectrum_a = _irreducible_first(a, astar)
    if not irreducible:
        return True
    report = _report(a, astar, spectrum_a(), True)
    side_tdp = (
        report.verdict
        and _is_arithmetic_step_two(report.standard_ordering_A)
        and _is_arithmetic_step_two(report.standard_ordering_Astar)
    )
    return side_tdp == dolan_grady_holds(a, astar)
