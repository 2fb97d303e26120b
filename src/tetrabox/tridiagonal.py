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
minimal polynomial on one vector, certified when their eigenspaces fill the
space, and those eigenspaces are the ones the ordering test reads.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from ._record import Record
from .classify import _full_algebra_with_top, _require_square_pair
from .errors import SpectrumError
from .linalg import Matrix, Subspace, annihilates, diagonal_spectrum, hstack
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


def _irreducible(a: Matrix, astar: Matrix, spec_a) -> bool:
    """Norton's verdict at the top of a's spectrum, read off its eigenspace
    there, which spec_a (diagonal_spectrum(a)) already holds."""
    top, line = (spec_a[0][0], spec_a[1][0]) if spec_a and spec_a[0] else (None, None)
    return _full_algebra_with_top(a, astar, top, line)


def _report(a: Matrix, astar: Matrix, spec_a, irreducible: bool) -> TdpReport:
    """The four axioms, given a's spectrum and the irreducibility verdict."""
    spec_s = diagonal_spectrum(astar)
    ordering_a = None
    ordering_s = None
    # only the descending ordering is tried: reversing an ordering keeps every
    # eigenspace's neighbors, so the reverse passes exactly when it does
    if spec_a is not None and _block_tridiagonal_ordering(astar, a, *spec_a):
        ordering_a = spec_a[0]
    if spec_s is not None and _block_tridiagonal_ordering(a, astar, *spec_s):
        ordering_s = spec_s[0]
    verdict = ordering_a is not None and ordering_s is not None and irreducible
    return TdpReport(
        diagonalizable_A=spec_a is not None,
        diagonalizable_Astar=spec_s is not None,
        standard_ordering_A=ordering_a,
        standard_ordering_Astar=ordering_s,
        irreducible=irreducible,
        verdict=verdict,
    )


def verify_tridiagonal_pair(a: Matrix, astar: Matrix) -> TdpReport:
    """Check all four tridiagonal-pair axioms for (a, astar). Irreducibility is
    decided as in classify.pair_generates_full_algebra."""
    _require_square_pair(a, astar)
    spec_a = diagonal_spectrum(a)
    return _report(a, astar, spec_a, _irreducible(a, astar, spec_a))


def _is_arithmetic_step_two(seq: tuple[Fraction, ...]) -> bool:
    return all(seq[i - 1] - seq[i] == 2 for i in range(1, len(seq)))


def eigenvalue_sequences(a: Matrix, astar: Matrix) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Descending eigenvalue sequence and dual sequence of a tridiagonal pair.

    Raises SpectrumError when either sequence is not arithmetic with common
    difference 2 (a pair outside this package's scope).
    """
    report = verify_tridiagonal_pair(a, astar)
    if not report.verdict:
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
    equivalence holds, with no spectrum of astar, no ordering and no
    Dolan-Grady relation computed. Otherwise both sides are computed in full,
    on a's spectrum and the one irreducibility verdict.
    """
    _require_square_pair(a, astar)
    spec_a = diagonal_spectrum(a)
    if not _irreducible(a, astar, spec_a):
        return True
    report = _report(a, astar, spec_a, True)
    side_tdp = (
        report.verdict
        and _is_arithmetic_step_two(report.standard_ordering_A)
        and _is_arithmetic_step_two(report.standard_ordering_Astar)
    )
    return side_tdp == dolan_grady_holds(a, astar)
