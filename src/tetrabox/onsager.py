"""Construction of Onsager-algebra module data from sl2 evaluation data.

An Onsager module is a pair of square matrices (A, Astar) giving the actions
of the two standard generators. Modules are built from weight-basis sl2
representations, turned into evaluation modules A = e + f, Astar = a e + a^-1 f,
and combined by tensor products (Kronecker sums). The diameter d and the
type shift (alpha, alphastar) describe the spectra {d - 2i + alpha} and
{d - 2i + alphastar} of the two generators.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from ._record import Record
from .errors import SpectrumError
from .linalg import Matrix, Subspace, commutator, kron, ladder_spectrum, require_within_guard

Q0 = Fraction(0)
Q1 = Fraction(1)


class Sl2Triple(Record):
    """Matrices of e, f, h acting on a weight-basis sl2 module."""

    e: Matrix
    f: Matrix
    h: Matrix
    _fields = ("e", "f", "h")

    @property
    def dim(self) -> int:
        return self.h.rows

    def brackets_hold(self) -> bool:
        """Exact check of [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
        return (
            commutator(self.e, self.f) == self.h
            and commutator(self.h, self.e) == 2 * self.e
            and commutator(self.h, self.f) == (-2) * self.f
        )


def sl2_irreducible(n: int) -> Sl2Triple:
    """The (n+1)-dimensional irreducible sl2 module in the weight basis.

    Basis v_0, ..., v_n with h v_i = (n-2i) v_i, f v_i = v_{i+1} and
    e v_i = i(n-i+1) v_{i-1}; all entries are integers.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = n + 1
    e = [[Q0] * m for _ in range(m)]
    f = [[Q0] * m for _ in range(m)]
    h = [[Q0] * m for _ in range(m)]
    for i in range(m):
        h[i][i] = Fraction(n - 2 * i)
        if i + 1 <= n:
            f[i + 1][i] = Q1
        if i >= 1:
            e[i - 1][i] = Fraction(i * (n - i + 1))
    return Sl2Triple(Matrix.from_rows(e), Matrix.from_rows(f), Matrix.from_rows(h))


class OnsagerModule(Record):
    """Actions A, Astar of the two standard Onsager generators on Q^dim.

    The module is its matrices: equality and hash compare dim, A and Astar
    only, whatever built them. Its diameter and type are facts of the
    matrices, derived by module_type.
    """

    dim: int
    A: Matrix
    Astar: Matrix
    _fields = ("dim", "A", "Astar")

    def __post_init__(self):
        if not (self.A.is_square and self.Astar.is_square):
            raise ValueError("generator actions must be square matrices")
        if self.A.rows != self.dim or self.Astar.rows != self.dim:
            raise ValueError("generator size does not match module dimension")


class ModuleSpec(Record):
    """Serializable identity of a module: evaluation factors plus a type shift.

    Each factor (n, a) stands for the (n+1)-dimensional evaluation module
    with nonzero evaluation parameter a; n = 0 gives the trivial factor.
    """

    factors: tuple[tuple[int, Fraction], ...]
    shift: tuple[Fraction, Fraction] = (Q0, Q0)
    _fields = ("factors", "shift")

    def __post_init__(self):
        for n, a in self.factors:
            if n < 0:
                raise ValueError("factor weight must be nonnegative")
            if a == 0:
                raise ValueError("evaluation parameter must be nonzero")

    @classmethod
    def of(cls, factors: Sequence[tuple[int, object]], shift=(0, 0)) -> "ModuleSpec":
        fs = tuple((int(n), Fraction(a)) for n, a in factors)
        return cls(fs, (Fraction(shift[0]), Fraction(shift[1])))

    @property
    def dim(self) -> int:
        d = 1
        for n, _ in self.factors:
            d *= n + 1
        return d

    @property
    def degree_sum(self) -> int:
        return sum(n for n, _ in self.factors)


def evaluation_module(n: int, a) -> OnsagerModule:
    """Evaluation module of dimension n+1: A = e + f, Astar = a e + a^-1 f."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("evaluation parameter must be nonzero")
    triple = sl2_irreducible(n)
    A = triple.e + triple.f
    Astar = a * triple.e + (1 / a) * triple.f
    return OnsagerModule(n + 1, A, Astar)


def trivial_module() -> OnsagerModule:
    """The unique one-dimensional module of type (0,0)."""
    return evaluation_module(0, 1)


def kronecker_sum(a: Matrix, b: Matrix) -> Matrix:
    return kron(a, Matrix.identity(b.rows)) + kron(Matrix.identity(a.rows), b)


def tensor(m1: OnsagerModule, m2: OnsagerModule) -> OnsagerModule:
    """Tensor product module: each generator acts as a Kronecker sum."""
    A = kronecker_sum(m1.A, m2.A)
    Astar = kronecker_sum(m1.Astar, m2.Astar)
    return OnsagerModule(m1.dim * m2.dim, A, Astar)


def build_from_spec(spec: ModuleSpec) -> OnsagerModule:
    """Left-fold tensor of the evaluation factors, then apply the type shift.

    The module has diameter spec.degree_sum and type spec.shift, which
    module_type recomputes from the matrices: each factor (n, a) has A and
    Astar diagonalizable with spectrum {n, n-2, ..., -n}, and a Kronecker
    sum of diagonalizable matrices is diagonalizable with the sums of their
    eigenvalues. A spec above the dimension guard is refused before any
    factor is built.
    """
    require_within_guard(spec.dim, "module dimension")
    module = None
    for n, a in spec.factors:
        factor = evaluation_module(n, a)
        module = factor if module is None else tensor(module, factor)
    if module is None:
        module = trivial_module()
    alpha, alphastar = spec.shift
    if alpha or alphastar:
        ident = Matrix.identity(module.dim)
        module = OnsagerModule(module.dim, module.A + alpha * ident, module.Astar + alphastar * ident)
    return module


# the refusal of a generator that is not diagonalizable with spectrum c, c-2, ..., c-2d
_NOT_A_LADDER = (
    "spectrum is not of the form {c, c-2, ..., c-2d} with the matrix "
    "diagonalizable; not an irreducible Onsager module candidate"
)


def _generator_spectrum(m: Matrix) -> tuple[tuple[Fraction, ...], tuple[Subspace, ...]]:
    """The eigenvalues c, c-2, ..., c-2d of a generator m and its eigenspaces
    at them (linalg.ladder_spectrum); SpectrumError when m is not
    diagonalizable over Q with such a spectrum, or is 0 x 0."""
    if m.rows == 0:
        raise SpectrumError("scalar spectrum could not be extracted")
    spectrum = ladder_spectrum(m)
    if spectrum is None:
        raise SpectrumError(_NOT_A_LADDER)
    return spectrum


def _module_spectra(m: OnsagerModule) -> tuple[int, Fraction, Fraction, tuple[Subspace, ...], tuple[Subspace, ...]]:
    """module_type of m, with the eigenspaces of A and of Astar at their
    eigenvalues c, c-2, ..., c-2d from the same spectral pass."""
    values_a, spaces_a = _generator_spectrum(m.A)
    values_s, spaces_s = _generator_spectrum(m.Astar)
    d_a, d_s = len(values_a) - 1, len(values_s) - 1
    if d_a != d_s:
        raise SpectrumError(f"generator spectra have different lengths ({d_a + 1} vs {d_s + 1})")
    return d_a, values_a[0] - d_a, values_s[0] - d_s, spaces_a, spaces_s


def module_type(m: OnsagerModule) -> tuple[int, Fraction, Fraction]:
    """Diameter d and type (alpha, alphastar) of a module candidate.

    Each generator's distinct eigenvalues must step down by 2 from a top c:
    linalg.ladder_spectrum reads them by the ladder test off its minimal
    polynomial on one vector, certified by their eigenspaces, or off its
    minimal polynomial when those fall short. Then d + 1 is their number
    and c - d the type. Raises SpectrumError when either generator is not
    diagonalizable over Q with a spectrum of the form {c, c-2, ..., c-2d}
    (a 0 x 0 generator has no spectrum), or when the two diameters differ.
    """
    return _module_spectra(m)[:3]


def normalize_type(m: OnsagerModule) -> OnsagerModule:
    """The module with both generators shifted to type (0,0); a module of
    type (0,0) comes back equal to m."""
    _, alpha, alphastar = module_type(m)
    ident = Matrix.identity(m.dim)
    return OnsagerModule(m.dim, m.A - alpha * ident, m.Astar - alphastar * ident)


def _dolan_grady_residual(x: Matrix, inner: Matrix) -> Matrix:
    """[x, [x, [x, y]]] - 4 [x, y], given inner = [x, y]."""
    return commutator(x, commutator(x, inner)) - 4 * inner


def dolan_grady_holds(x: Matrix, y: Matrix) -> bool:
    """Exact check of both Dolan-Grady relations for the pair (x, y)."""
    xy = commutator(x, y)
    return _dolan_grady_residual(x, xy).is_zero() and _dolan_grady_residual(y, -xy).is_zero()
