from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from tetrabox import (
    Decomposition,
    Flag,
    Matrix,
    ModuleSpec,
    OppositionError,
    Subspace,
    TypeShiftError,
    are_opposite,
    build_from_spec,
    evaluation_module,
    flag_from_decomposition,
    four_flags,
    induced_decomposition,
    intersect,
    invert_decomposition,
    subspace_sum,
)
from tetrabox.flags import _partial_sums
from tetrabox.onsager import _module_spectra


def line(*coords):
    return Subspace.span_columns(Matrix.from_rows([list(coords)]).transpose())


E1, E2 = line(1, 0), line(0, 1)
V22 = evaluation_module(1, F(2))  # A = swap, Astar = [[0,2],[1/2,0]]


class TestConstruction:
    def test_single_subspace_decomposition(self):
        dec = Decomposition((Subspace.full(2),))
        flag = flag_from_decomposition(dec)
        assert flag.components == (Subspace.full(2),)

    def test_axes(self):
        flag = flag_from_decomposition(Decomposition((E1, E2)))
        assert flag.components == (E1, Subspace.full(2))

    def test_eigen_decomposition(self):
        dec = Decomposition((line(1, -1), line(1, 1)))  # eigenvalues -1, 1 of the swap
        flag = flag_from_decomposition(dec)
        assert flag.components == (line(1, -1), Subspace.full(2))

    def test_decomposition_validation(self):
        with pytest.raises(ValueError):
            Decomposition((E1, E1))  # not direct
        with pytest.raises(ValueError):
            Decomposition((E1,))  # does not fill the space
        with pytest.raises(ValueError):
            Decomposition((E1, Subspace.zero(2), E2))  # zero piece

    def test_flag_validation(self):
        with pytest.raises(ValueError):
            Flag((Subspace.zero(2), Subspace.full(2)))  # zero first component
        with pytest.raises(ValueError):
            Flag((E1,))  # does not end at the full space
        with pytest.raises(ValueError):
            Flag((E1, E2))  # not increasing


class TestInversion:
    def test_single(self):
        dec = Decomposition((Subspace.full(2),))
        assert invert_decomposition(dec) == dec

    def test_swap(self):
        dec = Decomposition((E1, E2))
        assert invert_decomposition(dec).subspaces == (E2, E1)

    def test_involution(self):
        dec = Decomposition((E1, E2))
        assert invert_decomposition(invert_decomposition(dec)) == dec


class TestOpposition:
    def test_decomposition_and_inversion_induce_opposite_flags(self):
        dec = Decomposition((E1, E2))
        f = flag_from_decomposition(dec)
        g = flag_from_decomposition(invert_decomposition(dec))
        assert are_opposite(f, g)
        assert are_opposite(g, f)

    def test_flag_not_opposite_to_itself(self):
        f = flag_from_decomposition(Decomposition((E1, E2)))
        assert not are_opposite(f, f)

    def test_module_flags(self):
        flags = four_flags(V22)
        assert are_opposite(flags[0], flags[1])

    def test_diameter_mismatch(self):
        f = flag_from_decomposition(Decomposition((E1, E2)))
        g = Flag((Subspace.full(2),))
        with pytest.raises(OppositionError):
            are_opposite(f, g)


class TestInducedDecomposition:
    def test_recovers_the_inducing_decomposition(self):
        dec = Decomposition((E1, E2))
        f = flag_from_decomposition(dec)
        g = flag_from_decomposition(invert_decomposition(dec))
        assert induced_decomposition(f, g) == dec

    def test_module_flags_01(self):
        flags = four_flags(V22)
        dec = induced_decomposition(flags[0], flags[1])
        assert dec.subspaces == (line(1, -1), line(1, 1))

    def test_module_flags_02(self):
        flags = four_flags(V22)
        dec = induced_decomposition(flags[0], flags[2])
        assert dec.subspaces == (line(1, -1), line(-2, 1))

    def test_not_opposite_raises(self):
        f = flag_from_decomposition(Decomposition((E1, E2)))
        with pytest.raises(OppositionError):
            induced_decomposition(f, f)

    def test_roundtrip_is_bit_exact(self):
        flags = four_flags(build_from_spec(ModuleSpec.of([(1, 2), (1, 3)])))
        for f, g in combinations(flags, 2):
            dec = induced_decomposition(f, g)
            assert flag_from_decomposition(dec) == f
            assert flag_from_decomposition(invert_decomposition(dec)) == g


class TestFourFlags:
    def test_trivial_module(self):
        from tetrabox import trivial_module

        flags = four_flags(trivial_module())
        assert all(flag.components == (Subspace.full(1),) for flag in flags)

    def test_dim_two_starting_lines(self):
        flags = four_flags(V22)
        assert flags[0].components[0] == line(1, -1)
        assert flags[1].components[0] == line(1, 1)
        assert flags[2].components[0] == line(-2, 1)
        assert flags[3].components[0] == line(2, 1)

    def test_component_dimensions(self):
        m = build_from_spec(ModuleSpec.of([(1, 2), (1, 3)]))
        flags = four_flags(m)
        for flag in flags:
            assert tuple(c.dim for c in flag.components) == (1, 3, 4)

    def test_shifted_module_rejected(self):
        m = build_from_spec(ModuleSpec.of([(1, 2)], shift=(3, 0)))
        with pytest.raises(TypeShiftError):
            four_flags(m)

    def test_mutual_opposition_and_zero_intersections(self):
        m = build_from_spec(ModuleSpec.of([(2, 2), (1, 3)]))
        flags = four_flags(m)
        d = flags[0].diameter
        for f, g in combinations(flags, 2):
            assert are_opposite(f, g)
            for i in range(d + 1):
                for j in range(d + 1):
                    if i + j < d:
                        assert intersect(f.components[i], g.components[j]).is_zero()


def reference_induced(f, g):
    """The intersections, running sums and rebuilt flags route to opposition."""
    d, n = f.diameter, f.ambient_dim
    pieces, running, total = [], Subspace.zero(n), 0
    for i in range(d + 1):
        piece = intersect(f.components[i], g.components[d - i])
        if piece.is_zero():
            return f"component intersection {i} is zero"
        pieces.append(piece)
        total += piece.dim
        running = subspace_sum(running, piece)
    if total != n or running.dim != n:
        return "component intersections do not sum directly to the full space"
    dec = Decomposition(tuple(pieces))
    if flag_from_decomposition(dec) != f:
        return "partial sums do not reproduce the first flag"
    if flag_from_decomposition(invert_decomposition(dec)) != g:
        return "inverted partial sums do not reproduce the second flag"
    return dec.subspaces


@st.composite
def compositions(draw, n, parts):
    """Dimensions of `parts` nonzero pieces summing to n."""
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=parts - 1, max_size=parts - 1)))
    return [b - a for a, b in zip([0, *cuts], [*cuts, n])]


@st.composite
def decompositions(draw, dims):
    """The columns of a random invertible matrix, cut into blocks of the given sizes.

    The matrix is a unit lower times a unit upper triangular matrix, with
    its columns permuted, so its determinant is +-1.
    """
    n = sum(dims)
    entries = st.integers(-2, 2)
    lower = [[draw(entries) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[draw(entries) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    basis = Matrix.from_rows(lower) * Matrix.from_rows(upper)
    order = draw(st.permutations(range(n)))
    columns = [basis.col_list(j) for j in order]
    pieces, start = [], 0
    for k in dims:
        block = Matrix.from_rows(columns[start:start + k]).transpose()
        pieces.append(Subspace.span_columns(block))
        start += k
    return Decomposition(tuple(pieces))


@st.composite
def flag_pairs(draw):
    n = draw(st.integers(2, 5))
    parts = draw(st.integers(1, n))
    dims = draw(compositions(n, parts))
    f_dec = draw(decompositions(dims))
    case = draw(st.sampled_from(["reverse", "self", "unrelated", "mismatched"]))
    if case == "reverse":
        g_dec = invert_decomposition(f_dec)
    elif case == "self":
        g_dec = f_dec
    else:
        other = draw(compositions(n, parts))
        if case == "mismatched":
            assume(other != dims)
        g_dec = draw(decompositions(other))
    return flag_from_decomposition(f_dec), flag_from_decomposition(g_dec)


class TestOppositionDifferential:
    @settings(max_examples=200, deadline=None)
    @given(flag_pairs())
    def test_agrees_with_reference(self, pair):
        f, g = pair
        expected = reference_induced(f, g)
        assert are_opposite(f, g) == (not isinstance(expected, str))
        if isinstance(expected, str):
            with pytest.raises(OppositionError) as info:
                induced_decomposition(f, g)
            assert str(info.value) == f"flags are not opposite: {expected}"
        else:
            assert induced_decomposition(f, g).subspaces == expected

    @pytest.mark.parametrize("factors", [[(1, 2), (1, 3)], [(3, 2), (3, 3)]])
    def test_other_order_reverses_the_pieces(self, factors):
        flags = four_flags(build_from_spec(ModuleSpec.of(factors)))
        for r, s in permutations(range(4), 2):
            forward = induced_decomposition(flags[r], flags[s]).subspaces
            assert induced_decomposition(flags[s], flags[r]).subspaces == forward[::-1]


def running_sums(spaces):
    """The partial sums by a running subspace_sum, one sum per step: the reference."""
    running, sums = Subspace.zero(spaces[0].ambient_dim), []
    for space in spaces:
        running = subspace_sum(running, space)
        sums.append(running)
    return tuple(sums)


class TestPartialSums:
    def test_grid_chains_in_both_directions(self, grid_modules):
        for spec, m in grid_modules.items():
            for chain in _module_spectra(m)[3:]:
                assert _partial_sums(chain) == running_sums(chain), spec.factors
                assert _partial_sums(chain[::-1]) == running_sums(chain[::-1]), spec.factors

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_drawn_decompositions(self, data):
        n = data.draw(st.integers(2, 6))
        dims = data.draw(compositions(n, data.draw(st.integers(1, n))))
        spaces = data.draw(decompositions(dims)).subspaces
        assert _partial_sums(spaces) == running_sums(spaces)
        # the sums need not be direct: a repeated piece adds nothing
        assert _partial_sums(spaces + spaces[:1]) == running_sums(spaces + spaces[:1])
