"""Record against the frozen dataclass it replaces.

Each record class gets a twin from dataclasses.make_dataclass: the same
field names, the class's own methods (its __post_init__, its properties,
the own __init__ of Matrix and Subspace, which a dataclass keeps) and
frozen=True, with eq=False for TetraModule. That is the class as it read
with @dataclass. Record and twin are built from the same values, taken
from grid builds and drawn by Hypothesis, and must agree on ==, hash, repr
and the exception each construction raises.
"""

import dataclasses
from fractions import Fraction as F
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from tetrabox import (
    Decomposition,
    EigenTable,
    Flag,
    Matrix,
    ModuleSpec,
    OnsagerModule,
    Sl2Triple,
    Subspace,
    TdpReport,
    TetraModule,
    VerificationReport,
    build_from_spec,
    build_tetra,
    eigentable,
    flag_independence_check,
    four_flags,
    induced_decomposition,
    sl2_irreducible,
    verify_action_table,
    verify_relations,
    verify_tridiagonal_pair,
)
from tetrabox.tetra import ORDERED_PAIRS, CheckResult, _verify

from corpus import grids

RECORDS = (
    Matrix,
    Subspace,
    Decomposition,
    Flag,
    Sl2Triple,
    OnsagerModule,
    ModuleSpec,
    CheckResult,
    VerificationReport,
    EigenTable,
    TetraModule,
    TdpReport,
)

# what Record supplies or Python adds to every class body; the rest is the class's own
_NOT_OWN = {"_fields", "_key", "_defaults", "__module__", "__qualname__", "__doc__", "__dict__", "__weakref__",
            "__eq__", "__hash__"}


def dataclass_twin(cls):
    namespace = {name: value for name, value in vars(cls).items() if name not in _NOT_OWN}
    return dataclasses.make_dataclass(cls.__name__, list(cls._fields), namespace=namespace, frozen=True,
                                      eq=cls is not TetraModule)


TWINS = {cls: dataclass_twin(cls) for cls in RECORDS}


def outcome(call):
    """The value of call(), or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # the exception's type is what is compared
        return type(exc)


def construction_args(record) -> tuple:
    """Positional arguments that rebuild record through its class."""
    if isinstance(record, Matrix):
        return record.rows, record.cols, record.entries
    return tuple(getattr(record, name) for name in record._fields)


def calls(cls, args: tuple) -> list[tuple[tuple, dict]]:
    """The call itself, by keyword and mixed, and the three malformed calls."""
    names = ("rows", "cols", "entries") if cls is Matrix else cls._fields
    by_name = dict(zip(names, args))
    return [
        (args, {}),
        ((), by_name),
        (args[:1], dict(list(by_name.items())[1:])),
        (args[:-1], {}),  # a missing field, unless the last one has a default
        (args[:len(names) - 1 - (cls in (ModuleSpec, CheckResult))], {}),  # a missing field
        (args, {"bogus": 1}),  # an unknown keyword
        ((*args, None), {}),  # too many positional values
        (args, {names[0]: args[0]}),  # one field twice
    ]


def assert_agree(cls, arg_tuples):
    twin = TWINS[cls]
    built = []
    for args in arg_tuples:
        for a, kw in calls(cls, args):
            record, copy = outcome(lambda: cls(*a, **kw)), outcome(lambda: twin(*a, **kw))
            if isinstance(copy, type):
                assert record is copy, (cls.__name__, a, kw)
                continue
            assert type(record) is cls
            assert repr(record) == repr(copy)
            if cls is not TetraModule:
                assert outcome(lambda: hash(record)) == outcome(lambda: hash(copy))
            built.append((record, copy))
    others = [other for other in (None, (), 0, Matrix.identity(1), ModuleSpec(((1, F(2)),))) if type(other) is not cls]
    for r1, t1 in built:
        assert r1 == r1 and t1 == t1
        assert (r1 == t1) is False and (t1 == r1) is False
        for other in others + [construction_args(r1), tuple(getattr(r1, name) for name in cls._fields)]:
            assert (r1 == other) == (t1 == other) and (r1 != other) == (t1 != other)
        for r2, t2 in built:
            assert (r1 == r2) == (t1 == t2) and (r1 != r2) == (t1 != t2)
    return built


def assert_frozen(record):
    for name in (*record._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


# -- grid-built values ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid_records(relation_suite_specs, grid_specs):
    """Records of every class, as the library builds them, grouped by class."""
    found = {cls: [] for cls in RECORDS}

    def add(*records):
        for record in records:
            found[type(record)].append(record)

    for spec in relation_suite_specs + grid_specs[::9]:
        module = build_from_spec(spec)
        add(spec, module, module.A, module.Astar, verify_tridiagonal_pair(module.A, module.Astar))
        if len(spec.factors) == 1:
            add(sl2_irreducible(spec.factors[0][0]))
        try:
            tetra = build_tetra(module)
        except Exception:  # a reducible spec builds no tetra
            continue
        flags = four_flags(module)
        tampered = dict(tetra.x)
        tampered[(0, 2)] = tampered[(0, 2)] + Matrix.identity(tetra.dim)
        report = verify_relations(TetraModule(tetra.dim, tetra.diameter, tampered))
        add(tetra, *flags, *flags[0].components, induced_decomposition(flags[0], flags[2]), eigentable(tetra),
            report, *report.checks[:3], *report.failures()[:3])
    assert all(found.values()), [cls.__name__ for cls, records in found.items() if not records]
    assert any(check.residual is not None for check in found[CheckResult])
    return found


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_grid_built_records_agree_with_their_dataclass(cls, grid_records):
    records = grid_records[cls][:6]
    built = assert_agree(cls, [construction_args(record) for record in records])
    assert built
    for record in records:
        assert_frozen(record)
        if cls is not TetraModule:
            rebuilt = cls(*construction_args(record))
            assert rebuilt == record and repr(rebuilt) == repr(record)
            assert outcome(lambda: hash(rebuilt)) == outcome(lambda: hash(record))


# -- drawn values -----------------------------------------------------------------------------

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 3)) if rows is None else rows
    cols = draw(st.integers(0, 3)) if cols is None else cols
    return draw(grids(rows, cols, fractions))


def coordinate_space(n: int, indices) -> Subspace:
    return Subspace.span_columns(Matrix.from_rows([[int(i == j) for j in indices] for i in range(n)])
                                 if indices else Matrix.zeros(n, 0))


@st.composite
def coordinate_chains(draw):
    """Coordinate subspaces of Q^n: the blocks of a drawn split of a drawn order of the axes."""
    n = draw(st.integers(1, 4))
    axes = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0, *cuts, n]
    return n, axes, bounds


@st.composite
def decomposition_args(draw):
    n, axes, bounds = draw(coordinate_chains())
    spaces = [coordinate_space(n, axes[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    spaces = draw(st.sampled_from([spaces, spaces[:-1], spaces + spaces[:1], [coordinate_space(n, [])] + spaces,
                                   spaces + [Subspace.zero(n + 1)], []]))
    return (tuple(spaces),)


@st.composite
def flag_args(draw):
    n, axes, bounds = draw(coordinate_chains())
    spaces = [coordinate_space(n, axes[:hi]) for hi in bounds[1:]]
    spaces = draw(st.sampled_from([spaces, spaces[:-1], spaces[::-1], spaces + spaces[-1:],
                                   [coordinate_space(n, [])] + spaces, [Subspace.full(n + 1)], []]))
    return (tuple(spaces),)


@st.composite
def subspace_args(draw):
    n = draw(st.integers(0, 3))
    return n, draw(matrices(rows=draw(st.sampled_from([n, n, n + 1]))))


@st.composite
def onsager_args(draw):
    n = draw(st.integers(0, 2))
    side = st.sampled_from([n, n, n, n + 1])
    return n, draw(matrices(draw(side), draw(side))), draw(matrices(draw(side), draw(side)))


@st.composite
def tetra_args(draw):
    n = draw(st.integers(1, 2))
    x = {pair: draw(matrices(n, n)) for pair in ORDERED_PAIRS}
    x = draw(st.sampled_from([x, x, {**x, (0, 1): Matrix.identity(n + 1)}, dict(list(x.items())[1:])]))
    return n, draw(st.integers(0, 3)), x


checks = st.builds(CheckResult, st.text(max_size=3), st.tuples(st.integers(0, 3)), st.booleans(),
                   st.none() | matrices())
orderings = st.none() | st.lists(fractions, max_size=3).map(tuple)

ARGS = {
    Matrix: st.tuples(st.integers(0, 3), st.integers(0, 3), st.lists(fractions, max_size=9)),
    Subspace: subspace_args(),
    Decomposition: decomposition_args(),
    Flag: flag_args(),
    Sl2Triple: st.tuples(matrices(), matrices(), matrices()),
    OnsagerModule: onsager_args(),
    ModuleSpec: st.tuples(st.lists(st.tuples(st.integers(-1, 3), fractions), max_size=3).map(tuple))
    | st.tuples(st.lists(st.tuples(st.integers(0, 3), fractions), max_size=3).map(tuple),
                st.tuples(fractions, fractions)),
    CheckResult: st.tuples(st.text(max_size=3), st.tuples(st.integers(0, 3)), st.booleans())
    | st.tuples(st.text(max_size=3), st.tuples(st.integers(0, 3)), st.booleans(), st.none() | matrices()),
    VerificationReport: st.tuples(st.lists(checks, max_size=3).map(tuple)),
    EigenTable: st.tuples(st.lists(fractions, max_size=3).map(tuple),
                          st.dictionaries(st.sampled_from(ORDERED_PAIRS), st.tuples(st.integers(0, 3)), max_size=2),
                          st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    TetraModule: tetra_args(),
    TdpReport: st.tuples(st.booleans(), st.booleans(), orderings, orderings, st.booleans(), st.booleans()),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_drawn_records_agree_with_their_dataclass(cls, data):
    arg_tuples = [data.draw(ARGS[cls]) for _ in range(3)]
    for record, _ in assert_agree(cls, arg_tuples):
        assert_frozen(record)


# -- the rest of the contract -----------------------------------------------------------------

V = ModuleSpec.of([(1, 2), (1, 3)])
M2 = Matrix.identity(2)

POST_INIT_REFUSALS = [
    (lambda: Matrix(-1, 0, []), "nonnegative"),
    (lambda: Subspace(3, M2), "basis rows"),
    (lambda: Decomposition(()), "at least one"),
    (lambda: Decomposition((Subspace.full(2), Subspace.full(3))), "ambient dimension"),
    (lambda: Decomposition((Subspace.full(2), Subspace.zero(2))), "nonzero"),
    (lambda: Decomposition((Subspace.full(2), Subspace.full(2))), "direct sum"),
    (lambda: Flag(()), "at least one"),
    (lambda: Flag((Subspace.zero(2), Subspace.full(2))), "first flag component"),
    (lambda: Flag((coordinate_space(2, [0]),)), "last flag component"),
    (lambda: Flag((coordinate_space(3, [0]), coordinate_space(4, [0, 1, 2]))), "ambient dimension"),
    (lambda: Flag((Subspace.full(2), Subspace.full(2))), "increase strictly"),
    (lambda: OnsagerModule(2, Matrix.zeros(2, 1), M2), "square"),
    (lambda: OnsagerModule(3, M2, M2), "module dimension"),
    (lambda: ModuleSpec(((-1, F(2)),)), "nonnegative"),
    (lambda: ModuleSpec(((1, F(0)),)), "nonzero"),
    (lambda: TetraModule(2, 1, {(0, 1): M2}), "one matrix per ordered pair"),
    (lambda: TetraModule(3, 1, {pair: M2 for pair in ORDERED_PAIRS}), "does not act"),
]


@pytest.mark.parametrize("build, message", POST_INIT_REFUSALS, ids=[m for _, m in POST_INIT_REFUSALS])
def test_every_post_init_check_still_raises(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_are_the_annotated_names_in_order(cls):
    # the annotations document the fields; the field list itself is _fields
    assert tuple(cls.__annotations__) == cls._fields


def test_a_class_attribute_is_the_default():
    assert ModuleSpec(V.factors) == V and ModuleSpec(V.factors).shift == (F(0), F(0))
    assert CheckResult("r", (0,), True).residual is None
    with pytest.raises(TypeError, match="missing"):
        CheckResult("r", (0,))


def test_tetra_module_memo_is_outside_the_fields():
    tetra = build_tetra(build_from_spec(V))
    # the antisymmetric pairs are kept only once asked for
    assert set(vars(tetra)) == {"dim", "diameter", "x"}
    # every check keeps the antisymmetric pairs, which cannot change a result, and no chain or verdict:
    # eigenspaces are kept in the memos of the matrices (linalg)
    assert verify_relations(tetra).all_passed and eigentable(tetra).all_passed
    assert verify_action_table(tetra).all_passed and flag_independence_check(tetra)
    relations, table, actions, independent = _verify(tetra)
    assert relations.all_passed and table.all_passed and actions.all_passed and independent
    assert set(vars(tetra)) == {"dim", "diameter", "x", "_antisymmetric"}
    assert "_antisymmetric" not in tetra._fields and "_antisymmetric" not in repr(tetra)
    assert isinstance(tetra.x, MappingProxyType)
    twin = TetraModule(tetra.dim, tetra.diameter, tetra.x)
    assert twin != tetra and "_antisymmetric" not in vars(twin)
    assert tetra == tetra and hash(tetra) == object.__hash__(tetra)
