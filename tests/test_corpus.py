"""The test kit's own behaviour: fresh copies, the unitriangular strategy, conjugations and spies."""

import pytest
from hypothesis import given, settings, strategies as st

import tetrabox
from tetrabox import ModuleSpec, OnsagerModule, build_tetra_from_spec, cli, determinant, eigenspace, evaluation_module
from tetrabox import tetra, verify_relations

import corpus
from corpus import conjugated, fresh, unitriangular_matrices


def test_fresh_copies_are_equal_and_hold_no_memo():
    t = build_tetra_from_spec(ModuleSpec.of([(1, 2), (1, 3)]))
    m = OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)])
    assert eigenspace(m.A, 2).dim == 1 and hasattr(m.A, "_spectral_memo")
    copies = fresh(m.A), fresh(m), fresh(t)
    # a TetraModule compares by identity: its fields are compared
    assert copies[:2] == (m.A, m) and (copies[2].dim, copies[2].diameter, copies[2].x) == (t.dim, t.diameter, t.x)
    assert not any(hasattr(x, "_spectral_memo") for x in (copies[0], copies[1].A, *copies[2].x.values()))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6).flatmap(unitriangular_matrices))
def test_the_unitriangular_strategy_draws_determinant_one(p):
    assert determinant(p) == 1


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_conjugated_grid_builds_keep_their_relations(built_irreducible_grid, data):
    t = data.draw(st.sampled_from([t for t in built_irreducible_grid.values() if t.dim <= 9]))
    assert verify_relations(conjugated(t, data.draw(unitriangular_matrices(t.dim)))).all_passed


def test_a_spy_on_every_binding_sees_build_tetra_through_cli(spy):
    t = build_tetra_from_spec(ModuleSpec.of([(1, 2), (1, 3)]))
    assert tetrabox.build_tetra is tetra.build_tetra
    calls = spy(tetra, "build_tetra", bindings=(tetrabox, cli))
    assert tetrabox.build_tetra is tetra.build_tetra
    # given no passing verdict of the plain checks, the deep checks rebuild the pair (x_01, x_23)
    cli._deep_checks(None, t, None, False)
    assert calls == [OnsagerModule(t.dim, t.x[(0, 1)], t.x[(2, 3)])]


def test_a_spy_is_undone_with_its_monkeypatch():
    real = tetra.build_tetra
    with pytest.MonkeyPatch.context() as patch:
        calls = corpus.spy(patch, tetra, "build_tetra", bindings=(tetrabox,))
        assert real is not tetra.build_tetra is tetrabox.build_tetra
    assert tetra.build_tetra is real is tetrabox.build_tetra
    tetra.build_tetra(evaluation_module(1, 2))
    assert calls == []
