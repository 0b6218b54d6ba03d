"""The package's records: equality, hashing, immutability, fresh
containers, and the exact ``repr`` strings that reach refusal messages."""

import pytest

from eulerchi import catalog, groups
from eulerchi.catalog import (
    CustomIsotropy,
    FiniteIsotropy,
    O2Isotropy,
    ProductIsotropy,
    SO3Isotropy,
    TorusIsotropy,
)
from eulerchi.cells import Cell, CellSpace, ConstructibleFunction, validate_function, validate_map
from eulerchi.errors import UnsupportedCombination
from eulerchi.groupoid import validate_groupoid
from eulerchi.groups import Presentation
from eulerchi.harness import SuiteResult
from eulerchi.report import Report

CUSTOM = CustomIsotropy("U", (("Z", 3),), (("Z", CellSpace((Cell("v", 0), Cell("e", 1)))),))
POINT = CellSpace((Cell("v", 0),))


def test_equal_presentations_share_a_cache_entry():
    g = groups.cyclic_group(3)
    p, q = Presentation(2, ((1, 2, -1, -2),)), Presentation(2, ((1, 2, -1, -2),))
    assert p is not q and p == q and hash(p) == hash(q)
    catalog._finite_chi.cache_clear()
    assert catalog._finite_chi(g, p) == catalog._finite_chi(g, q) == 9
    info = catalog._finite_chi.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Cell("v", 0),
        lambda: CellSpace((Cell("v", 0), Cell("e", 1))),
        lambda: FiniteIsotropy(groups.cyclic_group(2)),
        lambda: TorusIsotropy(2),
        SO3Isotropy,
        O2Isotropy,
        lambda: ProductIsotropy((SO3Isotropy(), TorusIsotropy(1))),
        lambda: CustomIsotropy("U", (("Z", 3),)),
        lambda: Presentation.cyclic(4),
        lambda: groups.abelianize_snf(Presentation.cyclic(4)),
        lambda: validate_function(POINT, {"v": 1}),
        lambda: validate_map(POINT, POINT, {"v": "v"}),
        lambda: validate_groupoid(POINT, {"v": SO3Isotropy()}),
    ],
)
def test_values_compare_and_hash_by_field(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_values_of_different_classes_differ():
    assert SO3Isotropy() != O2Isotropy()
    assert TorusIsotropy(2) != FiniteIsotropy(groups.cyclic_group(2))
    assert Cell("v", 0) != ("v", 0)
    assert TorusIsotropy(1) != TorusIsotropy(2)


@pytest.mark.parametrize(
    "value, name",
    [
        (Cell("v", 0), "dim"),
        (CellSpace(), "cells"),
        (TorusIsotropy(1), "n"),
        (Presentation(1), "relators"),
        (ConstructibleFunction(CellSpace(), ()), "values"),
    ],
)
def test_frozen_fields_refuse_assignment(value, name):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)


def test_mutable_records_compare_by_field_and_do_not_hash():
    a, b = Report("x"), Report("x")
    assert a == b
    a.warnings.append("w")
    assert b.warnings == [] and a != b
    with pytest.raises(TypeError):
        hash(a)
    s, t = SuiteResult(1, 1), SuiteResult(1, 1)
    s.checks_run["c"] = 1
    s.failures.append(None)
    assert (t.checks_run, t.failures) == ({}, [])


def test_records_take_one_value_per_field():
    for values in (("a",), ("a", 0, 1)):
        with pytest.raises(TypeError, match=r"^Cell\(id, dim\) takes 2 values, got "):
            Cell(*values)
    assert SO3Isotropy() == SO3Isotropy()


def test_cell_space_resolves_ids_to_positions():
    space = CellSpace([Cell("v", 0), Cell("e", 1)])
    assert space.cells == (Cell("v", 0), Cell("e", 1))
    assert space.positions() == {"v": 0, "e": 1}
    assert space.positions() is not space.positions()
    assert space == CellSpace((Cell("v", 0), Cell("e", 1)))


# Refusal messages of UnsupportedCombination embed these strings, and the
# golden files pin only two of them.
@pytest.mark.parametrize(
    "value, text",
    [
        (TorusIsotropy(2), "TorusIsotropy(n=2)"),
        (O2Isotropy(), "O2Isotropy()"),
        (SO3Isotropy(), "SO3Isotropy()"),
        (
            ProductIsotropy((SO3Isotropy(), TorusIsotropy(1))),
            "ProductIsotropy(factors=(SO3Isotropy(), TorusIsotropy(n=1)))",
        ),
        (
            CustomIsotropy("U", (("Z", 3),), (("Z", CellSpace((Cell("v", 0),))),)),
            "CustomIsotropy(name='U', chi_table=(('Z', 3),), "
            "cell_models=(('Z', CellSpace(cells=(Cell(id='v', dim=0),))),))",
        ),
        (
            Presentation(2, ((1, 2, -1, -2),)),
            "Presentation(generators=2, relators=((1, 2, -1, -2),))",
        ),
        (FiniteIsotropy(groups.cyclic_group(3)), "FiniteIsotropy(group=FiniteGroup(order=3))"),
    ],
)
def test_repr_is_pinned(value, text):
    assert repr(value) == text


def test_refusal_messages_are_pinned():
    product = ProductIsotropy((TorusIsotropy(2), CUSTOM))
    with pytest.raises(UnsupportedCombination) as exc:
        catalog.chi_hom_quotient(product, Presentation.free_abelian(2))
    assert str(exc.value.with_cell("a")) == (
        "no exact value for isotropy model CustomIsotropy(name='U', chi_table=(('Z', 3),), "
        "cell_models=(('Z', CellSpace(cells=(Cell(id='v', dim=0), Cell(id='e', dim=1)))),)) "
        "with group Presentation(generators=2, relators=((1, 2, -1, -2),)) at 'a'"
    )
    assert str(UnsupportedCombination(TorusIsotropy(2), groups.Z)) == (
        "no exact value for isotropy model TorusIsotropy(n=2) "
        "with group Presentation(generators=1, relators=())"
    )
