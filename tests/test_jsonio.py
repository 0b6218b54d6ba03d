import json
from importlib import resources
from pathlib import Path

import pytest

from eulerchi import catalog, jsonio
from eulerchi.catalog import FiniteIsotropy, O2Isotropy, SO3Isotropy, TorusIsotropy
from eulerchi.cells import RESERVED_SEPARATOR, CellSpace, chi
from eulerchi.errors import ValidationError
from eulerchi.groups import Presentation


def action_maps(x) -> dict[int, dict[str, str]]:
    """Each element's map of a complex's cell ids, as a file spells it."""
    ids = x.space.ids()
    return {g: dict(zip(ids, (ids[j] for j in perm))) for g, perm in enumerate(x.perms)}


def complex_obj(x) -> dict:
    """The JSON object that ``load_complex`` reads back as x."""
    return {
        "group": {"order": x.group.order, "table": [list(row) for row in x.group.table]},
        "cells": [{"id": c.id, "dim": c.dim} for c in x.space.cells],
        "action": {str(g): m for g, m in action_maps(x).items()},
    }


def test_cell_space_roundtrip(tmp_path):
    obj = {"cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}]}
    space = jsonio.load_cell_space(obj)
    assert space == CellSpace.from_dims({"v": 0, "e": 1})
    path = tmp_path / "s.json"
    path.write_text(json.dumps(obj))
    assert jsonio.load_file(path, jsonio.load_cell_space)[0] == space


@pytest.mark.parametrize(
    "obj,message",
    [
        ({}, "missing field 'cells'"),
        ({"cells": [{"id": "", "dim": 0}]}, "id"),
        ({"cells": [{"id": "a", "dim": -1}]}, "dim"),
        ({"cells": [{"id": "a", "dim": 0}, {"id": "a", "dim": 1}]}, "duplicate"),
        ({"cells": [{"dim": 0}]}, "missing field 'id'"),
        ({"cells": [{"id": f"x{RESERVED_SEPARATOR}y", "dim": 0}]}, "reserved"),
    ],
)
def test_cell_space_diagnostics(obj, message):
    with pytest.raises(ValidationError, match=message):
        jsonio.load_cell_space(obj)


def test_function_space_by_path(tmp_path):
    (tmp_path / "space.json").write_text(
        json.dumps({"cells": [{"id": "a", "dim": 0}]})
    )
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps({"space": "space.json", "values": {"a": 7}}))
    f, _ = jsonio.load_file(fn_path, jsonio.load_function)
    assert dict(zip(f.space.ids(), f.values)) == {"a": 7}


def test_presentation_kinds():
    assert jsonio.load_presentation({"kind": "trivial"}) == Presentation.trivial()
    assert jsonio.load_presentation({"kind": "cyclic", "order": 4}) == Presentation.cyclic(4)
    assert jsonio.load_presentation(
        {"kind": "free_abelian", "rank": 2}
    ) == Presentation.free_abelian(2)
    p = jsonio.load_presentation(
        {"kind": "presentation", "generators": 2, "relators": [[1, 2, -1, -2]]}
    )
    assert p == Presentation(2, ((1, 2, -1, -2),))
    with pytest.raises(ValidationError, match="unknown kind"):
        jsonio.load_presentation({"kind": "braid"})


def test_presentation_arg_longer_than_a_file_name_is_inline():
    arg = json.dumps({"kind": "presentation", "generators": 1, "relators": [[1] * 200]})
    assert len(arg) > 255 and "/" not in arg
    p, record = jsonio.load_gamma(arg)
    assert p == Presentation(1, ((1,) * 200,))
    assert record["inline"] == arg


def test_isotropy_kinds():
    assert isinstance(jsonio.load_isotropy({"kind": "SO3"}), SO3Isotropy)
    assert isinstance(jsonio.load_isotropy({"kind": "O2"}), O2Isotropy)
    assert jsonio.load_isotropy({"kind": "torus", "n": 2}) == TorusIsotropy(2)
    fin = jsonio.load_isotropy(
        {"kind": "finite", "group": {"order": 2, "table": [[0, 1], [1, 0]]}}
    )
    assert isinstance(fin, FiniteIsotropy) and fin.group.order == 2
    prod = jsonio.load_isotropy(
        {"kind": "product", "factors": [{"kind": "torus", "n": 1}, {"kind": "SO3"}]}
    )
    assert len(prod.factors) == 2
    custom = jsonio.load_isotropy(
        {"kind": "custom", "name": "pin", "chi": {"Z": 4}}
    )
    assert catalog.chi_hom_quotient(custom, Presentation.free(1)) == 4


def test_group_order_mismatch():
    with pytest.raises(ValidationError, match="order 3 does not match"):
        jsonio.load_group({"order": 3, "table": [[0, 1], [1, 0]]})


@pytest.mark.parametrize("order", [True, 2.0, "2"])
def test_group_order_must_be_an_integer(order):
    with pytest.raises(ValidationError, match="'order' must be an integer"):
        jsonio.load_group({"order": order, "table": [[0]] if order is True else [[0, 1], [1, 0]]})


@pytest.mark.parametrize(
    "obj,message",
    [
        ({"kind": "cyclic", "order": 2.5}, "cyclic order must be an integer >= 1, got 2.5"),
        ({"kind": "cyclic", "order": True}, "cyclic order must be an integer >= 1, got True"),
        ({"kind": "free_abelian", "rank": "2"}, "free abelian rank must be an integer >= 0, got '2'"),
        ({"kind": "free_abelian", "rank": True}, "free abelian rank must be an integer >= 0, got True"),
        ({"kind": "presentation", "generators": 2.0}, "generators: expected a non-negative integer, got 2.0"),
        ({"kind": "presentation", "generators": False}, "generators: expected a non-negative integer, got False"),
    ],
)
def test_presentation_counts_must_be_integers(obj, message):
    with pytest.raises(ValidationError) as exc:
        jsonio.load_presentation(obj)
    assert str(exc.value) == message



@pytest.mark.parametrize(
    "obj,message",
    [
        ({"kind": "torus", "n": True}, "torus dimension must be a positive integer, got True"),
        ({"kind": "torus", "n": 1.0}, "torus dimension must be a positive integer, got 1.0"),
        (
            {"kind": "custom", "name": "pin", "chi": {"Z": 4}, "cell_models": [1]},
            "isotropy: 'cell_models' must be an object",
        ),
        ({"kind": "product", "factors": []}, "isotropy: 'factors' must be a non-empty list"),
        ({"kind": "torus", "n": 0}, "torus dimension must be a positive integer, got 0"),
    ],
)
def test_isotropy_fields_checked(obj, message):
    with pytest.raises(ValidationError) as exc:
        jsonio.load_isotropy(obj)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "relators,message",
    [
        ([[True, True]], "relators[0]: letter True is not an integer"),
        ([[1], [1.0]], "relators[1]: letter 1.0 is not an integer"),
        ([1, 2], "relators[0]: expected a list of letters, got 1"),
        ([[1], "12"], "relators[1]: expected a list of letters, got '12'"),
    ],
)
def test_relator_words_and_letters_checked(relators, message):
    with pytest.raises(ValidationError) as exc:
        jsonio.load_presentation({"kind": "presentation", "generators": 2, "relators": relators})
    assert str(exc.value) == message


def test_empty_relator_is_dropped():
    p = jsonio.load_presentation({"kind": "presentation", "generators": 2, "relators": [[], [1, 1]]})
    assert p == Presentation(2, ((1, 1),))


def test_groupoid_loader():
    g = jsonio.load_groupoid(
        {
            "strata": [
                {"id": "a", "dim": 0, "isotropy": {"kind": "torus", "n": 1}},
                {"id": "b", "dim": 1, "isotropy": {"kind": "SO3"}},
            ]
        }
    )
    assert g.space.ids() == ("a", "b")
    assert dict(zip(g.space.ids(), g.isotropy))["a"] == TorusIsotropy(1)


def test_complex_roundtrip_and_group_by_path(tmp_path):
    (tmp_path / "group.json").write_text(
        json.dumps({"order": 2, "table": [[0, 1], [1, 0]]})
    )
    obj = {
        "group": "group.json",
        "cells": [{"id": "a", "dim": 0}, {"id": "b", "dim": 0}],
        "action": {"1": {"a": "b", "b": "a"}},
    }
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(obj))
    x, _ = jsonio.load_file(path, jsonio.load_complex)
    assert x.group.order == 2 and action_maps(x)[1] == {"a": "b", "b": "a"}
    redumped = complex_obj(x)
    assert redumped["action"]["0"] == {"a": "a", "b": "b"}
    y = jsonio.load_complex(redumped)
    assert y.space == x.space


def test_complex_action_diagnostics():
    base = {
        "group": {"order": 2, "table": [[0, 1], [1, 0]]},
        "cells": [{"id": "a", "dim": 0}],
    }
    with pytest.raises(ValidationError, match="missing entry"):
        jsonio.load_complex({**base, "action": {}})
    with pytest.raises(ValidationError, match="not an element index"):
        jsonio.load_complex({**base, "action": {"x": {"a": "a"}}})
    with pytest.raises(ValidationError, match="non-elements"):
        jsonio.load_complex({**base, "action": {"1": {"a": "a"}, "7": {"a": "a"}}})


def test_complex_action_keys_naming_one_element_refused():
    obj = {
        "group": {"order": 2, "table": [[0, 1], [1, 0]]},
        "cells": [{"id": "a", "dim": 0}, {"id": "b", "dim": 0}],
        "action": {"1": {"a": "b", "b": "a"}, "01": {"a": "a", "b": "b"}},
    }
    with pytest.raises(ValidationError, match="keys '1' and '01' both name element 1"):
        jsonio.load_complex(obj)
    del obj["action"]["01"]
    assert action_maps(jsonio.load_complex(obj))[1] == {"a": "b", "b": "a"}


def test_bundled_complexes_roundtrip_to_the_same_perms():
    data = Path(str(resources.files("eulerchi") / "data"))
    xs = []
    for path in sorted(data.glob("*.json")):
        obj = json.loads(path.read_text())
        if "action" in obj:
            xs.append(jsonio.load_file(path, jsonio.load_complex)[0])
        elif "complex" in obj:
            xs.append(jsonio.load_file(path, jsonio.load_extension)[0]["complex"])
    assert len(xs) == 3
    for x in xs:
        y = jsonio.load_complex(complex_obj(x))
        assert (y.group, y.space, y.perms) == (x.group, x.space, x.perms)


def test_product_dump_not_reloadable():
    from eulerchi.cells import product

    square = product(
        CellSpace.from_dims({"v": 0}), CellSpace.from_dims({"w": 0})
    )
    dumped = {"cells": [{"id": c.id, "dim": c.dim} for c in square.cells]}
    with pytest.raises(ValidationError, match="reserved"):
        jsonio.load_cell_space(dumped)


def test_extension_loader(tmp_path):
    obj = {
        "fiber": {"kind": "torus", "n": 1},
        "group": {"order": 1, "table": [[0]]},
        "complex": {
            "group": {"order": 1, "table": [[0]]},
            "cells": [{"id": "pt", "dim": 0}],
            "action": {"0": {"pt": "pt"}},
        },
        "ell": 2,
    }
    ext = jsonio.load_extension(obj)
    assert ext["ell"] == 2 and ext["group"].order == 1
    with pytest.raises(ValidationError, match="ell"):
        jsonio.load_extension({**obj, "ell": -1})


def test_bundled_data_files_load():
    from importlib import resources

    data = resources.files("eulerchi") / "data"
    assert chi(jsonio.load_cell_space(json.loads((data / "closed_interval.json").read_text()))) == 1
    groupoid = jsonio.load_groupoid(json.loads((data / "so2_s2.json").read_text()))
    assert len(groupoid.space) == 3
