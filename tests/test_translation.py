import inspect
import json
import math
import random
import re
import sys
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from eulerchi import cells, groupoid, groups, harness, jsonio, translation
from eulerchi.catalog import FiniteIsotropy
from eulerchi.cells import (
    RESERVED_SEPARATOR,
    CellSpace,
    ConstructibleFunction,
    chi,
    integrate,
    integrate_levelset,
    pushforward,
)
from eulerchi.errors import (
    CrossCheckError,
    RecursionCapExceeded,
    ResourceLimitExceeded,
    UnsupportedCombination,
    ValidationError,
)
from eulerchi.groups import Presentation, Z, cyclic_group, quaternion_group, symmetric_group
from eulerchi.translation import (
    InertiaComplex,
    RigidGComplex,
    anchor_map,
    cell_orbits,
    chi_gamma_noniter,
    chi_gamma_strata,
    chi_order_ell,
    coset_complex,
    lambda_chi,
    orbit_groupoid,
    orbit_space,
    point_complex,
    product_complex,
    restrict_complex,
    validate_complex,
)
from test_cells import fiber_chi
from test_groupoid import product_groupoid
from test_groups import brute_orbit_reps, centralizer, conjugacy_classes
from test_jsonio import action_maps, complex_obj

S3 = symmetric_group(3)
Z2 = cyclic_group(2)


def _fixed_ids(x: RigidGComplex, t: tuple[int, ...], where: str) -> list[int]:
    """Indices of the cells fixed by every image of the tuple, in cell order."""
    need = 0
    for e in t:
        if not 0 <= e < x.group.order:
            raise ValidationError(f"{where}: element {e} out of range")
        need |= 1 << e
    return [i for i, mask in enumerate(x.stabilizer_masks()) if mask & need == need]


def fixed_subcomplex(x: RigidGComplex, t: tuple[int, ...]) -> RigidGComplex:
    """Cells fixed by every image of the tuple, as a complex over the
    centralizer of the tuple, reindexed into a group of its own: the
    reference that the in-place counts of ``fixed_orbit_chi`` and the
    order-ell walk are checked against."""
    fixed = _fixed_ids(x, t, "fixed_subcomplex")
    cgroup, elems = groups.subgroup_group(x.group, centralizer(x.group, t))
    # element s of cgroup acts as elems[s] does in x
    pos, xperms = {i: k for k, i in enumerate(fixed)}, x.perms
    gens = tuple(tuple(pos[xperms[elems[s]][i]] for i in fixed) for s in cgroup.generators())
    return RigidGComplex(cgroup, gens, tuple(x.dims[i] for i in fixed), cell_id=lambda k: x.cell_id(fixed[k]))


def fixed_orbit_chi(x: RigidGComplex, t: tuple[int, ...]) -> int:
    """chi of the quotient of the tuple's fixed set by its centralizer,
    which maps the fixed set to itself, counted in x's own indices by the
    orbit count the order-ell walk's leaves use."""
    fixed, xperms = _fixed_ids(x, t, "fixed_orbit_chi"), x.perms
    return translation._orbit_chi(x, fixed, [xperms[e] for e in centralizer(x.group, t)])


def stabilizer(x: RigidGComplex, cell_id: str) -> list[int]:
    """Sorted list of elements mapping the cell to itself."""
    mask = x.stabilizer_masks()[x.space.ids().index(cell_id)]
    return [g for g in x.group.elements() if mask >> g & 1]


def swap_points() -> RigidGComplex:
    space = CellSpace.from_dims({"a": 0, "b": 0})
    return validate_complex(Z2, space, {0: {"a": "a", "b": "b"}, 1: {"a": "b", "b": "a"}})


def free_circle() -> RigidGComplex:
    """Order-two rotation of a circle with two vertices and two edges."""
    space = CellSpace.from_dims({"v0": 0, "v1": 0, "e0": 1, "e1": 1})
    flip = {"v0": "v1", "v1": "v0", "e0": "e1", "e1": "e0"}
    return validate_complex(Z2, space, {0: {c: c for c in space.ids()}, 1: flip})


# --- validation -------------------------------------------------------------

def test_action_must_be_homomorphism():
    space = CellSpace.from_dims({"a": 0, "b": 0, "c": 0})
    z3 = cyclic_group(3)
    bad = {
        0: {"a": "a", "b": "b", "c": "c"},
        1: {"a": "b", "b": "a", "c": "c"},  # an involution cannot be the image of 1 in Z/3
        2: {"a": "c", "b": "a", "c": "b"},
    }
    with pytest.raises(ValidationError, match="homomorphism"):
        validate_complex(z3, space, bad)


def _first_non_homomorphism(group, space: CellSpace, action) -> str | None:
    """Reference sweep over every pair (g, h) in element order, on the
    string maps: the first cell where g*h and the composition disagree."""
    for g in group.elements():
        for h in group.elements():
            gh = group.mul(g, h)
            for c in space.ids():
                if action[g][action[h][c]] != action[gh][c]:
                    return f"action is not a homomorphism: ({g}*{h}) and composition disagree at cell {c!r}"
    return None


def test_tampered_actions_name_the_first_failing_pair():
    """One element's map with two images swapped stays a
    dimension-preserving bijection; validate_complex refuses it with the
    first failing pair of the full sweep, whether or not that element is a
    generator."""
    rng = random.Random(7)
    refused = {True: 0, False: 0}  # by whether the tampered element is a generator
    for x in _generated_complexes(50):
        gens = x.group.generators()
        rest = [g for g in x.group.elements() if g and g not in gens]
        by_dim: dict[int, list[str]] = {}
        for c in x.space.cells:
            by_dim.setdefault(c.dim, []).append(c.id)
        swappable = [ids for ids in by_dim.values() if len(ids) > 1]
        if not swappable:
            continue
        for g in [rng.choice(pool) for pool in (gens, rest) if pool]:
            action = action_maps(x)
            a, b = rng.sample(rng.choice(swappable), 2)
            action[g][a], action[g][b] = action[g][b], action[g][a]
            expected = _first_non_homomorphism(x.group, x.space, action)
            if expected is None:
                validate_complex(x.group, x.space, action)
                continue
            with pytest.raises(ValidationError) as err:
                validate_complex(x.group, x.space, action)
            assert str(err.value) == expected
            refused[g in gens] += 1
    assert refused[True] > 10 and refused[False] > 10


def test_action_must_preserve_dimension():
    space = CellSpace.from_dims({"a": 0, "b": 1})
    with pytest.raises(ValidationError, match="dim"):
        validate_complex(Z2, space, {1: {"a": "b", "b": "a"}})


def test_identity_entry_optional_and_checked():
    space = CellSpace.from_dims({"a": 0, "b": 0})
    x = validate_complex(Z2, space, {1: {"a": "b", "b": "a"}})
    assert x.perms[0] == (0, 1)
    with pytest.raises(ValidationError, match="identity"):
        validate_complex(Z2, space, {0: {"a": "b", "b": "a"}, 1: {"a": "b", "b": "a"}})


def test_missing_element_entry():
    space = CellSpace.from_dims({"a": 0})
    with pytest.raises(ValidationError, match="missing entry"):
        validate_complex(cyclic_group(3), space, {1: {"a": "a"}})


def test_unknown_cell_and_element_refused():
    x = swap_points()
    with pytest.raises(ValidationError, match=re.escape("cell index 'nope' is not in range(2)")):
        restrict_complex(x, {"nope"})
    for g in (2, -1):
        with pytest.raises(ValidationError, match=f"element {g} out of range"):
            fixed_orbit_chi(x, (g,))


def _every_other_orbit(x: RigidGComplex) -> list[int]:
    """The cell indices of x's first, third, ... orbit, in cell order."""
    orbits = cell_orbits(x)
    return sorted(i for r in list(orbits)[::2] for i in orbits[r])


def _revalidated_perms(x: RigidGComplex):
    return validate_complex(x.group, x.space, action_maps(x)).perms


def test_derived_complexes_are_valid_actions():
    """The constructors that build generator permutations without a check
    give valid actions: rebuilt from their own string maps through
    ``validate_complex``, they compose to the same permutations."""
    generated = _generated_complexes()
    cosets = coset_complex(S3, groups.subgroup_closure(S3, [1]), dim=1)
    derived = [
        point_complex(S3),
        cosets,
        product_complex(cosets, swap_points()),
        product_complex(point_complex(Z2), free_circle()),
        restrict_complex(product_complex(cosets, swap_points()), []),
        point_complex(groups.trivial_group()),
    ] + [InertiaComplex(Z, InertiaComplex(Z, y)) for y in (cosets, free_circle())] + generated
    for x in generated + [cosets, free_circle()]:
        derived.append(restrict_complex(x, _every_other_orbit(x)))
        derived += [fixed_subcomplex(x, (e,)) for e in x.group.elements()]
        derived += [InertiaComplex(p, x) for p in (Z, Presentation.free_abelian(2))]
    for x in derived:
        assert _revalidated_perms(x) == x.perms


def test_validate_complex_runs_only_at_the_edge(monkeypatch):
    xs = [free_circle(), coset_complex(S3, [0, 1])] + _generated_complexes(5)
    calls = []
    original = translation.validate_complex

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(translation, "validate_complex", counting)
    harness.run_suite(seed=3, cases=5)
    for x in xs:
        for p in (Z, Presentation.free_abelian(2)):
            chi_gamma_strata(p, x)
            lambda_chi(p, x)
            chi_gamma_noniter(p, x)
        chi_order_ell(x, 2)
    assert calls == []
    jsonio.load_complex(complex_obj(xs[1]))
    assert len(calls) == 1


def _harness_complexes():
    return [free_circle(), coset_complex(S3, [0, 1])] + _generated_complexes(5)


def _derived_cell_values(xs):
    """Spaces, functions, maps and groupoids the program builds itself from
    the complexes xs, none of them checked on construction."""
    rng = random.Random(5)
    for x in xs:
        og = orbit_groupoid(x)
        yield x.space
        yield og
        yield product_groupoid(og, og)
        yield harness.random_function(rng, x.space)
        for p in (Z, Presentation.free_abelian(2)):
            m = anchor_map(p, x)
            yield m
            yield pushforward(m, ConstructibleFunction.constant(m.source, 1))
            yield InertiaComplex(p, x).space


def test_cell_validators_run_only_at_the_edge(monkeypatch):
    xs = _harness_complexes()
    calls = []
    # the validators, and the one resolver of cell ids that they call
    for owner, name in (
        (cells, "validate_space"),
        (cells, "validate_function"),
        (cells, "validate_map"),
        (groupoid, "validate_groupoid"),
        (CellSpace, "positions"),
    ):
        def counting(*args, _original=getattr(owner, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    harness.run_suite(seed=3, cases=5)
    for x in xs:
        for p in (Z, Presentation.free_abelian(2)):
            chi_gamma_strata(p, x)
            lambda_chi(p, x)
            chi_gamma_noniter(p, x)
        chi_order_ell(x, 2)
    for value in _derived_cell_values(xs):
        if isinstance(value, ConstructibleFunction):
            integrate_levelset(value)
    assert calls == []

    space = {"cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}]}
    loads = [
        (jsonio.load_cell_space, space, ["validate_space"]),
        (
            jsonio.load_function,
            {"space": space, "values": {"v": 1, "e": 2}},
            ["validate_space", "validate_function", "positions"],
        ),
        (
            jsonio.load_cell_map,
            {"source": space, "target": {"cells": [{"id": "pt", "dim": 0}]},
             "assign": {"v": "pt", "e": "pt"}},
            ["validate_space", "validate_space", "validate_map", "positions", "positions"],
        ),
        (
            jsonio.load_groupoid,
            {"strata": [{"id": "pt", "dim": 0, "isotropy": {"kind": "torus", "n": 1}}]},
            ["validate_space", "validate_groupoid", "positions"],
        ),
        (jsonio.load_complex, complex_obj(coset_complex(S3, [0, 1])), ["validate_space", "positions"]),
    ]
    for load, obj, expected in loads:
        calls.clear()
        load(obj)
        assert calls == expected, load.__name__


def test_presentations_are_checked_only_at_the_edge(monkeypatch):
    calls = []

    def counting(*args, _original=groups.validate_presentation):
        calls.append(args)
        return _original(*args)

    monkeypatch.setattr(groups, "validate_presentation", counting)
    harness.run_suite(seed=3, cases=5)
    for x in _harness_complexes():
        for p in (Z, Presentation.free_abelian(2)):
            chi_gamma_strata(p, x)
            lambda_chi(p, x)
            chi_gamma_noniter(p, x)
        chi_order_ell(x, 2)
    assert calls == []
    p = jsonio.load_presentation({"kind": "presentation", "generators": 2, "relators": [[1, 1], []]})
    assert p == Presentation(2, ((1, 1),))
    assert len(calls) == 1


def test_derived_cell_values_pass_the_validators():
    """What the program builds without a check, the validators let in, and
    given its ids they build it again."""
    for value in _derived_cell_values(_harness_complexes()):
        if isinstance(value, CellSpace):
            assert cells.validate_space(value.cells) == value
        elif isinstance(value, ConstructibleFunction):
            cells.validate_space(value.space.cells)
            ids = value.space.ids()
            assert cells.validate_function(value.space, dict(zip(ids, value.values))) == value
        elif isinstance(value, cells.CellMap):
            cells.validate_space(value.source.cells)
            cells.validate_space(value.target.cells)
            targets = map(value.target.ids().__getitem__, value.assign)
            assert cells.validate_map(value.source, value.target, dict(zip(value.source.ids(), targets))) == value
        else:
            cells.validate_space(value.space.cells)
            ids = value.space.ids()
            assert groupoid.validate_groupoid(value.space, dict(zip(ids, value.isotropy))) == value


def test_validators_store_values_in_cell_order_whatever_the_key_order():
    """A function, map or groupoid from outside is stored in the order of
    its cells, so the order of its mapping's keys does not change it."""
    space = CellSpace.from_dims({"v0": 0, "v1": 0, "e0": 1, "e1": 1, "f": 2})
    target = CellSpace.from_dims({"pt": 0, "arc": 1})
    values = {"v0": 3, "v1": -1, "e0": 0, "e1": 2, "f": -4}
    assign = {"v0": "pt", "v1": "pt", "e0": "arc", "e1": "pt", "f": "arc"}
    labels = {cid: FiniteIsotropy(cyclic_group(k + 1)) for k, cid in enumerate(space.ids())}
    for validate, mapping, stored in (
        (lambda m: cells.validate_function(space, m), values, lambda f: f.values),
        (lambda m: cells.validate_map(space, target, m), assign,
         lambda m: tuple(target.ids()[t] for t in m.assign)),
        (lambda m: groupoid.validate_groupoid(space, m), labels, lambda g: g.isotropy),
    ):
        items = list(mapping.items())
        shuffled = random.Random(30).sample(items, len(items))
        assert shuffled not in (items, items[::-1])
        first, *others = (validate(dict(order)) for order in (items, items[::-1], shuffled))
        assert all(other == first for other in others)
        assert stored(first) == tuple(mapping[cid] for cid in space.ids())


# --- stabilizers and orbits ----------------------------------------------------

def test_stabilizer_free_and_fixed():
    x = swap_points()
    assert stabilizer(x, "a") == [0]
    pt = point_complex(S3)
    assert stabilizer(pt, "pt") == list(range(6))


def test_stabilizer_coset_complex():
    sub = groups.subgroup_closure(S3, [1])
    x = coset_complex(S3, sub)
    assert stabilizer(x, "c0") == sub


def test_orbit_space_trivial_group():
    x = point_complex(cyclic_group(1))
    assert orbit_space(x).ids() == ("pt",)


def test_orbit_space_regular_action():
    x = coset_complex(S3, [0])  # the group acting on itself
    assert len(orbit_space(x)) == 1
    og = orbit_groupoid(x)
    (label,) = og.isotropy
    assert isinstance(label, FiniteIsotropy) and label.group.order == 1


def test_orbit_space_free_circle():
    x = free_circle()
    quotient = orbit_space(x)
    assert sorted(c.dim for c in quotient.cells) == [0, 1]
    assert chi(quotient) == 0
    og = orbit_groupoid(x)
    assert all(label.group.order == 1 for label in og.isotropy)


# --- fixed subcomplexes ----------------------------------------------------------

def test_fixed_identity_tuple_is_whole():
    x = free_circle()
    fixed = fixed_subcomplex(x, (0,))
    assert set(fixed.space.ids()) == set(x.space.ids())
    assert fixed.group.order == 2


def test_fixed_nonidentity_free_action_empty():
    x = free_circle()
    fixed = fixed_subcomplex(x, (1,))
    assert len(fixed.space) == 0


def test_fixed_swap_endpoints_empty():
    x = swap_points()
    assert len(fixed_subcomplex(x, (1,)).space) == 0


def _generated_complexes(n: int = 30):
    from eulerchi.harness import build_complex, random_case

    return [build_complex(random_case(random.Random(seed), 12, 20)) for seed in range(n)]


def _brute_orbits(x: RigidGComplex) -> list[list[str]]:
    """The orbit partition of x's cells by union-find along the edges
    from each cell to its image under each element: each orbit in cell
    order, orbits ordered by their first cell."""
    ids = x.space.ids()
    parent = {c: c for c in ids}

    def root(c: str) -> str:
        while parent[c] != c:
            c = parent[c]
        return c

    for images in action_maps(x).values():
        for c in ids:
            parent[root(images[c])] = root(c)
    blocks: dict[str, list[str]] = {}
    for c in ids:
        blocks.setdefault(root(c), []).append(c)
    return list(blocks.values())


def test_orbit_walk_matches_a_brute_force_partition():
    """``cell_orbits``, ``orbit_space`` and ``anchor_map`` give the
    partition a union-find over the action maps gives, with each
    representative its orbit's first cell in cell order."""
    for x in _generated_complexes():
        inertias = {p: InertiaComplex(p, x) for p in (Z, Presentation.free_abelian(2))}
        fixed = [fixed_subcomplex(x, (a,)) for a in x.group.elements()]
        for y in [x, *inertias.values(), *fixed]:
            orbits, index = _brute_orbits(y), {cid: k for k, cid in enumerate(y.space.ids())}.__getitem__
            assert list(cell_orbits(y).items()) == [(index(o[0]), {index(c) for c in o}) for o in orbits]
            assert orbit_space(y).cells == tuple(y.space.cells[index(o[0])] for o in orbits)
        base_orbits = _brute_orbits(x)
        base_rep = {c: o[0] for o in base_orbits for c in o}
        for p, ic in inertias.items():
            m = anchor_map(p, x)
            source = [o[0] for o in _brute_orbits(ic)]
            assert m.source.ids() == tuple(source)
            assert m.target.ids() == tuple(o[0] for o in base_orbits)
            # an inertia cell's id is "<tuple index><separator><base cell id>"
            assigned = dict(zip(m.source.ids(), map(m.target.ids().__getitem__, m.assign)))
            assert assigned == {s: base_rep[s.split(RESERVED_SEPARATOR, 1)[1]] for s in source}


def test_fixed_orbit_chi_matches_fixed_subcomplex():
    empty = 0
    for x in [free_circle(), swap_points(), point_complex(S3)] + _generated_complexes():
        elems = x.group.elements()
        tuples = [()] + [(a,) for a in elems] + [(a, b) for a in elems for b in elems]
        for t in tuples:
            fixed = fixed_subcomplex(x, t)
            empty += len(fixed.space) == 0
            assert fixed_orbit_chi(x, t) == chi(orbit_space(fixed)), t
    assert empty > 0


def test_fixed_orbit_chi_element_out_of_range():
    x = free_circle()
    for t in [(2,), (0, -1)]:
        with pytest.raises(ValidationError, match="out of range"):
            fixed_subcomplex(x, t)
        with pytest.raises(ValidationError, match="out of range"):
            fixed_orbit_chi(x, t)


def _count_calls(monkeypatch, targets) -> dict[str, int]:
    counts = {name: 0 for _, name in targets}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in targets:
        counting(module, name)
    return counts


def test_noniter_and_order_ell_leaves_build_no_fixed_subcomplex(monkeypatch):
    """The Burnside count and the order-ell walk share no orbit or
    centralizer helper.  The count enumerates homomorphisms and builds
    nothing; the walk enumerates none and takes no centralizer bitmask,
    and at no depth does it build a complex, a cell space or a reindexed
    group (``subgroup_group``): it counts orbits in the given complex's own
    indices.  Only the walk walks cell orbits."""
    xs = [point_complex(S3), free_circle(), swap_points()] + _generated_complexes(5)
    counts = _count_calls(
        monkeypatch,
        [(translation, name) for name in ("CellSpace", "RigidGComplex")]
        + [(groups, name) for name in
           ("subgroup_group", "hom_orbit_reps", "hom_enumerate", "orbits")],
    )
    for x in xs:
        for p in (Presentation.trivial(), Z, Presentation.free_abelian(2), Presentation.cyclic(3)):
            chi_gamma_noniter(p, x)
    assert {k: v for k, v in counts.items() if v} == {"hom_enumerate": 4 * len(xs)}
    masks = _count_calls(monkeypatch, [(groups.FiniteGroup, "centralizer_mask")])
    for x in xs:
        for ell in range(4):
            counts.update(dict.fromkeys(counts, 0))
            chi_order_ell(x, ell)
            assert counts["hom_enumerate"] == counts["hom_orbit_reps"] == masks["centralizer_mask"] == 0
            assert counts["RigidGComplex"] == counts["CellSpace"] == counts["subgroup_group"] == 0
            assert counts["orbits"] > 0  # the counter sees the walk's orbits
    chi_gamma_noniter(Z, point_complex(S3))
    assert masks["centralizer_mask"] > 0  # the counter sees the count's bitmasks
    assert [chi_order_ell(point_complex(S3), d) for d in (1, 2)] == [3, 8]


def test_inertia_ids_are_formed_only_at_the_edge(monkeypatch, capsys):
    """Every builder passes dimensions and an id function to
    ``RigidGComplex.__init__``: ``harness.build_complex``,
    ``validate_complex``, ``point_complex``, ``coset_complex``,
    ``restrict_complex`` and the inertia complex, of a complex or of an
    inertia complex, construct no cell until ``space`` is read, and reading
    it forms each cell once; ``validate_complex`` hands on the space it
    checked, so reading that forms none.  The inertia routes read cells by index and
    dimension: ``lambda_chi``, ``iterate_inertia``, the Burnside count and
    the ``inertia`` command form no cell and no cell space.  ``anchor_map``
    forms a cell for each orbit representative alone, of the inertia
    complex and of x."""
    from eulerchi.cli import main
    from eulerchi.harness import build_complex, random_case

    specs = [random_case(random.Random(seed), 12, 20) for seed in range(10)]
    circle = CellSpace.from_dims({"v0": 0, "v1": 0, "e0": 1, "e1": 1})
    flip = {"v0": "v1", "v1": "v0", "e0": "e1", "e1": "e0"}
    counts = _count_calls(monkeypatch, [(translation, "Cell"), (translation, "CellSpace")])
    xs = [point_complex(S3), validate_complex(Z2, circle, {1: flip})] + [build_complex(s) for s in specs]
    built = xs + [coset_complex(S3, [0, 1], dim=1)]
    built += [InertiaComplex(p, x) for x in xs for p in (Z, Presentation.free_abelian(2))]
    built += [InertiaComplex(Z, ic) for ic in built[-4:]]
    assert counts == {"Cell": 0, "CellSpace": 0}
    for x in built:
        counts["Cell"] = 0
        assert len(x.space) == len(x.dims) and x.space is x.space
        assert counts["Cell"] == (0 if x is xs[1] else len(x.dims))
    assert xs[1].space is circle
    for x in xs:
        keep = _every_other_orbit(x)
        counts["Cell"] = 0
        y = restrict_complex(x, keep)
        assert counts["Cell"] == 0
        assert y.space.ids() == tuple(map(x.cell_id, keep)) and counts["Cell"] == len(keep)
    counts.update(dict.fromkeys(counts, 0))
    for x in xs:
        for p in (Z, Presentation.free_abelian(2)):
            lambda_chi(p, x)
            chi_gamma_noniter(p, x)
        iterate_inertia(Z, Z, x)
    assert counts == {"Cell": 0, "CellSpace": 0}
    q8 = str(resources.files("eulerchi") / "data" / "q8_point.json")
    assert main(["--report", "json", "inertia", q8, "--gamma", '{"kind":"free_abelian","rank":2}']) == 0
    assert json.loads(capsys.readouterr().out)["breakdown"] == {"cells": 40, "labels": 40, "orbit_cells": 22}
    assert counts["Cell"] == 0
    for x in xs:
        counts["Cell"] = 0
        m = anchor_map(Presentation.free_abelian(2), x)
        assert counts["Cell"] == len(m.source) + len(m.target)


def _eager_inertia_space(ic: InertiaComplex, base: RigidGComplex) -> CellSpace:
    """The inertia cells as the pairs name them, formed from the base's
    cell space."""
    base_cells = base.space.cells
    return CellSpace(
        tuple(cells.Cell(f"{i}{RESERVED_SEPARATOR}{base_cells[c].id}", base_cells[c].dim) for i, c in ic.pairs)
    )


def test_lazy_space_matches_an_eager_reference():
    """A space formed on first use from ``cell_id`` and ``dims`` has the ids
    and dimensions an eager construction gives: the harness corpora's
    strata of cosets, ``restrict_complex`` halves, ``product_complex``,
    inertia, and inertia of inertia."""
    from eulerchi.harness import build_complex, group_by_key, random_case

    for seed in range(30):
        spec = random_case(random.Random(seed), 12, 20)
        x = build_complex(spec)
        g = group_by_key(spec.group_key)
        assert x.space == CellSpace(tuple(
            cells.Cell(f"s{k}c{i}", dim)
            for k, (sub, dim) in enumerate(spec.strata)
            for i in range(len(groups.coset_action(g, sub).reps))
        ))
        assert x.dims == tuple(c.dim for c in x.space.cells)
        half = _every_other_orbit(x)
        rest = sorted(set(range(len(x.dims))) - set(half))
        for part in (half, rest):
            assert restrict_complex(x, part).space == CellSpace(x.space.cells[i] for i in part)
        for y in (swap_points(), point_complex(Z2)):
            assert product_complex(x, y).space == cells.product(x.space, y.space)
        for p in (Z, Presentation.free_abelian(2)):
            ic = InertiaComplex(p, x)
            assert ic.space == _eager_inertia_space(ic, x)
            iic = InertiaComplex(Z, ic)
            assert iic.space == _eager_inertia_space(iic, ic)
            assert iic.dims == tuple(c.dim for c in iic.space.cells)


def test_loaded_and_product_complexes_form_each_cell_once(monkeypatch):
    """``validate_complex`` hands the loaded space to the complex it
    returns, so reading its ``space`` forms no cell a second time; a
    product forms no cell when built, and one per pair of factor cells
    when its ``space`` is first read."""
    x = harness.build_complex(harness.CaseSpec("S3", [([0], 0), ([0], 1)], Z))
    obj, y = complex_obj(x), coset_complex(S3, [0])
    assert len(y.space) == 6
    formed = 0
    original = cells.Cell.__init__

    def counting(self, *args):
        nonlocal formed
        formed += 1
        original(self, *args)

    monkeypatch.setattr(cells.Cell, "__init__", counting)
    loaded = jsonio.load_complex(obj)
    assert len(loaded.space) == formed == 12
    formed = 0
    xy = product_complex(loaded, y)
    assert formed == 0
    assert len(xy.space) == formed == len(loaded.dims) * len(y.dims) == 72


def _reference_order_ell_walk(x: RigidGComplex, ell: int) -> tuple[int, list[int]]:
    """The order-ell recursion over reindexed groups: each branch takes the
    conjugacy classes of its own group, and each class representative's
    fixed subcomplex over its centralizer is the next depth's complex."""
    branches = [0] * ell

    def walk(y: RigidGComplex, depth: int) -> int:
        if depth == ell:
            return chi(orbit_space(y))
        total = 0
        for cls in conjugacy_classes(y.group):
            branches[depth] += 1
            total += walk(fixed_subcomplex(y, (cls.rep,)), depth + 1)
        return total

    return walk(x, 0), branches


def test_order_ell_walk_matches_the_reindexed_recursion():
    """The in-place walk gives the value of the recursion that reindexes
    every centralizer into its own group, and that recursion's branch count
    at every depth d is the walk's order-d value of the group on a point.
    The cyclic point, the product with an abelian factor and the cosets of a
    large normal subgroup take the walk's central-class shortcut often, and
    the coset complexes have last-depth leaves that fix no cell."""
    d6 = groups.dihedral_group(6)
    xs = [point_complex(S3), point_complex(symmetric_group(4)), free_circle(), swap_points()]
    xs += [
        point_complex(cyclic_group(6)),
        coset_complex(groups.direct_product(S3, cyclic_group(3)), [0, 3]),
        coset_complex(d6, list(range(6))),
        coset_complex(d6, [0, 6]),
    ]
    xs += _generated_complexes(30)
    for x in xs:
        pt = point_complex(x.group)
        for ell in range(4):
            value, branches = _reference_order_ell_walk(x, ell)
            assert chi_order_ell(x, ell) == value, ell
            assert branches == [chi_order_ell(pt, d) for d in range(1, ell + 1)], ell


def _commuting_tuples_over_order(table) -> tuple[int, int]:
    """The numbers of commuting pairs and of commuting triples of a group,
    each divided by its order, counted from its multiplication table alone:
    the classes of commuting 1- and 2-tuples by Burnside's lemma."""
    n = len(table)
    # per element, the bitmask of the elements it commutes with
    cent = [sum(1 << b for b in range(n) if table[a][b] == table[b][a]) for a in range(n)]
    pairs = sum(c.bit_count() for c in cent)
    triples = sum((cent[a] & cent[b]).bit_count() for a in range(n) for b in range(n) if cent[a] >> b & 1)
    assert pairs % n == triples % n == 0
    return pairs // n, triples // n


POINT_VALUES = {"S3": [3, 8], "Q8": [5, 22], "S4": [5, 21], "C2xS4": [10, 84], "S5": [7, 39], "S6": [11, 92]}


def test_order_ell_on_a_point_counts_classes_of_commuting_tuples():
    """At order d the walk on a point counts the conjugacy classes of
    commuting d-tuples, |Hom(Z^(d+1), G)| / |G| (Bryan and Fulman 1998 for
    S_n); the count here shares no code with the walk."""
    gs = {key: harness.group_by_key(key) for key in harness._GROUP_BUILDERS}
    gs |= {"S5": symmetric_group(5), "S6": symmetric_group(6)}
    values = {}
    for key, g in gs.items():
        pt = point_complex(g)
        values[key] = [chi_order_ell(pt, d) for d in (1, 2)]
        assert values[key] == list(_commuting_tuples_over_order(g.table)), key
    assert {k: values[k] for k in POINT_VALUES} == POINT_VALUES


def _centre_orders(x: RigidGComplex) -> set[int]:
    """The distinct centre orders |Z(K)| over the subgroups K reached from
    x's cell stabilizers by K -> C_K(a), a in K, read from the table."""
    table = x.group.table

    def cent(k: frozenset, a: int) -> frozenset:
        return frozenset(b for b in k if table[a][b] == table[b][a])

    reached = [frozenset(g for g in x.group.elements() if m >> g & 1) for m in set(x.stabilizer_masks())]
    seen = set(reached)
    for k in reached:
        for a in k:
            c = cent(k, a)
            if c not in seen:
                seen.add(c)
                reached.append(c)
    return {sum(1 for a in k if cent(k, a) == k) for k in seen}


def test_order_ell_values_obey_the_centre_order_recurrence():
    """One depth of the walk sends K to the centralizers C_K(a) of its class
    representatives, and a proper one has a larger centre, so the order-ell
    values satisfy the recurrence whose characteristic polynomial is
    prod (t - |Z(K)|) over the distinct centre orders reached.  No route or
    check relates values at different orders otherwise."""
    xs = {key: point_complex(harness.group_by_key(key)) for key in ("Q8", "S3", "S4", "D4")}
    xs |= {i: harness.build_complex(spec) for i, (_, spec) in enumerate(harness.draw_cases(random.Random(7), 40))}
    checked, widest = 0, 0
    for key, x in xs.items():
        lams = sorted(_centre_orders(x))
        widest = max(widest, len(lams))
        coeffs = [1]  # of prod (t - lam), lowest degree first
        for lam in lams:
            coeffs = [a - lam * b for a, b in zip([0] + coeffs, coeffs + [0])]
        a = [chi_order_ell(x, ell) for ell in range(len(lams) + 4)]
        for ell in range(4):
            assert sum(c * a[ell + k] for k, c in enumerate(coeffs)) == 0, (key, ell, lams, a)
            checked += 1
        if key == "Q8":
            assert lams == [2, 4] and a[:5] == [1, 5, 22, 92, 376]
    assert checked == 176 and widest == 5


def _class_sum(p: Presentation, x: RigidGComplex) -> int:
    """The conjugation-class form of ``chi_gamma_noniter``: chi of each
    class representative's fixed set modulo its centralizer."""
    return sum(fixed_orbit_chi(x, t) for t in brute_orbit_reps(p, x.group))


def test_burnside_noniter_matches_class_sum():
    rng = random.Random(7)
    presentations = [
        Presentation.trivial(),
        Z,
        Presentation.free_abelian(2),
        Presentation.cyclic(3),
    ]
    xs = [free_circle(), swap_points(), point_complex(S3)] + _generated_complexes()
    for x in xs:
        words = [
            tuple(rng.choice([1, -1]) * rng.randint(1, 2) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 2))
        ]
        for p in presentations + [Presentation(2, tuple(words))]:
            assert chi_gamma_noniter(p, x) == _class_sum(p, x), (p, x.perms)


def _per_tuple_burnside(p: Presentation, x: RigidGComplex) -> int:
    """Burnside's lemma tuple by tuple: over every homomorphism tuple t and
    every cell i that t fixes, (-1)^dim_i times the number of elements that
    commute with t and fix i, divided by |G|."""
    perms, total = x.perms, 0
    for t in groups.hom_enumerate(p, x.group):
        cent = centralizer(x.group, t)
        for i, cell in enumerate(x.space.cells):
            if all(perms[e][i] == i for e in t):
                total += (-1) ** cell.dim * sum(perms[b][i] == i for b in cent)
    assert total % x.group.order == 0
    return total // x.group.order


def test_burnside_noniter_matches_a_per_tuple_sum():
    """Adding one term per set of images, times its tuple count, gives the
    sum taken tuple by tuple."""
    rng = random.Random(20)
    presentations = [Presentation.trivial(), Z, Presentation.free_abelian(2), Presentation.cyclic(3)]
    for x in _generated_complexes():
        two = Presentation(2, tuple(
            tuple(rng.choice([1, -1]) * rng.randint(1, 2) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 2))
        ))
        for p in presentations + [two]:
            assert chi_gamma_noniter(p, x) == _per_tuple_burnside(p, x), (p, x.perms)


def test_inertia_pairs_match_the_double_loop():
    """An inertia complex's cells are every (tuple, cell it fixes) pair,
    cell by cell and, within a cell, tuple by tuple."""
    for x in [free_circle(), point_complex(S3)] + _generated_complexes():
        for p in (Presentation.trivial(), Z, Presentation.free_abelian(2), Presentation.cyclic(2)):
            ic = InertiaComplex(p, x)
            assert ic.tuples == groups.hom_enumerate(p, x.group)
            assert ic.pairs == tuple(
                (k, i)
                for i in range(len(x.space))
                for k, t in enumerate(ic.tuples)
                if all(x.perms[e][i] == i for e in t)
            ), (p, x.perms)


def test_burnside_noniter_refuses_a_non_action():
    # trusted, not validated: the generator 1 acts by an involution, which
    # no element of C3 can; the composed action is identity, (1, 0, 2),
    # identity, and the Burnside sum is 2 + 2 + 3 = 7
    x = RigidGComplex(cyclic_group(3), ((1, 0, 2),), (0, 0, 0), cell_id="abc".__getitem__)
    assert x.perms == ((0, 1, 2), (1, 0, 2), (0, 1, 2))
    with pytest.raises(CrossCheckError, match="7 is not divisible by"):
        chi_gamma_noniter(Presentation.trivial(), x)


# --- the classical one-generator sum ----------------------------------------------

def test_string_orb_trivial_group():
    x = point_complex(cyclic_group(1))
    assert chi_order_ell(x, 1) == 1
    y = free_circle()
    # trivial-group route: chi of the space itself
    trivial_y = validate_complex(
        cyclic_group(1), y.space, {0: {c: c for c in y.space.ids()}}
    )
    assert chi_order_ell(trivial_y, 1) == chi(y.space)


def test_string_orb_point():
    assert chi_order_ell(point_complex(S3), 1) == 3
    assert chi_order_ell(point_complex(quaternion_group()), 1) == 5


def test_string_orb_is_order_one():
    for x in (point_complex(S3), free_circle(), coset_complex(S3, [0, 1], dim=2)):
        assert chi_order_ell(x, 1) == lambda_chi(Z, x)


# --- order-ell recursion -----------------------------------------------------------

def test_order_zero_is_orbit_chi():
    for x in (point_complex(S3), free_circle()):
        assert chi_order_ell(x, 0) == chi(orbit_space(x))


def test_order_two_s3_point():
    # oracle: sum over class representatives of the centralizer class count
    total = 0
    for cls in conjugacy_classes(S3):
        cent, _ = groups.subgroup_group(S3, centralizer(S3, (cls.rep,)))
        total += len(conjugacy_classes(cent))
    assert total == 8
    assert chi_order_ell(point_complex(S3), 2) == 8


def test_order_ell_cap():
    """The walk has no cap of its own: that is the order-ell command's."""
    assert chi_order_ell(point_complex(Z2), 5) == 2 ** 5


def test_recursion_cap_refusal_names_its_pair_and_takes_a_cell():
    exc = RecursionCapExceeded(5, 4)
    assert str(exc) == "order 5 exceeds the recursion cap 4"
    assert (exc.ell, exc.cap, exc.model, exc.presentation, exc.cell_id) == (
        5, 4, "order-ell recursion", "free_abelian(5)", None)
    at = exc.with_cell("pt")
    assert isinstance(at, RecursionCapExceeded)
    assert str(at) == "order 5 exceeds the recursion cap 4 at 'pt'"
    assert (at.ell, at.cap, at.model, at.presentation, at.cell_id) == (
        5, 4, "order-ell recursion", "free_abelian(5)", "pt")


def test_an_order_deeper_than_the_stack_is_refused():
    """The walk recurses once per depth; an order past the interpreter's
    stack is refused as a resource limit, an unsupported combination that
    names the stage, and a shallower order still runs."""
    ell = sys.getrecursionlimit()
    x = point_complex(groups.trivial_group())
    with pytest.raises(ResourceLimitExceeded) as info:
        chi_order_ell(x, ell)
    assert isinstance(info.value, UnsupportedCombination)
    assert info.value.stage == "order-ell walk"
    assert str(info.value) == f"order-ell walk: order {ell} recurses deeper than the interpreter's stack allows"
    assert chi_order_ell(x, 100) == 1


# --- inertia complexes ---------------------------------------------------------------

def test_inertia_trivial_presentation_mirrors_base():
    """The trivial presentation's one empty tuple has no position to
    conjugate: its inertia complex is the base, generator by generator."""
    for x in [free_circle(), swap_points(), point_complex(S3)] + _generated_complexes():
        ic = InertiaComplex(Presentation.trivial(), x)
        assert len(ic.space) == len(x.space)
        assert ic.tuples == [()] and ic.gens == tuple(map(tuple, x.gens))
        assert chi(orbit_space(ic)) == chi(orbit_space(x))
        assert lambda_chi(Presentation.trivial(), x) == chi(orbit_space(x))


def test_inertia_free_action_identity_labels_only():
    x = free_circle()
    ic = InertiaComplex(Z, x)
    assert all(ic.tuples[i] == (0,) for i, _ in ic.pairs)


def test_inertia_s3_point_counts():
    ic = InertiaComplex(Z, point_complex(S3))
    assert len(ic.space) == 6
    assert len(cell_orbits(ic)) == 3


def test_inertia_complex_conjugates_by_generators_only(monkeypatch):
    """lambda_chi builds only the generators' permutations of the inertia
    complex, so conjugation is built once per generator, never for every
    element."""
    s5 = symmetric_group(5)
    calls = []
    original = groups.conjugation

    def counted(g, a):
        calls.append(a)
        return original(g, a)

    monkeypatch.setattr(groups, "conjugation", counted)
    assert lambda_chi(Z, point_complex(s5)) == 7
    assert calls == list(s5.generators())


def _placed_inertia_gens(ic: InertiaComplex, x: RigidGComplex) -> tuple[tuple[int, ...], ...]:
    """Per generator s, the image of each inertia cell (t, c), placed by
    conjugating t straight from the table and looking up the pair
    (s t s^-1, s c) among ``ic.pairs``."""
    table, inv = x.group.table, x.group.inverses
    index = {t: i for i, t in enumerate(ic.tuples)}
    pos = {pair: k for k, pair in enumerate(ic.pairs)}
    return tuple(
        tuple(
            pos[index[tuple(table[table[s][e]][inv[s]] for e in ic.tuples[i])], perm[c]]
            for i, c in ic.pairs
        )
        for s, perm in zip(x.group.generators(), x.gens)
    )


def test_inertia_permutations_match_a_direct_placement():
    """Each generator's permutation of the inertia cells sends (t, c) to
    (s t s^-1, s c), on harness complexes with their own presentations, Z
    and the trivial one, an S5 point with Z^2, S5 on the cosets of S4 with
    Z^3 (where one tuple fits several stabilizers), a complex with no cells
    and an inertia complex of an inertia complex."""
    s5 = symmetric_group(5)
    cases = []
    for _, spec in harness.draw_cases(random.Random(3), 100, 48, 60):
        x = harness.build_complex(spec)
        ps = [Z, Presentation.trivial()]
        if x.group.order ** spec.presentation.generators <= 20_000:
            ps.append(spec.presentation)
        cases += [(p, x) for p in ps]
    cosets = coset_complex(s5, range(24), dim=1)  # S4 fixes the point 0
    empty = RigidGComplex(S3, ((),) * len(S3.generators()), (), cell_id=str)
    cases += [(Presentation.free_abelian(2), point_complex(s5)), (Presentation.free_abelian(3), cosets)]
    cases += [(Z, empty), (Presentation.trivial(), empty), (Z, InertiaComplex(Z, swap_points()))]
    cases.append((Z, InertiaComplex(Z, point_complex(S3))))
    assert len(cases) >= 200
    for p, x in cases:
        ic = InertiaComplex(p, x)
        assert ic.gens == _placed_inertia_gens(ic, x), (p, x.gens)
    big = InertiaComplex(Presentation.free_abelian(3), cosets)
    assert len(big.dims) == 2_520 and len({i for i, _ in big.pairs}) < 2_520


def test_lambda_chi_examples():
    assert lambda_chi(Presentation.trivial(), point_complex(S3)) == 1
    assert lambda_chi(Z, point_complex(S3)) == 3
    assert lambda_chi(Presentation.free_abelian(2), point_complex(S3)) == 8


def test_strata_route_examples():
    assert chi_gamma_strata(Z, point_complex(S3)) == 3
    assert chi_gamma_strata(Presentation.trivial(), free_circle()) == 0
    assert chi_gamma_strata(Presentation.cyclic(2), swap_points()) == 1


def test_noniter_reduces_to_string_orb():
    for x in (point_complex(S3), free_circle(), swap_points()):
        assert chi_gamma_noniter(Z, x) == chi_order_ell(x, 1)


@pytest.mark.parametrize(
    "p",
    [
        Presentation.trivial(),
        Z,
        Presentation.free_abelian(2),
        Presentation.cyclic(2),
        Presentation.cyclic(3),
        Presentation(2, ((1, 1), (2, 2))),
    ],
)
@pytest.mark.parametrize(
    "make",
    [
        lambda: point_complex(S3),
        lambda: point_complex(quaternion_group()),
        free_circle,
        swap_points,
        lambda: coset_complex(S3, groups.subgroup_closure(S3, [1]), dim=1),
    ],
)
def test_three_way_agreement(p, make):
    x = make()
    a = chi_gamma_strata(p, x)
    b = lambda_chi(p, x)
    c = chi_gamma_noniter(p, x)
    assert a == b == c


def _bryan_fulman(n: int, ell: int) -> int:
    """Conjugation orbits of commuting ell-tuples in S_n, which equals
    |Hom(Z^(ell+1), S_n)| / n! (Bryan & Fulman, Ann. Comb. 2, 1998).

    With m = ell + 1 and s(k) the number of index-k subgroups of Z^m, the
    exponential formula sum_n h_n q^n / n! = exp(sum_k s(k) q^k / k) gives
    h_n = sum_k s(k) (n-1)!/(n-k)! h_(n-k), all in integers.
    """
    m = ell + 1
    # s(k) = sum over d_1 d_2 ... d_m = k of d_2 d_3^2 ... d_m^(m-1)
    # (Hermite normal forms), built one coordinate at a time
    s = [0] + [1] * n
    for j in range(1, m):
        s = [0] + [sum(s[k // d] * d ** j for d in range(1, k + 1) if k % d == 0) for k in range(1, n + 1)]
    h = [1]
    for j in range(1, n + 1):
        h.append(sum(s[k] * math.perm(j - 1, k - 1) * h[j - k] for k in range(1, j + 1)))
    orbits, rest = divmod(h[n], math.factorial(n))
    assert rest == 0
    return orbits


@pytest.fixture(scope="module")
def symmetric_points():
    return {n: point_complex(symmetric_group(n)) for n in (5, 6)}


@pytest.mark.parametrize("n,ell,expected", [(5, 2, 39), (5, 3, 206), (6, 1, 11), (6, 2, 92), (6, 3, 717)])
def test_bryan_fulman_anchors(symmetric_points, n, ell, expected):
    x = symmetric_points[n]
    assert _bryan_fulman(n, ell) == expected
    assert chi_gamma_noniter(Presentation.free_abelian(ell), x) == expected
    assert chi_order_ell(x, ell) == expected


def test_free_abelian_rank_three_on_s6_is_bryan_fulman(symmetric_points):
    g = symmetric_points[6].group
    assert len(groups.hom_enumerate(Presentation.free_abelian(3), g)) == 720 * _bryan_fulman(6, 2) == 66240


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("make", [lambda: symmetric_group(4), quaternion_group, lambda: groups.dihedral_group(6)])
def test_cyclic_on_a_point_counts_classes_of_k_torsion(make, k):
    """Z/k on a point: the conjugacy classes whose elements satisfy g^k = 1,
    with powers and classes read from the table itself."""
    g = make()
    t = g.table
    classes = {frozenset(t[t[b][a]][g.inverses[b]] for b in range(g.order)) for a in range(g.order)}

    def power(a: int) -> int:
        acc = 0
        for _ in range(k):
            acc = t[acc][a]
        return acc

    expected = sum(1 for c in classes if power(min(c)) == 0)
    assert chi_gamma_noniter(Presentation.cyclic(k), point_complex(g)) == expected


def test_order_ell_equals_free_abelian_noniter():
    for x in (point_complex(S3), free_circle(), point_complex(quaternion_group())):
        for ell in range(4):
            assert chi_order_ell(x, ell) == chi_gamma_noniter(
                Presentation.free_abelian(ell), x
            )


def _stabilizer_count_order_ell(x: RigidGComplex, ell: int) -> int:
    """chi_{Z^ell}(G acting on x) from the group side, by Burnside's lemma:
    (1/|G|) sum over cells i of (-1)^dim_i |Hom(Z^(ell+1), Stab_i)|, where
    |Hom(Z^k, C)| = sum over a in C of |Hom(Z^(k-1), C & C(a))|, memoized
    on (k, bitmask C).  It reads only the group's table, the stabilizer
    bitmasks and the cells' dimensions, and shares no code with the walk."""
    table, n = x.group.table, x.group.order
    cent = [sum(1 << b for b in range(n) if table[a][b] == table[b][a]) for a in range(n)]
    memo: dict[tuple[int, int], int] = {}

    def homs(k: int, c: int) -> int:
        if k == 1:
            return c.bit_count()
        if (k, c) not in memo:
            total, rest = 0, c
            while rest:
                low = rest & -rest
                total += homs(k - 1, c & cent[low.bit_length() - 1])
                rest ^= low
            memo[k, c] = total
        return memo[k, c]

    total = sum(
        (-1 if cell.dim % 2 else 1) * homs(ell + 1, mask)
        for mask, cell in zip(x.stabilizer_masks(), x.space.cells)
    )
    assert total % n == 0
    return total // n


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_order_ell_walk_matches_the_stabilizer_count_up_to_eight(seed):
    """The walk against the group-side count at every ell from 0 to 8, on
    harness complexes over the groups of order up to 48."""
    from eulerchi.harness import build_complex, random_case

    x = build_complex(random_case(random.Random(seed), 48, 20))
    for ell in range(9):
        assert chi_order_ell(x, ell) == _stabilizer_count_order_ell(x, ell), ell


@pytest.mark.parametrize("group,ell,expected", [
    ("Q8", 10, 1_572_352),
    ("Q8", 11, 6_290_432),
    ("Q8", 40, 1813388729421394006245376),
    ("S6", 4, 5_512),
    ("S6", 8, 21_102_992),
])
def test_order_ell_anchors_past_order_three(symmetric_points, group, ell, expected):
    """Q8 and S6 points at high order, by the walk and by the stabilizer
    count.  Without its memo the walk would take about 35 s on Q8 at order
    11, so these also guard the memo."""
    x = symmetric_points[6] if group == "S6" else point_complex(quaternion_group())
    assert chi_order_ell(x, ell) == expected
    assert _stabilizer_count_order_ell(x, ell) == expected


def test_stabilizer_count_calls_no_group_primitive(monkeypatch):
    """The oracle reads the table itself: it calls no function of
    ``groups`` and takes no centralizer bitmask, while the walk it checks
    is seen calling ``groups.orbits`` by the same counters."""
    xs = [point_complex(quaternion_group()), free_circle(), swap_points()] + _generated_complexes(5)
    for x in xs:
        x.stabilizer_masks()  # the complex's own state, built before counting
    names = [name for name, f in vars(groups).items()
             if inspect.isfunction(f) and f.__module__ == groups.__name__]
    counts = _count_calls(monkeypatch, [(groups, name) for name in names]
                          + [(groups.FiniteGroup, "centralizer_mask")])
    for x in xs:
        for ell in range(5):
            _stabilizer_count_order_ell(x, ell)
    assert not any(counts.values()), {k: v for k, v in counts.items() if v}
    for x in xs:
        chi_order_ell(x, 2)
    assert counts["orbits"] > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_three_way_agreement_on_generated_instances(seed):
    from eulerchi.harness import build_complex, random_case

    rng = random.Random(seed)
    spec = random_case(rng, 16, 30)
    x = build_complex(spec)
    p = spec.presentation
    assert chi_gamma_strata(p, x) == lambda_chi(p, x) == chi_gamma_noniter(p, x)


# --- the forgetful map -----------------------------------------------------------------

def test_anchor_trivial_presentation_is_bijection():
    x = free_circle()
    m = anchor_map(Presentation.trivial(), x)
    assert len(m.source) == len(m.target)
    assert all(fiber_chi(m, cid) == 1 for cid in m.target.ids())


def test_anchor_fiber_counts_subgroup_orbits():
    p = Presentation.free_abelian(2)
    x = coset_complex(S3, groups.subgroup_closure(S3, [1]))
    m = anchor_map(p, x)
    for tid in m.target.ids():
        h, _ = groups.subgroup_group(S3, stabilizer(x, tid))
        expected = len(brute_orbit_reps(p, h))
        assert fiber_chi(m, tid) == expected


def test_anchor_pushforward_integrates_to_lambda():
    rng = random.Random(11)
    from eulerchi.harness import build_complex, random_case

    for _ in range(15):
        spec = random_case(rng, 12, 24)
        x = build_complex(spec)
        m = anchor_map(spec.presentation, x)
        pushed = pushforward(m, ConstructibleFunction.constant(m.source, 1))
        assert integrate(pushed) == lambda_chi(spec.presentation, x)


# --- iteration, products, restriction ------------------------------------------------

def iterate_inertia(p1: Presentation, p2: Presentation, x: RigidGComplex) -> tuple[int, int]:
    """chi via the inertia complex of an inertia complex, and via the
    product presentation: the two sides of the ``iterate_inertia`` check."""
    return lambda_chi(p2, InertiaComplex(p1, x)), lambda_chi(groups.product_presentation(p1, p2), x)


def test_iterate_trivial_first_factor():
    x = point_complex(S3)
    it, prod = iterate_inertia(Presentation.trivial(), Z, x)
    assert it == prod == lambda_chi(Z, x)


def test_iterate_z_z_is_order_two():
    it, prod = iterate_inertia(Z, Z, point_complex(S3))
    assert it == prod == 8


def test_iterate_random_instances():
    rng = random.Random(3)
    from eulerchi.harness import iterate_check

    for _ in range(10):
        _, lhs, rhs = iterate_check(rng)
        assert lhs() == rhs()


def test_product_multiplicativity():
    a = point_complex(S3)
    b = free_circle()
    for p in (Z, Presentation.cyclic(2)):
        assert lambda_chi(p, product_complex(a, b)) == lambda_chi(p, a) * lambda_chi(p, b)


@pytest.mark.parametrize("route", [chi_gamma_strata, lambda_chi, chi_gamma_noniter])
def test_product_of_three_complexes_multiplies(route):
    cosets = coset_complex(S3, groups.subgroup_closure(S3, [1]), dim=1)
    factors = (point_complex(S3), swap_points(), cosets)
    triple = product_complex(product_complex(factors[0], factors[1]), factors[2])
    for p in (Z, Presentation.free_abelian(2), Presentation.cyclic(3)):
        assert route(p, triple) == math.prod(route(p, x) for x in factors)


def test_product_with_an_inertia_complex_multiplies():
    inertia = InertiaComplex(Z, point_complex(S3))
    y = coset_complex(S3, groups.subgroup_closure(S3, [1]), dim=1)
    for p in (Z, Presentation.free_abelian(2), Presentation.cyclic(3)):
        assert lambda_chi(p, product_complex(inertia, y)) == lambda_chi(p, inertia) * lambda_chi(p, y)
    # a product whose first factor is itself a product composes with it too
    a, b = point_complex(S3), point_complex(Z2)
    triple = product_complex(product_complex(a, b), inertia)
    assert lambda_chi(Z, triple) == lambda_chi(Z, a) * lambda_chi(Z, b) * lambda_chi(Z, inertia) == 48


def test_restrict_complex_additivity():
    x = coset_complex(S3, groups.subgroup_closure(S3, [1]), dim=1)
    y = point_complex(S3)
    cells = list(x.space.cells) + list(y.space.cells)
    action = {g: {**action_maps(x)[g], **action_maps(y)[g]} for g in S3.elements()}
    whole = validate_complex(S3, CellSpace(tuple(cells)), action)
    p = Presentation.cyclic(2)
    total = chi_gamma_strata(p, whole)
    n = len(x.dims)
    part1 = chi_gamma_strata(p, restrict_complex(whole, range(n)))
    part2 = chi_gamma_strata(p, restrict_complex(whole, range(n, len(whole.dims))))
    assert total == part1 + part2


def test_restrict_complex_requires_invariance():
    x = free_circle()
    with pytest.raises(ValidationError, match="invariant"):
        restrict_complex(x, {x.space.ids().index("v0")})


def test_restrict_complex_refusals():
    """A cell index that is not an int in range, a bool among them, or a
    set no generator keeps is refused; the empty set is an empty complex."""
    x = free_circle()
    for keep, message in [
        (["v0"], "cell index 'v0' is not in range(4)"),
        ([True], "cell index True is not in range(4)"),
        ([-1], "cell index -1 is not in range(4)"),
        ([4], "cell index 4 is not in range(4)"),
        ([0, 2], "cell set is not invariant"),
    ]:
        with pytest.raises(ValidationError) as err:
            restrict_complex(x, keep)
        assert str(err.value) == f"restrict_complex: {message}"
    empty = restrict_complex(x, set())
    assert (empty.group, empty.gens, empty.dims, len(empty.space)) == (x.group, ((),), (), 0)


# --- the coset reduction ---------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_coset_complex_reduces_to_subgroup_point(seed):
    rng = random.Random(seed)
    g = random.Random(seed).choice([S3, quaternion_group(), cyclic_group(6)])
    sub = groups.subgroup_closure(g, [rng.randrange(g.order)])
    h, _ = groups.subgroup_group(g, sub)
    for p in (Z, Presentation.free_abelian(2), Presentation.cyclic(2)):
        lhs = lambda_chi(p, coset_complex(g, sub))
        rhs = len(brute_orbit_reps(p, h))
        assert lhs == rhs
