import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from eulerchi import cells, groupoid, groups, harness, jsonio, translation
from eulerchi.catalog import FiniteIsotropy
from eulerchi.cells import (
    RESERVED_SEPARATOR,
    CellSpace,
    ConstructibleFunction,
    chi,
    fiber_chi,
    integrate,
    integrate_levelset,
    pushforward,
)
from eulerchi.errors import CrossCheckError, RecursionCapExceeded, ValidationError
from eulerchi.groupoid import product_groupoid
from eulerchi.groups import Presentation, Z, cyclic_group, quaternion_group, symmetric_group
from eulerchi.translation import (
    RigidGComplex,
    anchor_map,
    cell_orbits,
    chi_gamma_noniter,
    chi_gamma_strata,
    chi_order_ell,
    coset_complex,
    fixed_orbit_chi,
    inertia_complex,
    iterate_inertia,
    lambda_chi,
    orbit_groupoid,
    orbit_space,
    point_complex,
    product_complex,
    restrict_complex,
    validate_complex,
)

S3 = symmetric_group(3)
Z2 = cyclic_group(2)


def fixed_subcomplex(x: RigidGComplex, t: tuple[int, ...]) -> RigidGComplex:
    """Cells fixed by every image of the tuple, as a complex over the
    centralizer of the tuple, reindexed into a group of its own: the
    reference that the in-place counts of ``fixed_orbit_chi`` and the
    order-ell walk are checked against."""
    fixed = translation._fixed_ids(x, t, "fixed_subcomplex")
    cgroup, elems = groups.subgroup_group(x.group, groups.centralizer(x.group, t))
    return translation._restrict(x, fixed, cgroup, elems)


def stabilizer(x: RigidGComplex, cell_id: str) -> list[int]:
    """Sorted list of elements mapping the cell to itself."""
    mask = x.stabilizer_masks()[x.space.index(cell_id)]
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
            action = {int(e): m for e, m in jsonio.dump_complex(x)["action"].items()}
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
    assert x.act(0, "a") == "a"
    with pytest.raises(ValidationError, match="identity"):
        validate_complex(Z2, space, {0: {"a": "b", "b": "a"}, 1: {"a": "b", "b": "a"}})


def test_missing_element_entry():
    space = CellSpace.from_dims({"a": 0})
    with pytest.raises(ValidationError, match="missing entry"):
        validate_complex(cyclic_group(3), space, {1: {"a": "a"}})


def test_unknown_cell_and_element_refused():
    x = swap_points()
    with pytest.raises(ValidationError, match="unknown cell id 'nope'"):
        x.act(1, "nope")
    with pytest.raises(ValidationError, match="unknown cell id 'nope'"):
        stabilizer(x, "nope")
    for g in (2, -1):
        with pytest.raises(ValidationError, match=f"element {g} out of range"):
            x.act(g, "a")


def _revalidated_perms(x: RigidGComplex):
    action = jsonio.dump_complex(x)["action"]
    return validate_complex(x.group, x.space, {int(g): m for g, m in action.items()}).perms


def test_derived_complexes_are_valid_actions():
    """The constructors that build permutations without a check give valid
    actions: rebuilt from their own string maps through
    ``validate_complex``, they give the same permutations."""
    generated = _generated_complexes()
    cosets = coset_complex(S3, groups.subgroup_closure(S3, [1]), dim=1)
    derived = [
        point_complex(S3),
        cosets,
        product_complex(cosets, swap_points()),
        product_complex(point_complex(Z2), free_circle()),
        restrict_complex(product_complex(cosets, swap_points()), []),
    ] + generated
    for x in generated + [cosets, free_circle()]:
        reps, rep_of = cell_orbits(x)
        derived.append(restrict_complex(x, [c for c in x.space.ids() if rep_of[c] in reps[::2]]))
        derived += [fixed_subcomplex(x, (e,)) for e in x.group.elements()]
        derived += [inertia_complex(p, x) for p in (Z, Presentation.free_abelian(2))]
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
    jsonio.load_complex(jsonio.dump_complex(xs[1]))
    assert len(calls) == 1


def _harness_complexes():
    return [free_circle(), coset_complex(S3, [0, 1])] + _generated_complexes(5)


def _derived_cell_values():
    """Spaces, functions, maps and groupoids the program builds itself, none
    of them checked on construction."""
    rng = random.Random(5)
    for x in _harness_complexes():
        og = orbit_groupoid(x)
        yield x.space
        yield og
        yield product_groupoid(og, og)
        yield harness.random_function(rng, x.space)
        for p in (Z, Presentation.free_abelian(2)):
            m = anchor_map(p, x)
            yield m
            yield pushforward(m, ConstructibleFunction.constant(m.source, 1))
            yield inertia_complex(p, x).space


def test_cell_validators_run_only_at_the_edge(monkeypatch):
    calls = []
    for module, name in (
        (cells, "validate_space"),
        (cells, "validate_function"),
        (cells, "validate_map"),
        (groupoid, "validate_groupoid"),
    ):
        def counting(*args, _original=getattr(module, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    harness.run_suite(seed=3, cases=5)
    for x in _harness_complexes():
        for p in (Z, Presentation.free_abelian(2)):
            chi_gamma_strata(p, x)
            lambda_chi(p, x)
            chi_gamma_noniter(p, x)
        chi_order_ell(x, 2)
    for value in _derived_cell_values():
        if isinstance(value, ConstructibleFunction):
            integrate_levelset(value)
    assert calls == []

    space = {"cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}]}
    loads = [
        (jsonio.load_cell_space, space, ["validate_space"]),
        (
            jsonio.load_function,
            {"space": space, "values": {"v": 1, "e": 2}},
            ["validate_space", "validate_function"],
        ),
        (
            jsonio.load_cell_map,
            {"source": space, "target": {"cells": [{"id": "pt", "dim": 0}]},
             "assign": {"v": "pt", "e": "pt"}},
            ["validate_space", "validate_space", "validate_map"],
        ),
        (
            jsonio.load_groupoid,
            {"strata": [{"id": "pt", "dim": 0, "isotropy": {"kind": "torus", "n": 1}}]},
            ["validate_space", "validate_groupoid"],
        ),
        (jsonio.load_complex, jsonio.dump_complex(coset_complex(S3, [0, 1])), ["validate_space"]),
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
    """What the program builds without a check, the validators let in."""
    for value in _derived_cell_values():
        if isinstance(value, CellSpace):
            cells.validate_space(value.cells)
        elif isinstance(value, ConstructibleFunction):
            cells.validate_space(value.space.cells)
            cells.validate_function(value.space, value.values)
        elif isinstance(value, cells.CellMap):
            cells.validate_space(value.source.cells)
            cells.validate_space(value.target.cells)
            cells.validate_map(value.source, value.target, value.assign)
        else:
            cells.validate_space(value.space.cells)
            groupoid.validate_groupoid(value.space, value.isotropy)


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
    label = og.label(og.space.ids()[0])
    assert isinstance(label, FiniteIsotropy) and label.group.order == 1


def test_orbit_space_free_circle():
    x = free_circle()
    quotient = orbit_space(x)
    assert sorted(c.dim for c in quotient.cells) == [0, 1]
    assert chi(quotient) == 0
    og = orbit_groupoid(x)
    assert all(og.label(cid).group.order == 1 for cid in og.space.ids())


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
    c -> act(g, c): each orbit in cell order, orbits ordered by their first
    cell."""
    ids = x.space.ids()
    parent = {c: c for c in ids}

    def root(c: str) -> str:
        while parent[c] != c:
            c = parent[c]
        return c

    for g in x.group.elements():
        for c in ids:
            parent[root(x.act(g, c))] = root(c)
    blocks: dict[str, list[str]] = {}
    for c in ids:
        blocks.setdefault(root(c), []).append(c)
    return list(blocks.values())


def test_orbit_walk_matches_a_brute_force_partition():
    """``cell_orbits``, ``orbit_space`` and ``anchor_map`` give the
    partition a union-find over ``act`` gives, with each representative
    its orbit's first cell in cell order."""
    for x in _generated_complexes():
        inertias = {p: inertia_complex(p, x) for p in (Z, Presentation.free_abelian(2))}
        fixed = [fixed_subcomplex(x, (a,)) for a in x.group.elements()]
        for y in [x, *inertias.values(), *fixed]:
            orbits = _brute_orbits(y)
            reps, rep_of = cell_orbits(y)
            assert reps == tuple(o[0] for o in orbits)
            assert rep_of == {c: o[0] for o in orbits for c in o}
            assert orbit_space(y).cells == tuple(y.space.cells[y.space.index(o[0])] for o in orbits)
        base_orbits = _brute_orbits(x)
        base_rep = {c: o[0] for o in base_orbits for c in o}
        for p, ic in inertias.items():
            m = anchor_map(p, x)
            source = [o[0] for o in _brute_orbits(ic)]
            assert m.source.ids() == tuple(source)
            assert m.target.ids() == tuple(o[0] for o in base_orbits)
            # an inertia cell's id is "<tuple index><separator><base cell id>"
            assert m.assign == {s: base_rep[s.split(RESERVED_SEPARATOR, 1)[1]] for s in source}


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
        [(translation, name) for name in ("fixed_orbit_chi", "CellSpace", "RigidGComplex")]
        + [(groups, name) for name in
           ("subgroup_group", "conj_orbit_count", "centralizer", "conjugacy_classes", "hom_enumerate", "orbits")],
    )
    for x in xs:
        for p in (Presentation.trivial(), Z, Presentation.free_abelian(2), Presentation.cyclic(3)):
            chi_gamma_noniter(p, x)
    assert {k: v for k, v in counts.items() if v} == {"hom_enumerate": 4 * len(xs)}
    masks = _count_calls(monkeypatch, [(groups.FiniteGroup, "centralizer_mask")])
    for x in xs:
        for ell in range(4):
            counts.update(dict.fromkeys(counts, 0))
            _, branches = translation._order_ell_walk(x, ell, 4)
            assert counts["hom_enumerate"] == counts["conj_orbit_count"] == masks["centralizer_mask"] == 0
            assert counts["RigidGComplex"] == counts["CellSpace"] == counts["subgroup_group"] == 0
            assert counts["orbits"] > 0  # the counter sees the walk's orbits
    chi_gamma_noniter(Z, point_complex(S3))
    assert masks["centralizer_mask"] > 0  # the counter sees the count's bitmasks
    value, branches = translation._order_ell_walk(point_complex(S3), 2, 4)
    assert (value, branches) == (8, [3, 8])


def _reference_order_ell_walk(x: RigidGComplex, ell: int) -> tuple[int, list[int]]:
    """The order-ell recursion over reindexed groups: each branch takes the
    conjugacy classes of its own group, and each class representative's
    fixed subcomplex over its centralizer is the next depth's complex."""
    branches = [0] * ell

    def walk(y: RigidGComplex, depth: int) -> int:
        if depth == ell:
            return chi(orbit_space(y))
        total = 0
        for cls in groups.conjugacy_classes(y.group):
            branches[depth] += 1
            total += walk(fixed_subcomplex(y, (cls.rep,)), depth + 1)
        return total

    return walk(x, 0), branches


def test_order_ell_walk_matches_the_reindexed_recursion():
    """The in-place walk gives the value and the per-depth branch counts of
    the recursion that reindexes every centralizer into its own group."""
    xs = [point_complex(S3), point_complex(symmetric_group(4)), free_circle(), swap_points()]
    xs += _generated_complexes(30)
    for x in xs:
        for ell in range(4):
            assert translation._order_ell_walk(x, ell, 4) == _reference_order_ell_walk(x, ell), ell


def _class_sum(p: Presentation, x: RigidGComplex) -> int:
    """The conjugation-class form of ``chi_gamma_noniter``: chi of each
    class representative's fixed set modulo its centralizer."""
    homs = groups.hom_enumerate(p, x.group)
    return sum(fixed_orbit_chi(x, t) for t in groups.conj_orbit_count(homs, x.group).reps)


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


def test_burnside_noniter_refuses_a_non_action():
    # trusted, not validated: element 1 acts by an involution, which no
    # element of C3 can; the Burnside sum is 2 + 2 + 3 = 7
    x = RigidGComplex(
        cyclic_group(3), CellSpace.from_dims({"a": 0, "b": 0, "c": 0}),
        ((0, 1, 2), (1, 0, 2), (0, 1, 2)),
    )
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
    for cls in groups.conjugacy_classes(S3):
        cent, _ = groups.subgroup_group(S3, groups.centralizer(S3, (cls.rep,)))
        total += len(groups.conjugacy_classes(cent))
    assert total == 8
    assert chi_order_ell(point_complex(S3), 2) == 8


def test_order_ell_cap():
    with pytest.raises(RecursionCapExceeded):
        chi_order_ell(point_complex(Z2), 5)
    assert chi_order_ell(point_complex(Z2), 5, cap=5) == 2 ** 5
    with pytest.raises(ValidationError, match="recursion cap must be >= 0, got -1"):
        chi_order_ell(point_complex(Z2), 0, cap=-1)


def test_recursion_cap_refusal_names_its_pair_and_takes_a_cell():
    with pytest.raises(RecursionCapExceeded) as info:
        chi_order_ell(point_complex(Z2), 5)
    exc = info.value
    assert str(exc) == "order 5 exceeds the recursion cap 4"
    assert (exc.ell, exc.cap, exc.model, exc.presentation, exc.cell_id) == (
        5, 4, "order-ell recursion", "free_abelian(5)", None)
    at = exc.with_cell("pt")
    assert isinstance(at, RecursionCapExceeded)
    assert str(at) == "order 5 exceeds the recursion cap 4 at 'pt'"
    assert (at.ell, at.cap, at.model, at.presentation, at.cell_id) == (
        5, 4, "order-ell recursion", "free_abelian(5)", "pt")


# --- inertia complexes ---------------------------------------------------------------

def test_inertia_trivial_presentation_mirrors_base():
    x = free_circle()
    ic = inertia_complex(Presentation.trivial(), x)
    assert len(ic.space) == len(x.space)
    assert chi(orbit_space(ic)) == chi(orbit_space(x))


def test_inertia_free_action_identity_labels_only():
    x = free_circle()
    ic = inertia_complex(Z, x)
    assert all(ic.tuples[i] == (0,) for i, _ in ic.pairs)


def test_inertia_s3_point_counts():
    ic = inertia_complex(Z, point_complex(S3))
    assert len(ic.space) == 6
    reps, _ = cell_orbits(ic)
    assert len(reps) == 3


def test_inertia_complex_conjugates_by_generators_only(monkeypatch):
    """lambda_chi builds only the generators' permutations of the inertia
    complex, so each label tuple is conjugated once per generator."""
    s5 = symmetric_group(5)
    calls = []
    original = groups.FiniteGroup.conj_tuple

    def counted(self, a, t):
        calls.append(a)
        return original(self, a, t)

    monkeypatch.setattr(groups.FiniteGroup, "conj_tuple", counted)
    assert lambda_chi(Z, point_complex(s5)) == 7
    assert 0 < len(calls) <= len(s5.generators()) * len(groups.hom_enumerate(Z, s5))


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
    classes = {frozenset(t[t[b][a]][g.inv(b)] for b in range(g.order)) for a in range(g.order)}

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
    _, rep_of = cell_orbits(x)
    for tid in m.target.ids():
        h, _ = groups.subgroup_group(S3, stabilizer(x, tid))
        expected = groups.conj_orbit_count(groups.hom_enumerate(p, h), h).count
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


def test_restrict_complex_additivity():
    x = coset_complex(S3, groups.subgroup_closure(S3, [1]), dim=1)
    y = point_complex(S3)
    cells = list(x.space.cells) + list(y.space.cells)
    action = {g: {c: z.act(g, c) for z in (x, y) for c in z.space.ids()} for g in S3.elements()}
    whole = validate_complex(S3, CellSpace(tuple(cells)), action)
    p = Presentation.cyclic(2)
    total = chi_gamma_strata(p, whole)
    part1 = chi_gamma_strata(p, restrict_complex(whole, x.space.ids()))
    part2 = chi_gamma_strata(p, restrict_complex(whole, y.space.ids()))
    assert total == part1 + part2


def test_restrict_complex_requires_invariance():
    x = free_circle()
    with pytest.raises(ValidationError, match="invariant"):
        restrict_complex(x, {"v0"})


# --- the coset reduction ---------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_coset_complex_reduces_to_subgroup_point(seed):
    rng = random.Random(seed)
    g = random.Random(seed).choice([S3, quaternion_group(), cyclic_group(6)])
    sub = groups.subgroup_closure(g, [rng.randrange(g.order)])
    h, _ = groups.subgroup_group(g, sub)
    for p in (Z, Presentation.free_abelian(2), Presentation.cyclic(2)):
        lhs = lambda_chi(p, coset_complex(g, sub))
        rhs = groups.conj_orbit_count(groups.hom_enumerate(p, h), h).count
        assert lhs == rhs
