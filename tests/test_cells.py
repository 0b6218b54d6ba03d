import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from eulerchi.cells import (
    Cell,
    CellMap,
    CellSpace,
    ConstructibleFunction,
    RESERVED_SEPARATOR,
    chi,
    integrate,
    integrate_levelset,
    product,
    pushforward,
    validate_function,
    validate_map,
    validate_space,
)
from eulerchi.errors import ValidationError

EMPTY = CellSpace()
CLOSED_INTERVAL = CellSpace.from_dims({"v0": 0, "v1": 0, "e": 1})
HALF_OPEN = CellSpace.from_dims({"v0": 0, "e": 1})
CIRCLE = CellSpace.from_dims({"v": 0, "e": 1})


# --- random inputs --------------------------------------------------------


def random_cell_map(rng: random.Random) -> CellMap:
    """A cell map onto 1-6 target cells from 0-12 source cells, each sent
    to a target cell of dimension at most its own."""
    target = CellSpace(tuple(Cell(f"t{i}", rng.randint(0, 2)) for i in range(rng.randint(1, 6))))
    min_dim = min(c.dim for c in target.cells)
    src = []
    assign = {}
    for i in range(rng.randint(0, 12)):
        dim = rng.randint(min_dim, 3)
        candidates = [c.id for c in target.cells if c.dim <= dim]
        src.append(Cell(f"s{i}", dim))
        assign[f"s{i}"] = rng.choice(candidates)
    return validate_map(CellSpace(tuple(src)), target, assign)


def fiber_chi(m: CellMap, target_cell: str) -> int:
    """chi of the fiber over (any point of) a target cell c: each source
    cell s over c contributes a (dim s - dim c)-cell to the fiber."""
    cdim = next(c.dim for c in m.target.cells if c.id == target_cell)
    total = 0
    for s, t in zip(m.source.cells, m.assign):
        if m.target.cells[t].id == target_cell:
            total += -1 if (s.dim - cdim) % 2 else 1
    return total


# --- hypothesis strategies -------------------------------------------------

cell_spaces = st.builds(
    lambda dims: CellSpace(tuple(Cell(f"c{i}", d) for i, d in enumerate(dims))),
    st.lists(st.integers(0, 4), max_size=10),
)


@st.composite
def functions(draw):
    space = draw(cell_spaces)
    values = {cid: draw(st.integers(-8, 8)) for cid in space.ids()}
    return validate_function(space, values)


@st.composite
def cell_maps(draw):
    target_dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    target = CellSpace(tuple(Cell(f"t{i}", d) for i, d in enumerate(target_dims)))
    lo = min(target_dims)
    n_src = draw(st.integers(0, 10))
    src, assign = [], {}
    for i in range(n_src):
        dim = draw(st.integers(lo, 4))
        tid = draw(st.sampled_from([c.id for c in target.cells if c.dim <= dim]))
        src.append(Cell(f"s{i}", dim))
        assign[f"s{i}"] = tid
    return validate_map(CellSpace(tuple(src)), target, assign)


# --- chi -------------------------------------------------------------------

@pytest.mark.parametrize(
    "space,expected",
    [(EMPTY, 0), (CLOSED_INTERVAL, 1), (HALF_OPEN, 0), (CIRCLE, 0)],
)
def test_chi_basic(space, expected):
    assert chi(space) == expected


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        validate_space((Cell("a", 0), Cell("a", 1)))


def test_empty_id_rejected():
    with pytest.raises(ValidationError, match="empty id"):
        validate_space((Cell("", 0),))


@given(cell_spaces, st.randoms(use_true_random=False))
def test_chi_and_integrate_invariant_under_permutation_and_renaming(space, rnd):
    cells = list(space.cells)
    rnd.shuffle(cells)
    renamed = CellSpace(tuple(Cell(f"x{c.id}", c.dim) for c in cells))
    assert chi(renamed) == chi(space)
    values = {c.id: rnd.randint(-5, 5) for c in space.cells}
    f = validate_function(space, values)
    g = validate_function(renamed, {f"x{cid}": v for cid, v in values.items()})
    assert integrate(g) == integrate(f)


# --- integration -----------------------------------------------------------

def test_integrate_constant_is_c_chi():
    for space in (CLOSED_INTERVAL, HALF_OPEN, CIRCLE):
        for c in (-3, 0, 5):
            assert integrate(ConstructibleFunction.constant(space, c)) == c * chi(space)


def test_integrate_two_weighted_endpoints():
    f = validate_function(CLOSED_INTERVAL, {"v0": 1, "v1": 1, "e": 0})
    assert integrate(f) == 2


def test_integrate_sphere_orbit_interval():
    # two 0-cells valued 0, one 1-cell valued 1: the k = 0 case of the
    # rotation-action integrand on the sphere
    f = validate_function(CLOSED_INTERVAL, {"v0": 0, "v1": 0, "e": 1})
    assert integrate(f) == -1


def test_levelset_zero_function():
    for space in (EMPTY, CIRCLE, CLOSED_INTERVAL):
        assert integrate_levelset(ConstructibleFunction.constant(space, 0)) == 0


def test_levelset_mixed_signs():
    f = validate_function(HALF_OPEN, {"v0": 2, "e": -1})
    # oracle: the direct cell sum
    assert integrate(f) == 2 * 1 + (-1) * (-1) == 3
    assert integrate_levelset(f) == 3


def test_levelset_takes_runaway_values():
    """The level-set route has no bound on |f|; ``eulerchi integrate``'s
    refusal of such values is the command's own."""
    f = validate_function(HALF_OPEN, {"v0": 10**7, "e": 0})
    assert integrate(f) == integrate_levelset(f) == 10**7


@given(functions())
def test_levelset_equals_integrate(f):
    assert integrate_levelset(f) == integrate(f)


def test_levelset_cost_does_not_grow_with_the_values():
    # level sets are taken only at the values f takes, not at every k below them
    rng = random.Random(11)
    space = CellSpace(tuple(Cell(f"c{i}", rng.randint(0, 3)) for i in range(1000)))
    f = validate_function(space, {cid: rng.choice((10**6, -(10**6))) for cid in space.ids()})
    start = time.perf_counter()
    assert integrate_levelset(f) == integrate(f)
    assert time.perf_counter() - start < 1.0


def test_levelset_builds_no_spaces(monkeypatch):
    # each level sums the signs of its cells; no level set becomes a space
    calls = []
    init = CellSpace.__init__
    monkeypatch.setattr(CellSpace, "__init__", lambda *a: calls.append("CellSpace") or init(*a))
    f = validate_function(CLOSED_INTERVAL, {"v0": 3, "v1": -2, "e": 1})
    assert integrate_levelset(f) == integrate(f) == 0
    assert calls == []


@given(functions(), st.randoms(use_true_random=False))
def test_integrate_additive_over_partition(f, rnd):
    ids = list(f.space.ids())
    keep = {cid for cid in ids if rnd.random() < 0.5}
    rest = set(ids) - keep
    parts = 0
    for sub in (keep, rest):
        sp = CellSpace(tuple(c for c in f.space.cells if c.id in sub))
        parts += integrate(validate_function(sp, {c: v for c, v in zip(ids, f.values) if c in sub}))
    assert integrate(f) == parts


def test_function_must_be_total():
    with pytest.raises(ValidationError, match="missing"):
        validate_function(CLOSED_INTERVAL, {"v0": 1})
    with pytest.raises(ValidationError, match="not a cell"):
        validate_function(CIRCLE, {"v": 0, "e": 0, "ghost": 1})


# --- products ---------------------------------------------------------------

def test_product_with_empty():
    assert product(CLOSED_INTERVAL, EMPTY) == EMPTY
    assert product(EMPTY, CIRCLE) == EMPTY


def test_product_square():
    square = product(CLOSED_INTERVAL, CLOSED_INTERVAL)
    assert len(square) == 9
    assert chi(square) == 1


def test_product_circle_interval():
    assert chi(product(CIRCLE, CLOSED_INTERVAL)) == 0


@given(cell_spaces, cell_spaces)
def test_product_chi_multiplicative(x, y):
    assert chi(product(x, y)) == chi(x) * chi(y)


@given(cell_spaces, cell_spaces, cell_spaces)
def test_product_composes(x, y, z):
    assert product(x, y, z) == product(product(x, y), z) == product(x, product(y, z))


def test_product_refuses_repeated_ids():
    sep = RESERVED_SEPARATOR
    left = CellSpace.from_dims({"a": 0, f"a{sep}b": 0})
    right = CellSpace.from_dims({f"b{sep}c": 1, "c": 0})
    with pytest.raises(ValidationError, match=f"'a{sep}b{sep}c' would be formed twice"):
        product(left, right)
    # a factor built by hand with a repeated id
    repeated = CellSpace((Cell("a", 0), Cell("a", 1)))
    with pytest.raises(ValidationError, match=f"'a{sep}v' would be formed twice"):
        product(repeated, CIRCLE)


def test_product_refuses_no_factors():
    """No factors would make one cell with the empty id, which
    ``validate_space`` refuses; one factor is that factor."""
    with pytest.raises(ValidationError, match="product: expected at least one factor"):
        product()
    assert product(CIRCLE) == CIRCLE


def test_restrict_open_interval():
    # the open edge of a closed interval, on its own
    assert chi(CellSpace(c for c in CLOSED_INTERVAL.cells if c.id == "e")) == -1


# --- maps, fibers, pushforward ----------------------------------------------

def square_projection() -> CellMap:
    square = CellSpace.from_dims(
        {"c00": 0, "c01": 0, "c10": 0, "c11": 0, "ey0": 1, "ey1": 1, "ex0": 1, "ex1": 1, "f": 2}
    )
    assign = {
        "c00": "v0", "c01": "v0", "ey0": "v0",
        "c10": "v1", "c11": "v1", "ey1": "v1",
        "ex0": "e", "ex1": "e", "f": "e",
    }
    return validate_map(square, CLOSED_INTERVAL, assign)


def test_fiber_chi_identity():
    m = validate_map(CIRCLE, CIRCLE, {cid: cid for cid in CIRCLE.ids()})
    assert all(fiber_chi(m, cid) == 1 for cid in CIRCLE.ids())


def test_fiber_chi_square_projection():
    m = square_projection()
    # fiber over an endpoint is a closed interval: chi computed by chi()
    endpoint_fiber = CellSpace.from_dims({"c00": 0, "c01": 0, "ey0": 1})
    assert fiber_chi(m, "v0") == chi(endpoint_fiber) == 1
    # fiber over the open edge: two open edges and an open square, each
    # dropping a dimension
    assert fiber_chi(m, "e") == 1


def test_map_rejects_dimension_increase():
    src = CellSpace.from_dims({"s": 0})
    tgt = CellSpace.from_dims({"t": 1})
    with pytest.raises(ValidationError, match="dimension"):
        validate_map(src, tgt, {"s": "t"})


def test_pushforward_identity():
    f = validate_function(CIRCLE, {"v": 3, "e": -2})
    identity = validate_map(CIRCLE, CIRCLE, {cid: cid for cid in CIRCLE.ids()})
    assert pushforward(identity, f).values == f.values


def test_pushforward_square_projection():
    m = square_projection()
    pushed = pushforward(m, ConstructibleFunction.constant(m.source, 1))
    assert dict(zip(pushed.space.ids(), pushed.values)) == {"v0": 1, "v1": 1, "e": 1}
    assert integrate(pushed) == 1


def test_pushforward_collapse_circle():
    point = CellSpace.from_dims({"pt": 0})
    m = validate_map(CIRCLE, point, {"v": "pt", "e": "pt"})
    pushed = pushforward(m, ConstructibleFunction.constant(CIRCLE, 1))
    assert dict(zip(pushed.space.ids(), pushed.values)) == {"pt": 0}


@given(cell_maps())
def test_pushforward_of_one_is_fiber_chi(m):
    pushed = pushforward(m, ConstructibleFunction.constant(m.source, 1))
    assert dict(zip(pushed.space.ids(), pushed.values)) == {cid: fiber_chi(m, cid) for cid in m.target.ids()}


def test_pushforward_space_mismatch():
    f = validate_function(CIRCLE, {"v": 1, "e": 1})
    with pytest.raises(ValidationError, match="source"):
        pushforward(square_projection(), f)


@settings(max_examples=200)
@given(cell_maps(), st.randoms(use_true_random=False))
def test_fubini(m, rnd):
    f = validate_function(m.source, {cid: rnd.randint(-5, 5) for cid in m.source.ids()})
    assert integrate(pushforward(m, f)) == integrate(f)


def test_fubini_seeded_bulk():
    rng = random.Random(7)
    for _ in range(200):
        m = random_cell_map(rng)
        f = validate_function(m.source, {cid: rng.randint(-6, 6) for cid in m.source.ids()})
        assert integrate(pushforward(m, f)) == integrate(f)
