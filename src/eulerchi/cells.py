"""Exact Euler calculus on finite cell decompositions.

A space is a finite list of open cells, each carrying only an id and a
dimension.  The Euler characteristic is the combinatorial one: an open
d-cell contributes (-1)^d.  It is finitely additive and multiplicative but
not homotopy invariant (an open interval has chi = -1, a half-open interval
has chi = 0, a closed interval has chi = 1).

Two modeling choices are deliberate and worth stating up front:

* Cells carry no attachment or adjacency data.  Everything computed here
  (chi, integrals of constructible functions, pushforwards) depends only on
  the multiset of cell dimensions, so boundary maps would be dead weight.
* No ambient embedding is stored.  chi of a definable set is independent of
  how it sits in Euclidean space, so the library works directly on
  decompositions and treats them as the space.

Maps between cell spaces (``CellMap``) are cell-to-cell assignments with
trivialized-fiber semantics: the fiber over a point of a target cell c
meets a source cell s assigned to c in a single open cell of dimension
dim(s) - dim(c).  That convention makes the Fubini identity
``integrate(pushforward(m, f)) == integrate(f)`` exact on the nose.

The calculus works on cell positions: a function's values and a map's
assignment are tuples in the order of the cells, and the target of a
source cell is a position in the target.  Ids are resolved to positions
once, as values from outside enter, by ``validate_function`` and
``validate_map`` (``validate_space`` checks the cells themselves); they
are named again only in reports and refusals.  Constructors only store
their arguments, and values built here are trusted.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Mapping

from .errors import ValidationError
from .records import Value

# Joins the factor ids of a product cell (and the parts of an inertia id).
# File ids may not contain it, so a generated id never equals an input one;
# ids the program built may, and products of products join them again.
RESERVED_SEPARATOR = "⊗"  # ⊗


class Cell(Value):
    """An open cell: its string ``id`` and its integer dimension ``dim``."""

    __slots__ = ("id", "dim")


class CellSpace(Value):
    """A finite disjoint union of open cells.  The empty space is allowed."""

    __slots__ = ("cells",)

    def __init__(self, cells: Iterable[Cell] = ()):
        super().__init__(tuple(cells))

    @classmethod
    def from_dims(cls, dims: Mapping[str, int]) -> "CellSpace":
        return cls(tuple(Cell(i, d) for i, d in dims.items()))

    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.cells)

    def positions(self) -> dict[str, int]:
        """Each cell id's position in ``cells``, built anew on each call:
        the validators resolve ids from outside with it, once each."""
        return {c.id: i for i, c in enumerate(self.cells)}

    def __len__(self) -> int:
        return len(self.cells)


def validate_space(cells: Iterable[Cell]) -> CellSpace:
    """Check cells from outside: non-empty ids, none twice, dims >= 0."""
    cells = tuple(cells)
    seen: dict[str, int] = {}
    for i, c in enumerate(cells):
        if not isinstance(c, Cell):
            raise ValidationError(f"cells[{i}]: expected a Cell, got {type(c).__name__}")
        if not c.id:
            raise ValidationError(f"cells[{i}].id: empty id")
        if not isinstance(c.dim, int) or isinstance(c.dim, bool) or c.dim < 0:
            raise ValidationError(f"cells[{i}].dim: expected a non-negative integer, got {c.dim!r}")
        if c.id in seen:
            raise ValidationError(f"cells[{i}].id: duplicate id {c.id!r} (first at index {seen[c.id]})")
        seen[c.id] = i
    return CellSpace(cells)


def chi(space: CellSpace) -> int:
    """Euler characteristic: the signed count sum((-1)^dim) over cells."""
    return sum(-1 if c.dim % 2 else 1 for c in space.cells)


class ConstructibleFunction(Value):
    """An integer value per cell of ``space``, ``values[k]`` on cell k (a
    tuple in cell order); the function is constant on each cell."""

    __slots__ = ("space", "values")

    @classmethod
    def constant(cls, space: CellSpace, c: int) -> "ConstructibleFunction":
        return cls(space, (c,) * len(space))


def validate_function(space: CellSpace, values: Mapping[str, int]) -> ConstructibleFunction:
    """Check values from outside, keyed by cell id: one integer per cell."""
    vals, pos = dict(values), space.positions()
    for cid, v in vals.items():
        if cid not in pos:
            raise ValidationError(f"values: {cid!r} is not a cell of the space")
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"values[{cid!r}]: expected an integer, got {v!r}")
    missing = [c.id for c in space.cells if c.id not in vals]
    if missing:
        raise ValidationError(f"values: missing cells {missing}")
    return ConstructibleFunction(space, tuple(vals[c.id] for c in space.cells))


def integrate(f: ConstructibleFunction) -> int:
    """Integral of f with respect to chi: sum over cells of f(c) * (-1)^dim c.

    Equivalently sum_k k * chi({f = k}); the cell-wise sum is the faster
    route and is exact.
    """
    return sum(v * (-1 if c.dim % 2 else 1) for c, v in zip(f.space.cells, f.values))


def integrate_levelset(f: ConstructibleFunction) -> int:
    """The same integral evaluated through level sets:

        sum_{k >= 1} [ chi({f >= k}) - chi({f <= -k}) ]

    Both level sets change only where k passes a value of |f|, so the sum
    runs over the distinct nonzero |values| t in increasing order, each
    term weighted by t minus the value before it: the cost does not grow
    with the values.  Always equals ``integrate(f)``; kept as an
    independent route so the two can be checked against each other.
    """
    signed = [(v, -1 if c.dim % 2 else 1) for c, v in zip(f.space.cells, f.values)]
    total = previous = 0
    for t in sorted({abs(v) for v, _ in signed} - {0}):
        # chi({f >= t}) - chi({f <= -t}), summed over the cells of both sets
        total += (t - previous) * sum(s if v > 0 else -s for v, s in signed if abs(v) >= t)
        previous = t
    return total


def product(*spaces: CellSpace) -> CellSpace:
    """Product space: one cell per tuple of factor cells, in factor order,
    its id the factor ids joined by the reserved separator and its
    dimension their sum.  chi is multiplicative, and products compose:
    ``product(a, b, c) == product(product(a, b), c)``.

    No factors (one cell, its id empty) and an id formed twice are refused;
    factor ids may contain the separator, as a product's own ids do.
    """
    if not spaces:
        raise ValidationError("product: expected at least one factor")
    space = CellSpace(
        tuple(
            Cell(RESERVED_SEPARATOR.join(c.id for c in combo), sum(c.dim for c in combo))
            for combo in itertools.product(*(s.cells for s in spaces))
        )
    )
    repeated = [cid for cid, k in Counter(space.ids()).items() if k > 1]
    if repeated:
        raise ValidationError(f"product: cell id {repeated[0]!r} would be formed twice")
    return space


class CellMap(Value):
    """A cell-to-cell map from cell space ``source`` to ``target`` with
    trivialized fibers.

    ``assign`` is a tuple in source cell order: ``assign[k]`` is the
    position in the target of the cell that source cell k goes to, a cell
    of dimension at most its own.  The fiber over a
    point of target cell c meets source cell s (with assign(s) = c) in one
    open cell of dimension dim(s) - dim(c); maps violating the dimension
    inequality cannot arise that way and are rejected by ``validate_map``.
    """

    __slots__ = ("source", "target", "assign")


def validate_map(source: CellSpace, target: CellSpace, assign: Mapping[str, str]) -> CellMap:
    """Check an assignment from outside, source cell id to target cell id:
    each source cell to a cell of the target of dimension at most its own."""
    assign, spos, tpos = dict(assign), source.positions(), target.positions()
    for sid, tid in assign.items():
        if sid not in spos:
            raise ValidationError(f"assign: {sid!r} is not a cell of the source")
        if tid not in tpos:
            raise ValidationError(f"assign[{sid!r}]: {tid!r} is not a cell of the target")
        sdim, tdim = source.cells[spos[sid]].dim, target.cells[tpos[tid]].dim
        if sdim < tdim:
            raise ValidationError(f"assign[{sid!r}]: dimension {sdim} maps onto higher dimension {tdim}")
    missing = [c.id for c in source.cells if c.id not in assign]
    if missing:
        raise ValidationError(f"assign: missing source cells {missing}")
    return CellMap(source, target, tuple(tpos[assign[c.id]] for c in source.cells))


def pushforward(m: CellMap, f: ConstructibleFunction) -> ConstructibleFunction:
    """Fiberwise integration of f along m.

    (pushforward f)(c) = sum over s with assign(s) = c of
    f(s) * (-1)^(dim s - dim c).  Integrating the result over the target
    gives back integrate(f) exactly.
    """
    if f.space != m.source:
        raise ValidationError("pushforward: function space differs from map source")
    targets, out = m.target.cells, [0] * len(m.target)
    for s, t, v in zip(m.source.cells, m.assign, f.values):
        out[t] += v * (-1 if (s.dim - targets[t].dim) % 2 else 1)
    return ConstructibleFunction(m.target, tuple(out))
