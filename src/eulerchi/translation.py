"""Finite group actions on rigid cell complexes, and the Euler
characteristics of the groupoids they generate.

A ``RigidGComplex`` is a finite group acting on a cell space by
dimension-preserving bijections of cells.  Rigidity, meaning an element
that maps a cell to itself fixes it pointwise, is a modeling assumption the
combinatorics cannot check; it is what makes fixed sets subcomplexes and
the fixed-point formulas below correct.  Complexes that are not rigid
(e.g. a reflection stabilizing an edge while flipping it) must be
subdivided before being encoded.

The core works on integers.  Every complex, the inertia complex among
them, is built by one constructor from one permutation tuple of the cell
indices 0..n-1 per generator of its group (``RigidGComplex.gens``), one
dimension per cell (``dims``) and a function from a cell index to its id
(``cell_id``); each stabilizer is a bitmask over the elements.  No builder
forms a cell: ids are formed where a value names cells, for orbit
representatives and, on first use of ``space``, for every cell; only
``validate_complex`` hands on a space, the one it was given.
``validate_complex`` checks a string-keyed action where it enters
(``jsonio.load_complex``); complexes derived here are trusted.

Four routes to the same integers live here and are cross-validated by the
test suite and the ``verify`` harness:

* ``chi_gamma_strata`` -- integrate homomorphism-quotient chi over the
  orbit space, stratum by stratum;
* ``lambda_chi`` -- build the inertia complex of commuting-with-relations
  labels explicitly and take chi of its orbit space;
* ``chi_gamma_noniter`` -- a Burnside count over homomorphism tuples and
  the cells they fix, from bitmasks alone: it walks no orbits, and adds one
  term per distinct set of images, times the number of tuples with it;
* ``chi_order_ell`` -- the recursive order-ell characteristic over
  iterated centralizer actions on fixed sets; order 1 is the classical
  one-generator sum over conjugacy classes of the group.

Every orbit of cells is walked on cell indices by ``groups.orbits``, a
breadth-first closure under the permutations it is given, and an orbit's
representative is its first cell in cell order.  Orbits of a whole group,
order 0 of the order-ell route among them, are walked on ``gens``, by
``cell_orbits`` where the orbits themselves are wanted, each a set of cell
indices keyed by its first cell; ``restrict_complex`` takes indices too.
``validate_complex`` checks the homomorphism law on the pairs (generator,
element), which implies it on every pair.  The order-ell route walks its
recursion in the given complex's own element and cell indices, memoized
within one call (``chi_order_ell`` describes the walk); nothing reindexes a
centralizer into a group or a complex of its own.

The extension prediction: an abelian extension of an action's groupoid has
the free-abelian chi of its fiber times that of the action, which
``abelian_extension_chi`` reports factor by factor, the second by
``chi_gamma_strata``; ``validate_extension`` checks an extension where it
enters (``jsonio.load_extension``).
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, compress, repeat
from operator import eq, mul, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import catalog, groups
from .catalog import FiniteIsotropy, IsotropyModel
from .cells import Cell, CellMap, CellSpace, RESERVED_SEPARATOR
from .errors import CrossCheckError, ResourceLimitExceeded, ValidationError
from .groupoid import OrbitGroupoid, chi_gamma
from .groups import FiniteGroup, HomTuple, Presentation
from .records import Value


class RigidGComplex:
    """A finite group acting cellwise on cells 0..n-1, stored as its
    generators' permutations: the k-th element of ``group.generators()``
    sends cell i to cell ``gens[k][i]``.  Cell i has dimension ``dims[i]``
    and id ``cell_id(i)``.  Every element's permutation is built from the
    generators' once, on first use of ``perms``, and the cell space once,
    on first use of ``space``, unless its builder hands it over.  The core
    reads a cell only as its index and its dimension.  The arguments are
    trusted; a string-keyed action from outside goes through
    ``validate_complex``."""

    __slots__ = ("group", "gens", "dims", "cell_id", "_space", "_perms", "_stab")

    def __init__(
        self, group: FiniteGroup, gens: Sequence[Sequence[int]], dims: Sequence[int],
        *, cell_id: Callable[[int], str],
    ):
        self.group = group
        self.gens = gens
        self.dims = dims
        self.cell_id = cell_id
        self._space: CellSpace | None = None
        self._perms: tuple[tuple[int, ...], ...] | None = None
        self._stab: list[int] | None = None

    @property
    def space(self) -> CellSpace:
        """Every cell, formed from ``cell_id`` and ``dims`` on first use."""
        if self._space is None:
            self._space = _cells(self, range(len(self.dims)))
        return self._space

    @property
    def perms(self) -> tuple[tuple[int, ...], ...]:
        """Per element, its permutation of the cell indices, composed
        breadth-first from the identity by rho(s*h) = rho(s) o rho(h) for
        each generator s."""
        if self._perms is None:
            table, pairs = self.group.table, tuple(zip(self.group.generators(), self.gens))
            perms: list = [None] * self.group.order
            perms[0] = tuple(range(len(self.dims)))
            frontier = [0]
            for h in frontier:
                ph = perms[h]
                for s, ps in pairs:
                    sh = table[s][h]
                    if perms[sh] is None:
                        perms[sh] = tuple(map(ps.__getitem__, ph))
                        frontier.append(sh)
            self._perms = tuple(perms)
        return self._perms

    def stabilizer_masks(self) -> list[int]:
        """Per cell index, the stabilizer as a bitmask over the elements."""
        if self._stab is None:
            self._stab = [
                sum(1 << g for g, perm in enumerate(self.perms) if perm[i] == i)
                for i in range(len(self.dims))
            ]
        return self._stab


def validate_complex(
    group: FiniteGroup, space: CellSpace, action: Mapping[int, Mapping[str, str]]
) -> RigidGComplex:
    """Check a string-keyed action and return it as a ``RigidGComplex``.

    ``action[g]`` maps cell ids to cell ids; the identity entry may be
    omitted and defaults to the identity map.  Each element must act by a
    dimension-preserving bijection of the cells, and the assignment must
    be a homomorphism on every pair of elements.  That is checked on the
    pairs (generator, element); a failure there runs the sweep over every
    pair, so the refusal names the first failing pair in element order.
    """
    ids, pos = space.ids(), space.positions()
    idset, dims = set(ids), tuple(c.dim for c in space.cells)
    perms = []
    for g in group.elements():
        if g in action:
            m = dict(action[g])
        elif g == 0:
            m = {cid: cid for cid in ids}
        else:
            raise ValidationError(f"action: missing entry for element {g}")
        if set(m) != idset:
            bad = sorted(set(m) ^ idset)
            raise ValidationError(f"action[{g}]: cell set mismatch at {bad}")
        if set(m.values()) != idset:
            raise ValidationError(f"action[{g}] is not a bijection of cells")
        for cid, img in m.items():
            if dims[pos[cid]] != dims[pos[img]]:
                raise ValidationError(
                    f"action[{g}] maps {cid!r} (dim {dims[pos[cid]]}) "
                    f"to {img!r} (dim {dims[pos[img]]})"
                )
        perms.append(tuple(pos[m[cid]] for cid in ids))
    extra = set(action) - set(group.elements())
    if extra:
        raise ValidationError(f"action: entries for non-elements {sorted(extra)}")
    moved = [cid for i, cid in enumerate(ids) if perms[0][i] != i]
    if moved:
        raise ValidationError(f"action[0] must be the identity map (moves {moved[0]!r})")
    # with rho(0) = id, rho(s*h) = rho(s) o rho(h) for every generator s
    # and every h gives rho(g*h) = rho(g) o rho(h) by induction on the
    # length of g as a word in the generators
    table = group.table
    if any(
        perms[table[s][h]] != tuple(map(perms[s].__getitem__, ph))
        for s in group.generators()
        for h, ph in enumerate(perms)
    ):
        for g in group.elements():
            for h in group.elements():
                pg, ph, pgh = perms[g], perms[h], perms[group.mul(g, h)]
                for i, cid in enumerate(ids):
                    if pg[ph[i]] != pgh[i]:
                        raise ValidationError(
                            f"action is not a homomorphism: "
                            f"({g}*{h}) and composition disagree at cell {cid!r}"
                        )
    gens = tuple(perms[s] for s in group.generators())
    x = RigidGComplex(group, gens, dims, cell_id=ids.__getitem__)
    x._space = space
    return x


def _cells(x: RigidGComplex, indices: Iterable[int]) -> CellSpace:
    """The cells of x at ``indices``, with their ids and dimensions."""
    return CellSpace(tuple(Cell(x.cell_id(i), x.dims[i]) for i in indices))


def point_complex(group: FiniteGroup) -> RigidGComplex:
    """The group acting (necessarily trivially) on a single point, ``pt``."""
    return RigidGComplex(group, ((0,),) * len(group.generators()), (0,), cell_id=("pt",).__getitem__)


def coset_complex(group: FiniteGroup, subgroup: Sequence[int], dim: int = 0) -> RigidGComplex:
    """The left translation action on cosets of a subgroup, one cell per
    coset, ``c0``, ``c1``, ..., all of the given dimension."""
    ca = groups.coset_action(group, subgroup)
    return RigidGComplex(group, ca.gens, (dim,) * len(ca.reps), cell_id=lambda i: f"c{i}")


def cell_orbits(x: RigidGComplex) -> dict[int, set[int]]:
    """Each orbit of x's cell indices, keyed by its first cell, in cell order."""
    return dict(groups.orbits(x.gens, range(len(x.dims))))


def orbit_space(x: RigidGComplex) -> CellSpace:
    """Cell space of orbit representatives, each orbit's first cell, in
    cell order (dimension is preserved)."""
    return _cells(x, cell_orbits(x))


def orbit_groupoid(x: RigidGComplex) -> OrbitGroupoid:
    """Orbit space with each representative labeled by its stabilizer, the
    labels in the order of the representatives."""
    reps, masks = cell_orbits(x), x.stabilizer_masks()
    stabs = ([g for g in x.group.elements() if masks[i] >> g & 1] for i in reps)
    iso = tuple(FiniteIsotropy(groups.subgroup_group(x.group, s)[0]) for s in stabs)
    return OrbitGroupoid(_cells(x, reps), iso)


def restrict_complex(x: RigidGComplex, keep: Iterable[int]) -> RigidGComplex:
    """Restriction to an invariant set of cell indices (checked); cells keep their ids."""
    keep, n = list(keep), len(x.dims)
    for i in keep:
        if type(i) is not int or not 0 <= i < n:
            raise ValidationError(f"restrict_complex: cell index {i!r} is not in range({n})")
    idx = sorted(set(keep))
    # a set each generator keeps is kept by the whole group
    for perm in x.gens:
        if {perm[i] for i in idx} != set(idx):
            raise ValidationError("restrict_complex: cell set is not invariant")
    pos = {i: k for k, i in enumerate(idx)}
    gens = tuple(tuple(pos[perm[i]] for i in idx) for perm in x.gens)
    return RigidGComplex(x.group, gens, tuple(x.dims[i] for i in idx), cell_id=lambda k: x.cell_id(idx[k]))


def product_complex(x: RigidGComplex, y: RigidGComplex) -> RigidGComplex:
    """Product action of the product group on the product space, its ids
    and dims those of ``cells.product`` (named on demand, not rechecked)."""
    group = groups.direct_product(x.group, y.group)
    n, m, xperms, yperms = len(y.dims), y.group.order, x.perms, y.perms
    # cell (i, j) of the product sits at index i * n + j, and element
    # (a, b) at index a * m + b
    gens = tuple(
        tuple(pa[i] * n + pb[j] for i in range(len(x.dims)) for j in range(n))
        for pa, pb in ((xperms[e // m], yperms[e % m]) for e in group.generators())
    )
    return RigidGComplex(
        group, gens, tuple(a + b for a in x.dims for b in y.dims),
        cell_id=lambda k: f"{x.cell_id(k // n)}{RESERVED_SEPARATOR}{y.cell_id(k % n)}",
    )


def _orbit_chi(x: RigidGComplex, fixed: Sequence[int], perms: Sequence[Sequence[int]]) -> int:
    """chi of the cells at indices ``fixed`` (increasing, invariant under
    ``perms``) modulo the group that the permutations ``perms`` of x's cells
    generate, counted in x's own indices: each orbit adds (-1)^dim.  No
    group, cell space or complex is built."""
    dims = x.dims
    return sum(-1 if dims[i] % 2 else 1 for i, _ in groups.orbits(perms, fixed))


def chi_order_ell(x: RigidGComplex, ell: int) -> int:
    """Order-ell characteristic, recursing over conjugacy classes.

    Order 0 is chi of the orbit space, the orbits of the whole group walked
    on its generators; order 1 is the classical one-generator sum, over
    conjugacy classes, of chi of the centralizer quotient of the class
    representative's fixed set.

    Every branch stays in x's own element and cell indices.  It carries its
    centralizer, a sorted list of x's elements, starting from the whole
    group, and the cells its tuple (the class representatives of the depths
    above it) fixes, starting from every cell.  The centralizer's classes
    are {b a b^-1 : b in it}, read from x's table; walking the list in
    order makes each representative its class's least element.  A child's
    centralizer is the parent's, filtered to the elements that commute with
    the representative, and its cells are the parent's, filtered to those
    the representative fixes.  A representative its whole centralizer
    commutes with is central there, and its class is itself alone
    (orbit-stabilizer), so that class set is not built.  A leaf counts its
    centralizer's orbits on its cells (``_orbit_chi``); one that fixes no
    cell adds 0 and walks no orbit.  Nothing is built below the root.

    A subtree is a function of its centralizer, its cells and its depth
    alone, so ``walk`` is memoized on those, as an element bitmask, a cell
    bitmask and the depth, for the length of one call: its cost grows with
    the number of distinct subtrees rather than with products of class
    counts.  The walk recurses once per depth, and an order deeper than the
    interpreter's stack is refused (``ResourceLimitExceeded``).
    """
    if ell < 0:
        raise ValidationError("ell must be >= 0")
    if ell == 0:
        return _orbit_chi(x, range(len(x.dims)), x.gens)
    table, inv = x.group.table, x.group.inverses
    masks, xperms = x.stabilizer_masks(), x.perms
    memo: dict[tuple[int, int, int], int] = {}

    def walk(cent: list[int], fixed: list[int], depth: int) -> int:
        key = (sum(1 << b for b in cent), sum(1 << i for i in fixed), depth)
        if key in memo:
            return memo[key]
        total, seen, last = 0, set(), depth + 1 == ell
        for a in cent:
            if a in seen:
                continue
            row = table[a]
            child = [b for b in cent if table[b][a] == row[b]]
            if len(child) < len(cent):
                seen |= {table[table[b][a]][inv[b]] for b in cent}
            below = [i for i in fixed if masks[i] >> a & 1]
            if not last:
                total += walk(child, below, depth + 1)
            elif below:
                total += _orbit_chi(x, below, [xperms[b] for b in child])
        memo[key] = total
        return total

    try:
        return walk(list(x.group.elements()), list(range(len(masks))), 0)
    except RecursionError:
        raise ResourceLimitExceeded(
            "order-ell walk", f"order {ell} recurses deeper than the interpreter's stack allows"
        ) from None


class InertiaComplex(RigidGComplex):
    """The complex of pairs (homomorphism tuple, cell it stabilizes).

    Cells are pairs (t, c) with every image of t stabilizing c; the pair
    inherits the dimension of c (the label factor is zero-dimensional for a
    finite group).  The group acts by simultaneous conjugation on t and the
    original action on c, stored like any complex's as its generators'
    permutations.  The cells sit in one block per base cell, in cell
    order: the tuples that fit its stabilizer, in tuple order, listed once
    per distinct stabilizer bitmask from the tuples' image sets
    (``_image_masks``).  ``pairs[k]`` is the cell at index k as its (index
    into ``tuples``, base cell index) pair.  It is built by
    ``RigidGComplex.__init__`` like any complex, so it forms no id until
    one is read: cell k's id is ``"<tuple index><separator><base cell id>"``.
    """

    __slots__ = ("tuples", "pairs")

    def __init__(self, p: Presentation, x: RigidGComplex):
        homs = groups.hom_enumerate(p, x.group)
        needs = list(_image_masks(homs, x.group.order))
        masks = x.stabilizer_masks()
        # per stabilizer m, the indices of the tuples whose images lie in m
        fits = {m: list(compress(range(len(needs)), _within(m, needs))) for m in set(masks)}
        # (tuple index, cell index) of every pair, in cell order
        pairs = tuple((i, c) for c, m in enumerate(masks) for i in fits[m])
        super().__init__(
            x.group, _inertia_perms(x, homs, fits), tuple(x.dims[c] for _, c in pairs),
            cell_id=lambda k: f"{pairs[k][0]}{RESERVED_SEPARATOR}{x.cell_id(pairs[k][1])}",
        )
        self.tuples, self.pairs = homs, pairs


def _inertia_perms(
    x: RigidGComplex, tuples: Sequence[HomTuple], fits: Mapping[int, list[int]]
) -> tuple[tuple[int, ...], ...]:
    """Per generator s of x's group, its permutation of the inertia cells,
    one block per base cell c listing ``fits[masks[c]]``: s sends (t, c)
    to (s t s^-1, s c).  Stab(s c) = s Stab(c) s^-1, so every cell with
    stabilizer m lands at the same places in its target block, found once
    per stabilizer; each cell adds its target block's start.  Only the
    tuples some cell holds are indexed and conjugated, a column at a time."""
    masks = x.stabilizer_masks()
    starts = list(accumulate((len(fits[m]) for m in masks), initial=0))
    rank = {m: {i: j for j, i in enumerate(held)} for m, held in fits.items()}
    index = {tuples[i]: i for i in set().union(*fits.values())}
    columns = list(zip(*index))
    out = []
    for a, perm in zip(x.group.generators(), x.gens):
        by_a = groups.conjugation(x.group, a).__getitem__
        # a conjugate of a tuple that fits c fits s c, so it is held too
        conjugates = zip(*[map(by_a, column) for column in columns]) if columns else index
        conj = dict(zip(index.values(), map(index.__getitem__, conjugates)))
        places, image = {}, []
        for c, m in enumerate(masks):
            if m not in places:
                to = rank[masks[perm[c]]]
                places[m] = [to[conj[i]] for i in fits[m]]
            image += map(starts[perm[c]].__add__, places[m])
        out.append(tuple(image))
    return tuple(out)


def _within(mask: int, sets: Sequence[int]) -> list[bool]:
    """Per bitmask of ``sets``, whether it lies inside ``mask``."""
    return list(map(eq, map(mask.__and__, sets), sets))


def _image_masks(tuples: Sequence[HomTuple], order: int) -> Iterator[int]:
    """Per tuple, the set of its images as a bitmask over the elements,
    formed a position at a time from one bit per element.  The masks come
    lazily, not as a list: each is as wide as the group."""
    bit = [1 << e for e in range(order)].__getitem__
    masks: Iterator[int] = repeat(0, len(tuples))
    for column in zip(*tuples):
        masks = map(or_, masks, map(bit, column))
    return masks


def lambda_chi(p: Presentation, x: RigidGComplex) -> int:
    """chi of the orbit space of the inertia complex, counted on its
    generators' permutations and dimensions, as order 0 of the walk is."""
    ic = InertiaComplex(p, x)
    return _orbit_chi(ic, range(len(ic.dims)), ic.gens)


def chi_gamma_strata(p: Presentation, x: RigidGComplex) -> int:
    """Stratum-wise integral over the orbit space of x."""
    return chi_gamma(orbit_groupoid(x), p)


def chi_gamma_noniter(p: Presentation, x: RigidGComplex) -> int:
    """Sum over conjugation classes [t] of homomorphism tuples of chi of
    the centralizer quotient of the tuple's fixed set, by Burnside's lemma:
    (1/|G|) times the sum over every tuple t and every cell i it fixes of
    (-1)^dim_i |C(t) & Stab_i| (Atiyah-Segal 1989; Hirzebruch-Hoefer 1990),
    from stabilizer and centralizer bitmasks.  Both C(t) and the cells t
    fixes depend only on the set of t's images, so the tuples are counted
    per image set (as its bitmask ``need``, formed a position at a time by
    ``_image_masks``) and each set's term is added once, times its count;
    the terms are summed per stabilizer bitmask, over the image sets inside
    it.  A sum not divisible by |G| means x is not an action
    (``CrossCheckError``).  The free abelian case of rank ell is
    ``chi_order_ell(x, ell)``.
    """
    g = x.group
    weight: dict[int, int] = {}  # signed cell count per stabilizer bitmask
    for mask, d in zip(x.stabilizer_masks(), x.dims):
        weight[mask] = weight.get(mask, 0) + (-1 if d % 2 else 1)
    tuples = Counter(_image_masks(groups.hom_enumerate(p, g), g.order))  # count per image set
    needs, counts = list(tuples), list(tuples.values())
    cent, cents = [g.centralizer_mask(a) for a in g.elements()], []
    for need in needs:  # C(t): the AND of the centralizers of t's images
        c, rest = (1 << g.order) - 1, need
        while rest:
            low = rest & -rest
            c &= cent[low.bit_length() - 1]
            rest ^= low
        cents.append(c)
    total = 0
    for m, w in weight.items():  # the cells with stabilizer m, and the image sets inside m
        inside = _within(m, needs)
        fixing = map(int.bit_count, map(m.__and__, compress(cents, inside)))  # |C(t) & m|
        total += w * sum(map(mul, compress(counts, inside), fixing))
    if total % g.order:
        raise CrossCheckError(f"chi_gamma_noniter: Burnside sum {total} is not divisible by |G| = {g.order}")
    return total // g.order


def anchor_map(p: Presentation, x: RigidGComplex) -> CellMap:
    """The forgetful map from the inertia orbit space to the orbit space
    of x, sending the class of (t, c) to the class of c.

    Dimensions match cell by cell, and pushing the constant function 1
    forward along this map integrates to ``lambda_chi(p, x)``.  Both
    spaces list their orbits' first cells in cell order, and the map
    assigns each source orbit the position of its base orbit.
    """
    ic = InertiaComplex(p, x)
    reps, base = cell_orbits(ic), cell_orbits(x)
    position = {r: k for k, r in enumerate(base)}
    # the pairs run in x's cell order, and an inertia orbit lies over a
    # whole orbit of x, so its first cell lies over that orbit's first cell
    assign = tuple(position[ic.pairs[k][1]] for k in reps)
    return CellMap(_cells(ic, reps), _cells(x, base), assign)


class ExtensionPrediction(Value):
    """``predicted`` is ``factor_b * factor_h``: the fiber's free-abelian
    chi times the base action's."""

    __slots__ = ("predicted", "factor_b", "factor_h")


def validate_extension(bundle_fiber: IsotropyModel, h: FiniteGroup, x: RigidGComplex, ell: int) -> dict:
    """Check an extension from outside, the one place one is checked: the
    fiber is a finite abelian group or a torus, and x is an action of h."""
    if isinstance(bundle_fiber, FiniteIsotropy):
        b = bundle_fiber.group
        # abelian exactly when the table is its own transpose
        if b.table != tuple(zip(*b.table)):
            raise ValidationError("abelian_extension_chi: finite fiber is not abelian")
    elif not isinstance(bundle_fiber, catalog.TorusIsotropy):
        raise ValidationError("abelian_extension_chi: fiber must be a finite abelian or torus entry")
    if x.group != h:
        raise ValidationError("abelian_extension_chi: complex is not an action of the given group")
    return {"fiber": bundle_fiber, "group": h, "complex": x, "ell": ell}


def abelian_extension_chi(bundle_fiber: IsotropyModel, x: RigidGComplex, ell: int) -> ExtensionPrediction:
    """Prediction for a groupoid extending the action of ``x.group`` on x
    by a bundle with the given abelian fiber: the free-abelian chi of the
    fiber times the free-abelian chi of the base action.

    Both factors are reported so a disagreement with a directly computed
    value can be audited.  The factorization needs the abelian fiber that
    ``validate_extension`` checks for; it genuinely fails without one.
    """
    za = Presentation.free_abelian(ell)
    if isinstance(bundle_fiber, FiniteIsotropy):
        factor_b = bundle_fiber.group.order ** ell
    else:
        factor_b = catalog.hom_chi_abelian(bundle_fiber, za)
    factor_h = chi_gamma_strata(za, x)
    return ExtensionPrediction(factor_b * factor_h, factor_b, factor_h)
