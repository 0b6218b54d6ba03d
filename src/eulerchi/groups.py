"""Finite groups as multiplication tables and finitely presented groups.

A finite group is an n x n table over 0..n-1 with the identity pinned at
index 0.  Every table from outside the program enters through
``validate_group``, the one place a table is checked, at every order.  It
accepts a table after one pass over the entries (integers in range), the
identity row and column, the rows of the greedy generators (permutations)
and Light's associativity test on those generators.  That proves a group:
associativity makes every row a product of generator rows, hence a
permutation, so every element has a right inverse.  Only a table that
fails runs the full sweep, whose fixed order of checks words the refusal:
entries, identity row and column, every row and column a permutation, then
associativity with a witness triple.  Tables built here from valid groups
(standard constructors, direct products, subgroups) are groups by
construction.

A presentation is a generator count plus relator words; a word is a list of
nonzero signed integers, 1-based generator indices with sign meaning
inverse.  ``validate_presentation`` checks those from outside and drops the
empty word (the identity); the rest are trusted.  Homomorphisms into
a finite group are enumerated as tuples of generator images satisfying
every relator, via depth-first assignment: relators are compiled once and
evaluated from table lookups, and a commutator of two generators narrows
the later one's candidates to a centralizer bitmask instead of being
evaluated.  The output is defined to equal the brute-force filter of the
full tuple space and is emitted in lexicographic order.

Conjugates, conjugacy classes and centralizers are read from the table as
they are needed; no group keeps a table of conjugates.

``orbits``, a breadth-first closure under permutations of indices, is the
one orbit walk behind cell orbits, conjugation orbits of tuples and
subgroup closures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import eq, itemgetter
from typing import Iterable, Sequence

from .errors import ValidationError

HomTuple = tuple[int, ...]


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    """Generators and relators; ``generators`` may be 0 (the trivial group)."""

    generators: int
    relators: tuple[tuple[int, ...], ...] = ()

    @classmethod
    def trivial(cls) -> "Presentation":
        return cls(0)

    @classmethod
    def cyclic(cls, k: int) -> "Presentation":
        return cls(1, ((1,) * k,))

    @classmethod
    def free_abelian(cls, rank: int) -> "Presentation":
        rels = tuple(
            (i + 1, j + 1, -(i + 1), -(j + 1))
            for i in range(rank)
            for j in range(i + 1, rank)
        )
        return cls(rank, rels)

    @classmethod
    def free(cls, rank: int) -> "Presentation":
        return cls(rank)


def validate_presentation(generators, relators) -> Presentation:
    """Check a presentation from outside, the one place one is checked:
    a non-negative generator count and words of letters in range.  The
    empty word is the identity and imposes nothing, so it is dropped."""
    if type(generators) is not int or generators < 0:
        raise ValidationError(f"generators: expected a non-negative integer, got {generators!r}")
    for i, w in enumerate(relators):
        if not isinstance(w, (list, tuple)):
            raise ValidationError(f"relators[{i}]: expected a list of letters, got {w!r}")
        for letter in w:
            if type(letter) is not int:
                raise ValidationError(f"relators[{i}]: letter {letter!r} is not an integer")
            if letter == 0 or abs(letter) > generators:
                raise ValidationError(
                    f"relators[{i}]: letter {letter!r} out of range for {generators} generators"
                )
    return Presentation(generators, tuple(tuple(w) for w in relators if w))


# ``Z`` is the one-generator free presentation; the workhorse for inertia.
Z = Presentation.free(1)


def presentation_class(p: Presentation) -> str | None:
    """Syntactic class of a presentation, or None when unrecognized.

    Recognized classes: "trivial", "Z", "cyclic(k)", "free_abelian(r)".
    Classification is purely syntactic (the canonical relator sets of the
    shorthand constructors); recognizing e.g. the integers presented with a
    redundant relator is out of scope.
    """
    if p.generators == 0:
        return "trivial"
    if p.generators == 1:
        if not p.relators:
            return "Z"
        if len(p.relators) == 1:
            w = p.relators[0]
            if all(l == 1 for l in w):
                return f"cyclic({len(w)})"
        return None
    canonical = set(Presentation.free_abelian(p.generators).relators)
    if set(p.relators) == canonical and len(p.relators) == len(canonical):
        return f"free_abelian({p.generators})"
    return None


def product_presentation(p1: Presentation, p2: Presentation) -> Presentation:
    """Presentation of the direct product: generators side by side, original
    relators, plus all cross commutators."""
    n1, n2 = p1.generators, p2.generators

    def shift(w: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(l + n1 if l > 0 else l - n1 for l in w)

    cross = tuple(
        (i + 1, n1 + j + 1, -(i + 1), -(n1 + j + 1))
        for i in range(n1)
        for j in range(n2)
    )
    return Presentation(n1 + n2, p1.relators + tuple(shift(w) for w in p2.relators) + cross)


# ---------------------------------------------------------------------------
# finite groups


def _group_generators(rows: tuple[tuple[int, ...], ...]) -> list[int] | None:
    """The greedy generating set of a square table proved a group, or None.
    The proof does not check every row and column: integer entries in
    range, 0 a two-sided identity, permutation rows for the greedy
    generators, and Light's test on them.  With
    associativity the row of a*b is the row of a composed with the row of
    b, and every element is a product of generators, so every row is a
    permutation and every element has a right inverse."""
    n = len(rows)
    # one pass over the entries; the set comparisons below are exact only
    # for ints, since 0.0 and False equal 0
    if set(map(type, itertools.chain.from_iterable(rows))) != {int}:
        return None
    identity = tuple(range(n))
    if not set().union(*rows) <= set(identity):
        return None
    if rows[0] != identity or tuple(map(itemgetter(0), rows)) != identity:
        return None
    gens = _generators(rows)
    if any(len(set(rows[g])) != n for g in gens):
        return None
    return gens if _associativity_failure(rows, gens) is None else None


def _refuse(rows: tuple[tuple[int, ...], ...]) -> None:
    """Check every axiom in a fixed order and raise at the first failure,
    naming it: entries, identity row and column, rows, columns, then
    associativity with a witness triple.  Returns only on a group."""
    n = len(rows)
    elements = set(range(n))
    # a row holding integers whose set is 0..n-1 is in range and a permutation
    not_perm = [
        i for i, row in enumerate(rows) if set(map(type, row)) != {int} or set(row) != elements
    ]
    for i in not_perm:
        for j, v in enumerate(rows[i]):
            if type(v) is not int or not 0 <= v < n:
                raise ValidationError(f"table entry at ({i},{j}) out of range 0..{n - 1}")
    if rows[0] != tuple(range(n)):
        raise ValidationError("identity failure: row 0 is not the identity permutation")
    if any(row[0] != i for i, row in enumerate(rows)):
        raise ValidationError("identity failure: column 0 is not the identity permutation")
    if not_perm:
        raise ValidationError(f"row {not_perm[0]} is not a permutation")
    for j, column in enumerate(zip(*rows)):
        if len(set(column)) != n:
            raise ValidationError(f"column {j} is not a permutation")
    witness = _associativity_failure(rows, _generators(rows))
    if witness is not None:
        x, g, y = witness
        raise ValidationError(
            f"associativity failure at triple ({x},{g},{y}): "
            f"({x}*{g})*{y} = {rows[rows[x][g]][y]} but {x}*({g}*{y}) = {rows[x][rows[g][y]]}"
        )


def _associativity_failure(
    rows: Sequence[Sequence[int]], gens: Iterable[int]
) -> tuple[int, int, int] | None:
    """Light's test: the elements g with (x*g)*y == x*(g*y) for all x, y
    are closed under the product, so checking g over a generating set
    proves associativity in O(n^2 * |gens|) (Clifford & Preston 1961,
    section 1.2).  Returns the first failing triple (x, g, y), generator
    by generator, or None."""
    for g in gens:
        times_g = itemgetter(*rows[g])  # row_x -> (x*(g*y) for y); n >= 2 here
        for x, row_x in enumerate(rows):
            left, right = rows[row_x[g]], times_g(row_x)
            if left != right:
                return x, g, next(y for y in range(len(rows)) if left[y] != right[y])
    return None


def _generators(rows: Sequence[Sequence[int]]) -> list[int]:
    """A generating set, chosen greedily in index order: every element is
    reached from 0 by right multiplication by generators."""
    reached, gens = {0}, []
    for a in range(1, len(rows)):
        if a not in reached:
            gens.append(a)
            frontier = list(reached)
            while frontier:
                row = rows[frontier.pop()]
                new = {row[g] for g in gens} - reached
                reached |= new
                frontier.extend(new)
    return gens


class FiniteGroup:
    """A finite group given by its multiplication table; identity is 0.

    The table is trusted, not checked: a table from outside the program
    goes through ``validate_group``.  Besides the table and its inverses
    a group keeps only the enumeration's centralizer bitmasks and its
    greedy generating set, which ``validate_group`` passes in.
    """

    __slots__ = ("order", "table", "_inv", "_cent", "_gens")

    def __init__(self, table: Sequence[Sequence[int]], generators: Sequence[int] | None = None):
        self.table = tuple(map(tuple, table))
        self.order = len(self.table)
        # a * a^-1 = 0: the inverse is the column holding 0 in row a
        self._inv = tuple(self.table[a].index(0) for a in range(self.order))
        self._cent: tuple[int, ...] | None = None
        self._gens = None if generators is None else tuple(generators)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def centralizer_mask(self, a: int) -> int:
        """The centralizer of a as a bitmask over the elements, from a
        cached table of every element's mask."""
        if self._cent is None:
            bits = [1 << b for b in range(self.order)]
            # b commutes with a where row a and column a of the table agree
            self._cent = tuple(
                sum(itertools.compress(bits, map(eq, row, col)))
                for row, col in zip(self.table, zip(*self.table))
            )
        return self._cent[a]

    def generators(self) -> tuple[int, ...]:
        """The greedy generating set of ``_generators``, computed once; the
        trivial group has none."""
        if self._gens is None:
            self._gens = tuple(_generators(self.table))
        return self._gens

    def conj_tuple(self, a: int, t: HomTuple) -> HomTuple:
        table, row, ai = self.table, self.table[a], self._inv[a]
        return tuple(table[row[x]][ai] for x in t)

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def validate_group(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate a multiplication table at any order and wrap it: the one
    place a table is checked.  A group is accepted by ``_group_generators``:
    integer entries in range, a two-sided identity 0, permutation rows for
    the greedy generators, and Light's test on them, which proves
    associativity and with it that every row is a permutation.  Any other
    table goes through the full sweep, which raises ValidationError naming
    the first failed axiom in a fixed order (with a witness triple for
    associativity)."""
    if len(table) == 0:
        raise ValidationError("group table is empty (order must be >= 1)")
    n = len(table)
    rows = []
    for i, row in enumerate(table):
        try:
            row = tuple(row)
        except TypeError:
            raise ValidationError(f"table row {i} is not a list") from None
        if len(row) != n:
            raise ValidationError(f"table row {i} has length {len(row)}, expected {n}")
        rows.append(row)
    rows = tuple(rows)
    gens = _group_generators(rows)
    if gens is None:
        _refuse(rows)
    return FiniteGroup(rows, gens)


# ---------------------------------------------------------------------------
# standard constructions


def trivial_group() -> FiniteGroup:
    return FiniteGroup(((0,),))


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError(f"cyclic order must be >= 1, got {n}")
    return FiniteGroup(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def symmetric_group(n: int) -> FiniteGroup:
    """S_n with elements enumerated in lexicographic one-line order, so the
    identity permutation sits at index 0.  mul(p, q) applies q first."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )
    return FiniteGroup(table)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: element i + n*j is r^i s^j."""
    if n < 1:
        raise ValidationError("dihedral parameter must be >= 1")
    order = 2 * n

    def mul(x: int, y: int) -> int:
        i, j = x % n, x // n
        k, l = y % n, y // n
        rot = (i + (k if j == 0 else -k)) % n
        return rot + n * ((j + l) % 2)

    return FiniteGroup(tuple(tuple(mul(a, b) for b in range(order)) for a in range(order)))


def quaternion_group() -> FiniteGroup:
    """Q8 with elements ordered 1, -1, i, -i, j, -j, k, -k."""
    # (sign, axis) with axis 0=1, 1=i, 2=j, 3=k
    def unpack(x: int) -> tuple[int, int]:
        return (-1 if x % 2 else 1, x // 2)

    def pack(sign: int, axis: int) -> int:
        return 2 * axis + (0 if sign == 1 else 1)

    axis_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }

    def mul(x: int, y: int) -> int:
        sx, ax = unpack(x)
        sy, ay = unpack(y)
        s, a = axis_mul[(ax, ay)]
        return pack(sx * sy * s, a)

    return FiniteGroup(tuple(tuple(mul(a, b) for b in range(8)) for a in range(8)))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with pair (a, b) at index a * |h| + b."""
    n, m = g.order, h.order
    table = tuple(
        tuple(g.mul(a1, a2) * m + h.mul(b1, b2) for a2 in range(n) for b2 in range(m))
        for a1 in range(n)
        for b1 in range(m)
    )
    return FiniteGroup(table)


# ---------------------------------------------------------------------------
# words and homomorphism enumeration


def _is_commutator(w: tuple[int, ...]) -> bool:
    """Whether w is u v u^-1 v^-1 with u, v powers (+-1) of two distinct
    generators, in any rotation and with any signs; it holds exactly when
    those generators' images commute."""
    return len(w) == 4 and w[2] == -w[0] and w[3] == -w[1] and abs(w[0]) != abs(w[1])


def hom_enumerate(p: Presentation, g: FiniteGroup) -> list[HomTuple]:
    """All homomorphisms p -> g as tuples of generator images, in
    lexicographic order.

    Depth-first assignment, generator by generator in increasing image
    order.  Each relator is compiled once to (generator index, inverted)
    pairs and checked from table lookups as soon as its last-needed
    generator receives an image.  A commutator [x_i, x_d] with i < d is
    never evaluated: the candidates for x_d are the AND of the centralizer
    bitmasks of its partners' images, walked low bit first.  The result
    equals filtering all of g^ell by every relator.
    """
    ell = p.generators
    if ell == 0:
        return [()]
    table, inv, n = g.table, g._inv, g.order
    partners: list[list[int]] = [[] for _ in range(ell)]
    words: list[list[tuple[tuple[int, bool], ...]]] = [[] for _ in range(ell)]
    for w in p.relators:
        if _is_commutator(w):
            i, d = sorted((abs(w[0]) - 1, abs(w[1]) - 1))
            partners[d].append(i)
        else:
            words[max(map(abs, w)) - 1].append(tuple((abs(l) - 1, l < 0) for l in w))
    everything = (1 << n) - 1
    out: list[HomTuple] = []

    def descend(prefix: HomTuple) -> None:
        d = len(prefix)
        mask = everything
        for i in partners[d]:
            mask &= g.centralizer_mask(prefix[i])
        if mask == everything:
            candidates: Iterable[int] = range(n)
        else:
            candidates = []
            while mask:
                low = mask & -mask
                candidates.append(low.bit_length() - 1)
                mask ^= low
        rels, last = words[d], d + 1 == ell
        for e in candidates:
            t = prefix + (e,)
            for w in rels:
                acc = 0
                for j, flip in w:
                    acc = table[acc][inv[t[j]] if flip else t[j]]
                if acc:
                    break
            else:
                if last:
                    out.append(t)
                else:
                    descend(t)

    descend(())
    return out


# ---------------------------------------------------------------------------
# orbits, conjugation, centralizers, classes


def orbits(perms: Sequence[Sequence[int]], points: Iterable[int]) -> list[tuple[int, set[int]]]:
    """The orbits meeting ``points`` (indices, increasing) of the group
    generated by ``perms``, as (first point, orbit) pairs in point order.
    An orbit is the breadth-first closure of its first point under
    ``perms``; every element of a finite group is a product of generators,
    so a generating set gives the whole orbit."""
    seen: set[int] = set()
    out = []
    for i in points:
        if i not in seen:
            orbit, frontier = {i}, [i]
            for j in frontier:
                new = {p[j] for p in perms} - orbit
                orbit |= new
                frontier += new
            seen |= orbit
            out.append((i, orbit))
    return out


@dataclass(frozen=True)
class ConjOrbits:
    count: int
    reps: tuple[HomTuple, ...]


def conj_orbit_count(tuples: Sequence[HomTuple], g: FiniteGroup) -> ConjOrbits:
    """Orbits of simultaneous conjugation on a set of tuples.

    Conjugation by each generator permutes the indices of the sorted
    tuples, and ``orbits`` walks them.  The input must be closed under
    conjugation (checked on the generators; a refusal names the least
    missing conjugate).  Representatives are the tuples at each orbit's
    first index, the lexicographic minima, in sorted order.
    """
    ts = sorted(tuples)
    for t in ts:
        for e in t:
            if not 0 <= e < g.order:
                raise ValidationError(f"conj_orbit_count: element {e} out of range")
    index = {t: i for i, t in enumerate(ts)}
    if len(index) != len(ts):
        raise ValidationError("conj_orbit_count: duplicate tuples in input")
    try:
        perms = [[index[g.conj_tuple(a, t)] for t in ts] for a in g.generators()]
    except KeyError:
        stray = min(u for t in ts for a in g.elements() if (u := g.conj_tuple(a, t)) not in index)
        raise ValidationError(
            f"conj_orbit_count: input not conjugation-closed (missing {stray})"
        ) from None
    reps = tuple(ts[i] for i, _ in orbits(perms, range(len(ts))))
    return ConjOrbits(len(reps), reps)


def centralizer(g: FiniteGroup, t: HomTuple) -> list[int]:
    """Sorted elements commuting with every image of the tuple."""
    table, cent = g.table, list(g.elements())
    for e in t:
        if not 0 <= e < g.order:
            raise ValidationError(f"centralizer: element {e} out of range")
        cent = [a for a in cent if table[a][e] == table[e][a]]
    return cent


@dataclass(frozen=True)
class ConjugacyClass:
    rep: int
    size: int


def conjugacy_classes(g: FiniteGroup) -> list[ConjugacyClass]:
    """Conjugacy classes with minimal-index representatives, ordered by rep."""
    table, inv = g.table, g._inv
    out = []
    seen: set[int] = set()
    for a in g.elements():
        if a in seen:
            continue
        orbit = {table[row[a]][inv[b]] for b, row in enumerate(table)}
        seen |= orbit
        out.append(ConjugacyClass(min(orbit), len(orbit)))
    return out


# ---------------------------------------------------------------------------
# subgroups and coset actions


def is_subgroup(g: FiniteGroup, elements: Iterable[int]) -> bool:
    elems = set(elements)
    if 0 not in elems or not elems <= set(g.elements()):
        return False
    return all(g.mul(a, b) in elems for a in elems for b in elems) and all(
        g.inv(a) in elems for a in elems
    )


def subgroup_closure(g: FiniteGroup, generators: Iterable[int]) -> list[int]:
    """Smallest subgroup containing the given elements, as a sorted list:
    the orbit of 0 under right multiplication by them, which in a finite
    group reaches every product of them and so every inverse."""
    perms = []
    for e in generators:
        if not 0 <= e < g.order:
            raise ValidationError(f"subgroup_closure: element {e} out of range")
        perms.append([row[e] for row in g.table])
    return sorted(orbits(perms, [0])[0][1])


def subgroup_group(g: FiniteGroup, elements: Sequence[int]) -> tuple[FiniteGroup, list[int]]:
    """Reindex a subgroup's multiplication into its own FiniteGroup.

    Returns the group together with the sorted element list; position i of
    the list is element i of the new group (identity lands at 0 because 0
    is the minimal element of any subgroup).  The whole group reindexes to
    itself, so ``g`` is returned as it is.
    """
    elems = sorted(set(elements))
    if not elems or elems[0] < 0 or elems[-1] >= g.order:
        raise ValidationError(
            f"subgroup_group: expected a non-empty set of elements in 0..{g.order - 1}"
        )
    if len(elems) == g.order:
        return g, elems
    pos = {e: i for i, e in enumerate(elems)}
    try:
        table = tuple(tuple(pos[g.mul(a, b)] for b in elems) for a in elems)
    except KeyError as exc:
        raise ValidationError(f"subgroup_group: set not closed under product (missing {exc})") from None
    return FiniteGroup(table), elems


@dataclass(frozen=True)
class CosetAction:
    """Left action of a group on the left cosets of a subgroup.

    ``reps`` are the canonical (minimal) coset representatives in increasing
    order; ``perms[a][i]`` is the index of the coset a * (reps[i] H).
    """

    reps: tuple[int, ...]
    perms: tuple[tuple[int, ...], ...]


def coset_action(g: FiniteGroup, subgroup: Sequence[int]) -> CosetAction:
    elems = sorted(set(subgroup))
    if not is_subgroup(g, elems):
        raise ValidationError("coset_action: the given set is not a subgroup")
    coset_of = [-1] * g.order
    reps = []
    for a in g.elements():
        if coset_of[a] >= 0:
            continue
        idx = len(reps)
        reps.append(a)  # a is minimal in its coset: all smaller elements are assigned
        for h in elems:
            coset_of[g.mul(a, h)] = idx
    perms = tuple(
        tuple(coset_of[g.mul(a, r)] for r in reps) for a in g.elements()
    )
    return CosetAction(tuple(reps), perms)


# ---------------------------------------------------------------------------
# Smith normal form and abelianization


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal d1 | d2 | ... of the Smith normal form, by the
    textbook reduction; each d is positive."""
    m = [list(row) for row in matrix]
    diag: list[int] = []
    while any(any(row) for row in m):
        # pivot: the smallest nonzero entry, moved to the corner (which wins ties)
        _, i, j = min((abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v)
        m[0], m[i] = m[i], m[0]
        for row in m:
            row[0], row[j] = row[j], row[0]
        p = m[0][0]
        # clear its row and column; a nonzero remainder is the next, smaller pivot
        for row in m[1:]:
            q = row[0] // p
            row[:] = [a - q * b for a, b in zip(row, m[0])]
        for c in range(1, len(m[0])):
            q = m[0][c] // p
            for row in m:
                row[c] -= q * row[0]
        if any(row[0] for row in m[1:]) or any(m[0][1:]):
            continue
        undivided = next((row for row in m[1:] if any(v % p for v in row)), None)
        if undivided is not None:
            m[0] = [a + b for a, b in zip(m[0], undivided)]
            continue
        diag.append(abs(p))
        m = [row[1:] for row in m[1:]]
    return diag


@dataclass(frozen=True)
class SnfResult:
    """Free rank and torsion of a finitely generated abelian group."""

    rank: int
    torsion: tuple[int, ...]


def abelianize_snf(p: Presentation) -> SnfResult:
    """Abelianization via the exponent-sum matrix of the relators.

    Returns free rank and the invariant factors >= 2, which identify the
    abelianized group as Z^rank + sum of Z/d_i.
    """
    mat = [[0] * len(p.relators) for _ in range(p.generators)]
    for j, w in enumerate(p.relators):
        for letter in w:
            mat[abs(letter) - 1][j] += 1 if letter > 0 else -1
    diag = [d for d in smith_normal_form(mat) if d != 0] if p.generators else []
    return SnfResult(p.generators - len(diag), tuple(d for d in diag if d >= 2))
