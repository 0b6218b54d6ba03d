"""Finite groups as multiplication tables and finitely presented groups.

A finite group is an n x n table over 0..n-1 with the identity pinned at
index 0.  Every table from outside the program enters through
``validate_group``, the one place a table is checked, at every order.  It
accepts a table after a type pass over each row, the identity row and
column, and one row composition per element: the greedy closure of 0
under right multiplication by the greedy generators, whose rows are
permutations, proves each newly reached row the composition of a proved
row and a generator row, so every row lies in the permutation group G' the
generator rows generate.  Left multiplication by each generator then
commuting with right multiplication by each makes G' act regularly, and
with it the table associative.  A group keeps the greedy set.  Only a
table that fails runs the full sweep, whose fixed order of checks words
the refusal: entries, identity row and column, every row and column a
permutation, then associativity with a witness triple from the greedy set.
Tables built here (standard constructors, direct products, subgroups)
come from one builder, ``_table``, which tabulates a product over labels
whose first is the identity; those are groups by construction.

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

A group pays for its table once, in the proof or the builder.  Its
inverses come from the walk that closes 0 under its generators,
inv(x*g) = inv(g)*inv(x), one lookup per element, and its hash reads one
row, so a cache keyed by groups does not hash n^2 entries per lookup.

Conjugates are read from the table as they are needed; no group keeps a
table of conjugates.  The enumeration's centralizer bitmasks are built once
per group: one row-and-column comparison per conjugacy class, conjugated
across the class.  Conjugation by an element is one tuple over the elements
(``conjugation``), through which a caller maps a column of tuple entries
at a time.

``orbits``, a breadth-first closure under permutations of indices, is the
one orbit walk behind cell orbits and subgroup closures; ``hom_orbit_reps``
walks the conjugation orbits of homomorphisms, their least tuples only.
"""

from __future__ import annotations

import itertools
from operator import countOf, eq, itemgetter
from typing import Iterable, Sequence

from .errors import ResourceLimitExceeded, ValidationError
from .records import Value

HomTuple = tuple[int, ...]


# ---------------------------------------------------------------------------
# presentations


class Presentation(Value):
    """Generators and relators; ``generators`` may be 0 (the trivial group)."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: int, relators: tuple[tuple[int, ...], ...] = ()):
        super().__init__(generators, relators)

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
    The proof composes one row per element and never reads an unproved
    entry as an index:

    1. every entry is an int (the comparisons below are exact only for
       ints, since 0.0 and False equal 0);
    2. row 0 and column 0 are the identity;
    3. the greedy closure of 0 under right multiplication: each greedy
       generator's row is a permutation, and each element z first reached
       as x*g, from a row x already proved, has row z = row x composed with
       row g.  Every row is then in the group G' the generator rows
       generate, so every entry is in range;
    4. every generator row commutes with right multiplication by every
       generator (``_translations_commute``).

    By 4, every element of G' commutes with right multiplication by each
    generator, so one that fixes 0 fixes everything reached from 0, which
    is every element: G' acts regularly.  The row of x*y and row x
    composed with row y both lie in G' and agree at 0, so they are equal,
    which is associativity; rows are permutations, so every element has a
    right inverse.  Steps 3 and 4 cost n^2 and |gens|^2 * n lookups."""
    n = len(rows)
    if any(countOf(map(type, row), int) != n for row in rows):
        return None
    identity = tuple(range(n))
    if rows[0] != identity or tuple(map(itemgetter(0), rows)) != identity:
        return None
    elements = set(identity)
    reached, gens, times = {0}, [], []
    for a in range(1, n):
        if a in reached:
            continue
        if set(rows[a]) != elements:
            return None
        gens.append(a)
        times.append(itemgetter(*rows[a]))  # row_x -> row of x*a; n >= 2 here
        reached.add(a)
        frontier = list(reached)
        while frontier:
            row_x = rows[frontier.pop()]
            for g, times_g in zip(gens, times):
                z = row_x[g]
                if z not in reached:
                    if rows[z] != times_g(row_x):
                        return None
                    reached.add(z)
                    frontier.append(z)
    return gens if _translations_commute(rows, gens) else None


def _translations_commute(rows: Sequence[Sequence[int]], gens: Sequence[int]) -> bool:
    """Whether s*(y*k) == (s*y)*k for all y and every pair s, k of
    ``gens``: left multiplication by each generator commutes with right
    multiplication by each.  The rows read must be proved permutations."""
    for k in gens:
        column = tuple(map(itemgetter(k), rows))  # y -> y*k
        then_k = itemgetter(*column)  # row s -> (s*(y*k) for y)
        for s in gens:
            row_s = rows[s]
            if then_k(row_s) != itemgetter(*row_s)(column):
                return False
    return True


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
    witness = _associativity_failure(rows, _closure(rows)[0])
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
    by generator, or None.  Only the sweep runs it, for the witness its
    refusal names; ``_group_generators`` proves a group without it."""
    for g in gens:
        times_g = itemgetter(*rows[g])  # row_x -> (x*(g*y) for y); n >= 2 here
        for x, row_x in enumerate(rows):
            left, right = rows[row_x[g]], times_g(row_x)
            if left != right:
                return x, g, next(y for y in range(len(rows)) if left[y] != right[y])
    return None


def _closure(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The greedy generating set and every element's inverse, from one
    walk: the closure of 0 under right multiplication, where each element
    not yet reached, in index order, joins the generators.  An element z
    first reached as x*g has inv(z) = inv(g)*inv(x), one lookup; a
    generator's inverse is its last power before 0.  The rows read must be
    permutations; only on a group are the inverses meaningful."""
    inv: list = [None] * len(rows)
    inv[0] = 0
    reached, chosen, pairs = [0], [], []
    for a in range(1, len(rows)):
        if inv[a] is not None:
            continue
        last = a
        while rows[last][a]:
            last = rows[last][a]
        chosen.append(a)
        pairs.append((a, rows[last]))  # inv(x*a) = inv(a)*inv(x), read from row inv(a)
        for x in reached:
            row, ix = rows[x], inv[x]
            for g, row_ig in pairs:
                z = row[g]
                if inv[z] is None:
                    inv[z] = row_ig[ix]
                    reached.append(z)
    return tuple(chosen), tuple(inv)


class FiniteGroup:
    """A finite group given by its multiplication table; identity is 0.

    The table is trusted, not checked: it is built in two places,
    ``_table`` for the groups constructed here and ``validate_group`` for a
    table from outside the program.  Besides the table and its inverses
    (``inverses[a]`` is a^-1) a group keeps only the enumeration's
    centralizer bitmasks and its greedy generating set.  Once built,
    nothing reads the whole table again: the generating set and the
    inverses come from one walk of the generators' closure (``_closure``),
    one lookup per element, and the hash reads only the last row, whose
    length is the order.
    """

    __slots__ = ("order", "table", "inverses", "_cent", "_gens")

    def __init__(self, table: Sequence[Sequence[int]]):
        self.table = tuple(map(tuple, table))
        self.order = len(self.table)
        self._gens, self.inverses = _closure(self.table)
        self._cent: tuple[int, ...] | None = None

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def centralizer_mask(self, a: int) -> int:
        """The centralizer of a as a bitmask over the elements, from a table
        of every element's mask built on first use.  Row r and column r of
        the table are compared only for the first element r of each
        conjugacy class; a central r has the full mask, and the rest of r's
        class is filled from C(b r b^-1) = b C(r) b^-1: about n lookups per
        class, where comparing every row with its column takes n^2."""
        if self._cent is None:
            table, inv, n = self.table, self.inverses, self.order
            bits = [1 << b for b in range(n)]
            cent = [0] * n  # 0 is no mask: every centralizer holds 0
            for r in range(n):
                if cent[r]:
                    continue
                column = tuple(map(itemgetter(r), table))  # b*r for every b
                if column == table[r]:
                    cent[r] = (1 << n) - 1
                    continue
                members = list(itertools.compress(range(n), map(eq, table[r], column)))
                # each conjugate b r b^-1, keyed to one b that gives it
                conjugates = [table[br][bi] for br, bi in zip(column, inv)]
                for s, b in dict(zip(conjugates, range(n))).items():
                    times_b, bi = table[b], inv[b]
                    cent[s] = sum(bits[table[times_b[x]][bi]] for x in members)
            self._cent = tuple(cent)
        return self._cent[a]

    def generators(self) -> tuple[int, ...]:
        """The greedy generating set of ``_closure``; the trivial group
        has none."""
        return self._gens

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        # equal tables have equal last rows, and a row's length is the order
        return hash(self.table[-1])

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def validate_group(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate a multiplication table at any order and wrap it: the one
    place a table is checked.  A group is accepted by ``_group_generators``:
    integer entries, a two-sided identity 0, each row reached by the greedy
    closure proved a composition of permutation rows, and the generator
    rows commuting with right multiplication by the generators, which
    proves associativity and that every row is a permutation.  Any other
    table goes through the full sweep, which raises ValidationError naming
    the first failed axiom in a fixed order (with a witness triple from the
    greedy set for associativity)."""
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
    if _group_generators(rows) is None:
        _refuse(rows)
    return FiniteGroup(rows)


# ---------------------------------------------------------------------------
# standard constructions


def _table(elements: Iterable, mul) -> FiniteGroup:
    """The group on ``elements`` under ``mul``, trusted: element i is the
    i-th label, so the first label must be the identity.  A product
    outside the labels raises KeyError.  Every table built here goes
    through it; a table from outside goes through ``validate_group``."""
    labels = list(elements)
    index = {x: i for i, x in enumerate(labels)}
    return FiniteGroup(tuple(tuple(index[mul(a, b)] for b in labels) for a in labels))


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError(f"cyclic order must be >= 1, got {n}")
    return _table(range(n), lambda a, b: (a + b) % n)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n with elements enumerated in lexicographic one-line order, so the
    identity permutation sits at index 0.  mul(p, q) applies q first."""
    return _table(itertools.permutations(range(n)), lambda p, q: tuple(map(p.__getitem__, q)))


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: element i + n*j is r^i s^j."""
    if n < 1:
        raise ValidationError("dihedral parameter must be >= 1")
    elements = ((i, j) for j in range(2) for i in range(n))  # (i, j) is r^i s^j
    return _table(elements, lambda x, y: ((x[0] - y[0] if x[1] else x[0] + y[0]) % n, (x[1] + y[1]) % 2))


def quaternion_group() -> FiniteGroup:
    """Q8 with elements ordered 1, -1, i, -i, j, -j, k, -k: the unit
    quaternions a + bi + cj + dk as (a, b, c, d) under Hamilton's product."""

    def mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        (a, b, c, d), (e, f, g, h) = x, y
        return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)

    return _table([tuple(s * (k == u) for k in range(4)) for u in range(4) for s in (1, -1)], mul)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with pair (a, b) at index a * |h| + b."""
    pairs = itertools.product(g.elements(), h.elements())
    return _table(pairs, lambda x, y: (g.table[x[0]][y[0]], h.table[x[1]][y[1]]))


# ---------------------------------------------------------------------------
# words and homomorphism enumeration


def _is_commutator(w: tuple[int, ...]) -> bool:
    """Whether w is u v u^-1 v^-1 with u, v powers (+-1) of two distinct
    generators, in any rotation and with any signs; it holds exactly when
    those generators' images commute."""
    return len(w) == 4 and w[2] == -w[0] and w[3] == -w[1] and abs(w[0]) != abs(w[1])


def _relator_words(relators: Iterable[tuple[int, ...]], ell: int) -> list[list[tuple[tuple[int, bool], ...]]]:
    """Each relator as (generator index, inverted) pairs, filed under its highest generator."""
    words: list[list] = [[] for _ in range(ell)]
    for w in relators:
        words[max(map(abs, w)) - 1].append(tuple((abs(l) - 1, l < 0) for l in w))
    return words


def hom_enumerate(p: Presentation, g: FiniteGroup) -> list[HomTuple]:
    """All homomorphisms p -> g as tuples of generator images, in
    lexicographic order.

    Depth-first assignment, generator by generator in increasing image
    order.  Each relator is compiled once to (generator index, inverted)
    pairs and checked from table lookups as soon as its last-needed
    generator receives an image.  A commutator [x_i, x_d] with i < d is
    never evaluated: the candidates for x_d are the AND of the centralizer
    bitmasks of its partners' images, walked low bit first.  The result
    equals filtering all of g^ell by every relator.  The walk recurses once
    per generator; one deeper than the interpreter's stack is refused
    (``ResourceLimitExceeded``).
    """
    ell = p.generators
    if ell == 0:
        return [()]
    table, inv, n = g.table, g.inverses, g.order
    partners: list[list[int]] = [[] for _ in range(ell)]
    for w in filter(_is_commutator, p.relators):
        i, d = sorted((abs(w[0]) - 1, abs(w[1]) - 1))
        partners[d].append(i)
    words = _relator_words((w for w in p.relators if not _is_commutator(w)), ell)
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

    try:
        descend(())
    except RecursionError:
        raise ResourceLimitExceeded(
            "hom_enumerate", f"{ell} generators recurse deeper than the interpreter's stack allows"
        ) from None
    return out


def hom_orbit_reps(p: Presentation, g: FiniteGroup) -> list[HomTuple]:
    """The least tuple of each conjugation orbit of Hom(p, g), in
    lexicographic order: ``hom_enumerate``'s walk, relators included, but a
    prefix carries its centralizer S, from g, and the next generator takes
    the least a of each class {b a b^-1 : b in S} that passes the relators
    (S fixes the prefix, so a class passes as one); the child's S is the b
    with b a b^-1 = a.  Too deep a walk is refused (``ResourceLimitExceeded``)."""
    ell = p.generators
    if ell == 0:
        return [()]
    table, inv, words = g.table, g.inverses, _relator_words(p.relators, ell)
    out: list[HomTuple] = []

    def descend(prefix: HomTuple, cent: list[int]) -> None:
        rels, last, seen = words[len(prefix)], len(prefix) + 1 == ell, set()
        for a in g.elements():
            if a in seen:
                continue
            t = prefix + (a,)
            for w in rels:
                acc = 0
                for j, flip in w:
                    acc = table[acc][inv[t[j]] if flip else t[j]]
                if acc:
                    break
            else:
                conjugates = [table[table[b][a]][inv[b]] for b in cent]
                seen.update(conjugates)
                if last:
                    out.append(t)
                else:
                    descend(t, [b for b, c in zip(cent, conjugates) if c == a])

    try:
        descend((), list(g.elements()))
    except RecursionError:
        raise ResourceLimitExceeded(
            "hom_orbit_reps", f"{ell} generators recurse deeper than the interpreter's stack allows"
        ) from None
    return out


# ---------------------------------------------------------------------------
# orbits, conjugation, centralizers, classes


def orbits(perms: Sequence[Sequence[int]], points: Iterable[int]) -> list[tuple[int, set[int]]]:
    """The orbits meeting ``points`` (indices, increasing) of the group
    generated by ``perms``, as (first point, orbit) pairs in point order:
    cell orbits and subgroup closures, not conjugation orbits of tuples.
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


def conjugation(g: FiniteGroup, a: int) -> tuple[int, ...]:
    """Conjugation by a as a permutation of the elements: position x holds
    a x a^-1, read from row a and then column a^-1 of the table."""
    table, ai = g.table, g.inverses[a]
    return tuple(table[ax][ai] for ax in table[a])


# ---------------------------------------------------------------------------
# subgroups and coset actions


def is_subgroup(g: FiniteGroup, elements: Iterable[int]) -> bool:
    elems = set(elements)
    if 0 not in elems or not elems <= set(g.elements()):
        return False
    return all(g.mul(a, b) in elems for a in elems for b in elems) and all(
        g.inverses[a] in elems for a in elems
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
    try:
        return _table(elems, g.mul), elems
    except KeyError as exc:
        raise ValidationError(f"subgroup_group: set not closed under product (missing {exc})") from None


class CosetAction(Value):
    """Left action of a group on the left cosets of a subgroup, stored as
    its generators' permutations.

    ``reps`` are the canonical (minimal) coset representatives in increasing
    order; ``gens[k][i]`` is the index of the coset s * (reps[i] H), for s
    the k-th element of ``g.generators()``.
    """

    __slots__ = ("reps", "gens")


def coset_action(g: FiniteGroup, subgroup: Sequence[int]) -> CosetAction:
    """The coset action, built on the generators only; a complex over it
    (``translation.coset_complex``) composes every element's permutation
    when one is asked for."""
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
    table = g.table
    gens = tuple(tuple(coset_of[table[s][r]] for r in reps) for s in g.generators())
    return CosetAction(tuple(reps), gens)


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


class SnfResult(Value):
    """Free rank and torsion of a finitely generated abelian group."""

    __slots__ = ("rank", "torsion")


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
