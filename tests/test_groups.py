import inspect
import itertools
import random
import re
import sys
import tracemalloc
from collections import namedtuple

import pytest
from hypothesis import given, strategies as st

from eulerchi import catalog, groups, harness, translation as tr
from eulerchi.errors import ResourceLimitExceeded, UnsupportedCombination, ValidationError
from eulerchi.groups import (
    FiniteGroup,
    Presentation,
    abelianize_snf,
    coset_action,
    cyclic_group,
    dihedral_group,
    direct_product,
    hom_enumerate,
    hom_orbit_reps,
    presentation_class,
    product_presentation,
    quaternion_group,
    smith_normal_form,
    subgroup_closure,
    subgroup_group,
    symmetric_group,
    trivial_group,
    validate_group,
    validate_presentation,
)
from test_jsonio import action_maps

S3 = symmetric_group(3)
Q8 = quaternion_group()


# --- references: classes and centralizers read straight from the table -------
# No command needs them; other test modules import them from here.

ConjugacyClass = namedtuple("ConjugacyClass", "rep size")


def centralizer(g: FiniteGroup, t: tuple[int, ...]) -> list[int]:
    """Sorted elements commuting with every image of the tuple."""
    return [a for a in g.elements() if all(g.table[a][e] == g.table[e][a] for e in t)]


def conjugacy_classes(g: FiniteGroup) -> list[ConjugacyClass]:
    """Conjugacy classes with minimal-index representatives, ordered by rep."""
    table, inv = g.table, g.inverses
    out = []
    seen: set[int] = set()
    for a in g.elements():
        if a in seen:
            continue
        orbit = {table[row[a]][inv[b]] for b, row in enumerate(table)}
        seen |= orbit
        out.append(ConjugacyClass(min(orbit), len(orbit)))
    return out


SMALL_GROUPS = [
    trivial_group(),
    cyclic_group(2),
    cyclic_group(3),
    cyclic_group(4),
    cyclic_group(6),
    S3,
    dihedral_group(4),
    Q8,
    direct_product(cyclic_group(2), cyclic_group(2)),
]


def evaluate_word(word, images, g: FiniteGroup) -> int:
    """Substitute generator images into a relator word, left to right."""
    acc = 0
    for letter in word:
        e = images[letter - 1] if letter > 0 else g.inverses[images[-letter - 1]]
        acc = g.mul(acc, e)
    return acc


def brute_homs(p: Presentation, g: FiniteGroup) -> list[tuple[int, ...]]:
    """Independent oracle: filter the full tuple space by every relator."""
    return [
        t
        for t in itertools.product(range(g.order), repeat=p.generators)
        if all(evaluate_word(w, t, g) == 0 for w in p.relators)
    ]


def brute_orbits(tuples, g: FiniteGroup) -> int:
    """Independent oracle: grow orbits by repeated conjugation."""
    left = set(tuples)
    count = 0
    while left:
        seed = left.pop()
        frontier = [seed]
        while frontier:
            t = frontier.pop()
            for a in range(g.order):
                img = tuple(g.mul(g.mul(a, e), g.inverses[a]) for e in t)
                if img in left:
                    left.remove(img)
                    frontier.append(img)
        count += 1
    return count


def brute_orbit_reps(p: Presentation, g: FiniteGroup) -> list[tuple[int, ...]]:
    """Independent oracle: the least tuple of each conjugation orbit of
    ``brute_homs``, each tuple conjugated by every element, in
    lexicographic order."""
    return sorted({
        min(tuple(g.mul(g.mul(a, e), g.inverses[a]) for e in t) for a in g.elements())
        for t in brute_homs(p, g)
    })


# --- table validation ------------------------------------------------------

def test_z2_valid():
    g = validate_group([[0, 1], [1, 0]])
    assert g.order == 2 and g.inverses[1] == 1


def test_non_permutation_row():
    with pytest.raises(ValidationError, match="row 1"):
        validate_group([[0, 1], [1, 1]])


def test_identity_not_first():
    with pytest.raises(ValidationError, match="identity"):
        validate_group([[1, 0], [0, 1]])


# rows/columns are latin but the magma is not associative
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def assert_witness_fails(table, message):
    a, b, c = (int(v) for v in re.search(r"triple \((\d+),(\d+),(\d+)\)", message).groups())
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_associativity_witness():
    with pytest.raises(ValidationError, match="associativity failure at triple") as err:
        validate_group(LOOP5)
    assert_witness_fails(LOOP5, str(err.value))


def test_associativity_checked_above_order_256():
    # LOOP5 times C60, indexed as in direct_product: order 300
    c60 = cyclic_group(60)
    table = [
        [LOOP5[a1][a2] * 60 + c60.mul(b1, b2) for a2 in range(5) for b2 in range(60)]
        for a1 in range(5)
        for b1 in range(60)
    ]
    with pytest.raises(ValidationError, match="associativity failure at triple") as err:
        validate_group(table)
    assert_witness_fails(table, str(err.value))


# Each builder's documented element order, against a table built here
# without the builder: harness subgroups are element-index lists, so an
# order is a contract that ``verify``'s draws depend on.


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_group_from_permutation_composition(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms
    ]
    g = validate_group(table)
    assert g.order == len(perms)
    assert g.table == symmetric_group(n).table


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_group_adds_mod_n(n):
    assert cyclic_group(n).table == tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


@pytest.mark.parametrize("n", range(3, 9))
def test_dihedral_group_acts_on_the_n_gon(n):
    """Element i + n*j acts on Z/n by v -> i + (-1)^j v, faithfully for
    n >= 3, and a product acts as the composition."""
    acts = [tuple((i + (-1) ** j * v) % n for v in range(n)) for j in range(2) for i in range(n)]
    index = {f: x for x, f in enumerate(acts)}
    assert len(index) == 2 * n
    table = tuple(tuple(index[tuple(f[v] for v in h)] for h in acts) for f in acts)
    assert dihedral_group(n).table == table


def test_small_dihedral_groups_are_written_out():
    assert dihedral_group(1).table == ((0, 1), (1, 0))
    assert dihedral_group(2).table == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def test_quaternion_group_from_complex_matrices():
    """Q8 in the order 1, -1, i, -i, j, -j, k, -k, with i = diag(i, -i),
    j = [[0, 1], [-1, 0]] and k = ij as 2x2 complex matrices."""

    def matmul(x, y):
        return tuple(tuple(sum(x[r][t] * y[t][c] for t in range(2)) for c in range(2)) for r in range(2))

    def neg(x):
        return tuple(tuple(-v for v in row) for row in x)

    one, i, j = ((1, 0), (0, 1)), ((1j, 0), (0, -1j)), ((0, 1), (-1, 0))
    units = [u for x in (one, i, j, matmul(i, j)) for u in (x, neg(x))]
    index = {u: n for n, u in enumerate(units)}
    assert len(index) == 8
    table = tuple(tuple(index[matmul(x, y)] for y in units) for x in units)
    assert quaternion_group().table == table


@pytest.mark.parametrize(
    "g, h", [(S3, Q8), (cyclic_group(2), symmetric_group(4))], ids=["S3xQ8", "C2xS4"]
)
def test_direct_product_places_pair_a_b_at_a_times_h_plus_b(g, h):
    m = h.order
    table = direct_product(g, h).table
    for a, b, c, d in itertools.product(g.elements(), h.elements(), g.elements(), h.elements()):
        assert table[a * m + b][c * m + d] == g.table[a][c] * m + h.table[b][d]


def test_empty_table_rejected():
    with pytest.raises(ValidationError, match="order must be >= 1"):
        validate_group([])


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1], [1, 2]], r"entry at \(1,1\) out of range"),
        ([[0, 1], [1, "1"]], r"entry at \(1,1\) out of range"),
        ([[0, 1], [1, True]], r"entry at \(1,1\) out of range"),
        ([[0, 1], 1], "row 1 is not a list"),
        ([[0, 1], [1]], "row 1 has length 1"),
        ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "column 0 is not the identity"),
        ([[0, 1, 2], [1, 2, 0], [2, 2, 1]], "row 2 is not a permutation"),
        ([[0, 1, 2], [1, 0, 0], [2, 2, 1]], "row 1 is not a permutation"),
        ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 1, 0]], "column 2 is not a permutation"),
        # entries equal to valid ones but not ints: only a type check sees them
        ([[0, 1], [1, 0.0]], r"entry at \(1,1\) out of range"),
        ([[0, 1], [1, False]], r"entry at \(1,1\) out of range"),
        # x*y = y is associative, and its rows are permutations
        ([[0, 1], [0, 1]], "column 0 is not the identity"),
        # S3's table with an entry the greedy closure reads (its generators
        # are 1 and 2) out of range: -1 would wrap as a Python index
        (
            [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
             [3, -1, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]],
            r"table entry at \(3,1\) out of range 0..5",
        ),
        (
            [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
             [3, 2, 5, 4, 0, 1], [4, 5, 6, 0, 3, 2], [5, 4, 3, 2, 1, 0]],
            r"table entry at \(4,2\) out of range 0..5",
        ),
    ],
)
def test_malformed_tables_rejected(table, message):
    with pytest.raises(ValidationError, match=message):
        validate_group(table)


STANDARD_GROUPS = (
    [trivial_group(), quaternion_group()]
    + [cyclic_group(n) for n in (1, 2, 5, 12)]
    + [symmetric_group(n) for n in range(0, 6)]
    + [dihedral_group(n) for n in range(1, 7)]
    + [direct_product(symmetric_group(3), dihedral_group(4))]
    + [build() for _, build in harness._GROUP_BUILDERS.values()]
)


def _sweep_not_reached(*args):
    raise AssertionError("a valid table reached the sweep")


@pytest.mark.parametrize("g", STANDARD_GROUPS, ids=repr)
def test_trusted_constructions_are_valid_groups(g, monkeypatch):
    """Valid tables are accepted by the proof alone: the sweep, which only
    words refusals, never runs on them."""
    monkeypatch.setattr(groups, "_refuse", _sweep_not_reached)
    assert validate_group(g.table) == g
    for a in g.elements():
        sub, _ = subgroup_group(g, centralizer(g, (a,)))
        assert validate_group(sub.table) == sub


def brute_is_group(table) -> bool:
    """Independent oracle: the group axioms on every element, pair and
    triple of a square table."""
    n = len(table)
    if any(type(v) is not int or not 0 <= v < n for row in table for v in row):
        return False
    if any(table[0][a] != a or table[a][0] != a for a in range(n)):
        return False
    if not all(any(table[a][b] == 0 == table[b][a] for b in range(n)) for a in range(n)):
        return False
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def corrupt(table, rng: random.Random) -> list[list]:
    """1-3 corruptions of a group table: an entry set to an in-range value,
    a float equal to it, a bool or an out-of-range value; two rows, or two
    entries of a row, swapped; an intercalate (a 2x2 latin subsquare)
    flipped; or the elements relabelled by a permutation that fixes 0,
    which keeps a group."""
    t = [list(row) for row in table]
    n = len(t)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(
            ["value", "float", "bool", "out", "swap", "swap in row", "intercalate", "relabel", "relabel"]
        )
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == "value":
            t[i][j] = rng.randrange(n)
        elif kind == "float":
            t[i][j] = float(t[i][j])
        elif kind == "bool":
            t[i][j] = bool(rng.randrange(2))
        elif kind == "out":
            t[i][j] = rng.choice([-1, n, n + 7])
        elif kind == "swap":
            t[i], t[j] = t[j], t[i]
        elif kind == "swap in row":
            k = rng.randrange(n)
            t[i][j], t[i][k] = t[i][k], t[i][j]
        elif kind == "intercalate":
            for _ in range(20 if n > 2 else 0):
                a, c, b = (rng.randrange(1, n) for _ in range(3))
                if a == c or t[a][b] not in t[c]:
                    continue
                d = t[c].index(t[a][b])
                if d not in (0, b) and t[a][d] == t[c][b]:
                    t[a][b], t[a][d], t[c][b], t[c][d] = t[a][d], t[a][b], t[c][d], t[c][b]
                    break
        else:
            sigma = [0] + rng.sample(range(1, n), n - 1)
            old = t
            t = [[None] * n for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    v = old[a][b]
                    t[sigma[a]][sigma[b]] = sigma[v] if type(v) is int and 0 <= v < n else v
    return t


def test_validation_accepts_exactly_the_groups():
    """Seeded corruptions of the harness groups and S5: ``validate_group``
    accepts exactly the tables the brute-force axiom check accepts, and
    every refusal words the failure as the sweep does on its own."""
    rng = random.Random(20201)
    tables = [build().table for _, build in harness._GROUP_BUILDERS.values()]
    tables += [symmetric_group(5).table] * 2
    accepted = refused = 0
    for table in tables:
        for _ in range(12):
            t = corrupt(table, rng)
            try:
                g = validate_group(t)
            except ValidationError as err:
                assert not brute_is_group(t), t
                with pytest.raises(ValidationError) as sweep:
                    groups._refuse(tuple(map(tuple, t)))
                assert str(err) == str(sweep.value)
                refused += 1
            else:
                assert brute_is_group(t), t
                assert g.table == tuple(map(tuple, t))
                accepted += 1
    assert accepted > 20 and refused > 100


def relabelled(table, rng: random.Random) -> list[list[int]]:
    """The group ``table`` with its elements renamed by a seeded permutation
    that fixes 0."""
    n = len(table)
    sigma = [0] + rng.sample(range(1, n), n - 1)
    t = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            t[sigma[a]][sigma[b]] = sigma[v]
    return t


def test_relabelled_symmetric_corruptions_are_refused_as_the_sweep_words_them():
    """Seeded corruptions of relabelled S5 and S6, whose proofs compose rows
    along other closures than the lexicographic tables', and intercalates
    flipped through an involution, which keep every row and column a
    permutation: each refusal is worded as the full sweep words it on its
    own, and each accepted table passes the full sweep."""
    rng = random.Random(25)
    refusals = []
    for n, corruptions, flips in ((5, 12, 3), (6, 6, 2)):
        sn = symmetric_group(n).table
        tables = [corrupt(relabelled(sn, rng), rng) for _ in range(corruptions)]
        for _ in range(flips):
            t = relabelled(sn, rng)
            x = next(x for x in range(1, len(t)) if t[x][x] == 0)
            a, b = rng.randrange(len(t)), rng.randrange(len(t))
            c, d = t[a][x], t[x][b]  # a*b = c*d and a*d = c*b
            t[a][b], t[a][d], t[c][b], t[c][d] = t[a][d], t[a][b], t[c][d], t[c][b]
            tables.append(t)
        for t in tables:
            rows = tuple(map(tuple, t))
            try:
                g = validate_group(t)
            except ValidationError as err:
                with pytest.raises(ValidationError) as sweep:
                    groups._refuse(rows)
                assert str(err) == str(sweep.value)
                refusals.append(str(err).split()[0])
            else:
                groups._refuse(rows)
                assert g.table == rows
    assert "associativity" in refusals and len(set(refusals)) >= 3, refusals


def test_relabelled_s5_is_accepted_with_its_centralizer_masks():
    """``validate_group`` accepts S5 with its elements renamed, and each
    centralizer mask of the group it returns is the set of b with
    a*b == b*a in the renamed table."""
    t = relabelled(symmetric_group(5).table, random.Random(5))
    g = validate_group(t)
    assert g.table != symmetric_group(5).table
    assert all(g.centralizer_mask(a) == sum(1 << b for b in range(120) if t[a][b] == t[b][a]) for a in range(120))


def test_s6_is_accepted_without_the_sweep(monkeypatch):
    monkeypatch.setattr(groups, "_refuse", _sweep_not_reached)
    s6 = symmetric_group(6)
    assert validate_group(s6.table) == s6
    with pytest.raises(AssertionError, match="reached the sweep"):
        validate_group(LOOP5)  # the patched sweep is the one that runs


def test_validated_group_keeps_the_proofs_generators(monkeypatch):
    """A validated group finds its generating set once, when it is built:
    nothing after construction, neither a complex check nor an orbit walk,
    computes it again."""
    s4 = symmetric_group(4)
    gens = groups._closure(s4.table)[0]
    g = validate_group(s4.table)

    def computed_again(rows):
        raise AssertionError("generating set computed again")

    monkeypatch.setattr(groups, "_closure", computed_again)
    assert g.generators() == gens
    x = tr.coset_complex(g, [0, 1])
    action = action_maps(x)
    assert len(tr.orbit_space(tr.validate_complex(g, x.space, action))) == 1


def test_the_proof_keeps_the_greedy_generators_without_the_sweep(monkeypatch):
    """A relabelled S6 whose greedy generating set has three elements and
    lexicographic S5, whose greedy set is the adjacent transpositions, are
    accepted with their greedy sets, and the proof reaches neither the
    sweep nor its associativity witness."""
    monkeypatch.setattr(groups, "_refuse", _sweep_not_reached)
    monkeypatch.setattr(groups, "_associativity_failure", _sweep_not_reached)
    s6 = relabelled(symmetric_group(6).table, random.Random(2))
    g = validate_group(s6)
    assert len(g.generators()) == 3
    assert g.generators() == groups._closure(s6)[0]
    s5 = symmetric_group(5)
    assert validate_group(s5.table).generators() == s5.generators() == (1, 2, 6, 24)


# --- inverses and hashing ---------------------------------------------------


def shuffled_symmetric_table(n: int, rng: random.Random) -> list[list[int]]:
    """S_n as a table of plain lists with its non-identity elements labelled
    in a seeded order, relabelled as the benchmark's ``symmetric_table``
    (bench/workloads.py) relabels it."""
    perms = list(itertools.permutations(range(n)))
    labels = list(range(1, len(perms)))
    rng.shuffle(labels)
    label = dict(zip(perms, [0] + labels))
    table = [[0] * len(perms) for _ in perms]
    for p in perms:
        row = table[label[p]]
        for q in perms:
            row[label[q]] = label[tuple(map(p.__getitem__, q))]
    return table


def row_scan_inverses(g: FiniteGroup) -> tuple[int, ...]:
    """a^-1 is the column holding 0 in row a."""
    return tuple(row.index(0) for row in g.table)


@pytest.mark.parametrize("n, seed", [(4, 4), (5, 5), (6, 6)])
def test_inverses_of_relabelled_symmetric_groups_are_the_row_scan(n, seed):
    g = validate_group(shuffled_symmetric_table(n, random.Random(seed)))
    assert g.inverses == row_scan_inverses(g)


def test_inverses_of_built_groups_are_the_row_scan():
    """The harness groups, S5 and seeded subgroups of each, which come from
    ``_table`` and walk their own greedy generators."""
    rng = random.Random(35)
    built = [build() for _, build in harness._GROUP_BUILDERS.values()] + [symmetric_group(5)]
    for g in list(built):
        for _ in range(4):
            elems = subgroup_closure(g, rng.sample(range(g.order), min(2, g.order)))
            built.append(subgroup_group(g, elems)[0])
    for g in built:
        assert g.inverses == row_scan_inverses(g), g


def test_equal_tables_built_apart_hash_equal_and_share_the_chi_cache():
    """A builder's group and ``validate_group`` of its table as lists, and
    two ``subgroup_group`` calls on one set, are distinct objects with one
    table: they hash equal, and the second answers from the chi cache."""
    pairs = []
    for g in (symmetric_group(4), quaternion_group(), dihedral_group(5), symmetric_group(5)):
        pairs.append((g, validate_group([list(row) for row in g.table])))
        elems = subgroup_closure(g, [1])
        assert len(elems) < g.order  # a proper subgroup is built, not returned
        pairs.append((subgroup_group(g, elems)[0], subgroup_group(g, elems)[0]))
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        catalog._finite_chi.cache_clear()
        first = catalog.chi_hom_quotient(catalog.FiniteIsotropy(a), Presentation.free_abelian(2))
        second = catalog.chi_hom_quotient(catalog.FiniteIsotropy(b), Presentation.free_abelian(2))
        info = catalog._finite_chi.cache_info()
        assert first == second and (info.hits, info.misses) == (1, 1)


def transversal(perms, n):
    """Rows sigma_x with sigma_x(0) = x, built breadth-first from the
    identity at 0: the first x and p in ``perms`` to reach z = sigma_x(p(0))
    give sigma_z = sigma_x . p.  Row 0 and column 0 are the identity and
    every row is a permutation; the table is a group exactly when ``perms``
    generate a regular group.  None when some point is never reached."""
    sigma = {0: tuple(range(n))}
    queue = [0]
    for x in queue:
        for p in perms:
            row = tuple(sigma[x][y] for y in p)
            if row[0] not in sigma:
                sigma[row[0]] = row
                queue.append(row[0])
    return [list(sigma[x]) for x in range(n)] if len(sigma) == n else None


def test_generator_rows_must_commute_with_right_multiplication(monkeypatch):
    """A table whose rows are permutations, with a two-sided identity, whose
    greedy closure composes every row correctly, is still refused when a
    generator row does not commute with right multiplication by a
    generator.  Seeded transversal tables are accepted exactly when the
    brute-force axiom check accepts them, and each refusal is worded as the
    sweep words it."""
    commute = groups._translations_commute
    results = []

    def spy(rows, gens):
        results.append(commute(rows, gens))
        return results[-1]

    monkeypatch.setattr(groups, "_translations_commute", spy)
    with pytest.raises(ValidationError, match="column 1 is not a permutation"):
        validate_group([[0, 1, 2], [1, 0, 2], [2, 1, 0]])
    assert results == [False]
    rng = random.Random(32)
    tables = accepted = refused_by_commuting = 0
    for _ in range(3000):
        n = rng.randint(2, 8)
        t = transversal([rng.sample(range(n), n) for _ in range(rng.randint(1, 3))], n)
        if t is None:
            continue
        tables += 1
        results.clear()
        try:
            g = validate_group(t)
        except ValidationError as err:
            assert not brute_is_group(t), t
            with pytest.raises(ValidationError) as sweep:
                groups._refuse(tuple(map(tuple, t)))
            assert str(err) == str(sweep.value)
            refused_by_commuting += results == [False]
        else:
            assert brute_is_group(t), t
            assert g.table == tuple(map(tuple, t))
            accepted += 1
    assert tables > 1000 and 500 < accepted < tables and refused_by_commuting > 10


def test_argument_checks_without_table_validation():
    with pytest.raises(ValidationError, match="cyclic order"):
        cyclic_group(0)
    with pytest.raises(ValidationError, match="non-empty"):
        subgroup_group(S3, [])
    with pytest.raises(ValidationError, match="non-empty set of elements in 0..1"):
        subgroup_group(cyclic_group(2), [-1, 0, 1])


# --- presentations ----------------------------------------------------------

def test_presentation_shorthand_classes():
    assert presentation_class(Presentation.trivial()) == "trivial"
    assert presentation_class(Presentation.free(1)) == "Z"
    assert presentation_class(Presentation.free_abelian(1)) == "Z"
    assert presentation_class(Presentation.cyclic(5)) == "cyclic(5)"
    assert presentation_class(Presentation.free_abelian(3)) == "free_abelian(3)"
    assert presentation_class(Presentation(2, ((1, 1),))) is None


def test_relator_letters_validated():
    with pytest.raises(ValidationError, match="out of range"):
        validate_presentation(1, ((2,),))
    with pytest.raises(ValidationError, match="out of range"):
        validate_presentation(1, ((0,),))
    with pytest.raises(ValidationError, match=re.escape("relators[1]: letter True is not an integer")):
        validate_presentation(2, ((1,), (True, True)))
    with pytest.raises(ValidationError, match=re.escape("relators[0]: expected a list of letters, got 1")):
        validate_presentation(2, (1, 2))


def test_empty_relator_imposes_nothing():
    assert validate_presentation(1, ((),)).relators == ()
    assert presentation_class(validate_presentation(1, ((),))) == "Z"
    assert validate_presentation(2, ((), (1, 1), ())) == Presentation(2, ((1, 1),))
    assert hom_enumerate(validate_presentation(2, ((),)), S3) == hom_enumerate(Presentation.free(2), S3)


def test_derived_presentations_pass_the_validator():
    """What the program builds without a check, the validator lets in unchanged."""
    rng = random.Random(8)
    built = [Presentation.trivial(), Presentation.free(3)]
    built += [Presentation.cyclic(k) for k in range(1, 7)]
    built += [Presentation.free_abelian(r) for r in range(5)]
    built += [harness.random_presentation(rng) for _ in range(200)]
    built += [product_presentation(a, b) for a in built[:13] for b in built[:13]]
    for p in built:
        assert validate_presentation(p.generators, p.relators) == p


# --- hom enumeration ---------------------------------------------------------

def test_hom_z_s3_is_all_elements():
    homs = hom_enumerate(Presentation.free(1), S3)
    assert homs == [(i,) for i in range(6)]


def test_hom_cyclic2_z3_only_identity():
    assert hom_enumerate(Presentation.cyclic(2), cyclic_group(3)) == [(0,)]


def test_hom_free_abelian2_s3_count():
    pairs = hom_enumerate(Presentation.free_abelian(2), S3)
    assert len(pairs) == 18
    assert pairs == brute_homs(Presentation.free_abelian(2), S3)


@pytest.mark.parametrize("g", SMALL_GROUPS)
@pytest.mark.parametrize(
    "p",
    [
        Presentation.trivial(),
        Presentation.free(1),
        Presentation.free_abelian(2),
        Presentation.cyclic(3),
        Presentation(2, ((1, 1), (2, 2, 2))),
        Presentation(2, ((1, 2, 1, -2),)),
    ],
)
def test_hom_enumerate_equals_brute_force(g, p):
    assert hom_enumerate(p, g) == brute_homs(p, g)


def _random_word(rng: random.Random, gens: int) -> tuple[int, ...]:
    """A relator of one of the shapes ``hom_enumerate`` treats apart."""
    a, b = rng.randint(1, gens), rng.randint(1, gens)
    sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
    roll = rng.random()
    if roll < 0.4:  # [x_a^sa, x_b^sb] in a random rotation; a > b puts the later generator first
        w = (sa * a, sb * b, -sa * a, -sb * b)
        r = rng.randrange(4)
        return w[r:] + w[:r]
    if roll < 0.55:  # the commutator shape on a single generator
        return rng.choice(((a, -a, -a, a), (a, a, -a, -a), (-a, a, a, -a), (sa * a, sb * a, -sa * a, -sb * a)))
    if roll < 0.7:  # a power relator
        return (sa * a,) * rng.randint(1, 4)
    if roll < 0.75:
        return ()
    return tuple(rng.choice((1, -1)) * rng.randint(1, gens) for _ in range(rng.randint(1, 5)))


def _random_presentation(rng: random.Random) -> Presentation:
    gens = rng.randint(1, 3)
    words = [_random_word(rng, gens) for _ in range(rng.randint(0, 4))]
    if words and rng.random() < 0.3:
        words.append(rng.choice(words))  # a repeated relator
    p = validate_presentation(gens, words)
    if rng.random() < 0.3:
        p = product_presentation(p, _random_presentation(rng))
    return p


def test_hom_enumerate_equals_brute_force_on_random_presentations():
    """Commutators in every spelling, their one-generator look-alikes,
    repeats, powers, empty words and direct products, against the
    brute-force filter, order included."""
    rng = random.Random(6)
    pool = SMALL_GROUPS + [symmetric_group(4), direct_product(cyclic_group(2), S3)]
    checked = 0
    while checked < 300:
        g, p = rng.choice(pool), _random_presentation(rng)
        if g.order ** p.generators <= 15000:
            assert hom_enumerate(p, g) == brute_homs(p, g), (g, p)
            checked += 1


def test_more_generators_than_the_stack_is_refused():
    """The enumeration recurses once per generator; a presentation with
    more generators than the interpreter's stack allows is refused as a
    resource limit, with exit 2's class, and the refusal can name a cell."""
    n = sys.getrecursionlimit() + 100
    with pytest.raises(ResourceLimitExceeded) as info:
        hom_enumerate(Presentation.free(n), trivial_group())
    assert isinstance(info.value, UnsupportedCombination)
    assert str(info.value) == f"hom_enumerate: {n} generators recurse deeper than the interpreter's stack allows"
    at = info.value.with_cell("pt")
    assert (at.stage, at.reason, at.cell_id) == (info.value.stage, info.value.reason, "pt")
    assert str(at) == f"{info.value} at 'pt'"
    assert hom_enumerate(Presentation.free(100), trivial_group()) == [(0,) * 100]


def test_more_generators_than_the_stack_is_refused_by_the_orbit_walk():
    """The orbit walk recurses once per generator too, and its refusal
    names its own stage."""
    n = sys.getrecursionlimit() + 100
    with pytest.raises(ResourceLimitExceeded) as info:
        hom_orbit_reps(Presentation.free(n), trivial_group())
    reason = f"{n} generators recurse deeper than the interpreter's stack allows"
    assert (info.value.stage, info.value.reason) == ("hom_orbit_reps", reason)
    at = info.value.with_cell("pt")
    assert (at.stage, at.reason, at.cell_id) == ("hom_orbit_reps", reason, "pt")
    assert str(at) == f"hom_orbit_reps: {reason} at 'pt'"
    assert hom_orbit_reps(Presentation.free(100), trivial_group()) == [(0,) * 100]


def test_hom_output_is_lexicographic():
    homs = hom_enumerate(Presentation.free_abelian(2), Q8)
    assert homs == sorted(homs)


# --- conjugation orbits -----------------------------------------------------

def test_orbits_of_hom_z_is_class_count():
    for g in SMALL_GROUPS:
        assert len(hom_orbit_reps(Presentation.free(1), g)) == len(conjugacy_classes(g))


def test_orbits_abelian_group_trivial_conjugation():
    assert len(hom_orbit_reps(Presentation.free(1), cyclic_group(6))) == 6


def test_conj_orbits_match_an_all_element_partition():
    """The walk's representatives, values and order, are the least tuples
    of the partition made by conjugating every homomorphism by every
    element, on 240 random pairs of a harness group and a presentation:
    the harness's draws and commutators in every spelling, powers and
    direct products."""
    rng = random.Random(11)
    keys = list(harness._GROUP_BUILDERS)
    checked = 0
    while checked < 240:
        g = harness.group_by_key(rng.choice(keys))
        assert g.order <= 48
        p = harness.random_presentation(rng, max_rank=2) if checked % 2 else _random_presentation(rng)
        if g.order ** p.generators <= 15000:
            assert hom_orbit_reps(p, g) == brute_orbit_reps(p, g), (g, p)
            checked += 1


def test_commuting_pairs_s3_orbits():
    pairs = hom_enumerate(Presentation.free_abelian(2), S3)
    assert len(hom_orbit_reps(Presentation.free_abelian(2), S3)) == 8 == brute_orbits(pairs, S3)
    # cross-check: sum over classes of the centralizer's class count
    total = 0
    for cls in conjugacy_classes(S3):
        cent, _ = subgroup_group(S3, centralizer(S3, (cls.rep,)))
        total += len(conjugacy_classes(cent))
    assert total == 3 + 2 + 3 == 8


def test_orbit_reps_are_minimal_and_sorted():
    reps = hom_orbit_reps(Presentation.free_abelian(2), S3)
    assert reps == sorted(reps)
    for rep in reps:
        orbit = {tuple(map(groups.conjugation(S3, a).__getitem__, rep)) for a in S3.elements()}
        assert rep == min(orbit)


def test_column_conjugation_edges():
    """The trivial presentation's one empty tuple is one orbit, and the
    one-generator free group's representatives are the classes'."""
    for g in [build() for _, build in harness._GROUP_BUILDERS.values()] + [symmetric_group(5)]:
        assert hom_orbit_reps(Presentation.trivial(), g) == [()]
        assert hom_orbit_reps(Presentation.free(1), g) == [(c.rep,) for c in conjugacy_classes(g)]


@given(st.sampled_from([cyclic_group(4), cyclic_group(6)]), st.randoms(use_true_random=False))
def test_abelian_every_closed_set_is_discrete(g, rnd):
    # conjugation is trivial, so each homomorphism is an orbit of its own
    p = harness.random_presentation(rnd)
    assert hom_orbit_reps(p, g) == hom_enumerate(p, g)


def test_orbit_counts_past_the_whole_enumeration():
    """Counts the enumerate-then-conjugate pipeline took seconds or more
    for.  On a free group the count is also Burnside's,
    sum |C(a)|^r / |g| over the elements a."""
    genus2 = Presentation(4, ((1, 2, -1, -2, 3, 4, -3, -4),))
    s6 = symmetric_group(6)
    assert len(hom_orbit_reps(genus2, symmetric_group(5))) == 33_693
    assert len(hom_orbit_reps(genus2, symmetric_group(4))) == 1_851
    assert len(hom_orbit_reps(Presentation.free_abelian(2), s6)) == 92
    assert len(hom_orbit_reps(Presentation.free_abelian(3), s6)) == 717
    for p, g, count in [(Presentation.free(6), Q8, 68_608), (Presentation.free(2), s6, 901)]:
        burnside = sum(g.centralizer_mask(a).bit_count() ** p.generators for a in g.elements())
        assert len(hom_orbit_reps(p, g)) == count == burnside // g.order


# --- centralizers and classes ------------------------------------------------

def test_centralizer_identity_tuple_is_whole_group():
    assert centralizer(S3, (0,)) == list(range(6))


def test_centralizer_sizes_in_s3():
    # index 1 is a transposition, index 3 a 3-cycle (one-line lex order)
    assert len(centralizer(S3, (1,))) == 2
    assert len(centralizer(S3, (3,))) == 3


def test_centralizer_is_subgroup():
    for g in SMALL_GROUPS:
        for t in [(0,), (g.order - 1,)]:
            assert groups.is_subgroup(g, centralizer(g, t))


def test_centralizer_masks_match_rows_and_columns(monkeypatch):
    """Every centralizer bitmask is the set of b with a*b == b*a, on the
    harness groups, S5, S6 and relabelled copies of both; the table of
    masks is built from the multiplication table alone, calling no
    ``groups`` function."""
    rng = random.Random(7)
    tables = [build().table for _, build in harness._GROUP_BUILDERS.values()]
    for n in (5, 6):
        sn = symmetric_group(n).table
        tables += [sn, relabelled(sn, rng), relabelled(sn, rng)]

    def called(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"groups.{name} called")

        return refuse

    # the groups are built first: a group's walk for its inverses is a groups function
    built = [FiniteGroup(table) for table in tables]
    for name, fn in vars(groups).items():
        if inspect.isfunction(fn) and fn.__module__ == groups.__name__:
            monkeypatch.setattr(groups, name, called(name))
    for g in built:
        masks = [g.centralizer_mask(a) for a in g.elements()]
        assert masks == [
            sum(1 << b for b, (ab, ba) in enumerate(zip(row, column)) if ab == ba)
            for row, column in zip(g.table, zip(*g.table))
        ]


def test_classes_z4():
    assert len(conjugacy_classes(cyclic_group(4))) == 4


def test_classes_s3():
    sizes = sorted(c.size for c in conjugacy_classes(S3))
    assert sizes == [1, 2, 3]
    assert sum(c.size for c in conjugacy_classes(S3)) == 6


def test_classes_q8():
    assert len(conjugacy_classes(Q8)) == 5
    assert sum(c.size for c in conjugacy_classes(Q8)) == 8


# --- smith normal form --------------------------------------------------------

def test_snf_cyclic():
    for k in (2, 3, 7):
        assert abelianize_snf(Presentation.cyclic(k)) == groups.SnfResult(0, (k,))


def test_snf_cyclic1_trivializes():
    assert abelianize_snf(Presentation.cyclic(1)) == groups.SnfResult(0, ())


def test_snf_free_abelian():
    assert abelianize_snf(Presentation.free_abelian(2)) == groups.SnfResult(2, ())


def test_snf_klein_four_quotient():
    p = Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2)))
    assert abelianize_snf(p) == groups.SnfResult(0, (2, 2))


def test_snf_divisibility_chain():
    diag = smith_normal_form([[2, 0], [0, 3]])
    assert diag == [1, 6]


@given(st.randoms(use_true_random=False))
def test_snf_invariant_under_relator_reorder_and_invert(rnd):
    p = Presentation(3, ((1, 2, -1, -2), (3, 3, 3), (1, 1, 2)))
    base = abelianize_snf(p)
    rels = list(p.relators)
    rnd.shuffle(rels)
    i = rnd.randrange(len(rels))
    rels[i] = tuple(-l for l in reversed(rels[i]))
    assert abelianize_snf(Presentation(3, tuple(rels))) == base


def test_product_presentation_hom_count():
    p = product_presentation(Presentation.cyclic(2), Presentation.cyclic(3))
    homs = hom_enumerate(p, S3)
    # images of the two generators commute, have orders dividing 2 and 3
    oracle = [
        (a, b)
        for a in range(6)
        for b in range(6)
        if S3.mul(a, a) == 0 and S3.mul(S3.mul(b, b), b) == 0 and S3.mul(a, b) == S3.mul(b, a)
    ]
    assert homs == oracle


# --- subgroups and cosets -------------------------------------------------------

def test_subgroup_closure():
    assert subgroup_closure(S3, [1]) == [0, 1]
    assert len(subgroup_closure(S3, [1, 3])) == 6
    with pytest.raises(ValidationError, match="subgroup_closure: element 6 out of range"):
        subgroup_closure(S3, [1, 6])


def test_subgroup_closure_matches_products_and_inverses():
    """The orbit of 0 under right multiplication is the set closed under
    products and inverses, on every harness group."""
    rng = random.Random(5)
    for key in harness._GROUP_BUILDERS:
        g = harness.group_by_key(key)
        for _ in range(4):
            gens = [rng.randrange(g.order) for _ in range(rng.randint(1, 3))]
            closed = {0, *gens}
            while True:
                grown = closed | {g.mul(a, b) for a in closed for b in closed} | {g.inverses[a] for a in closed}
                if grown == closed:
                    break
                closed = grown
            assert subgroup_closure(g, gens) == sorted(closed), (key, gens)


def test_coset_action_whole_group():
    ca = coset_action(S3, list(range(6)))
    perms = tr.coset_complex(S3, list(range(6))).perms
    assert ca.reps == (0,)
    assert all(p == (0,) for p in perms)


def test_coset_action_trivial_subgroup_is_regular():
    ca = coset_action(S3, [0])
    perms = tr.coset_complex(S3, [0]).perms
    assert len(ca.reps) == 6
    # regular action: only the identity fixes a coset
    for a in range(1, 6):
        assert all(perms[a][i] != i for i in range(6))


def test_coset_action_s3_on_three_cosets():
    sub = subgroup_closure(S3, [1])
    ca = coset_action(S3, sub)
    perms = tr.coset_complex(S3, sub).perms
    assert len(ca.reps) == 3
    # the action is a homomorphism into permutations of the cosets
    for a in range(6):
        for b in range(6):
            ab = S3.mul(a, b)
            assert all(
                perms[a][perms[b][i]] == perms[ab][i] for i in range(3)
            )
    # faithful and transitive with point stabilizers of order 2
    images = {perms[a] for a in range(6)}
    assert len(images) == 6
    assert {perms[a][0] for a in range(6)} == {0, 1, 2}


def test_coset_action_rejects_non_subgroup():
    with pytest.raises(ValidationError, match="not a subgroup"):
        coset_action(S3, [0, 1, 3])


def test_subgroup_group_reindexes():
    sub, elems = subgroup_group(S3, centralizer(S3, (3,)))
    assert sub.order == 3 and elems[0] == 0


@pytest.mark.parametrize("g", SMALL_GROUPS)
def test_subgroup_group_of_whole_group_is_the_group(g):
    sub, elems = subgroup_group(g, list(reversed(g.elements())) + [0])
    assert sub is g and elems == list(g.elements())


# --- class equation for commuting pairs -------------------------------------

@pytest.mark.parametrize(
    "g",
    SMALL_GROUPS
    + [symmetric_group(5)]
    + [build() for _, build in harness._GROUP_BUILDERS.values()],
)
def test_commuting_pairs_class_equation(g):
    # classes and centralizers against a brute force by mul and inv
    classes, seen = [], set()
    for a in g.elements():
        if a not in seen:
            orbit = {g.mul(g.mul(b, a), g.inverses[b]) for b in g.elements()}
            seen |= orbit
            classes.append((min(orbit), len(orbit)))
    assert [(cls.rep, cls.size) for cls in conjugacy_classes(g)] == classes
    for a in g.elements():
        assert centralizer(g, (a,)) == [b for b in g.elements() if g.mul(a, b) == g.mul(b, a)]
    pairs = hom_enumerate(Presentation.free_abelian(2), g)
    by_centralizer = sum(
        len(centralizer(g, (cls.rep,))) * cls.size for cls in conjugacy_classes(g)
    )
    assert len(pairs) == by_centralizer


@pytest.mark.parametrize(
    "count",
    [conjugacy_classes, lambda g: hom_orbit_reps(Presentation.free(1), g)],
    ids=["conjugacy_classes", "hom_orbit_reps"],
)
def test_conjugation_builds_no_order_squared_table(count):
    # a table of all |S6|^2 conjugates would take over 4 MB
    g = symmetric_group(6)
    tracemalloc.start()
    try:
        count(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
