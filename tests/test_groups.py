import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from eulerchi import groups, harness, translation as tr
from eulerchi.errors import ValidationError
from eulerchi.groups import (
    FiniteGroup,
    Presentation,
    abelianize_snf,
    centralizer,
    conj_orbit_count,
    conjugacy_classes,
    coset_action,
    cyclic_group,
    dihedral_group,
    direct_product,
    hom_enumerate,
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

S3 = symmetric_group(3)
Q8 = quaternion_group()

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
        e = images[letter - 1] if letter > 0 else g.inv(images[-letter - 1])
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
                img = tuple(g.mul(g.mul(a, e), g.inv(a)) for e in t)
                if img in left:
                    left.remove(img)
                    frontier.append(img)
        count += 1
    return count


# --- table validation ------------------------------------------------------

def test_z2_valid():
    g = validate_group([[0, 1], [1, 0]])
    assert g.order == 2 and g.inv(1) == 1


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


def test_s3_from_permutation_composition():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
    ]
    g = validate_group(table)
    assert g.order == 6
    assert g.table == S3.table


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


def _sweep_not_reached(rows):
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


def test_s6_is_accepted_without_the_sweep(monkeypatch):
    monkeypatch.setattr(groups, "_refuse", _sweep_not_reached)
    s6 = symmetric_group(6)
    assert validate_group(s6.table) == s6
    with pytest.raises(AssertionError, match="reached the sweep"):
        validate_group(LOOP5)  # the patched sweep is the one that runs


def test_validated_group_keeps_the_proofs_generators(monkeypatch):
    """``validate_group`` hands the generating set its proof computed to the
    group, so neither a complex check nor an orbit walk computes it again."""
    s4 = symmetric_group(4)
    gens = tuple(groups._generators(s4.table))
    g = validate_group(s4.table)

    def computed_again(rows):
        raise AssertionError("generating set computed again")

    monkeypatch.setattr(groups, "_generators", computed_again)
    assert g.generators() == gens
    x = tr.coset_complex(g, [0, 1])
    action = {a: {c: x.act(a, c) for c in x.space.ids()} for a in g.elements()}
    assert len(tr.orbit_space(tr.validate_complex(g, x.space, action))) == 1


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


def test_hom_output_is_lexicographic():
    homs = hom_enumerate(Presentation.free_abelian(2), Q8)
    assert homs == sorted(homs)


# --- conjugation orbits -----------------------------------------------------

def test_orbits_of_hom_z_is_class_count():
    for g in SMALL_GROUPS:
        homs = hom_enumerate(Presentation.free(1), g)
        assert conj_orbit_count(homs, g).count == len(conjugacy_classes(g))


def test_orbits_abelian_group_trivial_conjugation():
    g = cyclic_group(6)
    homs = hom_enumerate(Presentation.free(1), g)
    assert conj_orbit_count(homs, g).count == 6


def test_conj_orbits_match_an_all_element_partition():
    """Orbits grown from the generators give the count and the
    representatives (each orbit's least tuple) of the partition made by
    conjugating each tuple by every element, on every harness group."""
    rng = random.Random(11)
    for key in harness._GROUP_BUILDERS:
        g = harness.group_by_key(key)
        assert g.order <= 48
        for _ in range(3):
            p = harness.random_presentation(rng, max_rank=2)
            tuples = hom_enumerate(p, g)
            orbits = {
                frozenset(tuple(g.mul(g.mul(a, e), g.inv(a)) for e in t) for a in g.elements())
                for t in tuples
            }
            result = conj_orbit_count(tuples, g)
            assert result.count == len(orbits), (key, p)
            assert result.reps == tuple(sorted(min(o) for o in orbits)), (key, p)


def test_commuting_pairs_s3_orbits():
    pairs = hom_enumerate(Presentation.free_abelian(2), S3)
    result = conj_orbit_count(pairs, S3)
    assert result.count == 8 == brute_orbits(pairs, S3)
    # cross-check: sum over classes of the centralizer's class count
    total = 0
    for cls in conjugacy_classes(S3):
        cent, _ = subgroup_group(S3, centralizer(S3, (cls.rep,)))
        total += len(conjugacy_classes(cent))
    assert total == 3 + 2 + 3 == 8


def test_orbit_reps_are_minimal_and_sorted():
    pairs = hom_enumerate(Presentation.free_abelian(2), S3)
    result = conj_orbit_count(pairs, S3)
    assert list(result.reps) == sorted(result.reps)
    for rep in result.reps:
        orbit = {S3.conj_tuple(a, rep) for a in S3.elements()}
        assert rep == min(orbit)


def test_orbit_count_requires_closure():
    # a single transposition, whose orbit has 3
    with pytest.raises(ValidationError, match=re.escape("input not conjugation-closed (missing (2,))")):
        conj_orbit_count([(1,)], S3)
    # two open orbits: the least missing conjugate, (4,), lies in the later one
    with pytest.raises(ValidationError, match=re.escape("input not conjugation-closed (missing (4,))")):
        conj_orbit_count([(1,), (2,), (3,)], S3)


@pytest.mark.parametrize("bad", [7, -1])
def test_orbit_count_refuses_elements_out_of_range(bad):
    # 7 would index past the table, and -1 would wrap to element 5
    with pytest.raises(ValidationError, match=re.escape(f"conj_orbit_count: element {bad} out of range")):
        conj_orbit_count([(bad,)], S3)
    with pytest.raises(ValidationError, match=re.escape(f"conj_orbit_count: element {bad} out of range")):
        conj_orbit_count([(0, 0), (0, bad)], S3)


def test_orbit_count_refuses_duplicates():
    with pytest.raises(ValidationError, match="^conj_orbit_count: duplicate tuples in input$"):
        conj_orbit_count([(0, 0), (1, 1), (0, 0)], cyclic_group(2))


@given(st.sampled_from([cyclic_group(4), cyclic_group(6)]), st.randoms(use_true_random=False))
def test_abelian_every_closed_set_is_discrete(g, rnd):
    elems = [i for i in range(g.order) if rnd.random() < 0.5]
    tuples = [(e,) for e in elems]
    assert conj_orbit_count(tuples, g).count == len(tuples)


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
                grown = closed | {g.mul(a, b) for a in closed for b in closed} | {g.inv(a) for a in closed}
                if grown == closed:
                    break
                closed = grown
            assert subgroup_closure(g, gens) == sorted(closed), (key, gens)


def test_coset_action_whole_group():
    ca = coset_action(S3, list(range(6)))
    assert ca.reps == (0,)
    assert all(p == (0,) for p in ca.perms)


def test_coset_action_trivial_subgroup_is_regular():
    ca = coset_action(S3, [0])
    assert len(ca.reps) == 6
    # regular action: only the identity fixes a coset
    for a in range(1, 6):
        assert all(ca.perms[a][i] != i for i in range(6))


def test_coset_action_s3_on_three_cosets():
    sub = subgroup_closure(S3, [1])
    ca = coset_action(S3, sub)
    assert len(ca.reps) == 3
    # the action is a homomorphism into permutations of the cosets
    for a in range(6):
        for b in range(6):
            ab = S3.mul(a, b)
            assert all(
                ca.perms[a][ca.perms[b][i]] == ca.perms[ab][i] for i in range(3)
            )
    # faithful and transitive with point stabilizers of order 2
    images = {ca.perms[a] for a in range(6)}
    assert len(images) == 6
    assert {ca.perms[a][0] for a in range(6)} == {0, 1, 2}


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
            orbit = {g.mul(g.mul(b, a), g.inv(b)) for b in g.elements()}
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
    [conjugacy_classes, lambda g: conj_orbit_count(hom_enumerate(Presentation.free(1), g), g)],
    ids=["conjugacy_classes", "conj_orbit_count"],
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
